//! Feature-influence model and activation machinery (Grain §3.1–3.2).
//!
//! Grain measures the influence of node `u` on node `v` as the L1 norm of
//! the expected Jacobian of the k-step aggregated feature of `v` with
//! respect to the input feature of `u` (Definition 3.1). For the
//! generalized transition matrices of Table 1 this equals the `(v, u)`
//! entry of `T^k`, i.e. the total probability mass of length-`k` influence
//! paths from `v` to `u` (Eq. 9). After per-row L1 normalization (Eq. 8)
//! we obtain the *normalized influence* `I_v(u, k)`.
//!
//! * [`walk`] computes sparse normalized influence rows `I_v(·, k)` for all
//!   nodes, in parallel, with epsilon pruning,
//! * [`index`] inverts the rows into an *activation index*
//!   `act[u] = {v : I_v(u, k) > θ}` (Definition 3.2), turning `|σ(S)|`
//!   into an incrementally maintainable coverage function,
//! * [`coverage`] maintains `σ(S)` and marginal gains during greedy
//!   selection,
//! * [`theory`] offers empirical monotonicity/submodularity checkers used
//!   by the property-test suite (Theorems 3.3, 3.5, 3.7).
//!
//! ```
//! use grain_graph::{generators, transition_matrix, TransitionKind};
//! use grain_influence::{ActivationIndex, InfluenceRows, ThetaRule};
//!
//! let g = generators::erdos_renyi_gnm(60, 180, 5);
//! let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
//!
//! // Normalized influence rows I_v(·, 2) (Eq. 8/9) in flat CSR form:
//! // each node's influencers carry unit total mass after per-row L1
//! // normalization.
//! let rows = InfluenceRows::compute(&t, 2, 1e-4);
//! let mass: f32 = rows.row_values(0).iter().sum();
//! assert!((mass - 1.0).abs() < 1e-4);
//!
//! // Inverted into the activation index act[u] = {v : I_v(u, 2) > θ}
//! // (Definition 3.2), |σ(S)| becomes an incremental coverage count.
//! let index = ActivationIndex::build(&rows, ThetaRule::RelativeToRowMax(0.25), 1);
//! let sigma = index.sigma(&[0, 1]);
//! assert!(sigma.len() >= index.sigma(&[0]).len(), "coverage is monotone");
//! ```

pub mod coverage;
pub mod index;
pub mod theory;
pub mod walk;

pub use coverage::CoverageState;
pub use index::{ActivationIndex, ThetaRule};
pub use walk::InfluenceRows;
