//! Sparse graph substrate for the Grain framework.
//!
//! Everything in the Grain paper operates on an undirected attributed graph
//! `G = (V, E)`; this crate supplies that substrate built from scratch:
//!
//! * [`csr::CsrMatrix`] — compressed sparse row matrix with `f32` weights,
//!   the storage format for adjacency and transition matrices,
//! * [`graph::Graph`] — an undirected graph facade over CSR adjacency,
//! * [`transition`] — the generalized transition matrices of Table 1
//!   (random-walk, symmetric, triangle-induced),
//! * [`triangle`] — per-edge triangle counting for the Triangle-IA kernel,
//! * [`generators`] — seeded random-graph models (Erdős–Rényi,
//!   Barabási–Albert, degree-corrected stochastic block model) used to
//!   synthesize the evaluation corpora,
//! * [`algo`] — BFS, connected components, PageRank (AGE's centrality arm),
//! * [`edit`] — validated structural edits (row-spliced edge
//!   insert/delete) and k-hop dirty-set expansion for live corpora,
//! * [`io`] — edge-list text round-trips.
//!
//! ```
//! use grain_graph::{generators, transition_matrix, TransitionKind};
//!
//! // A seeded G(n, m) graph: the substrate every pipeline stage reads.
//! let g = generators::erdos_renyi_gnm(100, 300, 7);
//! assert_eq!((g.num_nodes(), g.num_edges()), (100, 300));
//!
//! // The Table 1 random-walk transition matrix over Ã = A + I: every
//! // row is a probability distribution over the node's neighborhood.
//! let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
//! let (neighbors, weights) = t.row(0);
//! assert_eq!(neighbors.len(), g.degree(0) + 1); // + the self-loop
//! let mass: f32 = weights.iter().sum();
//! assert!((mass - 1.0).abs() < 1e-5);
//! ```

pub mod algo;
pub mod builder;
pub mod csr;
pub mod edit;
pub mod generators;
pub mod graph;
pub mod io;
pub mod transition;
pub mod triangle;

pub use csr::CsrMatrix;
pub use edit::{apply_edge_edits, check_weight, k_hop_ball, EditError};
pub use graph::Graph;
pub use transition::{transition_matrix, transition_rows, TransitionKind};
