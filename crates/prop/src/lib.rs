//! Decoupled, parameter-free feature propagation (Grain Eq. 6 / Table 1).
//!
//! Grain's central efficiency idea is to run the GNN's *feature propagation*
//! once, up front, without any trainable weights:
//!
//! ```text
//! X^(k) = f(X^(k-1), T, X^(0)),   k = 1..K
//! ```
//!
//! This crate implements every propagation mechanism listed in Table 1 of
//! the paper — normalized adjacency (GCN), random walk (SGC), personalized
//! PageRank (APPNP), triangle-induced adjacency (SIGN), S2GC, and GBP — on
//! top of the sparse transition matrices from `grain-graph`.
//!
//! The aggregated embedding `X^(K)` is the single artifact every other part
//! of the framework consumes: influence rows, diversity functions, and the
//! decoupled GNNs.
//!
//! ```
//! use grain_graph::generators;
//! use grain_linalg::DenseMatrix;
//! use grain_prop::{propagate, Kernel};
//!
//! let g = generators::erdos_renyi_gnm(50, 150, 3);
//! let x = DenseMatrix::full(50, 4, 1.0);
//!
//! // SGC-style propagation: X^(2) = T_rw^2 X^(0). The transition rows
//! // are probability distributions, so a constant signal is a fixed
//! // point — the classic over-smoothing limit, reached here instantly.
//! let xk = propagate(&g, Kernel::RandomWalk { k: 2 }, &x);
//! assert_eq!(xk.shape(), (50, 4));
//! assert!(xk.as_slice().iter().all(|v| (v - 1.0).abs() < 1e-5));
//! ```

pub mod cache;
pub mod kernel;
pub mod propagate;

pub use kernel::Kernel;
pub use propagate::{propagate, propagate_with, repropagate_rows};
