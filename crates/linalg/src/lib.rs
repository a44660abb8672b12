//! Dense linear-algebra substrate for the Grain framework.
//!
//! The Grain paper (VLDB 2021) separates feature *propagation* from model
//! *training*; both sides bottom out in dense row-major `f32` matrices.
//! This crate provides that shared substrate:
//!
//! * [`DenseMatrix`] — a row-major matrix with cheap row views,
//! * [`bitset`] — a packed u64 bitset backing the allocation-free greedy
//!   coverage loops,
//! * [`ops`] — (parallel) GEMM variants and elementwise kernels,
//! * [`distance`] — the exact lane-blocked all-pairs scan behind the flat
//!   ball lists and `d_max` of the diversity functions of Section 3.3,
//! * [`kmeans`] — k-means++ clustering used by the AGE baseline's density arm,
//! * [`pca`] — power-iteration PCA used for the Figure 7 interpretability
//!   scatter (substitute for t-SNE),
//! * [`par`] — scoped-thread helpers shared by the whole workspace.
//!
//! All kernels are deterministic given a seeded RNG, which the reproduction
//! harness relies on.
//!
//! ```
//! use grain_linalg::{ops, DenseMatrix};
//!
//! let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let product = ops::matmul(&a, &DenseMatrix::eye(2));
//! assert_eq!(product.as_slice(), a.as_slice());
//!
//! // Row-normalization, the step Definition 3.4/3.6 apply before any
//! // distance is measured in the diversity feature space.
//! let mut rows = DenseMatrix::from_rows(&[&[3.0, 4.0], &[0.0, 2.0]]);
//! ops::l2_normalize_rows(&mut rows, 1);
//! assert_eq!(rows.row(0), &[0.6, 0.8]);
//! assert_eq!(ops::row_norms(&rows), vec![1.0, 1.0]);
//! ```

pub mod bitset;
pub mod dense;
pub mod distance;
pub mod kmeans;
pub mod ops;
pub mod par;
pub mod pca;
pub mod stats;

pub use bitset::Bitset;
pub use dense::DenseMatrix;
