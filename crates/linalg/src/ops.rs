//! Dense matrix kernels: GEMM variants, elementwise updates, row norms.
//!
//! GEMM uses an `i-k-j` loop order (the inner loop streams over contiguous
//! output/input rows), parallelized across output rows. That is the standard
//! cache-friendly layout for row-major data and is fast enough for the
//! hidden sizes the paper uses (<= a few hundred columns).

use crate::dense::DenseMatrix;
use crate::par;

/// Output rows per block of the GEMM kernels.
const ROW_BLOCK: usize = 16;

/// `C = A * B`.
///
/// # Panics
/// Panics if `A.cols() != B.rows()`.
pub fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul: inner dimensions differ ({}x{} * {}x{})",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let n = b.cols();
    let mut c = DenseMatrix::zeros(a.rows(), n);
    par::for_each_block_mut(
        0,
        c.as_mut_slice(),
        ROW_BLOCK * n,
        || (),
        |(), blk, rows| {
            for (i, c_row) in (blk * ROW_BLOCK..).zip(rows.chunks_exact_mut(n)) {
                for (&aik, b_row) in a.row(i).iter().zip(b.iter_rows()) {
                    if aik == 0.0 {
                        continue;
                    }
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj += aik * bj;
                    }
                }
            }
        },
    );
    c
}

/// `C = A^T * B` without materializing the transpose.
///
/// Used by GNN backprop (`dW = H^T * dZ`). Parallel over output rows like
/// its siblings: one worker accumulates each row `i` of `C` over the rows
/// `r` of `A` and `B` in ascending order, skipping `A[r][i] == 0`, so no
/// partial sums are combined and the result is bit-identical at any
/// thread count.
pub fn matmul_tn(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.rows(),
        b.rows(),
        "matmul_tn: row counts differ ({} vs {})",
        a.rows(),
        b.rows()
    );
    let n = b.cols();
    let mut c = DenseMatrix::zeros(a.cols(), n);
    par::for_each_block_mut(
        0,
        c.as_mut_slice(),
        ROW_BLOCK * n,
        || (),
        |(), blk, rows| {
            for (a_row, b_row) in a.iter_rows().zip(b.iter_rows()) {
                for (&ai, c_row) in a_row[blk * ROW_BLOCK..]
                    .iter()
                    .zip(rows.chunks_exact_mut(n))
                {
                    if ai == 0.0 {
                        continue;
                    }
                    for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                        *cj += ai * bj;
                    }
                }
            }
        },
    );
    c
}

/// `C = A * B^T` without materializing the transpose.
pub fn matmul_nt(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.cols(),
        "matmul_nt: column counts differ ({} vs {})",
        a.cols(),
        b.cols()
    );
    let n = b.rows();
    let mut c = DenseMatrix::zeros(a.rows(), n);
    par::for_each_block_mut(
        0,
        c.as_mut_slice(),
        ROW_BLOCK * n,
        || (),
        |(), blk, rows| {
            for (i, c_row) in (blk * ROW_BLOCK..).zip(rows.chunks_exact_mut(n)) {
                for (cj, b_row) in c_row.iter_mut().zip(b.iter_rows()) {
                    *cj = dot(a.row(i), b_row);
                }
            }
        },
    );
    c
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// `a += b` elementwise.
pub fn add_assign(a: &mut DenseMatrix, b: &DenseMatrix) {
    assert_eq!(a.shape(), b.shape(), "add_assign: shapes differ");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += *y;
    }
}

/// `a += alpha * b` elementwise (AXPY).
pub fn axpy(a: &mut DenseMatrix, alpha: f32, b: &DenseMatrix) {
    assert_eq!(a.shape(), b.shape(), "axpy: shapes differ");
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += alpha * *y;
    }
}

/// `a *= alpha` elementwise.
pub fn scale(a: &mut DenseMatrix, alpha: f32) {
    for x in a.as_mut_slice() {
        *x *= alpha;
    }
}

/// Elementwise (Hadamard) product `a ⊙ b`.
pub fn hadamard(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    assert_eq!(a.shape(), b.shape(), "hadamard: shapes differ");
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| x * y)
        .collect();
    DenseMatrix::from_vec(a.rows(), a.cols(), data)
}

/// L2-normalizes one row slice in place — the exact per-row operation of
/// [`l2_normalize_rows`] (same [`dot`], same division order), exposed so
/// incremental maintenance can re-normalize only dirty rows and stay
/// bit-identical to a full-matrix pass.
pub fn l2_normalize_row(row: &mut [f32]) {
    let norm = dot(row, row).sqrt();
    if norm > 0.0 {
        for v in row {
            *v /= norm;
        }
    }
}

/// L2-normalizes every row in place over `threads` workers (`0` = auto);
/// zero rows are left untouched. Rows are normalized independently, so the
/// result is bit-identical at any thread count.
pub fn l2_normalize_rows(m: &mut DenseMatrix, threads: usize) {
    let cols = m.cols();
    par::for_each_block_mut(
        threads,
        m.as_mut_slice(),
        128 * cols,
        || (),
        |(), _, rows| {
            rows.chunks_exact_mut(cols).for_each(l2_normalize_row);
        },
    );
}

/// L1-normalizes every row in place; zero rows are left untouched.
pub fn l1_normalize_rows(m: &mut DenseMatrix) {
    for i in 0..m.rows() {
        let row = m.row_mut(i);
        let norm: f32 = row.iter().map(|v| v.abs()).sum();
        if norm > 0.0 {
            for v in row {
                *v /= norm;
            }
        }
    }
}

/// Per-row L2 norms.
pub fn row_norms(m: &DenseMatrix) -> Vec<f32> {
    (0..m.rows())
        .map(|i| dot(m.row(i), m.row(i)).sqrt())
        .collect()
}

/// Column-wise mean vector.
pub fn column_means(m: &DenseMatrix) -> Vec<f32> {
    let mut means = vec![0.0f64; m.cols()];
    for row in m.iter_rows() {
        for (acc, &v) in means.iter_mut().zip(row) {
            *acc += v as f64;
        }
    }
    let n = m.rows().max(1) as f64;
    means.into_iter().map(|v| (v / n) as f32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &DenseMatrix, b: &DenseMatrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_small_known_result() {
        let a = DenseMatrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = DenseMatrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_vec(3, 3, (0..9).map(|v| v as f32).collect());
        let c = matmul(&a, &DenseMatrix::eye(3));
        assert!(approx_eq(&a, &c, 1e-6));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = DenseMatrix::from_vec(4, 2, (0..8).map(|v| v as f32).collect());
        let b = DenseMatrix::from_vec(4, 3, (0..12).map(|v| (v as f32).sin()).collect());
        let fast = matmul_tn(&a, &b);
        let slow = matmul(&a.transpose(), &b);
        assert!(approx_eq(&fast, &slow, 1e-5));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = DenseMatrix::from_vec(3, 4, (0..12).map(|v| (v as f32).cos()).collect());
        let b = DenseMatrix::from_vec(2, 4, (0..8).map(|v| v as f32 * 0.5).collect());
        let fast = matmul_nt(&a, &b);
        let slow = matmul(&a, &b.transpose());
        assert!(approx_eq(&fast, &slow, 1e-5));
    }

    #[test]
    fn l2_normalize_rows_makes_unit_rows() {
        let mut m = DenseMatrix::from_vec(2, 2, vec![3., 4., 0., 0.]);
        l2_normalize_rows(&mut m, 1);
        assert!((dot(m.row(0), m.row(0)) - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0., 0.]); // zero row untouched
    }

    #[test]
    fn l2_normalize_rows_is_thread_count_invariant() {
        let data: Vec<f32> = (0..600).map(|i| ((i * 37 % 23) as f32) - 11.0).collect();
        let mut serial = DenseMatrix::from_vec(200, 3, data.clone());
        l2_normalize_rows(&mut serial, 1);
        for threads in [2usize, 7] {
            let mut par = DenseMatrix::from_vec(200, 3, data.clone());
            l2_normalize_rows(&mut par, threads);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn l1_normalize_rows_makes_unit_l1() {
        let mut m = DenseMatrix::from_vec(1, 3, vec![1., -1., 2.]);
        l1_normalize_rows(&mut m);
        let l1: f32 = m.row(0).iter().map(|v| v.abs()).sum();
        assert!((l1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_and_scale_compose() {
        let mut a = DenseMatrix::full(2, 2, 1.0);
        let b = DenseMatrix::full(2, 2, 2.0);
        axpy(&mut a, 0.5, &b);
        scale(&mut a, 2.0);
        assert!(a.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn column_means_are_exact() {
        let m = DenseMatrix::from_vec(2, 2, vec![1., 10., 3., 30.]);
        assert_eq!(column_means(&m), vec![2., 20.]);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = DenseMatrix::from_vec(1, 3, vec![1., 2., 3.]);
        let b = DenseMatrix::from_vec(1, 3, vec![4., 5., 6.]);
        assert_eq!(hadamard(&a, &b).as_slice(), &[4., 10., 18.]);
    }

    /// A `rows x cols` matrix of small integers scaled by 0.37, about a
    /// quarter of them exactly zero, so the zero-skip paths run.
    fn sparse_ish(rows: usize, cols: usize, seed: usize) -> DenseMatrix {
        let data = (0..rows * cols)
            .map(|v| {
                let h = (v * 2_654_435_761 + seed * 40_503) % 1_000_003;
                if h % 4 == 0 {
                    0.0
                } else {
                    ((h % 19) as f32 - 9.0) * 0.37
                }
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data)
    }

    fn bits(m: &DenseMatrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    // Output shapes of at least eight row blocks, so several workers run.

    #[test]
    fn matmul_is_bit_identical_to_a_serial_loop() {
        let (a, b) = (sparse_ish(150, 40, 1), sparse_ish(40, 9, 2));
        let mut want = DenseMatrix::zeros(150, 9);
        for i in 0..150 {
            for k in 0..40 {
                let aik = a.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..9 {
                    want.row_mut(i)[j] += aik * b.get(k, j);
                }
            }
        }
        assert_eq!(bits(&matmul(&a, &b)), bits(&want));
    }

    #[test]
    fn matmul_nt_is_bit_identical_to_a_serial_loop() {
        let (a, b) = (sparse_ish(150, 40, 3), sparse_ish(9, 40, 4));
        let mut want = DenseMatrix::zeros(150, 9);
        for i in 0..150 {
            for j in 0..9 {
                want.row_mut(i)[j] = (0..40).map(|k| a.get(i, k) * b.get(j, k)).sum();
            }
        }
        assert_eq!(bits(&matmul_nt(&a, &b)), bits(&want));
    }

    #[test]
    fn matmul_tn_is_bit_identical_to_the_r_ascending_loop() {
        let (a, b) = (sparse_ish(60, 150, 5), sparse_ish(60, 9, 6));
        let mut want = DenseMatrix::zeros(150, 9);
        for r in 0..60 {
            for i in 0..150 {
                let ari = a.get(r, i);
                if ari == 0.0 {
                    continue;
                }
                for j in 0..9 {
                    want.row_mut(i)[j] += ari * b.get(r, j);
                }
            }
        }
        assert_eq!(bits(&matmul_tn(&a, &b)), bits(&want));
    }

    #[test]
    fn large_parallel_matmul_matches_serial() {
        // Exercises the threaded path (rows > chunk threshold).
        let n = 97;
        let a = DenseMatrix::from_vec(n, n, (0..n * n).map(|v| ((v % 13) as f32) * 0.1).collect());
        let b = DenseMatrix::from_vec(n, n, (0..n * n).map(|v| ((v % 7) as f32) * 0.2).collect());
        let c = matmul(&a, &b);
        // Spot-check a few entries against a scalar computation.
        for &(i, j) in &[(0, 0), (50, 13), (96, 96)] {
            let mut want = 0.0f32;
            for k in 0..n {
                want += a.get(i, k) * b.get(k, j);
            }
            assert!((c.get(i, j) - want).abs() < 1e-3);
        }
    }
}
