//! Property-based tests for the dense-matrix kernels.

use grain_linalg::{ops, DenseMatrix};
use proptest::prelude::*;

/// Strategy: a small matrix with bounded values.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| DenseMatrix::from_vec(rows, cols, data))
}

fn approx_eq(a: &DenseMatrix, b: &DenseMatrix, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn matmul_distributes_over_addition(a in matrix(4, 3), b in matrix(3, 5), c in matrix(3, 5)) {
        // A(B + C) == AB + AC
        let mut bc = b.clone();
        ops::add_assign(&mut bc, &c);
        let lhs = ops::matmul(&a, &bc);
        let mut rhs = ops::matmul(&a, &b);
        ops::add_assign(&mut rhs, &ops::matmul(&a, &c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-3));
    }

    #[test]
    fn matmul_associates(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let lhs = ops::matmul(&ops::matmul(&a, &b), &c);
        let rhs = ops::matmul(&a, &ops::matmul(&b, &c));
        prop_assert!(approx_eq(&lhs, &rhs, 1e-2));
    }

    #[test]
    fn transpose_is_involution(a in matrix(5, 7)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn tn_and_nt_agree_with_explicit_transpose(a in matrix(6, 3), b in matrix(6, 4)) {
        let tn = ops::matmul_tn(&a, &b);
        let explicit = ops::matmul(&a.transpose(), &b);
        prop_assert!(approx_eq(&tn, &explicit, 1e-3));
        // matmul_nt(X, Y) = X Yᵀ with X: 3x6, Y: 4x6 -> 3x4.
        let x = a.transpose();
        let y = b.transpose();
        let nt = ops::matmul_nt(&x, &y);
        let explicit2 = ops::matmul(&x, &y.transpose());
        prop_assert!(approx_eq(&nt, &explicit2, 1e-3));
    }

    #[test]
    fn l2_normalized_rows_are_unit_or_zero(a in matrix(6, 4)) {
        let mut m = a;
        ops::l2_normalize_rows(&mut m, 1);
        for i in 0..m.rows() {
            let n = ops::dot(m.row(i), m.row(i)).sqrt();
            prop_assert!(n < 1e-6 || (n - 1.0).abs() < 1e-4, "row norm {}", n);
        }
    }

    #[test]
    fn row_select_preserves_content(a in matrix(6, 3), idx in proptest::collection::vec(0usize..6, 1..6)) {
        let s = a.select_rows(&idx);
        for (out_row, &src) in idx.iter().enumerate() {
            prop_assert_eq!(s.row(out_row), a.row(src));
        }
    }

    #[test]
    fn frobenius_norm_scales_linearly(a in matrix(4, 4), alpha in 0.1f32..5.0) {
        let mut scaled = a.clone();
        ops::scale(&mut scaled, alpha);
        let lhs = scaled.frobenius_norm();
        let rhs = alpha * a.frobenius_norm();
        prop_assert!((lhs - rhs).abs() <= 1e-3 * (1.0 + rhs.abs()));
    }
}
