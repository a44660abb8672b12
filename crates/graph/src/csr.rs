//! Compressed sparse row matrix with `f32` weights.
//!
//! Column indices are stored as `u32` (graphs here stay well under 4 B
//! nodes), halving index memory versus `usize` — relevant for the
//! papers100M-style scaling experiments. Rows keep their column indices
//! sorted, which the triangle-counting intersection relies on.

use grain_linalg::par::{self, SendPtr};
use grain_linalg::DenseMatrix;
use serde::{Deserialize, Serialize};

/// Sparse row-major matrix.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Empty matrix with the given shape.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from (row, col, value) triplets.
    ///
    /// Triplets may arrive unsorted and may contain duplicates; duplicate
    /// entries are summed. Zero values are kept only if `keep_zeros` — the
    /// adjacency path drops them.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(u32, u32, f32)],
        keep_zeros: bool,
    ) -> Self {
        let mut counts = vec![0usize; rows + 1];
        for &(r, _, _) in triplets {
            assert!(
                (r as usize) < rows,
                "triplet row {r} out of bounds ({rows} rows)"
            );
            counts[r as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let mut order = counts.clone();
        let mut col_idx = vec![0u32; triplets.len()];
        let mut values = vec![0f32; triplets.len()];
        for &(r, c, v) in triplets {
            assert!(
                (c as usize) < cols,
                "triplet col {c} out of bounds ({cols} cols)"
            );
            let slot = order[r as usize];
            order[r as usize] += 1;
            col_idx[slot] = c;
            values[slot] = v;
        }
        // Sort within each row and merge duplicates.
        let mut out_row_ptr = Vec::with_capacity(rows + 1);
        let mut out_cols = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        out_row_ptr.push(0);
        let mut scratch: Vec<(u32, f32)> = Vec::new();
        for r in 0..rows {
            scratch.clear();
            for i in counts[r]..counts[r + 1] {
                scratch.push((col_idx[i], values[i]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                if v != 0.0 || keep_zeros {
                    out_cols.push(c);
                    out_vals.push(v);
                }
                i = j;
            }
            out_row_ptr.push(out_cols.len());
        }
        Self {
            rows,
            cols,
            row_ptr: out_row_ptr,
            col_idx: out_cols,
            values: out_vals,
        }
    }

    /// Builds directly from CSR arrays (rows must be sorted by column).
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent or any row is unsorted.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        assert_eq!(row_ptr.len(), rows + 1, "row_ptr length mismatch");
        assert_eq!(col_idx.len(), values.len(), "col/value length mismatch");
        assert_eq!(
            *row_ptr.last().unwrap_or(&0),
            col_idx.len(),
            "row_ptr tail mismatch"
        );
        for r in 0..rows {
            let s = row_ptr[r];
            let e = row_ptr[r + 1];
            assert!(
                s <= e && e <= col_idx.len(),
                "row_ptr not monotone at row {r}"
            );
            for w in col_idx[s..e].windows(2) {
                assert!(w[0] < w[1], "row {r} has unsorted or duplicate columns");
            }
            if let Some(&last) = col_idx[s..e].last() {
                assert!((last as usize) < cols, "column out of bounds in row {r}");
            }
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Column indices of row `r` (sorted ascending).
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`CsrMatrix::row_indices`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[f32] {
        &self.values[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// `(indices, values)` pair for row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        (self.row_indices(r), self.row_values(r))
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Looks up entry `(r, c)` by binary search.
    pub fn get(&self, r: usize, c: u32) -> f32 {
        let idx = self.row_indices(r);
        match idx.binary_search(&c) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// Sum of values per row.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row_values(r).iter().sum())
            .collect()
    }

    /// Multiplies each row `r` by `factors[r]` in place.
    pub fn scale_rows(&mut self, factors: &[f32]) {
        assert_eq!(
            factors.len(),
            self.rows,
            "scale_rows: factor count mismatch"
        );
        for (r, &f) in factors.iter().enumerate() {
            for v in &mut self.values[self.row_ptr[r]..self.row_ptr[r + 1]] {
                *v *= f;
            }
        }
    }

    /// Multiplies each column `c` by `factors[c]` in place.
    pub fn scale_cols(&mut self, factors: &[f32]) {
        assert_eq!(
            factors.len(),
            self.cols,
            "scale_cols: factor count mismatch"
        );
        for (c, v) in self.col_idx.iter().zip(self.values.iter_mut()) {
            *v *= factors[*c as usize];
        }
    }

    /// Out-of-place transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for (i, &c) in self.row_indices(r).iter().enumerate() {
                let slot = cursor[c as usize];
                cursor[c as usize] += 1;
                col_idx[slot] = r as u32;
                values[slot] = self.row_values(r)[i];
            }
        }
        row_ptr.rotate_right(0); // counts already is the final row_ptr prefix
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse × dense product `self * rhs` over `threads` workers (`0` =
    /// auto), parallel over output rows. Each output row is accumulated by
    /// exactly one worker in the same left-to-right entry order, so the
    /// product is bit-identical at any thread count.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn spmm(&self, rhs: &DenseMatrix, threads: usize) -> DenseMatrix {
        assert_eq!(
            self.cols,
            rhs.rows(),
            "spmm: inner dimensions differ ({}x{} * {}x{})",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        let n = rhs.cols();
        let mut out = DenseMatrix::zeros(self.rows, n);
        let ptr = SendPtr(out.as_mut_slice().as_mut_ptr());
        par::for_each_chunk_with(threads, self.rows, 64, |start, end| {
            // Rebind so the closure captures the SendPtr wrapper, not its
            // raw-pointer field (edition-2021 disjoint capture).
            #[allow(clippy::redundant_locals)]
            let ptr = ptr;
            for r in start..end {
                // SAFETY: output rows are disjoint per thread chunk.
                let out_row = unsafe { std::slice::from_raw_parts_mut(ptr.0.add(r * n), n) };
                let (idx, vals) = self.row(r);
                for (&c, &w) in idx.iter().zip(vals) {
                    if w == 0.0 {
                        continue;
                    }
                    for (o, &x) in out_row.iter_mut().zip(rhs.row(c as usize)) {
                        *o += w * x;
                    }
                }
            }
        });
        out
    }

    /// Sparse × dense-vector product `self * x`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols, x.len(), "spmv: dimension mismatch");
        par::par_map(self.rows, 256, |r| {
            let (idx, vals) = self.row(r);
            idx.iter().zip(vals).map(|(&c, &w)| w * x[c as usize]).sum()
        })
    }

    /// Iterator over `(row, col, value)` of all stored entries.
    pub fn iter_triplets(&self) -> impl Iterator<Item = (u32, u32, f32)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .map(move |(&c, &v)| (r as u32, c, v))
        })
    }

    /// Out-of-place row splice: a copy of `self` with the listed rows
    /// replaced wholesale and every other row memcpy'd over unchanged —
    /// the structural primitive behind incremental artifact repair, where
    /// a graph delta dirties a handful of rows and the clean majority
    /// must carry over bit-identically.
    ///
    /// `replacements` must be sorted by strictly ascending row index;
    /// each replacement row's columns must be strictly ascending and in
    /// bounds (the invariants [`CsrMatrix::from_raw`] checks, asserted
    /// here per replacement row only, so the splice stays O(nnz) with no
    /// full revalidation).
    ///
    /// # Panics
    /// Panics on unsorted/duplicate replacement rows, out-of-range row
    /// indices, unsorted replacement columns, or column indices `>=
    /// self.cols()`.
    pub fn with_replaced_rows(&self, replacements: &[(usize, Vec<u32>, Vec<f32>)]) -> CsrMatrix {
        for w in replacements.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "with_replaced_rows: replacement rows must be strictly ascending"
            );
        }
        let replaced_nnz: usize = replacements.iter().map(|(_, c, _)| c.len()).sum();
        let old_replaced_nnz: usize = replacements.iter().map(|&(r, _, _)| self.row_nnz(r)).sum();
        let new_nnz = self.nnz() - old_replaced_nnz + replaced_nnz;
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(new_nnz);
        let mut values = Vec::with_capacity(new_nnz);
        row_ptr.push(0);
        let mut next = 0usize; // cursor into `replacements`
        let mut clean_from = 0usize; // first row of the pending clean run
        let flush_clean =
            |from: usize, upto: usize, col_idx: &mut Vec<u32>, values: &mut Vec<f32>| {
                // Copy rows [from, upto) in one contiguous memcpy.
                let s = self.row_ptr[from];
                let e = self.row_ptr[upto];
                col_idx.extend_from_slice(&self.col_idx[s..e]);
                values.extend_from_slice(&self.values[s..e]);
            };
        for r in 0..self.rows {
            if next < replacements.len() && replacements[next].0 == r {
                flush_clean(clean_from, r, &mut col_idx, &mut values);
                let (_, cols, vals) = &replacements[next];
                assert_eq!(
                    cols.len(),
                    vals.len(),
                    "with_replaced_rows: col/value length mismatch in row {r}"
                );
                for w in cols.windows(2) {
                    assert!(
                        w[0] < w[1],
                        "with_replaced_rows: row {r} has unsorted or duplicate columns"
                    );
                }
                if let Some(&last) = cols.last() {
                    assert!(
                        (last as usize) < self.cols,
                        "with_replaced_rows: column out of bounds in row {r}"
                    );
                }
                col_idx.extend_from_slice(cols);
                values.extend_from_slice(vals);
                clean_from = r + 1;
                next += 1;
            }
            // Clean rows are flushed lazily in runs; just record the
            // boundary once the row's entries (old or new) are in.
            if next > 0 && replacements[next - 1].0 == r {
                row_ptr.push(col_idx.len());
            } else {
                row_ptr.push(col_idx.len() + (self.row_ptr[r + 1] - self.row_ptr[clean_from]));
            }
        }
        assert_eq!(
            next,
            replacements.len(),
            "with_replaced_rows: replacement row index out of range"
        );
        flush_clean(clean_from, self.rows, &mut col_idx, &mut values);
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// True if the matrix equals its transpose (within `tol` per entry).
    pub fn is_symmetric(&self, tol: f32) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            return false;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(a, b)| (a - b).abs() <= tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[0, 1, 2],
        //  [3, 0, 0],
        //  [0, 4, 0]]
        CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 1.), (0, 2, 2.), (1, 0, 3.), (2, 1, 4.)],
            false,
        )
    }

    #[test]
    fn from_triplets_sorts_and_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 2, 1.), (0, 0, 5.), (0, 2, 2.)], false);
        assert_eq!(m.row_indices(0), &[0, 2]);
        assert_eq!(m.row_values(0), &[5., 3.]);
        assert_eq!(m.row_nnz(1), 0);
    }

    #[test]
    fn zero_sum_duplicates_dropped_unless_kept() {
        let t = [(0u32, 1u32, 1.0f32), (0, 1, -1.0)];
        let dropped = CsrMatrix::from_triplets(1, 2, &t, false);
        assert_eq!(dropped.nnz(), 0);
        let kept = CsrMatrix::from_triplets(1, 2, &t, true);
        assert_eq!(kept.nnz(), 1);
        assert_eq!(kept.row_values(0), &[0.0]);
    }

    #[test]
    fn get_by_binary_search() {
        let m = small();
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 1), 4.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = small();
        let t = m.transpose();
        assert_eq!(t.get(1, 0), 1.0);
        assert_eq!(t.get(0, 1), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = small();
        let x = DenseMatrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let y = m.spmm(&x, 0);
        // Row 0: 1*[3,4] + 2*[5,6] = [13, 16]
        assert_eq!(y.row(0), &[13., 16.]);
        assert_eq!(y.row(1), &[3., 6.]);
        assert_eq!(y.row(2), &[12., 16.]);
    }

    #[test]
    fn spmm_is_thread_count_invariant() {
        let triplets: Vec<(u32, u32, f32)> = (0..600u32)
            .map(|i| (i % 120, (i * 7) % 120, ((i % 13) as f32) * 0.3 - 1.0))
            .collect();
        let m = CsrMatrix::from_triplets(120, 120, &triplets, false);
        let x = DenseMatrix::from_vec(
            120,
            5,
            (0..600).map(|i| ((i * 31 % 17) as f32) * 0.1).collect(),
        );
        let serial = m.spmm(&x, 1);
        for threads in [2usize, 3, 8] {
            assert_eq!(m.spmm(&x, threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn spmv_matches_spmm_single_column() {
        let m = small();
        let x = vec![1., 2., 3.];
        let y = m.spmv(&x);
        assert_eq!(y, vec![8., 3., 8.]);
    }

    #[test]
    fn row_sums_and_scaling() {
        let mut m = small();
        assert_eq!(m.row_sums(), vec![3., 3., 4.]);
        m.scale_rows(&[1., 0.5, 0.25]);
        assert_eq!(m.row_sums(), vec![3., 1.5, 1.]);
        m.scale_cols(&[0., 1., 1.]);
        assert_eq!(m.get(1, 0), 0.0);
    }

    #[test]
    fn symmetric_detection() {
        let sym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.), (1, 0, 2.)], false);
        assert!(sym.is_symmetric(0.0));
        let asym = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.)], false);
        assert!(!asym.is_symmetric(0.0));
    }

    #[test]
    fn iter_triplets_yields_all_entries() {
        let m = small();
        let ts: Vec<_> = m.iter_triplets().collect();
        assert_eq!(ts.len(), 4);
        assert!(ts.contains(&(2, 1, 4.0)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_bounds_checked() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.)], false);
    }

    #[test]
    fn from_raw_validates() {
        let m = CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "unsorted")]
    fn from_raw_rejects_unsorted_rows() {
        let _ = CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }

    #[test]
    fn row_splice_matches_rebuild() {
        let m = small();
        // Replace row 0 (shrink) and row 2 (grow), keep row 1.
        let spliced = m.with_replaced_rows(&[
            (0, vec![1], vec![9.0]),
            (2, vec![0, 1, 2], vec![1.0, 2.0, 3.0]),
        ]);
        let rebuilt = CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 1, 9.), (1, 0, 3.), (2, 0, 1.), (2, 1, 2.), (2, 2, 3.)],
            false,
        );
        assert_eq!(spliced, rebuilt);
        // The original is untouched.
        assert_eq!(m, small());
    }

    #[test]
    fn row_splice_handles_empty_and_full_replacement_sets() {
        let m = small();
        assert_eq!(m.with_replaced_rows(&[]), m);
        let cleared = m.with_replaced_rows(&[
            (0, vec![], vec![]),
            (1, vec![], vec![]),
            (2, vec![], vec![]),
        ]);
        assert_eq!(cleared.nnz(), 0);
        assert_eq!(cleared.rows(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn row_splice_rejects_unsorted_replacements() {
        let m = small();
        let _ = m.with_replaced_rows(&[(2, vec![], vec![]), (0, vec![], vec![])]);
    }

    #[test]
    #[should_panic(expected = "unsorted or duplicate columns")]
    fn row_splice_rejects_unsorted_replacement_columns() {
        let m = small();
        let _ = m.with_replaced_rows(&[(1, vec![2, 0], vec![1.0, 2.0])]);
    }
}
