//! Pairwise distances in the aggregated feature space.
//!
//! The Grain diversity functions (Section 3.3) measure distance between
//! *L2-normalized* k-step aggregated feature rows and scale by 1/2 so that
//! distances live in `[0, 1]`:
//!
//! ```text
//! d(u, v) = || x_u/||x_u||  -  x_v/||x_v|| || / 2
//! ```
//!
//! This module provides that metric, chunked all-pairs radius queries (used
//! to build ball-coverage groups `G_u`), and nearest-centroid helpers used by
//! the K-Center-Greedy and AGE baselines.

use crate::dense::DenseMatrix;
use crate::ops;
use crate::par::{self, SendPtr};

/// Rows per cache tile in the O(n²·d) all-pairs kernels. The blocked loop
/// order revisits one v-tile for every u in a worker's block, so the tile
/// (64 rows × d floats) stays in L1/L2 across the whole block instead of
/// streaming the full n×d matrix once per source row. Tiling only reorders
/// *independent* (u, v) distance evaluations — per-u neighbor appends stay
/// v-ascending and `f32::max` is an order-independent reduction — so
/// results are bit-identical to the untiled scan.
const TILE_ROWS: usize = 64;

/// Squared Euclidean distance between two raw rows.
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two raw rows.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    sq_euclidean(a, b).sqrt()
}

/// The paper's normalized feature-space metric: rows must already be
/// L2-normalized; result is `||a - b|| / 2`, in `[0, 1]`.
#[inline]
pub fn grain_distance(a: &[f32], b: &[f32]) -> f32 {
    euclidean(a, b) * 0.5
}

/// Returns a copy of `m` with L2-normalized rows, the input representation
/// for all diversity computations, over `threads` workers (`0` = auto).
/// Rows normalize independently, so results are bit-identical at any
/// thread count.
pub fn normalized_embedding(m: &DenseMatrix, threads: usize) -> DenseMatrix {
    let mut out = m.clone();
    ops::l2_normalize_rows(&mut out, threads);
    out
}

/// All-pairs radius query on L2-normalized rows under [`grain_distance`].
///
/// Returns, for every row `u`, the sorted list of rows `v` (including `u`
/// itself) with `grain_distance(u, v) <= r`. Computed over `threads`
/// workers (`0` = auto) with a squared-threshold comparison so no square
/// roots are taken in the inner loop. Each row's neighbor list is owned by
/// exactly one worker and the cache-blocked scan (see `TILE_ROWS`) visits
/// v-tiles in ascending order, so the result is bit-identical to a naive
/// row-major scan at any thread count.
pub fn radius_neighbors(normed: &DenseMatrix, r: f32, threads: usize) -> Vec<Vec<u32>> {
    let n = normed.rows();
    // grain_distance <= r  <=>  sq_euclidean <= (2r)^2
    let thresh = (2.0 * r) * (2.0 * r);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    {
        let out_ptr = SendPtr(out.as_mut_ptr());
        par::for_each_chunk_with(threads, n, 8, |start, end| {
            // SAFETY: each worker writes only the `out` entries of its own
            // disjoint u-range, and `out` outlives the scoped threads.
            let ptr = out_ptr;
            for tile_start in (0..n).step_by(TILE_ROWS) {
                let tile_end = (tile_start + TILE_ROWS).min(n);
                for u in start..end {
                    let row_u = normed.row(u);
                    let out_u = unsafe { &mut *ptr.0.add(u) };
                    for v in tile_start..tile_end {
                        if sq_euclidean(row_u, normed.row(v)) <= thresh {
                            out_u.push(v as u32);
                        }
                    }
                }
            }
        });
    }
    out
}

/// For every row of `points`, the minimum [`grain_distance`] to any row of
/// `centers` (both L2-normalized). Returns `f32::INFINITY` when `centers`
/// is empty.
pub fn min_distance_to_set(points: &DenseMatrix, centers: &DenseMatrix) -> Vec<f32> {
    let n = points.rows();
    par::par_map(n, 16, |u| {
        let row = points.row(u);
        let mut best = f32::INFINITY;
        for c in 0..centers.rows() {
            let d = sq_euclidean(row, centers.row(c));
            if d < best {
                best = d;
            }
        }
        if best.is_finite() {
            best.sqrt() * 0.5
        } else {
            best
        }
    })
}

/// Maximum pairwise [`grain_distance`] over the rows (the `d_max` constant of
/// the NN-diversity function, Definition 3.4). Exact for small inputs and
/// estimated from a deterministic sample of anchor rows for large inputs,
/// which is an upper-bound-preserving choice because `d_max <= 1` under the
/// normalized metric anyway.
///
/// Runs over `threads` workers (`0` = auto). Each source row's maximum is owned by one worker and scanned with the
/// cache-blocked tile loop (see `TILE_ROWS`); `f32::max` over exact
/// squared distances is an order-independent reduction (no rounding is
/// introduced by reassociation), so the result is bit-identical at any
/// thread count and to the untiled scan.
pub fn max_pairwise_distance(normed: &DenseMatrix, exact_limit: usize, threads: usize) -> f32 {
    let n = normed.rows();
    if n <= 1 {
        return 0.0;
    }
    let best_sq = if n <= exact_limit {
        // Exact upper-triangle scan: source row u against every v > u.
        let partial = max_sq_tiled(normed, threads, 16, n, |i| i, true);
        partial.into_iter().fold(0.0f32, f32::max)
    } else {
        // Deterministic stride sample of anchors; each anchor scans all rows.
        let anchors = exact_limit.max(16).min(n);
        let stride = (n / anchors).max(1);
        let anchor_rows: Vec<usize> = (0..n).step_by(stride).collect();
        let partial = max_sq_tiled(
            normed,
            threads,
            1,
            anchor_rows.len(),
            |i| anchor_rows[i],
            false,
        );
        partial.into_iter().fold(0.0f32, f32::max)
    };
    best_sq.sqrt() * 0.5
}

/// Cache-blocked per-source max of squared distances. Source `i` of
/// `0..sources` is row `source_of(i)`; with `upper_triangle` set, only
/// targets `v > source_of(i)` are scanned (every unordered pair once).
/// Each source's running max is owned by one worker, so the tiled loop
/// order changes nothing observable — max is order-independent.
fn max_sq_tiled(
    normed: &DenseMatrix,
    threads: usize,
    min_chunk: usize,
    sources: usize,
    source_of: impl Fn(usize) -> usize + Sync,
    upper_triangle: bool,
) -> Vec<f32> {
    let n = normed.rows();
    let mut best = vec![0.0f32; sources];
    {
        let best_ptr = SendPtr(best.as_mut_ptr());
        par::for_each_chunk_with(threads, sources, min_chunk, |start, end| {
            // SAFETY: each worker writes only its disjoint source range of
            // `best`, which outlives the scoped threads.
            let ptr = best_ptr;
            for tile_start in (0..n).step_by(TILE_ROWS) {
                let tile_end = (tile_start + TILE_ROWS).min(n);
                for i in start..end {
                    let u = source_of(i);
                    let lo = if upper_triangle {
                        tile_start.max(u + 1)
                    } else {
                        tile_start
                    };
                    if lo >= tile_end {
                        continue;
                    }
                    let row = normed.row(u);
                    let slot = unsafe { &mut *ptr.0.add(i) };
                    let mut local = *slot;
                    for v in lo..tile_end {
                        let d = sq_euclidean(row, normed.row(v));
                        if d > local {
                            local = d;
                        }
                    }
                    *slot = local;
                }
            }
        });
    }
    best
}

/// Index of the nearest row of `centers` for every row of `points`
/// (squared Euclidean on raw rows, as used by k-means assignment).
pub fn nearest_center(points: &DenseMatrix, centers: &DenseMatrix) -> Vec<usize> {
    assert!(centers.rows() > 0, "nearest_center: empty center set");
    par::par_map(points.rows(), 16, |u| {
        let row = points.row(u);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..centers.rows() {
            let d = sq_euclidean(row, centers.row(c));
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grain_distance_is_bounded_by_one_on_unit_rows() {
        // Antipodal unit vectors reach exactly 1.
        let a = [1.0f32, 0.0];
        let b = [-1.0f32, 0.0];
        assert!((grain_distance(&a, &b) - 1.0).abs() < 1e-6);
        assert_eq!(grain_distance(&a, &a), 0.0);
    }

    #[test]
    fn radius_neighbors_includes_self_and_symmetric() {
        let mut m = DenseMatrix::from_vec(3, 2, vec![1., 0., 0.99, 0.14, -1., 0.]);
        ops::l2_normalize_rows(&mut m, 1);
        let nb = radius_neighbors(&m, 0.1, 0);
        assert!(nb[0].contains(&0));
        // 0 and 1 are close, 2 is far.
        assert_eq!(nb[0].contains(&1), nb[1].contains(&0));
        assert!(!nb[0].contains(&2));
    }

    #[test]
    fn radius_zero_covers_only_identical_rows() {
        let mut m = DenseMatrix::from_vec(3, 2, vec![1., 0., 1., 0., 0., 1.]);
        ops::l2_normalize_rows(&mut m, 1);
        let nb = radius_neighbors(&m, 0.0, 0);
        assert_eq!(nb[0], vec![0, 1]); // duplicate rows coincide
        assert_eq!(nb[2], vec![2]);
    }

    #[test]
    fn min_distance_to_set_empty_centers_is_infinite() {
        let p = DenseMatrix::from_vec(2, 2, vec![1., 0., 0., 1.]);
        let c = DenseMatrix::zeros(0, 2);
        let d = min_distance_to_set(&p, &c);
        assert!(d.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn max_pairwise_distance_exact_small() {
        let mut m = DenseMatrix::from_vec(3, 2, vec![1., 0., 0., 1., -1., 0.]);
        ops::l2_normalize_rows(&mut m, 1);
        let d = max_pairwise_distance(&m, 100, 0);
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_pairwise_distance_sampled_is_lower_bound() {
        let n = 500;
        let data: Vec<f32> = (0..n * 2).map(|i| ((i * 31 % 17) as f32) - 8.0).collect();
        let mut m = DenseMatrix::from_vec(n, 2, data);
        ops::l2_normalize_rows(&mut m, 1);
        let exact = max_pairwise_distance(&m, usize::MAX, 0);
        let sampled = max_pairwise_distance(&m, 64, 0);
        assert!(sampled <= exact + 1e-6);
        assert!(sampled > 0.0);
    }

    #[test]
    fn parallel_distance_kernels_are_thread_count_invariant() {
        let n = 300;
        let data: Vec<f32> = (0..n * 3).map(|i| ((i * 29 % 19) as f32) - 9.0).collect();
        let m = DenseMatrix::from_vec(n, 3, data);
        let normed = normalized_embedding(&m, 1);
        let balls = radius_neighbors(&normed, 0.2, 0);
        let dmax_exact = max_pairwise_distance(&normed, usize::MAX, 0);
        let dmax_sampled = max_pairwise_distance(&normed, 64, 0);
        for threads in [1usize, 2, 8] {
            assert_eq!(normalized_embedding(&m, threads), normed, "{threads}");
            assert_eq!(radius_neighbors(&normed, 0.2, threads), balls, "{threads}");
            assert_eq!(
                max_pairwise_distance(&normed, usize::MAX, threads).to_bits(),
                dmax_exact.to_bits(),
                "{threads}"
            );
            assert_eq!(
                max_pairwise_distance(&normed, 64, threads).to_bits(),
                dmax_sampled.to_bits(),
                "{threads}"
            );
        }
    }

    #[test]
    fn tiled_kernels_match_naive_reference_scan() {
        // The cache-blocked tile loop must be observably identical to the
        // plain row-major scan it replaced, bit for bit.
        let n = 257; // deliberately not a multiple of the tile size
        let data: Vec<f32> = (0..n * 5).map(|i| ((i * 37 % 23) as f32) - 11.0).collect();
        let m = DenseMatrix::from_vec(n, 5, data);
        let normed = normalized_embedding(&m, 1);

        let r = 0.15f32;
        let thresh = (2.0 * r) * (2.0 * r);
        let naive_balls: Vec<Vec<u32>> = (0..n)
            .map(|u| {
                (0..n)
                    .filter(|&v| sq_euclidean(normed.row(u), normed.row(v)) <= thresh)
                    .map(|v| v as u32)
                    .collect()
            })
            .collect();
        assert_eq!(radius_neighbors(&normed, r, 0), naive_balls);

        let mut naive_best = 0.0f32;
        for u in 0..n {
            for v in (u + 1)..n {
                naive_best = naive_best.max(sq_euclidean(normed.row(u), normed.row(v)));
            }
        }
        let naive_dmax = naive_best.sqrt() * 0.5;
        assert_eq!(
            max_pairwise_distance(&normed, usize::MAX, 0).to_bits(),
            naive_dmax.to_bits()
        );
    }

    #[test]
    fn nearest_center_picks_closest() {
        let p = DenseMatrix::from_vec(2, 1, vec![0.1, 0.9]);
        let c = DenseMatrix::from_vec(2, 1, vec![0.0, 1.0]);
        assert_eq!(nearest_center(&p, &c), vec![0, 1]);
    }
}
