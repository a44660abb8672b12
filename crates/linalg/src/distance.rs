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
//! This module provides that metric, an exact lane-blocked all-pairs scan
//! behind the radius query (the ball-coverage groups `G_u`, as flat
//! [`BallLists`]) and the `d_max` constant, and nearest-centroid helpers
//! used by the K-Center-Greedy and AGE baselines.

use crate::dense::DenseMatrix;
use crate::ops;
use crate::par;
use std::ops::{Index, Range};

/// Target rows per lane block: [`sq_euclidean_lanes`] measures one source
/// row against this many target rows at once.
pub const LANES: usize = 8;

/// Target rows per transposed tile of the all-pairs scan. A worker copies
/// one tile (`TILE_ROWS × d` floats, 16 KiB at d = 64) into its own
/// dimension-major buffer and measures every source row of its block
/// against it while it sits in L1/L2. Each worker holds one tile at a
/// time; the matrix is never copied whole (ball-D targets n = 1e5).
const TILE_ROWS: usize = 64;

/// Source rows per unit of scan work. Workers claim blocks one at a
/// time, so the triangle's long early rows and short late rows balance
/// by work, not by row count.
const SOURCE_BLOCK: usize = 64;

/// Squared Euclidean distance between two raw rows: `Σ (a[j] − b[j])²`
/// summed for `j` ascending from `0.0`.
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).fold(0.0, |acc, (x, y)| {
        let d = x - y;
        acc + d * d
    })
}

/// Squared Euclidean distances from `u` to the [`LANES`] rows of one
/// dimension-major block (`block[j * LANES + l]` is coordinate `j` of row
/// `l`).
///
/// Lane `l` runs exactly the operation sequence of
/// [`sq_euclidean`]`(u, row_l)` — `acc += (u[j] − v[j])²` for `j`
/// ascending, no fused multiply-add — so every lane is bit-equal to it.
/// The lanes are independent chains, which is what lets the compiler
/// vectorize across them on baseline SSE2.
#[inline]
pub fn sq_euclidean_lanes(u: &[f32], block: &[f32]) -> [f32; LANES] {
    debug_assert_eq!(block.len(), u.len() * LANES);
    let mut acc = [0.0f32; LANES];
    for (&x, column) in u.iter().zip(block.chunks_exact(LANES)) {
        for (a, &y) in acc.iter_mut().zip(column) {
            let d = x - y;
            *a += d * d;
        }
    }
    acc
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

/// Ball membership lists in one flat (CSR) layout: the members of row
/// `u`'s ball are `cols[offsets[u]..offsets[u + 1]]`, ascending. Resident
/// size is `(n + 1) · 8 + Σ|G_u| · 4` bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BallLists {
    offsets: Vec<usize>,
    cols: Vec<u32>,
}

impl BallLists {
    /// Number of rows (balls).
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Members of row `u`'s ball, ascending.
    #[must_use]
    pub fn ball(&self, u: usize) -> &[u32] {
        &self.cols[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Every row's members, concatenated in row order (`Σ|G_u|` entries).
    #[must_use]
    pub fn members(&self) -> &[u32] {
        &self.cols
    }

    /// Exact resident heap bytes: `(n + 1)` offsets and `Σ|G_u|` members.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
    }

    /// Counted CSR from each row's `v ≥ u` members (ascending), given in
    /// row order. Membership is symmetric — `sq_euclidean(a, b)` and
    /// `sq_euclidean(b, a)` are bit-equal, since each term squares an
    /// exactly negated difference in the same order — so row `u` is its
    /// mirrored `w < u` members (ascending, written while `w` is visited
    /// in ascending order) followed by its own upper members.
    fn mirror_upper<'a>(n: usize, upper: impl Iterator<Item = &'a [u32]> + Clone) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for (u, row) in upper.clone().enumerate() {
            offsets[u + 1] += row.len();
            for &v in row.iter().filter(|&&v| v as usize > u) {
                offsets[v as usize + 1] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cols = vec![0u32; offsets[n]];
        // Next free slot per row. Every `w < u` has already mirrored into
        // row `u` when `u` is reached, so its own members land after them.
        let mut next = offsets[..n].to_vec();
        for (u, row) in upper.enumerate() {
            cols[next[u]..next[u] + row.len()].copy_from_slice(row);
            next[u] += row.len();
            for &v in row.iter().filter(|&&v| v as usize > u) {
                cols[next[v as usize]] = u as u32;
                next[v as usize] += 1;
            }
        }
        Self { offsets, cols }
    }
}

impl Index<usize> for BallLists {
    type Output = [u32];

    fn index(&self, u: usize) -> &[u32] {
        self.ball(u)
    }
}

impl From<Vec<Vec<u32>>> for BallLists {
    fn from(lists: Vec<Vec<u32>>) -> Self {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        offsets.push(0);
        for list in &lists {
            offsets.push(offsets.last().copied().unwrap_or(0) + list.len());
        }
        Self {
            offsets,
            cols: lists.concat(),
        }
    }
}

/// Copies target rows `start..end` (at most [`TILE_ROWS`]) into `tile` as
/// dimension-major lane blocks: block `b` holds rows `start + b·LANES ..`
/// with coordinate `j` of its lane `l` at `b·LANES·d + j·LANES + l`.
/// Lanes past `end` are zero and never reported.
fn transpose_tile(m: &DenseMatrix, start: usize, end: usize, tile: &mut [f32]) {
    let d = m.cols();
    if d == 0 {
        return;
    }
    for (block, block_start) in tile
        .chunks_exact_mut(LANES * d)
        .zip((start..end).step_by(LANES))
    {
        for l in 0..LANES {
            let v = block_start + l;
            let mut column = block[l..].iter_mut().step_by(LANES);
            if v < end {
                for (slot, &x) in column.by_ref().zip(m.row(v)) {
                    *slot = x;
                }
            } else {
                column.for_each(|slot| *slot = 0.0);
            }
        }
    }
}

/// The one exact all-pairs scan: for every source row `u` in `sources`
/// and every target row `v` in `from(u)..n`, calls
/// `visit(u, v, sq_euclidean(u, v))`, `v` ascending per source. Target
/// tiles are transposed into the worker's `tile` buffer one at a time and
/// measured [`LANES`] rows per kernel call.
fn scan(
    m: &DenseMatrix,
    tile: &mut Vec<f32>,
    sources: impl Iterator<Item = usize> + Clone,
    from: impl Fn(usize) -> usize,
    mut visit: impl FnMut(usize, usize, f32),
) {
    let (n, d) = (m.rows(), m.cols());
    let Some(first) = sources.clone().map(&from).min() else {
        return;
    };
    tile.resize(TILE_ROWS * d, 0.0);
    for tile_start in (first / TILE_ROWS * TILE_ROWS..n).step_by(TILE_ROWS) {
        let tile_end = (tile_start + TILE_ROWS).min(n);
        transpose_tile(m, tile_start, tile_end, tile);
        for u in sources.clone() {
            let lo = from(u).max(tile_start);
            if lo >= tile_end {
                continue;
            }
            let row = m.row(u);
            let first_block = (lo - tile_start) / LANES * LANES;
            for block in (first_block..tile_end - tile_start).step_by(LANES) {
                let lanes = sq_euclidean_lanes(row, &tile[block * d..(block + LANES) * d]);
                for (l, &sq) in lanes.iter().enumerate() {
                    let v = tile_start + block + l;
                    if v >= lo && v < tile_end {
                        visit(u, v, sq);
                    }
                }
            }
        }
    }
}

/// Source block `b` of `0..len` in [`SOURCE_BLOCK`] steps.
fn source_block(b: usize, len: usize) -> Range<usize> {
    b * SOURCE_BLOCK..((b + 1) * SOURCE_BLOCK).min(len)
}

/// All-pairs radius query on L2-normalized rows under [`grain_distance`].
///
/// Returns, for every row `u`, the ascending list of rows `v` (including
/// `u` itself) with `sq_euclidean(u, v) <= (2r)²`, the squared form of
/// `grain_distance(u, v) <= r`, so no square root is taken.
///
/// Exact and bit-identical to a naive row-major double loop at any thread
/// count. Each unordered pair is measured once over the upper triangle
/// `v ≥ u` with the lane-blocked kernel (bit-equal to
/// [`sq_euclidean`]), then mirrored into the flat [`BallLists`].
/// Source blocks are spread over `threads` workers (`0` = auto) by work.
pub fn radius_neighbors(normed: &DenseMatrix, r: f32, threads: usize) -> BallLists {
    let n = normed.rows();
    let thresh = (2.0 * r) * (2.0 * r);
    let blocks = par::map(
        threads,
        n.div_ceil(SOURCE_BLOCK),
        1,
        || (Vec::new(), vec![Vec::new(); SOURCE_BLOCK]),
        |(tile, upper): &mut (Vec<f32>, Vec<Vec<u32>>), b| {
            let rows = source_block(b, n);
            scan(
                normed,
                tile,
                rows.clone(),
                |u| u,
                |u, v, sq| {
                    if sq <= thresh {
                        upper[u - rows.start].push(v as u32);
                    }
                },
            );
            let (mut ends, mut cols) = (vec![0], Vec::new());
            for row in &mut upper[..rows.len()] {
                cols.append(row);
                ends.push(cols.len());
            }
            (ends, cols)
        },
    );
    let upper = blocks
        .iter()
        .flat_map(|(ends, cols)| ends.windows(2).map(move |w| &cols[w[0]..w[1]]));
    BallLists::mirror_upper(n, upper)
}

/// For every row of `points`, the minimum [`grain_distance`] to any row of
/// `centers` (both L2-normalized). Returns `f32::INFINITY` when `centers`
/// is empty.
pub fn min_distance_to_set(points: &DenseMatrix, centers: &DenseMatrix) -> Vec<f32> {
    let n = points.rows();
    par::map(
        0,
        n,
        16,
        || (),
        |(), u| {
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
        },
    )
}

/// Maximum pairwise [`grain_distance`] over the rows: the `d_max`
/// constant of the NN-diversity function (Definition 3.4).
///
/// Exact for `n <= exact_limit`: every unordered pair `v > u` once. Beyond
/// that it is estimated from a deterministic stride sample of at least
/// `exact_limit.max(16)` anchor rows, each measured against every row,
/// which can only underestimate; `d_max <= 1` under the normalized metric
/// anyway.
///
/// Runs the same lane-blocked scan as [`radius_neighbors`] over `threads`
/// workers (`0` = auto) with a max reducer. A maximum over exact squared
/// distances is order-independent, so the result is bit-identical to a
/// naive double loop at any thread count.
pub fn max_pairwise_distance(normed: &DenseMatrix, exact_limit: usize, threads: usize) -> f32 {
    let n = normed.rows();
    if n <= 1 {
        return 0.0;
    }
    let (sources, stride, from): (usize, usize, fn(usize) -> usize) = if n <= exact_limit {
        (n, 1, |u| u + 1)
    } else {
        let stride = (n / exact_limit.max(16).min(n)).max(1);
        (n.div_ceil(stride), stride, |_| 0)
    };
    let best = par::map(
        threads,
        sources.div_ceil(SOURCE_BLOCK),
        1,
        Vec::new,
        |tile, b| {
            let mut best = 0.0f32;
            let rows = source_block(b, sources).map(|i| i * stride);
            scan(normed, tile, rows, from, |_, _, sq| {
                if sq > best {
                    best = sq;
                }
            });
            best
        },
    );
    best.into_iter().fold(0.0f32, f32::max).sqrt() * 0.5
}

/// Index of the nearest row of `centers` for every row of `points`
/// (squared Euclidean on raw rows, as used by k-means assignment).
pub fn nearest_center(points: &DenseMatrix, centers: &DenseMatrix) -> Vec<usize> {
    assert!(centers.rows() > 0, "nearest_center: empty center set");
    par::map(
        0,
        points.rows(),
        16,
        || (),
        |(), u| {
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
        },
    )
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
        assert_eq!(
            radius_neighbors(&normed, r, 0),
            BallLists::from(naive_balls)
        );

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

    /// Deterministic rows in `[-1, 1)` with every hostile case mixed in:
    /// duplicates (`u % 5 == 1` copies row `u - 1`), antipodes
    /// (`u % 5 == 2` negates row `u - 2`) and zero rows (`u % 5 == 3`),
    /// L2-normalized.
    fn hostile(n: usize, d: usize) -> DenseMatrix {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (n as u64 * 131 + d as u64);
        let mut m = DenseMatrix::zeros(n, d);
        for u in 0..n {
            for j in 0..d {
                let value = match u % 5 {
                    1 => m.row(u - 1)[j],
                    2 if u >= 2 => -m.row(u - 2)[j],
                    3 => 0.0,
                    _ => {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
                    }
                };
                m.row_mut(u)[j] = value;
            }
        }
        ops::l2_normalize_rows(&mut m, 1);
        m
    }

    const NS: [usize; 6] = [0, 1, 7, 8, 9, 257];
    const DS: [usize; 6] = [0, 1, 3, 8, 9, 64];

    #[test]
    fn lane_kernel_is_bit_equal_to_sq_euclidean() {
        for d in DS {
            let m = hostile(LANES + 3, d);
            for u in 0..m.rows() {
                for first in [0, 3] {
                    let mut block = vec![0.0f32; LANES * d];
                    for l in 0..LANES {
                        for j in 0..d {
                            block[j * LANES + l] = m.row(first + l)[j];
                        }
                    }
                    let lanes = sq_euclidean_lanes(m.row(u), &block);
                    for (l, sq) in lanes.iter().enumerate() {
                        let want = sq_euclidean(m.row(u), m.row(first + l));
                        assert_eq!(sq.to_bits(), want.to_bits(), "d {d} u {u} v {}", first + l);
                    }
                }
            }
        }
    }

    #[test]
    fn radius_neighbors_is_bit_identical_to_naive_double_loop() {
        for n in NS {
            for d in DS {
                let m = hostile(n, d);
                for r in [0.0f32, 0.05, 0.5, 1.0] {
                    let thresh = (2.0 * r) * (2.0 * r);
                    let naive: Vec<Vec<u32>> = (0..n)
                        .map(|u| {
                            (0..n)
                                .filter(|&v| sq_euclidean(m.row(u), m.row(v)) <= thresh)
                                .map(|v| v as u32)
                                .collect()
                        })
                        .collect();
                    let naive = BallLists::from(naive);
                    for threads in [1usize, 2, 5] {
                        let got = radius_neighbors(&m, r, threads);
                        assert_eq!(got, naive, "n {n} d {d} r {r} threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn max_pairwise_distance_is_bit_identical_to_naive_double_loop() {
        for n in NS {
            for d in DS {
                let m = hostile(n, d);
                let mut exact = 0.0f32;
                for u in 0..n {
                    for v in (u + 1)..n {
                        exact = exact.max(sq_euclidean(m.row(u), m.row(v)));
                    }
                }
                // Anchor-sampled: 16 anchors at stride n / 16, each
                // against every row.
                let stride = (n / 16usize.min(n.max(1))).max(1);
                let mut sampled = 0.0f32;
                for u in (0..n).step_by(stride) {
                    for v in 0..n {
                        sampled = sampled.max(sq_euclidean(m.row(u), m.row(v)));
                    }
                }
                let bits = |sq: f32| {
                    if n <= 1 {
                        0.0f32.to_bits()
                    } else {
                        (sq.sqrt() * 0.5).to_bits()
                    }
                };
                for threads in [1usize, 2, 5] {
                    let at = |limit| max_pairwise_distance(&m, limit, threads).to_bits();
                    assert_eq!(at(usize::MAX), bits(exact), "n {n} d {d} threads {threads}");
                    if n > 16 {
                        assert_eq!(at(1), bits(sampled), "n {n} d {d} threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn ball_lists_flat_layout_round_trips() {
        let nested = vec![vec![0, 2], vec![], vec![0, 1, 2]];
        let flat = BallLists::from(nested.clone());
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.members(), [0, 2, 0, 1, 2]);
        for (u, list) in nested.iter().enumerate() {
            assert_eq!(flat[u], *list);
        }
        assert_eq!(flat[2], [0, 1, 2]);
        assert_eq!(flat.resident_bytes(), 4 * 8 + 5 * 4);
        assert!(BallLists::from(Vec::new()).is_empty());
    }

    #[test]
    fn nearest_center_picks_closest() {
        let p = DenseMatrix::from_vec(2, 1, vec![0.1, 0.9]);
        let c = DenseMatrix::from_vec(2, 1, vec![0.0, 1.0]);
        assert_eq!(nearest_center(&p, &c), vec![0, 1]);
    }
}
