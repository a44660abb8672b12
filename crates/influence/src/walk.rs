//! Sparse per-node influence rows in a flat CSR layout.
//!
//! Row `v` of the influence matrix is `e_v^T T^k`, computed by `k`
//! scatter-gather steps over the CSR transition matrix with a dense
//! per-thread scratch buffer (lazily reset through a touched-index list, so
//! cost is proportional to row support, not to `n`). Entries below `eps`
//! are pruned after every step — influence mass that cannot clear the
//! activation threshold `θ` anyway — which keeps rows small on hub-heavy
//! graphs. Rows are L1-normalized at the end (Eq. 8); for row-stochastic
//! transitions this only compensates pruning loss.
//!
//! # Memory layout
//!
//! The rows live in one structure-of-arrays CSR triple
//! (`offsets`/`cols`/`vals`) — the same flat layout the activation index
//! uses — instead of a `Vec<Vec<(u32, f32)>>`: no per-row heap allocation,
//! no 24-byte `Vec` header per node, and columns/values stream through the
//! greedy hot loops as two contiguous arrays. At `n` nodes and `nnz`
//! stored entries the artifact occupies `8·(n+1) + 8·nnz` bytes
//! ([`InfluenceRows::resident_bytes`], exact).
//!
//! # One walk driver
//!
//! The cold build ([`InfluenceRows::compute_weighted`]) and the streaming
//! patch ([`InfluenceRows::with_rebuilt_rows`]) run one private driver
//! over a list of rows — `0..n`, or the dirty rows. It cuts the list into
//! fixed 64-row blocks that workers claim one at a time
//! (`par::map`), each worker with its own walk scratch, and
//! each block yields one flat chunk. A static split by row count would
//! leave one worker with the hubs, whose ids cluster low on a
//! preferential-attachment graph; claiming by block splits by work. The
//! chunks come back in block order and are stitched (or spliced between
//! clean rows) with plain copies, so the layout is bit-identical at any
//! thread count. A cancellation probe is polled once per block.
//!
//! # Row truncation
//!
//! The builder accepts an optional `top_k` (0 = off): each row keeps only its
//! `top_k` heaviest entries (ties broken toward the smaller column id)
//! **before** Eq. 8 normalization, bounding `nnz` by `top_k · n` on
//! hub-heavy graphs where ε-pruning alone is not enough. The kept set is
//! selected in linear time rather than by sorting the row: weight
//! descending, then column ascending, is a strict total order over a
//! row's unique columns, so the kept set is unique, and it is the only
//! thing the later column sort and L1 sum see — the output equals a full
//! sort's bit for bit. Truncation changes results, so it participates in
//! the artifact fingerprint upstream (`GrainConfig::influence_row_top_k`).

use grain_graph::CsrMatrix;
use grain_linalg::par;
use grain_prop::Kernel;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-power weights `c_l` such that the kernel's Jacobian w.r.t. the input
/// features is `Σ_{l=0..k} c_l T^l` (Definition 3.1 applied to each Table 1
/// mechanism). Index `l` is the walk length.
pub fn kernel_power_weights(kernel: Kernel) -> Vec<f32> {
    let k = kernel.steps();
    match kernel {
        // Pure powers: only T^k contributes.
        Kernel::SymNorm { .. } | Kernel::RandomWalk { .. } | Kernel::TriangleIa { .. } => {
            let mut w = vec![0.0; k + 1];
            w[k] = 1.0;
            w
        }
        // PPR recursion X^(k) = (1-α) T X^(k-1) + α X^(0):
        // J = Σ_{l<k} α(1-α)^l T^l + (1-α)^k T^k (weights sum to 1).
        Kernel::Ppr { alpha, .. } => {
            let mut w = Vec::with_capacity(k + 1);
            for l in 0..k {
                w.push(alpha * (1.0 - alpha).powi(l as i32));
            }
            w.push((1.0 - alpha).powi(k as i32));
            w
        }
        // S2GC average: J = α I + ((1-α)/k) Σ_{l=1..k} T^l.
        Kernel::S2gc { alpha, .. } => {
            let mut w = vec![(1.0 - alpha) / k.max(1) as f32; k + 1];
            w[0] = alpha;
            w
        }
        // GBP geometric weighting: J = Σ_l β^l T^l (Eq. 8 renormalizes).
        Kernel::Gbp { beta, .. } => (0..=k).map(|l| beta.powi(l as i32)).collect(),
    }
}

/// Rows walked between probe polls and claimed as one unit of work: large
/// enough that polling and claiming cost vanish, small enough that
/// cancellation is observed within milliseconds on real graphs and that
/// the hub rows of a skewed graph spread over every worker.
const ROW_BLOCK: usize = 64;

/// One block's flat output: per-row lengths plus concatenated
/// columns/values. Chunks come back in block order, which is the order of
/// the walked row list.
#[derive(Default)]
struct RowChunk {
    lens: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl RowChunk {
    /// The chunk's rows as `(columns, values)` slices, in walk order.
    fn rows(&self) -> impl Iterator<Item = (&[u32], &[f32])> + '_ {
        let mut at = 0usize;
        self.lens.iter().map(move |&len| {
            let (lo, hi) = (at, at + len as usize);
            at = hi;
            (&self.cols[lo..hi], &self.vals[lo..hi])
        })
    }
}

/// Dense per-thread scratch for one row's scatter-gather walk: one buffer
/// for the walk step, one for the weighted accumulator, both reset lazily
/// through touched-index lists so per-row cost tracks row support, not
/// `n`. `row` assembles one row before it is appended to its block's
/// chunk.
struct WalkScratch {
    step: Vec<f32>,
    step_touched: Vec<u32>,
    acc: Vec<f32>,
    acc_touched: Vec<u32>,
    frontier: Vec<(u32, f32)>,
    row: Vec<(u32, f32)>,
}

impl WalkScratch {
    fn new(n: usize) -> Self {
        Self {
            step: vec![0.0f32; n],
            step_touched: Vec::new(),
            acc: vec![0.0f32; n],
            acc_touched: Vec::new(),
            frontier: Vec::new(),
            row: Vec::new(),
        }
    }
}

/// The walk parameters every row of one artifact shares.
#[derive(Clone, Copy)]
struct Walk<'a> {
    t: &'a CsrMatrix,
    weights: &'a [f32],
    eps: f32,
    top_k: usize,
}

impl Walk<'_> {
    /// Computes the normalized influence row of `v` into `scratch.row`:
    /// `k` scatter-gather steps with ε-pruning between steps, optional
    /// `top_k` truncation (ties toward the smaller column) before Eq. 8
    /// normalization.
    ///
    /// Truncation selects the kept set in linear time
    /// (`select_nth_unstable_by`) rather than sorting the whole row. The
    /// comparator — weight descending by `total_cmp`, then column
    /// ascending — is a strict total order because a row's columns are
    /// unique, so the `top_k` kept entries are the same set a full sort
    /// would keep. Only that set reaches the column sort and the L1 sum,
    /// so every output bit equals the full-sort path.
    fn row(&self, v: usize, scratch: &mut WalkScratch) {
        let Walk {
            t,
            weights,
            eps,
            top_k,
        } = *self;
        let k = weights.len() - 1;
        let WalkScratch {
            step,
            step_touched,
            acc,
            acc_touched,
            frontier,
            row,
        } = scratch;
        frontier.clear();
        frontier.push((v as u32, 1.0));
        acc_touched.clear();
        if weights[0] != 0.0 {
            acc[v] = weights[0];
            acc_touched.push(v as u32);
        }
        for &wl in weights.iter().skip(1).take(k) {
            step_touched.clear();
            for &(node, mass) in frontier.iter() {
                let (idx, vals) = t.row(node as usize);
                for (&c, &w) in idx.iter().zip(vals) {
                    let add = mass * w;
                    if add == 0.0 {
                        continue;
                    }
                    if step[c as usize] == 0.0 {
                        step_touched.push(c);
                    }
                    step[c as usize] += add;
                }
            }
            frontier.clear();
            for &c in step_touched.iter() {
                let val = step[c as usize];
                step[c as usize] = 0.0;
                if val >= eps {
                    frontier.push((c, val));
                    if wl != 0.0 {
                        if acc[c as usize] == 0.0 {
                            acc_touched.push(c);
                        }
                        acc[c as usize] += wl * val;
                    }
                }
            }
        }
        row.clear();
        for &c in acc_touched.iter() {
            let val = acc[c as usize];
            acc[c as usize] = 0.0;
            if val > 0.0 {
                row.push((c, val));
            }
        }
        // Optional truncation to the top_k heaviest entries (ties toward the
        // smaller column), applied before normalization so the kept mass is
        // renormalized.
        if top_k > 0 && row.len() > top_k {
            row.select_nth_unstable_by(top_k - 1, |&(ca, wa), &(cb, wb)| {
                wb.total_cmp(&wa).then(ca.cmp(&cb))
            });
            row.truncate(top_k);
        }
        row.sort_unstable_by_key(|&(c, _)| c);
        // Eq. 8 normalization over the kept entries.
        let total: f32 = row.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for e in row.iter_mut() {
                e.1 /= total;
            }
        }
    }

    /// The one walk driver behind the cold build and the streaming patch:
    /// walks rows `row_at(0..len)` in [`ROW_BLOCK`]-row blocks that
    /// `threads` workers (`0` = auto) claim one at a time, each
    /// with its own [`WalkScratch`], and returns one chunk per block in
    /// block order.
    ///
    /// Claiming by block balances skewed per-row costs (hub rows cluster
    /// in the low ids of a preferential-attachment graph) by work rather
    /// than by row count. Every row is walked start to finish by one
    /// worker with the same [`Walk::row`], so the chunks are
    /// bit-identical at any thread count.
    ///
    /// `stop` is polled once at the start of every block. Once any block
    /// observes it, the remaining blocks return empty and the driver
    /// returns `None`; the chunks walked so far are dropped, never
    /// stitched.
    fn blocks(
        &self,
        threads: usize,
        len: usize,
        row_at: impl Fn(usize) -> usize + Sync,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Vec<RowChunk>> {
        let n = self.t.rows();
        let stopped = AtomicBool::new(false);
        let chunks = par::map(
            threads,
            len.div_ceil(ROW_BLOCK),
            1,
            || WalkScratch::new(n),
            |scratch, block| {
                if stopped.load(Ordering::Relaxed) || stop() {
                    stopped.store(true, Ordering::Relaxed);
                    return RowChunk::default();
                }
                let rows = block * ROW_BLOCK..((block + 1) * ROW_BLOCK).min(len);
                let mut chunk = RowChunk {
                    lens: Vec::with_capacity(rows.len()),
                    ..RowChunk::default()
                };
                for i in rows {
                    self.row(row_at(i), scratch);
                    chunk.lens.push(scratch.row.len() as u32);
                    chunk.cols.extend(scratch.row.iter().map(|&(c, _)| c));
                    chunk.vals.extend(scratch.row.iter().map(|&(_, w)| w));
                }
                // Every chunk lives until the stitch, so the growth slack
                // is returned here and transient memory tracks `nnz`. The
                // chunk is sized by the rows actually walked, never by
                // `top_k`: that value comes from the caller (and the wire)
                // unchecked, and any value at or above a row's length
                // simply means "keep the row".
                chunk.cols.shrink_to_fit();
                chunk.vals.shrink_to_fit();
                chunk
            },
        );
        (!stopped.load(Ordering::Relaxed)).then_some(chunks)
    }
}

/// All normalized influence rows of a graph, in flat CSR form.
#[derive(Clone, Debug, Default)]
pub struct InfluenceRows {
    /// `cols[offsets[v]..offsets[v+1]]` (and the matching `vals` range) is
    /// the sparse row of `v`, sorted by column.
    offsets: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    k: usize,
}

impl InfluenceRows {
    /// Computes `I_v(·, k)` for every `v` (the Eq. 8 `T^k` form), pruning
    /// entries `< eps` between steps.
    ///
    /// # Panics
    /// Panics if `t` is not square.
    pub fn compute(t: &CsrMatrix, k: usize, eps: f32) -> Self {
        let mut weights = vec![0.0; k + 1];
        weights[k] = 1.0;
        Self::compute_weighted(t, &weights, eps, 0, 0, &|| false)
            .expect("influence rows with a never-stopping probe cannot be cancelled")
    }

    /// Computes normalized rows of `Σ_l weights[l] · T^l`, pruning frontier
    /// entries `< eps` between steps. A kernel's exact Jacobian
    /// (Definition 3.1) is `weights = kernel_power_weights(kernel)`.
    ///
    /// When `top_k > 0`, each row keeps only its `top_k` heaviest entries
    /// (ties toward the smaller column id) **before** Eq. 8 normalization;
    /// `0` is off. The kept set is selected in linear time, and because
    /// the tie-broken order is strict the rows equal a full sort's bit
    /// for bit.
    ///
    /// Runs over `threads` workers (`0` = auto) that claim 64-row blocks
    /// from a shared cursor, so hub-heavy id ranges spread over every
    /// worker. Every row `v` is scatter-gathered start to finish by one
    /// worker with thread-local scratch, and the per-block flat chunks are
    /// stitched into the CSR in block (= row) order, so the rows are
    /// bit-identical at any thread count.
    ///
    /// `stop` is a cooperative probe polled once per **block of rows**
    /// (each row is a full scatter-gather walk — the natural unit of
    /// work). Returns `None` as soon as any block observes it; the chunks
    /// walked so far are discarded, never stitched, so a cancelled build
    /// cannot tear the artifact. A probe that always returns `false` never
    /// changes the rows.
    ///
    /// # Panics
    /// Panics if `t` is not square or `weights` is empty.
    pub fn compute_weighted(
        t: &CsrMatrix,
        weights: &[f32],
        eps: f32,
        top_k: usize,
        threads: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Self> {
        assert_eq!(t.rows(), t.cols(), "transition matrix must be square");
        assert!(!weights.is_empty(), "need at least the T^0 weight");
        let n = t.rows();
        let walk = Walk {
            t,
            weights,
            eps,
            top_k,
        };
        let chunks = walk.blocks(threads, n, |v| v, stop)?;
        // Stitch the block chunks in block order (= row order) into one
        // flat CSR triple. Pure memcpy; no float is touched, so the
        // stitched layout is bit-identical at any thread count.
        let nnz: usize = chunks.iter().map(|c| c.cols.len()).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut cols: Vec<u32> = Vec::with_capacity(nnz);
        let mut vals: Vec<f32> = Vec::with_capacity(nnz);
        for chunk in &chunks {
            for &len in &chunk.lens {
                let last = *offsets.last().expect("offsets starts non-empty");
                offsets.push(last + len as usize);
            }
            cols.extend_from_slice(&chunk.cols);
            vals.extend_from_slice(&chunk.vals);
        }
        debug_assert_eq!(offsets.len(), n + 1);
        Some(Self {
            offsets,
            cols,
            vals,
            k: weights.len() - 1,
        })
    }

    /// Reassembles rows from their flat parts — the inverse of reading
    /// [`InfluenceRows::offsets`] / [`InfluenceRows::cols`] /
    /// [`InfluenceRows::vals`] back out. Exists for the on-disk artifact
    /// codec; the parts must describe a well-formed CSR (monotone offsets
    /// starting at 0 and ending at `cols.len()`, matching `cols`/`vals`
    /// lengths), which the store validates before calling this.
    pub fn from_parts(offsets: Vec<usize>, cols: Vec<u32>, vals: Vec<f32>, k: usize) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            cols.len(),
            "offsets must end at cols.len()"
        );
        assert_eq!(cols.len(), vals.len(), "cols/vals lengths must match");
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            offsets,
            cols,
            vals,
            k,
        }
    }

    /// The flat offsets array (`n + 1` entries). Codec accessor.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The concatenated column ids of every row. Codec accessor.
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// The concatenated values of every row. Codec accessor.
    pub fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// Number of nodes (rows).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Propagation depth these rows were computed at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sparse normalized influence row of `v` as `(columns, values)`
    /// slices, sorted by column — the same shape as
    /// [`grain_graph::CsrMatrix::row`].
    pub fn row(&self, v: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.offsets[v], self.offsets[v + 1]);
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }

    /// Column ids of row `v`, sorted ascending.
    pub fn row_indices(&self, v: usize) -> &[u32] {
        &self.cols[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Values of row `v`, matching [`InfluenceRows::row_indices`].
    pub fn row_values(&self, v: usize) -> &[f32] {
        &self.vals[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Entries of row `v` as `(column, value)` pairs, sorted by column.
    pub fn row_entries(&self, v: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let (cols, vals) = self.row(v);
        cols.iter().copied().zip(vals.iter().copied())
    }

    /// Stored entries in row `v`.
    pub fn row_nnz(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// `I_v(u, k)`: normalized influence of `u` on `v`.
    pub fn influence(&self, v: usize, u: u32) -> f32 {
        let (cols, vals) = self.row(v);
        match cols.binary_search(&u) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// `I_v(S, k) = max_{u in S} I_v(u, k)` (the set influence of Def. 3.2).
    pub fn set_influence(&self, v: usize, set: &[u32]) -> f32 {
        set.iter()
            .map(|&u| self.influence(v, u))
            .fold(0.0f32, f32::max)
    }

    /// Total stored entries across all rows.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Exact heap bytes of the CSR artifact: `8·(n+1)` offsets plus
    /// `8·nnz` for the column/value arrays.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f32>()
    }

    /// Column-sum of influence mass received *from* each node `u`
    /// (Σ_v I_v(u, k)) — the "walk mass" used by Sec-3.4 candidate pruning.
    pub fn walk_mass(&self) -> Vec<f32> {
        let mut mass = vec![0.0f32; self.num_nodes()];
        for (&u, &w) in self.cols.iter().zip(&self.vals) {
            mass[u as usize] += w;
        }
        mass
    }

    /// Rebuild only the `dirty` rows against the (already mutated)
    /// transition matrix `t` and splice them between the untouched row
    /// slices of `self`.
    ///
    /// The dirty rows run through the same block driver as the cold
    /// builder — same per-row walk, same ε-pruning, same `top_k`
    /// selection and L1 normalization — over `threads` workers (`0` =
    /// auto), so a row rebuilt here is byte-identical to the row a cold
    /// [`InfluenceRows::compute_weighted`] over `t` with
    /// `kernel_power_weights(kernel)` would produce, at any thread count.
    /// Clean rows are `memcpy`d from `self`, which is valid whenever
    /// `dirty` is a superset of the rows whose ε-pruned walk neighborhoods
    /// changed.
    ///
    /// `dirty` must be sorted, unique, and in range; `kernel`, `eps`, and
    /// `top_k` must match the parameters `self` was built with (the depth
    /// is checked against `self.k`).
    pub fn with_rebuilt_rows(
        &self,
        t: &CsrMatrix,
        kernel: Kernel,
        eps: f32,
        top_k: usize,
        dirty: &[u32],
        threads: usize,
    ) -> Self {
        let n = self.num_nodes();
        assert_eq!(t.rows(), t.cols(), "transition matrix must be square");
        assert_eq!(t.rows(), n, "transition size must match the row count");
        let weights = kernel_power_weights(kernel);
        assert_eq!(
            weights.len().saturating_sub(1),
            self.k,
            "kernel depth must match the depth these rows were built at"
        );
        debug_assert!(
            dirty.windows(2).all(|w| w[0] < w[1]),
            "dirty rows must be sorted and unique"
        );
        if let Some(&last) = dirty.last() {
            assert!((last as usize) < n, "dirty row {last} out of range");
        }
        if dirty.is_empty() {
            return self.clone();
        }

        let walk = Walk {
            t,
            weights: &weights,
            eps,
            top_k,
        };
        let chunks = walk
            .blocks(threads, dirty.len(), |i| dirty[i] as usize, &|| false)
            .expect("a never-stopping probe cannot cancel the patch");
        let mut rebuilt = chunks.iter().flat_map(RowChunk::rows);

        let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut cols: Vec<u32> = Vec::with_capacity(self.cols.len());
        let mut vals: Vec<f32> = Vec::with_capacity(self.vals.len());
        // Copy the clean run before each dirty row (bulk copy), then the
        // rebuilt dirty row itself; `cursor` tracks the first uncopied row.
        let mut cursor = 0usize;
        let flush_clean = |upto: usize,
                           cols: &mut Vec<u32>,
                           vals: &mut Vec<f32>,
                           offsets: &mut Vec<usize>,
                           cursor: &mut usize| {
            if *cursor < upto {
                let (lo, hi) = (self.offsets[*cursor], self.offsets[upto]);
                cols.extend_from_slice(&self.cols[lo..hi]);
                vals.extend_from_slice(&self.vals[lo..hi]);
                let base = offsets.last().copied().expect("offsets non-empty");
                for r in *cursor..upto {
                    offsets.push(base + (self.offsets[r + 1] - lo));
                }
                *cursor = upto;
            }
        };
        for &d in dirty {
            let d = d as usize;
            flush_clean(d, &mut cols, &mut vals, &mut offsets, &mut cursor);
            let (row_cols, row_vals) = rebuilt.next().expect("one rebuilt row per dirty row");
            cols.extend_from_slice(row_cols);
            vals.extend_from_slice(row_vals);
            let last = *offsets.last().expect("offsets non-empty");
            offsets.push(last + row_cols.len());
            cursor = d + 1;
        }
        flush_clean(n, &mut cols, &mut vals, &mut offsets, &mut cursor);
        debug_assert_eq!(offsets.len(), n + 1);
        Self {
            offsets,
            cols,
            vals,
            k: self.k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::{generators, transition_matrix, Graph, TransitionKind};

    fn rw(g: &Graph) -> CsrMatrix {
        transition_matrix(g, TransitionKind::RandomWalk, true)
    }

    /// Uncancelled build of `weights` rows.
    fn weighted(
        t: &CsrMatrix,
        weights: &[f32],
        eps: f32,
        top_k: usize,
        threads: usize,
    ) -> InfluenceRows {
        InfluenceRows::compute_weighted(t, weights, eps, top_k, threads, &|| false).unwrap()
    }

    /// Uncancelled build of `kernel`'s Jacobian rows.
    fn for_kernel(
        t: &CsrMatrix,
        kernel: Kernel,
        eps: f32,
        top_k: usize,
        threads: usize,
    ) -> InfluenceRows {
        weighted(t, &kernel_power_weights(kernel), eps, top_k, threads)
    }

    /// The retired nested builder, kept as the serial reference the flat
    /// CSR is property-tested against: same per-row walk, same float
    /// order, rows materialized as `Vec<Vec<(u32, f32)>>`.
    fn reference_nested(
        t: &CsrMatrix,
        weights: &[f32],
        eps: f32,
        top_k: usize,
    ) -> Vec<Vec<(u32, f32)>> {
        let k = weights.len() - 1;
        let n = t.rows();
        let mut rows = Vec::with_capacity(n);
        let mut step = vec![0.0f32; n];
        let mut acc = vec![0.0f32; n];
        for v in 0..n {
            let mut frontier = vec![(v as u32, 1.0f32)];
            let mut acc_touched: Vec<u32> = Vec::new();
            if weights[0] != 0.0 {
                acc[v] = weights[0];
                acc_touched.push(v as u32);
            }
            for &wl in weights.iter().skip(1).take(k) {
                let mut step_touched: Vec<u32> = Vec::new();
                for &(node, mass) in &frontier {
                    let (idx, vals) = t.row(node as usize);
                    for (&c, &w) in idx.iter().zip(vals) {
                        let add = mass * w;
                        if add == 0.0 {
                            continue;
                        }
                        if step[c as usize] == 0.0 {
                            step_touched.push(c);
                        }
                        step[c as usize] += add;
                    }
                }
                frontier.clear();
                for &c in &step_touched {
                    let val = step[c as usize];
                    step[c as usize] = 0.0;
                    if val >= eps {
                        frontier.push((c, val));
                        if wl != 0.0 {
                            if acc[c as usize] == 0.0 {
                                acc_touched.push(c);
                            }
                            acc[c as usize] += wl * val;
                        }
                    }
                }
            }
            let mut row: Vec<(u32, f32)> = Vec::new();
            for &c in &acc_touched {
                let val = acc[c as usize];
                acc[c as usize] = 0.0;
                if val > 0.0 {
                    row.push((c, val));
                }
            }
            if top_k > 0 && row.len() > top_k {
                row.sort_unstable_by(|&(ca, wa), &(cb, wb)| wb.total_cmp(&wa).then(ca.cmp(&cb)));
                row.truncate(top_k);
            }
            row.sort_unstable_by_key(|&(c, _)| c);
            let total: f32 = row.iter().map(|&(_, w)| w).sum();
            if total > 0.0 {
                for e in &mut row {
                    e.1 /= total;
                }
            }
            rows.push(row);
        }
        rows
    }

    fn assert_matches_nested(csr: &InfluenceRows, nested: &[Vec<(u32, f32)>]) {
        assert_eq!(csr.num_nodes(), nested.len());
        for (v, want) in nested.iter().enumerate() {
            let got: Vec<(u32, f32)> = csr.row_entries(v).collect();
            assert_eq!(&got, want, "row {v}");
            for &(c, w) in want {
                assert_eq!(csr.influence(v, c).to_bits(), w.to_bits(), "({v},{c})");
            }
        }
    }

    #[test]
    fn rows_are_normalized_probability_distributions() {
        let g = generators::erdos_renyi_gnm(40, 100, 2);
        let rows = InfluenceRows::compute(&rw(&g), 2, 0.0);
        for v in 0..40 {
            let sum: f32 = rows.row_values(v).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {v} sums to {sum}");
            assert!(rows.row_values(v).iter().all(|&w| w >= 0.0));
        }
    }

    #[test]
    fn matches_walk_probability_on_path() {
        // Path 0-1-2 with self-loops: from node 0, one step gives
        // 1/2 to 0 and 1/2 to 1.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let rows = InfluenceRows::compute(&rw(&g), 1, 0.0);
        assert!((rows.influence(0, 0) - 0.5).abs() < 1e-6);
        assert!((rows.influence(0, 1) - 0.5).abs() < 1e-6);
        assert_eq!(rows.influence(0, 2), 0.0);
    }

    #[test]
    fn two_steps_reach_two_hops() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let rows = InfluenceRows::compute(&rw(&g), 2, 0.0);
        // 0 -> 1 -> 2 path exists: I_0(2, 2) = 1/2 * 1/3 = 1/6.
        assert!((rows.influence(0, 2) - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn pruning_keeps_rows_sparse_but_normalized() {
        let g = generators::barabasi_albert(300, 3, 7);
        let exact = InfluenceRows::compute(&rw(&g), 2, 0.0);
        let pruned = InfluenceRows::compute(&rw(&g), 2, 0.01);
        assert!(pruned.nnz() < exact.nnz());
        for v in 0..300 {
            let sum: f32 = pruned.row_values(v).iter().sum();
            assert!(sum == 0.0 || (sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn set_influence_takes_max() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let rows = InfluenceRows::compute(&rw(&g), 1, 0.0);
        let s = [0u32, 2u32];
        let direct = rows.set_influence(1, &s);
        assert!((direct - rows.influence(1, 0).max(rows.influence(1, 2))).abs() < 1e-7);
    }

    #[test]
    fn walk_mass_sums_to_total_mass() {
        let g = generators::erdos_renyi_gnm(25, 50, 3);
        let rows = InfluenceRows::compute(&rw(&g), 2, 0.0);
        let mass: f32 = rows.walk_mass().iter().sum();
        assert!((mass - 25.0).abs() < 1e-3);
    }

    #[test]
    fn isolated_node_influences_only_itself() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let rows = InfluenceRows::compute(&rw(&g), 2, 0.0);
        assert_eq!(rows.row(2), (&[2u32][..], &[1.0f32][..]));
    }

    #[test]
    fn ppr_weights_sum_to_one() {
        let w = kernel_power_weights(grain_prop::Kernel::Ppr { k: 4, alpha: 0.15 });
        assert_eq!(w.len(), 5);
        let total: f32 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn s2gc_weights_sum_to_one() {
        let w = kernel_power_weights(grain_prop::Kernel::S2gc { k: 3, alpha: 0.1 });
        let total: f32 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!((w[0] - 0.1).abs() < 1e-7);
    }

    #[test]
    fn pure_power_weights_select_top_power() {
        let w = kernel_power_weights(grain_prop::Kernel::RandomWalk { k: 2 });
        assert_eq!(w, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn for_kernel_ppr_includes_self_influence() {
        // PPR's α-weighted identity keeps mass on the source even at k=2.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let t = rw(&g);
        let ppr = for_kernel(&t, grain_prop::Kernel::Ppr { k: 2, alpha: 0.5 }, 0.0, 0, 0);
        let plain = for_kernel(&t, grain_prop::Kernel::RandomWalk { k: 2 }, 0.0, 0, 0);
        assert!(ppr.influence(0, 0) > plain.influence(0, 0));
        // Both stay normalized distributions.
        let sum: f32 = ppr.row_values(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn compute_matches_for_kernel_on_plain_walk() {
        let g = generators::erdos_renyi_gnm(30, 70, 12);
        let t = rw(&g);
        let a = InfluenceRows::compute(&t, 2, 0.0);
        let b = for_kernel(&t, grain_prop::Kernel::RandomWalk { k: 2 }, 0.0, 0, 0);
        for v in 0..30 {
            assert_eq!(a.row(v), b.row(v));
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // 600 rows are ten blocks, so every count splits them differently.
        let g = generators::erdos_renyi_gnm(600, 1500, 4);
        let t = rw(&g);
        let a = InfluenceRows::compute(&t, 2, 1e-4);
        for threads in [1usize, 2, 5] {
            let b = weighted(&t, &[0.0, 0.0, 1.0], 1e-4, 0, threads);
            assert_eq!(a.offsets, b.offsets, "{threads} threads");
            assert_eq!(a.cols, b.cols, "{threads} threads");
            assert_eq!(bits(&a.vals), bits(&b.vals), "{threads} threads");
        }
    }

    /// FNV-1a over the offsets (as `u64`), columns and value bits, in
    /// that order.
    fn fnv_hash(rows: &InfluenceRows) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        rows.offsets
            .iter()
            .for_each(|&o| eat(&(o as u64).to_le_bytes()));
        rows.cols.iter().for_each(|&c| eat(&c.to_le_bytes()));
        rows.vals
            .iter()
            .for_each(|&v| eat(&v.to_bits().to_le_bytes()));
        h
    }

    fn bits(vals: &[f32]) -> Vec<u32> {
        vals.iter().map(|v| v.to_bits()).collect()
    }

    /// The rows of a hub-heavy preferential-attachment graph, pinned. The
    /// hashes were computed by the static-split, full-sort builder that
    /// preceded the block driver and the linear-time top-k.
    #[test]
    fn hub_heavy_rows_match_pinned_hashes() {
        let g = generators::barabasi_albert(20_000, 4, 7);
        let t = rw(&g);
        let weights = kernel_power_weights(Kernel::RandomWalk { k: 2 });
        // (top_k, hash, nnz)
        let pinned = [
            (0usize, 0x8e4b_a412_37f7_49dd_u64, 3_794_192usize),
            (32, 0xa1a0_0fb2_8f56_ce99, 638_678),
        ];
        for (top_k, hash, nnz) in pinned {
            for threads in [1usize, 2, 5] {
                let rows = weighted(&t, &weights, 1e-4, top_k, threads);
                assert_eq!(
                    (fnv_hash(&rows), rows.nnz()),
                    (hash, nnz),
                    "top_k {top_k} threads {threads}"
                );
            }
        }
    }

    /// Every row of a ring lattice holds its `2·3 + 1` entries at one
    /// equal weight, so truncation is decided by the column tie-break
    /// alone; `top_k` straddles the row length on both sides.
    #[test]
    fn top_k_selection_matches_full_sort_on_pure_ties() {
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| (1..=3).map(move |d| (v, (v + d) % n)))
            .collect();
        let g = Graph::from_edges(n as usize, &edges);
        let t = rw(&g);
        let weights = [0.0f32, 1.0];
        let len = 7usize;
        for top_k in [1, len - 1, len, len + 1] {
            let nested = reference_nested(&t, &weights, 0.0, top_k);
            assert!(nested.iter().all(|row| row.len() == top_k.min(len)));
            for threads in [1usize, 2, 5] {
                let csr = weighted(&t, &weights, 0.0, top_k, threads);
                assert_matches_nested(&csr, &nested);
            }
        }
    }

    #[test]
    fn probe_tripping_after_n_polls_returns_none() {
        use std::sync::atomic::AtomicUsize;
        let g = generators::barabasi_albert(1_000, 3, 23);
        let t = rw(&g);
        let weights = kernel_power_weights(Kernel::RandomWalk { k: 2 });
        let blocks = 1_000usize.div_ceil(ROW_BLOCK);
        for threads in [1usize, 2, 5] {
            // An untripped probe is polled exactly once per block.
            let polls = AtomicUsize::new(0);
            let probe = || {
                polls.fetch_add(1, Ordering::Relaxed);
                false
            };
            assert!(
                InfluenceRows::compute_weighted(&t, &weights, 1e-4, 8, threads, &probe).is_some()
            );
            assert_eq!(polls.load(Ordering::Relaxed), blocks, "{threads} threads");
            for trip_after in [0usize, 3, blocks - 1] {
                let polls = AtomicUsize::new(0);
                let probe = || polls.fetch_add(1, Ordering::Relaxed) >= trip_after;
                assert!(
                    InfluenceRows::compute_weighted(&t, &weights, 1e-4, 8, threads, &probe)
                        .is_none(),
                    "a probe tripping after {trip_after} polls at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn ctl_probe_false_is_bit_identical_and_true_cancels() {
        let g = generators::barabasi_albert(200, 3, 11);
        let t = rw(&g);
        let kernel = Kernel::Ppr { k: 2, alpha: 0.15 };
        let weights = kernel_power_weights(kernel);
        let plain = for_kernel(&t, kernel, 1e-4, 0, 2);
        let ctl = InfluenceRows::compute_weighted(&t, &weights, 1e-4, 0, 2, &|| false).unwrap();
        for v in 0..200 {
            assert_eq!(plain.row(v), ctl.row(v), "row {v}");
        }
        assert!(
            InfluenceRows::compute_weighted(&t, &weights, 1e-4, 0, 2, &|| true).is_none(),
            "a tripped probe yields no (partial) artifact"
        );
    }

    #[test]
    fn explicit_thread_counts_are_bit_identical() {
        let g = generators::barabasi_albert(250, 3, 17);
        let t = rw(&g);
        let serial = for_kernel(&t, Kernel::Ppr { k: 2, alpha: 0.15 }, 1e-4, 0, 1);
        for threads in [2usize, 8] {
            let par = for_kernel(&t, Kernel::Ppr { k: 2, alpha: 0.15 }, 1e-4, 0, threads);
            for v in 0..250 {
                assert_eq!(par.row(v), serial.row(v), "row {v} at {threads} threads");
            }
        }
    }

    #[test]
    fn csr_matches_reference_nested_build() {
        let g = generators::barabasi_albert(220, 3, 5);
        let t = rw(&g);
        for eps in [0.0f32, 1e-4, 1e-2] {
            let weights = kernel_power_weights(Kernel::Ppr { k: 2, alpha: 0.15 });
            let nested = reference_nested(&t, &weights, eps, 0);
            for threads in [1usize, 2, 8] {
                let csr = weighted(&t, &weights, eps, 0, threads);
                assert_matches_nested(&csr, &nested);
            }
        }
    }

    #[test]
    fn truncation_keeps_top_k_by_weight_with_smaller_column_ties() {
        // Star around node 0 with a self-loop transition: row of 0 at k=1
        // spreads equal mass over the leaves — a pure tie, so truncation
        // must keep the smallest column ids.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let rows = weighted(&rw(&g), &[0.0, 1.0], 0.0, 3, 0);
        assert_eq!(rows.row_indices(0), &[0, 1, 2]);
        let sum: f32 = rows.row_values(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "truncated row renormalizes");
    }

    #[test]
    fn truncation_matches_reference_and_is_thread_invariant() {
        let g = generators::barabasi_albert(200, 4, 9);
        let t = rw(&g);
        let weights = kernel_power_weights(Kernel::RandomWalk { k: 2 });
        for top_k in [1usize, 4, 16] {
            let nested = reference_nested(&t, &weights, 0.0, top_k);
            for threads in [1usize, 3, 8] {
                let csr = weighted(&t, &weights, 0.0, top_k, threads);
                assert_matches_nested(&csr, &nested);
                for v in 0..200 {
                    assert!(csr.row_nnz(v) <= top_k, "row {v} exceeds top_k={top_k}");
                }
            }
        }
    }

    /// `top_k` reaches the builder unchecked (from the config, and from the
    /// network edge's wire decoder), so any value at or beyond a row's
    /// length must keep every row whole on the cold build and the patch
    /// alike, and must never size an allocation.
    #[test]
    fn top_k_zero_and_oversized_top_k_change_nothing() {
        let g = generators::barabasi_albert(150, 3, 13);
        let t = rw(&g);
        let kernel = Kernel::RandomWalk { k: 2 };
        let plain = InfluenceRows::compute(&t, 2, 1e-4);
        let zero = weighted(&t, &[0.0, 0.0, 1.0], 1e-4, 0, 0);
        let huge = weighted(&t, &[0.0, 0.0, 1.0], 1e-4, 10_000, 0);
        for v in 0..150 {
            assert_eq!(plain.row(v), zero.row(v), "row {v} (top_k = 0)");
            assert_eq!(plain.row(v), huge.row(v), "row {v} (oversized top_k)");
        }
        let dirty: Vec<u32> = (0..150).step_by(2).collect();
        for threads in [1usize, 2, 5] {
            for top_k in [150, u32::MAX as usize, usize::MAX] {
                let at = format!("top_k {top_k}, {threads} threads");
                let built = weighted(&t, &[0.0, 0.0, 1.0], 1e-4, top_k, threads);
                let patched = plain.with_rebuilt_rows(&t, kernel, 1e-4, top_k, &dirty, threads);
                for rows in [&built, &patched] {
                    assert_eq!(rows.offsets, plain.offsets, "{at}");
                    assert_eq!(rows.cols, plain.cols, "{at}");
                    assert_eq!(bits(&rows.vals), bits(&plain.vals), "{at}");
                }
            }
        }
    }

    #[test]
    fn truncation_bounds_nnz_and_resident_bytes() {
        let g = generators::barabasi_albert(400, 5, 3);
        let t = rw(&g);
        let full = InfluenceRows::compute(&t, 2, 0.0);
        let cut = weighted(&t, &[0.0, 0.0, 1.0], 0.0, 8, 0);
        assert!(cut.nnz() <= 8 * 400);
        assert!(cut.nnz() < full.nnz());
        assert!(cut.resident_bytes() < full.resident_bytes());
    }

    #[test]
    fn csr_resident_bytes_strictly_below_nested_layout() {
        // Exact CSR bytes, `8·(n+1) + 8·nnz` on 64-bit targets: below the
        // retired nested layout's `24·n + 8·nnz` at every n ≥ 1.
        let g = generators::erdos_renyi_gnm(100, 300, 21);
        let rows = InfluenceRows::compute(&rw(&g), 2, 1e-4);
        assert_eq!(
            rows.resident_bytes(),
            (rows.num_nodes() + 1) * std::mem::size_of::<usize>() + 8 * rows.nnz()
        );
    }

    /// Splice-rebuilding the dirty rows after an edge edit must reproduce
    /// the cold build over the mutated graph byte-for-byte, for every
    /// kernel, with/without top-k truncation and at every thread count.
    /// The dirty set is the (k+1)-hop ball around the edited endpoints
    /// under the *new* adjacency — a superset of the rows whose walk
    /// neighborhoods moved — and spans several 64-row blocks.
    #[test]
    fn rebuilt_rows_match_cold_build_after_edits() {
        let g = generators::erdos_renyi_gnm(160, 480, 9);
        let inserts = [(3u32, 150u32, 1.0f32), (40, 99, 2.5)];
        let deletes_src: Vec<(u32, u32)> = {
            let (cols, _) = g.adjacency().row(5);
            cols.first().map(|&c| (5u32, c)).into_iter().collect()
        };
        let (g2, endpoints) =
            grain_graph::apply_edge_edits(&g, &inserts, &deletes_src).expect("valid edits");
        for kernel in [
            Kernel::RandomWalk { k: 2 },
            Kernel::Ppr { k: 2, alpha: 0.15 },
            Kernel::S2gc { k: 2, alpha: 0.1 },
            Kernel::Gbp { k: 2, beta: 0.4 },
        ] {
            let depth = kernel_power_weights(kernel).len() - 1;
            for kind in [TransitionKind::RandomWalk, TransitionKind::Symmetric] {
                let t_old = transition_matrix(&g, kind, true);
                let t_new = transition_matrix(&g2, kind, true);
                let dirty = grain_graph::k_hop_ball(&g2, &endpoints, depth + 1);
                assert!(dirty.len() > 2 * ROW_BLOCK, "{} dirty rows", dirty.len());
                for top_k in [0usize, 4] {
                    let old = for_kernel(&t_old, kernel, 1e-4, top_k, 1);
                    let cold = for_kernel(&t_new, kernel, 1e-4, top_k, 1);
                    for threads in [1usize, 2, 5] {
                        let patched =
                            old.with_rebuilt_rows(&t_new, kernel, 1e-4, top_k, &dirty, threads);
                        let at = format!("{kernel:?}/{kind:?}/top_k={top_k}/{threads} threads");
                        assert_eq!(patched.offsets, cold.offsets, "{at}");
                        assert_eq!(patched.cols, cold.cols, "{at}");
                        assert_eq!(bits(&patched.vals), bits(&cold.vals), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn rebuilt_rows_with_empty_dirty_set_is_identity() {
        let g = generators::barabasi_albert(120, 3, 5);
        let t = rw(&g);
        let rows = InfluenceRows::compute(&t, 2, 1e-4);
        let same = rows.with_rebuilt_rows(&t, Kernel::RandomWalk { k: 2 }, 1e-4, 0, &[], 0);
        assert_eq!(rows.offsets, same.offsets);
        assert_eq!(rows.cols, same.cols);
        assert_eq!(rows.vals, same.vals);
    }

    #[test]
    #[should_panic(expected = "kernel depth")]
    fn rebuilt_rows_rejects_depth_mismatch() {
        let g = generators::erdos_renyi_gnm(40, 80, 2);
        let t = rw(&g);
        let rows = InfluenceRows::compute(&t, 2, 1e-4);
        let _ = rows.with_rebuilt_rows(&t, Kernel::RandomWalk { k: 3 }, 1e-4, 0, &[1], 0);
    }
}
