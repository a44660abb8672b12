//! Activation index: the inverted form of Definition 3.2.
//!
//! A node `v` is *activated* by a seed set `S` when
//! `I_v(S, k) = max_{u in S} I_v(u, k) > θ`. Because the max distributes
//! over single seeds, activation depends only on per-pair comparisons, so
//! the whole model inverts into per-seed activation lists
//! `act[u] = {v : I_v(u, k) > θ}` computed once. `σ(S)` then becomes the
//! union of `act[u]` over `u ∈ S` — a max-coverage instance that greedy
//! selection can maintain incrementally.

use crate::walk::InfluenceRows;
use grain_linalg::par;
use serde::{Deserialize, Serialize};

/// Nodes per block of the parallel threshold scan in
/// [`ActivationIndex::build`].
const NODE_BLOCK: usize = 1024;

/// How the activation threshold `θ` of Definition 3.2 is interpreted.
///
/// The paper fixes `θ = 0.25` (Appendix A.4) yet reports `|σ(S)|` in the
/// hundreds for 20 seeds on Cora (Figure 2a) — unreachable if `θ` cuts the
/// *sum-normalized* influence of Eq. 8, whose typical entries are ~1/|2-hop
/// neighborhood|. We therefore support three interpretations and default
/// the pipeline to the scale-free one (see DESIGN.md):
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum ThetaRule {
    /// Eq. 8 verbatim: activate when `I_v(u,k) > θ` on sum-normalized rows.
    FixedAbsolute(f32),
    /// Scale-free: activate when `I_v(u,k) > θ · max_w I_v(w,k)` — `u` must
    /// contribute at least a `θ` fraction of `v`'s strongest influencer.
    /// Reproduces the paper's magnitude regime on graphs of any density.
    RelativeToRowMax(f32),
    /// Data-driven: `θ` is the given quantile of all nonzero normalized
    /// influence values, then applied absolutely.
    GlobalQuantile(f64),
}

impl ThetaRule {
    /// Validates the parameter range.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ThetaRule::FixedAbsolute(t) | ThetaRule::RelativeToRowMax(t) => {
                if (0.0..=1.0).contains(&t) {
                    Ok(())
                } else {
                    Err(format!("theta must lie in [0,1], got {t}"))
                }
            }
            ThetaRule::GlobalQuantile(q) => {
                if (0.0..1.0).contains(&q) {
                    Ok(())
                } else {
                    Err(format!("quantile must lie in [0,1), got {q}"))
                }
            }
        }
    }
}

/// Inverted activation lists for a fixed threshold `θ`.
///
/// Stored in flat CSR form — one offsets array plus one concatenated
/// items array — instead of a `Vec` per seed: greedy coverage updates
/// stream over `act[u]` slices, and the flat layout keeps them contiguous
/// in memory while letting the parallel builder write disjoint ranges.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ActivationIndex {
    /// `items[offsets[u]..offsets[u+1]]` = nodes activated by seed `u`,
    /// sorted ascending.
    offsets: Vec<usize>,
    /// Concatenated activation lists.
    items: Vec<u32>,
    theta: f32,
    k: usize,
}

impl ActivationIndex {
    /// Builds the index from influence rows under the given [`ThetaRule`],
    /// inverting the rows over `threads` workers (`0` = auto).
    /// `ThetaRule::FixedAbsolute` is Eq. 8 / Definition 3.2 verbatim.
    ///
    /// Determinism: workers extract the qualifying `(seed, node)` pairs
    /// of fixed `NODE_BLOCK`-node `v`-blocks in parallel (the threshold
    /// scan is the bulk of the work), then one sequential counting-sort
    /// pass places every pair. Within a block `v` ascends and blocks are
    /// placed in ascending order, so every `act[u]` list comes out sorted
    /// by `v` and bit-identical at any thread count. Auxiliary memory is
    /// proportional to the *output* (one pair per activation) plus one
    /// cursor array — not to `workers × n`.
    pub fn build(rows: &InfluenceRows, rule: ThetaRule, threads: usize) -> Self {
        let n = rows.num_nodes();
        let (theta, relative) = match rule {
            ThetaRule::FixedAbsolute(t) => (t, false),
            ThetaRule::RelativeToRowMax(t) => (t, true),
            ThetaRule::GlobalQuantile(q) => (Self::quantile_threshold(rows, q), false),
        };
        let cutoff_of = |v: usize| -> f32 {
            if relative {
                let row_max = rows.row_values(v).iter().copied().fold(0.0f32, f32::max);
                theta * row_max
            } else {
                theta
            }
        };

        // Parallel pass: each node block extracts its qualifying
        // (seed, activated node) pairs, v-ascending.
        let pairs: Vec<Vec<(u32, u32)>> = par::map(
            threads,
            n.div_ceil(NODE_BLOCK),
            1,
            || (),
            |(), b| {
                let mut local = Vec::new();
                for v in b * NODE_BLOCK..((b + 1) * NODE_BLOCK).min(n) {
                    let cutoff = cutoff_of(v);
                    for (u, w) in rows.row_entries(v) {
                        if w > cutoff {
                            local.push((u, v as u32));
                        }
                    }
                }
                local
            },
        );

        // Sequential counting sort over the pairs, O(activations + n):
        // count per seed, prefix into offsets, then place each block's
        // pairs in block order so per-seed lists stay v-ascending.
        let mut offsets = vec![0usize; n + 1];
        for list in &pairs {
            for &(u, _) in list {
                offsets[u as usize + 1] += 1;
            }
        }
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut cursors = offsets[..n].to_vec();
        let mut items = vec![0u32; offsets[n]];
        for list in &pairs {
            for &(u, v) in list {
                items[cursors[u as usize]] = v;
                cursors[u as usize] += 1;
            }
        }

        Self {
            offsets,
            items,
            theta,
            k: rows.k(),
        }
    }

    /// Incrementally repairs the index after the given `dirty` influence
    /// rows were rebuilt, producing the index a cold
    /// [`ActivationIndex::build`] over `new_rows` would —
    /// bit-identically — without re-scanning clean rows.
    ///
    /// Every inverted entry `(u, v)` with a dirty `v` is dropped from the
    /// old lists, and the qualifying entries of the rebuilt rows are
    /// spliced back in by one sorted merge per seed. Correctness requires
    /// that `new_rows` differs from the rows this index was built over
    /// only on the `dirty` rows (sorted, unique, in range) and that `rule`
    /// is the rule this index was built with. Both row-local rules repair
    /// in `O(Σ|act[u]| + Σ_{v∈dirty}|row(v)|)`; [`ThetaRule::GlobalQuantile`]
    /// couples the threshold to every row, so it falls back to a full
    /// serial rebuild.
    pub fn repaired(&self, new_rows: &InfluenceRows, rule: ThetaRule, dirty: &[u32]) -> Self {
        if let ThetaRule::GlobalQuantile(_) = rule {
            return Self::build(new_rows, rule, 1);
        }
        let n = self.num_nodes();
        assert_eq!(new_rows.num_nodes(), n, "row universe must match");
        assert_eq!(new_rows.k(), self.k, "propagation depth must match");
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
        let (theta, relative) = match rule {
            ThetaRule::FixedAbsolute(t) => (t, false),
            ThetaRule::RelativeToRowMax(t) => (t, true),
            ThetaRule::GlobalQuantile(_) => unreachable!("handled above"),
        };
        debug_assert_eq!(
            theta.to_bits(),
            self.theta.to_bits(),
            "rule must match the rule this index was built with"
        );

        let mut dirty_mask = vec![false; n];
        let mut inserted: Vec<(u32, u32)> = Vec::new();
        for &v in dirty {
            dirty_mask[v as usize] = true;
            let cutoff = if relative {
                theta
                    * new_rows
                        .row_values(v as usize)
                        .iter()
                        .copied()
                        .fold(0.0f32, f32::max)
            } else {
                theta
            };
            for (u, w) in new_rows.row_entries(v as usize) {
                if w > cutoff {
                    inserted.push((u, v));
                }
            }
        }
        // Stable sort groups the pairs by seed while preserving the
        // v-ascending emission order within each seed.
        inserted.sort_by_key(|&(u, _)| u);

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut items = Vec::with_capacity(self.items.len());
        let mut ins_pos = 0usize;
        for u in 0..n {
            let old = self.activated_by(u);
            let ins_start = ins_pos;
            while ins_pos < inserted.len() && inserted[ins_pos].0 as usize == u {
                ins_pos += 1;
            }
            let ins = &inserted[ins_start..ins_pos];
            // Sorted merge of (old list minus dirty rows) with the fresh
            // entries. The kept old side and the fresh side are disjoint
            // because every dirty row is filtered from the old side.
            let (mut i, mut j) = (0usize, 0usize);
            while i < old.len() || j < ins.len() {
                let take_old = match (old.get(i), ins.get(j)) {
                    (Some(&ov), Some(&(_, nv))) => ov < nv,
                    (Some(_), None) => true,
                    _ => false,
                };
                if take_old {
                    if !dirty_mask[old[i] as usize] {
                        items.push(old[i]);
                    }
                    i += 1;
                } else {
                    items.push(ins[j].1);
                    j += 1;
                }
            }
            offsets.push(items.len());
        }
        Self {
            offsets,
            items,
            theta: self.theta,
            k: self.k,
        }
    }

    /// The `q`-quantile of all nonzero normalized influence values.
    fn quantile_threshold(rows: &InfluenceRows, q: f64) -> f32 {
        let mut values: Vec<f32> = (0..rows.num_nodes())
            .flat_map(|v| rows.row_values(v).iter().copied())
            .collect();
        if values.is_empty() {
            return 0.0;
        }
        values.sort_unstable_by(f32::total_cmp);
        let rank = ((values.len() - 1) as f64 * q).round() as usize;
        values[rank]
    }

    /// Reassembles an index from its flat parts — the inverse of reading
    /// [`ActivationIndex::offsets`] / [`ActivationIndex::items`] back out.
    /// Exists for the on-disk artifact codec; the parts must describe a
    /// well-formed CSR (monotone offsets starting at 0 and ending at
    /// `items.len()`), which the store validates before calling this.
    pub fn from_parts(offsets: Vec<usize>, items: Vec<u32>, theta: f32, k: usize) -> Self {
        assert!(!offsets.is_empty(), "offsets must have n+1 entries");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            items.len(),
            "offsets must end at items.len()"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            offsets,
            items,
            theta,
            k,
        }
    }

    /// The flat offsets array (`n + 1` entries). Codec accessor.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The concatenated activation lists. Codec accessor.
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Number of nodes in the universe.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The activation threshold `θ` this index was built with.
    pub fn theta(&self) -> f32 {
        self.theta
    }

    /// Propagation depth of the underlying influence rows.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Nodes activated by a single seed `u` (sorted).
    pub fn activated_by(&self, u: usize) -> &[u32] {
        &self.items[self.offsets[u]..self.offsets[u + 1]]
    }

    /// `σ(S)` — the activated set of a seed set, sorted, deduplicated.
    pub fn sigma(&self, seeds: &[u32]) -> Vec<u32> {
        let mut out: Vec<u32> = seeds
            .iter()
            .flat_map(|&u| self.activated_by(u as usize).iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `|σ(S)|` without materializing the set.
    pub fn sigma_size(&self, seeds: &[u32]) -> usize {
        self.sigma(seeds).len()
    }

    /// Upper bound `σ̂` for the normalization in Eq. 11: the number of nodes
    /// activated by at least one potential seed.
    pub fn max_coverage_bound(&self) -> usize {
        let mut seen = vec![false; self.num_nodes()];
        for &v in &self.items {
            seen[v as usize] = true;
        }
        seen.into_iter().filter(|&b| b).count()
    }

    /// Total size of all activation lists (memory/effort proxy).
    pub fn total_entries(&self) -> usize {
        self.items.len()
    }

    /// Exact heap bytes of the index: `8·(n+1)` offsets plus `4` per
    /// activation entry.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.items.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::{generators, transition_matrix, Graph, TransitionKind};

    fn rows(g: &Graph, k: usize) -> InfluenceRows {
        let t = transition_matrix(g, TransitionKind::RandomWalk, true);
        InfluenceRows::compute(&t, k, 0.0)
    }

    #[test]
    fn threshold_zero_lists_all_reachable() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let idx = ActivationIndex::build(&rows(&g, 1), ThetaRule::FixedAbsolute(0.0), 1);
        // One step from node 1 reaches {0, 1, 2}; so each is activated by 1.
        assert_eq!(idx.activated_by(1), &[0, 1, 2]);
    }

    #[test]
    fn higher_threshold_shrinks_lists() {
        let g = generators::erdos_renyi_gnm(50, 120, 6);
        let r = rows(&g, 2);
        let loose = ActivationIndex::build(&r, ThetaRule::FixedAbsolute(0.0), 1);
        let tight = ActivationIndex::build(&r, ThetaRule::FixedAbsolute(0.3), 1);
        assert!(tight.total_entries() <= loose.total_entries());
        for u in 0..50 {
            for v in tight.activated_by(u) {
                assert!(loose.activated_by(u).contains(v));
            }
        }
    }

    #[test]
    fn sigma_is_union_of_lists() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let idx = ActivationIndex::build(&rows(&g, 1), ThetaRule::FixedAbsolute(0.1), 1);
        let s01 = idx.sigma(&[0]);
        let s23 = idx.sigma(&[2]);
        let both = idx.sigma(&[0, 2]);
        let mut manual: Vec<u32> = s01.iter().chain(s23.iter()).copied().collect();
        manual.sort_unstable();
        manual.dedup();
        assert_eq!(both, manual);
        assert_eq!(idx.sigma_size(&[0, 2]), both.len());
    }

    #[test]
    fn sigma_monotone_in_seed_set() {
        let g = generators::erdos_renyi_gnm(30, 70, 8);
        let idx = ActivationIndex::build(&rows(&g, 2), ThetaRule::FixedAbsolute(0.1), 1);
        let small = idx.sigma_size(&[1, 5]);
        let big = idx.sigma_size(&[1, 5, 9, 13]);
        assert!(big >= small);
    }

    #[test]
    fn max_coverage_bound_bounds_every_sigma() {
        let g = generators::erdos_renyi_gnm(40, 100, 9);
        let idx = ActivationIndex::build(&rows(&g, 2), ThetaRule::FixedAbsolute(0.05), 1);
        let all: Vec<u32> = (0..40u32).collect();
        assert_eq!(idx.sigma_size(&all), idx.max_coverage_bound());
    }

    #[test]
    fn relative_rule_activates_argmax_influencer() {
        // Under RelativeToRowMax every node appears in at least the list of
        // its strongest influencer, so sigma over all seeds covers V.
        let g = generators::erdos_renyi_gnm(40, 100, 12);
        let idx = ActivationIndex::build(&rows(&g, 2), ThetaRule::RelativeToRowMax(0.25), 1);
        let all: Vec<u32> = (0..40u32).collect();
        assert_eq!(idx.sigma_size(&all), 40);
    }

    #[test]
    fn relative_rule_monotone_in_theta() {
        let g = generators::erdos_renyi_gnm(40, 100, 13);
        let r = rows(&g, 2);
        let loose = ActivationIndex::build(&r, ThetaRule::RelativeToRowMax(0.1), 1);
        let tight = ActivationIndex::build(&r, ThetaRule::RelativeToRowMax(0.9), 1);
        assert!(tight.total_entries() <= loose.total_entries());
    }

    #[test]
    fn quantile_rule_matches_manual_threshold() {
        let g = generators::erdos_renyi_gnm(30, 70, 14);
        let r = rows(&g, 2);
        let idx = ActivationIndex::build(&r, ThetaRule::GlobalQuantile(0.5), 1);
        // Roughly half of all influence entries should clear the median.
        let kept = idx.total_entries();
        let total: usize = (0..30).map(|v| r.row_nnz(v)).sum();
        assert!(kept * 3 > total && kept < total, "kept {kept} of {total}");
    }

    #[test]
    fn theta_rule_validation() {
        assert!(ThetaRule::FixedAbsolute(0.5).validate().is_ok());
        assert!(ThetaRule::FixedAbsolute(1.5).validate().is_err());
        assert!(ThetaRule::RelativeToRowMax(-0.1).validate().is_err());
        assert!(ThetaRule::GlobalQuantile(1.0).validate().is_err());
        assert!(ThetaRule::GlobalQuantile(0.9).validate().is_ok());
    }

    #[test]
    fn parallel_build_is_bit_identical_for_every_rule() {
        let g = generators::barabasi_albert(200, 3, 21);
        let r = rows(&g, 2);
        for rule in [
            ThetaRule::FixedAbsolute(0.05),
            ThetaRule::RelativeToRowMax(0.25),
            ThetaRule::GlobalQuantile(0.5),
        ] {
            let serial = ActivationIndex::build(&r, rule, 1);
            for threads in [2usize, 3, 8] {
                let par = ActivationIndex::build(&r, rule, threads);
                assert_eq!(par.theta(), serial.theta(), "{rule:?}");
                for u in 0..200 {
                    assert_eq!(
                        par.activated_by(u),
                        serial.activated_by(u),
                        "{rule:?} seed {u} at {threads} threads"
                    );
                }
            }
        }
    }

    /// Repairing the index over dirty-rebuilt rows must reproduce the cold
    /// build over the new rows byte-for-byte, for every theta rule.
    #[test]
    fn repaired_matches_cold_rebuild_after_edits() {
        let g = generators::erdos_renyi_gnm(120, 360, 17);
        let (g2, endpoints) =
            grain_graph::apply_edge_edits(&g, &[(2, 117, 1.0), (30, 90, 0.5)], &[]).unwrap();
        let t_old = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let t_new = transition_matrix(&g2, TransitionKind::RandomWalk, true);
        let old_rows = InfluenceRows::compute(&t_old, 2, 1e-4);
        let dirty = grain_graph::k_hop_ball(&g2, &endpoints, 3);
        let new_rows = old_rows.with_rebuilt_rows(
            &t_new,
            grain_prop::Kernel::RandomWalk { k: 2 },
            1e-4,
            0,
            &dirty,
            1,
        );
        for rule in [
            ThetaRule::FixedAbsolute(0.05),
            ThetaRule::RelativeToRowMax(0.25),
            ThetaRule::GlobalQuantile(0.5),
        ] {
            let old_idx = ActivationIndex::build(&old_rows, rule, 1);
            let cold = ActivationIndex::build(&new_rows, rule, 1);
            let repaired = old_idx.repaired(&new_rows, rule, &dirty);
            assert_eq!(repaired.offsets, cold.offsets, "{rule:?}");
            assert_eq!(repaired.items, cold.items, "{rule:?}");
            assert_eq!(
                repaired.theta().to_bits(),
                cold.theta().to_bits(),
                "{rule:?}"
            );
            assert_eq!(repaired.k(), cold.k(), "{rule:?}");
        }
    }

    #[test]
    fn repaired_with_empty_dirty_set_is_identity() {
        let g = generators::barabasi_albert(80, 3, 4);
        let r = rows(&g, 2);
        let idx = ActivationIndex::build(&r, ThetaRule::RelativeToRowMax(0.25), 1);
        let same = idx.repaired(&r, ThetaRule::RelativeToRowMax(0.25), &[]);
        assert_eq!(same.offsets, idx.offsets);
        assert_eq!(same.items, idx.items);
    }

    #[test]
    fn activation_lists_sorted() {
        let g = generators::barabasi_albert(60, 2, 10);
        let idx = ActivationIndex::build(&rows(&g, 2), ThetaRule::FixedAbsolute(0.01), 1);
        for u in 0..60 {
            let lst = idx.activated_by(u);
            assert!(lst.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
