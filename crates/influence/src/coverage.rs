//! Incremental maintenance of `σ(S)` during greedy selection.
//!
//! Adding one seed `u` to `S` changes `σ(S)` by exactly the not-yet-covered
//! part of `act[u]`; this state tracks covered flags so each greedy round
//! costs `O(|act[u]|)` per evaluated candidate instead of recomputing the
//! union from scratch (the difference between `O(B·n·L)` and `O(B·n·L·B)`
//! overall).
//!
//! The covered flags live in a packed u64 [`Bitset`] (8× smaller than the
//! `Vec<bool>` it replaced — it must stay cache-resident at n=1e6), and the
//! `*_into` variants write newly activated nodes into a caller-owned
//! scratch buffer so the innermost greedy loop performs zero allocations.

use crate::index::ActivationIndex;
use grain_linalg::Bitset;

/// Mutable coverage state over an [`ActivationIndex`].
#[derive(Clone, Debug)]
pub struct CoverageState<'a> {
    index: &'a ActivationIndex,
    covered: Bitset,
    seeds: Vec<u32>,
}

impl<'a> CoverageState<'a> {
    /// Empty coverage (`S = ∅`).
    pub fn new(index: &'a ActivationIndex) -> Self {
        Self {
            index,
            covered: Bitset::new(index.num_nodes()),
            seeds: Vec::new(),
        }
    }

    /// The activation index this state tracks.
    pub fn index(&self) -> &'a ActivationIndex {
        self.index
    }

    /// `|σ(S)|` of the current seed set.
    pub fn covered_count(&self) -> usize {
        self.covered.count_ones()
    }

    /// Current seed set (in insertion order).
    pub fn seeds(&self) -> &[u32] {
        &self.seeds
    }

    /// True if `v` is activated by the current seed set.
    pub fn is_covered(&self, v: u32) -> bool {
        self.covered.contains(v as usize)
    }

    /// Marginal coverage gain `|σ(S ∪ {u})| - |σ(S)|` (read-only).
    pub fn marginal_gain(&self, u: u32) -> usize {
        self.index
            .activated_by(u as usize)
            .iter()
            .filter(|&&v| !self.covered.contains(v as usize))
            .count()
    }

    /// Appends the nodes `σ(S ∪ {u}) \ σ(S)` to `out` (cleared first) —
    /// the allocation-free form of [`CoverageState::newly_activated`] the
    /// greedy hot loop uses with a reused scratch buffer. Returns the
    /// count appended.
    pub fn newly_activated_into(&self, u: u32, out: &mut Vec<u32>) -> usize {
        out.clear();
        out.extend(
            self.index
                .activated_by(u as usize)
                .iter()
                .copied()
                .filter(|&v| !self.covered.contains(v as usize)),
        );
        out.len()
    }

    /// The nodes `σ(S ∪ {u}) \ σ(S)` that adding `u` would newly activate.
    pub fn newly_activated(&self, u: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.newly_activated_into(u, &mut out);
        out
    }

    /// Adds seed `u` whose newly activated nodes were already computed via
    /// [`CoverageState::newly_activated_into`] — `fresh` must be exactly
    /// that set for the current state, or counts will drift.
    pub fn add_seed_from(&mut self, u: u32, fresh: &[u32]) {
        for &v in fresh {
            self.covered.insert(v as usize);
        }
        self.seeds.push(u);
    }

    /// Adds seed `u`, returning the newly activated nodes.
    pub fn add_seed(&mut self, u: u32) -> Vec<u32> {
        let fresh = self.newly_activated(u);
        self.add_seed_from(u, &fresh);
        fresh
    }

    /// Snapshot of `σ(S)` as a sorted vector.
    pub fn sigma(&self) -> Vec<u32> {
        self.covered.iter_ones().map(|v| v as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ThetaRule;
    use crate::walk::InfluenceRows;
    use grain_graph::{generators, transition_matrix, TransitionKind};

    fn index(n: usize, m: usize, seed: u64, theta: f32) -> ActivationIndex {
        let g = generators::erdos_renyi_gnm(n, m, seed);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let rows = InfluenceRows::compute(&t, 2, 0.0);
        ActivationIndex::build(&rows, ThetaRule::FixedAbsolute(theta), 1)
    }

    #[test]
    fn incremental_matches_batch_sigma() {
        let idx = index(50, 120, 1, 0.05);
        let mut st = CoverageState::new(&idx);
        let seeds = [3u32, 17, 29, 42];
        for &s in &seeds {
            st.add_seed(s);
        }
        assert_eq!(st.sigma(), idx.sigma(&seeds));
        assert_eq!(st.covered_count(), idx.sigma_size(&seeds));
    }

    #[test]
    fn marginal_gain_matches_difference() {
        let idx = index(40, 90, 2, 0.05);
        let mut st = CoverageState::new(&idx);
        st.add_seed(5);
        st.add_seed(11);
        let base = idx.sigma_size(&[5, 11]);
        for u in 0..40u32 {
            let want = idx.sigma_size(&[5, 11, u]) - base;
            assert_eq!(st.marginal_gain(u), want, "candidate {u}");
        }
    }

    #[test]
    fn adding_same_seed_twice_gains_nothing() {
        let idx = index(30, 60, 3, 0.05);
        let mut st = CoverageState::new(&idx);
        let first = st.add_seed(7).len();
        let second = st.add_seed(7).len();
        assert!(first >= second);
        assert_eq!(second, 0);
    }

    #[test]
    fn gains_are_diminishing_along_any_chain() {
        // Submodularity in action: adding u later never helps more.
        let idx = index(45, 110, 4, 0.05);
        let probe = 21u32;
        let mut st = CoverageState::new(&idx);
        let mut last = st.marginal_gain(probe);
        for s in [2u32, 9, 30, 41] {
            st.add_seed(s);
            let now = st.marginal_gain(probe);
            assert!(now <= last, "gain grew from {last} to {now}");
            last = now;
        }
    }

    #[test]
    fn empty_state_covers_nothing() {
        let idx = index(20, 40, 5, 0.1);
        let st = CoverageState::new(&idx);
        assert_eq!(st.covered_count(), 0);
        assert!(st.sigma().is_empty());
        assert!(st.seeds().is_empty());
    }

    #[test]
    fn scratch_buffer_variant_matches_allocating_path() {
        let idx = index(60, 150, 6, 0.05);
        let mut alloc = CoverageState::new(&idx);
        let mut scratch_state = CoverageState::new(&idx);
        let mut scratch = Vec::new();
        for s in [4u32, 31, 8, 55, 4] {
            let fresh = alloc.newly_activated(s);
            let n = scratch_state.newly_activated_into(s, &mut scratch);
            assert_eq!(n, fresh.len());
            assert_eq!(scratch, fresh, "seed {s}");
            alloc.add_seed(s);
            scratch_state.add_seed_from(s, &scratch);
            assert_eq!(alloc.covered_count(), scratch_state.covered_count());
            assert_eq!(alloc.sigma(), scratch_state.sigma());
        }
    }

    #[test]
    fn bitset_coverage_matches_vec_bool_oracle() {
        // The packed-bitset covered flags replaced a Vec<bool>; replay a
        // seed sequence against that representation bit for bit.
        let idx = index(80, 220, 7, 0.03);
        let mut st = CoverageState::new(&idx);
        let mut oracle = vec![false; idx.num_nodes()];
        for s in [12u32, 3, 77, 40, 12, 63] {
            for &v in idx.activated_by(s as usize) {
                oracle[v as usize] = true;
            }
            st.add_seed(s);
            for (v, &want) in oracle.iter().enumerate() {
                assert_eq!(st.is_covered(v as u32), want, "node {v} after seed {s}");
            }
            let want_count = oracle.iter().filter(|&&b| b).count();
            assert_eq!(st.covered_count(), want_count);
            let want_sigma: Vec<u32> = (0..idx.num_nodes() as u32)
                .filter(|&v| oracle[v as usize])
                .collect();
            assert_eq!(st.sigma(), want_sigma);
        }
    }
}
