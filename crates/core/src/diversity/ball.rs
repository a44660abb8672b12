//! Coverage-based (ball) diversity — Definition 3.6.
//!
//! Each activated node `u` covers the radius-`r` ball
//! `G_u = {w : d(X^(k)_u, X^(k)_w) <= r}` in the normalized aggregated
//! feature space; `D_ball(S) = |∪_{u ∈ σ(S)} G_u|`. Ball membership lists
//! are precomputed once; the incremental state is a covered bitmap, exactly
//! like the influence coverage itself (the influence function is the `r=0`
//! special case, as the paper notes).

use super::DiversityFunction;
use grain_linalg::distance::{self, BallLists};
use grain_linalg::{Bitset, DenseMatrix};
use std::sync::Arc;

/// Incremental ball-coverage diversity.
///
/// Ball membership lists are shared (`Arc`), so per-selection instances —
/// the warm `SelectionEngine` builds one per `select` call — copy only the
/// covered bitmap, not the precompute. Both the covered flags and the
/// batch-gain scratch are packed u64 bitsets, and the scratch is undone
/// through a touched-index list, so a marginal-gain evaluation allocates
/// nothing and touches memory proportional to the batch's ball mass.
#[derive(Clone, Debug)]
pub struct BallDiversity {
    /// `balls[u]` = nodes within radius `r` of `u` (sorted, includes `u`).
    balls: Arc<BallLists>,
    covered: Bitset,
    upper_bound: usize,
    /// Scratch for multi-ball batch gains: nodes already counted in the
    /// current evaluation. Always all-clear between calls.
    visited: Bitset,
    /// Which `visited` bits the current evaluation set (to undo them).
    touched: Vec<u32>,
}

impl BallDiversity {
    /// Precomputes ball membership from an L2-normalized embedding.
    ///
    /// `embedding` must contain L2-normalized rows of `X^(k)` (use
    /// [`grain_linalg::distance::normalized_embedding`]).
    pub fn new(embedding: &DenseMatrix, radius: f32) -> Self {
        let balls = distance::radius_neighbors(embedding, radius, 0);
        Self::from_shared(Arc::new(balls), embedding.rows())
    }

    /// Builds from shared ball membership lists without copying them.
    pub fn from_shared(balls: Arc<BallLists>, n: usize) -> Self {
        let upper_bound = Self::union_size(&balls, n);
        Self::from_shared_with_bound(balls, n, upper_bound)
    }

    /// `|∪_u G_u|` of the given lists — the D̂ normalization constant.
    /// With self-inclusive balls this is `n`, but compute it honestly in
    /// case custom balls omit members.
    pub fn union_size(balls: &BallLists, n: usize) -> usize {
        let mut seen = vec![false; n];
        for &w in balls.members() {
            seen[w as usize] = true;
        }
        seen.iter().filter(|&&b| b).count()
    }

    /// Builds from shared lists and their precomputed [`Self::union_size`]
    /// — the warm-engine path, which touches no list at construction.
    pub fn from_shared_with_bound(balls: Arc<BallLists>, n: usize, upper_bound: usize) -> Self {
        Self {
            balls,
            covered: Bitset::new(n),
            upper_bound,
            visited: Bitset::new(n),
            touched: Vec::new(),
        }
    }

    /// Ball membership of node `u`.
    pub fn ball(&self, u: usize) -> &[u32] {
        self.balls.ball(u)
    }

    /// Mean ball size (diagnostic for radius tuning).
    pub fn mean_ball_size(&self) -> f64 {
        if self.balls.is_empty() {
            return 0.0;
        }
        self.balls.members().len() as f64 / self.balls.len() as f64
    }
}

impl DiversityFunction for BallDiversity {
    fn marginal_gain(&mut self, newly_activated: &[u32]) -> f64 {
        // Union gain of the balls of all newly activated nodes. Within one
        // batch the same node may appear in several balls; the `visited`
        // scratch bitset dedupes without allocating, and its touched bits
        // are undone afterwards so the evaluation is observably read-only.
        match newly_activated {
            [] => 0.0,
            [single] => self.balls[*single as usize]
                .iter()
                .filter(|&&w| !self.covered.contains(w as usize))
                .count() as f64,
            many => {
                let mut fresh = 0usize;
                for &u in many {
                    for &w in &self.balls[u as usize] {
                        if !self.covered.contains(w as usize) && self.visited.insert(w as usize) {
                            self.touched.push(w);
                            fresh += 1;
                        }
                    }
                }
                for &w in &self.touched {
                    self.visited.remove(w as usize);
                }
                self.touched.clear();
                fresh as f64
            }
        }
    }

    fn commit(&mut self, newly_activated: &[u32]) {
        for &u in newly_activated {
            for &w in &self.balls[u as usize] {
                self.covered.insert(w as usize);
            }
        }
    }

    fn value(&self) -> f64 {
        self.covered.count_ones() as f64
    }

    fn upper_bound(&self) -> f64 {
        self.upper_bound.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_linalg::ops;

    fn embedding() -> DenseMatrix {
        // Three tight points near (1,0) and one far point near (0,1).
        let mut m =
            DenseMatrix::from_vec(4, 2, vec![1.0, 0.0, 0.999, 0.045, 0.998, 0.063, 0.0, 1.0]);
        ops::l2_normalize_rows(&mut m, 1);
        m
    }

    #[test]
    fn balls_cover_close_points() {
        let d = BallDiversity::new(&embedding(), 0.05);
        assert!(d.ball(0).contains(&1));
        assert!(!d.ball(0).contains(&3));
        assert!(d.ball(3).contains(&3));
    }

    #[test]
    fn marginal_then_commit_matches_value() {
        let mut d = BallDiversity::new(&embedding(), 0.05);
        let g0 = d.marginal_gain(&[0]);
        d.commit(&[0]);
        assert_eq!(d.value(), g0);
        let g3 = d.marginal_gain(&[3]);
        d.commit(&[3]);
        assert_eq!(d.value(), g0 + g3);
    }

    #[test]
    fn batch_gain_dedupes_overlapping_balls() {
        let mut d = BallDiversity::new(&embedding(), 0.05);
        // Nodes 0 and 1 share most of their balls; the batch gain must not
        // double-count.
        let joint = d.marginal_gain(&[0, 1]);
        let g0 = d.marginal_gain(&[0]);
        let g1 = d.marginal_gain(&[1]);
        assert!(joint <= g0 + g1);
        assert!(joint >= g0.max(g1));
    }

    #[test]
    fn commit_is_idempotent() {
        let mut d = BallDiversity::new(&embedding(), 0.05);
        d.commit(&[0]);
        let v = d.value();
        d.commit(&[0]);
        assert_eq!(d.value(), v);
    }

    #[test]
    fn upper_bound_caps_value() {
        let mut d = BallDiversity::new(&embedding(), 0.5);
        d.commit(&[0, 1, 2, 3]);
        assert!(d.value() <= d.upper_bound());
        assert_eq!(d.upper_bound(), 4.0);
    }

    #[test]
    fn radius_zero_reduces_to_influence_special_case() {
        // The paper: |sigma(S)| is D_ball with r = 0 (self-coverage only).
        let d = BallDiversity::new(&embedding(), 0.0);
        for u in 0..4 {
            // With r=0 only (near-)identical rows coincide; here all distinct.
            assert_eq!(d.ball(u).len(), 1, "ball of {u}: {:?}", d.ball(u));
        }
    }

    #[test]
    fn empty_batch_gains_nothing() {
        let mut d = BallDiversity::new(&embedding(), 0.1);
        assert_eq!(d.marginal_gain(&[]), 0.0);
    }

    #[test]
    fn batch_gain_is_repeatable_and_leaves_no_scratch_residue() {
        // The scratch bitset must be fully undone between evaluations, so
        // re-evaluating any batch (including after commits) is stable.
        let mut d = BallDiversity::new(&embedding(), 0.05);
        let first = d.marginal_gain(&[0, 1, 2]);
        let second = d.marginal_gain(&[0, 1, 2]);
        assert_eq!(first, second);
        d.commit(&[3]);
        let after = d.marginal_gain(&[0, 1, 2]);
        assert_eq!(after, d.marginal_gain(&[0, 1, 2]));
        assert!(after <= first);
    }
}
