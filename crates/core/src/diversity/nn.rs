//! Nearest-neighbor diversity — Definition 3.4.
//!
//! `D_NN(S) = Σ_{w ∈ V} (d_max − min_{v ∈ σ(S)} d(X^(k)_w, X^(k)_v))`:
//! every node contributes how close its nearest *activated* node is.
//! The incremental state is the per-node minimum distance array `mind`;
//! a batch of newly activated nodes can only lower entries, and the gain is
//! the total reduction. With σ(S) = ∅ the minimum is taken as `d_max`
//! so `D_NN(∅) = 0`.

use super::DiversityFunction;
use grain_linalg::{distance, DenseMatrix};
use std::sync::Arc;

/// Incremental nearest-activated-neighbor diversity.
///
/// The embedding is shared (`Arc`), so per-selection instances — the warm
/// `SelectionEngine` builds one per `select` call — copy only the `mind`
/// state array, not the `n × d` matrix.
#[derive(Clone, Debug)]
pub struct NnDiversity {
    /// L2-normalized embedding rows.
    embedding: Arc<DenseMatrix>,
    /// Current `min_{v in σ(S)} d(w, v)` per node `w`.
    mind: Vec<f32>,
    /// `d_max` constant.
    dmax: f32,
    /// Running `D_NN` value.
    value: f64,
    /// Workers for a marginal-gain evaluation (`0` = auto).
    threads: usize,
}

impl NnDiversity {
    /// Builds from an L2-normalized embedding.
    ///
    /// `d_max` is computed exactly up to `exact_limit` rows and estimated by
    /// anchor sampling beyond (see
    /// [`grain_linalg::distance::max_pairwise_distance`]).
    pub fn new(embedding: DenseMatrix, exact_limit: usize) -> Self {
        let dmax = distance::max_pairwise_distance(&embedding, exact_limit, 0);
        Self::from_parts(Arc::new(embedding), dmax, 0)
    }

    /// Builds from a shared embedding and precomputed `d_max` — the warm
    /// engine path, which caches both across selections instead of copying
    /// the matrix and rescanning pairs. Marginal gains run over `threads`
    /// workers (`0` = auto); each node's reduction is computed alone and
    /// summed in node order, so any count gives the same bits.
    pub fn from_parts(embedding: Arc<DenseMatrix>, dmax: f32, threads: usize) -> Self {
        let dmax = dmax.max(f32::EPSILON);
        let n = embedding.rows();
        Self {
            embedding,
            mind: vec![dmax; n],
            dmax,
            value: 0.0,
            threads,
        }
    }

    /// The `d_max` normalization constant in use.
    pub fn dmax(&self) -> f32 {
        self.dmax
    }

    /// Current nearest-activated distance of node `w`.
    pub fn min_distance(&self, w: usize) -> f32 {
        self.mind[w]
    }

    /// Distance reduction at node `w` if `batch` joined σ(S).
    fn reduction_at(&self, w: usize, batch: &[u32]) -> f64 {
        let cur = self.mind[w];
        if cur <= 0.0 {
            return 0.0;
        }
        let row = self.embedding.row(w);
        let mut best = cur;
        for &v in batch {
            let d = distance::grain_distance(row, self.embedding.row(v as usize));
            if d < best {
                best = d;
                if best <= 0.0 {
                    break;
                }
            }
        }
        (cur - best) as f64
    }
}

impl DiversityFunction for NnDiversity {
    fn marginal_gain(&mut self, newly_activated: &[u32]) -> f64 {
        if newly_activated.is_empty() {
            return 0.0;
        }
        let n = self.embedding.rows();
        // Parallel over nodes: the reduction sum is independent per node.
        let gains = grain_linalg::par::map(
            self.threads,
            n,
            64,
            || (),
            |(), w| self.reduction_at(w, newly_activated),
        );
        gains.into_iter().sum()
    }

    fn commit(&mut self, newly_activated: &[u32]) {
        if newly_activated.is_empty() {
            return;
        }
        let n = self.embedding.rows();
        let mut gained = 0.0f64;
        for w in 0..n {
            let cur = self.mind[w];
            if cur <= 0.0 {
                continue;
            }
            let row = self.embedding.row(w);
            let mut best = cur;
            for &v in newly_activated {
                let d = distance::grain_distance(row, self.embedding.row(v as usize));
                if d < best {
                    best = d;
                }
            }
            if best < cur {
                gained += (cur - best) as f64;
                self.mind[w] = best;
            }
        }
        self.value += gained;
    }

    fn value(&self) -> f64 {
        self.value
    }

    fn upper_bound(&self) -> f64 {
        // All distances driven to zero: D̂ = n · d_max.
        self.embedding.rows() as f64 * self.dmax as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_linalg::ops;

    fn embedding() -> DenseMatrix {
        let mut m = DenseMatrix::from_vec(4, 2, vec![1.0, 0.0, 0.9, 0.43, 0.0, 1.0, -1.0, 0.0]);
        ops::l2_normalize_rows(&mut m, 1);
        m
    }

    #[test]
    fn empty_sigma_has_zero_diversity() {
        let d = NnDiversity::new(embedding(), 100);
        assert_eq!(d.value(), 0.0);
        assert!(d.dmax() > 0.99); // antipodal pair present
    }

    #[test]
    fn marginal_equals_commit_delta() {
        let mut d = NnDiversity::new(embedding(), 100);
        let batch = [0u32];
        let gain = d.marginal_gain(&batch);
        d.commit(&batch);
        assert!((d.value() - gain).abs() < 1e-6);
        let batch2 = [2u32];
        let gain2 = d.marginal_gain(&batch2);
        d.commit(&batch2);
        assert!((d.value() - gain - gain2).abs() < 1e-6);
    }

    #[test]
    fn activating_everything_approaches_upper_bound_shape() {
        let mut d = NnDiversity::new(embedding(), 100);
        d.commit(&[0, 1, 2, 3]);
        // Every node now has an activated node at distance 0 (itself).
        assert!((d.value() - 4.0 * d.dmax() as f64).abs() < 1e-5);
        assert!((d.upper_bound() - 4.0 * d.dmax() as f64).abs() < 1e-9);
    }

    #[test]
    fn far_node_adds_more_diversity_than_near_duplicate() {
        let d = NnDiversity::new(embedding(), 100);
        let mut d2 = d.clone();
        d2.commit(&[0]);
        // Node 1 is close to 0; node 3 is antipodal.
        let near = d2.marginal_gain(&[1]);
        let far = d2.marginal_gain(&[3]);
        assert!(far > near, "far gain {far} <= near gain {near}");
    }

    #[test]
    fn diminishing_returns_for_repeated_batches() {
        let mut d = NnDiversity::new(embedding(), 100);
        let g1 = d.marginal_gain(&[1]);
        d.commit(&[0]);
        let g2 = d.marginal_gain(&[1]);
        assert!(g2 <= g1 + 1e-9);
    }

    #[test]
    fn min_distance_tracks_committed_nodes() {
        let mut d = NnDiversity::new(embedding(), 100);
        d.commit(&[2]);
        assert_eq!(d.min_distance(2), 0.0);
        assert!(d.min_distance(0) > 0.0);
    }
}
