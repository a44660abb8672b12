//! The Diversified Influence Maximization objective (Eq. 11).
//!
//! ```text
//! F(S) = w_mag · |σ(S)| / σ̂  +  γ · D(S) / D̂
//! ```
//!
//! `w_mag ∈ {0, 1}` and the *scope* of the diversity argument (activated
//! nodes vs. raw seeds) encode the Table 3 ablations; the full Grain
//! objective uses `w_mag = 1` and the activated scope.

use crate::diversity::DiversityFunction;
use grain_influence::{ActivationIndex, CoverageState};

/// What the diversity function is fed when a seed is added.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiversityScope {
    /// Newly activated nodes `σ(S ∪ {u}) \ σ(S)` — Grain's formulation.
    Activated,
    /// The seed itself — the classic i.i.d.-style coverage of \[45\].
    Seeds,
}

/// A set objective maximizable by greedy/CELF.
pub trait MarginalObjective {
    /// `F(S ∪ {u}) − F(S)` without mutating state.
    fn marginal_gain(&mut self, candidate: u32) -> f64;

    /// Adds `u` to `S`.
    fn add(&mut self, candidate: u32);

    /// Current `F(S)`.
    fn value(&self) -> f64;
}

/// The DIM objective with incremental coverage and diversity state.
pub struct DimObjective<'a, D: DiversityFunction> {
    coverage: CoverageState<'a>,
    diversity: D,
    gamma: f64,
    magnitude_weight: f64,
    scope: DiversityScope,
    sigma_hat: f64,
    d_hat: f64,
    /// Reused batch buffer for the diversity argument (newly activated
    /// nodes or the seed itself). Owning it here keeps every greedy
    /// marginal-gain evaluation allocation-free — at n=1e6 the hot loop
    /// runs millions of evaluations per selection.
    scratch: Vec<u32>,
}

impl<'a, D: DiversityFunction> DimObjective<'a, D> {
    /// Full Grain objective (`w_mag = 1`, activated scope).
    pub fn new(index: &'a ActivationIndex, diversity: D, gamma: f64) -> Self {
        Self::with_variant(index, diversity, gamma, 1.0, DiversityScope::Activated)
    }

    /// Fully parameterized constructor for ablations.
    pub fn with_variant(
        index: &'a ActivationIndex,
        diversity: D,
        gamma: f64,
        magnitude_weight: f64,
        scope: DiversityScope,
    ) -> Self {
        let sigma_hat = index.max_coverage_bound().max(1) as f64;
        let d_hat = diversity.upper_bound().max(f64::MIN_POSITIVE);
        Self {
            coverage: CoverageState::new(index),
            diversity,
            gamma,
            magnitude_weight,
            scope,
            sigma_hat,
            d_hat,
            scratch: Vec::new(),
        }
    }

    /// `|σ(S)|` of the current seed set.
    pub fn sigma_size(&self) -> usize {
        self.coverage.covered_count()
    }

    /// Current activated set, sorted.
    pub fn sigma(&self) -> Vec<u32> {
        self.coverage.sigma()
    }

    /// Current (unnormalized) diversity value `D(S)`.
    pub fn diversity_value(&self) -> f64 {
        self.diversity.value()
    }

    /// The seeds selected so far, in pick order.
    pub fn seeds(&self) -> &[u32] {
        self.coverage.seeds()
    }

    /// Normalization constant `σ̂`.
    pub fn sigma_hat(&self) -> f64 {
        self.sigma_hat
    }

    /// Normalization constant `D̂`.
    pub fn d_hat(&self) -> f64 {
        self.d_hat
    }

    /// Fills [`Self::scratch`] with the diversity argument for `candidate`
    /// under the configured scope, returning the newly-activated count when
    /// the scope computes it (so magnitude can reuse it without a second
    /// pass over `act[candidate]`).
    fn fill_diversity_batch(&mut self, candidate: u32) -> Option<usize> {
        match self.scope {
            DiversityScope::Activated => Some(
                self.coverage
                    .newly_activated_into(candidate, &mut self.scratch),
            ),
            DiversityScope::Seeds => {
                self.scratch.clear();
                self.scratch.push(candidate);
                None
            }
        }
    }
}

impl<'a, D: DiversityFunction> MarginalObjective for DimObjective<'a, D> {
    fn marginal_gain(&mut self, candidate: u32) -> f64 {
        let mut coverage_gain = None;
        let div = if self.gamma > 0.0 {
            coverage_gain = self.fill_diversity_batch(candidate);
            self.gamma * self.diversity.marginal_gain(&self.scratch) / self.d_hat
        } else {
            0.0
        };
        if self.magnitude_weight > 0.0 {
            let count = coverage_gain.unwrap_or_else(|| self.coverage.marginal_gain(candidate));
            self.magnitude_weight * count as f64 / self.sigma_hat + div
        } else {
            div
        }
    }

    fn add(&mut self, candidate: u32) {
        self.fill_diversity_batch(candidate);
        if self.gamma > 0.0 {
            self.diversity.commit(&self.scratch);
        }
        if self.scope == DiversityScope::Seeds {
            // The scratch holds the seed, not the activation delta; coverage
            // still needs the latter.
            self.coverage
                .newly_activated_into(candidate, &mut self.scratch);
        }
        self.coverage.add_seed_from(candidate, &self.scratch);
    }

    fn value(&self) -> f64 {
        self.magnitude_weight * self.coverage.covered_count() as f64 / self.sigma_hat
            + self.gamma * self.diversity.value() / self.d_hat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diversity::{BallDiversity, NullDiversity};
    use grain_graph::{generators, transition_matrix, TransitionKind};
    use grain_influence::{InfluenceRows, ThetaRule};
    use grain_linalg::{distance, DenseMatrix};

    fn setup(n: usize, seed: u64) -> (ActivationIndex, DenseMatrix) {
        let g = generators::erdos_renyi_gnm(n, n * 3, seed);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let rows = InfluenceRows::compute(&t, 2, 0.0);
        let idx = ActivationIndex::build(&rows, ThetaRule::FixedAbsolute(0.05), 1);
        let feats = DenseMatrix::from_vec(
            n,
            4,
            (0..n * 4)
                .map(|i| ((i * 31 % 17) as f32) * 0.1 + 0.01)
                .collect(),
        );
        let emb = distance::normalized_embedding(&feats, 1);
        (idx, emb)
    }

    #[test]
    fn marginal_gain_matches_add_delta() {
        let (idx, emb) = setup(40, 1);
        let div = BallDiversity::new(&emb, 0.05);
        let mut obj = DimObjective::new(&idx, div, 1.0);
        for c in [3u32, 17, 29] {
            let before = obj.value();
            let gain = obj.marginal_gain(c);
            obj.add(c);
            assert!(
                (obj.value() - before - gain).abs() < 1e-9,
                "gain mismatch at {c}: {} vs {}",
                obj.value() - before,
                gain
            );
        }
    }

    #[test]
    fn null_diversity_reduces_to_coverage() {
        let (idx, _) = setup(30, 2);
        let mut obj = DimObjective::new(&idx, NullDiversity, 0.0);
        let g = obj.marginal_gain(5);
        let cov_gain = idx.sigma_size(&[5]) as f64 / idx.max_coverage_bound() as f64;
        assert!((g - cov_gain).abs() < 1e-12);
    }

    #[test]
    fn no_magnitude_variant_ignores_coverage() {
        let (idx, emb) = setup(30, 3);
        let div = BallDiversity::new(&emb, 0.1);
        let mut obj = DimObjective::with_variant(&idx, div, 1.0, 0.0, DiversityScope::Seeds);
        obj.add(2);
        // Magnitude weight 0: value only reflects diversity.
        assert!(obj.value() > 0.0);
        assert!(obj.sigma_size() > 0); // coverage still tracked internally
        let div_term = obj.diversity_value() / obj.d_hat();
        assert!((obj.value() - div_term).abs() < 1e-12);
    }

    #[test]
    fn value_is_monotone_under_adds() {
        let (idx, emb) = setup(50, 4);
        let div = BallDiversity::new(&emb, 0.05);
        let mut obj = DimObjective::new(&idx, div, 1.0);
        let mut last = obj.value();
        for c in [1u32, 8, 21, 33, 47] {
            obj.add(c);
            assert!(obj.value() >= last - 1e-12);
            last = obj.value();
        }
    }

    #[test]
    fn value_stays_bounded_by_one_plus_gamma() {
        let (idx, emb) = setup(25, 5);
        let div = BallDiversity::new(&emb, 0.2);
        let gamma = 1.0;
        let mut obj = DimObjective::new(&idx, div, gamma);
        for c in 0..25u32 {
            obj.add(c);
        }
        assert!(obj.value() <= 1.0 + gamma + 1e-9);
    }

    #[test]
    fn seeds_scope_feeds_seed_itself() {
        let (idx, emb) = setup(20, 6);
        let div = BallDiversity::new(&emb, 0.3);
        let mut classic = DimObjective::with_variant(&idx, div, 1.0, 1.0, DiversityScope::Seeds);
        // Even a seed that activates nothing still contributes its own ball.
        let quiet: u32 = (0..20u32)
            .min_by_key(|&u| idx.activated_by(u as usize).len())
            .unwrap();
        let gain = classic.marginal_gain(quiet);
        assert!(gain > 0.0);
    }
}
