//! The one-shot Grain selector: a thin wrapper over [`SelectionEngine`].
//!
//! Wires together the full §3 stack:
//!
//! 1. decoupled propagation `X^(k)` (Eq. 6, via `grain-prop`),
//! 2. influence rows under the kernel's Jacobian (Definition 3.1),
//! 3. activation index at threshold `θ` (Definition 3.2),
//! 4. diversity function over the normalized `X^(k)` space (§3.3),
//! 5. greedy / CELF maximization of the DIM objective (Algorithm 1),
//!
//! with optional §3.4 candidate pruning. One call = one labeling campaign:
//! Grain is model-free and oracle-free, so the whole budget is selected in
//! a single pass with no retraining in the loop. Every stage runs inside a
//! [`SelectionEngine`]; callers answering many selections over one
//! corpus (budget sweeps, sensitivity scans, serving) should hold a warm
//! engine — see [`GrainSelector::engine`] — or go through
//! [`crate::service::GrainService`], the pooled request/response front
//! door.
//!
//! The pre-service positional one-shots (`GrainSelector::select`,
//! `GrainSelector::activation_index`) spent their one deprecation release
//! as bit-identical shims and are now **removed**; [`GrainSelector`]
//! remains as a thin, validated config holder whose
//! [`GrainSelector::engine`] constructor is the supported path into the
//! staged pipeline. Use [`SelectionEngine::activation_index`] on a warm
//! engine where the removed index shim was used.

use crate::cancel::CancelCause;
use crate::config::GrainConfig;
use crate::engine::SelectionEngine;
use crate::error::GrainResult;
use grain_graph::Graph;
use grain_linalg::DenseMatrix;
use std::time::Duration;

/// Wall-clock breakdown of one selection run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelectionTimings {
    /// Feature propagation `X^(k)`.
    pub propagation: Duration,
    /// Influence-row computation.
    pub influence: Duration,
    /// Activation-index inversion + diversity precomputation.
    pub indexing: Duration,
    /// Greedy maximization loop.
    pub greedy: Duration,
    /// End-to-end total.
    pub total: Duration,
}

/// Whether a selection ran to its full budget or stopped early at a
/// cooperative cancellation checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Completion {
    /// The greedy loop ran to its full budget (or exhausted candidates).
    #[default]
    Complete,
    /// The run was cancelled mid-greedy and degraded to the prefix
    /// selected so far (requests opt in via
    /// [`OnDeadline::Partial`](crate::cancel::OnDeadline)). Submodularity
    /// makes the prefix a valid anytime answer: it is byte-for-byte a
    /// prefix of what the uncancelled run would have selected and carries
    /// greedy's `(1 - 1/e)` guarantee at its own (smaller) budget.
    Partial {
        /// Why the run stopped early.
        cause: CancelCause,
    },
}

/// Result of a Grain selection run.
#[derive(Clone, Debug)]
pub struct SelectionOutcome {
    /// Selected nodes in pick order (`|S| <= budget`).
    pub selected: Vec<u32>,
    /// `F(S)` after each pick.
    pub objective_trace: Vec<f64>,
    /// Final activated set `σ(S)`, sorted.
    pub sigma: Vec<u32>,
    /// Final unnormalized diversity value `D(S)`.
    pub diversity_value: f64,
    /// Marginal-gain evaluations spent (CELF efficiency metric).
    pub evaluations: usize,
    /// Candidate count after §3.4 pruning.
    pub candidates_after_prune: usize,
    /// Wall-clock breakdown.
    pub timings: SelectionTimings,
    /// Whether the run completed or degraded to an anytime prefix.
    pub completion: Completion,
    /// The picks were replayed from the engine's greedy trace cache
    /// instead of a greedy run. Every other field is bit-identical either
    /// way except `timings`; `evaluations` counts the replayed run's.
    pub replayed: bool,
}

impl SelectionOutcome {
    /// True if this outcome is an anytime prefix from a cancelled run
    /// rather than the full-budget selection.
    pub fn is_partial(&self) -> bool {
        matches!(self.completion, Completion::Partial { .. })
    }

    /// Budget-free stopping rule: the length of the selection prefix whose
    /// picks each improved `F(S)` by at least `min_gain`.
    ///
    /// Because greedy gains are nonincreasing (submodularity), once a pick
    /// falls below `min_gain` every later pick does too — so callers can
    /// over-provision the budget and truncate:
    /// `&outcome.selected[..outcome.effective_budget(1e-4)]`.
    pub fn effective_budget(&self, min_gain: f64) -> usize {
        let mut prev = 0.0f64;
        for (i, &value) in self.objective_trace.iter().enumerate() {
            if value - prev < min_gain {
                return i;
            }
            prev = value;
        }
        self.objective_trace.len()
    }

    /// The selection prefix chosen by [`SelectionOutcome::effective_budget`].
    pub fn effective_selection(&self, min_gain: f64) -> &[u32] {
        &self.selected[..self.effective_budget(min_gain)]
    }
}

/// Grain node selector (the paper's contribution, ready to run).
#[derive(Clone, Debug, Default)]
pub struct GrainSelector {
    config: GrainConfig,
}

impl GrainSelector {
    /// Selector with an explicit configuration, rejecting configurations
    /// that fail [`GrainConfig::validate`].
    pub fn new(config: GrainConfig) -> GrainResult<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Selector with an explicit configuration, skipping validation.
    ///
    /// Intended for constants already known to be valid;
    /// [`GrainSelector::engine`] still validates when it builds the
    /// engine and reports an invalid configuration as a typed error.
    #[must_use]
    pub fn new_unchecked(config: GrainConfig) -> Self {
        Self { config }
    }

    /// The paper's "Grain (ball-D)" selector with Appendix A.4 defaults.
    #[must_use]
    pub fn ball_d() -> Self {
        Self::new_unchecked(GrainConfig::ball_d())
    }

    /// The paper's "Grain (NN-D)" selector with Appendix A.4 defaults.
    #[must_use]
    pub fn nn_d() -> Self {
        Self::new_unchecked(GrainConfig::nn_d())
    }

    /// The active configuration.
    pub fn config(&self) -> &GrainConfig {
        &self.config
    }

    /// A warm [`SelectionEngine`] over `graph`/`features` with this
    /// selector's configuration — the amortized path for repeated
    /// selections on one corpus. The corpus is cloned into the engine;
    /// use [`SelectionEngine::over`] with `Arc` handles to share instead.
    pub fn engine(&self, graph: &Graph, features: &DenseMatrix) -> GrainResult<SelectionEngine> {
        SelectionEngine::new(self.config, graph, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GrainVariant, GreedyAlgorithm, PruneStrategy};
    use grain_graph::generators::{self, SbmConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One-shot selection through a fresh engine.
    fn one_shot(
        config: GrainConfig,
        g: &Graph,
        x: &DenseMatrix,
        candidates: &[u32],
        budget: usize,
    ) -> SelectionOutcome {
        SelectionEngine::new(config, g, x)
            .unwrap()
            .select(candidates, budget)
    }

    fn dataset(seed: u64) -> (Graph, DenseMatrix) {
        let cfg = SbmConfig {
            block_sizes: vec![50, 50, 50],
            mean_degree_in: 6.0,
            mean_degree_out: 1.0,
            degree_exponent: 0.0,
        };
        let (g, labels) = generators::degree_corrected_sbm(&cfg, seed);
        // Class-correlated features + noise.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let d = 8usize;
        let mut x = DenseMatrix::zeros(g.num_nodes(), d);
        for (v, &label) in labels.iter().enumerate() {
            let c = label as usize;
            let row = x.row_mut(v);
            for (j, value) in row.iter_mut().enumerate() {
                let base = if j % 3 == c { 1.0 } else { 0.1 };
                *value = base + rng.random::<f32>() * 0.2;
            }
        }
        (g, x)
    }

    #[test]
    fn selects_exactly_budget_nodes() {
        let (g, x) = dataset(1);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let out = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 12);
        assert_eq!(out.selected.len(), 12);
        // No duplicates.
        let mut uniq = out.selected.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 12);
    }

    #[test]
    fn selector_engine_constructor_matches_direct_engine() {
        // The facade's engine constructor must be a pure pass-through.
        let (g, x) = dataset(1);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut via_facade = GrainSelector::ball_d().engine(&g, &x).unwrap();
        let facade = via_facade.select(&candidates, 12);
        let direct = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 12);
        assert_eq!(facade.selected, direct.selected);
        assert_eq!(facade.sigma, direct.sigma);
        assert_eq!(facade.objective_trace, direct.objective_trace);
    }

    #[test]
    fn objective_trace_is_monotone() {
        let (g, x) = dataset(2);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let out = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 10);
        for w in out.objective_trace.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "trace decreased: {:?}",
                out.objective_trace
            );
        }
    }

    #[test]
    fn plain_and_lazy_select_identical_sets() {
        let (g, x) = dataset(3);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut cfg = GrainConfig::ball_d();
        cfg.algorithm = GreedyAlgorithm::Plain;
        let plain = one_shot(cfg, &g, &x, &candidates, 8);
        cfg.algorithm = GreedyAlgorithm::Lazy;
        let lazy = one_shot(cfg, &g, &x, &candidates, 8);
        assert_eq!(plain.selected, lazy.selected);
        assert!(lazy.evaluations <= plain.evaluations);
    }

    #[test]
    fn grain_beats_random_on_sigma_coverage() {
        let (g, x) = dataset(4);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let out = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 10);
        // Random baselines: mean sigma over several draws.
        let idx = SelectionEngine::new(GrainConfig::ball_d(), &g, &x)
            .unwrap()
            .activation_index()
            .clone();
        let mut rng = StdRng::seed_from_u64(99);
        let mut random_sigma = 0.0;
        let trials = 20;
        for _ in 0..trials {
            let mut pick: Vec<u32> = Vec::new();
            while pick.len() < 10 {
                let c = rng.random_range(0..g.num_nodes() as u32);
                if !pick.contains(&c) {
                    pick.push(c);
                }
            }
            random_sigma += idx.sigma_size(&pick) as f64;
        }
        random_sigma /= trials as f64;
        assert!(
            out.sigma.len() as f64 > random_sigma,
            "grain sigma {} <= random mean {random_sigma}",
            out.sigma.len()
        );
    }

    #[test]
    fn candidates_restrict_selection() {
        let (g, x) = dataset(5);
        let candidates: Vec<u32> = (0..30u32).collect();
        let out = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 5);
        assert!(out.selected.iter().all(|&s| s < 30));
    }

    #[test]
    fn pruning_shrinks_pool_but_still_selects() {
        let (g, x) = dataset(6);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut cfg = GrainConfig::ball_d();
        cfg.prune = Some(PruneStrategy::Degree { keep_fraction: 0.2 });
        let out = one_shot(cfg, &g, &x, &candidates, 6);
        assert_eq!(out.candidates_after_prune, 30);
        assert_eq!(out.selected.len(), 6);
    }

    #[test]
    fn all_variants_run() {
        let (g, x) = dataset(7);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        for variant in [
            GrainVariant::Full,
            GrainVariant::NoDiversity,
            GrainVariant::NoMagnitude,
            GrainVariant::ClassicCoverage,
        ] {
            let out = one_shot(GrainConfig::ablation(variant), &g, &x, &candidates, 5);
            assert_eq!(out.selected.len(), 5, "variant {variant:?}");
        }
    }

    #[test]
    fn nn_d_runs_and_differs_from_ball_d() {
        // The two diversity functions value spread differently; across a
        // few random graphs at least one selection must diverge (on any
        // single instance they may legitimately coincide).
        let mut diverged = false;
        for seed in 8..12 {
            let (g, x) = dataset(seed);
            let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
            let ball = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 10);
            let nn = one_shot(GrainConfig::nn_d(), &g, &x, &candidates, 10);
            assert_eq!(nn.selected.len(), 10);
            assert!(nn.diversity_value > 0.0);
            if ball.selected != nn.selected {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "ball-D and NN-D agreed on every instance");
    }

    #[test]
    fn effective_budget_truncates_flat_tail() {
        let (g, x) = dataset(10);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        // Over-provision: ask for far more nodes than the objective needs.
        let out = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 120);
        let effective = out.effective_budget(1e-3);
        assert!(effective <= out.selected.len());
        assert!(effective > 0);
        assert_eq!(out.effective_selection(1e-3).len(), effective);
        // A stricter threshold can only shorten the prefix.
        assert!(out.effective_budget(1e-2) <= effective);
        // An impossible threshold keeps nothing.
        assert_eq!(out.effective_budget(f64::INFINITY), 0);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (g, x) = dataset(9);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let a = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 7);
        let b = one_shot(GrainConfig::ball_d(), &g, &x, &candidates, 7);
        assert_eq!(a.selected, b.selected);
    }
}
