//! Grain selectors behind the common [`NodeSelector`] trait.
//!
//! The adapters own no pipeline state: every selection runs through a
//! shared [`grain_core::SelectionEngine`] — the context's engine for
//! plain `select`/`select_sweep` calls, or a service-pooled engine handed
//! to [`NodeSelector::select_sweep_with`] — so Grain draws from the same
//! artifact store the baselines smooth their distances on, and a budget
//! sweep pays propagation, influence rows, the activation index, and the
//! diversity precompute exactly once.

use crate::context::SelectionContext;
use crate::traits::NodeSelector;
use grain_core::{GrainConfig, GrainResult, GrainVariant, SelectionEngine, SelectionOutcome};

/// Runs a sweep through `engine` under `config`, recording the last
/// outcome.
///
/// The handed-down engine may be pooled under its config's artifact
/// fingerprint (see [`grain_core::pool::EnginePool`]); re-keying it to
/// a different fingerprint would replace the warm artifacts its pool key
/// serves, and the next request for that key would rebuild them. An
/// adapter whose config shares the engine's
/// fingerprint runs through it (greedy-stage fields are safe to swap);
/// one that does not runs on a private engine over the same corpus
/// handles instead.
fn engine_sweep(
    config: GrainConfig,
    engine: &mut SelectionEngine,
    candidates: &[u32],
    budgets: &[usize],
    last_outcome: Option<&mut Option<SelectionOutcome>>,
) -> Vec<Vec<u32>> {
    if config.artifact_fingerprint() != engine.config().artifact_fingerprint() {
        let mut own = private_engine_like(config, engine);
        return engine_sweep(config, &mut own, candidates, budgets, last_outcome);
    }
    engine
        .set_config(config)
        .expect("adapter configs are validated at construction");
    let mut outcomes = engine.select_budgets(candidates, budgets);
    let selections = outcomes.iter().map(|o| o.selected.clone()).collect();
    if let Some(slot) = last_outcome {
        *slot = outcomes.pop();
    }
    selections
}

/// A private engine over the same corpus handles as `engine` for a config
/// whose artifact fingerprint differs — seeded with the source engine's
/// cached `X^(k)` when the kernels match, so the detour never
/// re-propagates an artifact the source already holds.
fn private_engine_like(config: GrainConfig, engine: &SelectionEngine) -> SelectionEngine {
    let mut own = SelectionEngine::over(config, engine.graph_arc(), engine.features_arc())
        .expect("adapter configs are validated at construction");
    if let Some(propagated) = engine.propagated_if_cached(config.kernel) {
        own.seed_propagated(propagated);
    }
    own
}

/// One selection through the context's engine under `config`.
///
/// Mirrors [`engine_sweep`]'s fingerprint guard: an adapter whose config
/// differs from the context engine's in an *artifact* field runs on a
/// private engine, so the shared single-slot caches every other selector
/// in the lineup draws on are never re-keyed mid-campaign.
fn engine_select(
    config: GrainConfig,
    ctx: &SelectionContext<'_>,
    budget: usize,
) -> SelectionOutcome {
    let mut engine = ctx.engine();
    if config.artifact_fingerprint() != engine.config().artifact_fingerprint() {
        let mut own = private_engine_like(config, &engine);
        return own.select(ctx.candidates(), budget);
    }
    engine
        .set_config(config)
        .expect("adapter configs are validated at construction");
    engine.select(ctx.candidates(), budget)
}

/// Grain (ball-D) adapter.
pub struct GrainBallSelector {
    config: GrainConfig,
    last_outcome: Option<SelectionOutcome>,
}

impl GrainBallSelector {
    /// Appendix A.4 defaults.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self {
            config: GrainConfig::ball_d(),
            last_outcome: None,
        }
    }

    /// Custom configuration (diversity kind forced to Ball by the caller's
    /// config; this constructor does not override it). Errors on a
    /// configuration that fails [`GrainConfig::validate`].
    pub fn new(config: GrainConfig) -> GrainResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            last_outcome: None,
        })
    }

    /// Full outcome of the most recent selection (timings, σ, trace).
    pub fn last_outcome(&self) -> Option<&SelectionOutcome> {
        self.last_outcome.as_ref()
    }
}

impl NodeSelector for GrainBallSelector {
    fn name(&self) -> &'static str {
        "grain(ball-d)"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, budget: usize) -> Vec<u32> {
        let outcome = engine_select(self.config, ctx, budget);
        let selected = outcome.selected.clone();
        self.last_outcome = Some(outcome);
        selected
    }

    fn select_sweep_with(
        &mut self,
        ctx: &SelectionContext<'_>,
        engine: &mut SelectionEngine,
        budgets: &[usize],
    ) -> Vec<Vec<u32>> {
        engine_sweep(
            self.config,
            engine,
            ctx.candidates(),
            budgets,
            Some(&mut self.last_outcome),
        )
    }

    fn select_sweep(&mut self, ctx: &SelectionContext<'_>, budgets: &[usize]) -> Vec<Vec<u32>> {
        let mut engine = ctx.engine();
        self.select_sweep_with(ctx, &mut engine, budgets)
    }
}

/// Grain (NN-D) adapter.
pub struct GrainNnSelector {
    config: GrainConfig,
    last_outcome: Option<SelectionOutcome>,
}

impl GrainNnSelector {
    /// Appendix A.4 defaults.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self {
            config: GrainConfig::nn_d(),
            last_outcome: None,
        }
    }

    /// Custom configuration. Errors on a configuration that fails
    /// [`GrainConfig::validate`].
    pub fn new(config: GrainConfig) -> GrainResult<Self> {
        config.validate()?;
        Ok(Self {
            config,
            last_outcome: None,
        })
    }

    /// Full outcome of the most recent selection.
    pub fn last_outcome(&self) -> Option<&SelectionOutcome> {
        self.last_outcome.as_ref()
    }
}

impl NodeSelector for GrainNnSelector {
    fn name(&self) -> &'static str {
        "grain(nn-d)"
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, budget: usize) -> Vec<u32> {
        let outcome = engine_select(self.config, ctx, budget);
        let selected = outcome.selected.clone();
        self.last_outcome = Some(outcome);
        selected
    }

    fn select_sweep_with(
        &mut self,
        ctx: &SelectionContext<'_>,
        engine: &mut SelectionEngine,
        budgets: &[usize],
    ) -> Vec<Vec<u32>> {
        engine_sweep(
            self.config,
            engine,
            ctx.candidates(),
            budgets,
            Some(&mut self.last_outcome),
        )
    }

    fn select_sweep(&mut self, ctx: &SelectionContext<'_>, budgets: &[usize]) -> Vec<Vec<u32>> {
        let mut engine = ctx.engine();
        self.select_sweep_with(ctx, &mut engine, budgets)
    }
}

/// Table 3 ablation adapter.
pub struct GrainAblationSelector {
    config: GrainConfig,
    variant: GrainVariant,
}

impl GrainAblationSelector {
    /// Ablation selector for `variant` with ball-D defaults otherwise.
    #[must_use]
    pub fn new(variant: GrainVariant) -> Self {
        Self {
            config: GrainConfig::ablation(variant),
            variant,
        }
    }
}

impl NodeSelector for GrainAblationSelector {
    fn name(&self) -> &'static str {
        match self.variant {
            GrainVariant::Full => "grain(ball-d)",
            GrainVariant::NoDiversity => "no-diversity",
            GrainVariant::NoMagnitude => "no-magnitude",
            GrainVariant::ClassicCoverage => "classic-coverage",
        }
    }

    fn select(&mut self, ctx: &SelectionContext<'_>, budget: usize) -> Vec<u32> {
        engine_select(self.config, ctx, budget).selected
    }

    fn select_sweep_with(
        &mut self,
        ctx: &SelectionContext<'_>,
        engine: &mut SelectionEngine,
        budgets: &[usize],
    ) -> Vec<Vec<u32>> {
        engine_sweep(self.config, engine, ctx.candidates(), budgets, None)
    }

    fn select_sweep(&mut self, ctx: &SelectionContext<'_>, budgets: &[usize]) -> Vec<Vec<u32>> {
        let mut engine = ctx.engine();
        self.select_sweep_with(ctx, &mut engine, budgets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::validate_selection;
    use grain_data::synthetic::papers_like;

    #[test]
    fn ball_adapter_selects_and_records_outcome() {
        let ds = papers_like(400, 30);
        let ctx = SelectionContext::new(&ds, 1);
        let mut sel = GrainBallSelector::with_defaults();
        let picked = sel.select(&ctx, 12);
        assert_eq!(picked.len(), 12);
        validate_selection(&picked, ctx.candidates(), 12).unwrap();
        let outcome = sel.last_outcome().unwrap();
        assert!(!outcome.sigma.is_empty());
        assert!(!sel.is_learning_based());
    }

    #[test]
    fn nn_adapter_selects() {
        let ds = papers_like(300, 31);
        let ctx = SelectionContext::new(&ds, 2);
        let mut sel = GrainNnSelector::with_defaults();
        let picked = sel.select(&ctx, 10);
        validate_selection(&picked, ctx.candidates(), 10).unwrap();
    }

    #[test]
    fn adapter_constructors_reject_invalid_configs() {
        let bad = GrainConfig {
            gamma: -3.0,
            ..GrainConfig::ball_d()
        };
        assert!(GrainBallSelector::new(bad).is_err());
        assert!(GrainNnSelector::new(bad).is_err());
        assert!(GrainBallSelector::new(GrainConfig::ball_d()).is_ok());
    }

    #[test]
    fn warm_sweep_matches_per_budget_selects() {
        let ds = papers_like(350, 33);
        let ctx = SelectionContext::new(&ds, 4);
        let budgets = [4usize, 8, 12];
        let mut sweep_sel = GrainBallSelector::with_defaults();
        let sweep = sweep_sel.select_sweep(&ctx, &budgets);
        assert!(sweep_sel.last_outcome().is_some());
        for (picked, &b) in sweep.iter().zip(&budgets) {
            // Fresh context: a cold engine must reproduce the warm sweep.
            let fresh_ctx = SelectionContext::new(&ds, 4);
            let mut fresh = GrainBallSelector::with_defaults();
            assert_eq!(picked, &fresh.select(&fresh_ctx, b), "budget {b}");
            validate_selection(picked, ctx.candidates(), b).unwrap();
        }
    }

    #[test]
    fn mismatched_fingerprint_leaves_the_handed_engine_untouched() {
        // A pooled engine is keyed by its artifact fingerprint; an adapter
        // whose config differs in an artifact field must not re-key it.
        let ds = papers_like(300, 35);
        let ctx = SelectionContext::new(&ds, 6);
        let mut pooled =
            SelectionEngine::over(GrainConfig::ball_d(), ds.graph.clone(), ds.features.clone())
                .unwrap();
        let fp_before = pooled.config().artifact_fingerprint();
        let deep = GrainConfig {
            kernel: grain_prop::Kernel::RandomWalk { k: 3 },
            ..GrainConfig::ball_d()
        };
        let mut sel = GrainBallSelector::new(deep).unwrap();
        let sweep = sel.select_sweep_with(&ctx, &mut pooled, &[6]);
        assert_eq!(
            pooled.config().artifact_fingerprint(),
            fp_before,
            "the handed-down engine must keep its pool key"
        );
        assert_eq!(
            pooled.stats().propagation_builds,
            0,
            "the handed-down engine's caches must stay untouched"
        );
        // The private-engine detour stays bit-identical to a cold run.
        let fresh_ctx = SelectionContext::new(&ds, 6);
        let mut fresh = GrainBallSelector::new(deep).unwrap();
        assert_eq!(sweep[0], fresh.select(&fresh_ctx, 6));
    }

    #[test]
    fn adapters_share_the_context_engine() {
        // Ball then NN on one context: propagation and influence artifacts
        // are built once and shared; only the diversity precompute differs.
        let ds = papers_like(300, 34);
        let ctx = SelectionContext::new(&ds, 5);
        let _ = GrainBallSelector::with_defaults().select(&ctx, 8);
        let _ = GrainNnSelector::with_defaults().select(&ctx, 8);
        let stats = ctx.engine().stats();
        assert_eq!(stats.propagation_builds, 1, "X^(k) must be shared");
        assert_eq!(stats.influence_builds, 1, "rows must be shared");
        assert_eq!(stats.index_builds, 1, "index must be shared");
        assert_eq!(stats.diversity_builds, 2, "ball lists + NN d_max");
    }

    #[test]
    fn ablations_have_distinct_names_and_select() {
        let ds = papers_like(300, 32);
        let ctx = SelectionContext::new(&ds, 3);
        let mut names = std::collections::HashSet::new();
        for variant in [
            GrainVariant::NoDiversity,
            GrainVariant::NoMagnitude,
            GrainVariant::ClassicCoverage,
        ] {
            let mut sel = GrainAblationSelector::new(variant);
            names.insert(sel.name());
            let picked = sel.select(&ctx, 8);
            validate_selection(&picked, ctx.candidates(), 8).unwrap();
        }
        assert_eq!(names.len(), 3);
    }
}
