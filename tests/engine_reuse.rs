//! The warm `SelectionEngine` contract: staged artifacts are built once,
//! shared across selections, invalidated precisely, and never change what
//! gets selected.

use grain::prelude::*;

fn corpus() -> grain::data::Dataset {
    grain::data::synthetic::papers_like(900, 17)
}

/// Cold reference: a fresh engine per call.
fn one_shot(config: GrainConfig, ds: &Dataset, budget: usize) -> SelectionOutcome {
    SelectionEngine::new(config, &ds.graph, &ds.features)
        .unwrap()
        .select(&ds.split.train, budget)
}

#[test]
fn warm_budget_sweep_is_bit_identical_to_one_shot_selects() {
    let ds = corpus();
    let budgets = [4usize, 8, 12, 16, 20];
    let config = GrainConfig::ball_d();

    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    let warm = engine.select_budgets(&ds.split.train, &budgets);

    // The heavy §3 stages ran exactly once across the whole sweep.
    let stats = engine.stats();
    assert_eq!(stats.propagation_builds, 1, "propagation must run once");
    assert_eq!(
        stats.influence_builds, 1,
        "influence rows must be computed once"
    );
    assert_eq!(stats.index_builds, 1, "activation index must be built once");
    assert_eq!(stats.transition_builds, 1);
    assert_eq!(stats.embedding_builds, 1);
    assert_eq!(stats.diversity_builds, 1);
    assert_eq!(stats.selections, budgets.len());

    // Bit-identical to five independent one-shot runs.
    for (outcome, &budget) in warm.iter().zip(&budgets) {
        let fresh = one_shot(config, &ds, budget);
        assert_eq!(
            outcome.selected, fresh.selected,
            "selection at budget {budget}"
        );
        assert_eq!(outcome.sigma, fresh.sigma, "sigma at budget {budget}");
        assert_eq!(
            outcome.objective_trace, fresh.objective_trace,
            "objective trace at budget {budget}"
        );
        assert_eq!(
            outcome.evaluations, fresh.evaluations,
            "evaluations at budget {budget}"
        );
    }
}

#[test]
fn nn_diversity_warm_sweep_matches_one_shot_too() {
    let ds = grain::data::synthetic::papers_like(500, 23);
    let budgets = [3usize, 9, 15];
    let config = GrainConfig::nn_d();
    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    let warm = engine.select_budgets(&ds.split.train, &budgets);
    assert_eq!(
        engine.stats().diversity_builds,
        1,
        "d_max must be computed once"
    );
    for (outcome, &budget) in warm.iter().zip(&budgets) {
        let fresh = one_shot(config, &ds, budget);
        assert_eq!(
            outcome.selected, fresh.selected,
            "NN-D selection at budget {budget}"
        );
    }
}

#[test]
fn theta_change_invalidates_only_the_activation_index() {
    let ds = corpus();
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &ds.graph, &ds.features).unwrap();
    engine.select(&ds.split.train, 10);
    let before = engine.stats();

    let mut cfg = *engine.config();
    cfg.theta = ThetaRule::RelativeToRowMax(0.5);
    engine.set_config(cfg).unwrap();
    let outcome = engine.select(&ds.split.train, 10);
    assert_eq!(outcome.selected.len(), 10);

    let after = engine.stats();
    assert_eq!(
        after.index_builds,
        before.index_builds + 1,
        "index must rebuild"
    );
    assert_eq!(
        after.propagation_builds, before.propagation_builds,
        "propagation must persist"
    );
    assert_eq!(
        after.transition_builds, before.transition_builds,
        "transition must persist"
    );
    assert_eq!(
        after.influence_builds, before.influence_builds,
        "rows must persist"
    );
    assert_eq!(
        after.embedding_builds, before.embedding_builds,
        "embedding must persist"
    );
    assert_eq!(
        after.diversity_builds, before.diversity_builds,
        "diversity must persist"
    );
}

#[test]
fn kernel_depth_change_invalidates_kernel_artifacts_only() {
    let ds = corpus();
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &ds.graph, &ds.features).unwrap();
    engine.select(&ds.split.train, 10);
    let before = engine.stats();

    let mut cfg = *engine.config();
    cfg.kernel = Kernel::RandomWalk { k: 3 };
    engine.set_config(cfg).unwrap();
    engine.select(&ds.split.train, 10);

    let after = engine.stats();
    // Same TransitionKind, so T persists; every kernel-keyed artifact
    // rebuilds exactly once.
    assert_eq!(
        after.transition_builds, before.transition_builds,
        "transition must persist"
    );
    assert_eq!(after.propagation_builds, before.propagation_builds + 1);
    assert_eq!(after.influence_builds, before.influence_builds + 1);
    assert_eq!(after.index_builds, before.index_builds + 1);
    assert_eq!(after.embedding_builds, before.embedding_builds + 1);
    assert_eq!(after.diversity_builds, before.diversity_builds + 1);

    // And the warm result still matches a one-shot at the new config.
    let warm = engine.select(&ds.split.train, 10);
    let fresh = one_shot(cfg, &ds, 10);
    assert_eq!(warm.selected, fresh.selected);
}

#[test]
fn radius_change_invalidates_only_the_diversity_precompute() {
    let ds = corpus();
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &ds.graph, &ds.features).unwrap();
    engine.select(&ds.split.train, 10);
    let before = engine.stats();

    let mut cfg = *engine.config();
    cfg.radius = 0.1;
    engine.set_config(cfg).unwrap();
    engine.select(&ds.split.train, 10);

    let after = engine.stats();
    assert_eq!(
        after.diversity_builds,
        before.diversity_builds + 1,
        "balls must rebuild"
    );
    assert_eq!(
        after.index_builds, before.index_builds,
        "index must persist"
    );
    assert_eq!(after.propagation_builds, before.propagation_builds);
    assert_eq!(after.influence_builds, before.influence_builds);
    assert_eq!(after.embedding_builds, before.embedding_builds);
}

#[test]
fn gamma_algorithm_and_variant_changes_rebuild_nothing() {
    let ds = corpus();
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &ds.graph, &ds.features).unwrap();
    engine.select(&ds.split.train, 8);
    let before = engine.stats();

    let mut cfg = *engine.config();
    cfg.gamma = 0.25;
    cfg.algorithm = GreedyAlgorithm::Plain;
    engine.set_config(cfg).unwrap();
    engine.select(&ds.split.train, 8);
    engine.select_variant(GrainVariant::NoDiversity, &ds.split.train, 8);

    let after = engine.stats();
    assert_eq!(after.propagation_builds, before.propagation_builds);
    assert_eq!(after.transition_builds, before.transition_builds);
    assert_eq!(after.influence_builds, before.influence_builds);
    assert_eq!(after.index_builds, before.index_builds);
    assert_eq!(after.embedding_builds, before.embedding_builds);
    assert_eq!(after.diversity_builds, before.diversity_builds);
    assert_eq!(after.selections, before.selections + 2);
}

// ---------------------------------------------------------------------------
// EnginePool contract: the engine guarantees above must survive pooling.
// ---------------------------------------------------------------------------

/// A second corpus that shares nothing with `corpus()`.
fn corpus_b() -> grain::data::Dataset {
    grain::data::synthetic::papers_like(700, 91)
}

fn pooled_service(capacity: usize) -> (GrainService, Dataset, Dataset) {
    let a = corpus();
    let b = corpus_b();
    let service = GrainService::with_capacity(capacity);
    service
        .register_graph("a", a.graph.clone(), a.features.clone())
        .unwrap();
    service
        .register_graph("b", b.graph.clone(), b.features.clone())
        .unwrap();
    (service, a, b)
}

fn theta_config(theta: f32) -> GrainConfig {
    GrainConfig {
        theta: ThetaRule::RelativeToRowMax(theta),
        ..GrainConfig::ball_d()
    }
}

#[test]
fn pool_evicts_in_lru_order() {
    let (service, a, _) = pooled_service(2);
    let configs = [theta_config(0.25), theta_config(0.4), theta_config(0.6)];
    let request = |cfg: GrainConfig| {
        SelectionRequest::new("a", cfg, Budget::Fixed(5)).with_candidates(a.split.train.clone())
    };
    // Fill: [c0], [c1, c0].
    service.select(&request(configs[0])).unwrap();
    service.select(&request(configs[1])).unwrap();
    // Touch c0 so c1 becomes the LRU: [c0, c1].
    assert_eq!(
        service.select(&request(configs[0])).unwrap().pool_event,
        PoolEvent::Hit
    );
    // c2 arrives: c1 (LRU) must be evicted, keeping [c2, c0].
    service.select(&request(configs[2])).unwrap();
    assert_eq!(service.pool_stats().evictions, 1);
    assert_eq!(
        service.select(&request(configs[0])).unwrap().pool_event,
        PoolEvent::Hit,
        "recently used engine must have survived"
    );
    assert_eq!(
        service.select(&request(configs[1])).unwrap().pool_event,
        PoolEvent::RebuildAfterEviction,
        "LRU engine must have been evicted"
    );
}

#[test]
fn capacity_one_pool_thrashes_but_stays_correct() {
    let (service, a, _) = pooled_service(1);
    let c0 = theta_config(0.25);
    let c1 = theta_config(0.5);
    let request = |cfg: GrainConfig| {
        SelectionRequest::new("a", cfg, Budget::Fixed(6)).with_candidates(a.split.train.clone())
    };
    let first = service.select(&request(c0)).unwrap();
    let mut alternating = Vec::new();
    for _ in 0..2 {
        alternating.push(service.select(&request(c1)).unwrap());
        alternating.push(service.select(&request(c0)).unwrap());
    }
    // Five alternating requests on a capacity-1 pool: two cold misses,
    // then every request rebuilds the engine the previous one evicted.
    let stats = service.pool_stats();
    assert_eq!(stats.cold_misses, 2);
    assert_eq!(stats.evicted_rebuilds, 3);
    assert_eq!(stats.evictions, 4);
    assert_eq!(stats.hits, 0, "capacity-1 alternation can never hit");
    // Thrash changes cost, never answers.
    let last = alternating.last().unwrap();
    assert_eq!(last.outcome().selected, first.outcome().selected);
    assert_eq!(
        last.outcome().objective_trace,
        first.outcome().objective_trace
    );
}

#[test]
fn same_config_on_two_graphs_uses_two_engines() {
    let (service, a, b) = pooled_service(4);
    let cfg = GrainConfig::ball_d();
    let ra = service
        .select(
            &SelectionRequest::new("a", cfg, Budget::Fixed(8))
                .with_candidates(a.split.train.clone()),
        )
        .unwrap();
    let rb = service
        .select(
            &SelectionRequest::new("b", cfg, Budget::Fixed(8))
                .with_candidates(b.split.train.clone()),
        )
        .unwrap();
    // Same fingerprint, different graph id: two distinct engines, each
    // cold-built, and isolated results.
    assert_eq!(ra.pool_event, PoolEvent::ColdMiss);
    assert_eq!(rb.pool_event, PoolEvent::ColdMiss);
    assert_eq!(service.pool().len(), 2);
    assert_ne!(
        ra.outcome().selected,
        rb.outcome().selected,
        "independent corpora should almost surely select differently"
    );
    // And each matches its own cold one-shot engine.
    for (report, ds) in [(&ra, &a), (&rb, &b)] {
        let fresh = SelectionEngine::new(cfg, &ds.graph, &ds.features)
            .unwrap()
            .select(&ds.split.train, 8);
        assert_eq!(report.outcome().selected, fresh.selected);
    }
}

#[test]
fn pool_hit_is_bit_identical_to_cold_engine() {
    let (service, a, _) = pooled_service(4);
    let cfg = GrainConfig::nn_d();
    let request = SelectionRequest::new("a", cfg, Budget::Sweep(vec![4, 9, 14]))
        .with_candidates(a.split.train.clone());
    let cold_report = service.select(&request).unwrap();
    let warm_report = service.select(&request).unwrap();
    assert!(warm_report.fully_warm());
    for ((warm, cold), &budget) in warm_report
        .outcomes
        .iter()
        .zip(&cold_report.outcomes)
        .zip(&warm_report.budgets)
    {
        // Warm-vs-cold within the pool ...
        assert_eq!(warm.selected, cold.selected, "budget {budget}");
        assert_eq!(warm.sigma, cold.sigma, "budget {budget}");
        assert_eq!(
            warm.objective_trace, cold.objective_trace,
            "budget {budget}"
        );
        assert_eq!(warm.evaluations, cold.evaluations, "budget {budget}");
        // ... and against an engine that never saw the pool.
        let fresh = SelectionEngine::new(cfg, &a.graph, &a.features)
            .unwrap()
            .select(&a.split.train, budget);
        assert_eq!(warm.selected, fresh.selected, "budget {budget}");
        assert_eq!(
            warm.objective_trace, fresh.objective_trace,
            "budget {budget}"
        );
    }
}
