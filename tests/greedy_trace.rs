//! The greedy trace cache contract: a request answered by replaying a
//! cached greedy run is bit-identical to a fresh run — `selected`,
//! `objective_trace`, `sigma`, `diversity_value` and `evaluations` — and
//! a budget sweep is one run plus slices.

use grain::prelude::*;

/// Pool size for the per-config loops: NN-D marginal gains cost
/// `O(n · batch)` each, so pools stay short.
const POOL: usize = 60;

fn corpus(seed: u64) -> Dataset {
    grain::data::synthetic::papers_like(300, seed)
}

/// An engine with the trace cache off: every select is a fresh greedy
/// run (warm artifacts select exactly as cold ones, `tests/engine_reuse.rs`).
fn reference(config: GrainConfig, ds: &Dataset) -> SelectionEngine {
    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    engine.set_trace_cache(false);
    engine
}

fn fresh(config: GrainConfig, ds: &Dataset, pool: &[u32], budget: usize) -> SelectionOutcome {
    reference(config, ds).select(pool, budget)
}

fn assert_same(got: &SelectionOutcome, want: &SelectionOutcome, what: &str) {
    assert_eq!(got.selected, want.selected, "{what}: selected");
    assert_eq!(got.objective_trace, want.objective_trace, "{what}: trace");
    assert_eq!(got.sigma, want.sigma, "{what}: sigma");
    assert_eq!(
        got.diversity_value.to_bits(),
        want.diversity_value.to_bits(),
        "{what}: diversity"
    );
    assert_eq!(got.evaluations, want.evaluations, "{what}: evaluations");
    assert_eq!(
        got.candidates_after_prune, want.candidates_after_prune,
        "{what}: pool"
    );
    assert_eq!(got.completion, want.completion, "{what}: completion");
}

fn configs() -> Vec<(&'static str, GrainConfig)> {
    vec![
        ("ball-d lazy", GrainConfig::ball_d()),
        (
            "ball-d plain",
            GrainConfig {
                algorithm: GreedyAlgorithm::Plain,
                ..GrainConfig::ball_d()
            },
        ),
        ("nn-d", GrainConfig::nn_d()),
        (
            "no diversity",
            GrainConfig::ablation(GrainVariant::NoDiversity),
        ),
        (
            "no magnitude",
            GrainConfig::ablation(GrainVariant::NoMagnitude),
        ),
        (
            "classic coverage",
            GrainConfig::ablation(GrainVariant::ClassicCoverage),
        ),
        (
            "pruned",
            GrainConfig {
                prune: Some(PruneStrategy::Degree { keep_fraction: 0.5 }),
                ..GrainConfig::ball_d()
            },
        ),
    ]
}

#[test]
fn every_budget_up_to_a_cached_run_replays_bit_identically() {
    let ds = corpus(41);
    let pool = &ds.split.train[..POOL];
    for (name, config) in configs() {
        let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
        let mut oracle = reference(config, &ds);
        let longest = 24;
        let first = engine.select(pool, longest);
        assert!(!first.replayed, "{name}: the first request runs greedy");
        assert_same(&first, &oracle.select(pool, longest), name);
        // Shorter budgets in a scrambled order, then the cached one again.
        for budget in [7usize, 0, 23, 1, 12, 24] {
            let got = engine.select(pool, budget);
            assert!(got.replayed, "{name} b={budget}: must replay");
            assert_same(
                &got,
                &oracle.select(pool, budget),
                &format!("{name} b={budget}"),
            );
        }
        let stats = engine.trace_stats();
        assert_eq!(
            (stats.runs, stats.replays, stats.cached),
            (1, 6, true),
            "{name}"
        );
    }
}

#[test]
fn a_longer_budget_reruns_and_replaces_the_cached_run() {
    let ds = corpus(43);
    let pool = &ds.split.train;
    let config = GrainConfig::ball_d();
    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    engine.select(pool, 8);
    let longer = engine.select(pool, 20);
    assert!(!longer.replayed);
    assert_same(&longer, &fresh(config, &ds, pool, 20), "b=20");
    let shorter = engine.select(pool, 15);
    assert!(shorter.replayed);
    assert_same(&shorter, &fresh(config, &ds, pool, 15), "b=15");
    let stats = engine.trace_stats();
    assert_eq!((stats.runs, stats.replays, stats.cached), (2, 1, true));
}

#[test]
fn a_run_that_exhausts_its_pool_answers_any_larger_budget() {
    let ds = corpus(47);
    let pool: Vec<u32> = ds.split.train[..12].to_vec();
    let config = GrainConfig::ball_d();
    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    let all = engine.select(&pool, 40);
    assert_eq!(all.selected.len(), 12);
    for budget in [12usize, 13, 500] {
        let got = engine.select(&pool, budget);
        assert!(got.replayed, "b={budget}");
        assert_same(
            &got,
            &fresh(config, &ds, &pool, budget),
            &format!("b={budget}"),
        );
    }
}

#[test]
fn a_sweep_is_one_greedy_run_plus_slices() {
    let ds = corpus(53);
    let pool = &ds.split.train[..POOL];
    for (name, config) in configs() {
        let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
        engine.set_trace_cache(false);
        // Unsorted, with a duplicate and a budget past the pool size.
        let budgets = [9usize, 3, 18, 3, 0, 5000];
        let sweep = engine.select_budgets(pool, &budgets);
        assert_eq!(sweep.len(), budgets.len());
        assert_eq!(
            engine.trace_stats().runs,
            1,
            "{name}: one run for the sweep"
        );
        let mut oracle = reference(config, &ds);
        for (outcome, &budget) in sweep.iter().zip(&budgets) {
            assert_same(
                outcome,
                &oracle.select(pool, budget),
                &format!("{name} b={budget}"),
            );
        }
    }
}

#[test]
fn a_cached_run_answers_a_later_sweep_it_covers() {
    let ds = corpus(59);
    let pool = &ds.split.train[..POOL];
    let config = GrainConfig::nn_d();
    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    engine.select(pool, 20);
    let sweep = engine.select_budgets(pool, &[4, 10, 20]);
    assert!(sweep.iter().all(|o| o.replayed));
    for (outcome, budget) in sweep.iter().zip([4, 10, 20]) {
        assert_same(
            outcome,
            &fresh(config, &ds, pool, budget),
            &format!("b={budget}"),
        );
    }
    assert_eq!(engine.trace_stats().runs, 1);
    assert_eq!(engine.trace_stats().replays, 1);
}

#[test]
fn the_cached_run_is_keyed_by_exact_pool_config_and_variant() {
    let ds = corpus(61);
    let train = &ds.split.train;
    let half: Vec<u32> = train.iter().copied().step_by(2).collect();
    let mut reversed = train.clone();
    reversed.reverse();
    let base = GrainConfig::ball_d();
    let mut engine = SelectionEngine::new(base, &ds.graph, &ds.features).unwrap();
    engine.select(train, 10);
    // Parallelism and the checkpoint cadence change no selection, so they
    // share the cached run.
    engine
        .set_config(GrainConfig {
            parallelism: 1,
            cancel_check_every: 3,
            ..base
        })
        .unwrap();
    let same = engine.select(train, 10);
    assert!(same.replayed);
    assert_same(&same, &fresh(base, &ds, train, 10), "parallelism 1");
    engine.set_config(base).unwrap();
    // A different pool, a reordered pool, a different variant and a
    // different γ each run greedy; each run replaces the cached one.
    assert!(!engine.select(&half, 10).replayed);
    assert!(!engine.select(&reversed, 10).replayed);
    assert!(engine.select(&reversed, 10).replayed);
    assert!(
        !engine
            .select_variant(GrainVariant::NoDiversity, &reversed, 10)
            .replayed
    );
    assert!(!engine.select(&reversed, 10).replayed, "one slot");
    engine
        .set_config(GrainConfig { gamma: 0.5, ..base })
        .unwrap();
    let shifted = engine.select(train, 10);
    assert!(!shifted.replayed);
    assert_same(
        &shifted,
        &fresh(GrainConfig { gamma: 0.5, ..base }, &ds, train, 10),
        "gamma 0.5",
    );
    let stats = engine.trace_stats();
    assert_eq!((stats.runs, stats.replays, stats.cached), (6, 2, true));
}

#[test]
fn the_cache_keeps_one_run_and_can_be_turned_off() {
    let ds = corpus(67);
    let pools: Vec<Vec<u32>> = (0..2)
        .map(|k| ds.split.train.iter().copied().skip(k).step_by(2).collect())
        .collect();
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &ds.graph, &ds.features).unwrap();
    let empty = engine.artifact_bytes().greedy_trace;
    for pool in &pools {
        engine.select(pool, 6);
    }
    assert!(engine.select(&pools[1], 6).replayed);
    assert!(
        !engine.select(&pools[0], 6).replayed,
        "the slot held pools[1]"
    );
    let bytes = engine.artifact_bytes();
    assert!(
        bytes.greedy_trace >= pools[0].len() * std::mem::size_of::<u32>(),
        "the cached pool copy is counted: {bytes:?}"
    );

    engine.set_trace_cache(false);
    assert!(!engine.trace_stats().cached);
    assert_eq!(engine.artifact_bytes().greedy_trace, empty);
    for _ in 0..2 {
        assert!(!engine.select(&pools[1], 6).replayed);
    }
    assert!(!engine.trace_stats().cached);
}

#[test]
fn a_tripped_token_fails_a_cached_request_exactly_as_a_fresh_one() {
    let ds = corpus(71);
    let pool = &ds.split.train;
    let config = GrainConfig::ball_d();
    let mut engine = SelectionEngine::new(config, &ds.graph, &ds.features).unwrap();
    engine.select(pool, 10);
    let cancelled = CancelToken::new();
    cancelled.cancel();
    for policy in [OnDeadline::Fail, OnDeadline::Partial] {
        let err = engine
            .select_with_cancel(config.variant, pool, 5, &cancelled, policy)
            .unwrap_err();
        assert_eq!(err, GrainError::Cancelled, "{policy:?}");
    }
    let selections = engine.stats().selections;
    assert_eq!(selections, 1, "failed requests answer nothing");
}

#[test]
fn the_service_replays_repeats_and_sweeps_unless_told_not_to() {
    let ds = corpus(73);
    let request = |budget| {
        SelectionRequest::new("papers", GrainConfig::ball_d(), budget)
            .with_candidates(ds.split.train.clone())
    };
    let service = GrainService::new();
    service
        .register_graph("papers", ds.graph.clone(), ds.features.clone())
        .unwrap();
    let first = service.select(&request(Budget::Fixed(16))).unwrap();
    assert!(!first.outcome().replayed);
    let sweep = service
        .select(&request(Budget::Sweep(vec![16, 4, 8])))
        .unwrap();
    assert_eq!(sweep.budgets, vec![16, 4, 8]);
    for (outcome, &budget) in sweep.outcomes.iter().zip(&sweep.budgets) {
        assert!(outcome.replayed);
        assert_same(
            outcome,
            &fresh(GrainConfig::ball_d(), &ds, &ds.split.train, budget),
            &format!("b={budget}"),
        );
    }
    assert!(sweep.fully_warm());

    let uncached = GrainService::new().with_trace_cache(false);
    uncached
        .register_graph("papers", ds.graph.clone(), ds.features.clone())
        .unwrap();
    for _ in 0..2 {
        let report = uncached.select(&request(Budget::Fixed(16))).unwrap();
        assert!(!report.outcome().replayed);
        assert_same(report.outcome(), first.outcome(), "uncached service");
    }
}

#[test]
fn an_applied_update_starts_its_engines_with_no_cached_runs() {
    let ds = corpus(79);
    let service = GrainService::new();
    service
        .register_graph("papers", ds.graph.clone(), ds.features.clone())
        .unwrap();
    let request = SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(12))
        .with_candidates(ds.split.train.clone());
    service.select(&request).unwrap();
    assert!(service.select(&request).unwrap().outcome().replayed);

    // Toggle one edge on and off: the corpus ends where it started, but
    // each epoch's engine must run greedy over its own graph.
    let (u, v) = (0..ds.graph.num_nodes() as u32)
        .flat_map(|u| (u + 1..ds.graph.num_nodes() as u32).map(move |v| (u, v)))
        .find(|&(u, v)| !ds.graph.has_edge(u as usize, v))
        .unwrap();
    for delta in [
        GraphDelta::new().insert_edge(u, v),
        GraphDelta::new().delete_edge(u, v),
    ] {
        service.apply_update("papers", &delta).unwrap();
        let report = service.select(&request).unwrap();
        assert!(!report.outcome().replayed, "a new epoch has no cached runs");
    }
    let closing = service.select(&request).unwrap();
    assert!(closing.outcome().replayed);
    assert_same(
        closing.outcome(),
        &fresh(GrainConfig::ball_d(), &ds, &ds.split.train, 12),
        "net-zero churn",
    );
}
