//! Criterion microbenchmark: a cold one-shot engine per call vs the warm
//! `SelectionEngine` path, quantifying how much of a selection the
//! cached §3 artifacts amortize away.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{GrainConfig, SelectionEngine};
use grain_data::synthetic::papers_like;

fn bench_cold_vs_warm(c: &mut Criterion) {
    let dataset = papers_like(4_000, 27);
    let budget = 2 * dataset.num_classes;
    let cfg = GrainConfig::ball_d();
    let mut group = c.benchmark_group("engine-reuse");
    group.sample_size(10);

    // Cold: a fresh engine per selection (what one-shot select() does).
    group.bench_with_input(BenchmarkId::from_parameter("cold"), &cfg, |b, cfg| {
        b.iter(|| {
            let mut engine = SelectionEngine::new(*cfg, &dataset.graph, &dataset.features)
                .expect("bench config is valid");
            let out = engine.select(&dataset.split.train, budget);
            std::hint::black_box(out.selected.len())
        })
    });

    // Warm: artifacts built once outside the timed loop. With the greedy
    // trace cache off (`warm`) each iteration pays greedy maximization;
    // with it on (`warm-replay`) each iteration replays the primed run.
    for (name, trace_cache) in [("warm", false), ("warm-replay", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            let mut engine = SelectionEngine::new(*cfg, &dataset.graph, &dataset.features)
                .expect("bench config is valid");
            engine.set_trace_cache(trace_cache);
            let _prime = engine.select(&dataset.split.train, budget);
            b.iter(|| {
                let out = engine.select(&dataset.split.train, budget);
                std::hint::black_box(out.selected.len())
            })
        });
    }
    group.finish();
}

fn bench_budget_sweep(c: &mut Criterion) {
    let dataset = papers_like(3_000, 28);
    let c_classes = dataset.num_classes;
    let budgets: Vec<usize> = [2usize, 5, 10, 15, 20]
        .iter()
        .map(|m| m * c_classes)
        .collect();
    let cfg = GrainConfig::ball_d();
    let mut group = c.benchmark_group("budget-sweep");
    group.sample_size(10);

    group.bench_with_input(
        BenchmarkId::from_parameter("one-shot-per-budget"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let mut total = 0usize;
                for &budget in &budgets {
                    let mut engine = SelectionEngine::new(*cfg, &dataset.graph, &dataset.features)
                        .expect("bench config is valid");
                    total += engine.select(&dataset.split.train, budget).selected.len();
                }
                std::hint::black_box(total)
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("warm-engine"),
        &cfg,
        |b, cfg| {
            b.iter(|| {
                let mut engine = SelectionEngine::new(*cfg, &dataset.graph, &dataset.features)
                    .expect("bench config is valid");
                let outs = engine.select_budgets(&dataset.split.train, &budgets);
                std::hint::black_box(outs.iter().map(|o| o.selected.len()).sum::<usize>())
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm, bench_budget_sweep);
criterion_main!(benches);
