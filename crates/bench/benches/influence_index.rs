//! Criterion microbenchmark: influence-row computation, activation-index
//! inversion, and incremental sigma updates (the Grain inner loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_data::synthetic::papers_like;
use grain_graph::{transition_matrix, TransitionKind};
use grain_influence::{ActivationIndex, CoverageState, InfluenceRows, ThetaRule};

fn bench_influence_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("influence-rows");
    group.sample_size(10);
    for n in [2_000usize, 8_000] {
        let dataset = papers_like(n, 11);
        let t = transition_matrix(&dataset.graph, TransitionKind::RandomWalk, true);
        group.bench_with_input(BenchmarkId::from_parameter(n), &t, |b, t| {
            b.iter(|| {
                let rows = InfluenceRows::compute(t, 2, 1e-4);
                std::hint::black_box(rows.nnz())
            })
        });
    }
    group.finish();
}

fn bench_index_and_coverage(c: &mut Criterion) {
    let dataset = papers_like(8_000, 12);
    let t = transition_matrix(&dataset.graph, TransitionKind::RandomWalk, true);
    let rows = InfluenceRows::compute(&t, 2, 1e-4);
    c.bench_function("activation-index-build", |b| {
        b.iter(|| {
            let idx = ActivationIndex::build(&rows, ThetaRule::RelativeToRowMax(0.25), 1);
            std::hint::black_box(idx.total_entries())
        })
    });
    let index = ActivationIndex::build(&rows, ThetaRule::RelativeToRowMax(0.25), 1);
    c.bench_function("coverage-greedy-round", |b| {
        b.iter(|| {
            // One full greedy round: marginal gains of 1000 candidates.
            let st = CoverageState::new(&index);
            let total: usize = (0..1000u32).map(|u| st.marginal_gain(u)).sum();
            std::hint::black_box(total)
        })
    });
}

criterion_group!(benches, bench_influence_rows, bench_index_and_coverage);
criterion_main!(benches);
