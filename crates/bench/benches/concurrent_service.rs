//! Criterion microbenchmark: batched vs serial request submission through
//! one `GrainService`, reported alongside `service_pool`.
//!
//! The workload is mixed-fingerprint — 8 distinct artifact fingerprints
//! (θ sweep) × 2 requests each over one n = 2000 corpus — against a
//! sharded pool big enough to keep every engine warm. Engines are primed
//! before timing, so the measurement isolates the serving path itself:
//!
//! * **serial** — `select` per request on one thread (the PR-3 regime);
//! * **batched/w{2,4,8}** — `submit_batch_with_workers`, which groups the
//!   requests by engine key and fans the groups out across worker
//!   threads, same-key requests running sequentially on their warm
//!   engine.
//!
//! On a multi-core host batched submission should beat serial by roughly
//! `min(workers, distinct fingerprints, cores)`× on this workload,
//! because each group's greedy maximization runs on its own shard/engine
//! with no shared lock on the hot path. On a single-cpu host it can only
//! degrade to serial plus thread overhead — the number to watch there is
//! how small that overhead stays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{Budget, GrainConfig, GrainService, SelectionRequest};
use grain_data::synthetic::papers_like;
use grain_influence::ThetaRule;

const FINGERPRINTS: usize = 8;
const REQUESTS_PER_FINGERPRINT: usize = 2;

fn workload(train: &[u32], budget: usize) -> Vec<SelectionRequest> {
    let mut requests = Vec::new();
    for i in 0..FINGERPRINTS {
        let config = GrainConfig {
            theta: ThetaRule::RelativeToRowMax(0.2 + 0.05 * i as f32),
            ..GrainConfig::ball_d()
        };
        for _ in 0..REQUESTS_PER_FINGERPRINT {
            requests.push(
                SelectionRequest::new("papers", config, Budget::Fixed(budget))
                    .with_candidates(train.to_vec()),
            );
        }
    }
    requests
}

fn bench_batched_vs_serial(c: &mut Criterion) {
    let dataset = papers_like(2_000, 31);
    let budget = 2 * dataset.num_classes;
    // Per-shard capacity covers the full fingerprint set, so the
    // warm-path premise holds for any key→shard hash placement.
    // No greedy trace cache: each request runs greedy, the unit of work
    // this bench spreads over threads.
    let service = GrainService::with_topology(8, FINGERPRINTS).with_trace_cache(false);
    service
        .register_graph("papers", dataset.graph.clone(), dataset.features.clone())
        .expect("corpus registers");
    let requests = workload(&dataset.split.train, budget);

    // Prime every engine so the comparison is warm-path vs warm-path.
    for report in service.submit_batch(&requests) {
        let report = report.expect("priming request succeeds");
        std::hint::black_box(report.outcomes.len());
    }
    assert_eq!(
        service.pool_stats().evictions,
        0,
        "every fingerprint must stay resident or the bench measures rebuilds"
    );

    let mut group = c.benchmark_group("concurrent-service");
    group.sample_size(10);

    group.bench_function(BenchmarkId::from_parameter("serial"), |b| {
        b.iter(|| {
            let mut answered = 0usize;
            for request in &requests {
                let report = service.select(request).expect("warm request");
                answered += report.outcomes.len();
            }
            std::hint::black_box(answered)
        })
    });

    for workers in [2usize, 4, 8] {
        group.bench_function(
            BenchmarkId::from_parameter(format!("batched/w{workers}")),
            |b| {
                b.iter(|| {
                    let reports = service.submit_batch_with_workers(&requests, workers);
                    let answered: usize = reports
                        .into_iter()
                        .map(|r| r.expect("warm request").outcomes.len())
                        .sum();
                    std::hint::black_box(answered)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batched_vs_serial);
criterion_main!(benches);
