//! Million-node scale benchmark for the flat-CSR influence hot path,
//! emitting `results/BENCH_scale.json`.
//!
//! A ladder of Barabási–Albert graphs (preferential attachment — the
//! hub-heavy degree law that stresses influence-row truncation hardest)
//! is pushed through the full serving stack at n up to 1e6. Per rung the
//! JSON records:
//!
//! * **cold build** — wall-clock of the first request, with the engine's
//!   own per-stage breakdown (propagation / influence rows / indexing /
//!   greedy), i.e. what standing up the artifacts costs;
//! * **resident bytes** — the CSR influence artifact as allocated, plus
//!   the all-artifact total the pool accounts
//!   ([`grain_core::ArtifactBytes`]);
//! * **warm selection latency** — repeated selections over warm
//!   artifacts, the steady-state serving cost;
//! * **CELF vs. plain evaluations** — marginal-gain evaluations the lazy
//!   greedy spent against Algorithm 1's re-evaluate-everything count
//!   (measured head-to-head on the warm engine up to n=1e5, computed in
//!   closed form `Σ_i (n - i)` above that, flagged by `plain_measured`).
//!
//! Row truncation is on (`influence_row_top_k = 32`): without it a BA
//! hub's 2-step influence row touches a large fraction of the graph and
//! the artifact no longer fits a sensible byte budget; with it the
//! artifact is ≤ `top_k` entries per node by construction.
//!
//! CI smoke: `GRAIN_SCALE_MAX_N` caps the ladder (e.g. `20000`) so the
//! bench exercises every code path in seconds; the committed JSON comes
//! from an uncapped run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{
    Budget, GrainConfig, GrainService, GrainVariant, GreedyAlgorithm, SelectionReport,
    SelectionRequest,
};
use grain_graph::generators;
use grain_linalg::DenseMatrix;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Labeling budget per rung.
const BUDGET: usize = 64;

/// Per-row truncation: the lever that bounds the artifact on hub graphs.
const TOP_K: usize = 32;

/// Feature width; influence artifacts scale with n and nnz, not d, so a
/// small d keeps the ladder about the hot path under test.
const FEATURE_DIM: usize = 8;

/// Run plain greedy for real up to this n; above it the count is closed
/// form (the selected set is identical either way — property-tested — so
/// only the evaluation counter is at stake).
const PLAIN_MEASURE_MAX_N: usize = 100_000;

struct Case {
    name: String,
    samples: Vec<Duration>,
    metrics: Vec<(&'static str, f64)>,
}

fn summarize(samples: &[Duration]) -> (u128, u128, u128) {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let min = sorted.first().copied().unwrap_or_default().as_nanos();
    let median = sorted
        .get(sorted.len() / 2)
        .copied()
        .unwrap_or_default()
        .as_nanos();
    let mean = if sorted.is_empty() {
        0
    } else {
        sorted.iter().map(Duration::as_nanos).sum::<u128>() / sorted.len() as u128
    };
    (min, median, mean)
}

fn write_json(cases: &[Case]) {
    // The checkout running the bench: cargo sets CARGO_MANIFEST_DIR at run
    // time; a bench binary started by hand writes under the current dir.
    let dir = std::env::var("CARGO_MANIFEST_DIR").map_or_else(
        |_| "results".to_string(),
        |crate_dir| format!("{crate_dir}/../../results"),
    );
    let mut body = String::from("{\n  \"bench\": \"scale\",\n  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let (min, median, mean) = summarize(&case.samples);
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \
             \"mean_ns\": {}",
            case.name,
            case.samples.len(),
            min,
            median,
            mean
        ));
        for (key, value) in &case.metrics {
            body.push_str(&format!(", \"{key}\": {value}"));
        }
        body.push_str(if i + 1 == cases.len() { "}\n" } else { "},\n" });
    }
    body.push_str("  ]\n}\n");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = format!("{dir}/BENCH_scale.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Deterministic synthetic features: cheap to generate at n=1e6 and
/// non-degenerate (distinct rows), which is all the hot path needs.
fn features(n: usize) -> DenseMatrix {
    let data: Vec<f32> = (0..n * FEATURE_DIM)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            (h % 251) as f32 * 0.004 + 0.01
        })
        .collect();
    DenseMatrix::from_vec(n, FEATURE_DIM, data)
}

fn scale_config() -> GrainConfig {
    GrainConfig {
        // Diversity functions are O(n^2) in the embedding; the scale rung
        // measures the influence hot path, which NoDiversity isolates.
        variant: GrainVariant::NoDiversity,
        gamma: 0.0,
        influence_eps: 1e-4,
        influence_row_top_k: TOP_K,
        algorithm: GreedyAlgorithm::Lazy,
        ..GrainConfig::default()
    }
}

/// Closed-form plain-greedy evaluation count: every round re-evaluates
/// every remaining candidate.
fn plain_evaluations_closed_form(pool: usize, picks: usize) -> usize {
    (0..picks).map(|i| pool - i).sum()
}

fn run_rung(service: &GrainService, c: &mut Criterion, n: usize, cases: &mut Vec<Case>) {
    let graph_id = format!("ba-{n}");
    let graph = generators::barabasi_albert(n, 4, 42);
    let x = features(n);
    service
        .register_graph(&graph_id, graph, x)
        .expect("corpus registers");

    let request = SelectionRequest::new(&graph_id, scale_config(), Budget::Fixed(BUDGET));

    // Cold request: artifact build + first selection, timed once.
    let cold_start = Instant::now();
    let cold: SelectionReport = service.select(&request).expect("cold request succeeds");
    let cold_elapsed = cold_start.elapsed();
    let outcome = cold.outcome();
    assert!(
        matches!(outcome.completion, grain_core::Completion::Complete),
        "scale rung n={n} must run to completion"
    );
    let bytes = cold.artifact_bytes;
    let timings = &outcome.timings;
    cases.push(Case {
        name: format!("cold-build/{n}"),
        samples: vec![cold_elapsed],
        metrics: vec![
            ("n", n as f64),
            ("budget", outcome.selected.len() as f64),
            ("propagation_ns", timings.propagation.as_nanos() as f64),
            ("influence_ns", timings.influence.as_nanos() as f64),
            ("indexing_ns", timings.indexing.as_nanos() as f64),
            ("greedy_ns", timings.greedy.as_nanos() as f64),
            ("resident_bytes_total", bytes.total() as f64),
            ("influence_rows_bytes", bytes.influence_rows as f64),
            ("activation_index_bytes", bytes.activation_index as f64),
            ("pool_resident_bytes", cold.pool_stats.resident_bytes as f64),
        ],
    });

    // Warm selections: the steady-state serving latency.
    let mut group = c.benchmark_group("scale-warm-select");
    group.sample_size(if n >= 1_000_000 { 3 } else { 5 });
    let warm = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let t = Instant::now();
            let report = service.select(&request).expect("warm request succeeds");
            warm.borrow_mut().push(t.elapsed());
            assert!(report.fully_warm(), "rung n={n} must serve warm");
            std::hint::black_box(report.outcome().selected.len())
        })
    });
    group.finish();

    // CELF efficiency: lazy evaluations vs. Algorithm 1's count.
    let lazy_evals = outcome.evaluations;
    let (plain_evals, plain_measured) = if n <= PLAIN_MEASURE_MAX_N {
        let plain_request = SelectionRequest::new(
            &graph_id,
            GrainConfig {
                algorithm: GreedyAlgorithm::Plain,
                ..scale_config()
            },
            Budget::Fixed(BUDGET),
        );
        // Greedy-only config change: shares the warm engine, no rebuild.
        let plain = service.select(&plain_request).expect("plain greedy runs");
        assert_eq!(
            plain.outcome().selected,
            outcome.selected,
            "CELF must select identically to plain greedy (n={n})"
        );
        (plain.outcome().evaluations, 1.0)
    } else {
        (
            plain_evaluations_closed_form(n, outcome.selected.len()),
            0.0,
        )
    };
    cases.push(Case {
        name: format!("warm-select/{n}"),
        samples: warm.into_inner(),
        metrics: vec![
            ("n", n as f64),
            ("lazy_evaluations", lazy_evals as f64),
            ("plain_evaluations", plain_evals as f64),
            ("plain_measured", plain_measured),
            (
                "celf_speedup_x",
                plain_evals as f64 / lazy_evals.max(1) as f64,
            ),
        ],
    });
}

fn bench_scale(c: &mut Criterion) {
    let max_n: usize = std::env::var("GRAIN_SCALE_MAX_N")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(1_000_000);
    let ladder: Vec<usize> = [10_000usize, 100_000, 1_000_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    let ladder = if ladder.is_empty() {
        vec![max_n.max(1_000)]
    } else {
        ladder
    };

    // One service, one engine per rung: capacity comfortably above the
    // ladder so residency accounting in the JSON reflects every rung.
    // No greedy trace cache: warm-select latency is greedy over warm
    // artifacts, not a replay of the previous sample.
    let service = GrainService::with_capacity(2 * ladder.len().max(1)).with_trace_cache(false);
    let mut cases: Vec<Case> = Vec::new();
    for &n in &ladder {
        run_rung(&service, c, n, &mut cases);
    }
    write_json(&cases);
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
