//! Warm-start persistence benchmark, emitting `results/BENCH_persist.json`.
//!
//! The artifact store's headline claim: standing the serving artifacts
//! up from disk is an order of magnitude (or more) cheaper than
//! computing them. Per rung of a Barabási–Albert ladder the JSON
//! records three request classes against the same corpus and config:
//!
//! * **compute cold build** — first request of a store-backed service on
//!   an empty directory: full propagation → influence → index compute,
//!   plus the save-on-build writes (per-stage compute breakdown
//!   attached);
//! * **store-load** — first request of a *fresh* service (empty pool —
//!   a process restart) over the now-populated directory: engine
//!   construction plus three validated disk reads, zero artifact
//!   compute;
//! * **warm hit** — steady-state pool hit on the restarted service, for
//!   scale.
//!
//! Serialized bytes per artifact class (`.prop` / `.rows` / `.index`
//! file sizes) ride along, so the disk cost of the warm start is visible
//! next to its latency win (`load_speedup_vs_cold_x`).
//!
//! CI smoke: `GRAIN_PERSIST_MAX_N` caps the ladder (e.g. `20000`); the
//! committed JSON comes from an uncapped run (n up to 1e5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{
    Budget, GrainConfig, GrainService, GrainVariant, GreedyAlgorithm, ScratchDir, SelectionRequest,
};
use grain_graph::{generators, Graph};
use grain_linalg::DenseMatrix;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BUDGET: usize = 64;
const TOP_K: usize = 32;
const FEATURE_DIM: usize = 8;

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
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut body = String::from("{\n  \"bench\": \"persist\",\n  \"cases\": [\n");
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
        let path = format!("{dir}/BENCH_persist.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn features(n: usize) -> DenseMatrix {
    let data: Vec<f32> = (0..n * FEATURE_DIM)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            (h % 251) as f32 * 0.004 + 0.01
        })
        .collect();
    DenseMatrix::from_vec(n, FEATURE_DIM, data)
}

fn persist_config() -> GrainConfig {
    GrainConfig {
        variant: GrainVariant::NoDiversity,
        gamma: 0.0,
        influence_eps: 1e-4,
        influence_row_top_k: TOP_K,
        algorithm: GreedyAlgorithm::Lazy,
        ..GrainConfig::default()
    }
}

/// Serialized bytes of each artifact class currently in `dir`.
fn serialized_bytes(dir: &std::path::Path) -> (u64, u64, u64) {
    let (mut prop, mut rows, mut index) = (0u64, 0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().to_string();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if name.ends_with(".prop.grain") {
                prop += len;
            } else if name.ends_with(".rows.grain") {
                rows += len;
            } else if name.ends_with(".index.grain") {
                index += len;
            }
        }
    }
    (prop, rows, index)
}

fn run_rung(c: &mut Criterion, n: usize, cases: &mut Vec<Case>) {
    let graph_id = format!("ba-{n}");
    let graph: Arc<Graph> = Arc::new(generators::barabasi_albert(n, 4, 42));
    let x: Arc<DenseMatrix> = Arc::new(features(n));
    let request = SelectionRequest::new(&graph_id, persist_config(), Budget::Fixed(BUDGET));
    let scratch = ScratchDir::new(&format!("bench-persist-{n}"));

    // --- Compute cold build: empty store, full artifact compute + save.
    let cold_service = GrainService::with_capacity(2)
        .with_artifact_store(scratch.path())
        .expect("store opens");
    cold_service
        .register_graph(&graph_id, Arc::clone(&graph), Arc::clone(&x))
        .expect("corpus registers");
    let t = Instant::now();
    let cold = cold_service
        .select(&request)
        .expect("cold request succeeds");
    let cold_elapsed = t.elapsed();
    assert!(cold.artifact_builds.propagation_builds > 0);
    let stats = cold_service.store_stats().expect("store attached");
    assert_eq!(stats.saves, 3, "cold build must persist all three stages");
    let (prop_bytes, rows_bytes, index_bytes) = serialized_bytes(scratch.path());
    let timings = &cold.outcome().timings;
    cases.push(Case {
        name: format!("compute-cold-build/{n}"),
        samples: vec![cold_elapsed],
        metrics: vec![
            ("n", n as f64),
            ("propagation_ns", timings.propagation.as_nanos() as f64),
            ("influence_ns", timings.influence.as_nanos() as f64),
            ("indexing_ns", timings.indexing.as_nanos() as f64),
            ("greedy_ns", timings.greedy.as_nanos() as f64),
            ("serialized_prop_bytes", prop_bytes as f64),
            ("serialized_rows_bytes", rows_bytes as f64),
            ("serialized_index_bytes", index_bytes as f64),
            (
                "serialized_total_bytes",
                (prop_bytes + rows_bytes + index_bytes) as f64,
            ),
            ("store_bytes_written", stats.bytes_written as f64),
        ],
    });
    drop(cold_service);

    // --- Store-load: a fresh service per sample (pool empty — a process
    // restart), answering from the populated directory.
    let load_samples = if n >= 100_000 { 3 } else { 5 };
    let mut loads: Vec<Duration> = Vec::with_capacity(load_samples);
    let mut restarted: Option<GrainService> = None;
    for _ in 0..load_samples {
        // No greedy trace cache: the warm hit times greedy over warm
        // artifacts, as in the committed baseline.
        let service = GrainService::with_capacity(2)
            .with_trace_cache(false)
            .with_artifact_store(scratch.path())
            .expect("store reopens");
        service
            .register_graph(&graph_id, Arc::clone(&graph), Arc::clone(&x))
            .expect("corpus re-registers");
        let t = Instant::now();
        let report = service.select(&request).expect("store-load succeeds");
        loads.push(t.elapsed());
        assert_eq!(
            report.artifact_builds.propagation_builds, 0,
            "store-load must not re-propagate (n={n})"
        );
        assert_eq!(report.artifact_builds.influence_builds, 0);
        assert_eq!(report.artifact_builds.index_builds, 0);
        assert_eq!(
            report.outcome().selected,
            cold.outcome().selected,
            "store-load must answer bit-identically (n={n})"
        );
        restarted = Some(service);
    }
    let load_median = {
        let mut sorted = loads.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    };
    cases.push(Case {
        name: format!("store-load/{n}"),
        samples: loads,
        metrics: vec![
            ("n", n as f64),
            (
                "load_speedup_vs_cold_x",
                cold_elapsed.as_nanos() as f64 / load_median.as_nanos().max(1) as f64,
            ),
        ],
    });

    // --- Warm hit: steady state on the restarted service.
    let service = restarted.expect("at least one load sample ran");
    let mut group = c.benchmark_group("persist-warm-hit");
    group.sample_size(5);
    let warm = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let t = Instant::now();
            let report = service.select(&request).expect("warm hit succeeds");
            warm.borrow_mut().push(t.elapsed());
            assert!(report.fully_warm(), "rung n={n} must serve warm");
            std::hint::black_box(report.outcome().selected.len())
        })
    });
    group.finish();
    cases.push(Case {
        name: format!("warm-hit/{n}"),
        samples: warm.into_inner(),
        metrics: vec![("n", n as f64)],
    });
}

fn bench_persist(c: &mut Criterion) {
    let max_n: usize = std::env::var("GRAIN_PERSIST_MAX_N")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(100_000);
    let ladder: Vec<usize> = [10_000usize, 100_000]
        .into_iter()
        .filter(|&n| n <= max_n)
        .collect();
    let ladder = if ladder.is_empty() {
        vec![max_n.max(1_000)]
    } else {
        ladder
    };
    let mut cases: Vec<Case> = Vec::new();
    for &n in &ladder {
        run_rung(c, n, &mut cases);
    }
    write_json(&cases);
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
