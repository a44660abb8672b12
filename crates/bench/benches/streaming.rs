//! Streaming-delta benchmark: `apply_update` against cold rebuild,
//! emitting `results/BENCH_delta.json`.
//!
//! Per corpus size (Barabási–Albert, the hub-heavy law that stresses
//! dirty-set expansion hardest) and delta size (1 / 16 / 256 toggled
//! edges), the JSON records:
//!
//! * **apply latency** — wall-clock of `apply_update` patching the one
//!   resident engine (dirty-set expansion + row re-propagation +
//!   influence-row splice + index repair + epoch flip), sampled over an
//!   alternating insert-batch/delete-batch toggle so the corpus returns
//!   to its original adjacency;
//! * **dirty-set sizes** — min/median/max of the propagation and
//!   influence dirty rows across those samples, i.e. how far the k-hop
//!   frontier actually spread;
//! * **cold rebuild** — what the same engine costs from scratch on the
//!   mutated corpus: the full cold request and its artifact-only
//!   portion (propagation + influence + indexing stage timings);
//! * **speedups** — apply vs. both cold numbers;
//! * **live** — the `live-store` shape: a store-backed service, toggles of
//!   1 and 16 edges where every fourth edge joins the highest-degree node,
//!   each apply followed by the select that answers on the new epoch. Per
//!   case: the apply, its `PatchTimings` stages, the flip plus store
//!   commit (the apply's time outside splice and patch), and the select;
//! * **live-reader** — writes beside reads: `R` reader threads select in
//!   a loop (the `live` config, trace cache off) while the writer applies
//!   the `live` toggles, each update after `R` more reader answers. Per
//!   case: reader p50/p99, reader cold rebuilds (`PoolEvent::ColdMiss`,
//!   and apart from them the rebuilds of a key an epoch flip reclaimed),
//!   and patched and skipped engines per update, where skipped counts the
//!   resident old-epoch engines the update neither patched nor left for
//!   being triangle-induced. After the timed phase, every reader answer
//!   whose epoch is known is checked against a cold build of that epoch's
//!   graph; a wrong answer panics.
//!
//! CI smoke: `GRAIN_DELTA_MAX_N` caps the ladder (e.g. `20000`) so the
//! bench exercises every code path in seconds; the committed JSON comes
//! from an uncapped run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{
    Budget, GrainConfig, GrainService, GrainVariant, GraphDelta, GreedyAlgorithm, PatchTimings,
    PoolEvent, ScratchDir, SelectionEngine, SelectionRequest,
};
use grain_graph::{apply_edge_edits, generators, Graph};
use grain_linalg::DenseMatrix;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const BUDGET: usize = 64;
const TOP_K: usize = 32;
const FEATURE_DIM: usize = 8;
/// Applies sampled per (n, delta size); even, so each toggle sequence
/// ends with the corpus back at its original adjacency.
const SAMPLES: usize = 10;
/// Unrecorded toggles before sampling: the first applies after a cold
/// build pay one-time allocator growth and page faults that are not part
/// of the steady-state apply path. Even, to preserve toggle parity.
const WARMUP: usize = 4;
/// Applies sampled per live case; even, like [`SAMPLES`].
const LIVE_SAMPLES: usize = 20;
/// Edge counts of the `live` toggle sets.
const LIVE_SIZES: [usize; 2] = [1, 16];
/// Reader threads per `live-reader` case.
const READERS: [usize; 2] = [1, 2];

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
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    let mut body = format!(
        "{{\n  \"bench\": \"delta\",\n  \"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"git_rev\": \"{rev}\"}},\n  \"cases\": [\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
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
        let path = format!("{dir}/BENCH_delta.json");
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

fn delta_config() -> GrainConfig {
    GrainConfig {
        // The streaming path patches propagation/influence/index; the
        // O(n^2) diversity stage would only blur those numbers.
        variant: GrainVariant::NoDiversity,
        gamma: 0.0,
        influence_eps: 1e-4,
        influence_row_top_k: TOP_K,
        algorithm: GreedyAlgorithm::Lazy,
        ..GrainConfig::default()
    }
}

fn has_edge(g: &Graph, u: u32, v: u32) -> bool {
    g.adjacency().row(u as usize).0.binary_search(&v).is_ok()
}

/// `size` distinct node pairs absent from `g`: the toggle set whose
/// batch-insert/batch-delete alternation drives the apply samples. With
/// an `anchor`, every fourth pair has it as an endpoint.
fn toggle_pairs(g: &Graph, size: usize, anchor: Option<u32>) -> Vec<(u32, u32)> {
    let n = g.num_nodes() as u64;
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(size);
    let mut i: u64 = 0;
    while pairs.len() < size {
        let a = match anchor {
            Some(hub) if pairs.len() % 4 == 0 => u64::from(hub),
            _ => (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 17) % n,
        };
        let b = (i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) >> 19) % n;
        i += 1;
        let (a, b) = (a.min(b) as u32, a.max(b) as u32);
        if a == b || has_edge(g, a, b) || pairs.contains(&(a, b)) {
            continue;
        }
        pairs.push((a, b));
    }
    pairs
}

fn insert_all(pairs: &[(u32, u32)]) -> GraphDelta {
    pairs
        .iter()
        .fold(GraphDelta::new(), |d, &(a, b)| d.insert_edge(a, b))
}

fn delete_all(pairs: &[(u32, u32)]) -> GraphDelta {
    pairs
        .iter()
        .fold(GraphDelta::new(), |d, &(a, b)| d.delete_edge(a, b))
}

fn quantiles(mut xs: Vec<f64>) -> (f64, f64, f64) {
    xs.sort_by(f64::total_cmp);
    let min = xs.first().copied().unwrap_or(0.0);
    let median = xs.get(xs.len() / 2).copied().unwrap_or(0.0);
    let max = xs.last().copied().unwrap_or(0.0);
    (min, median, max)
}

fn median_ns(xs: impl Iterator<Item = Duration>) -> f64 {
    quantiles(xs.map(|d| d.as_nanos() as f64).collect()).1
}

/// The median of each `PatchTimings` stage across `patches`.
fn stage_medians(patches: &[PatchTimings]) -> Vec<(&'static str, f64)> {
    let stage = |f: fn(&PatchTimings) -> Duration| median_ns(patches.iter().map(f));
    vec![
        ("stage_transition_median_ns", stage(|p| p.transition)),
        ("stage_propagation_median_ns", stage(|p| p.propagation)),
        ("stage_embedding_median_ns", stage(|p| p.embedding)),
        ("stage_influence_median_ns", stage(|p| p.influence)),
        ("stage_index_median_ns", stage(|p| p.index)),
    ]
}

fn run_rung(c: &mut Criterion, n: usize, cases: &mut Vec<Case>) {
    let graph_id = format!("ba-{n}");
    let graph = generators::barabasi_albert(n, 4, 42);
    let x = features(n);
    // Capacity 2: the current epoch's engine plus one stale epoch. A
    // deep pool would keep every superseded epoch's ~tens-of-MB
    // artifacts resident and the allocator churn would pollute the
    // apply samples.
    let service = GrainService::with_capacity(2);
    service
        .register_graph(&graph_id, graph.clone(), x.clone())
        .expect("corpus registers");
    let request = SelectionRequest::new(&graph_id, delta_config(), Budget::Fixed(BUDGET));
    service.select(&request).expect("warm-up select");

    for size in [1usize, 16, 256] {
        let pairs = toggle_pairs(&graph, size, None);
        let mut samples: Vec<Duration> = Vec::with_capacity(SAMPLES);
        let mut dirty_prop: Vec<f64> = Vec::new();
        let mut dirty_inf: Vec<f64> = Vec::new();
        let mut patches: Vec<PatchTimings> = Vec::new();
        for w in 0..WARMUP {
            let delta = if w % 2 == 0 {
                insert_all(&pairs)
            } else {
                delete_all(&pairs)
            };
            service
                .apply_update(&graph_id, &delta)
                .expect("warmup apply");
        }
        for s in 0..SAMPLES {
            let delta = if s % 2 == 0 {
                insert_all(&pairs)
            } else {
                delete_all(&pairs)
            };
            let t = Instant::now();
            let report = service
                .apply_update(&graph_id, &delta)
                .expect("delta applies");
            samples.push(t.elapsed());
            assert_eq!(report.engines_patched(), 1, "n={n} size={size}");
            let patch = &report.patched[0];
            dirty_prop.push(patch.dirty_propagation as f64);
            dirty_inf.push(patch.dirty_influence as f64);
            patches.push(patch.timings);
        }
        // Patched artifacts must serve the next request fully warm.
        let warm = service.select(&request).expect("post-apply select");
        assert!(warm.fully_warm(), "n={n} size={size} must serve warm");

        let (dp_min, dp_med, dp_max) = quantiles(dirty_prop);
        let (di_min, di_med, di_max) = quantiles(dirty_inf);
        let mut metrics: Vec<(&'static str, f64)> = vec![
            ("n", n as f64),
            ("delta_edges", size as f64),
            ("dirty_propagation_min", dp_min),
            ("dirty_propagation_median", dp_med),
            ("dirty_propagation_max", dp_max),
            ("dirty_influence_min", di_min),
            ("dirty_influence_median", di_med),
            ("dirty_influence_max", di_max),
        ];
        metrics.extend(stage_medians(&patches));
        cases.push(Case {
            name: format!("apply/{n}/edges-{size}"),
            samples,
            metrics,
        });
    }

    // Criterion visibility for the 1-edge toggle (the headline case).
    let single = toggle_pairs(&graph, 1, None);
    let present = Cell::new(false);
    let mut group = c.benchmark_group("delta-apply-1-edge");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let delta = if present.get() {
                delete_all(&single)
            } else {
                insert_all(&single)
            };
            present.set(!present.get());
            let report = service
                .apply_update(&graph_id, &delta)
                .expect("toggle applies");
            std::hint::black_box(report.epoch)
        })
    });
    group.finish();
    if present.get() {
        // Leave the corpus at its original adjacency.
        service
            .apply_update(&graph_id, &delete_all(&single))
            .expect("final toggle-off");
    }

    // Cold oracle: the same engine built from scratch over the mutated
    // corpus (one 1-edge insert), timed end to end with the engine's own
    // artifact-stage breakdown.
    let cold_service = GrainService::with_capacity(2);
    let mutated = {
        let scratch = GrainService::new();
        scratch
            .register_graph("scratch", graph.clone(), x.clone())
            .expect("scratch registers");
        scratch
            .apply_update("scratch", &insert_all(&single))
            .expect("scratch delta");
        (*scratch.graph("scratch").expect("scratch graph")).clone()
    };
    cold_service
        .register_graph(&graph_id, mutated, x.clone())
        .expect("cold corpus registers");
    let t = Instant::now();
    let cold = cold_service.select(&request).expect("cold select");
    let cold_elapsed = t.elapsed();
    let timings = &cold.outcome().timings;
    let cold_artifacts = timings.propagation + timings.influence + timings.indexing;
    let apply_1_median = {
        let apply_case = cases
            .iter()
            .find(|case| case.name == format!("apply/{n}/edges-1"))
            .expect("1-edge case recorded");
        summarize(&apply_case.samples).1
    };
    cases.push(Case {
        name: format!("cold-rebuild/{n}"),
        samples: vec![cold_elapsed],
        metrics: vec![
            ("n", n as f64),
            ("cold_select_ns", cold_elapsed.as_nanos() as f64),
            ("cold_artifacts_ns", cold_artifacts.as_nanos() as f64),
            ("apply_1_edge_median_ns", apply_1_median as f64),
            (
                "speedup_vs_cold_artifacts_x",
                cold_artifacts.as_nanos() as f64 / apply_1_median.max(1) as f64,
            ),
            (
                "speedup_vs_cold_select_x",
                cold_elapsed.as_nanos() as f64 / apply_1_median.max(1) as f64,
            ),
        ],
    });
}

/// The `live` cases at corpus size `n` (see the module docs).
fn run_live(n: usize, cases: &mut Vec<Case>) {
    let graph_id = format!("live-{n}");
    let graph = generators::barabasi_albert(n, 4, 42);
    let hub = (0..n).max_by_key(|&v| graph.degree(v)).unwrap_or(0) as u32;
    let store = ScratchDir::new("bench-delta-live");
    let service = GrainService::with_capacity(2)
        .with_artifact_store(store.path())
        .expect("store opens");
    service
        .register_graph(&graph_id, graph.clone(), features(n))
        .expect("corpus registers");
    let request = SelectionRequest::new(&graph_id, delta_config(), Budget::Fixed(BUDGET));
    service.select(&request).expect("cold select persists");
    for size in LIVE_SIZES {
        let pairs = toggle_pairs(&graph, size, Some(hub));
        let toggle = |s: usize| {
            if s % 2 == 0 {
                insert_all(&pairs)
            } else {
                delete_all(&pairs)
            }
        };
        for w in 0..WARMUP {
            service
                .apply_update(&graph_id, &toggle(w))
                .expect("warmup apply");
            service.select(&request).expect("warmup select");
        }
        let (mut samples, mut commits, mut selects) = (vec![], vec![], vec![]);
        let (mut patches, mut dirty) = (vec![], vec![]);
        for s in 0..LIVE_SAMPLES {
            let t = Instant::now();
            let report = service
                .apply_update(&graph_id, &toggle(s))
                .expect("delta applies");
            let applied = t.elapsed();
            let t = Instant::now();
            let answer = service.select(&request).expect("select after the update");
            selects.push(t.elapsed());
            assert!(answer.fully_warm(), "n={n} size={size} must serve warm");
            assert_eq!(report.engines_patched(), 1, "n={n} size={size}");
            samples.push(applied);
            commits.push(applied.saturating_sub(report.splice_time + report.patch_time));
            patches.push(report.patched[0].timings);
            dirty.push(report.patched[0].dirty_propagation as f64);
        }
        let mut metrics = vec![
            ("n", n as f64),
            ("delta_edges", size as f64),
            ("dirty_propagation_median", quantiles(dirty).1),
        ];
        metrics.extend(stage_medians(&patches));
        metrics.push(("flip_and_commit_median_ns", median_ns(commits.into_iter())));
        metrics.push((
            "select_after_update_median_ns",
            median_ns(selects.into_iter()),
        ));
        cases.push(Case {
            name: format!("live/{n}/edges-{size}"),
            samples,
            metrics,
        });
    }
}

/// One reader answer: the epoch it ran on, its picks and its trace.
type Answer = (u64, Vec<u32>, Vec<f64>);

/// The `live-reader` case with `readers` reader threads at corpus size `n`
/// (see the module docs).
fn run_live_reader(n: usize, readers: usize, cases: &mut Vec<Case>) {
    let graph_id = format!("live-reader-{n}");
    let graph = generators::barabasi_albert(n, 4, 42);
    let x = features(n);
    let hub = (0..n).max_by_key(|&v| graph.degree(v)).unwrap_or(0) as u32;
    let sets: Vec<Vec<(u32, u32)>> = LIVE_SIZES
        .iter()
        .map(|&size| toggle_pairs(&graph, size, Some(hub)))
        .collect();
    let store = ScratchDir::new("bench-delta-reader");
    let service = GrainService::with_capacity(2)
        .with_trace_cache(false)
        .with_artifact_store(store.path())
        .expect("store opens");
    service
        .register_graph(&graph_id, graph.clone(), x.clone())
        .expect("corpus registers");
    let request = SelectionRequest::new(&graph_id, delta_config(), Budget::Fixed(BUDGET));
    service.select(&request).expect("cold select persists");

    let stop = AtomicBool::new(false);
    let answered = AtomicUsize::new(0);
    let latencies: Mutex<Vec<Duration>> = Mutex::new(Vec::new());
    let events: Mutex<Vec<PoolEvent>> = Mutex::new(Vec::new());
    let answers: Mutex<Vec<Answer>> = Mutex::new(Vec::new());
    let (mut applies, mut patched, mut skipped) = (vec![], 0, 0);
    std::thread::scope(|s| {
        for _ in 0..readers {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let before = service.epoch(&graph_id).expect("registered");
                    let t = Instant::now();
                    let report = service.select(&request).expect("reader select");
                    let took = t.elapsed();
                    let after = service.epoch(&graph_id).expect("registered");
                    latencies.lock().unwrap().push(took);
                    events.lock().unwrap().push(report.pool_event);
                    if before == after {
                        // The select's corpus snapshot lies between the two
                        // reads, so its epoch is known.
                        let outcome = report.outcome();
                        let answer = (
                            before,
                            outcome.selected.clone(),
                            outcome.objective_trace.clone(),
                        );
                        answers.lock().unwrap().push(answer);
                    }
                    answered.fetch_add(1, Ordering::Release);
                }
            });
        }
        for pairs in &sets {
            for s in 0..LIVE_SAMPLES {
                let due = answered.load(Ordering::Acquire) + readers;
                while answered.load(Ordering::Acquire) < due {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let epoch = service.epoch(&graph_id).expect("registered");
                let resident = service
                    .pool()
                    .keys()
                    .iter()
                    .filter(|(g, e, _)| *g == graph_id && *e == epoch)
                    .count();
                let delta = if s % 2 == 0 {
                    insert_all(pairs)
                } else {
                    delete_all(pairs)
                };
                let t = Instant::now();
                let report = service
                    .apply_update(&graph_id, &delta)
                    .expect("delta applies");
                applies.push(t.elapsed());
                patched += report.engines_patched();
                skipped += resident
                    .saturating_sub(report.engines_patched() + report.engines_skipped_triangle);
            }
        }
        stop.store(true, Ordering::Release);
    });

    // Untimed: every reader answer of a known epoch against a cold build
    // of that epoch's graph. After update `e`, set `(e - 1) / LIVE_SAMPLES`
    // is inserted when `e - 1` is even within its set, else toggled back.
    let all: Vec<u32> = (0..n as u32).collect();
    let cold_answer = |g: &Graph| {
        let mut engine = SelectionEngine::new(delta_config(), g, &x).expect("oracle engine");
        let outcome = engine.select(&all, BUDGET);
        (outcome.selected, outcome.objective_trace)
    };
    let mut oracles = vec![cold_answer(&graph)];
    for pairs in &sets {
        let inserts: Vec<(u32, u32, f32)> = pairs.iter().map(|&(a, b)| (a, b, 1.0)).collect();
        let (toggled, _) = apply_edge_edits(&graph, &inserts, &[]).expect("toggle inserts");
        oracles.push(cold_answer(&toggled));
    }
    let answers = answers.into_inner().unwrap();
    for (epoch, selected, trace) in &answers {
        let state = match epoch.checked_sub(1) {
            Some(i) if (i as usize % LIVE_SAMPLES) % 2 == 0 => 1 + i as usize / LIVE_SAMPLES,
            _ => 0,
        };
        let (want_selected, want_trace) = &oracles[state];
        assert!(
            selected == want_selected && trace == want_trace,
            "n={n} readers={readers}: the answer at epoch {epoch} differs from a cold build"
        );
    }

    let samples = latencies.into_inner().unwrap();
    let events = events.into_inner().unwrap();
    let count = |event: PoolEvent| events.iter().filter(|&&e| e == event).count() as f64;
    let mut sorted: Vec<f64> = samples.iter().map(|d| d.as_nanos() as f64).collect();
    sorted.sort_by(f64::total_cmp);
    let p99 = sorted[(sorted.len() * 99).div_ceil(100).saturating_sub(1)];
    let updates = applies.len() as f64;
    cases.push(Case {
        name: format!("live-reader/{n}/r{readers}"),
        metrics: vec![
            ("n", n as f64),
            ("readers", readers as f64),
            ("updates", updates),
            ("reader_selects", samples.len() as f64),
            ("reader_p50_ns", sorted[sorted.len() / 2]),
            ("reader_p99_ns", p99),
            ("reader_max_ns", sorted[sorted.len() - 1]),
            ("reader_cold_rebuilds", count(PoolEvent::ColdMiss)),
            ("reader_joined_builds", count(PoolEvent::JoinedBuild)),
            // A reader whose corpus snapshot predates a flip but whose
            // checkout follows the flip's reclaim rebuilds the dead key.
            (
                "reader_rebuilds_after_eviction",
                count(PoolEvent::RebuildAfterEviction),
            ),
            ("patched_per_update", patched as f64 / updates),
            ("skipped_per_update", skipped as f64 / updates),
            ("apply_median_ns", median_ns(applies.into_iter())),
            ("answers_checked", answers.len() as f64),
        ],
        samples,
    });
}

fn bench_delta(c: &mut Criterion) {
    let max_n: usize = std::env::var("GRAIN_DELTA_MAX_N")
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
        run_live(n, &mut cases);
        for readers in READERS {
            run_live_reader(n, readers, &mut cases);
        }
    }
    write_json(&cases);
}

criterion_group!(benches, bench_delta);
criterion_main!(benches);
