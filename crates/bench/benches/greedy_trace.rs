//! Criterion microbenchmark for the greedy trace cache, plus a
//! machine-readable `BENCH_trace.json` summary.
//!
//! Four comparisons, each run with the cache on and off on the same warm
//! engine, so the difference is the cache alone:
//!
//! * **budget** — ball-D over the whole train split of a `papers_like`
//!   n = 2000 corpus (the serving edge's corpus), at three budgets: a
//!   greedy run (`run/b`) against a replay of a cached 287-pick run
//!   (`replay/b`).
//! * **sweep** — the paper's Fig. 4 shape, NN-D `{2,5,10,20}·C` over a
//!   fresh random 160-node pool per sample (so nothing is cached across
//!   samples) on `papers_like` n = 700: one greedy run per budget, as
//!   sweeps ran before the cache (`sweep/per-budget`), against
//!   `select_budgets`, one run plus slices (`sweep/one-run`).
//! * **pools** — ball-D at budget 64 over a fresh random half of the
//!   train split per sample: the bypass workload, where every lookup
//!   misses. `pools/cache-on` vs `pools/cache-off` is the cost of the
//!   lookup and insert.
//! * **profile** — where a ball-D marginal-gain evaluation spends its
//!   time, at the greedy state after 0 and after 32 picks: the
//!   newly-activated scan of the coverage state alone
//!   (`eval/coverage-*`) against the full evaluation (`eval/full-*`),
//!   whose difference is the ball-union scan. Reported per evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use grain_core::diversity::BallDiversity;
use grain_core::objective::{DimObjective, MarginalObjective};
use grain_core::{GrainConfig, SelectionEngine};
use grain_data::synthetic::papers_like;
use grain_influence::CoverageState;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One case's own timing record (criterion's console report is printed
/// independently; these samples feed the JSON summary).
struct Case {
    name: String,
    samples: Vec<Duration>,
    metrics: Vec<(&'static str, f64)>,
}

fn median_ns(samples: &[Duration]) -> u128 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).map_or(0, Duration::as_nanos)
}

fn write_json(cases: &[Case]) {
    // The checkout running the bench: cargo sets CARGO_MANIFEST_DIR at run
    // time; a bench binary started by hand writes under the current dir.
    let dir = std::env::var("CARGO_MANIFEST_DIR").map_or_else(
        |_| "results".to_string(),
        |crate_dir| format!("{crate_dir}/../../results"),
    );
    let mut body = String::from("{\n  \"bench\": \"trace\",\n");
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    body.push_str(&format!(
        "  \"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"git_rev\": \"{rev}\"}},\n  \"cases\": [\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    ));
    for (i, case) in cases.iter().enumerate() {
        let mut sorted = case.samples.clone();
        sorted.sort_unstable();
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}",
            case.name,
            sorted.len(),
            sorted.first().map_or(0, Duration::as_nanos),
            median_ns(&sorted),
        ));
        for (key, value) in &case.metrics {
            body.push_str(&format!(", \"{key}\": {value:.3}"));
        }
        body.push_str(if i + 1 == cases.len() { "}\n" } else { "},\n" });
    }
    body.push_str("  ]\n}\n");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = format!("{dir}/BENCH_trace.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Runs `f` as a criterion case and records its samples under `name`.
fn case(
    c: &mut Criterion,
    cases: &mut Vec<Case>,
    name: String,
    samples: usize,
    mut f: impl FnMut() -> usize,
) {
    let timed = RefCell::new(Vec::new());
    let mut group = c.benchmark_group("greedy-trace");
    group.sample_size(samples);
    group.bench_function(&name, |b| {
        b.iter(|| {
            let t = Instant::now();
            let out = f();
            timed.borrow_mut().push(t.elapsed());
            out
        })
    });
    group.finish();
    let mut samples = timed.into_inner();
    samples.remove(0); // the shim's untimed warmup pass
    cases.push(Case {
        name,
        samples,
        metrics: Vec::new(),
    });
}

fn random_pool(pool: &[u32], len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut pool = pool.to_vec();
    pool.shuffle(rng);
    pool.truncate(len);
    pool
}

fn bench_trace(c: &mut Criterion) {
    let mut cases: Vec<Case> = Vec::new();

    // --- budget: run vs replay on the serving corpus -------------------
    let serve = papers_like(2_000, 11);
    let train = &serve.split.train;
    let base = 2 * serve.num_classes;
    let longest = base + 255;
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &serve.graph, &serve.features)
        .expect("bench config is valid");
    engine.select(train, longest); // builds artifacts, caches the run
    for budget in [base, base + 128, longest] {
        let mut evaluations = 0;
        for (mode, trace_cache) in [("run", false), ("replay", true)] {
            engine.set_trace_cache(trace_cache);
            if trace_cache {
                engine.select(train, longest);
            }
            case(c, &mut cases, format!("{mode}/{budget}"), 20, || {
                let out = engine.select(train, budget);
                evaluations = out.evaluations;
                out.selected.len()
            });
        }
        let n = cases.len();
        let (run, replay) = (
            median_ns(&cases[n - 2].samples),
            median_ns(&cases[n - 1].samples),
        );
        cases[n - 1].metrics = vec![
            ("budget", budget as f64),
            ("evaluations", evaluations as f64),
            ("speedup", run as f64 / replay.max(1) as f64),
        ];
    }

    // --- sweep: per-budget runs vs one run plus slices (NN-D) ----------
    let al = papers_like(700, 13);
    let budgets: Vec<usize> = [2, 5, 10, 20].iter().map(|m| m * al.num_classes).collect();
    let mut engine = SelectionEngine::new(GrainConfig::nn_d(), &al.graph, &al.features)
        .expect("bench config is valid");
    engine.set_trace_cache(false);
    engine.select(&al.split.train, 1); // builds artifacts and d_max
    for mode in ["per-budget", "one-run"] {
        let mut rng = StdRng::seed_from_u64(5);
        case(c, &mut cases, format!("sweep/{mode}"), 10, || {
            let pool = random_pool(&al.split.train, 160, &mut rng);
            match mode {
                "per-budget" => budgets
                    .iter()
                    .map(|&b| engine.select(&pool, b).selected.len())
                    .sum(),
                _ => engine
                    .select_budgets(&pool, &budgets)
                    .iter()
                    .map(|o| o.selected.len())
                    .sum(),
            }
        });
    }
    let n = cases.len();
    let ratio =
        median_ns(&cases[n - 2].samples) as f64 / median_ns(&cases[n - 1].samples).max(1) as f64;
    cases[n - 1].metrics = vec![("speedup", ratio)];

    // --- pools: the bypass workload ------------------------------------
    let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &serve.graph, &serve.features)
        .expect("bench config is valid");
    engine.select(train, 1);
    for (mode, trace_cache) in [("cache-off", false), ("cache-on", true)] {
        engine.set_trace_cache(trace_cache);
        let mut rng = StdRng::seed_from_u64(7);
        case(c, &mut cases, format!("pools/{mode}"), 40, || {
            let pool = random_pool(train, train.len() / 2, &mut rng);
            engine.select(&pool, 64).selected.len()
        });
    }
    let n = cases.len();
    let ratio =
        median_ns(&cases[n - 1].samples) as f64 / median_ns(&cases[n - 2].samples).max(1) as f64;
    cases[n - 1].metrics = vec![("time_vs_cache_off", ratio)];

    // --- profile: coverage scan vs full ball-D evaluation --------------
    let config = GrainConfig::ball_d();
    let picks = engine.select(train, 32).selected;
    let embedding = engine.normalized_embedding();
    let balls = BallDiversity::new(&embedding, config.radius);
    let index = engine.activation_index();
    for prefix in [0usize, 32] {
        let mut objective = DimObjective::new(index, balls.clone(), config.gamma);
        let mut coverage = CoverageState::new(index);
        for &p in &picks[..prefix] {
            objective.add(p);
            coverage.add_seed(p);
        }
        let mut scratch = Vec::new();
        case(c, &mut cases, format!("eval/coverage-{prefix}"), 20, || {
            train
                .iter()
                .map(|&u| coverage.newly_activated_into(u, &mut scratch))
                .sum()
        });
        let last = cases.last_mut().expect("case recorded");
        let coverage_ns = median_ns(&last.samples) as f64 / train.len() as f64;
        last.metrics = vec![("ns_per_eval", coverage_ns)];
        case(c, &mut cases, format!("eval/full-{prefix}"), 20, || {
            train
                .iter()
                .map(|&u| objective.marginal_gain(u))
                .sum::<f64>() as usize
        });
        let last = cases.last_mut().expect("case recorded");
        let full_ns = median_ns(&last.samples) as f64 / train.len() as f64;
        last.metrics = vec![
            ("ns_per_eval", full_ns),
            ("ball_share", 1.0 - coverage_ns / full_ns.max(1e-9)),
        ];
    }

    write_json(&cases);
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
