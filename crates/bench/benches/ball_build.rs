//! Ball-D precompute timings, plus a machine-readable `BENCH_balls.json`
//! summary.
//!
//! Times the two all-pairs scans of the diversity precompute on the
//! normalized `X^(k)` embedding of `papers_like(n)` (d = 64) for
//! n ∈ {2000, 10000}, each at one worker thread (`t1`) and at the
//! machine's default count (`auto`):
//!
//! * **balls** — `BallDiversity::new` at the default radius: the radius
//!   query behind Definition 3.6 plus the union bound. It takes no thread
//!   count, so `t1` runs it with `GRAIN_THREADS=1`.
//! * **dmax** — `distance::max_pairwise_distance` with the engine's exact
//!   limit of 2048 rows: the exact triangle at n = 2000, the
//!   anchor-sampled estimate at n = 10000.
//!
//! Run with `cargo bench -p grain-bench --bench ball_build`.

use criterion::{criterion_group, criterion_main, Criterion};
use grain_core::diversity::BallDiversity;
use grain_core::{GrainConfig, GrainVariant, SelectionEngine};
use grain_data::synthetic::papers_like;
use grain_linalg::distance;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The engine's `d_max` exact limit (`NN_DMAX_EXACT_LIMIT`).
const DMAX_EXACT_LIMIT: usize = 2048;

struct Case {
    name: String,
    samples: Vec<Duration>,
}

fn write_json(cases: &[Case]) {
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
    let mut body = format!(
        "{{\n  \"bench\": \"balls\",\n  \"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"git_rev\": \"{rev}\"}},\n  \"cases\": [\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    for (i, case) in cases.iter().enumerate() {
        let mut sorted = case.samples.clone();
        sorted.sort_unstable();
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}}}{}\n",
            case.name,
            sorted.len(),
            sorted.first().map_or(0, Duration::as_nanos),
            sorted.get(sorted.len() / 2).map_or(0, Duration::as_nanos),
            if i + 1 == cases.len() { "" } else { "," },
        ));
    }
    body.push_str("  ]\n}\n");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = format!("{dir}/BENCH_balls.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Runs `f` as a criterion case and records its timed samples under `name`.
fn case(
    c: &mut Criterion,
    cases: &mut Vec<Case>,
    name: String,
    samples: usize,
    mut f: impl FnMut() -> usize,
) {
    let timed = RefCell::new(Vec::new());
    let mut group = c.benchmark_group("ball-build");
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
    cases.push(Case { name, samples });
}

fn bench_balls(c: &mut Criterion) {
    let mut cases = Vec::new();
    let radius = GrainConfig::ball_d().radius;
    let inherited = std::env::var("GRAIN_THREADS").ok();
    for (n, samples) in [(2_000usize, 20usize), (10_000, 5)] {
        let data = papers_like(n, 11);
        let config = GrainConfig {
            variant: GrainVariant::NoDiversity,
            ..GrainConfig::ball_d()
        };
        let embedding = SelectionEngine::new(config, &data.graph, &data.features)
            .expect("bench config is valid")
            .normalized_embedding();
        for (label, threads) in [("t1", 1usize), ("auto", 0)] {
            match (threads, &inherited) {
                (1, _) => std::env::set_var("GRAIN_THREADS", "1"),
                (_, Some(value)) => std::env::set_var("GRAIN_THREADS", value),
                (_, None) => std::env::remove_var("GRAIN_THREADS"),
            }
            case(c, &mut cases, format!("balls/{n}/{label}"), samples, || {
                BallDiversity::new(&embedding, radius).mean_ball_size() as usize
            });
            case(c, &mut cases, format!("dmax/{n}/{label}"), samples, || {
                distance::max_pairwise_distance(&embedding, DMAX_EXACT_LIMIT, threads).to_bits()
                    as usize
            });
        }
    }
    match inherited {
        Some(value) => std::env::set_var("GRAIN_THREADS", value),
        None => std::env::remove_var("GRAIN_THREADS"),
    }
    write_json(&cases);
}

criterion_group!(benches, bench_balls);
criterion_main!(benches);
