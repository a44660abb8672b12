//! Criterion microbenchmark: influence-row computation, activation-index
//! inversion, and incremental sigma updates (the Grain inner loop), plus a
//! machine-readable `BENCH_influence.json` summary of the row builds.
//!
//! The row builds time `InfluenceRows` on two corpora:
//!
//! * **papers** — `papers_like(n)` for n ∈ {2000, 8000}, the plain `T^2`
//!   walk at ε = 1e-4, default thread count;
//! * **ba** — `barabasi_albert(1e5, 4)`, the hub-heavy graph of the
//!   store-backed serving workload: random-walk kernel k = 2, ε = 1e-4,
//!   rows truncated to their 32 heaviest entries, at one worker thread
//!   (`t1`) and at the machine's default count (`auto`).
//!
//! Run with `cargo bench -p grain-bench --bench influence_index`.

use criterion::{criterion_group, criterion_main, Criterion};
use grain_data::synthetic::papers_like;
use grain_graph::{generators, transition_matrix, CsrMatrix, TransitionKind};
use grain_influence::walk::kernel_power_weights;
use grain_influence::{ActivationIndex, CoverageState, InfluenceRows, ThetaRule};
use grain_prop::Kernel;
use std::cell::RefCell;
use std::time::{Duration, Instant};

struct Case {
    name: String,
    samples: Vec<Duration>,
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
        "{{\n  \"bench\": \"influence\",\n  \"host\": {{\"nproc\": {}, \"profile\": \"{}\", \"git_rev\": \"{rev}\"}},\n  \"cases\": [\n",
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
        let path = format!("{dir}/BENCH_influence.json");
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
    let mut group = c.benchmark_group("influence-rows");
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

/// One uncancelled row build at `threads` workers (`0` = auto).
fn build(t: &CsrMatrix, weights: &[f32], top_k: usize, threads: usize) -> usize {
    InfluenceRows::compute_weighted(t, weights, 1e-4, top_k, threads, &|| false)
        .expect("a never-stopping probe cannot cancel the build")
        .nnz()
}

fn bench_influence_rows(c: &mut Criterion) {
    let mut cases = Vec::new();
    let plain = kernel_power_weights(Kernel::RandomWalk { k: 2 });
    for n in [2_000usize, 8_000] {
        let dataset = papers_like(n, 11);
        let t = transition_matrix(&dataset.graph, TransitionKind::RandomWalk, true);
        case(c, &mut cases, format!("papers/{n}/auto"), 10, || {
            build(&t, &plain, 0, 0)
        });
    }
    let n = 100_000usize;
    let graph = generators::barabasi_albert(n, 4, 11);
    let t = transition_matrix(&graph, TransitionKind::RandomWalk, true);
    for (label, threads) in [("t1", 1usize), ("auto", 0)] {
        case(c, &mut cases, format!("ba/{n}/top32/{label}"), 5, || {
            build(&t, &plain, 32, threads)
        });
    }
    write_json(&cases);
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
