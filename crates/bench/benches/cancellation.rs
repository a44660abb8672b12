//! Criterion microbenchmark for the cancellation layer, plus a
//! machine-readable `BENCH_cancel.json` summary so the resilience cost
//! model is comparable across PRs without parsing console output.
//!
//! Three cases over one warm n = 2000 corpus:
//!
//! * **run-to-completion** — the uncancelled baseline: a full warm
//!   selection through `GrainService::select_with` with an untripped
//!   token; what a request costs when nothing interferes (and what the
//!   cancellation checkpoints add over PR 5's uncheckpointed path — they
//!   must be noise).
//! * **deadline-partial** — the same request under a deadline far shorter
//!   than the full run and `OnDeadline::Partial`: measures the *anytime*
//!   property — latency collapses to roughly the deadline and the caller
//!   still receives a usable greedy prefix (the recovered fraction is
//!   recorded in the JSON).
//! * **cancel-observe** — a caller cancels a running selection; the
//!   sample is the gap between `CancelToken::cancel` and the run
//!   returning — the acceptance criterion that cancellation is observed
//!   within one greedy round / one `cancel_check_every` eval block.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{Budget, CancelToken, GrainConfig, GrainService, OnDeadline, SelectionRequest};
use grain_data::synthetic::papers_like;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark case's own timing record (criterion's console report is
/// printed independently; these samples feed the JSON summary).
struct Case {
    name: &'static str,
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
    let mut body = String::from("{\n  \"bench\": \"cancel\",\n  \"cases\": [\n");
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
        let path = format!("{dir}/BENCH_cancel.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn bench_cancellation(c: &mut Criterion) {
    let dataset = papers_like(2_000, 31);
    let budget = 4 * dataset.num_classes;
    // No greedy trace cache: every case must run (and cancel) greedy,
    // not replay the priming request's run.
    let service = Arc::new(GrainService::new().with_trace_cache(false));
    service
        .register_graph("papers", dataset.graph.clone(), dataset.features.clone())
        .expect("corpus registers");
    let request = SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(budget))
        .with_candidates(dataset.split.train.clone());
    // Prime the engine: every case below measures the serving path over
    // warm artifacts, not the one-time cold build.
    service.select(&request).expect("priming request succeeds");

    let mut cases: Vec<Case> = Vec::new();
    let mut group = c.benchmark_group("cancellation");
    group.sample_size(10);

    // Uncancelled baseline: full warm run, untripped token.
    let full = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter("run-to-completion"), |b| {
        b.iter(|| {
            let t = Instant::now();
            let report = service
                .select_with(&request, &CancelToken::new(), OnDeadline::Fail)
                .expect("warm request");
            full.borrow_mut().push(t.elapsed());
            std::hint::black_box(report.outcome().selected.len())
        })
    });
    let full_run = summarize(&full.borrow()).1; // median ns
    cases.push(Case {
        name: "run-to-completion",
        samples: full.into_inner(),
        metrics: vec![("budget", budget as f64)],
    });

    // Anytime degradation: a deadline at ~3/4 of the full run under
    // Partial. Latency should track the deadline, not the full run, and
    // most trips should land mid-greedy and recover a prefix.
    let deadline = Duration::from_nanos((full_run * 3 / 4).max(50_000) as u64);
    let partial = RefCell::new(Vec::new());
    let (mut partials, mut failures, mut recovered, mut trips) = (0usize, 0usize, 0usize, 0usize);
    group.bench_function(BenchmarkId::from_parameter("deadline-partial"), |b| {
        b.iter(|| {
            let token = CancelToken::with_deadline_in(deadline);
            let t = Instant::now();
            let result = service.select_with(&request, &token, OnDeadline::Partial);
            partial.borrow_mut().push(t.elapsed());
            trips += 1;
            match &result {
                Ok(report) => {
                    if report.is_partial() {
                        partials += 1;
                        recovered += report.outcome().selected.len();
                    }
                }
                // The trip landed before the first greedy round (or the
                // run beat the clock; both are legitimate outcomes on a
                // contended host).
                Err(_) => failures += 1,
            }
            std::hint::black_box(result.is_ok())
        })
    });
    cases.push(Case {
        name: "deadline-partial",
        samples: partial.into_inner(),
        metrics: vec![
            ("deadline_ns", deadline.as_nanos() as f64),
            ("partial_rate", partials as f64 / trips.max(1) as f64),
            ("failed_rate", failures as f64 / trips.max(1) as f64),
            ("mean_prefix_len", recovered as f64 / partials.max(1) as f64),
        ],
    });

    // Observation latency: cancel a running selection and measure how
    // long the run takes to notice and unwind. The sample starts at the
    // `cancel()` call, so submission/startup cost is excluded.
    let observe = RefCell::new(Vec::new());
    group.bench_function(BenchmarkId::from_parameter("cancel-observe"), |b| {
        b.iter(|| {
            let token = CancelToken::new();
            let worker = {
                let service = Arc::clone(&service);
                let request = request.clone();
                let token = token.clone();
                std::thread::spawn(move || {
                    service
                        .select_with(&request, &token, OnDeadline::Fail)
                        .is_err()
                })
            };
            // Let the selection get going before pulling the plug.
            std::thread::sleep(Duration::from_nanos((full_run / 4).max(50_000) as u64));
            let t = Instant::now();
            token.cancel();
            let cancelled = worker.join().expect("worker never panics");
            observe.borrow_mut().push(t.elapsed());
            std::hint::black_box(cancelled)
        })
    });
    cases.push(Case {
        name: "cancel-observe",
        samples: observe.into_inner(),
        metrics: vec![("full_run_median_ns", full_run as f64)],
    });

    group.finish();
    write_json(&cases);
}

criterion_group!(benches, bench_cancellation);
criterion_main!(benches);
