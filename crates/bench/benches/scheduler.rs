//! Criterion microbenchmark for the `Scheduler` front-end, plus a
//! machine-readable `BENCH_scheduler.json` summary so the perf
//! trajectory is comparable across PRs without parsing console output.
//!
//! Three cases over one warm n = 2000 corpus:
//!
//! * **storm/naive-serial** — a duplicate storm of `STORM` identical
//!   requests answered one by one through `GrainService::select`; every
//!   request pays the full (warm) greedy maximization.
//! * **storm/scheduler-coalesced** — the same storm staged on a paused
//!   scheduler and released: the queue coalesces all of it into one
//!   selection and fans the report out, so the cost is ~one greedy plus
//!   fan-out overhead — the headline win of the queueing front-end.
//! * **deadline-shed** — a mixed burst where half the requests carry a
//!   deadline that expires while staged; measures how fast the scheduler
//!   sheds dead work and answers the rest (the shed rate is recorded in
//!   the JSON).
//!
//! On this container (1 cpu) the coalescing speedup is purely algorithmic
//! — one greedy instead of `STORM` — so it survives any core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grain_core::{
    Budget, GrainConfig, GrainService, ScheduledRequest, Scheduler, SchedulerConfig,
    SelectionRequest, Ticket,
};
use grain_data::synthetic::papers_like;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STORM: usize = 32;
const SHED_BURST: usize = 12;

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
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut body = String::from("{\n  \"bench\": \"scheduler\",\n  \"cases\": [\n");
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
        let path = format!("{dir}/BENCH_scheduler.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn bench_scheduler(c: &mut Criterion) {
    let dataset = papers_like(2_000, 31);
    let budget = 2 * dataset.num_classes;
    // No greedy trace cache: the naive storm pays one greedy run per
    // request, which is what coalescing is measured against.
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
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);

    // Duplicate storm, answered naively: STORM full (warm) selections.
    let naive = RefCell::new(Vec::new());
    group.bench_function(
        BenchmarkId::from_parameter(format!("storm{STORM}/naive-serial")),
        |b| {
            b.iter(|| {
                let t = Instant::now();
                let mut answered = 0usize;
                for _ in 0..STORM {
                    answered += service
                        .select(&request)
                        .expect("warm request")
                        .outcomes
                        .len();
                }
                naive.borrow_mut().push(t.elapsed());
                std::hint::black_box(answered)
            })
        },
    );
    cases.push(Case {
        name: "storm/naive-serial",
        samples: naive.into_inner(),
        metrics: vec![
            ("storm_size", STORM as f64),
            ("selections_executed", STORM as f64),
        ],
    });

    // The same storm through the scheduler: coalesced to ONE selection.
    let scheduler = Scheduler::new(
        Arc::clone(&service),
        SchedulerConfig {
            start_paused: true,
            ..SchedulerConfig::default()
        },
    );
    let coalesced = RefCell::new(Vec::new());
    let before = scheduler.stats();
    group.bench_function(
        BenchmarkId::from_parameter(format!("storm{STORM}/scheduler-coalesced")),
        |b| {
            b.iter(|| {
                scheduler.pause();
                let tickets: Vec<Ticket> = (0..STORM)
                    .map(|_| scheduler.submit(request.clone()).expect("admitted"))
                    .collect();
                let t = Instant::now();
                scheduler.resume();
                let mut answered = 0usize;
                for ticket in tickets {
                    answered += ticket.wait().expect("report").outcomes.len();
                }
                coalesced.borrow_mut().push(t.elapsed());
                std::hint::black_box(answered)
            })
        },
    );
    let delta_selections = scheduler.stats().selections - before.selections;
    let rounds = coalesced.borrow().len();
    cases.push(Case {
        name: "storm/scheduler-coalesced",
        samples: coalesced.into_inner(),
        metrics: vec![
            ("storm_size", STORM as f64),
            (
                "selections_per_storm",
                delta_selections as f64 / rounds.max(1) as f64,
            ),
        ],
    });

    // Deadline shedding: half the burst expires while staged.
    let shed_scheduler = Scheduler::new(
        Arc::clone(&service),
        SchedulerConfig {
            start_paused: true,
            ..SchedulerConfig::default()
        },
    );
    let shed = RefCell::new(Vec::new());
    let before = shed_scheduler.stats();
    group.bench_function(BenchmarkId::from_parameter("deadline-shed"), |b| {
        b.iter(|| {
            shed_scheduler.pause();
            let (mut served, mut shed_count) = (0usize, 0usize);
            let tickets: Vec<Ticket> = (0..SHED_BURST)
                .filter_map(|i| {
                    // Distinct budgets: SHED_BURST distinct work items.
                    let r = SelectionRequest::new(
                        "papers",
                        GrainConfig::ball_d(),
                        Budget::Fixed(budget + i),
                    )
                    .with_candidates(dataset.split.train.clone());
                    let scheduled = if i % 2 == 0 {
                        ScheduledRequest::new(r).with_deadline_in(Duration::from_millis(2))
                    } else {
                        ScheduledRequest::new(r)
                    };
                    match shed_scheduler.submit(scheduled) {
                        Ok(ticket) => Some(ticket),
                        // On a contended host the 2ms deadline can lapse
                        // before admission: same bucket as an in-queue shed.
                        Err(_) => {
                            shed_count += 1;
                            None
                        }
                    }
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10)); // deadlines lapse in-queue
            let t = Instant::now();
            shed_scheduler.resume();
            for ticket in tickets {
                match ticket.wait() {
                    Ok(_) => served += 1,
                    Err(_) => shed_count += 1,
                }
            }
            shed.borrow_mut().push(t.elapsed());
            std::hint::black_box((served, shed_count))
        })
    });
    let after = shed_scheduler.stats();
    let submitted = (after.enqueued + after.coalesced) - (before.enqueued + before.coalesced);
    let shed_total = after.shed_deadline - before.shed_deadline;
    cases.push(Case {
        name: "deadline-shed",
        samples: shed.into_inner(),
        metrics: vec![
            ("burst_size", SHED_BURST as f64),
            ("shed_rate", shed_total as f64 / submitted.max(1) as f64),
        ],
    });

    group.finish();
    write_json(&cases);
}

criterion_group!(benches, bench_scheduler);
criterion_main!(benches);
