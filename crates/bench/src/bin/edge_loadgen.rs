//! `edge_loadgen` — open-loop load generator for the serving edge,
//! emitting `results/BENCH_edge.json` (or `BENCH_edge_pools.json` for the
//! distinct-pools mix).
//!
//! Drives two tenants (gold, weight 10; bronze, weight 1) through real
//! sockets at a ladder of offered rates, one stage per rate. Senders
//! pace requests open-loop (send at the scheduled instant regardless of
//! outstanding responses, pipelined down one connection per tenant);
//! receivers match responses back by correlation id and record exact
//! latencies. Every request carries a deadline, so when the offered
//! load exceeds the warm-selection capacity the scheduler *sheds* the
//! backlog instead of stretching the queue — the JSON records, per
//! stage and at saturation: exact p50/p99 latency, shed rate
//! (admission refusals + deadline drops over sent), and goodput
//! (completed selections per second).
//!
//! By default the binary embeds its own `EdgeServer` over a synthetic
//! corpus (self-contained, used by the CI smoke run under
//! `GRAIN_EDGE_MAX_CONNS`); point `--addr HOST:PORT` at a running
//! `grain-edge` to load-test over a real network instead.
//!
//! Flags: `--addr HOST:PORT`, `--nodes N` (default 2000), `--rates
//! CSV` (offered rps per tenant per stage, default `100,400,1600`),
//! `--stage-secs N` (default 2), `--deadline-ms N` (default 200),
//! `--distinct N` (budgets cycled in the request mix, default 4 —
//! small = duplicate-heavy/coalescing-bound, large = compute-bound),
//! `--mix budgets|pools` (default `budgets`: every request selects from
//! the whole train split; `pools`: every request carries its own seeded
//! random half of it at budget 64, so neither coalescing nor the greedy
//! trace cache can reuse work — report both), `--seed N`, `--fast`
//! (shrinks everything for smoke runs).

use grain_bench::cli::Flags;
use grain_core::cancel::OnDeadline;
use grain_core::edge::proto::{self, Frame, WireRequest, CODE_RATE_LIMITED};
use grain_core::edge::{EdgeClient, EdgeConfig, EdgeServer, TenantSpec};
use grain_core::{
    Budget, GrainConfig, GrainService, SchedulerConfig, SelectionRequest, TraceStats,
};
use grain_data::synthetic::papers_like;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["gold", "bronze"];

/// Budget of every request in the `pools` mix.
const POOL_BUDGET: usize = 64;

/// Which request stream the tenants send.
#[derive(Clone, Copy, PartialEq)]
enum Mix {
    /// The whole train split, `distinct` budgets cycled.
    Budgets,
    /// A fresh random half of the train split per request, one budget.
    Pools,
}

#[derive(Clone, Default)]
struct TenantOutcome {
    tenant: String,
    sent: usize,
    ok: usize,
    rate_limited: usize,
    shed: usize,
    other_errors: usize,
    /// Exact latencies of `ok` responses, milliseconds.
    latencies_ms: Vec<f64>,
}

impl TenantOutcome {
    fn percentile(&self, q: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

struct StageResult {
    offered_rps_per_tenant: u64,
    wall_secs: f64,
    tenants: Vec<TenantOutcome>,
}

impl StageResult {
    fn sent(&self) -> usize {
        self.tenants.iter().map(|t| t.sent).sum()
    }
    fn ok(&self) -> usize {
        self.tenants.iter().map(|t| t.ok).sum()
    }
    fn goodput_rps(&self) -> f64 {
        self.ok() as f64 / self.wall_secs.max(1e-9)
    }
    fn shed_rate(&self) -> f64 {
        let refused: usize = self.tenants.iter().map(|t| t.rate_limited + t.shed).sum();
        refused as f64 / (self.sent().max(1)) as f64
    }
    fn pooled_percentile(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self
            .tenants
            .iter()
            .flat_map(|t| t.latencies_ms.iter().copied())
            .collect();
        if all.is_empty() {
            return 0.0;
        }
        all.sort_by(f64::total_cmp);
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
        all[rank - 1]
    }
}

/// The `i`-th request of a tenant. Under [`Mix::Budgets`], `distinct`
/// budgets cycle round-robin over one pool. Small values make the traffic
/// duplicate-heavy (every `distinct`-th request is an exact duplicate, so
/// the scheduler's coalescing gets real wire traffic to merge and the
/// edge saturates on transport, not compute); large values defeat
/// coalescing and saturate the scheduler itself, which is where
/// queue-full and deadline shedding appear — though every budget up to
/// the longest one served is then a greedy trace replay. [`Mix::Pools`]
/// gives each request its own seeded half of the pool, which defeats
/// both.
fn request_for(
    i: u64,
    tenant_seed: u64,
    mix: Mix,
    distinct: u64,
    base_budget: usize,
    candidates: &[u32],
) -> SelectionRequest {
    let (budget, pool) = match mix {
        Mix::Budgets => (base_budget + (i % distinct) as usize, candidates.to_vec()),
        Mix::Pools => {
            let mut pool = candidates.to_vec();
            pool.shuffle(&mut StdRng::seed_from_u64(tenant_seed << 32 | i));
            pool.truncate(candidates.len() / 2);
            (POOL_BUDGET, pool)
        }
    };
    SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(budget))
        .with_candidates(pool)
        // The seed is part of the coalesce key (results are unaffected):
        // tagging each tenant's traffic with its own seed keeps duplicate
        // suppression *within* a tenant but stops tenants from riding each
        // other's slots, so per-tenant shed/goodput numbers are honest.
        .with_seed(tenant_seed)
}

#[allow(clippy::too_many_arguments)]
fn run_tenant_stage(
    addr: std::net::SocketAddr,
    tenant: &str,
    rate_rps: u64,
    stage: Duration,
    deadline_ms: u32,
    mix: Mix,
    distinct: u64,
    base_budget: usize,
    candidates: Arc<Vec<u32>>,
) -> TenantOutcome {
    let tenant_seed = 1 + TENANTS.iter().position(|t| *t == tenant).unwrap_or(0) as u64;
    let client = match EdgeClient::connect(addr, tenant, "") {
        Ok(client) => client,
        Err(e) => {
            eprintln!("{tenant}: connect failed: {e}");
            return TenantOutcome {
                tenant: tenant.to_string(),
                ..TenantOutcome::default()
            };
        }
    };
    let write_stream = client.into_stream();
    let read_stream = write_stream.try_clone().expect("stream clones");
    let in_flight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::default();
    let sent = Arc::new(AtomicUsize::new(0));
    let done_sending = Arc::new(AtomicBool::new(false));

    // --- Receiver: match responses by id, record exact latency --------
    let recv_in_flight = Arc::clone(&in_flight);
    let recv_sent = Arc::clone(&sent);
    let recv_done = Arc::clone(&done_sending);
    let tenant_name = tenant.to_string();
    let receiver = std::thread::spawn(move || {
        let mut stream = read_stream;
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut outcome = TenantOutcome {
            tenant: tenant_name,
            ..TenantOutcome::default()
        };
        loop {
            let received = outcome.ok + outcome.rate_limited + outcome.shed + outcome.other_errors;
            if recv_done.load(Ordering::Acquire) && received >= recv_sent.load(Ordering::Acquire) {
                break;
            }
            match proto::read_frame(&mut stream, proto::DEFAULT_MAX_FRAME_LEN) {
                Ok(Frame::Response(report)) => {
                    let sent_at = recv_in_flight.lock().unwrap().remove(&report.request_id);
                    if let Some(sent_at) = sent_at {
                        outcome
                            .latencies_ms
                            .push(sent_at.elapsed().as_secs_f64() * 1e3);
                    }
                    outcome.ok += 1;
                }
                Ok(Frame::Error(err)) => {
                    recv_in_flight.lock().unwrap().remove(&err.request_id);
                    match err.code {
                        CODE_RATE_LIMITED => outcome.rate_limited += 1,
                        // QueueFull + the three deadline stages: load the
                        // scheduler refused or dropped — the shed signal.
                        8..=11 => outcome.shed += 1,
                        _ => outcome.other_errors += 1,
                    }
                }
                Ok(_) => outcome.other_errors += 1,
                Err(_) => break, // drain timeout or peer gone
            }
        }
        outcome
    });

    // --- Sender: open-loop pacing -------------------------------------
    let interval = Duration::from_secs_f64(1.0 / rate_rps as f64);
    let started = Instant::now();
    let mut stream = write_stream;
    let mut i = 0u64;
    while started.elapsed() < stage {
        let target = started + interval.mul_f64(i as f64);
        if let Some(wait) = target.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let request_id = i + 1;
        in_flight.lock().unwrap().insert(request_id, Instant::now());
        let frame = Frame::Request(Box::new(WireRequest {
            request_id,
            priority: 0,
            deadline_ms,
            on_deadline: OnDeadline::Fail,
            request: request_for(i, tenant_seed, mix, distinct, base_budget, &candidates),
        }));
        if proto::write_frame(&mut stream, &frame).is_err() {
            in_flight.lock().unwrap().remove(&request_id);
            break;
        }
        sent.fetch_add(1, Ordering::Release);
        i += 1;
    }
    done_sending.store(true, Ordering::Release);

    let mut outcome = receiver.join().expect("receiver joins");
    outcome.sent = sent.load(Ordering::Acquire);
    outcome
}

fn write_json(
    nodes: usize,
    deadline_ms: u32,
    mix: Mix,
    distinct: u64,
    stages: &[StageResult],
    saturation: &StageResult,
    traces: Option<TraceStats>,
) {
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut body = String::from("{\n  \"bench\": \"edge\",\n");
    body.push_str(&format!("  \"corpus_nodes\": {nodes},\n"));
    body.push_str(&format!("  \"deadline_ms\": {deadline_ms},\n"));
    match mix {
        Mix::Budgets => {
            body.push_str("  \"mix\": \"budgets\",\n");
            body.push_str(&format!("  \"distinct_requests_in_mix\": {distinct},\n"));
        }
        Mix::Pools => {
            body.push_str("  \"mix\": \"pools\",\n");
            body.push_str(&format!("  \"budget\": {POOL_BUDGET},\n"));
        }
    }
    body.push_str("  \"tenant_weights\": {\"gold\": 10, \"bronze\": 1},\n");
    if let Some(traces) = traces {
        // Selections that ran greedy vs replayed a cached run: the share
        // of this mix the greedy trace cache could serve.
        body.push_str(&format!(
            "  \"greedy_runs\": {}, \"trace_replays\": {},\n",
            traces.runs, traces.replays
        ));
    }
    body.push_str("  \"stages\": [\n");
    for (s, stage) in stages.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"offered_rps_per_tenant\": {}, \"wall_secs\": {:.3}, \
             \"goodput_rps\": {:.1}, \"shed_rate\": {:.4}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"tenants\": [\n",
            stage.offered_rps_per_tenant,
            stage.wall_secs,
            stage.goodput_rps(),
            stage.shed_rate(),
            stage.pooled_percentile(0.50),
            stage.pooled_percentile(0.99),
        ));
        for (t, tenant) in stage.tenants.iter().enumerate() {
            body.push_str(&format!(
                "      {{\"tenant\": \"{}\", \"sent\": {}, \"ok\": {}, \
                 \"rate_limited\": {}, \"shed\": {}, \"other_errors\": {}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
                tenant.tenant,
                tenant.sent,
                tenant.ok,
                tenant.rate_limited,
                tenant.shed,
                tenant.other_errors,
                tenant.percentile(0.50),
                tenant.percentile(0.99),
                if t + 1 == stage.tenants.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        body.push_str(if s + 1 == stages.len() {
            "    ]}\n"
        } else {
            "    ]},\n"
        });
    }
    body.push_str("  ],\n");
    let gold_ok = saturation
        .tenants
        .iter()
        .find(|t| t.tenant == "gold")
        .map_or(0, |t| t.ok);
    let bronze_ok = saturation
        .tenants
        .iter()
        .find(|t| t.tenant == "bronze")
        .map_or(0, |t| t.ok);
    body.push_str(&format!(
        "  \"saturation\": {{\"offered_rps_per_tenant\": {}, \"goodput_rps\": {:.1}, \
         \"shed_rate\": {:.4}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
         \"gold_ok\": {gold_ok}, \"bronze_ok\": {bronze_ok}}}\n}}\n",
        saturation.offered_rps_per_tenant,
        saturation.goodput_rps(),
        saturation.shed_rate(),
        saturation.pooled_percentile(0.50),
        saturation.pooled_percentile(0.99),
    ));
    if std::fs::create_dir_all(&dir).is_ok() {
        let name = match mix {
            Mix::Budgets => "BENCH_edge.json",
            Mix::Pools => "BENCH_edge_pools.json",
        };
        let path = format!("{dir}/{name}");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

fn main() {
    let flags = Flags::from_env();
    let nodes: usize = flags
        .get("nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if flags.fast { 500 } else { 2000 });
    let stage_secs: u64 = flags
        .get("stage-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if flags.fast { 1 } else { 2 });
    let deadline_ms: u32 = flags
        .get("deadline-ms")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let distinct: u64 = flags
        .get("distinct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let mix = match flags.get("mix").unwrap_or("budgets") {
        "budgets" => Mix::Budgets,
        "pools" => Mix::Pools,
        other => panic!("--mix must be budgets or pools, got {other:?}"),
    };
    let rates: Vec<u64> = flags
        .get("rates")
        .map(|csv| {
            csv.split(',')
                .filter_map(|v| v.trim().parse().ok())
                .collect()
        })
        .unwrap_or_else(|| {
            if flags.fast {
                vec![50, 200]
            } else {
                vec![100, 400, 1600]
            }
        });

    // --- Target: external `grain-edge`, or an embedded server ---------
    let dataset = papers_like(nodes, flags.seed);
    let base_budget = 2 * dataset.num_classes;
    let candidates = Arc::new(dataset.split.train.clone());
    let service = Arc::new(GrainService::new());
    let embedded = if flags.get("addr").is_none() {
        service
            .register_graph("papers", dataset.graph.clone(), dataset.features.clone())
            .expect("corpus registers");
        let prime =
            SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(base_budget))
                .with_candidates(dataset.split.train.clone());
        service.select(&prime).expect("priming selection succeeds");
        let max_connections = std::env::var("GRAIN_EDGE_MAX_CONNS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        let config = EdgeConfig {
            max_connections,
            tenants: vec![
                // Buckets are provisioned above the ladder's top rate so
                // the measured shedding isolates scheduler saturation,
                // not admission throttling.
                TenantSpec::open("gold", 10).with_rate(100_000.0, 10_000.0),
                TenantSpec::open("bronze", 1).with_rate(100_000.0, 10_000.0),
            ],
            // Production defaults: coalescing and ride-along grouping
            // stay on. Both are work-conserving and shared across
            // tenants, so wire-level *completed counts* only mildly
            // favor the heavy tenant — the exact 10:1 dispatch ratio is
            // proven by the deterministic fairness tests instead.
            scheduler: SchedulerConfig::default(),
            ..EdgeConfig::default()
        };
        Some(EdgeServer::bind("127.0.0.1:0", Arc::clone(&service), config).expect("edge binds"))
    } else {
        None
    };
    let addr: std::net::SocketAddr = match (&embedded, flags.get("addr")) {
        (Some(server), _) => server.local_addr(),
        (None, Some(addr)) => addr.parse().expect("--addr parses as HOST:PORT"),
        (None, None) => unreachable!(),
    };
    // Warm the corpus over the wire before measuring (cold-build time is
    // the store/persistence benches' story, not the serving edge's).
    if let Ok(mut client) = EdgeClient::connect(addr, "gold", "") {
        let _ = client.request(
            request_for(0, 0, mix, distinct, base_budget, &candidates),
            grain_core::edge::client::RequestOptions::default(),
        );
    }

    println!(
        "edge loadgen: target {addr}, corpus n={nodes}, stages {rates:?} rps/tenant × {stage_secs}s, \
         deadline {deadline_ms}ms, {} mix",
        match mix {
            Mix::Budgets => format!("{distinct}-budget"),
            Mix::Pools => format!("distinct-pool (budget {POOL_BUDGET})"),
        }
    );
    let stage = Duration::from_secs(stage_secs);
    let mut results: Vec<StageResult> = Vec::new();
    for &rate in &rates {
        let started = Instant::now();
        let handles: Vec<_> = TENANTS
            .iter()
            .map(|&tenant| {
                let candidates = Arc::clone(&candidates);
                std::thread::spawn(move || {
                    run_tenant_stage(
                        addr,
                        tenant,
                        rate,
                        stage,
                        deadline_ms,
                        mix,
                        distinct,
                        base_budget,
                        candidates,
                    )
                })
            })
            .collect();
        let tenants: Vec<TenantOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("tenant stage joins"))
            .collect();
        let result = StageResult {
            offered_rps_per_tenant: rate,
            wall_secs: started.elapsed().as_secs_f64(),
            tenants,
        };
        println!(
            "stage {rate:>5} rps/tenant: sent {:>6} ok {:>6} goodput {:>8.1}/s shed {:>6.2}% \
             p50 {:>7.2}ms p99 {:>7.2}ms",
            result.sent(),
            result.ok(),
            result.goodput_rps(),
            100.0 * result.shed_rate(),
            result.pooled_percentile(0.50),
            result.pooled_percentile(0.99),
        );
        results.push(result);
    }

    // Saturation = the stage with the highest goodput (offered load
    // beyond it only raises the shed rate).
    let saturation = results
        .iter()
        .max_by(|a, b| a.goodput_rps().total_cmp(&b.goodput_rps()))
        .expect("at least one stage");
    let traces = embedded.as_ref().and_then(|_| {
        let (engine, _) = service.engine("papers", &GrainConfig::ball_d()).ok()?;
        let stats = engine.lock().trace_stats();
        println!(
            "greedy runs {}, trace replays {} ({:.1} % replayed)",
            stats.runs,
            stats.replays,
            100.0 * stats.replays as f64 / (stats.runs + stats.replays).max(1) as f64
        );
        Some(stats)
    });
    write_json(
        nodes,
        deadline_ms,
        mix,
        distinct,
        &results,
        saturation,
        traces,
    );
    drop(embedded);
}
