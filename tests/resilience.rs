//! The resilience contract: cooperative cancellation stops work at
//! checkpoints without corrupting any cache, partial results are exact
//! prefixes of the uncancelled run, refcounted cancel never kills a
//! result a coalesced sibling still wants, and injected panics stay
//! isolated to the request that hit them.
//!
//! The `fault_injection` module (feature `fault-injection`) drives the
//! deterministic fail-point registry in `grain::core::fault`. The
//! registry is process-global, so every test that arms a site holds one
//! static mutex for its whole body — sites like `greedy.round` are
//! crossed by any concurrently running selection, and an armed fault
//! leaking into a sibling test would be a flake factory.

use grain::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn service_with(graphs: &[(&str, u64)]) -> Arc<GrainService> {
    let service = Arc::new(GrainService::new());
    for &(id, seed) in graphs {
        let dataset = grain::data::synthetic::papers_like(300, seed);
        service
            .register_graph(id, dataset.graph.clone(), dataset.features.clone())
            .unwrap();
    }
    service
}

fn request(graph: &str, budget: usize) -> SelectionRequest {
    SelectionRequest::new(graph, GrainConfig::ball_d(), Budget::Fixed(budget))
}

fn paused(service: &Arc<GrainService>) -> Scheduler {
    Scheduler::new(
        Arc::clone(service),
        SchedulerConfig {
            start_paused: true,
            ..SchedulerConfig::default()
        },
    )
}

/// Cancelling every ticket of a coalesced group — the last one mid-queue
/// — discards the slot without running it, while a sibling group is
/// untouched; cancelling only *some* tickets leaves the survivors'
/// answer bit-identical to the serial oracle.
#[test]
fn refcounted_cancel_detaches_waiters_and_only_the_last_stops_the_run() {
    let service = service_with(&[("papers", 71)]);
    let oracle = service.select(&request("papers", 8)).unwrap();

    let scheduler = paused(&service);
    let survivor = scheduler.submit(request("papers", 8)).unwrap();
    let quitters: Vec<Ticket> = (0..3)
        .map(|_| scheduler.submit(request("papers", 8)).unwrap())
        .collect();
    let doomed: Vec<Ticket> = (0..2)
        .map(|_| scheduler.submit(request("papers", 5)).unwrap())
        .collect();
    assert_eq!(scheduler.queue_depth(), 2);

    // Every waiter of the budget-5 slot cancels: that run never happens.
    for ticket in &doomed {
        ticket.cancel();
    }
    // Only some waiters of the budget-8 slot cancel: the run proceeds.
    for ticket in &quitters {
        ticket.cancel();
    }
    scheduler.resume();

    let report = survivor.wait().unwrap();
    assert_eq!(report.outcome().selected, oracle.outcome().selected);
    assert_eq!(
        report.outcome().objective_trace,
        oracle.outcome().objective_trace
    );
    assert!(!report.is_partial());
    for ticket in quitters.into_iter().chain(doomed) {
        assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);
    }
    while !scheduler.is_idle() {
        std::thread::yield_now();
    }
    let stats = scheduler.stats();
    assert_eq!(stats.cancelled, 5, "{stats:?}");
    assert_eq!(
        stats.selections, 1,
        "the fully-cancelled slot never ran: {stats:?}"
    );
    assert_eq!(stats.delivered, 1, "{stats:?}");
}

/// Cancelling a ticket whose selection may already be running (a cold
/// build, even) must resolve the ticket typed and leave the service
/// fully usable: whichever side of the race the cancel lands on, the
/// next identical request answers bit-identically to a fresh service.
#[test]
fn cancel_racing_a_cold_build_fails_typed_without_wedging_anything() {
    let fresh = service_with(&[("papers", 77)]);
    let oracle = fresh.select(&request("papers", 7)).unwrap();

    let service = service_with(&[("papers", 77)]);
    let scheduler = paused(&service);
    let ticket = scheduler.submit(request("papers", 7)).unwrap();
    scheduler.resume();
    // Race the cancel against the running cold build on purpose; the
    // contract must hold on both sides.
    std::thread::sleep(Duration::from_millis(2));
    ticket.cancel();
    assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);

    // No wedged latch, no torn artifact: the same request still answers,
    // byte-for-byte as a fresh service would.
    let retry = scheduler.submit(request("papers", 7)).unwrap();
    let report = retry.wait().unwrap();
    assert_eq!(report.outcome().selected, oracle.outcome().selected);
    assert_eq!(scheduler.stats().cancelled, 1);
}

/// A client that vanishes mid-flight takes its work with it: reader EOF
/// trips the `CancelToken` of everything the connection still has
/// queued, the slots are discarded without executing, and the server
/// keeps serving everyone else.
#[test]
fn client_disconnect_cancels_everything_still_outstanding() {
    use grain::core::edge::RequestOptions;
    let service = service_with(&[("papers", 71)]);
    let server = EdgeServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        EdgeConfig {
            max_connections: 4,
            tenants: vec![TenantSpec::open("gold", 1)],
            scheduler: SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
            ..EdgeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut client = EdgeClient::connect(addr, "gold", "").unwrap();
    for budget in [4, 5, 6] {
        client
            .send(request("papers", budget), RequestOptions::default())
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.scheduler().queue_depth() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "submissions never queued"
        );
        std::thread::sleep(Duration::from_millis(2));
    }

    client.abandon();
    // Reader EOF → every outstanding request's CancelToken trips.
    while server.scheduler().stats().cancelled < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "disconnect never cancelled the outstanding work: {:?}",
            server.scheduler().stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.stats().disconnect_cancels >= 1);

    // Released, the queue discards the cancelled slots without running
    // a single selection.
    server.scheduler().resume();
    while !server.scheduler().is_idle() {
        assert!(std::time::Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.scheduler().stats().selections, 0);

    // And the server is entirely unbothered.
    let mut fresh = EdgeClient::connect(addr, "gold", "").unwrap();
    let report = fresh
        .request(request("papers", 4), RequestOptions::default())
        .unwrap();
    assert_eq!(report.outcomes[0].selected.len(), 4);
}

#[cfg(feature = "fault-injection")]
mod fault_injection {
    use super::*;
    use grain::core::fault::{self, FaultAction, Schedule};
    use grain::core::{CancelToken, OnDeadline};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The fail-point registry is process-global: every test that arms a
    /// site holds this lock for its whole body so no sibling test crosses
    /// an armed site concurrently.
    fn serialize() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Disarms on drop so a failing assertion cannot leak an armed fault.
    struct Armed(&'static str);
    impl Armed {
        fn arm(site: &'static str, schedule: Schedule, action: FaultAction) -> Self {
            fault::arm(site, schedule, action);
            Self(site)
        }
    }
    impl Drop for Armed {
        fn drop(&mut self) {
            fault::disarm(self.0);
        }
    }

    /// The acceptance criterion of the cancellation layer: a deadline
    /// trip at *any* greedy round boundary degrades (under
    /// [`OnDeadline::Partial`]) to an exact byte-for-byte prefix of the
    /// uncancelled selection, while [`OnDeadline::Fail`] turns the same
    /// trip into the typed deadline error.
    #[test]
    fn deadline_trip_at_any_greedy_round_degrades_to_an_exact_prefix() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        let budget = 10;
        let oracle = service.select(&request("papers", budget)).unwrap();
        let full = &oracle.outcome().selected;
        assert_eq!(full.len(), budget);

        let mut shorter_than_full = 0;
        for round in 1..=budget as u64 {
            let armed = Armed::arm("greedy.round", Schedule::Nth(round), FaultAction::Cancel);
            let report = service
                .select_with(
                    &request("papers", budget),
                    &CancelToken::new(),
                    OnDeadline::Partial,
                )
                .expect("Partial policy degrades, not fails");
            assert!(report.is_partial(), "round {round} trip must be partial");
            let prefix = &report.outcome().selected;
            assert!(
                full.starts_with(prefix),
                "round {round}: partial result must be an exact prefix \
                 (got {prefix:?} vs full {full:?})"
            );
            assert!(
                prefix.len() < budget,
                "round {round}: a mid-run trip cannot reach the full budget"
            );
            assert_eq!(
                report.outcome().objective_trace,
                oracle.outcome().objective_trace[..prefix.len()],
                "round {round}: the prefix carries the oracle's trace"
            );
            if prefix.len() < budget - 1 {
                shorter_than_full += 1;
            }
            drop(armed);

            // The same trip under Fail is the typed error instead.
            let armed = Armed::arm("greedy.round", Schedule::Nth(round), FaultAction::Cancel);
            assert_eq!(
                service
                    .select_with(
                        &request("papers", budget),
                        &CancelToken::new(),
                        OnDeadline::Fail,
                    )
                    .unwrap_err(),
                GrainError::DeadlineExceeded {
                    stage: DeadlineStage::MidSelection
                },
                "round {round}: Fail policy surfaces the deadline"
            );
            drop(armed);
        }
        assert!(
            shorter_than_full > 0,
            "early trips must actually shorten the selection"
        );

        // The engine is undamaged: the uncancelled request still answers
        // bit-identically after all those cancelled runs.
        let again = service.select(&request("papers", budget)).unwrap();
        assert_eq!(&again.outcome().selected, full);
    }

    /// Cancellation is also observed between evaluation blocks inside a
    /// round (`cancel_check_every`), not only at round boundaries.
    #[test]
    fn eval_block_checkpoints_observe_cancellation_within_a_round() {
        let _guard = serialize();
        let service = service_with(&[("papers", 79)]);
        let config = GrainConfig {
            cancel_check_every: 8,
            ..GrainConfig::ball_d()
        };
        let req = SelectionRequest::new("papers", config, Budget::Fixed(10));
        let full = service.select(&req).unwrap().outcome().selected.clone();

        let _armed = Armed::arm("greedy.eval.block", Schedule::Nth(2), FaultAction::Cancel);
        let report = service
            .select_with(&req, &CancelToken::new(), OnDeadline::Partial)
            .expect("Partial policy degrades, not fails");
        assert!(report.is_partial());
        let prefix = &report.outcome().selected;
        assert!(prefix.len() < full.len(), "the trip was observed mid-run");
        assert!(full.starts_with(prefix), "still an exact prefix");
    }

    /// A request answered from the greedy trace cache crosses the same
    /// checkpoints as a fresh greedy run: a trip armed at any round or
    /// eval block yields the identical answer — picks, objective trace,
    /// evaluation count, completion — whether the service replays or runs.
    #[test]
    fn replayed_requests_trip_at_the_same_checkpoints_as_fresh_runs() {
        let _guard = serialize();
        let cached = service_with(&[("papers", 71)]);
        let fresh = GrainService::new().with_trace_cache(false);
        let dataset = grain::data::synthetic::papers_like(300, 71);
        fresh
            .register_graph("papers", dataset.graph, dataset.features)
            .unwrap();
        let mut partials = 0;
        for algorithm in [GreedyAlgorithm::Lazy, GreedyAlgorithm::Plain] {
            let config = GrainConfig {
                algorithm,
                cancel_check_every: 64,
                ..GrainConfig::ball_d()
            };
            let req = SelectionRequest::new("papers", config, Budget::Fixed(10));
            cached.select(&req).unwrap(); // primes the trace cache
            fresh.select(&req).unwrap(); // warms the artifacts only
            for (site, trips) in [("greedy.round", 1..=11u64), ("greedy.eval.block", 1..=8)] {
                for nth in trips {
                    let answer = |service: &GrainService| {
                        let _armed = Armed::arm(site, Schedule::Nth(nth), FaultAction::Cancel);
                        service.select_with(&req, &CancelToken::new(), OnDeadline::Partial)
                    };
                    let (replayed, run) = (answer(&cached), answer(&fresh));
                    let what = format!("{algorithm:?} {site} #{nth}");
                    match (replayed, run) {
                        (Ok(a), Ok(b)) => {
                            let (a, b) = (a.outcome(), b.outcome());
                            assert!(a.replayed && !b.replayed, "{what}");
                            assert_eq!(a.selected, b.selected, "{what}");
                            assert_eq!(a.objective_trace, b.objective_trace, "{what}");
                            assert_eq!(a.evaluations, b.evaluations, "{what}");
                            assert_eq!(a.completion, b.completion, "{what}");
                            partials += usize::from(a.is_partial());
                        }
                        (a, b) => assert_eq!(a.err(), b.err(), "{what}"),
                    }
                }
            }
        }
        assert!(partials > 10, "the armed trips must land mid-greedy");
    }

    fn assert_same_outcome(got: &SelectionOutcome, want: &SelectionOutcome, what: &str) {
        assert_eq!(got.selected, want.selected, "{what}: selected");
        assert_eq!(got.objective_trace, want.objective_trace, "{what}: trace");
        assert_eq!(got.sigma, want.sigma, "{what}: sigma");
        assert_eq!(
            got.diversity_value.to_bits(),
            want.diversity_value.to_bits(),
            "{what}: diversity"
        );
        assert_eq!(got.evaluations, want.evaluations, "{what}: evaluations");
        assert_eq!(
            got.candidates_after_prune, want.candidates_after_prune,
            "{what}: pool"
        );
        assert_eq!(got.completion, want.completion, "{what}: completion");
    }

    /// A `Budget::Sweep` runs greedy once, at its longest budget, so one
    /// trip mid-greedy cuts every budget at once. At every round and
    /// eval-block trip, for unsorted budgets, replayed and run, the sweep
    /// must answer exactly what its committed prefix covers: under
    /// `Partial`, budgets in request order come back complete (each equal
    /// to its one-shot run) until the first one the prefix does not
    /// cover, which comes back partial (equal to a one-shot run at the
    /// longest budget under the same trip) and ends the report; under
    /// `Fail`, any uncovered budget fails the request typed.
    #[test]
    fn a_sweep_tripped_mid_greedy_answers_exactly_what_its_prefix_covers() {
        let _guard = serialize();
        let dataset = grain::data::synthetic::papers_like(300, 71);
        let train = dataset.split.train.clone();
        let service = |trace_cache: bool| {
            let service = GrainService::new().with_trace_cache(trace_cache);
            service
                .register_graph("papers", dataset.graph.clone(), dataset.features.clone())
                .unwrap();
            service
        };
        let (cached, uncached) = (service(true), service(false));
        let budgets = vec![9usize, 3, 18, 6];
        let longest = 18;
        let (mut partials, mut completes_before_partial) = (0, 0);
        for algorithm in [GreedyAlgorithm::Lazy, GreedyAlgorithm::Plain] {
            let config = GrainConfig {
                algorithm,
                cancel_check_every: 32,
                ..GrainConfig::ball_d()
            };
            let sweep = SelectionRequest::new("papers", config, Budget::Sweep(budgets.clone()))
                .with_candidates(train.clone());
            let mut oracle =
                SelectionEngine::new(config, &dataset.graph, &dataset.features).unwrap();
            oracle.set_trace_cache(false);
            let one_shot: Vec<SelectionOutcome> =
                budgets.iter().map(|&b| oracle.select(&train, b)).collect();
            cached.select(&sweep).unwrap(); // primes the trace cache
            uncached.select(&sweep).unwrap(); // warms the artifacts only

            let trips = [
                ("greedy.round", (1..=longest as u64 + 1).collect::<Vec<_>>()),
                ("greedy.eval.block", vec![1, 2, 3, 5, 8, 13, 21, 34, 55, 89]),
            ];
            for (site, nths) in trips {
                for nth in nths {
                    let armed = |run: &mut dyn FnMut()| {
                        let _armed = Armed::arm(site, Schedule::Nth(nth), FaultAction::Cancel);
                        run();
                    };
                    // The oracle trip: a fresh one-shot run at the longest
                    // budget, stopped at the same checkpoint.
                    let mut tripped = None;
                    armed(&mut || {
                        tripped = Some(
                            oracle
                                .select_with_cancel(
                                    config.variant,
                                    &train,
                                    longest,
                                    &CancelToken::new(),
                                    OnDeadline::Partial,
                                )
                                .unwrap(),
                        );
                    });
                    let tripped = tripped.unwrap();
                    let prefix = tripped.selected.len();
                    // Request order up to and including the first budget
                    // the prefix does not cover.
                    let answered = if tripped.is_partial() {
                        budgets.iter().position(|&b| b > prefix).unwrap() + 1
                    } else {
                        budgets.len()
                    };
                    for (name, service) in [("replayed", &cached), ("run", &uncached)] {
                        let what = format!("{algorithm:?} {site} #{nth} {name}");
                        let mut report = None;
                        armed(&mut || {
                            report = Some(service.select_with(
                                &sweep,
                                &CancelToken::new(),
                                OnDeadline::Partial,
                            ));
                        });
                        let report = report.unwrap().expect("Partial degrades, not fails");
                        assert_eq!(report.budgets, budgets[..answered], "{what}");
                        assert_eq!(report.outcomes.len(), answered, "{what}");
                        assert_eq!(report.completion, tripped.completion, "{what}");
                        for (i, outcome) in report.outcomes.iter().enumerate() {
                            let what = format!("{what} b={}", budgets[i]);
                            assert_eq!(outcome.replayed, name == "replayed", "{what}");
                            if i + 1 == answered && tripped.is_partial() {
                                assert_same_outcome(outcome, &tripped, &what);
                                partials += 1;
                            } else {
                                assert_same_outcome(outcome, &one_shot[i], &what);
                                completes_before_partial += usize::from(tripped.is_partial());
                            }
                        }

                        let mut failed = None;
                        armed(&mut || {
                            failed = Some(service.select_with(
                                &sweep,
                                &CancelToken::new(),
                                OnDeadline::Fail,
                            ));
                        });
                        match failed.unwrap() {
                            Err(e) => {
                                assert!(tripped.is_partial(), "{what}: {e:?}");
                                assert_eq!(
                                    e,
                                    GrainError::DeadlineExceeded {
                                        stage: DeadlineStage::MidSelection
                                    },
                                    "{what}"
                                );
                            }
                            Ok(report) => {
                                assert!(!tripped.is_partial(), "{what}: Fail must fail");
                                for (outcome, want) in report.outcomes.iter().zip(&one_shot) {
                                    assert_same_outcome(outcome, want, &what);
                                }
                            }
                        }
                    }
                }
            }
            // The trips cached nothing torn: the sweep still replays whole.
            let again = cached.select(&sweep).unwrap();
            for (i, outcome) in again.outcomes.iter().enumerate() {
                assert!(outcome.replayed);
                assert_same_outcome(outcome, &one_shot[i], "after the trips");
            }
        }
        assert!(partials > 20, "the armed trips must land mid-greedy");
        assert!(
            completes_before_partial > 10,
            "some trips must land after a shorter budget is covered"
        );
    }

    /// An injected panic in one request of a batch resolves that request
    /// as [`GrainError::SelectionPanicked`] and leaves every sibling's
    /// answer bit-identical to the serial oracle — no worker dies, no
    /// latch wedges, no result corrupts.
    #[test]
    fn injected_panic_isolates_to_its_request_and_siblings_stay_bit_identical() {
        let _guard = serialize();
        let service = service_with(&[("cora", 81), ("pubmed", 83)]);
        let requests = vec![request("cora", 6), request("pubmed", 6), request("cora", 9)];
        let oracle: Vec<SelectionReport> = requests
            .iter()
            .map(|r| service.select(r).unwrap())
            .collect();

        // Serial batch workers make "first request crosses first"
        // deterministic: exactly requests[0] panics.
        let _armed = Armed::arm("service.request", Schedule::Nth(1), FaultAction::Panic);
        let results = service.submit_batch_with_workers(&requests, 1);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &GrainError::SelectionPanicked {
                graph: "cora".into()
            }
        );
        for (i, (result, want)) in results.iter().zip(&oracle).enumerate().skip(1) {
            let got = result.as_ref().expect("siblings are untouched");
            assert_eq!(
                got.outcome().selected,
                want.outcome().selected,
                "sibling {i} must be bit-identical to the serial oracle"
            );
            assert_eq!(
                got.outcome().objective_trace,
                want.outcome().objective_trace
            );
        }
    }

    /// The same isolation holds through the scheduler: the panicked
    /// request's ticket resolves typed, the `panicked` counter records
    /// it, and the worker keeps serving.
    #[test]
    fn scheduler_workers_survive_injected_panics() {
        let _guard = serialize();
        let service = service_with(&[("cora", 81), ("pubmed", 83)]);
        let oracle = service.select(&request("pubmed", 7)).unwrap();
        let scheduler = Scheduler::new(
            Arc::clone(&service),
            SchedulerConfig {
                workers: 1, // FIFO dispatch: the first submission panics
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let _armed = Armed::arm("service.request", Schedule::Nth(1), FaultAction::Panic);
        let doomed = scheduler.submit(request("cora", 7)).unwrap();
        let fine = scheduler.submit(request("pubmed", 7)).unwrap();
        scheduler.resume();

        assert_eq!(
            doomed.wait().unwrap_err(),
            GrainError::SelectionPanicked {
                graph: "cora".into()
            }
        );
        let report = fine.wait().unwrap();
        assert_eq!(report.outcome().selected, oracle.outcome().selected);
        // The worker survived; it still answers new work.
        let after = scheduler.submit(request("cora", 4)).unwrap();
        assert_eq!(after.wait().unwrap().outcome().selected.len(), 4);
        let stats = scheduler.stats();
        assert_eq!(stats.panicked, 1, "{stats:?}");
    }

    /// A cancellation landing at an artifact-build boundary (cold build)
    /// fails typed under *both* policies — artifacts are never partial —
    /// caches nothing, and the next identical request rebuilds cleanly.
    #[test]
    fn cancel_at_a_cold_build_boundary_fails_typed_and_caches_nothing() {
        let _guard = serialize();
        let fresh = service_with(&[("papers", 91)]);
        let oracle = fresh.select(&request("papers", 6)).unwrap();

        let service = service_with(&[("papers", 91)]);
        for policy in [OnDeadline::Fail, OnDeadline::Partial] {
            let _armed = Armed::arm(
                "engine.build.propagation",
                Schedule::Nth(1),
                FaultAction::Cancel,
            );
            assert_eq!(
                service
                    .select_with(&request("papers", 6), &CancelToken::new(), policy)
                    .unwrap_err(),
                GrainError::DeadlineExceeded {
                    stage: DeadlineStage::MidSelection
                },
                "artifact builds are never partial ({policy:?})"
            );
        }
        // Disarmed: the cold build now completes and answers exactly as a
        // fresh service would — nothing half-built was cached.
        let report = service.select(&request("papers", 6)).unwrap();
        assert_eq!(report.outcome().selected, oracle.outcome().selected);
    }

    /// A scheduled waiter that opted into partial results receives the
    /// anytime prefix when a fault trips the deadline mid-run, while a
    /// Fail-policy waiter of the same coalesced slot receives the typed
    /// error; the `partial` counter records the degraded delivery.
    #[test]
    fn partial_and_fail_waiters_of_one_slot_each_get_their_contract() {
        let _guard = serialize();
        let service = service_with(&[("papers", 97)]);
        let budget = 10;
        let full = service
            .select(&request("papers", budget))
            .unwrap()
            .outcome()
            .selected
            .clone();

        let scheduler = Scheduler::new(
            Arc::clone(&service),
            SchedulerConfig {
                workers: 1,
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        // Both waiters need deadlines (a deadline-free waiter keeps the
        // run uncancellable); the injected Cancel trips the token early.
        let deadline = Duration::from_secs(600);
        let partial_waiter = scheduler
            .submit(
                ScheduledRequest::new(request("papers", budget))
                    .with_deadline_in(deadline)
                    .with_on_deadline(OnDeadline::Partial),
            )
            .unwrap();
        let fail_waiter = scheduler
            .submit(ScheduledRequest::new(request("papers", budget)).with_deadline_in(deadline))
            .unwrap();
        assert_eq!(scheduler.queue_depth(), 1, "the two waiters coalesced");

        let _armed = Armed::arm("greedy.round", Schedule::Nth(3), FaultAction::Cancel);
        scheduler.resume();

        let report = partial_waiter.wait().unwrap();
        assert!(report.is_partial());
        let prefix = &report.outcome().selected;
        assert!(full.starts_with(prefix) && prefix.len() < full.len());
        assert_eq!(
            fail_waiter.wait().unwrap_err(),
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::MidSelection
            }
        );
        let stats = scheduler.stats();
        assert_eq!(stats.partial, 1, "{stats:?}");
        assert_eq!(stats.delivered, 2, "{stats:?}");
    }

    // ----- serving-edge fault sites -------------------------------------

    use grain::core::edge::proto::WireReport;
    use grain::core::edge::RequestOptions;

    fn edge_server(service: &Arc<GrainService>) -> EdgeServer {
        EdgeServer::bind(
            "127.0.0.1:0",
            Arc::clone(service),
            EdgeConfig {
                max_connections: 4,
                tenants: vec![TenantSpec::open("gold", 1)],
                ..EdgeConfig::default()
            },
        )
        .unwrap()
    }

    /// A panic injected mid-write — after the selection completed,
    /// while its response frame is going out — severs that connection
    /// only. The server survives, and a fresh connection gets the
    /// bit-identical answer (nothing server-side was poisoned).
    #[test]
    fn a_mid_write_fault_severs_one_connection_never_the_server() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        let oracle = service.select(&request("papers", 5)).unwrap();
        let server = edge_server(&service);

        let mut client = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        // The hello-ack write is already behind us: the next `edge.write`
        // crossing is this request's response frame.
        let armed = Armed::arm("edge.write", Schedule::Nth(1), FaultAction::Panic);
        let severed = client.request(request("papers", 5), RequestOptions::default());
        assert!(
            severed.is_err(),
            "a mid-write fault must sever the connection, got {severed:?}"
        );
        drop(armed);

        let mut fresh = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        let report = fresh
            .request(request("papers", 5), RequestOptions::default())
            .unwrap();
        assert_eq!(
            report.outcomes,
            WireReport::from_report(0, &oracle).outcomes,
            "the retried answer must be bit-identical to the serial oracle"
        );
        assert!(server.stats().connections_accepted >= 2);
    }

    /// `edge.disconnect` models the client vanishing in the instant
    /// between the selection resolving and its response hitting the
    /// wire: the connection tears down cleanly and the result is simply
    /// dropped — reproducible bit-exactly by the next asker.
    #[test]
    fn a_disconnect_before_the_response_drops_only_that_delivery() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        let oracle = service.select(&request("papers", 6)).unwrap();
        let server = edge_server(&service);

        let mut client = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        let armed = Armed::arm("edge.disconnect", Schedule::Nth(1), FaultAction::Panic);
        let severed = client.request(request("papers", 6), RequestOptions::default());
        assert!(
            severed.is_err(),
            "the response must never arrive, got {severed:?}"
        );
        drop(armed);

        let mut fresh = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
        let report = fresh
            .request(request("papers", 6), RequestOptions::default())
            .unwrap();
        assert_eq!(
            report.outcomes,
            WireReport::from_report(0, &oracle).outcomes
        );
    }

    /// Panics at the remaining edge sites — as the connection starts
    /// (`edge.accept`) and at the reader's frame loop (`edge.read`) —
    /// each kill exactly one connection and nothing else.
    #[test]
    fn accept_and_read_faults_kill_one_connection_each() {
        let _guard = serialize();
        let service = service_with(&[("papers", 71)]);
        service.select(&request("papers", 4)).unwrap(); // warm
        let server = edge_server(&service);

        for site in ["edge.accept", "edge.read"] {
            let armed = Armed::arm(site, Schedule::Nth(1), FaultAction::Panic);
            // The faulted connection dies during or right after the
            // handshake; both shapes are acceptable, panics are not.
            if let Ok(mut client) = EdgeClient::connect(server.local_addr(), "gold", "") {
                let severed = client.request(request("papers", 4), RequestOptions::default());
                assert!(severed.is_err(), "{site}: expected a severed connection");
            }
            drop(armed);

            let mut fresh = EdgeClient::connect(server.local_addr(), "gold", "").unwrap();
            let report = fresh
                .request(request("papers", 4), RequestOptions::default())
                .unwrap();
            assert_eq!(report.outcomes[0].selected.len(), 4, "{site}");
        }
    }
}
