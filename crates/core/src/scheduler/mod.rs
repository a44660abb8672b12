//! Asynchronous queueing front-end over [`GrainService`]: admission
//! control, per-key coalescing of identical in-flight requests, and
//! deadline/priority-aware dispatch.
//!
//! [`GrainService`] (PR 4) is concurrent but *synchronous*: every caller
//! blocks for the full selection, and nothing stands between a traffic
//! burst and the engine pool. The [`Scheduler`] is the missing front-end:
//! callers [`Scheduler::submit`] a [`ScheduledRequest`] (a
//! [`SelectionRequest`] plus an optional deadline and a priority) and get
//! back a [`Ticket`] immediately; a fixed pool of worker threads drains a
//! bounded queue behind it. The scheduler **composes** the service — all
//! selection work still flows through [`GrainService::submit_batch`]'s
//! warm-engine path, so every invariant the service asserts (bit-identity
//! to the serial oracle above all) holds for every scheduled path too.
//!
//! Three mechanisms, in the order a request meets them:
//!
//! 1. **Admission control.** The queue holds at most
//!    [`SchedulerConfig::queue_capacity`] distinct pending selections;
//!    beyond that, [`Scheduler::submit`] fails fast with
//!    [`GrainError::QueueFull`] instead of letting latency grow without
//!    bound. A request whose deadline has already passed is refused with
//!    [`GrainError::DeadlineExceeded`] at
//!    [`DeadlineStage::AtSubmit`]; one that expires while queued is shed
//!    at dequeue ([`DeadlineStage::InQueue`]) before any selection work
//!    is spent on it.
//! 2. **Per-key coalescing.** Influence-serving traffic is dominated by
//!    repeated near-identical queries, so identical in-flight selections
//!    — same graph, same
//!    [`GrainConfig::selection_fingerprint`](crate::GrainConfig::selection_fingerprint),
//!    same budget, candidates, and seed — resolve **once**: later
//!    submissions attach to the pending slot as extra waiters (even while
//!    it is already running) and the one report fans out to every ticket.
//!    This extends the engine pool's build latch from engine builds to
//!    whole selections; joiners are marked
//!    [`PoolEvent::CoalescedSelection`] and counted in
//!    [`SchedulerStats::coalesced`].
//! 3. **Deadline/priority-aware dispatch.** The queue orders work by
//!    priority first, earliest deadline within a priority, submission
//!    order as the tiebreak — and each dispatch takes up to
//!    [`SchedulerConfig::max_group`] queued selections sharing one engine
//!    key along with the winner, handing them to
//!    [`GrainService::submit_batch`] so they run back to back on a warm
//!    engine.
//!
//! # Multi-tenancy
//!
//! A [`ScheduledRequest`] may carry a tenant id
//! ([`ScheduledRequest::with_tenant`]); slots then queue in per-tenant
//! flows and dispatch is **weighted-fair across tenants** (start-time
//! fair queuing, [`FairShare`]): under saturation, tenants complete work
//! in proportion to the weights set via
//! [`Scheduler::set_tenant_weight`], a weight-1 tenant is never starved,
//! and priority/EDF/FIFO order still holds within each tenant (priority
//! also stays a *global* escape hatch — the highest-priority head
//! anywhere dispatches first). Tenant-less submissions share one
//! anonymous flow, so a scheduler that never names tenants behaves
//! exactly as before. Per-tenant accounting — admitted, coalesced,
//! shed, cancelled, completed, and p50/p90/p99 service time — is
//! snapshotted by [`Scheduler::tenant_stats`]; the network edge
//! ([`crate::edge`]) maps authenticated connections onto these tenants.
//!
//! # Coalescing guarantees
//!
//! Grain selection is deterministic: requests with equal coalesce keys
//! would produce bit-identical [`SelectionReport`]s anyway, so fan-out
//! never changes a result — it only removes duplicate work. The first
//! waiter's report carries the true [`PoolEvent`] of the one execution;
//! every later waiter receives the same outcomes with the event rewritten
//! to [`PoolEvent::CoalescedSelection`]. Requests that differ in *any*
//! result-affecting field (including the bookkeeping seed, which is
//! echoed into the report) never coalesce.
//!
//! # Deadline and cancellation semantics
//!
//! A deadline is enforced at three stages. At submission, an expired
//! deadline is refused ([`DeadlineStage::AtSubmit`]); while queued, an
//! expiring waiter is shed at dequeue ([`DeadlineStage::InQueue`]); and
//! once dispatched, the deadline arms the run's shared
//! [`CancelToken`], which the engine polls at
//! greedy-round boundaries, every
//! [`cancel_check_every`](crate::GrainConfig::cancel_check_every)
//! marginal-gain evaluations, and at each artifact-build stage — a
//! selection **is** cancelled mid-greedy. What a waiter then receives is
//! governed by its own [`OnDeadline`] policy
//! ([`ScheduledRequest::with_on_deadline`]):
//!
//! | policy | trip during an artifact build | trip mid-greedy |
//! |---|---|---|
//! | [`Fail`](crate::OnDeadline::Fail) (default) | [`GrainError::DeadlineExceeded`] at [`DeadlineStage::MidSelection`] | the same typed error |
//! | [`Partial`](crate::OnDeadline::Partial) | the same typed error (artifacts are never partial) | `Ok` with the greedy prefix, marked [`Completion::Partial`](crate::Completion) |
//!
//! Because the objective is submodular, the prefix is itself the
//! `1 - 1/e` greedy answer for its smaller budget — an *anytime* result,
//! byte-for-byte a prefix of what the uncancelled run would have chosen.
//!
//! The shared token is deadline-armed at dispatch only when **every**
//! live waiter carries a deadline (the latest wins — the run stays
//! useful until the last waiter gives up); one deadline-free waiter
//! keeps the run uncancellable, and such a waiter still receives the
//! full report even if its siblings' deadlines pass. Caller-driven
//! cancellation is refcounted the same way: [`Ticket::cancel`] detaches
//! one waiter (resolving that ticket as [`GrainError::Cancelled`]), and
//! only the *last* detachment trips the token and stops the run.
//! Dropping a ticket is **not** a cancel — an abandoned waiter never
//! stops work a coalesced sibling may still be waiting on.
//!
//! # Panic isolation
//!
//! Selections run panic-isolated in the workers
//! ([`GrainService::submit_batch`]'s contract): a panicking request
//! resolves its own waiters with [`GrainError::SelectionPanicked`]
//! (counted in [`SchedulerStats::panicked`]) and never kills a worker
//! thread, wedges a latch, or corrupts a sibling group member's result.
//!
//! ```
//! use grain_core::scheduler::{ScheduledRequest, Scheduler, SchedulerConfig};
//! use grain_core::service::{Budget, GrainService, SelectionRequest};
//! use grain_core::GrainConfig;
//! use grain_graph::generators;
//! use grain_linalg::DenseMatrix;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let service = Arc::new(GrainService::new());
//! let graph = generators::erdos_renyi_gnm(150, 450, 7);
//! service.register_graph("demo", graph, DenseMatrix::full(150, 8, 1.0))?;
//!
//! let scheduler = Scheduler::new(Arc::clone(&service), SchedulerConfig::default());
//! let request = SelectionRequest::new("demo", GrainConfig::ball_d(), Budget::Fixed(8));
//!
//! // Submit returns immediately; the ticket resolves to the report.
//! let ticket = scheduler.submit(
//!     ScheduledRequest::new(request.clone()).with_deadline_in(Duration::from_secs(30)),
//! )?;
//! let report = ticket.wait()?;
//! assert_eq!(report.outcome().selected.len(), 8);
//!
//! // Scheduled answers are bit-identical to direct service calls.
//! assert_eq!(
//!     service.select(&request)?.outcome().selected,
//!     report.outcome().selected
//! );
//! # Ok::<(), grain_core::GrainError>(())
//! ```

mod fair;
mod queue;
mod tenant;

pub use fair::{FairShare, FAIR_COST_SCALE};
pub use tenant::TenantStats;

use crate::cancel::{CancelToken, OnDeadline};
use crate::error::{DeadlineStage, GrainError, GrainResult};
use crate::fault;
use crate::pool::PoolEvent;
use crate::service::{GrainService, SelectionReport, SelectionRequest};
use grain_linalg::par;
use queue::{Admission, DispatchQueue, Waiter, WaiterHandle};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tenant::{TenantCounters, TenantRegistry};

/// Default bound on distinct queued selections
/// ([`SchedulerConfig::queue_capacity`]).
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// Default cap on how many same-engine-key selections one dispatch hands
/// to [`GrainService::submit_batch`] ([`SchedulerConfig::max_group`]).
pub const DEFAULT_MAX_GROUP: usize = 8;

/// Construction-time knobs of a [`Scheduler`].
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Worker threads draining the queue; `0` means auto
    /// (`GRAIN_THREADS` or the machine's available parallelism). Each
    /// worker executes one dispatch group at a time.
    pub workers: usize,
    /// Admission bound: at most this many *distinct* selections may be
    /// queued (running work and coalesced waiters are not counted — a
    /// coalesced submission adds no work). `0` rejects every new
    /// submission, a drain/maintenance mode.
    pub queue_capacity: usize,
    /// At most this many same-engine-key selections ride along per
    /// dispatch (minimum 1). Larger groups keep a warm engine busier per
    /// dispatch but deviate further from strict priority/EDF order.
    pub max_group: usize,
    /// Start with dispatch paused ([`Scheduler::resume`] starts it) —
    /// lets a caller stage a burst and is how the tests make coalescing
    /// deterministic.
    pub start_paused: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            max_group: DEFAULT_MAX_GROUP,
            start_paused: false,
        }
    }
}

/// A [`SelectionRequest`] plus its scheduling envelope.
#[derive(Clone, Debug)]
pub struct ScheduledRequest {
    /// The selection to run.
    pub request: SelectionRequest,
    /// Dispatch priority; higher runs first. Defaults to `0`.
    pub priority: u8,
    /// Latest instant at which starting the selection is still useful;
    /// `None` (the default) never expires. See the module docs for the
    /// exact semantics.
    pub deadline: Option<Instant>,
    /// Degradation policy when the deadline trips *after* dispatch, at a
    /// cancellation checkpoint inside the run (see the module docs'
    /// policy table). Defaults to [`OnDeadline::Fail`].
    pub on_deadline: OnDeadline,
    /// Tenant this submission queues (and is fairness-charged) under;
    /// `None` (the default) uses the shared anonymous flow. See the
    /// module docs' multi-tenancy section.
    pub tenant: Option<Arc<str>>,
}

impl ScheduledRequest {
    /// Wraps a request with default scheduling (priority 0, no deadline,
    /// [`OnDeadline::Fail`]).
    #[must_use]
    pub fn new(request: SelectionRequest) -> Self {
        Self {
            request,
            priority: 0,
            deadline: None,
            on_deadline: OnDeadline::default(),
            tenant: None,
        }
    }

    /// Sets the dispatch priority (higher runs first).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets a deadline relative to now.
    #[must_use]
    pub fn with_deadline_in(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Sets the mid-run deadline degradation policy:
    /// [`OnDeadline::Partial`] accepts the anytime greedy prefix instead
    /// of a [`GrainError::DeadlineExceeded`] when the deadline trips
    /// after dispatch.
    #[must_use]
    pub fn with_on_deadline(mut self, on_deadline: OnDeadline) -> Self {
        self.on_deadline = on_deadline;
        self
    }

    /// Names the tenant this submission queues under, opting it into
    /// weighted-fair dispatch and per-tenant accounting
    /// ([`Scheduler::set_tenant_weight`], [`Scheduler::tenant_stats`]).
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<Arc<str>>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }
}

impl From<SelectionRequest> for ScheduledRequest {
    fn from(request: SelectionRequest) -> Self {
        Self::new(request)
    }
}

/// Handle to a submitted selection; resolves to the
/// [`SelectionReport`] (or the typed failure) once a worker has answered
/// it.
///
/// Dropping a ticket abandons the waiter **without cancelling** the
/// work: the selection still runs (other coalesced waiters may depend on
/// it) and the undeliverable report is counted in
/// [`SchedulerStats::abandoned`]. Workers never block on an abandoned
/// ticket. To actually stop the work, call [`Ticket::cancel`] — it
/// detaches this waiter, and the run is cancelled once its *last* waiter
/// has done so.
pub struct Ticket {
    /// Read only through [`Mutex::get_mut`] (every wait takes `self`), so
    /// the lock is never taken; it only makes the `!Sync` receiver `Sync`.
    rx: Mutex<Receiver<GrainResult<SelectionReport>>>,
    /// `None` only for channel-only tickets built in tests.
    cancel: Option<TicketCancel>,
}

/// The cancellation half of a [`Ticket`]: the slot's refcounted cancel
/// state, this waiter's own flag, and the counters to record the cancel.
#[derive(Clone)]
struct TicketCancel {
    state: Arc<queue::CancelState>,
    cancelled: Arc<AtomicBool>,
    counters: Arc<SchedCounters>,
    tenant: Option<Arc<TenantCounters>>,
}

impl TicketCancel {
    /// Idempotent waiter detach; see [`Ticket::cancel`].
    fn cancel(&self) {
        if !self.cancelled.swap(true, Ordering::AcqRel) {
            SchedCounters::bump(&self.counters.cancelled);
            if let Some(tenant) = &self.tenant {
                SchedCounters::bump(&tenant.cancelled);
            }
            self.state.cancel_one();
        }
    }
}

/// A cloneable, detached handle to one waiter's cancellation, obtained
/// from [`Ticket::cancel_handle`]. It carries none of the result
/// channel, so one thread can block in [`Ticket::wait`] while another —
/// a connection reader noticing a client disconnect, say — cancels the
/// same waiter. Semantics are identical to [`Ticket::cancel`]:
/// idempotent, refcounted across a coalesced group, counted once.
#[derive(Clone)]
pub struct CancelHandle {
    cancel: Option<TicketCancel>,
}

impl std::fmt::Debug for CancelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CancelHandle { .. }")
    }
}

impl CancelHandle {
    /// Cancels the waiter this handle was taken from; see
    /// [`Ticket::cancel`].
    pub fn cancel(&self) {
        if let Some(cancel) = &self.cancel {
            cancel.cancel();
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Ticket { .. }")
    }
}

impl Ticket {
    /// Cancels this waiter. Idempotent; counted once in
    /// [`SchedulerStats::cancelled`].
    ///
    /// Cancellation is **refcounted** across a coalesced group: this
    /// call detaches only this ticket's waiter (later [`Ticket::wait`]
    /// calls return [`GrainError::Cancelled`], and the scheduler will
    /// not deliver to it), while the selection itself keeps running
    /// until the last waiter of its slot cancels — then the shared
    /// [`CancelToken`] trips and the run stops at
    /// its next cancellation checkpoint (or never starts, if still
    /// queued).
    ///
    /// ```
    /// use grain_core::scheduler::{Scheduler, SchedulerConfig};
    /// use grain_core::service::{Budget, GrainService, SelectionRequest};
    /// use grain_core::{GrainConfig, GrainError};
    /// use grain_linalg::DenseMatrix;
    /// use std::sync::Arc;
    ///
    /// let service = Arc::new(GrainService::new());
    /// let graph = grain_graph::generators::erdos_renyi_gnm(80, 240, 7);
    /// service.register_graph("demo", graph, DenseMatrix::full(80, 4, 1.0))?;
    /// let scheduler = Scheduler::new(
    ///     service,
    ///     SchedulerConfig { start_paused: true, ..SchedulerConfig::default() },
    /// );
    ///
    /// let request = SelectionRequest::new("demo", GrainConfig::ball_d(), Budget::Fixed(5));
    /// let ticket = scheduler.submit(request)?;
    /// ticket.cancel();
    /// assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);
    /// assert_eq!(scheduler.stats().cancelled, 1);
    /// # Ok::<(), grain_core::GrainError>(())
    /// ```
    pub fn cancel(&self) {
        if let Some(cancel) = &self.cancel {
            cancel.cancel();
        }
    }

    /// A detached, cloneable cancel handle for this ticket's waiter, so
    /// cancellation can come from a different thread than the one
    /// blocked in [`Ticket::wait`] (the serving edge cancels in-flight
    /// work this way when a client disconnects).
    #[must_use]
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            cancel: self.cancel.clone(),
        }
    }

    fn rx(&mut self) -> &Receiver<GrainResult<SelectionReport>> {
        self.rx.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.cancelled.load(Ordering::Acquire))
    }

    /// Blocks until the selection is answered.
    ///
    /// # Errors
    /// Whatever typed error the selection produced — plus
    /// [`GrainError::DeadlineExceeded`] (stage
    /// [`DeadlineStage::InQueue`]) if the request was shed,
    /// [`GrainError::Cancelled`] after [`Ticket::cancel`], and
    /// [`GrainError::SchedulerShutdown`] if the scheduler was dropped
    /// before answering.
    pub fn wait(mut self) -> GrainResult<SelectionReport> {
        if self.is_cancelled() {
            return Err(GrainError::Cancelled);
        }
        match self.rx().recv() {
            Ok(result) => result,
            Err(_) => Err(GrainError::SchedulerShutdown),
        }
    }

    /// Blocks until the selection is answered or `timeout` elapses,
    /// handing the ticket back on timeout so the caller can keep
    /// polling, escalate, or [`Ticket::cancel`].
    ///
    /// # Errors
    /// On resolution, as for [`Ticket::wait`] (inside the `Ok` arm); on
    /// timeout, `Err(self)`.
    ///
    /// ```
    /// use grain_core::scheduler::{Scheduler, SchedulerConfig};
    /// use grain_core::service::{Budget, GrainService, SelectionRequest};
    /// use grain_core::GrainConfig;
    /// use grain_linalg::DenseMatrix;
    /// use std::sync::Arc;
    /// use std::time::Duration;
    ///
    /// let service = Arc::new(GrainService::new());
    /// let graph = grain_graph::generators::erdos_renyi_gnm(80, 240, 7);
    /// service.register_graph("demo", graph, DenseMatrix::full(80, 4, 1.0))?;
    /// let scheduler = Scheduler::new(
    ///     service,
    ///     SchedulerConfig { start_paused: true, ..SchedulerConfig::default() },
    /// );
    ///
    /// let request = SelectionRequest::new("demo", GrainConfig::ball_d(), Budget::Fixed(5));
    /// let ticket = scheduler.submit(request)?;
    /// // Paused scheduler: nothing resolves within the timeout.
    /// let ticket = ticket
    ///     .wait_timeout(Duration::from_millis(10))
    ///     .expect_err("paused, so the ticket comes back");
    /// scheduler.resume();
    /// assert_eq!(ticket.wait()?.outcome().selected.len(), 5);
    /// # Ok::<(), grain_core::GrainError>(())
    /// ```
    pub fn wait_timeout(mut self, timeout: Duration) -> Result<GrainResult<SelectionReport>, Self> {
        if self.is_cancelled() {
            return Ok(Err(GrainError::Cancelled));
        }
        match self.rx().recv_timeout(timeout) {
            Ok(result) => Ok(result),
            Err(RecvTimeoutError::Disconnected) => Ok(Err(GrainError::SchedulerShutdown)),
            Err(RecvTimeoutError::Timeout) => Err(self),
        }
    }

    /// Non-blocking poll: the resolution if one is ready, otherwise the
    /// ticket back for a later retry.
    ///
    /// # Errors
    /// As for [`Ticket::wait`], inside the `Ok` arm.
    pub fn try_wait(mut self) -> Result<GrainResult<SelectionReport>, Self> {
        if self.is_cancelled() {
            return Ok(Err(GrainError::Cancelled));
        }
        match self.rx().try_recv() {
            Ok(result) => Ok(result),
            Err(TryRecvError::Disconnected) => Ok(Err(GrainError::SchedulerShutdown)),
            Err(TryRecvError::Empty) => Err(self),
        }
    }
}

/// Scheduler counters (a lock-free snapshot; see [`Scheduler::stats`]).
///
/// All counters are monotonic with one deliberate wrinkle: `delivered`
/// is bumped just *before* each send so a resolved waiter can always
/// observe its own delivery; if the send then fails (the ticket was
/// dropped) the bump is rolled back and `abandoned` bumped instead. A
/// concurrent snapshot can catch that instant, so `delivered` may
/// transiently overcount by the number of in-flight fan-outs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Submissions admitted as new queued work.
    pub enqueued: usize,
    /// Submissions that attached to an identical queued or running
    /// selection instead of adding work — the coalescing win.
    pub coalesced: usize,
    /// Submissions refused at admission: queue at capacity.
    pub rejected_queue_full: usize,
    /// Submissions refused at admission: deadline already passed.
    pub rejected_deadline: usize,
    /// Waiters shed at dequeue because their deadline passed in-queue.
    pub shed_deadline: usize,
    /// Selections actually executed (each may serve many waiters).
    pub selections: usize,
    /// Dispatch groups handed to [`GrainService::submit_batch`].
    pub dispatch_groups: usize,
    /// Reports (or typed errors) delivered to live tickets.
    pub delivered: usize,
    /// Fan-outs whose ticket had been dropped before resolution.
    pub abandoned: usize,
    /// Tickets explicitly cancelled ([`Ticket::cancel`]; dropped tickets
    /// count as `abandoned`, not here).
    pub cancelled: usize,
    /// Anytime-prefix reports delivered to [`OnDeadline::Partial`]
    /// waiters after a mid-run deadline trip.
    pub partial: usize,
    /// Requests that resolved [`GrainError::SelectionPanicked`] — the
    /// panic was isolated to that request; the worker survived.
    pub panicked: usize,
}

impl SchedulerStats {
    /// Every submission the scheduler has seen.
    #[must_use]
    pub fn submissions(&self) -> usize {
        self.enqueued + self.coalesced + self.rejected_queue_full + self.rejected_deadline
    }

    /// Selections avoided by coalescing plus work never started thanks to
    /// admission control — the front-end's whole reason to exist.
    #[must_use]
    pub fn saved_selections(&self) -> usize {
        self.coalesced + self.shed_deadline + self.rejected_deadline
    }
}

#[derive(Default)]
struct SchedCounters {
    enqueued: AtomicUsize,
    coalesced: AtomicUsize,
    rejected_queue_full: AtomicUsize,
    rejected_deadline: AtomicUsize,
    shed_deadline: AtomicUsize,
    selections: AtomicUsize,
    dispatch_groups: AtomicUsize,
    delivered: AtomicUsize,
    abandoned: AtomicUsize,
    cancelled: AtomicUsize,
    partial: AtomicUsize,
    panicked: AtomicUsize,
}

impl SchedCounters {
    fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SchedulerStats {
        SchedulerStats {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
            rejected_deadline: self.rejected_deadline.load(Ordering::Relaxed),
            shed_deadline: self.shed_deadline.load(Ordering::Relaxed),
            selections: self.selections.load(Ordering::Relaxed),
            dispatch_groups: self.dispatch_groups.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            partial: self.partial.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
        }
    }
}

/// Queue plus the dispatch flags, all under one mutex so pause/shutdown
/// transitions and queue edits are atomic with respect to the workers.
struct SchedState {
    queue: DispatchQueue,
    paused: bool,
    shutdown: bool,
}

struct Inner {
    service: Arc<GrainService>,
    state: Mutex<SchedState>,
    /// Signals workers: work queued, resumed, or shutdown.
    ready: Condvar,
    /// Shared with tickets (an `Arc` so [`Ticket::cancel`] can count
    /// itself after the scheduler is gone).
    counters: Arc<SchedCounters>,
    /// Per-tenant counter blocks; see [`tenant`].
    tenants: TenantRegistry,
    queue_capacity: usize,
    max_group: usize,
}

impl Inner {
    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        // Queue mutations are complete per critical section (the same
        // argument as the pool's shards), so serving continues after a
        // poisoning panic.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The queueing front-end; see the module docs.
///
/// Construction spawns the worker pool; dropping the scheduler shuts it
/// down gracefully ([`Scheduler::shutdown`]) and joins every worker, so a
/// scheduler never outlives its threads.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns the worker pool over `service`.
    #[must_use]
    pub fn new(service: Arc<GrainService>, config: SchedulerConfig) -> Self {
        let worker_count = par::resolve_threads(config.workers).max(1);
        let inner = Arc::new(Inner {
            service,
            state: Mutex::new(SchedState {
                queue: DispatchQueue::default(),
                paused: config.start_paused,
                shutdown: false,
            }),
            ready: Condvar::new(),
            counters: Arc::new(SchedCounters::default()),
            tenants: TenantRegistry::default(),
            queue_capacity: config.queue_capacity,
            max_group: config.max_group.max(1),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("grain-sched-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("scheduler worker spawns")
            })
            .collect();
        Self { inner, workers }
    }

    /// Submits a selection for asynchronous execution.
    ///
    /// Returns immediately with a [`Ticket`]; accepts anything
    /// convertible into a [`ScheduledRequest`], so a bare
    /// [`SelectionRequest`] submits with default scheduling.
    ///
    /// # Errors
    /// * [`GrainError::SchedulerShutdown`] after [`Scheduler::shutdown`].
    /// * [`GrainError::DeadlineExceeded`] (stage
    ///   [`DeadlineStage::AtSubmit`]) when the deadline has already
    ///   passed.
    /// * [`GrainError::QueueFull`] when admission control refuses new
    ///   work (identical-to-pending submissions still coalesce in).
    ///
    /// Errors *of the selection itself* (unknown graph, invalid config,
    /// …) are not detected here — they resolve through the ticket, just
    /// like success.
    pub fn submit(&self, scheduled: impl Into<ScheduledRequest>) -> GrainResult<Ticket> {
        let ScheduledRequest {
            request,
            priority,
            deadline,
            on_deadline,
            tenant,
        } = scheduled.into();
        // Coalesce-key construction is O(candidate pool) and engine-key
        // formatting builds fingerprint strings; prepare both before
        // taking the state mutex so heavy submissions don't serialize
        // on it. The submit-time corpus epoch is stamped into the key so
        // selections racing an `apply_update` coalesce only within one
        // corpus version (unknown graphs keep epoch 0 and fail later
        // with the service's own typed error).
        let epoch = self.inner.service.epoch(&request.graph).unwrap_or(0);
        let prepared = queue::PreparedSubmission::new(request, epoch);
        // Resolve the tenant's counter block once; the waiter and ticket
        // carry it so every later bump is a bare atomic increment.
        let tenant_counters = tenant.as_ref().map(|t| self.inner.tenants.get(t));
        let (tx, rx) = sync_channel(1);
        let waiter = Waiter {
            tx,
            deadline,
            cancelled: Arc::new(AtomicBool::new(false)),
            on_deadline,
            tenant: tenant_counters.clone(),
            submitted_at: Instant::now(),
        };
        let admission = {
            let mut state = self.inner.lock_state();
            // Shutdown outranks every other rejection (the # Errors list
            // order): a dead deadline on a dead scheduler still says
            // "stop submitting", not "retry with a fresh deadline".
            if state.shutdown {
                return Err(GrainError::SchedulerShutdown);
            }
            if deadline.is_some_and(|d| d <= Instant::now()) {
                SchedCounters::bump(&self.inner.counters.rejected_deadline);
                if let Some(tenant) = &tenant_counters {
                    SchedCounters::bump(&tenant.rejected);
                }
                return Err(GrainError::DeadlineExceeded {
                    stage: DeadlineStage::AtSubmit,
                });
            }
            state.queue.admit(
                prepared,
                tenant.as_ref(),
                priority,
                waiter,
                self.inner.queue_capacity,
            )
        };
        match admission {
            Admission::Enqueued(handle) => {
                SchedCounters::bump(&self.inner.counters.enqueued);
                if let Some(tenant) = &tenant_counters {
                    SchedCounters::bump(&tenant.admitted);
                }
                self.inner.ready.notify_one();
                Ok(self.ticket(rx, handle, tenant_counters))
            }
            Admission::Coalesced(handle) => {
                SchedCounters::bump(&self.inner.counters.coalesced);
                if let Some(tenant) = &tenant_counters {
                    SchedCounters::bump(&tenant.coalesced);
                }
                Ok(self.ticket(rx, handle, tenant_counters))
            }
            Admission::RejectedFull => {
                SchedCounters::bump(&self.inner.counters.rejected_queue_full);
                if let Some(tenant) = &tenant_counters {
                    SchedCounters::bump(&tenant.rejected);
                }
                Err(GrainError::QueueFull {
                    capacity: self.inner.queue_capacity,
                })
            }
        }
    }

    fn ticket(
        &self,
        rx: Receiver<GrainResult<SelectionReport>>,
        handle: WaiterHandle,
        tenant: Option<Arc<TenantCounters>>,
    ) -> Ticket {
        Ticket {
            rx: Mutex::new(rx),
            cancel: Some(TicketCancel {
                state: handle.cancel,
                cancelled: handle.cancelled,
                counters: Arc::clone(&self.inner.counters),
                tenant,
            }),
        }
    }

    /// Stops dispatching new work (running groups finish; submissions
    /// keep queueing and coalescing). Idempotent.
    pub fn pause(&self) {
        self.inner.lock_state().paused = true;
    }

    /// Resumes dispatch after [`Scheduler::pause`] (or a paused start).
    pub fn resume(&self) {
        self.inner.lock_state().paused = false;
        self.inner.ready.notify_all();
    }

    /// True while dispatch is paused.
    pub fn is_paused(&self) -> bool {
        self.inner.lock_state().paused
    }

    /// Stops admission and wakes every worker to **drain**: queued work
    /// still runs (and queued-but-expired work is still shed), then the
    /// workers exit. Overrides a pause. Further submissions fail with
    /// [`GrainError::SchedulerShutdown`]. Idempotent; called by `Drop`.
    pub fn shutdown(&self) {
        self.inner.lock_state().shutdown = true;
        self.inner.ready.notify_all();
    }

    /// Distinct selections waiting in the queue (running work and
    /// coalesced waiters don't count — the same measure admission control
    /// uses).
    pub fn queue_depth(&self) -> usize {
        self.inner.lock_state().queue.depth()
    }

    /// True when nothing is queued or running.
    pub fn is_idle(&self) -> bool {
        self.inner.lock_state().queue.is_idle()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Lock-free snapshot of the scheduler counters.
    pub fn stats(&self) -> SchedulerStats {
        self.inner.counters.snapshot()
    }

    /// Sets `tenant`'s weighted-fair dispatch weight (clamped to ≥ 1).
    /// Under saturation, always-backlogged tenants complete work in
    /// proportion to their weights; see the module docs' multi-tenancy
    /// section. Also registers the tenant so it appears in
    /// [`Scheduler::tenant_stats`] before its first submission.
    pub fn set_tenant_weight(&self, tenant: &str, weight: u32) {
        let _ = self.inner.tenants.get(tenant);
        self.inner.lock_state().queue.set_weight(tenant, weight);
    }

    /// Per-tenant counter snapshots, sorted by tenant id. Tenants appear
    /// once they have been named — by a submission
    /// ([`ScheduledRequest::with_tenant`]) or a
    /// [`Scheduler::set_tenant_weight`] call. Tenant-less submissions are
    /// counted only in the global [`Scheduler::stats`].
    pub fn tenant_stats(&self) -> Vec<TenantStats> {
        let blocks = self.inner.tenants.all();
        let state = self.inner.lock_state();
        blocks
            .iter()
            .map(|block| block.snapshot(state.queue.weight_of(block.name())))
            .collect()
    }

    /// One tenant's counter snapshot, if the tenant has been named.
    pub fn tenant_stats_for(&self, tenant: &str) -> Option<TenantStats> {
        self.tenant_stats().into_iter().find(|s| s.tenant == tenant)
    }

    /// The service this scheduler dispatches into.
    pub fn service(&self) -> &Arc<GrainService> {
        &self.inner.service
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Resolves one waiter. The `delivered` bump happens *before* the send:
/// the instant the send lands the waiter may read the stats, so counting
/// afterwards would let it observe its own delivery missing. A failed
/// send means the ticket was dropped — roll the count back and record the
/// abandonment instead; workers never block on it.
fn deliver(
    inner: &Inner,
    tx: &SyncSender<GrainResult<SelectionReport>>,
    payload: GrainResult<SelectionReport>,
) {
    SchedCounters::bump(&inner.counters.delivered);
    if tx.send(payload).is_err() {
        inner.counters.delivered.fetch_sub(1, Ordering::Relaxed);
        SchedCounters::bump(&inner.counters.abandoned);
    }
}

/// Delivers `result` to every waiter of a completed slot. The first
/// surviving waiter (the submission that created the slot, unless it
/// cancelled) receives the report as-is; coalesced joiners receive the
/// same outcomes with the pool event rewritten to
/// [`PoolEvent::CoalescedSelection`]. Cancelled waiters are skipped —
/// their tickets already resolved [`GrainError::Cancelled`] caller-side.
/// A partial (anytime-prefix) report is delivered only to
/// [`OnDeadline::Partial`] waiters; `Fail` waiters of the same slot
/// receive the typed deadline error instead.
fn fan_out(inner: &Inner, waiters: Vec<Waiter>, result: &GrainResult<SelectionReport>) {
    if matches!(result, Err(GrainError::SelectionPanicked { .. })) {
        SchedCounters::bump(&inner.counters.panicked);
    }
    let mut creator_seen = false;
    for waiter in waiters {
        if waiter.cancelled.load(Ordering::Acquire) {
            continue;
        }
        let payload = match result {
            Ok(report) => {
                let mut report = report.clone();
                if creator_seen {
                    report.pool_event = PoolEvent::CoalescedSelection;
                }
                if report.is_partial() && waiter.on_deadline != OnDeadline::Partial {
                    Err(GrainError::DeadlineExceeded {
                        stage: DeadlineStage::MidSelection,
                    })
                } else {
                    if report.is_partial() {
                        SchedCounters::bump(&inner.counters.partial);
                    }
                    Ok(report)
                }
            }
            Err(e) => Err(e.clone()),
        };
        creator_seen = true;
        if let Some(tenant) = &waiter.tenant {
            match &payload {
                Ok(report) => {
                    SchedCounters::bump(&tenant.completed);
                    if report.is_partial() {
                        SchedCounters::bump(&tenant.partial);
                    }
                    tenant.record_service_time(waiter.submitted_at.elapsed());
                }
                Err(_) => SchedCounters::bump(&tenant.failed),
            }
        }
        deliver(inner, &waiter.tx, payload);
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        // Claim work under the state lock; block on the condvar while
        // paused or idle.
        let dispatch = {
            let mut state = inner.lock_state();
            loop {
                if !state.paused || state.shutdown {
                    let dispatch = state.queue.pop_dispatch(Instant::now(), inner.max_group);
                    if !dispatch.is_empty() {
                        break Some(dispatch);
                    }
                    if state.shutdown {
                        break None;
                    }
                }
                state = inner
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(dispatch) = dispatch else {
            return; // shutdown with a drained queue
        };

        // Load-shed: resolve expired waiters without running anything.
        for waiter in dispatch.shed {
            SchedCounters::bump(&inner.counters.shed_deadline);
            if let Some(tenant) = &waiter.tenant {
                SchedCounters::bump(&tenant.shed);
            }
            deliver(
                inner,
                &waiter.tx,
                Err(GrainError::DeadlineExceeded {
                    stage: DeadlineStage::InQueue,
                }),
            );
        }
        if dispatch.group.is_empty() {
            continue;
        }

        // Execute the group through the service's batched warm-engine
        // path: every request shares one engine key, so submit_batch_with
        // runs them back to back on the one warm engine, bit-identical to
        // serial `select` calls, each under its slot's shared cancel
        // token and effective degradation policy, each panic-isolated.
        let mut claims = Vec::with_capacity(dispatch.group.len());
        let mut items: Vec<(SelectionRequest, CancelToken, OnDeadline)> =
            Vec::with_capacity(dispatch.group.len());
        for entry in dispatch.group {
            items.push((
                entry.request,
                entry.cancel.token().clone(),
                entry.on_deadline,
            ));
            claims.push((entry.key, entry.cancel));
        }
        fault::point("scheduler.dispatch", None);
        let results = catch_unwind(AssertUnwindSafe(|| {
            inner.service.submit_batch_with(&items, 0)
        }));
        SchedCounters::bump(&inner.counters.dispatch_groups);
        match results {
            Ok(results) => {
                for ((key, cancel), result) in claims.iter().zip(results) {
                    // `selections` counts work actually executed; a typed
                    // per-request error (unknown graph, bad config) means
                    // no selection ran.
                    if result.is_ok() {
                        SchedCounters::bump(&inner.counters.selections);
                    }
                    // Take the slot under the lock, deliver outside it: the
                    // fan-out clones the report once per waiter and must
                    // not stall submissions or other workers.
                    let slot = inner.lock_state().queue.complete(key, cancel);
                    if let Some(slot) = slot {
                        fan_out(inner, slot.waiters, &result);
                    }
                }
            }
            Err(_) => {
                // Per-request panics are already isolated inside
                // `submit_batch_with`; reaching here means the batch
                // machinery itself panicked. Waiters must not hang on it:
                // fail the whole group typed (same contract as the pool's
                // abandoned-build latch) and keep the worker alive for
                // the rest of the queue.
                for ((key, cancel), (request, _, _)) in claims.iter().zip(&items) {
                    let slot = inner.lock_state().queue.complete(key, cancel);
                    if let Some(slot) = slot {
                        fan_out(
                            inner,
                            slot.waiters,
                            &Err(GrainError::EngineBuildAbandoned {
                                graph: request.graph.clone(),
                            }),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrainConfig;
    use crate::service::Budget;
    use grain_graph::generators;
    use grain_linalg::DenseMatrix;

    fn service() -> Arc<GrainService> {
        let service = Arc::new(GrainService::new());
        let graph = generators::erdos_renyi_gnm(120, 360, 3);
        let mut features = DenseMatrix::zeros(120, 6);
        for v in 0..120 {
            for (j, value) in features.row_mut(v).iter_mut().enumerate() {
                *value = ((v * 31 + j * 7) % 13) as f32 * 0.1;
            }
        }
        service.register_graph("g", graph, features).unwrap();
        service
    }

    fn request(budget: usize) -> SelectionRequest {
        SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(budget))
    }

    #[test]
    fn scheduler_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scheduler>();
        assert_send_sync::<Ticket>();
    }

    #[test]
    fn submit_resolves_to_the_service_answer() {
        let service = service();
        let scheduler = Scheduler::new(Arc::clone(&service), SchedulerConfig::default());
        let ticket = scheduler.submit(request(6)).unwrap();
        let report = ticket.wait().unwrap();
        assert_eq!(report.outcome().selected.len(), 6);
        assert_eq!(
            report.outcome().selected,
            service.select(&request(6)).unwrap().outcome().selected
        );
    }

    #[test]
    fn selection_errors_resolve_through_the_ticket() {
        let scheduler = Scheduler::new(service(), SchedulerConfig::default());
        let missing = SelectionRequest::new("nope", GrainConfig::ball_d(), Budget::Fixed(3));
        let ticket = scheduler.submit(missing).unwrap();
        assert_eq!(
            ticket.wait().unwrap_err(),
            GrainError::UnknownGraph {
                graph: "nope".into()
            }
        );
    }

    #[test]
    fn shutdown_rejects_new_submissions_and_drains_queued_work() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let ticket = scheduler.submit(request(5)).unwrap();
        scheduler.shutdown();
        assert_eq!(
            scheduler.submit(request(5)).unwrap_err(),
            GrainError::SchedulerShutdown
        );
        // Shutdown drains: the queued request still completes.
        assert_eq!(ticket.wait().unwrap().outcome().selected.len(), 5);
        // Shutdown outranks deadline rejection: an already-expired
        // submission on a dead scheduler says "stop submitting".
        let dead = ScheduledRequest::new(request(5))
            .with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            scheduler.submit(dead).unwrap_err(),
            GrainError::SchedulerShutdown
        );
    }

    #[test]
    fn try_wait_returns_the_ticket_until_resolution() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let ticket = scheduler.submit(request(4)).unwrap();
        let ticket = match ticket.try_wait() {
            Err(ticket) => ticket, // still queued: paused scheduler
            Ok(result) => panic!("resolved while paused: {result:?}"),
        };
        scheduler.resume();
        let report = ticket.wait().unwrap();
        assert_eq!(report.outcome().selected.len(), 4);
    }

    #[test]
    fn dropping_the_scheduler_fails_unresolved_tickets_typed() {
        let scheduler = Scheduler::new(service(), SchedulerConfig::default());
        scheduler.shutdown();
        // Workers have exited (or will); a ticket whose channel sender is
        // dropped resolves SchedulerShutdown instead of hanging.
        let (tx, rx) = sync_channel::<GrainResult<SelectionReport>>(1);
        drop(tx);
        let orphan = Ticket {
            rx: Mutex::new(rx),
            cancel: None,
        };
        assert_eq!(orphan.wait().unwrap_err(), GrainError::SchedulerShutdown);
    }

    #[test]
    fn cancelling_a_queued_ticket_resolves_it_and_skips_the_run() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let ticket = scheduler.submit(request(6)).unwrap();
        ticket.cancel();
        ticket.cancel(); // idempotent: counted once
        assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);
        scheduler.resume();
        // The fully-cancelled slot is discarded at dispatch, never run.
        while !scheduler.is_idle() {
            std::thread::yield_now();
        }
        let stats = scheduler.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.selections, 0, "a fully-cancelled slot never runs");
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn cancelling_one_coalesced_waiter_detaches_only_that_waiter() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let keeper = scheduler.submit(request(6)).unwrap();
        let quitter = scheduler.submit(request(6)).unwrap();
        quitter.cancel();
        scheduler.resume();
        let report = keeper.wait().unwrap();
        assert_eq!(report.outcome().selected.len(), 6);
        assert_eq!(quitter.wait().unwrap_err(), GrainError::Cancelled);
        let stats = scheduler.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.selections, 1, "the kept waiter's run completed");
        assert_eq!(stats.delivered, 1, "only the live waiter was delivered to");
    }

    #[test]
    fn tenant_stats_track_admissions_completions_and_cancels() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        scheduler.set_tenant_weight("gold", 10);
        let keeper = scheduler
            .submit(ScheduledRequest::new(request(5)).with_tenant("gold"))
            .unwrap();
        let joiner = scheduler
            .submit(ScheduledRequest::new(request(5)).with_tenant("gold"))
            .unwrap();
        let bronze = scheduler
            .submit(ScheduledRequest::new(request(6)).with_tenant("bronze"))
            .unwrap();
        let quitter = scheduler
            .submit(ScheduledRequest::new(request(7)).with_tenant("bronze"))
            .unwrap();
        quitter.cancel();
        scheduler.resume();
        assert_eq!(keeper.wait().unwrap().outcome().selected.len(), 5);
        assert_eq!(joiner.wait().unwrap().outcome().selected.len(), 5);
        assert_eq!(bronze.wait().unwrap().outcome().selected.len(), 6);
        let gold = scheduler.tenant_stats_for("gold").unwrap();
        assert_eq!(gold.weight, 10);
        assert_eq!(gold.admitted, 1);
        assert_eq!(gold.coalesced, 1);
        assert_eq!(gold.completed, 2);
        assert_eq!(gold.served, 2);
        assert!(gold.p50 > Duration::ZERO);
        assert!(gold.p99 >= gold.p50);
        assert!(gold.max >= Duration::ZERO);
        let bronze = scheduler.tenant_stats_for("bronze").unwrap();
        assert_eq!(bronze.weight, 1, "unset weights default to 1");
        assert_eq!(bronze.admitted, 2);
        assert_eq!(bronze.completed, 1);
        assert_eq!(bronze.cancelled, 1);
        // Tenant-less submissions never appear in tenant stats.
        assert_eq!(scheduler.tenant_stats().len(), 2);
        assert!(scheduler.tenant_stats_for("ghost").is_none());
    }

    #[test]
    fn cancel_handle_cancels_from_outside_the_ticket() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let ticket = scheduler.submit(request(6)).unwrap();
        let handle = ticket.cancel_handle();
        handle.clone().cancel();
        handle.cancel(); // idempotent across clones: counted once
        assert_eq!(ticket.wait().unwrap_err(), GrainError::Cancelled);
        assert_eq!(scheduler.stats().cancelled, 1);
    }

    #[test]
    fn wait_timeout_hands_the_ticket_back_until_resolution() {
        let scheduler = Scheduler::new(
            service(),
            SchedulerConfig {
                start_paused: true,
                ..SchedulerConfig::default()
            },
        );
        let ticket = scheduler.submit(request(4)).unwrap();
        let ticket = ticket
            .wait_timeout(Duration::from_millis(5))
            .expect_err("paused: the timeout elapses and the ticket returns");
        scheduler.resume();
        // Generous timeout: resolves well within it.
        let report = ticket
            .wait_timeout(Duration::from_secs(60))
            .expect("resolves before the timeout")
            .unwrap();
        assert_eq!(report.outcome().selected.len(), 4);
    }
}
