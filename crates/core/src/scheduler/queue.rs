//! The scheduler's dispatch queue: a pure, single-threaded data structure
//! (the [`super::Scheduler`] wraps it in one mutex) combining
//!
//! * a **coalescing map** — one slot per distinct in-flight selection,
//!   keyed by [`CoalesceKey`]; identical submissions attach as extra
//!   waiters instead of new work,
//! * an **urgency heap** — priority first, earliest-deadline-first within
//!   a priority, FIFO as the tiebreak; entries are invalidated lazily via
//!   per-slot stamps so urgency upgrades never rebuild the heap, and
//! * **deadline triage** — expired waiters are shed at dequeue, before
//!   any selection work is spent on them.
//!
//! Dispatch is *group-at-a-time*: once the most urgent slot is chosen, up
//! to `max_group - 1` further queued slots with the same **engine key**
//! `(graph, artifact fingerprint)` ride along (in submission order), so a
//! worker hands [`crate::GrainService::submit_batch`] work that lands on
//! one warm engine. This deliberately relaxes strict global EDF — a
//! same-engine sibling may overtake a more urgent foreign-key slot — but
//! only within one bounded group, and it is exactly the trade that keeps
//! artifact caches hot under mixed traffic.
//!
//! # Tenant-weighted fairness
//!
//! Slots are partitioned into per-tenant **flows** (submissions without a
//! tenant share one anonymous flow), each with its own urgency heap, and
//! a [`FairShare`] start-time-fair-queuing state arbitrates *between*
//! flows. Head selection is lexicographic:
//!
//! 1. **priority** — the highest head priority anywhere still dispatches
//!    first (priority stays a global urgency escape hatch, trusted the
//!    same way it always was);
//! 2. **weighted fairness** — among flows whose heads tie on priority,
//!    the flow with the smallest effective virtual-finish tag wins, so
//!    saturated tenants complete work in proportion to their weights and
//!    a weight-1 tenant is never starved;
//! 3. **urgency** — within a flow (and as the final cross-flow tiebreak)
//!    the existing EDF-then-FIFO order applies unchanged.
//!
//! Every dispatched slot charges one cost unit to its own flow — a
//! same-engine ride-along from another tenant is still charged to that
//! tenant, so engine-key batching never becomes a fairness loophole.
//! With no tenants configured there is exactly one flow and the order
//! reduces to the original priority/EDF/FIFO.

use super::fair::FairShare;
use super::tenant::TenantCounters;
use crate::cancel::{CancelCause, CancelToken, OnDeadline};
use crate::error::GrainResult;
use crate::service::{Budget, SelectionReport, SelectionRequest};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::Instant;

/// One party waiting on a queued or in-flight selection: the sending half
/// of its [`super::Ticket`] plus its own deadline and degradation policy
/// (waiters coalesced onto one slot keep individual deadlines and
/// policies; triage and fan-out are per waiter).
pub(super) struct Waiter {
    pub(super) tx: SyncSender<GrainResult<SelectionReport>>,
    pub(super) deadline: Option<Instant>,
    /// Set by [`super::Ticket::cancel`]; triage and fan-out skip
    /// cancelled waiters (the ticket already resolved itself).
    pub(super) cancelled: Arc<AtomicBool>,
    /// What this waiter receives when the run is cancelled by deadline.
    pub(super) on_deadline: OnDeadline,
    /// This waiter's tenant counter block (`None` for tenant-less
    /// submissions). Resolved once at submission so shedding and fan-out
    /// bump per-tenant counters without a registry lookup.
    pub(super) tenant: Option<Arc<TenantCounters>>,
    /// When the waiter was admitted; fan-out records the submit→delivery
    /// latency into the tenant's service-time histogram.
    pub(super) submitted_at: Instant,
}

/// Refcounted cancellation state shared by a slot's waiters and their
/// tickets. Dropping a ticket abandons its waiter **without** cancelling
/// (coalesced siblings may depend on the run); only an explicit
/// [`super::Ticket::cancel`] detaches a waiter, and the shared
/// [`CancelToken`] trips only when the *last* live waiter detaches — so
/// one impatient caller can never kill a result someone else is still
/// waiting for.
pub(super) struct CancelState {
    /// Waiters that have not cancelled. Joins increment, explicit
    /// cancels decrement; abandoned (dropped) tickets never decrement.
    live: AtomicUsize,
    token: CancelToken,
}

impl CancelState {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            live: AtomicUsize::new(1),
            token: CancelToken::new(),
        })
    }

    /// The token the dispatch threads into the service and engine.
    pub(super) fn token(&self) -> &CancelToken {
        &self.token
    }

    fn join(&self) {
        self.live.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Detaches one waiter; the last detachment trips the token (caller
    /// cause), stopping the run at its next cancellation checkpoint.
    pub(super) fn cancel_one(&self) {
        if self.live.fetch_sub(1, AtomicOrdering::AcqRel) == 1 {
            self.token.cancel();
        }
    }
}

/// The identity under which two submissions are "the same selection":
/// graph, the full [`crate::GrainConfig::selection_fingerprint`] of the
/// effective config, the budget, the candidate pool, and the bookkeeping
/// seed (the seed is echoed into the report, so submissions differing
/// only in seed must not share one report). The candidate pool is
/// compared by content (shared behind an `Arc` so key clones stay
/// cheap), never by hash alone — coalescing must never conflate two
/// requests that could answer differently. Construction is O(pool)
/// (fingerprint formatting + one pool copy + one pool hash), so
/// [`super::Scheduler::submit`] builds the key *before* taking the
/// scheduler's state mutex; the pool hash is cached in the key so map
/// operations under the mutex never re-hash the slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct CoalesceKey {
    graph: String,
    selection: String,
    budget: String,
    candidates: Option<Arc<[u32]>>,
    /// Content hash of `candidates`, computed once at construction.
    /// Equal pools always produce the equal cached hash, so the manual
    /// `Hash` impl below stays consistent with the derived `Eq`.
    candidates_hash: u64,
    seed: u64,
    /// The corpus epoch observed at submission. Selections racing an
    /// [`apply_update`](crate::service::GrainService::apply_update) only
    /// coalesce within one corpus version: a waiter never receives a
    /// result computed on a snapshot newer (or older) than the one it
    /// submitted against.
    epoch: u64,
}

impl Hash for CoalesceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.graph.hash(state);
        self.selection.hash(state);
        self.budget.hash(state);
        self.candidates_hash.hash(state);
        self.seed.hash(state);
        self.epoch.hash(state);
    }
}

impl CoalesceKey {
    pub(super) fn of(request: &SelectionRequest, epoch: u64) -> Self {
        let budget = match &request.budget {
            Budget::Fixed(n) => format!("fix:{n}"),
            Budget::Fraction(f) => format!("frac:{:016x}", f.to_bits()),
            Budget::Sweep(budgets) => format!("sweep:{budgets:?}"),
        };
        let mut hasher = DefaultHasher::new();
        request.candidates.hash(&mut hasher);
        Self {
            graph: request.graph.clone(),
            selection: request.effective_config().selection_fingerprint(),
            budget,
            candidates: request.candidates.as_deref().map(Arc::from),
            candidates_hash: hasher.finish(),
            seed: request.seed,
            epoch,
        }
    }
}

/// A submission prepared *outside* the scheduler's state mutex: the
/// coalesce key, the owned request, and its engine key. Both derived
/// values cost O(candidate pool) / fingerprint formatting, which is why
/// they are computed before locking — [`DispatchQueue::admit`] then does
/// only map/heap work under the mutex.
pub(super) struct PreparedSubmission {
    pub(super) key: CoalesceKey,
    pub(super) request: SelectionRequest,
    pub(super) engine_key: (String, String),
}

impl PreparedSubmission {
    pub(super) fn new(request: SelectionRequest, epoch: u64) -> Self {
        Self {
            key: CoalesceKey::of(&request, epoch),
            engine_key: request.engine_key(),
            request,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    /// Waiting in the queue; owns a live heap entry (`stamp`).
    Queued,
    /// Claimed by a worker; joins still attach until
    /// [`DispatchQueue::complete`] removes the slot.
    Running,
}

/// One distinct pending selection and everyone waiting on it.
pub(super) struct Slot {
    /// Owned while `Queued`; moved (not cloned) into the [`Dispatch`]
    /// when a worker claims the slot.
    request: Option<SelectionRequest>,
    pub(super) engine_key: (String, String),
    /// The flow this slot is queued (and fairness-charged) under: its
    /// creator's tenant id, or the empty anonymous flow. Joiners from
    /// other tenants coalesce in for free — duplicate suppression is a
    /// shared win and charging it to anyone would double-count the work.
    tenant: Arc<str>,
    pub(super) waiters: Vec<Waiter>,
    /// Shared with every waiter's ticket; see [`CancelState`].
    cancel: Arc<CancelState>,
    state: SlotState,
    /// Scheduling urgency: max priority over waiters.
    priority: u8,
    /// Scheduling urgency: earliest concrete deadline over waiters
    /// (`None` only while every waiter is deadline-free).
    deadline: Option<Instant>,
    /// Matches the one live heap entry; stale entries are skipped at pop.
    stamp: u64,
    /// Global submission order, the FIFO tiebreak.
    seq: u64,
}

/// A heap entry referencing a slot at a particular urgency stamp.
struct HeapEntry {
    priority: u8,
    deadline: Option<Instant>,
    seq: u64,
    stamp: u64,
    key: CoalesceKey,
}

impl HeapEntry {
    /// Max-heap order = dispatch urgency: higher priority, then earlier
    /// deadline (a concrete deadline beats none), then earlier submission.
    fn urgency(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => Ordering::Greater,
                (None, Some(_)) => Ordering::Less,
                (None, None) => Ordering::Equal,
            })
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.urgency(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.urgency(other)
    }
}

/// The cancellation handles an admitted waiter's [`super::Ticket`]
/// needs: the slot's shared refcounted state plus this waiter's own
/// cancelled flag (read by triage and fan-out).
pub(super) struct WaiterHandle {
    pub(super) cancel: Arc<CancelState>,
    pub(super) cancelled: Arc<AtomicBool>,
}

/// What [`DispatchQueue::admit`] did with a submission.
pub(super) enum Admission {
    /// A new work item was queued.
    Enqueued(WaiterHandle),
    /// The submission attached to an identical queued/running selection;
    /// no new work exists.
    Coalesced(WaiterHandle),
    /// The queue is at capacity; the waiter was dropped unserved.
    RejectedFull,
}

/// One claimed slot inside a [`Dispatch`] group.
pub(super) struct DispatchEntry {
    pub(super) key: CoalesceKey,
    pub(super) request: SelectionRequest,
    /// The slot's shared cancel state; its token is deadline-armed at
    /// claim time (see [`DispatchQueue::pop_dispatch`]).
    pub(super) cancel: Arc<CancelState>,
    /// Effective degradation policy for the run: `Partial` if any live
    /// waiter asked for it (a prefix beats an error for them; `Fail`
    /// waiters of the same slot still receive the typed error at
    /// fan-out).
    pub(super) on_deadline: OnDeadline,
}

/// One unit of work handed to a scheduler worker.
pub(super) struct Dispatch {
    /// Slots to execute, all sharing one engine key, most urgent first
    /// then submission order. Empty when the pass only shed dead work.
    pub(super) group: Vec<DispatchEntry>,
    /// Waiters whose deadline expired while queued — resolve with
    /// [`crate::error::DeadlineStage::InQueue`], no selection run.
    pub(super) shed: Vec<Waiter>,
}

impl Dispatch {
    pub(super) fn is_empty(&self) -> bool {
        self.group.is_empty() && self.shed.is_empty()
    }
}

/// See the module docs. All methods are O(queue) worst case and run under
/// the scheduler's state mutex.
pub(super) struct DispatchQueue {
    slots: HashMap<CoalesceKey, Slot>,
    /// Per-tenant urgency heaps (the flows); arbitration between them is
    /// priority first, then [`FairShare`]. Flow heaps are dropped when
    /// emptied — the fairness state they index outlives them in `fair`.
    flows: HashMap<Arc<str>, BinaryHeap<HeapEntry>>,
    /// Weighted start-time fair queuing state across flows.
    fair: FairShare,
    /// The shared flow key for tenant-less submissions.
    anon: Arc<str>,
    /// Number of slots in `Queued` state — the admission-control measure
    /// (running slots and coalesced waiters consume no queue capacity).
    queued: usize,
    next_seq: u64,
    /// Queue-global stamp source: stamps are never reused across slots,
    /// so a stale heap entry left behind by a completed slot can never
    /// match a later slot that re-queues the same coalesce key.
    next_stamp: u64,
}

impl Default for DispatchQueue {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            flows: HashMap::new(),
            fair: FairShare::default(),
            anon: Arc::from(""),
            queued: 0,
            next_seq: 0,
            next_stamp: 0,
        }
    }
}

impl DispatchQueue {
    /// Queued (not yet claimed) work items.
    pub(super) fn depth(&self) -> usize {
        self.queued
    }

    /// True when no work is queued or running.
    pub(super) fn is_idle(&self) -> bool {
        self.slots.is_empty()
    }

    /// Sets a tenant's weighted-fair dispatch weight (clamped ≥ 1).
    pub(super) fn set_weight(&mut self, tenant: &str, weight: u32) {
        self.fair.set_weight(tenant, weight);
    }

    /// A tenant's configured weight (1 when never configured).
    pub(super) fn weight_of(&self, tenant: &str) -> u32 {
        self.fair.weight(tenant)
    }

    /// Admits a submission: coalesce onto an identical pending selection
    /// if one exists, otherwise enqueue a new work item unless `capacity`
    /// queued items already exist. The [`PreparedSubmission`] carries
    /// everything expensive precomputed outside the scheduler's state
    /// mutex, so no O(pool) copy or fingerprint formatting runs under it.
    /// `tenant` names the flow a *new* slot is queued (and
    /// fairness-charged) under; a coalescing submission joins the
    /// existing slot regardless of flow.
    pub(super) fn admit(
        &mut self,
        prepared: PreparedSubmission,
        tenant: Option<&Arc<str>>,
        priority: u8,
        waiter: Waiter,
        capacity: usize,
    ) -> Admission {
        let PreparedSubmission {
            key,
            request,
            engine_key,
        } = prepared;
        let deadline = waiter.deadline;
        let cancelled = Arc::clone(&waiter.cancelled);
        // A slot whose every waiter detached (`super::Ticket::cancel`) is
        // a husk: its run — queued or already dispatched — stops at the
        // next checkpoint with nobody listening. Coalescing onto it would
        // hand this fresh submission a `Cancelled` it never asked for, so
        // evict the husk and enqueue new work under the key instead
        // ([`Self::complete`] matches slots by cancel-state identity, so
        // the doomed run finishing later cannot remove the newcomer).
        let doomed = self
            .slots
            .get(&key)
            .is_some_and(|slot| slot.cancel.token().cause() == Some(CancelCause::Caller));
        if doomed {
            if let Some(husk) = self.slots.remove(&key) {
                if husk.state == SlotState::Queued {
                    self.queued -= 1;
                }
            }
        } else if let Some(slot) = self.slots.get_mut(&key) {
            slot.cancel.join();
            slot.waiters.push(waiter);
            // A more urgent waiter drags the whole slot forward; the old
            // heap entry goes stale (stamp) instead of being dug out.
            if slot.state == SlotState::Queued {
                let priority = slot.priority.max(priority);
                let deadline = match (slot.deadline, deadline) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                if (priority, deadline) != (slot.priority, slot.deadline) {
                    slot.priority = priority;
                    slot.deadline = deadline;
                    slot.stamp = self.next_stamp;
                    self.next_stamp += 1;
                    self.flows
                        .entry(Arc::clone(&slot.tenant))
                        .or_default()
                        .push(HeapEntry {
                            priority,
                            deadline,
                            seq: slot.seq,
                            stamp: slot.stamp,
                            key,
                        });
                }
            }
            return Admission::Coalesced(WaiterHandle {
                cancel: Arc::clone(&slot.cancel),
                cancelled,
            });
        }
        if self.queued >= capacity {
            return Admission::RejectedFull;
        }
        let flow_key = tenant.map_or_else(|| Arc::clone(&self.anon), Arc::clone);
        let seq = self.next_seq;
        self.next_seq += 1;
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.flows
            .entry(Arc::clone(&flow_key))
            .or_default()
            .push(HeapEntry {
                priority,
                deadline,
                seq,
                stamp,
                key: key.clone(),
            });
        let cancel = CancelState::new();
        self.slots.insert(
            key,
            Slot {
                engine_key,
                request: Some(request),
                tenant: flow_key,
                waiters: vec![waiter],
                cancel: Arc::clone(&cancel),
                state: SlotState::Queued,
                priority,
                deadline,
                stamp,
                seq,
            },
        );
        self.queued += 1;
        Admission::Enqueued(WaiterHandle { cancel, cancelled })
    }

    /// Removes and returns `slot`'s waiters whose deadline has passed; if
    /// none remain the slot itself is dead. Order-preserving: fan-out
    /// treats the first surviving waiter as the slot's creator (it alone
    /// receives the unrewritten pool event), so shedding must not shuffle
    /// the survivors.
    fn triage(slot: &mut Slot, now: Instant, shed: &mut Vec<Waiter>) {
        // A cancelled waiter already resolved itself ticket-side
        // (`super::Ticket::cancel`): drop it silently, no shed delivery.
        slot.waiters
            .retain(|w| !w.cancelled.load(AtomicOrdering::Acquire));
        let (dead, live): (Vec<Waiter>, Vec<Waiter>) = std::mem::take(&mut slot.waiters)
            .into_iter()
            .partition(|w| w.deadline.is_some_and(|d| d <= now));
        shed.extend(dead);
        slot.waiters = live;
    }

    /// Builds the dispatch entry for a claimed slot, fixing the run's
    /// cancellation contract at claim time:
    ///
    /// * the shared token's **deadline** is armed only when *every* live
    ///   waiter carries one — a deadline-free waiter wants the result
    ///   regardless, so its run must never be deadline-cancelled — and
    ///   the **latest** deadline wins, because the run stays useful until
    ///   the last waiter gives up;
    /// * the effective [`OnDeadline`] is `Partial` if *any* live waiter
    ///   opted in (fan-out still hands `Fail` waiters the typed error).
    fn entry(key: CoalesceKey, request: SelectionRequest, slot: &Slot) -> DispatchEntry {
        let deadline = if slot.waiters.iter().all(|w| w.deadline.is_some()) {
            slot.waiters.iter().filter_map(|w| w.deadline).max()
        } else {
            None
        };
        slot.cancel.token().set_deadline(deadline);
        let on_deadline = if slot
            .waiters
            .iter()
            .any(|w| w.on_deadline == OnDeadline::Partial)
        {
            OnDeadline::Partial
        } else {
            OnDeadline::Fail
        };
        DispatchEntry {
            key,
            request,
            cancel: Arc::clone(&slot.cancel),
            on_deadline,
        }
    }

    /// Pops the queue-wide winning heap entry: stale heads are discarded
    /// per flow, then the flow whose live head wins — priority first,
    /// smallest effective virtual-finish tag among tied priorities,
    /// EDF/FIFO urgency as the final tiebreak (`seq` is globally unique,
    /// so the order is total and map iteration order never shows) — gives
    /// up its head. Returns the winning flow's key alongside the entry so
    /// the caller can fairness-charge it once the slot actually runs.
    fn pop_fairest(&mut self) -> Option<(Arc<str>, HeapEntry)> {
        // Drop stale heads so every surviving flow's peek is live; empty
        // flow heaps go away entirely (their fairness tags persist in
        // `fair`, which is what makes idle→backlogged re-entry correct).
        let slots = &self.slots;
        self.flows.retain(|_, heap| {
            while let Some(top) = heap.peek() {
                let live = slots
                    .get(&top.key)
                    .is_some_and(|slot| slot.state == SlotState::Queued && slot.stamp == top.stamp);
                if live {
                    break;
                }
                heap.pop();
            }
            !heap.is_empty()
        });
        let mut winner: Option<(&Arc<str>, &HeapEntry, u128)> = None;
        for (tenant, heap) in &self.flows {
            let head = heap.peek().expect("empty flows were retained away");
            let eff = self.fair.effective_vfinish(tenant);
            let wins = match winner {
                None => true,
                Some((_, best_head, best_eff)) => match head.priority.cmp(&best_head.priority) {
                    Ordering::Greater => true,
                    Ordering::Less => false,
                    Ordering::Equal => match eff.cmp(&best_eff) {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => head.urgency(best_head) == Ordering::Greater,
                    },
                },
            };
            if wins {
                winner = Some((tenant, head, eff));
            }
        }
        let tenant = Arc::clone(winner?.0);
        let entry = self
            .flows
            .get_mut(&tenant)
            .expect("winner flow exists")
            .pop()
            .expect("winner head exists");
        Some((tenant, entry))
    }

    /// Claims the next unit of work: the winning live slot (see
    /// [`Self::pop_fairest`] for the priority/fairness/urgency order)
    /// plus up to `max_group - 1` queued slots sharing its engine key (in
    /// submission order), all marked running. Every claimed slot charges
    /// one fairness cost unit to its own flow — cross-tenant ride-alongs
    /// pay their own way. Expired waiters encountered along the way are
    /// shed, not run. An empty [`Dispatch`] means the queue holds no
    /// queued work.
    pub(super) fn pop_dispatch(&mut self, now: Instant, max_group: usize) -> Dispatch {
        let mut dispatch = Dispatch {
            group: Vec::new(),
            shed: Vec::new(),
        };
        let head_key = loop {
            let Some((tenant, entry)) = self.pop_fairest() else {
                return dispatch;
            };
            let slot = self
                .slots
                .get_mut(&entry.key)
                .expect("pop_fairest returns live entries");
            Self::triage(slot, now, &mut dispatch.shed);
            if slot.waiters.is_empty() {
                self.slots.remove(&entry.key);
                self.queued -= 1;
                continue; // fully expired: shed without running
            }
            self.fair.charge(&tenant, 1);
            break entry.key;
        };
        let engine_key = {
            let slot = self.slots.get_mut(&head_key).expect("head slot exists");
            slot.state = SlotState::Running;
            self.queued -= 1;
            let request = slot.request.take().expect("queued slot owns its request");
            dispatch
                .group
                .push(Self::entry(head_key.clone(), request, slot));
            slot.engine_key.clone()
        };
        if max_group > 1 {
            let mut siblings: Vec<(u64, CoalesceKey)> = self
                .slots
                .iter()
                .filter(|(_, s)| s.state == SlotState::Queued && s.engine_key == engine_key)
                .map(|(k, s)| (s.seq, k.clone()))
                .collect();
            siblings.sort_unstable_by_key(|(seq, _)| *seq);
            for (_, key) in siblings.into_iter().take(max_group - 1) {
                let slot = self.slots.get_mut(&key).expect("sibling slot exists");
                Self::triage(slot, now, &mut dispatch.shed);
                if slot.waiters.is_empty() {
                    self.slots.remove(&key);
                    self.queued -= 1;
                    continue;
                }
                slot.state = SlotState::Running;
                self.queued -= 1;
                let request = slot.request.take().expect("queued slot owns its request");
                let tenant = Arc::clone(&slot.tenant);
                dispatch.group.push(Self::entry(key.clone(), request, slot));
                self.fair.charge(&tenant, 1);
            }
        }
        dispatch
    }

    /// Removes a completed running slot, handing back its waiters —
    /// including any that coalesced onto it *after* dispatch — for
    /// fan-out. The slot is matched by its [`CancelState`] identity, not
    /// the key alone: if a fully-cancelled run's slot was evicted by
    /// [`Self::admit`] and the key re-occupied by fresh work, the doomed
    /// run completing late must not remove (or resolve) the newcomer.
    pub(super) fn complete(
        &mut self,
        key: &CoalesceKey,
        cancel: &Arc<CancelState>,
    ) -> Option<Slot> {
        match self.slots.get(key) {
            Some(slot) if Arc::ptr_eq(&slot.cancel, cancel) => {
                debug_assert!(slot.state == SlotState::Running);
                self.slots.remove(key)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrainConfig;
    use crate::service::Budget;
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::time::Duration;

    fn request(graph: &str, budget: usize) -> SelectionRequest {
        SelectionRequest::new(graph, GrainConfig::ball_d(), Budget::Fixed(budget))
    }

    fn waiter() -> (
        SyncSender<GrainResult<SelectionReport>>,
        Receiver<GrainResult<SelectionReport>>,
    ) {
        sync_channel(1)
    }

    fn make_waiter(
        tx: SyncSender<GrainResult<SelectionReport>>,
        deadline: Option<Instant>,
        on_deadline: OnDeadline,
    ) -> Waiter {
        Waiter {
            tx,
            deadline,
            cancelled: Arc::new(AtomicBool::new(false)),
            on_deadline,
            tenant: None,
            submitted_at: Instant::now(),
        }
    }

    fn admit(
        q: &mut DispatchQueue,
        r: &SelectionRequest,
        priority: u8,
        deadline: Option<Instant>,
    ) -> Admission {
        admit_as(q, r, None, priority, deadline)
    }

    fn admit_as(
        q: &mut DispatchQueue,
        r: &SelectionRequest,
        tenant: Option<&str>,
        priority: u8,
        deadline: Option<Instant>,
    ) -> Admission {
        let (tx, rx) = waiter();
        std::mem::forget(rx); // keep the channel connected for the test
        let tenant = tenant.map(Arc::from);
        q.admit(
            PreparedSubmission::new(r.clone(), 0),
            tenant.as_ref(),
            priority,
            make_waiter(tx, deadline, OnDeadline::Fail),
            usize::MAX,
        )
    }

    fn admit_capped(
        q: &mut DispatchQueue,
        r: &SelectionRequest,
        tx: SyncSender<GrainResult<SelectionReport>>,
        capacity: usize,
    ) -> Admission {
        q.admit(
            PreparedSubmission::new(r.clone(), 0),
            None,
            0,
            make_waiter(tx, None, OnDeadline::Fail),
            capacity,
        )
    }

    /// Marks a handle's waiter cancelled exactly as `Ticket::cancel`
    /// does: flag first, then detach from the refcount.
    fn cancel_handle(h: &WaiterHandle) {
        h.cancelled.store(true, AtomicOrdering::Release);
        h.cancel.cancel_one();
    }

    fn popped_budgets(d: &Dispatch) -> Vec<usize> {
        d.group
            .iter()
            .map(|e| match e.request.budget {
                Budget::Fixed(n) => n,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn identical_requests_coalesce_into_one_slot() {
        let mut q = DispatchQueue::default();
        let r = request("g", 5);
        assert!(matches!(admit(&mut q, &r, 0, None), Admission::Enqueued(_)));
        assert!(matches!(
            admit(&mut q, &r, 0, None),
            Admission::Coalesced(_)
        ));
        assert_eq!(q.depth(), 1);
        let d = q.pop_dispatch(Instant::now(), 1);
        assert_eq!(d.group.len(), 1);
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        assert_eq!(slot.waiters.len(), 2);
        assert!(q.is_idle());
    }

    #[test]
    fn different_seed_or_budget_does_not_coalesce() {
        let mut q = DispatchQueue::default();
        let r = request("g", 5);
        assert!(matches!(admit(&mut q, &r, 0, None), Admission::Enqueued(_)));
        let other_budget = request("g", 6);
        assert!(matches!(
            admit(&mut q, &other_budget, 0, None),
            Admission::Enqueued(_)
        ));
        let other_seed = request("g", 5).with_seed(9);
        assert!(matches!(
            admit(&mut q, &other_seed, 0, None),
            Admission::Enqueued(_)
        ));
        assert_eq!(q.depth(), 3);
        // Candidate pools are compared by content: a different pool is
        // new work, an identical pool coalesces.
        let pool_a = request("g", 5).with_candidates(vec![1, 2, 3]);
        let pool_b = request("g", 5).with_candidates(vec![1, 2, 4]);
        assert!(matches!(
            admit(&mut q, &pool_a, 0, None),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &pool_b, 0, None),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &pool_a, 0, None),
            Admission::Coalesced(_)
        ));
        assert_eq!(q.depth(), 5);
    }

    #[test]
    fn stale_entries_from_a_completed_slot_never_resurrect_urgency() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let k = request("k", 1);
        // An urgency upgrade leaves the original heap entry stale.
        admit(&mut q, &k, 7, None);
        assert!(matches!(
            admit(&mut q, &k, 9, None),
            Admission::Coalesced(_)
        ));
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.group[0].request.graph, "k");
        q.complete(&d.group[0].key, &d.group[0].cancel);
        // Re-queue the same coalesce key at low priority next to a
        // mid-priority rival: the dead prio-7 entry must not match the
        // new slot and jump it ahead.
        admit(&mut q, &k, 0, None);
        admit(&mut q, &request("rival", 1), 5, None);
        let d = q.pop_dispatch(now, 1);
        assert_eq!(
            d.group[0].request.graph, "rival",
            "a stale heap entry must not boost a re-queued slot"
        );
        q.complete(&d.group[0].key, &d.group[0].cancel);
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.group[0].request.graph, "k");
        q.complete(&d.group[0].key, &d.group[0].cancel);
        assert!(q.is_idle());
    }

    #[test]
    fn capacity_bounds_new_work_but_not_coalescing() {
        let mut q = DispatchQueue::default();
        let a = request("g", 5);
        let b = request("g", 6);
        let (tx, _rx) = waiter();
        assert!(matches!(
            admit_capped(&mut q, &a, tx, 1),
            Admission::Enqueued(_)
        ));
        let (tx, _rx2) = waiter();
        assert!(matches!(
            admit_capped(&mut q, &b, tx, 1),
            Admission::RejectedFull
        ));
        // Identical to the queued one: still admitted (no new work).
        let (tx, _rx3) = waiter();
        assert!(matches!(
            admit_capped(&mut q, &a, tx, 1),
            Admission::Coalesced(_)
        ));
        assert_eq!(q.depth(), 1);
    }

    #[test]
    fn pop_order_is_priority_then_deadline_then_fifo() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let soon = now + Duration::from_secs(1);
        let later = now + Duration::from_secs(60);
        // Distinct graphs so nothing groups; max_group = 1.
        assert!(matches!(
            admit(&mut q, &request("fifo-a", 1), 0, None),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &request("edf-later", 2), 0, Some(later)),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &request("edf-soon", 3), 0, Some(soon)),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &request("prio", 4), 7, None),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &request("fifo-b", 5), 0, None),
            Admission::Enqueued(_)
        ));
        let mut order = Vec::new();
        loop {
            let d = q.pop_dispatch(now, 1);
            if d.group.is_empty() {
                break;
            }
            order.push(d.group[0].request.graph.clone());
            q.complete(&d.group[0].key.clone(), &d.group[0].cancel);
        }
        assert_eq!(
            order,
            vec!["prio", "edf-soon", "edf-later", "fifo-a", "fifo-b"]
        );
    }

    #[test]
    fn coalesced_urgency_upgrade_reorders_the_queue() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let r_slow = request("a", 1);
        let r_fast = request("b", 1);
        assert!(matches!(
            admit(&mut q, &r_slow, 0, None),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &r_fast, 0, None),
            Admission::Enqueued(_)
        ));
        // FIFO would run `a` first; a high-priority duplicate of `b`
        // drags its slot to the front.
        assert!(matches!(
            admit(&mut q, &r_fast, 9, None),
            Admission::Coalesced(_)
        ));
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.group[0].request.graph, "b");
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        assert_eq!(slot.waiters.len(), 2, "both waiters ride the one slot");
    }

    #[test]
    fn dispatch_groups_by_engine_key_in_submission_order() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        // Same graph + artifact fingerprint, different budgets: one
        // engine key, three distinct coalesce keys.
        for budget in [4, 5, 6] {
            assert!(matches!(
                admit(&mut q, &request("g", budget), 0, None),
                Admission::Enqueued(_)
            ));
        }
        // A foreign engine key queued in between.
        assert!(matches!(
            admit(&mut q, &request("other", 4), 0, None),
            Admission::Enqueued(_)
        ));
        let d = q.pop_dispatch(now, 8);
        assert_eq!(popped_budgets(&d), vec![4, 5, 6]);
        assert!(d.group.iter().all(|e| e.request.graph == "g"));
        assert_eq!(q.depth(), 1, "the foreign key stays queued");
        for e in &d.group {
            q.complete(&e.key, &e.cancel);
        }
        let leftover = q.pop_dispatch(now, 8);
        assert_eq!(leftover.group[0].request.graph, "other");
        q.complete(&leftover.group[0].key, &leftover.group[0].cancel);
        // max_group caps the ride-along count.
        for budget in [4, 5, 6] {
            admit(&mut q, &request("g", budget), 0, None);
        }
        let d = q.pop_dispatch(now, 2);
        assert_eq!(popped_budgets(&d), vec![4, 5]);
    }

    #[test]
    fn expired_waiters_are_shed_at_dequeue_not_run() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let past = now - Duration::from_millis(1);
        let r_dead = request("dead", 1);
        let r_live = request("live", 1);
        assert!(matches!(
            admit(&mut q, &r_dead, 0, Some(past)),
            Admission::Enqueued(_)
        ));
        assert!(matches!(
            admit(&mut q, &r_live, 0, None),
            Admission::Enqueued(_)
        ));
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.shed.len(), 1, "the expired waiter is shed");
        assert_eq!(d.group.len(), 1);
        assert_eq!(d.group[0].request.graph, "live");
        // A mixed slot sheds only its expired waiters and still runs.
        let r_mixed = request("mixed", 1);
        admit(&mut q, &r_mixed, 0, Some(past));
        admit(&mut q, &r_mixed, 0, None);
        q.complete(&d.group[0].key, &d.group[0].cancel);
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.shed.len(), 1);
        assert_eq!(d.group.len(), 1);
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        assert_eq!(slot.waiters.len(), 1, "the live waiter still runs");
    }

    #[test]
    fn shedding_preserves_surviving_waiter_order() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let past = now - Duration::from_millis(1);
        let soon = now + Duration::from_secs(1);
        let later = now + Duration::from_secs(60);
        // Creator expired; survivors must keep their join order (fan-out
        // hands the first surviving waiter the unrewritten pool event).
        let r = request("g", 1);
        admit(&mut q, &r, 0, Some(past));
        admit(&mut q, &r, 0, Some(soon));
        admit(&mut q, &r, 0, Some(later));
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.shed.len(), 1);
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        let deadlines: Vec<_> = slot.waiters.iter().map(|w| w.deadline.unwrap()).collect();
        assert_eq!(deadlines, vec![soon, later]);
    }

    #[test]
    fn cancel_is_refcounted_and_fully_cancelled_slots_never_run() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let r = request("g", 5);
        let Admission::Enqueued(h1) = admit(&mut q, &r, 0, None) else {
            panic!("first submission enqueues")
        };
        let Admission::Coalesced(h2) = admit(&mut q, &r, 0, None) else {
            panic!("duplicate coalesces")
        };
        // One of two waiters cancels: the shared token must stay
        // untripped — the sibling still wants the result.
        cancel_handle(&h1);
        assert!(!h1.cancel.token().is_cancelled());
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.group.len(), 1);
        assert!(
            d.shed.is_empty(),
            "cancelled waiters are not shed deliveries"
        );
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        assert_eq!(slot.waiters.len(), 1, "the cancelled waiter is dropped");
        // The last waiter cancelling trips the token (caller cause).
        cancel_handle(&h2);
        assert!(h2.cancel.token().is_cancelled());
        // A queued slot whose every waiter cancelled is removed at
        // dispatch without running anything.
        let Admission::Enqueued(h) = admit(&mut q, &request("g2", 3), 0, None) else {
            panic!("fresh submission enqueues")
        };
        cancel_handle(&h);
        let d = q.pop_dispatch(now, 1);
        assert!(d.is_empty());
        assert!(q.is_idle());
    }

    #[test]
    fn a_resubmission_after_full_cancellation_is_fresh_work_not_a_coalesce() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let r = request("g", 5);
        let Admission::Enqueued(h) = admit(&mut q, &r, 0, None) else {
            panic!("first submission enqueues")
        };
        // The run is claimed, then its only waiter cancels mid-flight.
        let d = q.pop_dispatch(now, 1);
        let doomed = Arc::clone(&d.group[0].cancel);
        cancel_handle(&h);
        assert!(doomed.token().is_cancelled());
        // An identical submission now must NOT inherit the doomed run.
        assert!(matches!(admit(&mut q, &r, 0, None), Admission::Enqueued(_)));
        assert_eq!(q.depth(), 1);
        // The doomed run completing late matches by cancel-state identity
        // and finds nothing — the newcomer's slot is untouched.
        assert!(q.complete(&d.group[0].key, &doomed).is_none());
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.group.len(), 1, "the fresh slot dispatches normally");
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        assert_eq!(slot.waiters.len(), 1);
        assert!(q.is_idle());
    }

    #[test]
    fn dispatch_arms_the_token_deadline_only_when_every_waiter_has_one() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        let soon = now + Duration::from_secs(1);
        let later = now + Duration::from_secs(60);
        // A deadline-free waiter keeps the run uncancellable.
        let a = request("a", 1);
        admit(&mut q, &a, 0, Some(soon));
        admit(&mut q, &a, 0, None);
        let d = q.pop_dispatch(now, 1);
        assert_eq!(d.group[0].cancel.token().deadline(), None);
        assert_eq!(d.group[0].on_deadline, OnDeadline::Fail);
        q.complete(&d.group[0].key, &d.group[0].cancel);
        // All waiters deadlined: the latest deadline arms the token, and
        // any Partial waiter upgrades the run's effective policy.
        let b = request("b", 1);
        admit(&mut q, &b, 0, Some(soon));
        let (tx, rx) = waiter();
        std::mem::forget(rx);
        q.admit(
            PreparedSubmission::new(b.clone(), 0),
            None,
            0,
            make_waiter(tx, Some(later), OnDeadline::Partial),
            usize::MAX,
        );
        let d = q.pop_dispatch(now, 1);
        assert_eq!(
            d.group[0].cancel.token().deadline(),
            Some(later),
            "the run stays useful until the last waiter gives up"
        );
        assert_eq!(d.group[0].on_deadline, OnDeadline::Partial);
        q.complete(&d.group[0].key, &d.group[0].cancel);
    }

    /// Serially drains the queue with `max_group = 1`, recording the
    /// graph name of each dispatched slot.
    fn drain_order(q: &mut DispatchQueue, now: Instant) -> Vec<String> {
        let mut order = Vec::new();
        loop {
            let d = q.pop_dispatch(now, 1);
            if d.group.is_empty() {
                break;
            }
            order.push(d.group[0].request.graph.clone());
            q.complete(&d.group[0].key.clone(), &d.group[0].cancel);
        }
        order
    }

    #[test]
    fn ten_to_one_weights_dispatch_ten_to_one_work_under_saturation() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        q.set_weight("gold", 10);
        q.set_weight("bronze", 1);
        // Both tenants saturate the queue: 60 distinct slots each
        // (distinct graph names keep engine keys apart so nothing
        // ride-along-groups across tenants here).
        for i in 0..60 {
            admit_as(
                &mut q,
                &request(&format!("gold-{i}"), 1),
                Some("gold"),
                0,
                None,
            );
            admit_as(
                &mut q,
                &request(&format!("bronze-{i}"), 1),
                Some("bronze"),
                0,
                None,
            );
        }
        let order = drain_order(&mut q, now);
        assert_eq!(order.len(), 120);
        // While both stay backlogged (the first 66 dispatches), completed
        // work tracks the 10:1 weights; integer fixed-point truncation
        // allows at most ±1 per window.
        let window = &order[..66];
        let gold = window.iter().filter(|g| g.starts_with("gold")).count();
        let bronze = window.len() - gold;
        assert!(
            (59..=61).contains(&gold),
            "gold got {gold}/66 dispatches, bronze {bronze} — expected ~10:1"
        );
        // Starvation-freedom: bronze (weight 1) is served at least once
        // in every weights-sum-plus-slack window while it is backlogged.
        let bronze_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, g)| g.starts_with("bronze"))
            .map(|(i, _)| i)
            .take(5)
            .collect();
        for pair in bronze_positions.windows(2) {
            assert!(
                pair[1] - pair[0] <= 12,
                "bronze starved for {} dispatches: {bronze_positions:?}",
                pair[1] - pair[0]
            );
        }
    }

    #[test]
    fn priority_still_outranks_fairness_and_tenantless_order_is_unchanged() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        q.set_weight("heavy", 100);
        // A saturated heavy tenant cannot hold back a high-priority slot
        // from an unweighted flow: priority stays the global escape hatch.
        for i in 0..5 {
            admit_as(
                &mut q,
                &request(&format!("heavy-{i}"), 1),
                Some("heavy"),
                0,
                None,
            );
        }
        admit(&mut q, &request("urgent", 1), 7, None);
        let order = drain_order(&mut q, now);
        assert_eq!(order[0], "urgent");
        // And with a single (anonymous) flow the order is the original
        // FIFO — fairness is invisible until tenants exist.
        for name in ["first", "second", "third"] {
            admit(&mut q, &request(name, 1), 0, None);
        }
        assert_eq!(drain_order(&mut q, now), vec!["first", "second", "third"]);
    }

    #[test]
    fn cross_tenant_ride_alongs_charge_their_own_flow() {
        let mut q = DispatchQueue::default();
        let now = Instant::now();
        q.set_weight("a", 1);
        q.set_weight("b", 1);
        // Same graph ⇒ same engine key: b's slot rides along with a's
        // dispatch. The charge must land on b, so a's next head wins the
        // following dispatch (equal weights alternate).
        admit_as(&mut q, &request("g", 1), Some("a"), 0, None);
        admit_as(&mut q, &request("g", 2), Some("b"), 0, None);
        admit_as(&mut q, &request("solo-a", 3), Some("a"), 0, None);
        admit_as(&mut q, &request("solo-b", 4), Some("b"), 0, None);
        let d = q.pop_dispatch(now, 8);
        assert_eq!(popped_budgets(&d), vec![1, 2], "b rides along on g");
        for e in &d.group {
            q.complete(&e.key, &e.cancel);
        }
        // Both flows were charged once; the tie falls back to urgency
        // (seq), so solo-a dispatches before solo-b — and crucially b was
        // NOT left uncharged ahead of a.
        assert_eq!(drain_order(&mut q, now), vec!["solo-a", "solo-b"]);
    }

    #[test]
    fn waiters_joining_a_running_slot_are_returned_at_complete() {
        let mut q = DispatchQueue::default();
        let r = request("g", 5);
        admit(&mut q, &r, 0, None);
        let d = q.pop_dispatch(Instant::now(), 1);
        assert_eq!(q.depth(), 0, "running work holds no queue capacity");
        // An identical submission while running coalesces, costs no
        // capacity, and is visible at completion.
        let (tx, _rx) = waiter();
        assert!(matches!(
            admit_capped(&mut q, &r, tx, 0),
            Admission::Coalesced(_)
        ));
        let slot = q.complete(&d.group[0].key, &d.group[0].cancel).unwrap();
        assert_eq!(slot.waiters.len(), 2);
    }
}
