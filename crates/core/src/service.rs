//! `GrainService` — the concurrent request/response front door of the
//! selection pipeline.
//!
//! PR 2 made [`SelectionEngine`] the serving substrate, PR 3 made it
//! *multi-tenant*; this revision makes it **concurrent**. A
//! [`GrainService`] is `&self` end to end (`Send + Sync`), so one
//! instance behind an `Arc` serves selection requests from any number of
//! threads. It owns
//!
//! * a **corpus registry**: graphs and feature matrices registered once
//!   under a string id and shared via `Arc` with every engine, and
//! * an [`EnginePool`]: a **sharded** LRU map of warm engines keyed by
//!   `(graph id, artifact fingerprint)` — see
//!   [`GrainConfig::artifact_fingerprint`]. Keys hash onto `N` mutexed
//!   shards, each an independent keyed map with LRU ordering, so
//!   requests for unrelated engines never contend on one lock, and a
//!   slow cold build on one shard cannot block hits on another.
//!
//! Three mechanisms make the concurrency safe *and* cheap:
//!
//! 1. **Per-key build latches.** The first request for a cold key claims
//!    a build latch and constructs the engine *outside* the shard lock;
//!    concurrent requests for the same key wait on the latch and share
//!    the one engine instead of duplicating a half-second build
//!    ([`PoolEvent::JoinedBuild`]). Requests for other keys sail past.
//! 2. **Engine mutexes.** Each pooled engine lives behind its own
//!    `Mutex`, so same-key requests serialize only against each other —
//!    the first one through warms the artifact caches for the rest.
//! 3. **Deterministic parallel artifacts.** The artifact hot paths run
//!    over [`GrainConfig::parallelism`] workers with fixed-order
//!    reductions, so artifacts are bit-identical at any thread count and
//!    `parallelism` stays out of the pool key.
//!
//! [`GrainService::submit_batch`] is the batched entry point: it groups
//! requests by engine key, runs the groups across worker threads (each
//! group lands on its own shard/engine), and runs same-key requests —
//! e.g. a budget sweep — sequentially on the one warm engine.
//!
//! Because the pool key is the *artifact* fingerprint, requests that only
//! differ in greedy-stage fields (`gamma`, `variant`, `algorithm`,
//! `prune`, budget) share one engine and rebuild nothing; requests that
//! differ in artifact fields (kernel, `theta`, `radius`, `influence_eps`)
//! get their own engine so alternating workloads never thrash the
//! single-slot artifact caches. Warm answers are bit-identical to cold
//! one-shot runs — the engine contract (`tests/engine_reuse.rs`) extends
//! to the pool, and `tests/concurrent_service.rs` extends it across
//! threads.

use crate::cancel::{CancelToken, OnDeadline};
use crate::config::{GrainConfig, GrainVariant};
use crate::engine::{ArtifactBytes, EngineStats, SelectionEngine};
use crate::error::{GrainError, GrainResult};
use crate::fault;
use crate::selector::{Completion, SelectionOutcome};
use crate::store::{ArtifactStore, ContentAddress, PendingArtifact};
use grain_graph::Graph;
use grain_linalg::{par, DenseMatrix};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, TryLockError};

/// Default total engine capacity of [`GrainService::new`]
/// ([`DEFAULT_POOL_SHARDS`] shards × 2 engines).
pub const DEFAULT_POOL_CAPACITY: usize = 8;

/// Default shard count of [`GrainService::new`].
pub const DEFAULT_POOL_SHARDS: usize = 4;

/// How a request expresses its labeling budget.
#[derive(Clone, Debug, PartialEq)]
pub enum Budget {
    /// Select exactly `n` nodes (clamped to the candidate-pool size).
    Fixed(usize),
    /// Select a fraction of the candidate pool, in `(0, 1]`; resolves to
    /// at least one node.
    Fraction(f64),
    /// A budget sweep: one selection per entry, answered by a single warm
    /// engine (entries clamped to the pool size).
    Sweep(Vec<usize>),
}

impl Budget {
    /// Resolves the budget against a candidate pool of `pool_size` nodes
    /// into the list of concrete budgets to run.
    pub fn resolve(&self, pool_size: usize) -> GrainResult<Vec<usize>> {
        match self {
            Budget::Fixed(n) => Ok(vec![(*n).min(pool_size)]),
            Budget::Fraction(f) => {
                if !(0.0 < *f && *f <= 1.0) {
                    return Err(GrainError::InvalidBudget {
                        message: format!("fraction must lie in (0,1], got {f}"),
                    });
                }
                if pool_size == 0 {
                    return Ok(vec![0]);
                }
                let n = ((*f * pool_size as f64).round() as usize).clamp(1, pool_size);
                Ok(vec![n])
            }
            Budget::Sweep(budgets) => {
                if budgets.is_empty() {
                    return Err(GrainError::InvalidBudget {
                        message: "sweep must name at least one budget".into(),
                    });
                }
                Ok(budgets.iter().map(|&b| b.min(pool_size)).collect())
            }
        }
    }
}

/// A selection request against a registered graph.
///
/// Grain selection is deterministic, so `seed` does not influence the
/// result; it is carried through to the report so mixed workloads that
/// interleave Grain with stochastic baselines can keep one bookkeeping
/// scheme.
#[derive(Clone, Debug)]
pub struct SelectionRequest {
    /// Id of a graph previously passed to [`GrainService::register_graph`].
    pub graph: String,
    /// Full pipeline configuration.
    pub config: GrainConfig,
    /// Labeling budget (fixed, fractional, or a sweep).
    pub budget: Budget,
    /// Candidate pool; `None` selects from all nodes.
    pub candidates: Option<Vec<u32>>,
    /// Per-request override of `config.variant` (Table 3 ablations share
    /// every artifact, so sweeping variants hits one warm engine).
    pub variant: Option<GrainVariant>,
    /// Echoed into the report; see the struct docs.
    pub seed: u64,
}

impl SelectionRequest {
    /// A request selecting from all nodes of `graph` at `budget`.
    #[must_use]
    pub fn new(graph: impl Into<String>, config: GrainConfig, budget: Budget) -> Self {
        Self {
            graph: graph.into(),
            config,
            budget,
            candidates: None,
            variant: None,
            seed: 0,
        }
    }

    /// Restricts selection to an explicit candidate pool (typically the
    /// train partition).
    #[must_use]
    pub fn with_candidates(mut self, candidates: Vec<u32>) -> Self {
        self.candidates = Some(candidates);
        self
    }

    /// Overrides the config's variant for this request only.
    #[must_use]
    pub fn with_variant(mut self, variant: GrainVariant) -> Self {
        self.variant = Some(variant);
        self
    }

    /// Tags the request with a bookkeeping seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The effective configuration after the per-request variant
    /// override.
    pub(crate) fn effective_config(&self) -> GrainConfig {
        let mut config = self.config;
        if let Some(variant) = self.variant {
            config.variant = variant;
        }
        config
    }

    /// The engine-pool key this request routes to:
    /// `(graph id, artifact fingerprint)` of the effective config.
    ///
    /// Requests with equal engine keys are answered by one pooled engine
    /// (warm artifacts); [`GrainService::submit_batch`] groups by this key
    /// and the [`crate::scheduler::Scheduler`] dispatches ready work
    /// grouped by it so each worker lands on a warm engine.
    #[must_use]
    pub fn engine_key(&self) -> (String, String) {
        (
            self.graph.clone(),
            self.effective_config().artifact_fingerprint(),
        )
    }
}

/// What happened in the [`EnginePool`] when a request was routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolEvent {
    /// A warm engine answered; no engine was constructed.
    Hit,
    /// First time this `(graph, fingerprint)` key was seen; this request
    /// built the engine.
    ColdMiss,
    /// The key had been evicted earlier and its engine was rebuilt — the
    /// signal that the pool capacity is too small for the workload.
    RebuildAfterEviction,
    /// Another request was already building this key's engine; this
    /// request waited on the build latch and shares the one result
    /// instead of duplicating the build.
    JoinedBuild,
    /// The request never reached the pool at all: the
    /// [`crate::scheduler::Scheduler`] recognized it as identical to an
    /// in-flight selection and fanned that selection's report out to it —
    /// the build latch's dedup idea, extended from engine builds to whole
    /// selections.
    CoalescedSelection,
}

/// Aggregate [`EnginePool`] counters (summed across shards).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups answered by a pooled engine.
    pub hits: usize,
    /// Lookups that built an engine for a never-seen key.
    pub cold_misses: usize,
    /// Lookups that rebuilt an engine for a previously evicted key.
    pub evicted_rebuilds: usize,
    /// Lookups that waited on another request's in-flight build of the
    /// same key instead of building their own engine.
    pub build_joins: usize,
    /// Engines pushed out by capacity.
    pub evictions: usize,
    /// Engines proactively reclaimed because their corpus epoch fell out
    /// of the retention window ([`GrainService::with_retain_epochs`]):
    /// [`GrainService::apply_update`](crate::streaming) /
    /// [`GrainService::replace_graph`] remove stale-epoch engines
    /// immediately instead of waiting for LRU pressure to age them out.
    pub epoch_reclaims: usize,
    /// Total bytes of artifact state resident across pooled engines, as
    /// of each engine's most recent completed request (a checkout
    /// re-measures its engine when it returns to the pool). Evicted
    /// engines leave the count immediately; an engine mid-build counts
    /// nothing until its first request completes.
    pub resident_bytes: usize,
}

impl PoolStats {
    /// All lookups that had to build an engine.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.cold_misses + self.evicted_rebuilds
    }

    /// Total lookups routed through the pool.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.hits + self.misses() + self.build_joins
    }
}

/// Live pool counters, kept out of the shard mutexes so reading a stats
/// snapshot — which [`SelectionReport`] does once per request — never
/// touches a shard lock. Increments happen on paths that already hold
/// the relevant shard lock; reads are relaxed atomic loads.
#[derive(Default)]
struct PoolCounters {
    hits: AtomicUsize,
    cold_misses: AtomicUsize,
    evicted_rebuilds: AtomicUsize,
    build_joins: AtomicUsize,
    evictions: AtomicUsize,
    epoch_reclaims: AtomicUsize,
    resident_bytes: AtomicUsize,
}

impl PoolCounters {
    fn bump(counter: &AtomicUsize) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a slot permanently off the residency books (eviction, drop,
    /// clear). Zeroing the slot's own record makes the release idempotent
    /// and keeps a still-checked-out handle from later applying a delta
    /// against a count the pool no longer carries. Callers hold the
    /// slot's shard lock, so the swap cannot race a re-measure.
    fn release_slot(&self, slot: &EngineSlot) {
        let recorded = slot.recorded_bytes.swap(0, Ordering::Relaxed);
        self.resident_bytes.fetch_sub(recorded, Ordering::Relaxed);
    }

    fn snapshot(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            cold_misses: self.cold_misses.load(Ordering::Relaxed),
            evicted_rebuilds: self.evicted_rebuilds.load(Ordering::Relaxed),
            build_joins: self.build_joins.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            epoch_reclaims: self.epoch_reclaims.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Pool key: one engine per (graph, corpus epoch, artifact fingerprint).
///
/// The epoch versions the *corpus snapshot* an engine was built over:
/// [`crate::streaming::GraphDelta`] application bumps the registered
/// corpus to epoch `e+1`, so engines for epoch `e` become unreachable by
/// new requests (which always key on the current epoch) while requests
/// already holding an old-epoch checkout finish on their consistent
/// snapshot. Old epochs retire through ordinary LRU eviction — stale
/// engines stop being touched and age out.
#[derive(Clone, Debug, Hash, PartialEq, Eq)]
pub(crate) struct PoolKey {
    pub(crate) graph: String,
    pub(crate) epoch: u64,
    pub(crate) fingerprint: String,
}

/// How many distinct evicted keys **each shard** remembers for
/// classifying a rebuild as [`PoolEvent::RebuildAfterEviction`] rather
/// than a cold miss. The cap is per-shard — a single global cap would let
/// one shard's churn exhaust the whole budget and misclassify every other
/// shard's rebuilds — and bounds the pool's memory in a long-lived
/// service sweeping many artifact fingerprints; once a shard's horizon is
/// full, rebuilds of its older evicted keys are reported as cold misses,
/// a benign misclassification.
const EVICTED_KEY_MEMORY_PER_SHARD: usize = 1024;

/// A pooled engine slot: the per-engine lock that serializes same-key
/// requests, plus the residency record the pool's byte accounting keys
/// off. `recorded_bytes` is the slot's last measured
/// [`SelectionEngine::artifact_bytes`] total **as currently reflected in
/// [`PoolCounters::resident_bytes`]** — re-measures apply the delta, and
/// eviction subtracts exactly what was recorded, so the aggregate never
/// drifts however requests and evictions interleave.
pub(crate) struct EngineSlot {
    pub(crate) engine: Mutex<SelectionEngine>,
    recorded_bytes: AtomicUsize,
}

impl EngineSlot {
    fn new(engine: SelectionEngine) -> Self {
        Self {
            engine: Mutex::new(engine),
            recorded_bytes: AtomicUsize::new(0),
        }
    }
}

/// A pooled engine: shared ownership plus the per-engine lock that
/// serializes same-key requests.
pub(crate) type SharedEngine = Arc<EngineSlot>;

/// One-shot rendezvous for an in-flight engine build: the builder
/// publishes the shared engine (or the build error), every waiter blocks
/// on the condvar until it lands.
#[derive(Default)]
struct BuildLatch {
    slot: Mutex<Option<GrainResult<SharedEngine>>>,
    done: Condvar,
}

impl BuildLatch {
    /// Publishes the build result; the first publication wins (later
    /// calls — e.g. a panic-cleanup guard racing the success path — are
    /// no-ops), and every waiter is woken.
    fn fulfill(&self, result: GrainResult<SharedEngine>) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.done.notify_all();
    }

    /// Blocks until the build result is published and returns it.
    fn wait(&self) -> GrainResult<SharedEngine> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Removes the claimed build latch and publishes an error if the builder
/// unwinds before publishing a result, so waiters fail fast instead of
/// hanging on a dead latch.
struct BuildGuard<'a> {
    shard: &'a Mutex<Shard>,
    key: PoolKey,
    latch: Arc<BuildLatch>,
    completed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            return;
        }
        lock_shard(self.shard).building.remove(&self.key);
        self.latch.fulfill(Err(GrainError::EngineBuildAbandoned {
            graph: self.key.graph.clone(),
        }));
    }
}

/// One pool shard: an independent keyed engine map with LRU ordering,
/// in-flight build latches, and its own eviction memory.
#[derive(Default)]
struct Shard {
    /// Resident engines by key.
    entries: HashMap<PoolKey, SharedEngine>,
    /// Recency order over `entries` keys, most recently used first.
    order: Vec<PoolKey>,
    /// In-flight builds by key.
    building: HashMap<PoolKey, Arc<BuildLatch>>,
    /// Evicted keys, capped at [`EVICTED_KEY_MEMORY_PER_SHARD`].
    evicted: HashSet<PoolKey>,
}

impl Shard {
    /// Moves `key` to the front of the recency order.
    fn touch(&mut self, key: &PoolKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let key = self.order.remove(pos);
            self.order.insert(0, key);
        }
    }

    /// Records an evicted key, up to the per-shard memory cap.
    fn remember_evicted(&mut self, key: PoolKey) {
        if self.evicted.len() < EVICTED_KEY_MEMORY_PER_SHARD {
            self.evicted.insert(key);
        }
    }

    /// Inserts `key` at the MRU position, evicting if the shard is at
    /// `capacity`. Without a byte budget the victim is the LRU engine;
    /// with one ([`EnginePool`] built through
    /// [`GrainService::with_byte_budget`]) the victim is the engine with
    /// the **smallest recorded artifact bytes** — the cheapest to rebuild
    /// — with ties broken toward the LRU end. After the insert, if the
    /// pool-wide resident-byte aggregate still exceeds the budget,
    /// further cheapest-first evictions run until it fits or only the
    /// just-inserted engine remains (which is never evicted by its own
    /// insert, so one over-budget engine can still serve).
    fn insert_mru(
        &mut self,
        key: PoolKey,
        engine: SharedEngine,
        capacity: usize,
        byte_budget: Option<usize>,
        counters: &PoolCounters,
    ) {
        debug_assert!(!self.entries.contains_key(&key));
        if self.entries.len() == capacity {
            self.evict_one(byte_budget.is_some(), None, counters);
        }
        self.order.insert(0, key.clone());
        self.entries.insert(key.clone(), engine);
        if let Some(budget) = byte_budget {
            while self.entries.len() > 1 && counters.resident_bytes.load(Ordering::Relaxed) > budget
            {
                if !self.evict_one(true, Some(&key), counters) {
                    break;
                }
            }
        }
    }

    /// Evicts one engine from this shard and returns whether one was
    /// evicted. `by_bytes` picks the smallest-`recorded_bytes` victim
    /// (scanning from the LRU end so equal-size ties evict the least
    /// recently used); otherwise the LRU tail goes. `protect` exempts one
    /// key (the entry being inserted right now).
    fn evict_one(
        &mut self,
        by_bytes: bool,
        protect: Option<&PoolKey>,
        counters: &PoolCounters,
    ) -> bool {
        let victim_pos = if by_bytes {
            let mut best: Option<(usize, usize)> = None;
            for pos in (0..self.order.len()).rev() {
                let key = &self.order[pos];
                if protect == Some(key) {
                    continue;
                }
                let bytes = self.entries[key].recorded_bytes.load(Ordering::Relaxed);
                if best.map_or(true, |(_, b)| bytes < b) {
                    best = Some((pos, bytes));
                }
            }
            best.map(|(pos, _)| pos)
        } else {
            self.order.len().checked_sub(1)
        };
        let Some(pos) = victim_pos else {
            return false;
        };
        let victim = self.order.remove(pos);
        if let Some(slot) = self.entries.remove(&victim) {
            counters.release_slot(&slot);
        }
        self.remember_evicted(victim);
        PoolCounters::bump(&counters.evictions);
        true
    }

    /// Drops the entry for `key` (both map and recency order).
    fn remove(&mut self, key: &PoolKey) {
        self.entries.remove(key);
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
        }
    }
}

fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // A panic inside a shard critical section cannot leave the map
    // half-updated in a way later lookups mis-serve (every mutation is a
    // complete insert/remove), so serving continues after poisoning.
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

fn lock_engine(engine: &Mutex<SelectionEngine>) -> MutexGuard<'_, SelectionEngine> {
    // Engine artifacts are staged: a panicked request may have built
    // fewer artifacts than it wanted, never a torn one, so the engine
    // stays servable after poisoning.
    engine.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, concurrently usable map of warm [`SelectionEngine`]s.
///
/// Keys hash onto [`EnginePool::num_shards`] mutexed shards; each shard
/// is an independent keyed map with LRU ordering and capacity
/// [`EnginePool::shard_capacity`], so total capacity is
/// `num_shards × shard_capacity` and eviction pressure on one shard never
/// thrashes another. Recency is tracked per *use*, so a steady mixed
/// workload keeps its hot engines resident. Rebuilds of previously
/// evicted keys are counted separately from cold misses — a rising
/// [`PoolStats::evicted_rebuilds`] is the capacity-tuning signal — with
/// the eviction memory capped per shard (`EVICTED_KEY_MEMORY_PER_SHARD`).
///
/// Cold builds run *outside* the shard lock under a per-key build latch:
/// concurrent requests for the same cold key build the engine exactly
/// once ([`PoolEvent::JoinedBuild`] for the waiters), and requests for
/// other keys on the same shard are blocked only for the latch
/// bookkeeping, never for the build itself.
pub struct EnginePool {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    /// When set, eviction is cost-weighted: the victim is the engine with
    /// the smallest recorded artifact bytes (cheapest to rebuild) rather
    /// than the LRU entry, and inserts additionally evict until the
    /// pool-wide [`PoolStats::resident_bytes`] fits the budget. See
    /// [`GrainService::with_byte_budget`].
    byte_budget: Option<usize>,
    counters: PoolCounters,
}

impl EnginePool {
    /// A single-shard pool keeping up to `capacity` warm engines
    /// (minimum 1) — one global LRU order, the deterministic choice for
    /// capacity-sensitive tests and single-threaded embedders.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::sharded(1, capacity)
    }

    /// A pool of `shards` independent LRU shards, each keeping up to
    /// `shard_capacity` warm engines (both minimum 1).
    #[must_use]
    pub fn sharded(shards: usize, shard_capacity: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            shard_capacity: shard_capacity.max(1),
            byte_budget: None,
            counters: PoolCounters::default(),
        }
    }

    /// The resident-byte budget, if one is set.
    pub fn byte_budget(&self) -> Option<usize> {
        self.byte_budget
    }

    pub(crate) fn set_byte_budget(&mut self, bytes: usize) {
        self.byte_budget = Some(bytes);
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Maximum resident engines per shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Maximum number of resident engines across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.shard_capacity
    }

    /// Number of engines currently resident.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .sum()
    }

    /// True if no engine is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate counters. A lock-free snapshot of relaxed atomics —
    /// reading it (which every [`SelectionReport`] does) never contends
    /// with requests on any shard.
    pub fn stats(&self) -> PoolStats {
        self.counters.snapshot()
    }

    /// Resident `(graph, epoch, fingerprint)` keys, shard-major, most
    /// recently used first within each shard.
    pub fn keys(&self) -> Vec<(String, u64, String)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock_shard(shard);
            out.extend(
                shard
                    .order
                    .iter()
                    .map(|k| (k.graph.clone(), k.epoch, k.fingerprint.clone())),
            );
        }
        out
    }

    /// Snapshot of the resident keys serving `(graph, epoch)` — the set
    /// of engines a [`crate::streaming::GraphDelta`] application migrates
    /// to the next epoch. A snapshot, not a lock: engines built or
    /// evicted after it are handled by the cold path (they rebuild over
    /// the new corpus).
    pub(crate) fn resident_keys_for(&self, graph: &str, epoch: u64) -> Vec<PoolKey> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock_shard(shard);
            out.extend(
                shard
                    .entries
                    .keys()
                    .filter(|k| k.graph == graph && k.epoch == epoch)
                    .cloned(),
            );
        }
        out
    }

    /// The resident slot under `key`, if any (no recency touch).
    pub(crate) fn get_slot(&self, key: &PoolKey) -> Option<SharedEngine> {
        let shard = lock_shard(&self.shards[self.shard_of(key)]);
        shard.entries.get(key).cloned()
    }

    /// Inserts a ready-made engine under `key` at the MRU position,
    /// unless a resident engine already claimed the key (the resident —
    /// necessarily fresher — wins and the offered engine is dropped).
    /// Used by epoch migration to park patched engines under their
    /// next-epoch key.
    pub(crate) fn insert_ready(&self, key: PoolKey, engine: SelectionEngine) {
        let bytes = engine.artifact_bytes().total();
        let slot = Arc::new(EngineSlot::new(engine));
        let mut shard = lock_shard(&self.shards[self.shard_of(&key)]);
        if shard.entries.contains_key(&key) {
            return;
        }
        shard.insert_mru(
            key.clone(),
            Arc::clone(&slot),
            self.shard_capacity,
            self.byte_budget,
            &self.counters,
        );
        drop(shard);
        self.record_bytes(&key, &slot, bytes);
    }

    /// Removes every resident engine serving `graph` at an epoch older
    /// than `min_keep_epoch` and returns how many were reclaimed. The
    /// epoch-retention policy ([`GrainService::with_retain_epochs`])
    /// calls this after a corpus update so stale engines release their
    /// memory immediately instead of squatting in the LRU order until
    /// capacity pressure ages them out. Requests still holding a
    /// checkout of a reclaimed engine finish normally on their `Arc`;
    /// reclamation only unmaps the pool entry.
    pub(crate) fn reclaim_stale_epochs(&self, graph: &str, min_keep_epoch: u64) -> usize {
        let mut reclaimed = 0;
        for shard in &self.shards {
            let mut shard = lock_shard(shard);
            let stale: Vec<PoolKey> = shard
                .entries
                .keys()
                .filter(|k| k.graph == graph && k.epoch < min_keep_epoch)
                .cloned()
                .collect();
            for key in stale {
                if let Some(slot) = shard.entries.remove(&key) {
                    self.counters.release_slot(&slot);
                }
                if let Some(pos) = shard.order.iter().position(|k| k == &key) {
                    shard.order.remove(pos);
                }
                shard.remember_evicted(key);
                PoolCounters::bump(&self.counters.epoch_reclaims);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Drops every resident engine (counters are kept, evicted keys are
    /// remembered).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = lock_shard(shard);
            shard.order.clear();
            let dropped: Vec<(PoolKey, SharedEngine)> = shard.entries.drain().collect();
            for (key, slot) in dropped {
                self.counters.release_slot(&slot);
                shard.remember_evicted(key);
            }
        }
    }

    fn shard_of(&self, key: &PoolKey) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) % self.shards.len()
    }

    /// The cached `X^(k)` under `kernel` from any resident engine serving
    /// `graph` at corpus `epoch`, if one holds it *and* is not busy.
    /// Engines are keyed by the full artifact fingerprint (kernel, θ, ε,
    /// r), but `X^(k)` depends on the kernel alone — a new engine for
    /// another fingerprint of the same graph **and epoch** seeds from a
    /// sibling instead of re-propagating. The epoch filter is what keeps
    /// a post-update build from adopting a pre-update `X^(k)`.
    /// Busy siblings are skipped (`try_lock`), trading an occasional
    /// re-propagation for never blocking a build on a foreign request.
    fn cached_propagation(
        &self,
        graph: &str,
        epoch: u64,
        kernel: grain_prop::Kernel,
    ) -> Option<Arc<DenseMatrix>> {
        for shard in &self.shards {
            let candidates: Vec<SharedEngine> = {
                let shard = lock_shard(shard);
                shard
                    .entries
                    .iter()
                    .filter(|(key, _)| key.graph == graph && key.epoch == epoch)
                    .map(|(_, engine)| Arc::clone(engine))
                    .collect()
            };
            for slot in candidates {
                let found = match slot.engine.try_lock() {
                    Ok(engine) => engine.propagated_if_cached(kernel),
                    Err(TryLockError::Poisoned(poisoned)) => {
                        poisoned.into_inner().propagated_if_cached(kernel)
                    }
                    Err(TryLockError::WouldBlock) => None,
                };
                if found.is_some() {
                    return found;
                }
            }
        }
        None
    }

    /// Re-indexes an engine a checkout re-keyed through its `&mut` handle
    /// ([`SelectionEngine::set_config`] with an artifact-field change):
    /// the entry moves from `old_key`'s shard to the shard of the
    /// engine's actual fingerprint, so a lookup never serves wrong-keyed
    /// caches. When re-homing collides with a resident engine under the
    /// new key, the re-keyed engine is dropped and counted as an
    /// eviction.
    fn rehome(&self, old_key: &PoolKey, engine: &SharedEngine, new_fingerprint: String) {
        let new_key = PoolKey {
            graph: old_key.graph.clone(),
            epoch: old_key.epoch,
            fingerprint: new_fingerprint,
        };
        let old_idx = self.shard_of(old_key);
        let new_idx = self.shard_of(&new_key);
        // Lock shards in index order — this is the only path that holds
        // two shard locks, so a consistent order rules out deadlock.
        let (mut old_shard, mut new_shard) = if old_idx == new_idx {
            (lock_shard(&self.shards[old_idx]), None)
        } else {
            let (first, second) = (old_idx.min(new_idx), old_idx.max(new_idx));
            let first_guard = lock_shard(&self.shards[first]);
            let second_guard = lock_shard(&self.shards[second]);
            if old_idx < new_idx {
                (first_guard, Some(second_guard))
            } else {
                (second_guard, Some(first_guard))
            }
        };
        let was_resident = old_shard
            .entries
            .get(old_key)
            .is_some_and(|resident| Arc::ptr_eq(resident, engine));
        if !was_resident {
            return; // already re-homed by another checkout, or evicted
        }
        old_shard.remove(old_key);
        let target = new_shard.as_mut().unwrap_or(&mut old_shard);
        if target.entries.contains_key(&new_key) {
            // The new key already has a (more recently built) engine;
            // the re-keyed one is surplus.
            self.counters.release_slot(engine);
            PoolCounters::bump(&self.counters.evictions);
        } else {
            target.insert_mru(
                new_key,
                Arc::clone(engine),
                self.shard_capacity,
                self.byte_budget,
                &self.counters,
            );
        }
    }

    /// Re-measures a slot's resident artifact bytes into the aggregate.
    /// Applied only while the slot is still pooled under `key`: a slot
    /// evicted while checked out was already taken off the books by
    /// [`PoolCounters::release_slot`] and must stay off. Taking the shard
    /// lock orders the re-measure against eviction and re-homing, so the
    /// aggregate cannot drift however the two interleave.
    fn record_bytes(&self, key: &PoolKey, slot: &SharedEngine, total: usize) {
        let shard = lock_shard(&self.shards[self.shard_of(key)]);
        let resident = shard
            .entries
            .get(key)
            .is_some_and(|pooled| Arc::ptr_eq(pooled, slot));
        if resident {
            let old = slot.recorded_bytes.swap(total, Ordering::Relaxed);
            self.counters
                .resident_bytes
                .fetch_add(total.wrapping_sub(old), Ordering::Relaxed);
        }
    }

    fn get_or_build(
        &self,
        key: PoolKey,
        build: impl FnOnce() -> GrainResult<SelectionEngine>,
    ) -> GrainResult<(SharedEngine, PoolEvent)> {
        enum Claim {
            Hit(SharedEngine),
            Join(Arc<BuildLatch>),
            Build {
                latch: Arc<BuildLatch>,
                rebuilds_evicted: bool,
            },
        }
        let shard_mutex = &self.shards[self.shard_of(&key)];
        let claim = {
            let mut shard = lock_shard(shard_mutex);
            if let Some(engine) = shard.entries.get(&key).cloned() {
                shard.touch(&key);
                PoolCounters::bump(&self.counters.hits);
                Claim::Hit(engine)
            } else if let Some(latch) = shard.building.get(&key).cloned() {
                PoolCounters::bump(&self.counters.build_joins);
                Claim::Join(latch)
            } else {
                let latch = Arc::new(BuildLatch::default());
                shard.building.insert(key.clone(), Arc::clone(&latch));
                Claim::Build {
                    rebuilds_evicted: shard.evicted.contains(&key),
                    latch,
                }
            }
        };
        match claim {
            Claim::Hit(engine) => Ok((engine, PoolEvent::Hit)),
            Claim::Join(latch) => latch.wait().map(|e| (e, PoolEvent::JoinedBuild)),
            Claim::Build {
                latch,
                rebuilds_evicted,
            } => {
                let mut guard = BuildGuard {
                    shard: shard_mutex,
                    key: key.clone(),
                    latch: Arc::clone(&latch),
                    completed: false,
                };
                // The expensive part runs with no lock held: other keys
                // on this shard stay fully servable meanwhile.
                let built = build().map(|engine| Arc::new(EngineSlot::new(engine)));
                let result = {
                    let mut shard = lock_shard(shard_mutex);
                    shard.building.remove(&key);
                    match built {
                        Ok(engine) => {
                            if let Some(resident) = shard.entries.get(&key).cloned() {
                                // A concurrent rehome parked a re-keyed
                                // engine under this key while we were
                                // building: the resident engine (warm
                                // artifacts) wins, our fresh build is
                                // surplus and simply dropped.
                                shard.touch(&key);
                                PoolCounters::bump(&self.counters.hits);
                                Ok((resident, PoolEvent::Hit))
                            } else {
                                let event = if rebuilds_evicted {
                                    PoolCounters::bump(&self.counters.evicted_rebuilds);
                                    shard.evicted.remove(&key);
                                    PoolEvent::RebuildAfterEviction
                                } else {
                                    PoolCounters::bump(&self.counters.cold_misses);
                                    PoolEvent::ColdMiss
                                };
                                shard.insert_mru(
                                    key,
                                    Arc::clone(&engine),
                                    self.shard_capacity,
                                    self.byte_budget,
                                    &self.counters,
                                );
                                Ok((engine, event))
                            }
                        }
                        Err(e) => Err(e),
                    }
                };
                match &result {
                    Ok((engine, _)) => latch.fulfill(Ok(Arc::clone(engine))),
                    Err(e) => latch.fulfill(Err(e.clone())),
                }
                guard.completed = true;
                result
            }
        }
    }
}

/// A pooled engine checked out of a [`GrainService`] for the duration of
/// a caller's work — the concurrent replacement for the old
/// `&mut SelectionEngine` handle.
///
/// [`EngineCheckout::lock`] grants exclusive access to the engine;
/// callers that sweep configurations should apply
/// [`SelectionEngine::set_config`] and run their selections under **one**
/// lock session, so a concurrent request cannot interleave a different
/// greedy-stage configuration.
///
/// Dropping the checkout re-indexes the pool if the caller re-keyed the
/// engine to a different artifact fingerprint via `set_config`, so
/// wrong-keyed caches are never served.
pub struct EngineCheckout<'a> {
    pool: &'a EnginePool,
    key: PoolKey,
    engine: SharedEngine,
}

impl EngineCheckout<'_> {
    /// Locks the pooled engine for exclusive use. Same-key requests block
    /// until the guard drops; unrelated keys are unaffected.
    pub fn lock(&self) -> MutexGuard<'_, SelectionEngine> {
        lock_engine(&self.engine.engine)
    }
}

impl Drop for EngineCheckout<'_> {
    fn drop(&mut self) {
        let measured = match self.engine.engine.try_lock() {
            Ok(engine) => Some((
                engine.config().artifact_fingerprint(),
                engine.artifact_bytes().total(),
            )),
            Err(TryLockError::Poisoned(poisoned)) => {
                let engine = poisoned.into_inner();
                Some((
                    engine.config().artifact_fingerprint(),
                    engine.artifact_bytes().total(),
                ))
            }
            // The engine is busy (another checkout, or a transient
            // sibling-X^(k) probe). Skipping is safe: a concurrent
            // checkout's drop re-homes and re-measures, and even if a
            // re-keyed engine briefly stays under its old key, artifacts
            // are internally keyed by their own config fields and the
            // next hit's `set_config` re-aligns the engine — never a
            // wrong answer, at worst one duplicate build.
            Err(TryLockError::WouldBlock) => None,
        };
        let Some((fingerprint, bytes)) = measured else {
            return;
        };
        self.pool.record_bytes(&self.key, &self.engine, bytes);
        if fingerprint != self.key.fingerprint {
            self.pool.rehome(&self.key, &self.engine, fingerprint);
        }
    }
}

/// Answer to a [`SelectionRequest`]: the selections plus the cache
/// observability of the request.
#[derive(Clone, Debug)]
pub struct SelectionReport {
    /// The graph the request ran against.
    pub graph: String,
    /// The request's bookkeeping seed, echoed.
    pub seed: u64,
    /// Concrete budgets after [`Budget::resolve`], in execution order.
    pub budgets: Vec<usize>,
    /// One outcome per budget (selection, σ, objective trace, per-stage
    /// timings, greedy evaluation counts).
    pub outcomes: Vec<SelectionOutcome>,
    /// What the engine pool did for this request.
    pub pool_event: PoolEvent,
    /// Artifact (re)builds this request triggered — the cache hit/miss
    /// breakdown per pipeline stage; all-zero build counters mean the
    /// request was answered entirely from warm artifacts.
    pub artifact_builds: EngineStats,
    /// Resident bytes of every artifact class the answering engine holds
    /// after this request — warm or newly built ([`ArtifactBytes`]).
    pub artifact_bytes: ArtifactBytes,
    /// Pool counters after the request.
    pub pool_stats: PoolStats,
    /// Whether the request ran to completion or degraded to an anytime
    /// prefix under [`OnDeadline::Partial`] — either the last outcome is
    /// itself a cancelled-mid-greedy prefix, or a sweep was truncated
    /// between budgets. [`GrainService::select`] always reports
    /// [`Completion::Complete`].
    pub completion: Completion,
}

impl SelectionReport {
    /// The single outcome of a [`Budget::Fixed`]/[`Budget::Fraction`]
    /// request.
    ///
    /// # Panics
    /// Panics on a sweep report with more than one budget — iterate
    /// [`SelectionReport::outcomes`] instead.
    pub fn outcome(&self) -> &SelectionOutcome {
        assert_eq!(
            self.outcomes.len(),
            1,
            "outcome() is for single-budget reports; this sweep has {} — iterate .outcomes",
            self.outcomes.len()
        );
        &self.outcomes[0]
    }

    /// True when the request touched no cold state: the pool hit a warm
    /// engine and zero artifacts were rebuilt.
    #[must_use]
    pub fn fully_warm(&self) -> bool {
        self.pool_event == PoolEvent::Hit && self.artifact_builds.total_builds() == 0
    }

    /// True when this report is a deadline-degraded anytime prefix rather
    /// than the full answer (see [`SelectionReport::completion`]).
    #[must_use]
    pub fn is_partial(&self) -> bool {
        matches!(self.completion, Completion::Partial { .. })
    }
}

/// One corpus registered with the service: the current snapshot plus its
/// epoch counter. Both handles are swapped atomically (under the corpora
/// write lock) when a [`crate::streaming::GraphDelta`] lands, and the
/// epoch increments with every swap — requests key their engines by it.
pub(crate) struct Corpus {
    pub(crate) graph: Arc<Graph>,
    pub(crate) features: Arc<DenseMatrix>,
    pub(crate) epoch: u64,
    /// Content-hash of this corpus snapshot's lineage, the
    /// `graph_fingerprint` half of every [`crate::store::ContentAddress`]
    /// persisted for it: [`crate::store::fingerprint_corpus`] at
    /// registration (and wholesale replacement), then
    /// [`crate::store::mix_fingerprint`] folded per applied delta. Zero
    /// when the service has no artifact store (never computed).
    pub(crate) fingerprint: u64,
    /// Older `(epoch, fingerprint)` pairs still inside the retention
    /// window ([`GrainService::with_retain_epochs`]), oldest first; the
    /// current epoch is not listed. Pairs that fall out of the window
    /// have their pooled engines reclaimed and persisted artifacts
    /// removed.
    pub(crate) retired: Vec<(u64, u64)>,
}

/// Multi-tenant, **concurrent** selection service: many graphs, many
/// configs, one sharded pool of warm engines, one artifact store. Every
/// method takes `&self` and the service is `Send + Sync`, so one
/// instance behind an `Arc` serves any number of threads.
///
/// ```
/// use grain_core::service::{Budget, GrainService, SelectionRequest};
/// use grain_core::GrainConfig;
/// use grain_graph::generators;
/// use grain_linalg::DenseMatrix;
///
/// let graph = generators::erdos_renyi_gnm(200, 600, 7);
/// let features = DenseMatrix::full(200, 8, 1.0);
/// let service = GrainService::new();
/// service.register_graph("demo", graph, features)?;
///
/// let request = SelectionRequest::new("demo", GrainConfig::ball_d(), Budget::Fixed(10));
/// let report = service.select(&request)?;
/// assert_eq!(report.outcome().selected.len(), 10);
///
/// // The same request again is answered fully warm, bit-identically.
/// let again = service.select(&request)?;
/// assert!(again.fully_warm());
/// assert_eq!(again.outcome().selected, report.outcome().selected);
///
/// // Batched submission groups by engine key and fans groups out across
/// // worker threads; answers come back in request order.
/// let batch = vec![request.clone(), request.clone()];
/// let reports = service.submit_batch(&batch);
/// assert_eq!(reports.len(), 2);
/// for answer in reports {
///     assert_eq!(answer?.outcome().selected, report.outcome().selected);
/// }
/// # Ok::<(), grain_core::GrainError>(())
/// ```
pub struct GrainService {
    pub(crate) corpora: RwLock<HashMap<String, Corpus>>,
    pub(crate) pool: EnginePool,
    /// Serializes corpus mutations ([`GrainService::apply_update`],
    /// [`GrainService::replace_graph`]) against each other. Reads
    /// (selections) never take it — they snapshot under the corpora
    /// read lock and run on whatever epoch they observed.
    pub(crate) update: Mutex<()>,
    /// On-disk artifact store ([`GrainService::with_artifact_store`]).
    /// When set, cold builds first try to load persisted artifacts and
    /// every freshly built artifact is written back, so a process restart
    /// warm-starts from disk instead of re-propagating.
    pub(crate) store: Option<ArtifactStore>,
    /// How many corpus epochs (per graph) keep their pooled engines and
    /// persisted artifacts after an update lands; see
    /// [`GrainService::with_retain_epochs`]. Default 1: only the current
    /// epoch survives.
    pub(crate) retain_epochs: usize,
    /// Whether pooled engines keep their last greedy run for replay; see
    /// [`GrainService::with_trace_cache`].
    trace_cache: bool,
}

impl Default for GrainService {
    fn default() -> Self {
        Self::new()
    }
}

impl GrainService {
    /// A service with the default pool topology: [`DEFAULT_POOL_SHARDS`]
    /// shards holding [`DEFAULT_POOL_CAPACITY`] engines in total.
    #[must_use]
    pub fn new() -> Self {
        Self::with_topology(
            DEFAULT_POOL_SHARDS,
            DEFAULT_POOL_CAPACITY.div_ceil(DEFAULT_POOL_SHARDS),
        )
    }

    /// A service with a **single-shard** pool keeping up to `capacity`
    /// warm engines — one global LRU order with fully deterministic
    /// eviction, the right choice when exact capacity behavior matters
    /// more than lock spreading (tests, single-threaded embedders).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_topology(1, capacity)
    }

    /// A service with `shards` independent pool shards of
    /// `shard_capacity` engines each.
    #[must_use]
    pub fn with_topology(shards: usize, shard_capacity: usize) -> Self {
        Self {
            corpora: RwLock::new(HashMap::new()),
            pool: EnginePool::sharded(shards, shard_capacity),
            update: Mutex::new(()),
            store: None,
            retain_epochs: 1,
            trace_cache: true,
        }
    }

    /// Attaches an on-disk [`ArtifactStore`] rooted at `dir` (created if
    /// absent) and returns the service, so the builder chains off any
    /// constructor. With a store attached:
    ///
    /// * a **cold build** first asks the store for the propagated
    ///   `X^(k)` (with its power ladder), the influence-row CSR, and the
    ///   activation index under the corpus's content address — a
    ///   validated hit adopts the artifact bit-identically and skips that
    ///   stage's compute; a miss or a corrupt file falls through to the
    ///   ordinary cold build;
    /// * every **freshly built** artifact is written back after the
    ///   request answers, so the next process start finds it;
    /// * [`GrainService::apply_update`](crate::streaming) re-persists
    ///   patched artifacts under the new epoch's address and removes
    ///   epochs that fall out of the retention window.
    ///
    /// Corpora registered before or after attachment both fingerprint
    /// correctly; attach before registering to avoid hashing twice.
    pub fn with_artifact_store(mut self, dir: impl Into<std::path::PathBuf>) -> GrainResult<Self> {
        let store = ArtifactStore::open(dir)?;
        // Corpora registered before attachment carry fingerprint 0
        // (never computed); fix them up so their artifacts address
        // correctly.
        {
            let mut corpora = self.corpora.write().unwrap_or_else(PoisonError::into_inner);
            for corpus in corpora.values_mut() {
                if corpus.fingerprint == 0 {
                    corpus.fingerprint =
                        crate::store::fingerprint_corpus(&corpus.graph, &corpus.features);
                }
            }
        }
        self.store = Some(store);
        Ok(self)
    }

    /// Sets how many epochs of pooled engines and persisted artifacts
    /// each graph retains (minimum 1 — the current epoch always
    /// survives). With the default of 1, an applied update immediately
    /// reclaims every engine still keyed to the previous epoch
    /// ([`PoolStats::epoch_reclaims`]) and deletes its store files; a
    /// larger window keeps `n - 1` past epochs around for in-flight
    /// long-running requests or epoch-pinned readers.
    #[must_use]
    pub fn with_retain_epochs(mut self, epochs: usize) -> Self {
        self.retain_epochs = epochs.max(1);
        self
    }

    /// Caps the pool's resident artifact bytes and switches eviction to
    /// **cost-weighted**: when capacity or the budget forces an eviction,
    /// the victim is the engine with the smallest measured artifact
    /// footprint (cheapest to rebuild) instead of the least recently
    /// used — so one million-node engine is not thrashed out by a parade
    /// of toy graphs. The budget is enforced shard-locally at insert
    /// time against the pool-wide aggregate; a single engine larger than
    /// the whole budget still serves (an insert never evicts itself).
    #[must_use]
    pub fn with_byte_budget(mut self, bytes: usize) -> Self {
        self.pool.set_byte_budget(bytes);
        self
    }

    /// Turns the greedy trace cache of every pooled engine on (the
    /// default) or off. Off makes every request run greedy — what a
    /// timing study of the greedy stage wants.
    #[must_use]
    pub fn with_trace_cache(mut self, enabled: bool) -> Self {
        self.trace_cache = enabled;
        self
    }

    /// The attached artifact store, if any.
    pub fn artifact_store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    /// Counters of the attached artifact store
    /// ([`StoreStats`](crate::store::StoreStats)), if one is attached.
    pub fn store_stats(&self) -> Option<crate::store::StoreStats> {
        self.store.as_ref().map(ArtifactStore::stats)
    }

    /// Registers a corpus under `id` at epoch 0. Accepts owned values or
    /// `Arc`s; every engine serving this graph shares the handles without
    /// copying. Registering the same id twice is an error — each snapshot
    /// is immutable once registered, since pooled engines may hold it; to
    /// mutate a live corpus use
    /// [`GrainService::apply_update`](crate::streaming) (incremental) or
    /// [`GrainService::replace_graph`] (wholesale swap), both of which
    /// advance the epoch instead of touching the registered snapshot.
    ///
    /// Fails with [`GrainError::FeatureShape`] unless there is one feature
    /// row per node, and with [`GrainError::InvalidCorpus`] for a
    /// non-finite feature or a non-finite or non-positive edge weight; a
    /// refused corpus is not registered.
    pub fn register_graph(
        &self,
        id: impl Into<String>,
        graph: impl Into<Arc<Graph>>,
        features: impl Into<Arc<DenseMatrix>>,
    ) -> GrainResult<()> {
        let id = id.into();
        let graph = graph.into();
        let features = features.into();
        crate::streaming::validate_corpus(&graph, &features)?;
        // Only worth hashing the corpus when artifacts will be persisted
        // under its fingerprint.
        let fingerprint = if self.store.is_some() {
            crate::store::fingerprint_corpus(&graph, &features)
        } else {
            0
        };
        let mut corpora = self.corpora.write().unwrap_or_else(PoisonError::into_inner);
        if corpora.contains_key(&id) {
            return Err(GrainError::GraphAlreadyRegistered { graph: id });
        }
        corpora.insert(
            id,
            Corpus {
                graph,
                features,
                epoch: 0,
                fingerprint,
                retired: Vec::new(),
            },
        );
        Ok(())
    }

    /// Registered graph ids, sorted.
    pub fn graphs(&self) -> Vec<String> {
        let corpora = self.corpora.read().unwrap_or_else(PoisonError::into_inner);
        let mut ids: Vec<String> = corpora.keys().cloned().collect();
        ids.sort_unstable();
        ids
    }

    /// Shared handle to a registered graph (its current epoch's snapshot).
    pub fn graph(&self, id: &str) -> GrainResult<Arc<Graph>> {
        self.corpus(id).map(|(graph, _, _, _)| graph)
    }

    /// The current corpus epoch of a registered graph: 0 at registration,
    /// incremented by every [`GrainService::apply_update`] /
    /// [`GrainService::replace_graph`]. The scheduler stamps this into
    /// its coalescing key at submission, so requests coalesce only within
    /// one corpus version.
    pub fn epoch(&self, id: &str) -> GrainResult<u64> {
        self.corpus(id).map(|(_, _, epoch, _)| epoch)
    }

    /// Shared handle to a registered feature matrix (current epoch).
    pub fn features(&self, id: &str) -> GrainResult<Arc<DenseMatrix>> {
        self.corpus(id).map(|(_, features, _, _)| features)
    }

    /// Replaces a registered corpus wholesale with a new snapshot,
    /// advancing its epoch — the coarse-grained sibling of
    /// [`GrainService::apply_update`] for when the new corpus is not a
    /// small delta of the old one. In-flight requests finish on the old
    /// snapshot (their engines are keyed by the old epoch); new requests
    /// build fresh engines over the replacement. Fails with
    /// [`GrainError::UnknownGraph`] if `id` was never registered (use
    /// [`GrainService::register_graph`] for first registration), and
    /// refuses the replacement as `register_graph` would refuse it, with
    /// the epoch left unchanged.
    pub fn replace_graph(
        &self,
        id: &str,
        graph: impl Into<Arc<Graph>>,
        features: impl Into<Arc<DenseMatrix>>,
    ) -> GrainResult<u64> {
        let graph = graph.into();
        let features = features.into();
        crate::streaming::validate_corpus(&graph, &features)?;
        let _update = self.update.lock().unwrap_or_else(PoisonError::into_inner);
        // A replacement shares no lineage with the old snapshot, so its
        // fingerprint is a fresh corpus hash, not a delta-mixed one.
        let fingerprint = if self.store.is_some() {
            crate::store::fingerprint_corpus(&graph, &features)
        } else {
            0
        };
        let (epoch, retirement) = {
            let mut corpora = self.corpora.write().unwrap_or_else(PoisonError::into_inner);
            let corpus = corpora
                .get_mut(id)
                .ok_or_else(|| GrainError::UnknownGraph {
                    graph: id.to_string(),
                })?;
            corpus.retired.push((corpus.epoch, corpus.fingerprint));
            corpus.graph = graph;
            corpus.features = features;
            corpus.epoch += 1;
            corpus.fingerprint = fingerprint;
            (
                corpus.epoch,
                Self::trim_retention(corpus, self.retain_epochs),
            )
        };
        self.reclaim_retired(id, retirement);
        Ok(epoch)
    }

    /// Trims a corpus's retired-epoch list to the retention window and
    /// returns what to reclaim: the dropped `(epoch, fingerprint)` pairs
    /// plus the oldest epoch that must stay pooled. Called under the
    /// corpora write lock; the actual reclamation
    /// ([`GrainService::reclaim_retired`]) runs after it is released.
    pub(crate) fn trim_retention(
        corpus: &mut Corpus,
        retain_epochs: usize,
    ) -> (Vec<(u64, u64)>, u64) {
        let keep_old = retain_epochs.saturating_sub(1);
        let mut dropped = Vec::new();
        while corpus.retired.len() > keep_old {
            dropped.push(corpus.retired.remove(0));
        }
        let min_keep = corpus.retired.first().map_or(corpus.epoch, |&(e, _)| e);
        (dropped, min_keep)
    }

    /// Reclaims pooled engines and persisted artifacts of epochs that
    /// fell out of the retention window. Takes only shard locks (and the
    /// filesystem); callers hold the update mutex, so retention never
    /// races another mutation.
    pub(crate) fn reclaim_retired(&self, id: &str, retirement: (Vec<(u64, u64)>, u64)) {
        let (dropped, min_keep_epoch) = retirement;
        if dropped.is_empty() {
            return;
        }
        self.pool.reclaim_stale_epochs(id, min_keep_epoch);
        if let Some(store) = &self.store {
            for &(epoch, fingerprint) in &dropped {
                store.remove_epoch(fingerprint, epoch);
            }
        }
    }

    /// The pool (inspection: topology, resident keys, stats).
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// Aggregate pool counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Routes `(graph, config)` to its warm engine — building it under
    /// the cold-build latch if needed — and aligns the engine's
    /// greedy-stage fields with `config`.
    ///
    /// This is also the baseline path: selectors that are not Grain pull
    /// shared artifacts (e.g. the propagated `X^(k)` via
    /// [`SelectionEngine::propagated`]) from the same engine Grain
    /// requests use, so every method reads one artifact store. Callers
    /// hold the engine through [`EngineCheckout::lock`]; concurrent
    /// same-key users should re-apply their config under their own lock
    /// session before selecting (as [`GrainService::select`] does).
    pub fn engine(
        &self,
        graph_id: &str,
        config: &GrainConfig,
    ) -> GrainResult<(EngineCheckout<'_>, PoolEvent)> {
        config.validate()?;
        let (graph, features, epoch, fingerprint) = self.corpus(graph_id)?;
        let (checkout, event) =
            self.checkout_engine(graph_id, epoch, fingerprint, config, graph, features)?;
        // Same fingerprint can still differ in greedy-stage fields; the
        // precise invalidation in set_config keeps all artifacts.
        checkout.lock().set_config(*config)?;
        Ok((checkout, event))
    }

    /// Routes `(graph, config)` to its pooled engine without touching the
    /// engine's lock — the shared body of [`GrainService::engine`] and
    /// [`GrainService::select`], which each align the config under their
    /// own lock session. `config` must already be validated and the
    /// corpus handles already fetched, so the warm path pays for both
    /// exactly once.
    fn checkout_engine(
        &self,
        graph_id: &str,
        epoch: u64,
        graph_fingerprint: u64,
        config: &GrainConfig,
        graph: Arc<Graph>,
        features: Arc<DenseMatrix>,
    ) -> GrainResult<(EngineCheckout<'_>, PoolEvent)> {
        let key = PoolKey {
            graph: graph_id.to_string(),
            epoch,
            fingerprint: config.artifact_fingerprint(),
        };
        let (engine, event) = self.pool.get_or_build(key.clone(), || {
            let mut engine = SelectionEngine::over(*config, graph, features)?;
            engine.set_trace_cache(self.trace_cache);
            // X^(k) depends on the kernel alone, not the full
            // fingerprint: a fresh engine adopts a resident sibling's
            // propagation (same graph, same epoch) so e.g. a θ sweep
            // through the service re-propagates nothing. Probed only on
            // an actual build — warm hits never scan the shards — and
            // safe here because build closures run with no shard lock
            // held. Memory beats disk: the store is only consulted for
            // artifacts no sibling holds.
            let seeded = if let Some(propagated) =
                self.pool.cached_propagation(graph_id, epoch, config.kernel)
            {
                engine.seed_propagated(propagated);
                true
            } else {
                false
            };
            if let Some(store) = &self.store {
                // Every load is best-effort: a miss or a corrupt file
                // (counted in StoreStats) just means this stage cold
                // builds, and adopt_* reject shape mismatches. A
                // validated hit is adopted bit-identically, so the
                // engine answers exactly as a cold build would.
                let addr = ContentAddress {
                    graph_fingerprint,
                    epoch,
                    artifact_fingerprint: key.fingerprint.clone(),
                };
                if !seeded {
                    if let Ok(Some((value, ladder))) = store.load_propagation(&addr) {
                        engine.adopt_propagation(
                            Arc::new(value),
                            ladder.into_iter().map(Arc::new).collect(),
                        );
                    }
                }
                if let Ok(Some(rows)) = store.load_rows(&addr) {
                    engine.adopt_rows(rows);
                }
                if let Ok(Some(index)) = store.load_index(&addr) {
                    engine.adopt_index(index);
                }
            }
            Ok(engine)
        })?;
        Ok((
            EngineCheckout {
                pool: &self.pool,
                key,
                engine,
            },
            event,
        ))
    }

    /// Answers a selection request.
    ///
    /// Safe to call from any number of threads: requests for distinct
    /// engine keys proceed independently (sharded pool), requests for the
    /// same key serialize on that engine's mutex, and a cold key is built
    /// exactly once however many requests race for it.
    ///
    /// Typed failures: [`GrainError::UnknownGraph`] for an unregistered
    /// id, [`GrainError::InvalidConfig`] from config validation,
    /// [`GrainError::CandidateOutOfRange`] instead of the engine's panic,
    /// and [`GrainError::InvalidBudget`] from [`Budget::resolve`].
    pub fn select(&self, request: &SelectionRequest) -> GrainResult<SelectionReport> {
        self.select_with(request, &CancelToken::new(), OnDeadline::Fail)
    }

    /// [`GrainService::select`] under cooperative cancellation.
    ///
    /// `cancel` is threaded into the engine
    /// ([`SelectionEngine::select_with_cancel`]) and polled at artifact
    /// stage boundaries, inside the parallel artifact builds, and at
    /// greedy checkpoints. `on_deadline` picks the degradation policy for
    /// deadline trips; an explicit [`CancelToken::cancel`] always fails
    /// with [`GrainError::Cancelled`].
    ///
    /// A [`Budget::Sweep`] runs greedy once, at its largest budget
    /// ([`SelectionEngine::select_budgets_with_cancel`]). Under
    /// [`OnDeadline::Partial`] a deadline trip mid-greedy keeps every
    /// budget the committed picks already cover, plus the next budget in
    /// order as a partial selection; the report's `budgets`/`outcomes` are
    /// truncated there. A trip inside an artifact build, which is never
    /// partial, fails the request typed.
    ///
    /// An untripped token answers bit-identically to
    /// [`GrainService::select`].
    pub fn select_with(
        &self,
        request: &SelectionRequest,
        cancel: &CancelToken,
        on_deadline: OnDeadline,
    ) -> GrainResult<SelectionReport> {
        fault::point("service.request", Some(cancel));
        let config = request.effective_config();
        config.validate()?;
        let (graph, features, epoch, graph_fingerprint) = self.corpus(&request.graph)?;
        let num_nodes = graph.num_nodes();
        // Borrow the request's pool on the hot path — a warm request must
        // cost only greedy, not a per-request candidate copy.
        let candidates: Cow<'_, [u32]> = match &request.candidates {
            Some(pool) => {
                for &c in pool {
                    if c as usize >= num_nodes {
                        return Err(GrainError::CandidateOutOfRange {
                            candidate: c,
                            num_nodes,
                        });
                    }
                }
                Cow::Borrowed(pool.as_slice())
            }
            None => Cow::Owned((0..num_nodes as u32).collect()),
        };
        let mut budgets = request.budget.resolve(candidates.len())?;
        let (checkout, pool_event) = self.checkout_engine(
            &request.graph,
            epoch,
            graph_fingerprint,
            &config,
            graph,
            features,
        )?;
        // One lock session for config alignment plus every budget: a
        // concurrent same-key request cannot interleave its own config.
        let mut engine = checkout.lock();
        engine.set_config(config)?;
        let before = engine.stats();
        let outcomes = engine.select_budgets_with_cancel(
            config.variant,
            &candidates,
            &budgets,
            cancel,
            on_deadline,
        )?;
        // Only a partial last outcome cuts a sweep short.
        let completion = outcomes
            .last()
            .map_or(Completion::Complete, |o| o.completion);
        budgets.truncate(outcomes.len());
        let artifact_builds = engine.stats().delta_since(&before);
        let artifact_bytes = engine.artifact_bytes();
        // Save-on-build: persist exactly the stages this request built
        // (per-stage build deltas, so freshly *loaded* artifacts — which
        // bump no build counters — are never re-written). Encoding runs
        // under the engine lock we already hold; the writes happen after
        // both the lock and the checkout are released, off every hot
        // path. In select_with the checkout fingerprint always equals
        // the effective config's, so the encoded artifacts match their
        // content address. Best-effort: a failed write costs a future
        // cold build, never this request.
        let pending: Vec<PendingArtifact> = match &self.store {
            Some(store)
                if artifact_builds.propagation_builds > 0
                    || artifact_builds.influence_builds > 0
                    || artifact_builds.index_builds > 0 =>
            {
                let addr = ContentAddress {
                    graph_fingerprint,
                    epoch,
                    artifact_fingerprint: config.artifact_fingerprint(),
                };
                let mut pending = Vec::new();
                if artifact_builds.propagation_builds > 0 {
                    if let Some((value, ladder)) = engine.persistable_propagation() {
                        let levels: Vec<&DenseMatrix> = ladder.iter().map(Arc::as_ref).collect();
                        pending.push(store.encode_propagation(&addr, &value, &levels));
                    }
                }
                if artifact_builds.influence_builds > 0 {
                    if let Some(rows) = engine.persistable_rows() {
                        pending.push(store.encode_rows(&addr, rows));
                    }
                }
                if artifact_builds.index_builds > 0 {
                    if let Some(index) = engine.persistable_index() {
                        pending.push(store.encode_index(&addr, index));
                    }
                }
                pending
            }
            _ => Vec::new(),
        };
        drop(engine);
        // Record explicitly while this request still owns the checkout:
        // the drop-time re-measure is best-effort (it skips when another
        // same-key request already grabbed the engine), but every report
        // must land its bytes in the pool aggregate.
        self.pool
            .record_bytes(&checkout.key, &checkout.engine, artifact_bytes.total());
        drop(checkout);
        if let Some(store) = &self.store {
            for artifact in pending {
                let _ = store.commit(artifact);
            }
        }
        Ok(SelectionReport {
            graph: request.graph.clone(),
            seed: request.seed,
            budgets,
            outcomes,
            pool_event,
            artifact_builds,
            artifact_bytes,
            pool_stats: self.pool.stats(),
            completion,
        })
    }

    /// Answers a batch of requests, exploiting the sharded pool: requests
    /// are grouped by engine key `(graph, artifact fingerprint)`, groups
    /// run across worker threads (each group's engine lives on its own
    /// shard slot), and requests within a group — e.g. a budget sweep
    /// over one fingerprint — run sequentially on the group's warm
    /// engine in submission order.
    ///
    /// Reports come back in request order, each independently `Ok` or a
    /// typed error, and are bit-identical to submitting the same requests
    /// one by one ([`GrainService::select`]) in any order.
    ///
    /// Every request runs **panic-isolated**: a panic inside one request
    /// (a corrupted objective, an injected fault) becomes that request's
    /// [`GrainError::SelectionPanicked`] — it never kills a worker
    /// thread, the batch, or another request's result.
    pub fn submit_batch(&self, requests: &[SelectionRequest]) -> Vec<GrainResult<SelectionReport>> {
        self.submit_batch_with_workers(requests, 0)
    }

    /// [`GrainService::submit_batch`] with an explicit worker-thread cap
    /// (`0` = auto). The effective worker count never exceeds the number
    /// of distinct engine keys in the batch.
    pub fn submit_batch_with_workers(
        &self,
        requests: &[SelectionRequest],
        workers: usize,
    ) -> Vec<GrainResult<SelectionReport>> {
        self.run_grouped(
            requests.len(),
            |i| requests[i].engine_key(),
            &|i| self.isolated(&requests[i].graph, || self.select(&requests[i])),
            workers,
        )
    }

    /// [`GrainService::submit_batch_with_workers`] with a per-request
    /// [`CancelToken`] and degradation policy — the entry point the
    /// [`crate::scheduler::Scheduler`] dispatches through, so a waiter
    /// cancelling its ticket stops exactly its own run. Grouping,
    /// ordering, panic isolation, and the bit-identity contract are
    /// unchanged; each request answers as
    /// [`GrainService::select_with`] would.
    pub fn submit_batch_with(
        &self,
        items: &[(SelectionRequest, CancelToken, OnDeadline)],
        workers: usize,
    ) -> Vec<GrainResult<SelectionReport>> {
        self.run_grouped(
            items.len(),
            |i| items[i].0.engine_key(),
            &|i| {
                let (request, cancel, on_deadline) = &items[i];
                self.isolated(&request.graph, || {
                    self.select_with(request, cancel, *on_deadline)
                })
            },
            workers,
        )
    }

    /// Runs `op`, converting a panic into that request's typed
    /// [`GrainError::SelectionPanicked`]. Pool and engine state stay
    /// servable across the unwind: engine artifacts assign only after
    /// complete builds (never torn), poisoned locks are recovered
    /// everywhere, and the cold-build latch guard fails waiters typed.
    fn isolated(
        &self,
        graph: &str,
        op: impl FnOnce() -> GrainResult<SelectionReport>,
    ) -> GrainResult<SelectionReport> {
        catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|_| {
            Err(GrainError::SelectionPanicked {
                graph: graph.to_string(),
            })
        })
    }

    /// Shared batch body: groups indices `0..n` by engine key (preserving
    /// submission order within each group, first-seen group order
    /// overall), fans the groups out over worker threads, and answers
    /// index `i` via `answer(i)`.
    fn run_grouped(
        &self,
        n: usize,
        key_of: impl Fn(usize) -> (String, String),
        answer: &(dyn Fn(usize) -> GrainResult<SelectionReport> + Sync),
        workers: usize,
    ) -> Vec<GrainResult<SelectionReport>> {
        let mut group_of: HashMap<(String, String), usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let key = key_of(i);
            let group = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[group].push(i);
        }
        let workers = par::resolve_threads(workers).min(groups.len()).max(1);
        if workers <= 1 {
            return (0..n).map(answer).collect();
        }
        let mut slots: Vec<Option<GrainResult<SelectionReport>>> = (0..n).map(|_| None).collect();
        let groups = &groups;
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move |_| {
                        let mut answered = Vec::new();
                        let mut g = w;
                        while g < groups.len() {
                            for &i in &groups[g] {
                                answered.push((i, answer(i)));
                            }
                            g += workers;
                        }
                        answered
                    })
                })
                .collect();
            for handle in handles {
                for (i, report) in handle.join().expect("batch worker panicked") {
                    slots[i] = Some(report);
                }
            }
        })
        .expect("batch scope panicked");
        slots
            .into_iter()
            .map(|slot| slot.expect("every request lands in exactly one group"))
            .collect()
    }

    /// One consistent corpus snapshot:
    /// `(graph, features, epoch, fingerprint)` as of a single corpora
    /// read-lock acquisition. A request built from this snapshot runs
    /// entirely on that epoch even if an update lands concurrently.
    pub(crate) fn corpus(&self, id: &str) -> GrainResult<(Arc<Graph>, Arc<DenseMatrix>, u64, u64)> {
        let corpora = self.corpora.read().unwrap_or_else(PoisonError::into_inner);
        corpora
            .get(id)
            .map(|c| {
                (
                    Arc::clone(&c.graph),
                    Arc::clone(&c.features),
                    c.epoch,
                    c.fingerprint,
                )
            })
            .ok_or_else(|| GrainError::UnknownGraph {
                graph: id.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::generators;

    fn corpus(n: usize, seed: u64) -> (Graph, DenseMatrix) {
        let g = generators::erdos_renyi_gnm(n, 3 * n, seed);
        let mut x = DenseMatrix::zeros(n, 6);
        for v in 0..n {
            for (j, value) in x.row_mut(v).iter_mut().enumerate() {
                *value = ((v * 31 + j * 7 + seed as usize) % 13) as f32 * 0.1;
            }
        }
        (g, x)
    }

    fn service_with(graphs: &[(&str, u64)]) -> GrainService {
        let service = GrainService::with_capacity(4);
        for &(id, seed) in graphs {
            let (g, x) = corpus(120, seed);
            service.register_graph(id, g, x).unwrap();
        }
        service
    }

    #[test]
    fn service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GrainService>();
        assert_send_sync::<EnginePool>();
    }

    #[test]
    fn sibling_engines_share_propagation() {
        // A second artifact fingerprint for the same graph (radius change)
        // gets its own pooled engine, but adopts the sibling's X^(k)
        // instead of re-propagating.
        let service = service_with(&[("g", 1)]);
        let base = GrainConfig::ball_d();
        let first = service
            .select(&SelectionRequest::new("g", base, Budget::Fixed(5)))
            .unwrap();
        assert_eq!(first.artifact_builds.propagation_builds, 1);
        let deep = GrainConfig {
            radius: base.radius * 2.0,
            ..base
        };
        let second = service
            .select(&SelectionRequest::new("g", deep, Budget::Fixed(5)))
            .unwrap();
        assert_eq!(second.pool_event, PoolEvent::ColdMiss);
        assert_eq!(
            second.artifact_builds.propagation_builds, 0,
            "the new engine must adopt the sibling's propagation"
        );
        assert_eq!(service.pool().len(), 2);
    }

    #[test]
    fn rekeyed_engines_are_rehomed_not_served_stale() {
        // A caller can re-key a checked-out engine via set_config; when
        // the checkout drops, the pool must re-index it under its actual
        // fingerprint instead of serving its caches for the old key.
        let service = service_with(&[("g", 1)]);
        let base = GrainConfig::ball_d();
        let deep = GrainConfig {
            kernel: grain_prop::Kernel::RandomWalk { k: 3 },
            ..base
        };
        {
            let (checkout, _) = service.engine("g", &base).unwrap();
            checkout.lock().set_config(deep).unwrap();
        } // drop re-homes
          // The re-keyed engine now answers for `deep`...
        let (_, event) = service.engine("g", &deep).unwrap();
        assert_eq!(event, PoolEvent::Hit);
        // ...and a request for `base` builds fresh instead of hitting the
        // wrong-keyed caches.
        let (_, event) = service.engine("g", &base).unwrap();
        assert_eq!(event, PoolEvent::ColdMiss);
        assert_eq!(service.pool().len(), 2);
    }

    #[test]
    fn fixed_and_fraction_budgets_resolve() {
        assert_eq!(Budget::Fixed(5).resolve(100).unwrap(), vec![5]);
        assert_eq!(Budget::Fixed(500).resolve(100).unwrap(), vec![100]);
        assert_eq!(Budget::Fraction(0.1).resolve(100).unwrap(), vec![10]);
        assert_eq!(Budget::Fraction(1e-9).resolve(100).unwrap(), vec![1]);
        assert_eq!(Budget::Fraction(0.5).resolve(0).unwrap(), vec![0]);
        assert!(matches!(
            Budget::Fraction(0.0).resolve(100),
            Err(GrainError::InvalidBudget { .. })
        ));
        assert!(matches!(
            Budget::Fraction(1.5).resolve(100),
            Err(GrainError::InvalidBudget { .. })
        ));
    }

    #[test]
    fn sweep_budgets_resolve_in_order() {
        assert_eq!(
            Budget::Sweep(vec![4, 8, 200]).resolve(100).unwrap(),
            vec![4, 8, 100]
        );
        assert!(matches!(
            Budget::Sweep(vec![]).resolve(100),
            Err(GrainError::InvalidBudget { .. })
        ));
    }

    #[test]
    fn unknown_graph_and_bad_candidates_are_typed() {
        let service = service_with(&[("a", 1)]);
        let missing = SelectionRequest::new("nope", GrainConfig::ball_d(), Budget::Fixed(3));
        assert_eq!(
            service.select(&missing).unwrap_err(),
            GrainError::UnknownGraph {
                graph: "nope".into()
            }
        );
        let out_of_range = SelectionRequest::new("a", GrainConfig::ball_d(), Budget::Fixed(3))
            .with_candidates(vec![0, 5, 9000]);
        assert_eq!(
            service.select(&out_of_range).unwrap_err(),
            GrainError::CandidateOutOfRange {
                candidate: 9000,
                num_nodes: 120
            }
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let service = service_with(&[("a", 1)]);
        let (g, x) = corpus(50, 9);
        assert_eq!(
            service.register_graph("a", g, x),
            Err(GrainError::GraphAlreadyRegistered { graph: "a".into() })
        );
        let (g, x) = corpus(50, 9);
        let short = DenseMatrix::zeros(3, 2);
        assert!(matches!(
            service.register_graph("b", g, short),
            Err(GrainError::FeatureShape { .. })
        ));
        drop(x);
    }

    #[test]
    fn repeat_requests_hit_the_pool_and_match() {
        let service = service_with(&[("a", 1)]);
        let request = SelectionRequest::new("a", GrainConfig::ball_d(), Budget::Fixed(8));
        let cold = service.select(&request).unwrap();
        assert_eq!(cold.pool_event, PoolEvent::ColdMiss);
        assert!(cold.artifact_builds.total_builds() > 0);
        let warm = service.select(&request).unwrap();
        assert!(warm.fully_warm());
        assert_eq!(warm.outcome().selected, cold.outcome().selected);
        assert_eq!(warm.outcome().sigma, cold.outcome().sigma);
        assert_eq!(service.pool_stats().hits, 1);
        assert_eq!(service.pool_stats().cold_misses, 1);
    }

    #[test]
    fn greedy_only_config_changes_share_one_engine() {
        let service = service_with(&[("a", 2)]);
        let base = SelectionRequest::new("a", GrainConfig::ball_d(), Budget::Fixed(6));
        let _ = service.select(&base).unwrap();
        let mut gamma = GrainConfig::ball_d();
        gamma.gamma = 0.25;
        gamma.parallelism = 2; // execution knob, not an artifact field
        let tweaked = SelectionRequest::new("a", gamma, Budget::Fixed(6))
            .with_variant(GrainVariant::NoDiversity);
        let report = service.select(&tweaked).unwrap();
        assert!(report.fully_warm(), "greedy-only change must not rebuild");
        assert_eq!(service.pool().len(), 1);
    }

    #[test]
    fn variant_override_applies() {
        let service = service_with(&[("a", 3)]);
        let full = SelectionRequest::new("a", GrainConfig::ball_d(), Budget::Fixed(6));
        let ablated = full.clone().with_variant(GrainVariant::NoDiversity);
        let a = service.select(&full).unwrap();
        let b = service.select(&ablated).unwrap();
        // NoDiversity ignores the diversity term; traces must differ.
        assert_ne!(a.outcome().objective_trace, b.outcome().objective_trace);
    }

    #[test]
    fn sweep_reports_one_outcome_per_budget() {
        let service = service_with(&[("a", 4)]);
        let request =
            SelectionRequest::new("a", GrainConfig::ball_d(), Budget::Sweep(vec![3, 6, 9]));
        let report = service.select(&request).unwrap();
        assert_eq!(report.budgets, vec![3, 6, 9]);
        assert_eq!(report.outcomes.len(), 3);
        for (outcome, budget) in report.outcomes.iter().zip(&report.budgets) {
            assert_eq!(outcome.selected.len(), *budget);
        }
        // Artifacts were built once for the whole sweep.
        assert_eq!(report.artifact_builds.propagation_builds, 1);
        assert_eq!(report.artifact_builds.selections, 3);
    }

    #[test]
    fn cross_graph_requests_use_distinct_engines() {
        let service = service_with(&[("a", 5), ("b", 6)]);
        let cfg = GrainConfig::ball_d();
        let ra = service
            .select(&SelectionRequest::new("a", cfg, Budget::Fixed(5)))
            .unwrap();
        let rb = service
            .select(&SelectionRequest::new("b", cfg, Budget::Fixed(5)))
            .unwrap();
        assert_eq!(ra.pool_event, PoolEvent::ColdMiss);
        assert_eq!(rb.pool_event, PoolEvent::ColdMiss);
        assert_eq!(service.pool().len(), 2);
        let keys = service.pool().keys();
        // Single-shard pool: MRU first.
        assert_eq!(keys[0].0, "b");
        assert_eq!(keys[1].0, "a");
    }

    #[test]
    fn lru_evicts_and_counts_rebuilds() {
        let service = GrainService::with_capacity(1);
        for (id, seed) in [("a", 7), ("b", 8)] {
            let (g, x) = corpus(80, seed);
            service.register_graph(id, g, x).unwrap();
        }
        let cfg = GrainConfig::ball_d();
        let ra = service
            .select(&SelectionRequest::new("a", cfg, Budget::Fixed(4)))
            .unwrap();
        let _ = service
            .select(&SelectionRequest::new("b", cfg, Budget::Fixed(4)))
            .unwrap();
        let ra2 = service
            .select(&SelectionRequest::new("a", cfg, Budget::Fixed(4)))
            .unwrap();
        assert_eq!(ra2.pool_event, PoolEvent::RebuildAfterEviction);
        assert_eq!(service.pool_stats().evictions, 2);
        assert_eq!(service.pool_stats().evicted_rebuilds, 1);
        // Thrash or not, the answers stay bit-identical.
        assert_eq!(ra.outcome().selected, ra2.outcome().selected);
        assert_eq!(ra.outcome().objective_trace, ra2.outcome().objective_trace);
    }

    #[test]
    fn sharded_pool_isolates_capacity_per_shard() {
        // 4 shards × 1 engine: four distinct fingerprints spread over the
        // shards; as long as two land on different shards, both stay
        // resident — which a global capacity of 1 would forbid.
        let service = GrainService::with_topology(4, 1);
        let (g, x) = corpus(100, 11);
        service.register_graph("a", g, x).unwrap();
        assert_eq!(service.pool().num_shards(), 4);
        assert_eq!(service.pool().capacity(), 4);
        let base = GrainConfig::ball_d();
        let configs: Vec<GrainConfig> = (0..4)
            .map(|i| GrainConfig {
                radius: base.radius + i as f32 * 0.01,
                ..base
            })
            .collect();
        for cfg in &configs {
            let _ = service
                .select(&SelectionRequest::new("a", *cfg, Budget::Fixed(4)))
                .unwrap();
        }
        assert!(
            service.pool().len() >= 2,
            "4 keys over 4 single-slot shards must keep at least 2 resident"
        );
        let stats = service.pool_stats();
        assert_eq!(stats.cold_misses, 4);
    }

    #[test]
    fn submit_batch_answers_in_request_order_and_matches_serial() {
        let service = service_with(&[("a", 12), ("b", 13)]);
        let base = GrainConfig::ball_d();
        let deep = GrainConfig {
            theta: grain_influence::ThetaRule::RelativeToRowMax(0.5),
            ..base
        };
        let requests = vec![
            SelectionRequest::new("a", base, Budget::Fixed(5)),
            SelectionRequest::new("b", base, Budget::Sweep(vec![3, 6])),
            SelectionRequest::new("a", deep, Budget::Fixed(5)),
            SelectionRequest::new("a", base, Budget::Fixed(7)), // same key as #0
            SelectionRequest::new("nope", base, Budget::Fixed(2)), // typed error
        ];
        let serial: Vec<GrainResult<SelectionReport>> = {
            let oracle = service_with(&[("a", 12), ("b", 13)]);
            requests.iter().map(|r| oracle.select(r)).collect()
        };
        let batched = service.submit_batch(&requests);
        assert_eq!(batched.len(), requests.len());
        for (i, (batch, serial)) in batched.iter().zip(&serial).enumerate() {
            match (batch, serial) {
                (Ok(b), Ok(s)) => {
                    assert_eq!(b.budgets, s.budgets, "request {i}");
                    for (bo, so) in b.outcomes.iter().zip(&s.outcomes) {
                        assert_eq!(bo.selected, so.selected, "request {i}");
                        assert_eq!(bo.objective_trace, so.objective_trace, "request {i}");
                    }
                }
                (Err(b), Err(s)) => assert_eq!(b, s, "request {i}"),
                other => panic!("request {i}: batch/serial disagree: {other:?}"),
            }
        }
    }

    #[test]
    fn reports_carry_artifact_bytes_and_pool_tracks_residency() {
        let service = service_with(&[("a", 20), ("b", 21)]);
        let cfg = GrainConfig::ball_d();
        let ra = service
            .select(&SelectionRequest::new("a", cfg, Budget::Fixed(5)))
            .unwrap();
        assert!(ra.artifact_bytes.influence_rows > 0);
        assert!(ra.artifact_bytes.total() > 0);
        assert_eq!(
            service.pool_stats().resident_bytes,
            ra.artifact_bytes.total(),
            "one resident engine: the pool aggregate is its measure"
        );
        // A second graph adds its own engine's bytes on top.
        let rb = service
            .select(&SelectionRequest::new("b", cfg, Budget::Fixed(5)))
            .unwrap();
        assert_eq!(
            service.pool_stats().resident_bytes,
            ra.artifact_bytes.total() + rb.artifact_bytes.total()
        );
        // The report snapshots the aggregate *after* recording itself.
        assert_eq!(
            rb.pool_stats.resident_bytes,
            service.pool_stats().resident_bytes
        );
        // Dropping every engine zeroes the aggregate.
        service.pool().clear();
        assert_eq!(service.pool_stats().resident_bytes, 0);
    }

    #[test]
    fn byte_budget_evicts_cheapest_to_rebuild_not_lru() {
        // Single-shard pool of 2 with a byte budget: eviction is
        // cost-weighted. "big" (400 nodes) is the LRU entry when "t2"
        // arrives, but the victim must be the small engine "t1" — a
        // million-node engine is not thrashed out by toy graphs.
        let service = GrainService::with_capacity(2).with_byte_budget(usize::MAX);
        let (g, x) = corpus(400, 31);
        service.register_graph("big", g, x).unwrap();
        for (id, seed) in [("t1", 32), ("t2", 33)] {
            let (g, x) = corpus(40, seed);
            service.register_graph(id, g, x).unwrap();
        }
        let cfg = GrainConfig::ball_d();
        for id in ["big", "t1", "t2"] {
            let _ = service
                .select(&SelectionRequest::new(id, cfg, Budget::Fixed(4)))
                .unwrap();
        }
        assert_eq!(service.pool_stats().evictions, 1);
        let resident: Vec<String> = service.pool().keys().into_iter().map(|k| k.0).collect();
        assert!(
            resident.contains(&"big".to_string()),
            "the expensive engine must survive: resident = {resident:?}"
        );
        assert!(!resident.contains(&"t1".to_string()));
        // And the survivor still answers warm.
        let report = service
            .select(&SelectionRequest::new("big", cfg, Budget::Fixed(4)))
            .unwrap();
        assert_eq!(report.pool_event, PoolEvent::Hit);
    }

    #[test]
    fn byte_budget_enforces_the_aggregate_cap() {
        // A 1-byte budget can never fit two measured engines: each
        // insert evicts every previously measured engine (the insert
        // itself is protected, so one over-budget engine still serves).
        let service = GrainService::with_capacity(8).with_byte_budget(1);
        for (id, seed) in [("a", 41), ("b", 42), ("c", 43)] {
            let (g, x) = corpus(60, seed);
            service.register_graph(id, g, x).unwrap();
        }
        let cfg = GrainConfig::ball_d();
        for id in ["a", "b", "c"] {
            let _ = service
                .select(&SelectionRequest::new(id, cfg, Budget::Fixed(3)))
                .unwrap();
        }
        assert_eq!(
            service.pool().len(),
            1,
            "only the most recent insert may stay resident under a 1-byte budget"
        );
        assert_eq!(service.pool().byte_budget(), Some(1));
    }

    #[test]
    fn eviction_subtracts_exactly_the_evicted_bytes() {
        let service = GrainService::with_capacity(1);
        for (id, seed) in [("a", 22), ("b", 23)] {
            let (g, x) = corpus(80, seed);
            service.register_graph(id, g, x).unwrap();
        }
        let cfg = GrainConfig::ball_d();
        let _ = service
            .select(&SelectionRequest::new("a", cfg, Budget::Fixed(4)))
            .unwrap();
        // Capacity 1: selecting on "b" evicts "a"; only "b" stays counted.
        let rb = service
            .select(&SelectionRequest::new("b", cfg, Budget::Fixed(4)))
            .unwrap();
        assert_eq!(service.pool_stats().evictions, 1);
        assert_eq!(
            service.pool_stats().resident_bytes,
            rb.artifact_bytes.total()
        );
    }

    #[test]
    fn outcome_accessor_guards_sweeps() {
        let service = service_with(&[("a", 10)]);
        let report = service
            .select(&SelectionRequest::new(
                "a",
                GrainConfig::ball_d(),
                Budget::Sweep(vec![2, 4]),
            ))
            .unwrap();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| report.outcome().clone()));
        assert!(caught.is_err(), "outcome() must panic on sweeps");
    }
}
