//! `EnginePool` — the sharded, concurrently usable map of warm
//! [`SelectionEngine`]s behind [`crate::service::GrainService`].
//!
//! Engines are keyed by `(graph id, corpus epoch, artifact fingerprint)`
//! — see [`crate::GrainConfig::artifact_fingerprint`]. Keys hash onto `N`
//! mutexed shards, each an independent keyed map with LRU ordering and
//! its own capacity, so requests for unrelated engines never contend on
//! one lock, and a slow cold build on one shard cannot block hits on
//! another. Capacity eviction is least-recently-used within a shard. The
//! only other removals are [`EnginePool::clear`] and an epoch flip, which
//! reclaims every older-epoch engine of the updated graph
//! ([`PoolStats::epoch_reclaims`]).
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
//!    over [`crate::GrainConfig::parallelism`] workers with fixed-order
//!    reductions, so artifacts are bit-identical at any thread count and
//!    `parallelism` stays out of the pool key.
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
//!
//! An engine stays under the key it was built for, whatever its active
//! config later becomes; [`EngineCheckout`] states what that means for a
//! caller that re-keys one.

use crate::engine::{Propagated, Published, SelectionEngine};
use crate::error::{GrainError, GrainResult};
use std::collections::{HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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
    /// Engines reclaimed because their corpus epoch was superseded: an
    /// epoch flip ([`crate::GrainService::apply_update`],
    /// [`crate::GrainService::replace_graph`]) removes every older-epoch
    /// engine of the graph at once instead of waiting for LRU pressure to
    /// age them out.
    pub epoch_reclaims: usize,
    /// Total bytes of artifact state resident across pooled engines, as
    /// of each engine's most recent completed request (a checkout records
    /// its engine's published byte count when it returns to the pool).
    /// Evicted engines leave the count immediately; an engine mid-build
    /// counts nothing until its first request completes.
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
/// snapshot — which [`crate::service::SelectionReport`] does once per
/// request — never touches a shard lock. Increments happen on paths that
/// already hold the relevant shard lock; reads are relaxed atomic loads.
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
    /// slot's shard lock, so the swap cannot race a record.
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
/// snapshot. The flip reclaims the old epoch's engines from the pool.
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
/// requests, the cell the engine publishes its artifact snapshot into,
/// and the residency record the pool's byte accounting keys off.
/// `recorded_bytes` is the slot's last recorded
/// [`SelectionEngine::artifact_bytes`] total **as currently reflected in
/// [`PoolCounters::resident_bytes`]** — re-records apply the delta, and
/// eviction subtracts exactly what was recorded, so the aggregate never
/// drifts however requests and evictions interleave.
pub(crate) struct EngineSlot {
    engine: Mutex<SelectionEngine>,
    published: Arc<Mutex<Published>>,
    recorded_bytes: AtomicUsize,
}

impl EngineSlot {
    fn new(engine: SelectionEngine) -> Self {
        Self {
            published: Arc::clone(&engine.published),
            engine: Mutex::new(engine),
            recorded_bytes: AtomicUsize::new(0),
        }
    }

    /// The engine's last published snapshot, read without waiting on a
    /// select that holds the engine.
    pub(crate) fn published(&self) -> MutexGuard<'_, Published> {
        // Publication is one assignment, so a poisoned cell is whole.
        self.published.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Unmaps `key` (map and recency order), takes its slot off the
    /// residency books and remembers the key as evicted.
    fn retire(&mut self, key: PoolKey, counters: &PoolCounters) {
        if let Some(slot) = self.entries.remove(&key) {
            counters.release_slot(&slot);
        }
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
        }
        self.remember_evicted(key);
    }

    /// Inserts `key` at the MRU position, first evicting the LRU engine
    /// if the shard is at `capacity`.
    fn insert_mru(
        &mut self,
        key: PoolKey,
        engine: SharedEngine,
        capacity: usize,
        counters: &PoolCounters,
    ) {
        debug_assert!(!self.entries.contains_key(&key));
        if self.entries.len() == capacity {
            if let Some(victim) = self.order.last().cloned() {
                self.retire(victim, counters);
                PoolCounters::bump(&counters.evictions);
            }
        }
        self.order.insert(0, key.clone());
        self.entries.insert(key, engine);
    }
}

fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    // A panic inside a shard critical section cannot leave the map
    // half-updated in a way later lookups mis-serve (every mutation is a
    // complete insert/remove), so serving continues after poisoning.
    shard.lock().unwrap_or_else(PoisonError::into_inner)
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
    counters: PoolCounters,
}

impl EnginePool {
    /// A pool of `shards` independent LRU shards, each keeping up to
    /// `shard_capacity` warm engines (both minimum 1).
    #[must_use]
    pub fn sharded(shards: usize, shard_capacity: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            shard_capacity: shard_capacity.max(1),
            counters: PoolCounters::default(),
        }
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
    /// reading it (which every [`crate::service::SelectionReport`] does)
    /// never contends with requests on any shard.
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

    /// Snapshot of the resident slots serving `(graph, epoch)` — the
    /// engines a [`crate::streaming::GraphDelta`] application migrates to
    /// the next epoch, and the siblings a fresh engine adopts `X^(k)`
    /// from. A snapshot, not a lock: engines built after it are handled by
    /// the cold path (they rebuild over the new corpus).
    pub(crate) fn resident_slots_for(&self, graph: &str, epoch: u64) -> Vec<SharedEngine> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = lock_shard(shard);
            out.extend(
                shard
                    .entries
                    .iter()
                    .filter(|(k, _)| k.graph == graph && k.epoch == epoch)
                    .map(|(_, slot)| Arc::clone(slot)),
            );
        }
        out
    }

    /// Inserts a ready-made engine under `key` at the MRU position,
    /// unless a resident engine already claimed the key (the resident —
    /// necessarily fresher — wins and the offered engine is dropped).
    /// Used by epoch migration to park patched engines under their
    /// next-epoch key.
    pub(crate) fn insert_ready(&self, key: PoolKey, engine: SelectionEngine) {
        let bytes = engine.artifact_bytes().total();
        let mut shard = lock_shard(&self.shards[self.shard_of(&key)]);
        if shard.entries.contains_key(&key) {
            return;
        }
        let slot = EngineSlot::new(engine);
        slot.recorded_bytes.store(bytes, Ordering::Relaxed);
        self.counters.resident_bytes.fetch_add(bytes, Ordering::Relaxed);
        let (capacity, counters) = (self.shard_capacity, &self.counters);
        shard.insert_mru(key, Arc::new(slot), capacity, counters);
    }

    /// Removes every resident engine serving `graph` at an epoch older
    /// than `min_keep_epoch`, so a superseded epoch releases its memory
    /// at the flip instead of squatting in the LRU order until capacity
    /// pressure ages it out. Requests still holding a checkout of a
    /// reclaimed engine finish normally on their `Arc`; reclamation only
    /// unmaps the pool entry.
    pub(crate) fn reclaim_stale_epochs(&self, graph: &str, min_keep_epoch: u64) {
        for shard in &self.shards {
            let mut shard = lock_shard(shard);
            let stale: Vec<PoolKey> = shard
                .entries
                .keys()
                .filter(|k| k.graph == graph && k.epoch < min_keep_epoch)
                .cloned()
                .collect();
            for key in stale {
                shard.retire(key, &self.counters);
                PoolCounters::bump(&self.counters.epoch_reclaims);
            }
        }
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

    /// The `X^(k)` under `kernel`, power ladder included, that any
    /// resident engine serving `graph` at corpus `epoch` has published.
    /// Engines are keyed by the full artifact fingerprint (kernel, θ, ε,
    /// r), but `X^(k)` depends on the kernel alone — a new engine for
    /// another fingerprint of the same graph **and epoch** adopts a
    /// sibling's instead of re-propagating, and patches it level-locally
    /// after a delta. The epoch filter is what keeps a post-update build
    /// from adopting a pre-update `X^(k)`. Reads published snapshots only,
    /// so a sibling busy with a select still donates.
    pub(crate) fn cached_propagation(
        &self,
        graph: &str,
        epoch: u64,
        kernel: grain_prop::Kernel,
    ) -> Option<Arc<Propagated>> {
        self.resident_slots_for(graph, epoch)
            .iter()
            .find_map(|slot| slot.published().propagation(kernel))
    }

    /// Records a slot's resident artifact bytes into the aggregate.
    /// Applied only while the slot is still pooled under `key`: a slot
    /// evicted while checked out was already taken off the books by
    /// [`PoolCounters::release_slot`] and must stay off. Taking the shard
    /// lock orders the record against eviction, so the aggregate cannot
    /// drift however the two interleave.
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

    /// Checks out the engine under `key`: a resident engine, the result
    /// of another request's in-flight build of the same key, or — when
    /// neither exists — a fresh `build()` run with no lock held.
    pub(crate) fn checkout(
        &self,
        key: PoolKey,
        build: impl FnOnce() -> GrainResult<SelectionEngine>,
    ) -> GrainResult<(EngineCheckout<'_>, PoolEvent)> {
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
        let (engine, event) = match claim {
            Claim::Hit(engine) => (engine, PoolEvent::Hit),
            Claim::Join(latch) => (latch.wait()?, PoolEvent::JoinedBuild),
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
                // on this shard stay fully servable meanwhile. Nothing
                // else inserts under a key while its latch is claimed
                // (epoch migration only inserts keys of an epoch no
                // request can observe yet), so the key is still vacant.
                let built = build().map(|engine| Arc::new(EngineSlot::new(engine)));
                let result = {
                    let mut shard = lock_shard(shard_mutex);
                    shard.building.remove(&key);
                    built.map(|engine| {
                        let event = if rebuilds_evicted {
                            PoolCounters::bump(&self.counters.evicted_rebuilds);
                            shard.evicted.remove(&key);
                            PoolEvent::RebuildAfterEviction
                        } else {
                            PoolCounters::bump(&self.counters.cold_misses);
                            PoolEvent::ColdMiss
                        };
                        shard.insert_mru(
                            key.clone(),
                            Arc::clone(&engine),
                            self.shard_capacity,
                            &self.counters,
                        );
                        (engine, event)
                    })
                };
                latch.fulfill(
                    result
                        .as_ref()
                        .map(|(e, _)| Arc::clone(e))
                        .map_err(Clone::clone),
                );
                guard.completed = true;
                result?
            }
        };
        Ok((
            EngineCheckout {
                pool: self,
                key,
                engine,
            },
            event,
        ))
    }
}

/// A pooled engine checked out of a [`crate::GrainService`] for the
/// duration of a caller's work — the concurrent replacement for the old
/// `&mut SelectionEngine` handle.
///
/// [`EngineCheckout::lock`] grants exclusive access to the engine;
/// callers that sweep configurations should apply
/// [`SelectionEngine::set_config`] and run their selections under **one**
/// lock session, so a concurrent request cannot interleave a different
/// greedy-stage configuration. Dropping the checkout records the byte
/// count the engine last published into [`PoolStats::resident_bytes`],
/// without waiting on a request that holds the engine.
///
/// # Re-keying
///
/// A caller may move the engine to another artifact fingerprint through
/// [`SelectionEngine::set_config`]. The engine stays pooled under the key
/// it was checked out with. That costs at most one rebuild and never a
/// wrong answer or a wrong store address:
///
/// * every cached artifact is keyed by its own config fields, so the
///   next request that hits this key aligns the engine with its own
///   config ([`crate::GrainService::select`] and
///   [`crate::GrainService::engine`] both do) and rebuilds exactly the
///   stages that differ;
/// * the store is addressed by the engine's active config at the moment
///   of each save or load, never by the pool key;
/// * an epoch flip parks the patched engine under its active config's
///   fingerprint.
pub struct EngineCheckout<'a> {
    pool: &'a EnginePool,
    key: PoolKey,
    engine: SharedEngine,
}

impl EngineCheckout<'_> {
    /// Locks the pooled engine for exclusive use. Same-key requests block
    /// until the guard drops; unrelated keys are unaffected.
    pub fn lock(&self) -> MutexGuard<'_, SelectionEngine> {
        // Engine artifacts are staged: a panicked request may have built
        // fewer artifacts than it wanted, never a torn one, so the engine
        // stays servable after poisoning.
        self.engine.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for EngineCheckout<'_> {
    fn drop(&mut self) {
        let bytes = self.engine.published().bytes.total();
        self.pool.record_bytes(&self.key, &self.engine, bytes);
    }
}
