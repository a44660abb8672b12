//! `GrainService` — the concurrent request/response front door of the
//! selection pipeline.
//!
//! A [`GrainService`] is `&self` end to end (`Send + Sync`), so one
//! instance behind an `Arc` serves selection requests from any number of
//! threads. It owns
//!
//! * a **corpus registry**: graphs and feature matrices registered once
//!   under a string id and shared via `Arc` with every engine, and
//! * an [`EnginePool`]: a sharded LRU map of warm engines keyed by
//!   `(graph id, epoch, artifact fingerprint)` — see [`crate::pool`] for
//!   its sharding, build latches and checkout contract.
//!
//! [`GrainService::submit_batch`] is the batched entry point: it groups
//! requests by engine key, runs the groups across worker threads (each
//! group lands on its own shard/engine), and runs same-key requests —
//! e.g. a budget sweep — sequentially on the one warm engine.

use crate::cancel::{CancelToken, OnDeadline};
use crate::config::{GrainConfig, GrainVariant};
use crate::engine::{ArtifactBytes, EngineStats, SelectionEngine};
use crate::error::{GrainError, GrainResult};
use crate::fault;
use crate::pool::{EngineCheckout, EnginePool, PoolEvent, PoolKey, PoolStats};
use crate::selector::{Completion, SelectionOutcome};
use crate::store::ArtifactStore;
use grain_graph::Graph;
use grain_linalg::{par, DenseMatrix};
use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

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
            trace_cache: true,
        }
    }

    /// Attaches an on-disk [`ArtifactStore`] rooted at `dir` (created if
    /// absent) and returns the service, so the builder chains off any
    /// constructor. With a store attached:
    ///
    /// * a **cold build** first asks the store for the propagated
    ///   `X^(k)` (with its power ladder), the influence-row CSR, and the
    ///   activation index under the engine's content address — a
    ///   validated hit adopts the artifact bit-identically and skips that
    ///   stage's compute; a miss or a corrupt file falls through to the
    ///   ordinary cold build;
    /// * every **freshly built** artifact is written back after the
    ///   request answers, so the next process start finds it;
    /// * [`GrainService::apply_update`] re-persists patched artifacts
    ///   under the new epoch's address and removes the superseded
    ///   epoch's files.
    ///
    /// Both directions go through one engine-side seam
    /// (`SelectionEngine::adopt` / `SelectionEngine::pending_built`),
    /// which addresses the store by the engine's own active config.
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
        self.flip_epoch(id, graph, features, fingerprint)
    }

    /// Swaps `id`'s corpus to the next epoch's snapshot and returns the new
    /// epoch. Only the current epoch is kept: every older-epoch engine of
    /// the graph is reclaimed from the pool ([`PoolStats::epoch_reclaims`])
    /// and the superseded epoch's store files are removed. Callers hold
    /// the update mutex; the reclamation runs after the corpora write
    /// lock is released.
    pub(crate) fn flip_epoch(
        &self,
        id: &str,
        graph: Arc<Graph>,
        features: Arc<DenseMatrix>,
        fingerprint: u64,
    ) -> GrainResult<u64> {
        let (old_epoch, old_fingerprint) = {
            let mut corpora = self.corpora.write().unwrap_or_else(PoisonError::into_inner);
            let corpus = corpora
                .get_mut(id)
                .ok_or_else(|| GrainError::UnknownGraph {
                    graph: id.to_string(),
                })?;
            let old = (corpus.epoch, corpus.fingerprint);
            corpus.graph = graph;
            corpus.features = features;
            corpus.epoch += 1;
            corpus.fingerprint = fingerprint;
            old
        };
        self.pool.reclaim_stale_epochs(id, old_epoch + 1);
        if let Some(store) = &self.store {
            store.remove_epoch(old_fingerprint, old_epoch);
        }
        Ok(old_epoch + 1)
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
    /// session before selecting (as [`GrainService::select`] does). A
    /// caller that re-keys the engine leaves it under this key; see
    /// [`EngineCheckout`] for why that is safe.
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
        self.pool.checkout(key, || {
            let mut engine = SelectionEngine::over(*config, graph, features)?;
            engine.set_trace_cache(self.trace_cache);
            // X^(k) depends on the kernel alone, not the full
            // fingerprint: a fresh engine adopts a resident sibling's
            // propagation (same graph, same epoch) so e.g. a θ sweep
            // through the service re-propagates nothing. Probed only on
            // an actual build — warm hits never scan the shards — and
            // safe here because build closures run with no shard lock
            // held.
            let sibling = self.pool.cached_propagation(graph_id, epoch, config.kernel);
            engine.adopt(sibling, self.store.as_ref(), graph_fingerprint, epoch);
            Ok(engine)
        })
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
        // Save-on-build: persist exactly the stages this request built.
        // Under the engine lock we already hold, only the built artifacts'
        // `Arc`s are cloned; encoding and the writes happen after both the
        // lock and the checkout are released, off every hot path.
        // Best-effort: a failed write (counted in `StoreStats`) costs a
        // future cold build, never this request.
        let pending = match &self.store {
            Some(_) => engine.pending_built(&artifact_builds, graph_fingerprint, epoch),
            None => Vec::new(),
        };
        drop(engine);
        drop(checkout);
        if let Some(store) = &self.store {
            for artifact in pending {
                let _ = store.commit(artifact);
            }
        }
        // A request that took its corpus snapshot before a flip can insert
        // an engine and commit files after the flip reclaimed that epoch;
        // reclaim them here. A flip landing after this check does it itself.
        if self.epoch(&request.graph).is_ok_and(|now| now != epoch) {
            self.pool.reclaim_stale_epochs(&request.graph, epoch + 1);
            if let Some(store) = &self.store {
                store.remove_epoch(graph_fingerprint, epoch);
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
        if par::resolve_threads(workers) <= 1 {
            // One worker answers in submission order.
            return (0..n).map(answer).collect();
        }
        let answered = par::map(
            workers,
            groups.len(),
            1,
            || (),
            |(), g| {
                groups[g]
                    .iter()
                    .map(|&i| (i, answer(i)))
                    .collect::<Vec<_>>()
            },
        );
        let mut slots: Vec<Option<GrainResult<SelectionReport>>> = (0..n).map(|_| None).collect();
        for (i, report) in answered.into_iter().flatten() {
            slots[i] = Some(report);
        }
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
    fn a_busy_sibling_donates_its_propagation_with_the_ladder() {
        let (g, x) = corpus(120, 1);
        let (n, d) = x.shape();
        let service = GrainService::with_capacity(4);
        service.register_graph("g", g.clone(), x.clone()).unwrap();
        let a = GrainConfig {
            kernel: grain_prop::Kernel::RandomWalk { k: 3 },
            ..GrainConfig::ball_d()
        };
        let b = GrainConfig {
            theta: grain_influence::ThetaRule::RelativeToRowMax(0.5),
            ..a
        };
        service
            .select(&SelectionRequest::new("g", a, Budget::Fixed(5)))
            .unwrap();
        let request = SelectionRequest::new("g", b, Budget::Fixed(6));

        // A is locked on another thread while B is built.
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let shared = &service;
        let first = std::thread::scope(|s| {
            s.spawn(move || {
                let (checkout, _) = shared.engine("g", &a).unwrap();
                let guard = checkout.lock();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(guard);
            });
            held_rx.recv().unwrap();
            let first = service.select(&request).unwrap();
            release_tx.send(()).unwrap();
            first
        });
        assert_eq!(first.pool_event, PoolEvent::ColdMiss);
        assert_eq!(first.artifact_builds.propagation_builds, 0);
        let levels = 3; // the value plus k - 1 ladder levels
        let value_and_ladder = levels * n * d * std::mem::size_of::<f32>();
        assert_eq!(first.artifact_bytes.propagation, value_and_ladder);

        // A delta patches B level-locally to a cold build's bits.
        let (u, v) = (2, 117);
        assert!(!g.has_edge(u, v));
        service
            .apply_update("g", &crate::GraphDelta::new().insert_edge(u as u32, v))
            .unwrap();
        let after = service.select(&request).unwrap();
        assert_eq!(after.pool_event, PoolEvent::Hit);
        assert_eq!(after.artifact_bytes.propagation, value_and_ladder);
        let (g2, _) = grain_graph::apply_edge_edits(&g, &[(u as u32, v, 1.0)], &[]).unwrap();
        let mut cold = SelectionEngine::new(b, &g2, &x).unwrap();
        let (checkout, _) = service.engine("g", &b).unwrap();
        assert_eq!(*checkout.lock().propagated(), *cold.propagated());
        drop(checkout);
        let all: Vec<u32> = (0..n as u32).collect();
        let oracle = cold.select(&all, 6);
        assert_eq!(after.outcome().selected, oracle.selected);
        assert_eq!(after.outcome().objective_trace, oracle.objective_trace);
    }

    #[test]
    fn rekeyed_engines_answer_like_private_engines() {
        // A caller can re-key a checked-out engine via set_config. The
        // engine stays under the key it was checked out with; whichever
        // key a later request hits, the answer equals a private engine's.
        let service = service_with(&[("g", 1)]);
        let base = GrainConfig::ball_d();
        let deep = GrainConfig {
            kernel: grain_prop::Kernel::RandomWalk { k: 3 },
            ..base
        };
        let (g, x) = corpus(120, 1);
        let all: Vec<u32> = (0..120).collect();
        {
            let (checkout, _) = service.engine("g", &base).unwrap();
            let mut engine = checkout.lock();
            engine.set_config(deep).unwrap();
            engine.select(&all, 6);
        }
        for cfg in [base, deep] {
            let report = service
                .select(&SelectionRequest::new("g", cfg, Budget::Fixed(6)))
                .unwrap();
            let oracle = SelectionEngine::new(cfg, &g, &x).unwrap().select(&all, 6);
            assert_eq!(report.outcome().selected, oracle.selected);
            assert_eq!(report.outcome().objective_trace, oracle.objective_trace);
        }
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
