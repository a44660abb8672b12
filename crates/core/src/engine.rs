//! The staged, artifact-caching selection engine.
//!
//! Grain's pipeline is model-free precompute: for a fixed graph and
//! feature matrix, every §3 artifact is a pure function of a few config
//! fields —
//!
//! | artifact | depends on |
//! |---|---|
//! | transition matrix `T` | `kernel.transition_kind()` |
//! | propagated features `X^(k)` | `kernel` |
//! | normalized embedding | `kernel` |
//! | influence rows `I_v(·, k)` | `kernel`, `influence_eps` |
//! | activation index `act[u]` | rows + `theta` |
//! | ball membership lists | embedding + `radius` |
//! | NN `d_max` constant | embedding |
//!
//! — and only the greedy maximization varies with `budget` and the
//! ablation variant. [`SelectionEngine`] materializes each artifact once,
//! keyed by exactly the fields above, and reuses it across `select` calls:
//! a budget sweep, a γ/θ sensitivity scan, or a serving loop answering
//! many selection requests over one corpus pays the heavy stages once.
//!
//! Greedy itself is reused too. Its picks do not depend on the budget
//! (a run at budget `b` is a prefix of any longer run), so the engine
//! keeps its last complete run — the **greedy trace cache**, keyed by
//! [`GrainConfig::selection_fingerprint`] and the exact candidate pool.
//! A request whose budget fits in a cached run is answered by replaying
//! that run's first picks ([`crate::greedy::replay`]): `O(budget)`
//! objective updates, no marginal-gain evaluations, and a bit-identical
//! outcome (`selected`, `objective_trace`, `sigma`, `diversity_value`,
//! `evaluations`). A longer budget, another pool or another config runs
//! greedy again and replaces the cached run. A budget sweep is one run
//! at its largest budget plus a slice per budget.
//!
//! The artifact hot paths (propagation SpMM rounds, influence rows, the
//! activation-index inversion, ball lists, NN `d_max`) run over
//! [`GrainConfig::parallelism`] worker threads with row-range
//! partitioning and fixed-order reductions, so every artifact is
//! **bit-identical at any thread count** — which is why `parallelism` is
//! not part of any cache key or of the artifact fingerprint.

use crate::cancel::{CancelCause, CancelToken, OnDeadline};
use crate::config::{DiversityKind, GrainConfig, GrainVariant, GreedyAlgorithm};
use crate::diversity::{BallDiversity, DiversityFunction, NnDiversity, NullDiversity};
use crate::error::{DeadlineStage, GrainError, GrainResult};
use crate::fault;
use crate::greedy::{lazy_greedy, plain_greedy, replay, GreedyTrace};
use crate::objective::{DimObjective, DiversityScope};
use crate::prune::prune_candidates;
use crate::selector::{Completion, SelectionOutcome, SelectionTimings};
use crate::store::{ArtifactStore, ContentAddress, PendingArtifact};
use grain_graph::{transition_matrix, transition_rows, CsrMatrix, Graph, TransitionKind};
use grain_influence::walk::kernel_power_weights;
use grain_influence::{ActivationIndex, InfluenceRows, ThetaRule};
use grain_linalg::distance::{self, BallLists};
use grain_linalg::DenseMatrix;
use grain_prop::cache::PropagationCache;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Panic message for a build that polls a fresh, never-tripped token.
const UNCANCELLED: &str = "a build polling an untripped token cannot be cancelled";

/// Exact-`d_max` cutoff for NN diversity; beyond this row count the constant
/// is estimated by anchor sampling (see `grain-linalg::distance`).
pub(crate) const NN_DMAX_EXACT_LIMIT: usize = 2048;

/// Counters of the greedy trace cache ([`SelectionEngine::trace_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Greedy runs executed: misses, and budgets longer than the cached
    /// run.
    pub runs: usize,
    /// Requests answered by replaying the cached run.
    pub replays: usize,
    /// Whether a run is cached now.
    pub cached: bool,
}

/// One complete (uncancelled) greedy run, kept for replay.
struct CachedRun {
    /// Selection fingerprint of the config, variant override applied.
    fingerprint: String,
    /// The candidate pool exactly as requested, before pruning.
    candidates: Vec<u32>,
    /// Pool size after pruning: what budgets clamp to.
    pool_len: usize,
    /// The run stopped before its budget, so it picked every distinct
    /// candidate and answers any budget.
    exhausted: bool,
    trace: GreedyTrace,
}

impl CachedRun {
    /// Whether this run is for `(fingerprint, candidates)` and answers
    /// every budget in `budgets`.
    fn answers(&self, fingerprint: &str, candidates: &[u32], budgets: &[usize]) -> bool {
        let longest = budgets
            .iter()
            .map(|&b| b.min(self.pool_len))
            .max()
            .unwrap_or(0);
        self.fingerprint == fingerprint
            && self.candidates == candidates
            && (self.exhausted || longest <= self.trace.selected.len())
    }

    /// Resident heap bytes: the fingerprint, the pool copy and the trace.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.fingerprint.len()
            + (self.candidates.len() + self.trace.selected.len()) * size_of::<u32>()
            + self.trace.objective_trace.len() * size_of::<f64>()
            + self.trace.evaluations_at.len() * size_of::<usize>()
    }
}

/// The greedy trace cache: one slot holding the engine's last complete
/// run.
struct TraceCache {
    enabled: bool,
    last: Option<CachedRun>,
    runs: usize,
    replays: usize,
}

impl TraceCache {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            last: None,
            runs: 0,
            replays: 0,
        }
    }
}

/// `σ(S)` and `D(S)` captured as the pick count passes each requested
/// budget, plus the final state.
struct Snapshots {
    wanted: Vec<usize>,
    taken: Vec<(usize, Vec<u32>, f64)>,
}

impl Snapshots {
    fn new(wanted: Vec<usize>) -> Self {
        Self {
            wanted,
            taken: Vec::new(),
        }
    }

    /// Captures `objective` if its pick count is wanted (or `always`) and
    /// not captured yet.
    fn take<D: DiversityFunction>(&mut self, objective: &DimObjective<'_, D>, always: bool) {
        let k = objective.seeds().len();
        if (always || self.wanted.contains(&k)) && !self.taken.iter().any(|t| t.0 == k) {
            self.taken
                .push((k, objective.sigma(), objective.diversity_value()));
        }
    }

    /// Whether a wanted pick count below `picks` is still missing.
    fn missing_below(&self, picks: usize) -> bool {
        self.wanted
            .iter()
            .any(|&k| k < picks && !self.taken.iter().any(|t| t.0 == k))
    }

    /// The capture at pick count `k`, moved out on its `last_use`.
    fn at(&mut self, k: usize, last_use: bool) -> (Vec<u32>, f64) {
        let pos = self
            .taken
            .iter()
            .position(|t| t.0 == k)
            .expect("every answered pick count was captured");
        if last_use {
            let (_, sigma, d) = self.taken.swap_remove(pos);
            (sigma, d)
        } else {
            (self.taken[pos].1.clone(), self.taken[pos].2)
        }
    }
}

/// Wall-clock breakdown of one `SelectionEngine::patched` migration —
/// what each artifact's incremental repair cost, surfaced per engine in
/// [`crate::streaming::EpochReport`] so operators can see which stage a
/// slow epoch flip spent its time in.
#[derive(Clone, Copy, Debug, Default)]
pub struct PatchTimings {
    /// Transition matrix rebuild (wholesale, cold code path).
    pub transition: Duration,
    /// Dirty-row re-propagation of `X^(k)`.
    pub propagation: Duration,
    /// Embedding clone + dirty-row re-normalization.
    pub embedding: Duration,
    /// Influence-row re-walk + CSR splice.
    pub influence: Duration,
    /// Activation-index masked merge.
    pub index: Duration,
}

/// How often each artifact class has been (re)built — the cache audit
/// trail. A warm budget sweep must increment nothing after its first call;
/// a config change must increment exactly the artifacts it invalidates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transition matrices `T` materialized.
    pub transition_builds: usize,
    /// Propagations `X^(k)` computed (per distinct kernel).
    pub propagation_builds: usize,
    /// L2-normalized embeddings derived from `X^(k)`.
    pub embedding_builds: usize,
    /// Influence-row computations.
    pub influence_builds: usize,
    /// Activation-index inversions.
    pub index_builds: usize,
    /// Diversity precomputations (ball lists or NN `d_max`).
    pub diversity_builds: usize,
    /// `select` calls answered.
    pub selections: usize,
}

impl EngineStats {
    /// The counter increments accumulated since `earlier` — the
    /// cache-miss breakdown of one request window. All-zero build counters
    /// mean the window was served entirely from warm artifacts.
    #[must_use]
    pub fn delta_since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            transition_builds: self.transition_builds - earlier.transition_builds,
            propagation_builds: self.propagation_builds - earlier.propagation_builds,
            embedding_builds: self.embedding_builds - earlier.embedding_builds,
            influence_builds: self.influence_builds - earlier.influence_builds,
            index_builds: self.index_builds - earlier.index_builds,
            diversity_builds: self.diversity_builds - earlier.diversity_builds,
            selections: self.selections - earlier.selections,
        }
    }

    /// Total artifact (re)builds in this window — zero for a fully warm
    /// request.
    #[must_use]
    pub fn total_builds(&self) -> usize {
        self.transition_builds
            + self.propagation_builds
            + self.embedding_builds
            + self.influence_builds
            + self.index_builds
            + self.diversity_builds
    }
}

/// Cache key for artifacts derived from the propagation kernel. `f32`
/// parameters are compared by bit pattern via [`grain_prop::Kernel::cache_key`].
type KernelKey = String;

/// Cache key of the influence rows: (kernel, `influence_eps` bits,
/// `influence_row_top_k`).
type RowsKey = (KernelKey, u32, usize);

/// Cache key of the activation index: the rows key plus `theta`.
type IndexKey = (KernelKey, u32, usize, ThetaRule);

/// Exact resident heap bytes of each cached artifact class — the memory
/// ledger behind [`SelectionEngine::artifact_bytes`]. All counts are
/// *current* residency: an artifact not (yet) built counts zero. The flat
/// CSR influence layout makes its count exact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArtifactBytes {
    /// Transition matrix `T` (CSR offsets + columns + values).
    pub transition: usize,
    /// Propagated features `X^(k)` for the active kernel (dense f32).
    pub propagation: usize,
    /// L2-normalized embedding (dense f32).
    pub embedding: usize,
    /// Influence rows in the flat CSR layout (exact).
    pub influence_rows: usize,
    /// Activation index (flat CSR offsets + items).
    pub activation_index: usize,
    /// Ball membership lists (per-ball `Vec` headers + entries).
    pub balls: usize,
    /// The greedy trace cache: the cached run's pool copy and trace.
    pub greedy_trace: usize,
}

impl ArtifactBytes {
    /// Total resident bytes across all artifact classes.
    #[must_use]
    pub fn total(&self) -> usize {
        self.transition
            + self.propagation
            + self.embedding
            + self.influence_rows
            + self.activation_index
            + self.balls
            + self.greedy_trace
    }
}

/// Ball membership lists keyed by (kernel, radius bits), shared with the
/// per-selection `BallDiversity` instances without copying; the union
/// coverage bound rides along so warm selects touch no list.
type BallCache = Option<((KernelKey, u32), (Arc<BallLists>, usize))>;

/// Staged Grain pipeline with per-artifact caching over one (graph,
/// features) pair.
///
/// Build it once per corpus, then call [`SelectionEngine::select`] per
/// request; use [`SelectionEngine::set_config`] between calls to move
/// through config space while keeping every artifact the new config does
/// not invalidate.
///
/// The engine owns its corpus through [`Arc`] handles, so it can live in a
/// long-lived pool (see [`crate::pool::EnginePool`]) and share the
/// underlying graph/features with other engines and with baseline
/// selectors at zero copy cost.
pub struct SelectionEngine {
    config: GrainConfig,
    graph: Arc<Graph>,
    features: Arc<DenseMatrix>,
    propagation: PropagationCache,
    transition: Option<(TransitionKind, CsrMatrix)>,
    embedding: Option<(KernelKey, Arc<DenseMatrix>)>,
    rows: Option<(RowsKey, InfluenceRows)>,
    index: Option<(IndexKey, ActivationIndex)>,
    balls: BallCache,
    nn_dmax: Option<(KernelKey, f32)>,
    traces: TraceCache,
    stats: EngineStats,
}

impl SelectionEngine {
    /// An engine over borrowed `graph`/`features` with a validated
    /// configuration. The corpus is cloned into shared handles; callers
    /// that already hold `Arc`s (or can give up ownership) should use
    /// [`SelectionEngine::over`] instead, which copies nothing.
    pub fn new(config: GrainConfig, graph: &Graph, features: &DenseMatrix) -> GrainResult<Self> {
        Self::over(config, graph.clone(), features.clone())
    }

    /// An engine over shared corpus handles — the zero-copy constructor
    /// the serving tier uses. Accepts owned values or `Arc`s.
    pub fn over(
        config: GrainConfig,
        graph: impl Into<Arc<Graph>>,
        features: impl Into<Arc<DenseMatrix>>,
    ) -> GrainResult<Self> {
        config.validate()?;
        let graph = graph.into();
        let features = features.into();
        if features.rows() != graph.num_nodes() {
            return Err(GrainError::FeatureShape {
                feature_rows: features.rows(),
                num_nodes: graph.num_nodes(),
            });
        }
        let propagation = PropagationCache::new(Arc::clone(&graph), Arc::clone(&features));
        Ok(Self {
            config,
            graph,
            features,
            propagation,
            transition: None,
            embedding: None,
            rows: None,
            index: None,
            balls: None,
            nn_dmax: None,
            traces: TraceCache::new(true),
            stats: EngineStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &GrainConfig {
        &self.config
    }

    /// The graph this engine serves.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The raw (unpropagated) feature matrix.
    pub fn features(&self) -> &DenseMatrix {
        &self.features
    }

    /// Shared handle to the graph this engine serves.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Shared handle to the raw feature matrix.
    pub fn features_arc(&self) -> Arc<DenseMatrix> {
        Arc::clone(&self.features)
    }

    /// The propagated embedding `X^(k)` under the active kernel, built or
    /// cached — the shared artifact baseline selectors (FeatProp, KCG,
    /// core-set methods) smooth their distances on, so Grain and every
    /// baseline read bit-identical propagation from one store.
    pub fn propagated(&mut self) -> Arc<DenseMatrix> {
        self.ensure_transition();
        self.ensure_propagation(&CancelToken::new())
            .expect(UNCANCELLED);
        self.propagation
            .get_cached(self.config.kernel)
            .expect("propagation ensured")
    }

    /// Seeds the propagation cache with an externally computed `X^(k)`
    /// for the active kernel, sharing the allocation — used when this
    /// engine is a private companion of another engine (e.g. a
    /// [`crate::service::GrainService`]-pooled one) that already holds
    /// the artifact, so it is never re-propagated here.
    ///
    /// # Panics
    /// Panics if `value` does not have one row per graph node.
    pub fn seed_propagated(&mut self, value: Arc<DenseMatrix>) {
        self.propagation.seed(self.config.kernel, value);
    }

    /// The cached `X^(k)` for `kernel` if this engine has already
    /// propagated (or been seeded with) it — computes nothing on a miss.
    /// Siblings over the same corpus use this to seed each other via
    /// [`SelectionEngine::seed_propagated`].
    pub fn propagated_if_cached(&self, kernel: grain_prop::Kernel) -> Option<Arc<DenseMatrix>> {
        self.propagation.get_cached(kernel)
    }

    // ---- artifact store seam ---------------------------------------------
    //
    // The only two places that talk to `crate::store`. Both address the
    // store by this engine's *own* active config, so what is saved or
    // loaded can never disagree with what the engine holds, whichever
    // pool key the engine sits under. Adoption is not a build: it bumps
    // no build counter, which is what keeps `encode_built` from
    // re-persisting what was just loaded.

    /// The influence-row cache key of the active config.
    fn rows_key(&self) -> RowsKey {
        (
            self.config.kernel.cache_key(),
            self.config.influence_eps.to_bits(),
            self.config.influence_row_top_k,
        )
    }

    /// The activation-index cache key of the active config.
    fn index_key(&self) -> IndexKey {
        let (kernel, eps, top_k) = self.rows_key();
        (kernel, eps, top_k, self.config.theta)
    }

    /// The store address of the active config's artifacts over the corpus
    /// snapshot `(graph_fingerprint, epoch)`.
    fn address(&self, graph_fingerprint: u64, epoch: u64) -> ContentAddress {
        ContentAddress {
            graph_fingerprint,
            epoch,
            artifact_fingerprint: self.config.artifact_fingerprint(),
        }
    }

    /// Fills the stage caches of a fresh engine for its active config, in
    /// cost order: `sibling` (another resident engine's `X^(k)` for the
    /// active kernel) beats the store's `X^(k)`; the store supplies the
    /// influence rows and the activation index. Every load is
    /// best-effort: a miss, a corrupt file (counted in `StoreStats`) or a
    /// shape mismatch leaves that stage to its cold build, and a
    /// validated hit is adopted bit-identically.
    pub(crate) fn adopt(
        &mut self,
        sibling: Option<Arc<DenseMatrix>>,
        store: Option<&ArtifactStore>,
        graph_fingerprint: u64,
        epoch: u64,
    ) {
        if let Some(value) = sibling {
            self.seed_propagated(value);
        }
        let Some(store) = store else {
            return;
        };
        let addr = self.address(graph_fingerprint, epoch);
        let (n, k) = (self.graph.num_nodes(), self.config.kernel.steps());
        if !self.propagation.contains(self.config.kernel) {
            if let Ok(Some((value, ladder))) = store.load_propagation(&addr) {
                if value.rows() == n && value.cols() == self.features.cols() {
                    let ladder = ladder.into_iter().map(Arc::new).collect();
                    self.propagation
                        .seed_with_ladder(self.config.kernel, Arc::new(value), ladder);
                }
            }
        }
        if let Ok(Some(rows)) = store.load_rows(&addr) {
            if rows.num_nodes() == n && rows.k() == k {
                self.rows = Some((self.rows_key(), rows));
            }
        }
        if let Ok(Some(index)) = store.load_index(&addr) {
            if index.num_nodes() == n && index.k() == k {
                self.index = Some((self.index_key(), index));
            }
        }
    }

    /// Encodes for `store` each active-config stage that `built` counts as
    /// (re)built — a request's or a patch's build-counter delta. Only
    /// encodes: the caller commits the result after releasing the engine.
    pub(crate) fn encode_built(
        &self,
        built: &EngineStats,
        store: &ArtifactStore,
        graph_fingerprint: u64,
        epoch: u64,
    ) -> Vec<PendingArtifact> {
        let mut pending = Vec::new();
        if built.propagation_builds + built.influence_builds + built.index_builds == 0 {
            return pending;
        }
        let addr = self.address(graph_fingerprint, epoch);
        let kernel = self.config.kernel;
        if built.propagation_builds > 0 {
            if let Some(value) = self.propagation.get_cached(kernel) {
                let ladder = self.propagation.cached_ladder(kernel);
                let levels: Vec<&DenseMatrix> = ladder.iter().map(Arc::as_ref).collect();
                pending.push(store.encode_propagation(&addr, &value, &levels));
            }
        }
        if built.influence_builds > 0 {
            if let Some((_, rows)) = self.rows.as_ref().filter(|(k, _)| *k == self.rows_key()) {
                pending.push(store.encode_rows(&addr, rows));
            }
        }
        if built.index_builds > 0 {
            if let Some((_, index)) = self.index.as_ref().filter(|(k, _)| *k == self.index_key()) {
                pending.push(store.encode_index(&addr, index));
            }
        }
        pending
    }

    /// Swaps the configuration, keeping every cached artifact whose key
    /// fields are unchanged. Artifacts are rebuilt lazily on the next
    /// `select`, so sweeping e.g. `gamma` or `budget` rebuilds nothing and
    /// sweeping `theta` rebuilds only the activation index.
    ///
    /// On a pooled engine (held through an
    /// [`EngineCheckout`](crate::pool::EngineCheckout)) a change of
    /// artifact fingerprint re-keys nothing: the engine stays under the
    /// pool key it was checked out with, and the next request for that
    /// key sets its own config back, rebuilding the differing stages
    /// once. That is never a wrong answer or a wrong store address.
    pub fn set_config(&mut self, config: GrainConfig) -> GrainResult<()> {
        config.validate()?;
        self.config = config;
        Ok(())
    }

    /// Cache audit counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Greedy trace cache counters.
    pub fn trace_stats(&self) -> TraceStats {
        TraceStats {
            runs: self.traces.runs,
            replays: self.traces.replays,
            cached: self.traces.last.is_some(),
        }
    }

    /// Turns the greedy trace cache on (the default) or off. Off drops
    /// the cached run and makes every request run greedy, as timing
    /// studies of the greedy stage need.
    pub fn set_trace_cache(&mut self, enabled: bool) {
        self.traces.enabled = enabled;
        if !enabled {
            self.traces.last = None;
        }
    }

    /// Exact resident heap bytes of every currently cached artifact —
    /// the measurement seam for size-aware pool accounting. Not-yet-built
    /// artifacts count zero, so a cold engine reports all zeros and the
    /// count grows monotonically as `select` materializes stages.
    pub fn artifact_bytes(&self) -> ArtifactBytes {
        let dense_bytes = |m: &DenseMatrix| m.rows() * m.cols() * std::mem::size_of::<f32>();
        let transition = self.transition.as_ref().map_or(0, |(_, t)| {
            (t.rows() + 1) * std::mem::size_of::<usize>()
                + t.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
        });
        let propagation = self.propagation.resident_bytes(self.config.kernel);
        let embedding = self.embedding.as_ref().map_or(0, |(_, e)| dense_bytes(e));
        let influence_rows = self.rows.as_ref().map_or(0, |(_, r)| r.resident_bytes());
        let activation_index = self.index.as_ref().map_or(0, |(_, i)| i.resident_bytes());
        let balls = self
            .balls
            .as_ref()
            .map_or(0, |(_, (lists, _))| lists.resident_bytes());
        let greedy_trace = self.traces.last.as_ref().map_or(0, CachedRun::bytes);
        ArtifactBytes {
            transition,
            propagation,
            embedding,
            influence_rows,
            activation_index,
            balls,
            greedy_trace,
        }
    }

    /// Selects up to `budget` nodes from `candidates` under the active
    /// configuration, reusing every cached artifact that is still valid.
    ///
    /// # Panics
    /// Panics if a candidate id is out of range.
    pub fn select(&mut self, candidates: &[u32], budget: usize) -> SelectionOutcome {
        self.select_variant(self.config.variant, candidates, budget)
    }

    /// Like [`SelectionEngine::select`] with the variant overridden for
    /// this call only — Table 3 ablation sweeps share all artifacts, since
    /// the variant affects only the greedy objective.
    pub fn select_variant(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budget: usize,
    ) -> SelectionOutcome {
        self.select_with_cancel(
            variant,
            candidates,
            budget,
            &CancelToken::new(),
            OnDeadline::Fail,
        )
        .expect("a selection with an untripped token cannot be cancelled")
    }

    /// [`SelectionEngine::select_variant`] under cooperative cancellation.
    ///
    /// `cancel` is polled at every stage boundary (before the propagation,
    /// influence-row, and activation-index builds), **between SpMM power
    /// steps** inside propagation, **every 64 rows** inside the
    /// influence-row build, and inside greedy at every round boundary plus
    /// every [`GrainConfig::cancel_check_every`] marginal-gain evaluations
    /// — so a trip is observed within one greedy round or one check block,
    /// whichever comes first.
    ///
    /// What a trip produces depends on *why* the token tripped and on the
    /// caller's degradation policy:
    ///
    /// | cause | stage | result |
    /// |---|---|---|
    /// | caller ([`CancelToken::cancel`]) | any | [`GrainError::Cancelled`] |
    /// | deadline, [`OnDeadline::Fail`] | any | [`GrainError::DeadlineExceeded`] (`MidSelection`) |
    /// | deadline, [`OnDeadline::Partial`] | artifact build | [`GrainError::DeadlineExceeded`] (`MidSelection`) |
    /// | deadline, [`OnDeadline::Partial`] | greedy | `Ok` with [`Completion::Partial`] |
    ///
    /// Artifact builds are **never** partial: a build that observes the
    /// trip caches nothing, so the next request starts a fresh, complete
    /// build. A partial greedy result is byte-for-byte a prefix of the
    /// uncancelled run at the same config — submodularity makes the prefix
    /// a valid anytime answer with the `(1 - 1/e)` bound at its smaller
    /// effective budget (see [`SelectionOutcome::effective_budget`]).
    ///
    /// An untripped token changes no bit of the result relative to
    /// [`SelectionEngine::select_variant`]. A request answered from the
    /// greedy trace cache crosses the same greedy checkpoints as the run
    /// it replays, so a trip yields the same prefix either way.
    ///
    /// # Panics
    /// Panics if a candidate id is out of range.
    pub fn select_with_cancel(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budget: usize,
        cancel: &CancelToken,
        on_deadline: OnDeadline,
    ) -> GrainResult<SelectionOutcome> {
        let mut outcomes =
            self.select_budgets_with_cancel(variant, candidates, &[budget], cancel, on_deadline)?;
        Ok(outcomes.pop().expect("one budget answers one outcome"))
    }

    /// Runs one warm budget sweep: one greedy run at the largest budget
    /// (or a replay of a cached one), each budget answered by its prefix.
    /// Selections are bit-identical to independent one-shot runs at the
    /// same budgets.
    pub fn select_budgets(
        &mut self,
        candidates: &[u32],
        budgets: &[usize],
    ) -> Vec<SelectionOutcome> {
        self.select_budgets_with_cancel(
            self.config.variant,
            candidates,
            budgets,
            &CancelToken::new(),
            OnDeadline::Fail,
        )
        .expect("a selection with an untripped token cannot be cancelled")
    }

    /// [`SelectionEngine::select_budgets`] with a variant override under
    /// cooperative cancellation — the one selection path every other
    /// `select*` method goes through.
    ///
    /// Outcomes come back in `budgets` order, each bit-identical to
    /// [`SelectionEngine::select_with_cancel`] at its budget. A trip
    /// mid-greedy under [`OnDeadline::Partial`] answers every budget the
    /// committed prefix covers in full, the next budget in order with
    /// that prefix as a [`Completion::Partial`] outcome, and drops the
    /// rest. Work shared by the sweep (artifact stages, the greedy run)
    /// is charged to the first outcome's timings.
    ///
    /// # Panics
    /// Panics if a candidate id is out of range.
    pub fn select_budgets_with_cancel(
        &mut self,
        variant: GrainVariant,
        candidates: &[u32],
        budgets: &[usize],
        cancel: &CancelToken,
        on_deadline: OnDeadline,
    ) -> GrainResult<Vec<SelectionOutcome>> {
        if budgets.is_empty() {
            return Ok(Vec::new());
        }
        for &c in candidates {
            assert!(
                (c as usize) < self.graph.num_nodes(),
                "candidate {c} out of range"
            );
        }
        let t0 = Instant::now();
        cancel.checkpoint()?;

        // 1. Decoupled propagation (Eq. 6) on the kernel's transition matrix.
        self.ensure_transition();
        self.ensure_propagation(cancel)?;
        let propagation = t0.elapsed();

        // 2. Influence rows under the kernel Jacobian (Def. 3.1 / Eq. 9).
        let t1 = Instant::now();
        self.ensure_rows(cancel)?;
        let influence = t1.elapsed();

        // 3. Activation index (Def. 3.2) + diversity precomputation (§3.3).
        let t2 = Instant::now();
        self.ensure_index(cancel)?;
        self.ensure_embedding();
        self.ensure_diversity(variant, cancel)?;
        let indexing = t2.elapsed();

        // 4. Greedy DIM maximization (Algorithm 1 / CELF) — the only stage
        // that depends on budget and variant, and the only stage that may
        // degrade to a partial (anytime) result instead of failing. Picks
        // do not depend on the budget, so one run (or one replay of a
        // cached run) at the longest budget answers every budget.
        let t3 = Instant::now();
        cancel.checkpoint()?;
        let fingerprint = GrainConfig {
            variant,
            ..self.config
        }
        .selection_fingerprint();
        let hit = self
            .traces
            .last
            .as_ref()
            .filter(|run| run.answers(&fingerprint, candidates, budgets));
        // §3.4 candidate pruning is per-pool, not a cached artifact. A
        // replay needs no pool: the cached run knows its pruned size.
        let (pool, pool_len): (Cow<'_, [u32]>, usize) = match (hit, self.config.prune) {
            (Some(run), _) => (Cow::Borrowed(&[]), run.pool_len),
            (None, None) => (Cow::Borrowed(candidates), candidates.len()),
            (None, Some(strategy)) => {
                let rows = &self.rows.as_ref().expect("rows ensured").1;
                let pool = prune_candidates(strategy, &self.graph, rows, candidates);
                let len = pool.len();
                (Cow::Owned(pool), len)
            }
        };
        let counts: Vec<usize> = budgets.iter().map(|&b| b.min(pool_len)).collect();
        let longest = counts.iter().copied().max().unwrap_or(0);
        let mut snapshots = Snapshots::new(counts.clone());
        let mut objective = self.objective(variant);
        snapshots.take(&objective, false);
        let check_every = self.config.cancel_check_every;
        let replayed = hit.is_some();
        let trace = match hit {
            Some(run) => {
                let checkpoints = Some((self.config.algorithm, cancel, check_every));
                replay(&mut objective, &run.trace, longest, checkpoints, |o| {
                    snapshots.take(o, false)
                })
            }
            None => match self.config.algorithm {
                GreedyAlgorithm::Plain => {
                    plain_greedy(&mut objective, &pool, longest, cancel, check_every)
                }
                GreedyAlgorithm::Lazy => {
                    lazy_greedy(&mut objective, &pool, longest, cancel, check_every)
                }
            },
        };
        snapshots.take(&objective, true);
        if snapshots.missing_below(trace.selected.len()) {
            // A sweep's shorter budgets after a run: replay it once more,
            // capturing σ(S) and D(S) on the way.
            let mut again = self.objective(variant);
            replay(&mut again, &trace, trace.selected.len(), None, |o| {
                snapshots.take(o, false)
            });
        }
        let greedy = t3.elapsed();

        let picked = trace.selected.len();
        let mut outcomes = Vec::with_capacity(budgets.len());
        for (i, &want) in counts.iter().enumerate() {
            let k = want.min(picked);
            let completion = match trace.cancelled {
                None => Completion::Complete,
                // The committed prefix answers this budget in full.
                Some(_) if want < trace.evaluations_at.len() => Completion::Complete,
                Some(CancelCause::Deadline) if on_deadline == OnDeadline::Partial => {
                    Completion::Partial {
                        cause: CancelCause::Deadline,
                    }
                }
                Some(CancelCause::Deadline) => {
                    return Err(GrainError::DeadlineExceeded {
                        stage: DeadlineStage::MidSelection,
                    })
                }
                Some(CancelCause::Caller) => return Err(GrainError::Cancelled),
            };
            let evaluations = match completion {
                Completion::Complete => trace.evaluations_at[k],
                Completion::Partial { .. } => trace.evaluations,
            };
            let last_use = !counts[i + 1..].iter().any(|&w| w.min(picked) == k);
            let (sigma, diversity_value) = snapshots.at(k, last_use);
            let timings = if i == 0 {
                SelectionTimings {
                    propagation,
                    influence,
                    indexing,
                    greedy,
                    total: t0.elapsed(),
                }
            } else {
                SelectionTimings::default()
            };
            outcomes.push(SelectionOutcome {
                selected: trace.selected[..k].to_vec(),
                objective_trace: trace.objective_trace[..k].to_vec(),
                sigma,
                diversity_value,
                evaluations,
                candidates_after_prune: pool_len,
                completion,
                replayed,
                timings,
            });
            if completion != Completion::Complete {
                break; // the token stays tripped; later budgets cannot run
            }
        }

        self.stats.selections += outcomes.len();
        if replayed {
            self.traces.replays += 1;
        } else {
            self.traces.runs += 1;
            if trace.cancelled.is_none() && self.traces.enabled {
                self.traces.last = Some(CachedRun {
                    fingerprint,
                    candidates: candidates.to_vec(),
                    pool_len,
                    exhausted: picked < longest,
                    trace,
                });
            }
        }
        Ok(outcomes)
    }

    /// The L2-normalized rows of `X^(k)` under the active kernel (built
    /// or cached) — the embedding Grain distances diversity on; layout /
    /// interpretability consumers read it from the same store instead of
    /// re-normalizing the propagation themselves.
    pub fn normalized_embedding(&mut self) -> Arc<DenseMatrix> {
        self.ensure_transition();
        self.ensure_propagation(&CancelToken::new())
            .expect(UNCANCELLED);
        self.ensure_embedding();
        Arc::clone(&self.embedding.as_ref().expect("embedding ensured").1)
    }

    /// The activation index under the current config (built or cached) —
    /// interpretability experiments read activation lists directly.
    pub fn activation_index(&mut self) -> &ActivationIndex {
        let never = CancelToken::new();
        self.ensure_transition();
        self.ensure_rows(&never).expect(UNCANCELLED);
        self.ensure_index(&never).expect(UNCANCELLED);
        &self.index.as_ref().expect("index ensured").1
    }

    /// The influence rows under the current config (built or cached).
    pub fn influence_rows(&mut self) -> &InfluenceRows {
        self.ensure_transition();
        self.ensure_rows(&CancelToken::new()).expect(UNCANCELLED);
        &self.rows.as_ref().expect("rows ensured").1
    }

    /// Derives an engine over the mutated corpus `(graph, features)` by
    /// patching this engine's cached artifacts instead of rebuilding them
    /// — the streaming fast path behind
    /// [`crate::service::GrainService::apply_update`].
    ///
    /// `dirty_transition` / `dirty_propagation` / `dirty_influence` are
    /// sorted supersets of the transition rows, `X^(k)` rows, and
    /// influence rows whose values can differ between the old and mutated
    /// corpus (see [`crate::streaming`] for the dirty-set math). Per
    /// artifact:
    ///
    /// * **transition** — dirty rows recomputed row-locally via
    ///   [`grain_graph::transition_rows`] (bit-identical float path) and
    ///   spliced into the stale matrix with
    ///   [`CsrMatrix::with_replaced_rows`]; rebuilt cold only when no
    ///   transition of the right kind is cached;
    /// * **propagation** — dirty rows re-propagated level-locally via
    ///   [`PropagationCache::repropagate_rows`] against the donor's power
    ///   ladder (`O(k · |dirty|)` SpMM rows), clean rows `memcpy`d;
    /// * **embedding** — clean rows `memcpy`d from the old embedding
    ///   (their `X^(k)` rows are bit-identical, so their normalizations
    ///   are too), dirty rows re-normalized with the same per-row op as
    ///   the full pass ([`grain_linalg::ops::l2_normalize_row`]);
    /// * **influence rows** — dirty rows re-walked via
    ///   [`InfluenceRows::with_rebuilt_rows`], clean row slices spliced;
    /// * **activation index** — inverted entries of dirty rows swapped via
    ///   [`ActivationIndex::repaired`];
    /// * **ball lists / NN `d_max`** — dropped (rebuilt lazily on the next
    ///   select that needs them).
    ///
    /// Only artifacts cached under the *active* config are migrated; stale
    /// cache slots from earlier configs are dropped. Callers must not
    /// invoke this for triangle-induced kernels (a single edge edit can
    /// dirty every triangle count, so those engines rebuild cold).
    pub(crate) fn patched(
        &self,
        graph: Arc<Graph>,
        features: Arc<DenseMatrix>,
        dirty_transition: &[u32],
        dirty_propagation: &[u32],
        dirty_influence: &[u32],
    ) -> (SelectionEngine, PatchTimings) {
        let config = self.config;
        let kind = config.kernel.transition_kind();
        debug_assert_ne!(
            kind,
            TransitionKind::TriangleInduced,
            "triangle-induced engines are rebuilt cold, not patched"
        );
        let kernel = config.kernel;
        let kernel_key = kernel.cache_key();
        let mut timings = PatchTimings::default();
        let stage = Instant::now();
        let t_new = match self.transition.as_ref().filter(|(k, _)| *k == kind) {
            Some((_, t_old)) => {
                t_old.with_replaced_rows(&transition_rows(&graph, kind, true, dirty_transition))
            }
            None => transition_matrix(&graph, kind, true),
        };
        timings.transition = stage.elapsed();
        let mut stats = self.stats;
        stats.transition_builds += 1;

        let mut propagation = PropagationCache::new(Arc::clone(&graph), Arc::clone(&features));
        let mut embedding = None;
        if let Some(old_x) = self.propagation.get_cached(kernel) {
            let stage = Instant::now();
            let old_ladder = self.propagation.cached_ladder(kernel);
            let patched_x = propagation.repropagate_rows(
                kernel,
                &t_new,
                &old_x,
                &old_ladder,
                dirty_propagation,
            );
            timings.propagation = stage.elapsed();
            stats.propagation_builds += 1;
            if let Some((_, old_e)) = self.embedding.as_ref().filter(|(k, _)| *k == kernel_key) {
                let stage = Instant::now();
                let mut e = (**old_e).clone();
                for &v in dirty_propagation {
                    let r = v as usize;
                    let row = e.row_mut(r);
                    row.copy_from_slice(patched_x.row(r));
                    grain_linalg::ops::l2_normalize_row(row);
                }
                timings.embedding = stage.elapsed();
                embedding = Some((kernel_key, Arc::new(e)));
                stats.embedding_builds += 1;
            }
        }

        let rows_key = self.rows_key();
        let mut rows = None;
        if let Some((key, old_rows)) = self.rows.as_ref() {
            if *key == rows_key {
                let stage = Instant::now();
                let rebuilt = old_rows.with_rebuilt_rows(
                    &t_new,
                    kernel,
                    config.influence_eps,
                    config.influence_row_top_k,
                    dirty_influence,
                );
                timings.influence = stage.elapsed();
                rows = Some((rows_key.clone(), rebuilt));
                stats.influence_builds += 1;
            }
        }

        let index_key = self.index_key();
        let mut index = None;
        if let (Some((key, old_index)), Some((_, new_rows))) = (self.index.as_ref(), rows.as_ref())
        {
            if *key == index_key {
                let stage = Instant::now();
                let repaired = old_index.repaired(new_rows, config.theta, dirty_influence);
                timings.index = stage.elapsed();
                index = Some((index_key, repaired));
                stats.index_builds += 1;
            }
        }

        let engine = SelectionEngine {
            config,
            graph,
            features,
            propagation,
            transition: Some((kind, t_new)),
            embedding,
            rows,
            index,
            balls: None,
            nn_dmax: None,
            // Runs over the old corpus answer nothing on the new one.
            traces: TraceCache::new(self.traces.enabled),
            stats,
        };
        (engine, timings)
    }

    fn ensure_transition(&mut self) {
        let kind = self.config.kernel.transition_kind();
        if self.transition.as_ref().map(|(k, _)| *k) != Some(kind) {
            let t = transition_matrix(&self.graph, kind, true);
            self.transition = Some((kind, t));
            self.stats.transition_builds += 1;
        }
    }

    /// Builds `X^(k)` unless cached, polling `cancel` between SpMM power
    /// steps. A cancelled build caches nothing (no torn artifacts) and
    /// bumps no build counter; the next request starts fresh.
    fn ensure_propagation(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let kernel = self.config.kernel;
        if self.propagation.contains(kernel) {
            return Ok(());
        }
        fault::point("engine.build.propagation", Some(cancel));
        cancel.checkpoint()?;
        let transition = &self.transition.as_ref().expect("transition ensured").1;
        match self
            .propagation
            .get_with(kernel, transition, self.config.parallelism, &|| {
                cancel.is_cancelled()
            }) {
            Some(_) => {
                self.stats.propagation_builds += 1;
                Ok(())
            }
            None => Err(cancel.cancel_error()),
        }
    }

    fn ensure_embedding(&mut self) {
        let key = self.config.kernel.cache_key();
        if self.embedding.as_ref().map(|(k, _)| k) != Some(&key) {
            let embedding = {
                let smoothed = self
                    .propagation
                    .get_cached(self.config.kernel)
                    .expect("propagation ensured");
                distance::normalized_embedding(&smoothed, self.config.parallelism)
            };
            self.embedding = Some((key, Arc::new(embedding)));
            self.stats.embedding_builds += 1;
        }
    }

    /// Builds the influence rows unless cached, polling `cancel` every 64
    /// rows inside the parallel build. A cancelled build discards its
    /// partial rows wholesale and caches nothing.
    fn ensure_rows(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = self.rows_key();
        if self.rows.as_ref().map(|(k, _)| k) == Some(&key) {
            return Ok(());
        }
        fault::point("engine.build.rows", Some(cancel));
        cancel.checkpoint()?;
        let transition = &self.transition.as_ref().expect("transition ensured").1;
        match InfluenceRows::compute_weighted(
            transition,
            &kernel_power_weights(self.config.kernel),
            self.config.influence_eps,
            self.config.influence_row_top_k,
            self.config.parallelism,
            &|| cancel.is_cancelled(),
        ) {
            Some(rows) => {
                self.rows = Some((key, rows));
                self.stats.influence_builds += 1;
                Ok(())
            }
            None => Err(cancel.cancel_error()),
        }
    }

    /// Builds the activation index unless cached. The inversion itself is
    /// not interruptible (it is the cheapest artifact); `cancel` is checked
    /// once at the stage boundary before committing to the build.
    fn ensure_index(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = self.index_key();
        if self.index.as_ref().map(|(k, _)| k) == Some(&key) {
            return Ok(());
        }
        fault::point("engine.build.index", Some(cancel));
        cancel.checkpoint()?;
        let rows = &self.rows.as_ref().expect("rows ensured").1;
        let index = ActivationIndex::build(rows, self.config.theta, self.config.parallelism);
        self.index = Some((key, index));
        self.stats.index_builds += 1;
        Ok(())
    }

    fn ensure_balls(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = (self.config.kernel.cache_key(), self.config.radius.to_bits());
        if self.balls.as_ref().map(|(k, _)| k) != Some(&key) {
            fault::point("engine.build.balls", Some(cancel));
            cancel.checkpoint()?;
            let embedding = &self.embedding.as_ref().expect("embedding ensured").1;
            let balls =
                distance::radius_neighbors(embedding, self.config.radius, self.config.parallelism);
            let bound = BallDiversity::union_size(&balls, self.graph.num_nodes());
            self.balls = Some((key, (Arc::new(balls), bound)));
            self.stats.diversity_builds += 1;
        }
        Ok(())
    }

    fn ensure_nn_dmax(&mut self, cancel: &CancelToken) -> GrainResult<()> {
        let key = self.config.kernel.cache_key();
        if self.nn_dmax.as_ref().map(|(k, _)| k) != Some(&key) {
            cancel.checkpoint()?;
            let embedding = &self.embedding.as_ref().expect("embedding ensured").1;
            let dmax = distance::max_pairwise_distance(
                embedding,
                NN_DMAX_EXACT_LIMIT,
                self.config.parallelism,
            );
            self.nn_dmax = Some((key, dmax));
            self.stats.diversity_builds += 1;
        }
        Ok(())
    }

    /// Builds the diversity precompute `variant` needs, unless cached.
    fn ensure_diversity(&mut self, variant: GrainVariant, cancel: &CancelToken) -> GrainResult<()> {
        match diversity_kind(variant, self.config.diversity) {
            None => Ok(()),
            Some(DiversityKind::Ball) => self.ensure_balls(cancel),
            Some(DiversityKind::Nn) => self.ensure_nn_dmax(cancel),
        }
    }

    /// A fresh DIM objective for `variant` over the cached index and
    /// diversity precompute (greedy consumes objective state, so each
    /// call copies only the incremental state; the precompute itself is
    /// `Arc`-shared). Every stage must be ensured.
    fn objective(
        &self,
        variant: GrainVariant,
    ) -> DimObjective<'_, Box<dyn DiversityFunction + Send>> {
        let diversity: Box<dyn DiversityFunction + Send> =
            match diversity_kind(variant, self.config.diversity) {
                None => Box::new(NullDiversity),
                Some(DiversityKind::Ball) => {
                    let (balls, bound) = self.balls.as_ref().expect("balls ensured").1.clone();
                    Box::new(BallDiversity::from_shared_with_bound(
                        balls,
                        self.graph.num_nodes(),
                        bound,
                    ))
                }
                Some(DiversityKind::Nn) => {
                    let dmax = self.nn_dmax.as_ref().expect("dmax ensured").1;
                    let embedding =
                        Arc::clone(&self.embedding.as_ref().expect("embedding ensured").1);
                    Box::new(NnDiversity::from_parts(
                        embedding,
                        dmax,
                        self.config.parallelism,
                    ))
                }
            };
        let (scope, magnitude_weight, gamma) = variant_parameters(variant, self.config.gamma);
        let index = &self.index.as_ref().expect("index ensured").1;
        DimObjective::with_variant(index, diversity, gamma, magnitude_weight, scope)
    }
}

/// The diversity function `variant` maximizes under `configured`, or
/// `None` when it has no diversity term.
fn diversity_kind(variant: GrainVariant, configured: DiversityKind) -> Option<DiversityKind> {
    match variant {
        GrainVariant::NoDiversity => None,
        // Both seed-scoped ablations are defined on ball coverage.
        GrainVariant::NoMagnitude | GrainVariant::ClassicCoverage => Some(DiversityKind::Ball),
        GrainVariant::Full => Some(configured),
    }
}

/// Table 3 ablation parameters: diversity scope, magnitude weight, γ.
fn variant_parameters(variant: GrainVariant, gamma: f64) -> (DiversityScope, f64, f64) {
    match variant {
        GrainVariant::Full => (DiversityScope::Activated, 1.0, gamma),
        GrainVariant::NoDiversity => (DiversityScope::Activated, 1.0, 0.0),
        GrainVariant::NoMagnitude => (DiversityScope::Seeds, 0.0, gamma.max(1.0)),
        GrainVariant::ClassicCoverage => (DiversityScope::Seeds, 1.0, gamma),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grain_graph::generators::{self, SbmConfig};
    use grain_prop::Kernel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(seed: u64) -> (Graph, DenseMatrix) {
        let cfg = SbmConfig {
            block_sizes: vec![40, 40, 40],
            mean_degree_in: 6.0,
            mean_degree_out: 1.0,
            degree_exponent: 0.0,
        };
        let (g, labels) = generators::degree_corrected_sbm(&cfg, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        let d = 6usize;
        let mut x = DenseMatrix::zeros(g.num_nodes(), d);
        for (v, &label) in labels.iter().enumerate() {
            let c = label as usize;
            for (j, value) in x.row_mut(v).iter_mut().enumerate() {
                let base = if j % 3 == c { 1.0 } else { 0.1 };
                *value = base + rng.random::<f32>() * 0.2;
            }
        }
        (g, x)
    }

    #[test]
    fn rejects_invalid_config_and_mismatched_features() {
        let (g, x) = dataset(1);
        let bad = GrainConfig {
            gamma: -1.0,
            ..GrainConfig::ball_d()
        };
        assert!(SelectionEngine::new(bad, &g, &x).is_err());
        let short = DenseMatrix::zeros(3, 2);
        assert!(SelectionEngine::new(GrainConfig::ball_d(), &g, &short).is_err());
    }

    #[test]
    fn warm_sweep_matches_one_shot_and_builds_once() {
        let (g, x) = dataset(2);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
        let budgets = [3usize, 6, 9, 12, 15];
        let warm = engine.select_budgets(&candidates, &budgets);
        let stats = engine.stats();
        assert_eq!(stats.propagation_builds, 1);
        assert_eq!(stats.influence_builds, 1);
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.transition_builds, 1);
        assert_eq!(stats.diversity_builds, 1);
        assert_eq!(stats.selections, budgets.len());
        for (outcome, &budget) in warm.iter().zip(&budgets) {
            let fresh = SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, budget);
            assert_eq!(outcome.selected, fresh.selected, "budget {budget}");
            assert_eq!(outcome.sigma, fresh.sigma, "budget {budget}");
            assert_eq!(
                outcome.objective_trace, fresh.objective_trace,
                "budget {budget}"
            );
        }
    }

    #[test]
    fn parallelism_changes_rebuild_nothing_and_select_identically() {
        // `parallelism` is a pure execution knob: changing it keeps every
        // cached artifact (it is in no cache key) and any thread count
        // selects the identical set, under both diversity functions.
        let (g, x) = dataset(8);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        for base in [GrainConfig::ball_d(), GrainConfig::nn_d()] {
            let reference = {
                let mut cfg = base;
                cfg.parallelism = 1;
                SelectionEngine::new(cfg, &g, &x)
                    .unwrap()
                    .select(&candidates, 9)
            };
            let mut engine = SelectionEngine::new(base, &g, &x).unwrap();
            engine.set_trace_cache(false);
            engine.select(&candidates, 9);
            let before = engine.stats();
            for parallelism in [2usize, 8] {
                let mut cfg = *engine.config();
                cfg.parallelism = parallelism;
                engine.set_config(cfg).unwrap();
                let out = engine.select(&candidates, 9);
                assert_eq!(out.selected, reference.selected, "{parallelism} threads");
                assert_eq!(out.sigma, reference.sigma, "{parallelism} threads");
                assert_eq!(
                    out.objective_trace, reference.objective_trace,
                    "{parallelism} threads"
                );
            }
            let after = engine.stats();
            assert_eq!(
                EngineStats {
                    selections: before.selections + 2,
                    ..before
                },
                after,
                "parallelism swaps must not invalidate artifacts"
            );
        }
    }

    #[test]
    fn theta_change_rebuilds_only_the_index() {
        let (g, x) = dataset(3);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 8);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.theta = ThetaRule::RelativeToRowMax(0.4);
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 8);
        let after = engine.stats();
        assert_eq!(after.index_builds, before.index_builds + 1);
        assert_eq!(after.propagation_builds, before.propagation_builds);
        assert_eq!(after.transition_builds, before.transition_builds);
        assert_eq!(after.influence_builds, before.influence_builds);
        assert_eq!(after.embedding_builds, before.embedding_builds);
        assert_eq!(after.diversity_builds, before.diversity_builds);
    }

    #[test]
    fn kernel_depth_change_rebuilds_kernel_artifacts_but_not_transition() {
        let (g, x) = dataset(4);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 8);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.kernel = Kernel::RandomWalk { k: 3 };
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 8);
        let after = engine.stats();
        // Same TransitionKind -> T is reused; everything downstream of the
        // kernel key rebuilds.
        assert_eq!(after.transition_builds, before.transition_builds);
        assert_eq!(after.propagation_builds, before.propagation_builds + 1);
        assert_eq!(after.influence_builds, before.influence_builds + 1);
        assert_eq!(after.index_builds, before.index_builds + 1);
        assert_eq!(after.embedding_builds, before.embedding_builds + 1);
        assert_eq!(after.diversity_builds, before.diversity_builds + 1);
    }

    #[test]
    fn gamma_and_budget_changes_rebuild_nothing() {
        let (g, x) = dataset(5);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 6);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.gamma = 0.5;
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 11);
        let after = engine.stats();
        assert_eq!(
            EngineStats {
                selections: before.selections + 1,
                ..before
            },
            after
        );
    }

    #[test]
    fn variant_override_shares_artifacts() {
        let (g, x) = dataset(6);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        for variant in [
            GrainVariant::Full,
            GrainVariant::NoDiversity,
            GrainVariant::NoMagnitude,
            GrainVariant::ClassicCoverage,
        ] {
            let out = engine.select_variant(variant, &candidates, 5);
            assert_eq!(out.selected.len(), 5, "variant {variant:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.propagation_builds, 1);
        assert_eq!(stats.influence_builds, 1);
        assert_eq!(stats.index_builds, 1);
        assert_eq!(stats.diversity_builds, 1);
    }

    #[test]
    fn untripped_token_selects_bit_identically_cold_and_warm() {
        let (g, x) = dataset(11);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let reference = SelectionEngine::new(cfg, &g, &x)
            .unwrap()
            .select(&candidates, 9);
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
        for _ in 0..2 {
            // Cold pass builds every artifact under the ctl path; warm
            // pass serves them from cache. Both must change no bit.
            let out = engine
                .select_with_cancel(
                    cfg.variant,
                    &candidates,
                    9,
                    &CancelToken::new(),
                    OnDeadline::Partial,
                )
                .unwrap();
            assert_eq!(out.selected, reference.selected);
            assert_eq!(out.sigma, reference.sigma);
            assert_eq!(out.objective_trace, reference.objective_trace);
            assert_eq!(out.completion, Completion::Complete);
            assert!(!out.is_partial());
        }
    }

    #[test]
    fn pre_tripped_token_fails_typed_and_leaves_engine_usable() {
        let (g, x) = dataset(12);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let cfg = GrainConfig::ball_d();
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();

        // Caller cancel is always a typed failure, whatever the policy.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for policy in [OnDeadline::Fail, OnDeadline::Partial] {
            let err = engine
                .select_with_cancel(cfg.variant, &candidates, 5, &cancelled, policy)
                .unwrap_err();
            assert!(matches!(err, GrainError::Cancelled), "{policy:?}: {err}");
        }
        // A deadline trip observed at an artifact-stage boundary fails
        // typed even under the Partial policy: artifacts are never partial.
        let expired =
            CancelToken::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        let err = engine
            .select_with_cancel(cfg.variant, &candidates, 5, &expired, OnDeadline::Partial)
            .unwrap_err();
        assert!(matches!(
            err,
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::MidSelection
            }
        ));
        // No selection was answered and nothing is torn: a fresh run
        // matches a fresh engine exactly.
        assert_eq!(engine.stats().selections, 0);
        let out = engine.select(&candidates, 5);
        let fresh = SelectionEngine::new(cfg, &g, &x)
            .unwrap()
            .select(&candidates, 5);
        assert_eq!(out.selected, fresh.selected);
        assert_eq!(out.sigma, fresh.sigma);
    }

    #[test]
    fn top_k_change_rebuilds_only_rows_and_index() {
        let (g, x) = dataset(13);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        engine.select(&candidates, 8);
        let before = engine.stats();
        let mut cfg = *engine.config();
        cfg.influence_row_top_k = 8;
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 8);
        let after = engine.stats();
        // Truncation re-derives the rows and everything downstream of
        // them, but T, X^(k), the embedding, and ball lists are untouched.
        assert_eq!(after.influence_builds, before.influence_builds + 1);
        assert_eq!(after.index_builds, before.index_builds + 1);
        assert_eq!(after.transition_builds, before.transition_builds);
        assert_eq!(after.propagation_builds, before.propagation_builds);
        assert_eq!(after.embedding_builds, before.embedding_builds);
        assert_eq!(after.diversity_builds, before.diversity_builds);
    }

    #[test]
    fn artifact_bytes_track_residency_and_csr_beats_nested() {
        let (g, x) = dataset(14);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        assert_eq!(engine.artifact_bytes(), ArtifactBytes::default());
        engine.select(&candidates, 6);
        let bytes = engine.artifact_bytes();
        for (name, count) in [
            ("transition", bytes.transition),
            ("propagation", bytes.propagation),
            ("embedding", bytes.embedding),
            ("influence_rows", bytes.influence_rows),
            ("activation_index", bytes.activation_index),
            ("balls", bytes.balls),
            ("greedy_trace", bytes.greedy_trace),
        ] {
            assert!(count > 0, "{name} built but reported zero bytes");
        }
        // Exact CSR bytes, below the retired nested layout's `24·n + 8·nnz`.
        let rows = engine.influence_rows();
        assert_eq!(
            bytes.influence_rows,
            (rows.num_nodes() + 1) * std::mem::size_of::<usize>() + 8 * rows.nnz()
        );
        assert_eq!(bytes.total(), {
            bytes.transition
                + bytes.propagation
                + bytes.embedding
                + bytes.influence_rows
                + bytes.activation_index
                + bytes.balls
                + bytes.greedy_trace
        });
        // Truncation shrinks the influence artifact.
        let mut cfg = *engine.config();
        cfg.influence_row_top_k = 4;
        engine.set_config(cfg).unwrap();
        engine.select(&candidates, 6);
        assert!(engine.artifact_bytes().influence_rows <= bytes.influence_rows);
    }

    #[test]
    fn untruncated_top_k_selects_identically_at_any_thread_count() {
        // The acceptance bar for the CSR rewrite: top_k = 0 must be
        // bit-identical to the pre-rewrite nested path at every thread
        // count — same seeds, same sigma, same objective trace.
        let (g, x) = dataset(15);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let reference = {
            let mut cfg = GrainConfig::ball_d();
            cfg.parallelism = 1;
            SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, 10)
        };
        for parallelism in [2usize, 4, 8] {
            let mut cfg = GrainConfig::ball_d();
            cfg.parallelism = parallelism;
            let out = SelectionEngine::new(cfg, &g, &x)
                .unwrap()
                .select(&candidates, 10);
            assert_eq!(out.selected, reference.selected, "{parallelism} threads");
            assert_eq!(out.sigma, reference.sigma, "{parallelism} threads");
            assert_eq!(
                out.objective_trace, reference.objective_trace,
                "{parallelism} threads"
            );
        }
    }

    #[test]
    fn kernel_round_trip_reuses_propagation_cache() {
        let (g, x) = dataset(7);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        let base = *engine.config();
        engine.select(&candidates, 5);
        let mut deep = base;
        deep.kernel = Kernel::RandomWalk { k: 3 };
        engine.set_config(deep).unwrap();
        engine.select(&candidates, 5);
        engine.set_config(base).unwrap();
        engine.select(&candidates, 5);
        // The k=2 embedding was evicted (single-slot) but the propagation
        // cache is a map: returning to k=2 propagates nothing new.
        assert_eq!(engine.stats().propagation_builds, 2);
        assert_eq!(engine.stats().influence_builds, 3);
    }
}
