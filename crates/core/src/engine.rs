//! The staged, artifact-caching selection engine.
//!
//! Grain's pipeline is model-free precompute: for a fixed graph and
//! feature matrix, every §3 artifact is a pure function of a few config
//! fields. [`SelectionEngine`] keeps them in one table, one slot per
//! stage, listed here in build order (each stage is built from stages
//! above it):
//!
//! | stage | artifact | keyed by |
//! |---|---|---|
//! | `Transition` | transition matrix `T` | `kernel.transition_kind()` |
//! | `Propagation` | propagated features `X^(k)` + power ladder | `kernel` |
//! | `Embedding` | L2-normalized `X^(k)` | `kernel` |
//! | `Rows` | influence rows `I_v(·, k)` | `kernel`, `influence_eps`, `influence_row_top_k` |
//! | `Index` | activation index `act[u]` | the rows' key + `theta` |
//! | `Balls` | ball membership lists | `kernel`, `radius` |
//! | `NnDmax` | NN `d_max` constant | `kernel` |
//!
//! — and only the greedy maximization varies with `budget` and the
//! ablation variant. Each slot holds one artifact and the key it was
//! built under; a request rebuilds exactly the stages whose key its
//! config changed and reuses the rest, so a budget sweep, a γ/θ
//! sensitivity scan, or a serving loop answering many selection requests
//! over one corpus pays the heavy stages once.
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
//! [`GrainConfig::parallelism`] worker threads on fixed row blocks
//! ([`grain_linalg::par::for_each_block_mut`]); each row is computed
//! wholly by one worker and reductions run in a fixed order, so every
//! artifact is **bit-identical at any thread count** — which is why
//! `parallelism` is not part of any stage key or of the artifact
//! fingerprint.

use crate::cancel::{CancelCause, CancelToken, OnDeadline};
use crate::config::{DiversityKind, GrainConfig, GrainVariant, GreedyAlgorithm};
use crate::diversity::{BallDiversity, DiversityFunction, NnDiversity, NullDiversity};
use crate::error::{DeadlineStage, GrainError, GrainResult};
use crate::fault;
use crate::greedy::{lazy_greedy, plain_greedy, replay, GreedyTrace};
use crate::objective::{DimObjective, DiversityScope};
use crate::prune::prune_candidates;
use crate::selector::{Completion, SelectionOutcome, SelectionTimings};
use crate::store::{ArtifactKind, ArtifactStore, ContentAddress, Payload, PendingArtifact};
use grain_graph::{transition_matrix, transition_rows, CsrMatrix, Graph, TransitionKind};
use grain_influence::walk::kernel_power_weights;
use grain_influence::{ActivationIndex, InfluenceRows, ThetaRule};
use grain_linalg::distance::{self, BallLists};
use grain_linalg::DenseMatrix;
use grain_prop::propagate::repropagate_rows_laddered;
use grain_prop::{propagate_with, repropagate_rows, Kernel};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
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
    /// Dirty transition rows recomputed and spliced into the old matrix
    /// (a whole build only when no transition of the kind is cached).
    pub transition: Duration,
    /// Dirty-row re-propagation of `X^(k)` and its ladder.
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
    /// Ball membership lists (flat CSR offsets + members).
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

/// The artifact stages, in build order: `Propagation` and `Rows` are
/// built from `Transition`, `Embedding` from `Propagation`, `Index` from
/// `Rows`, and the diversity precomputes `Balls` and `NnDmax` from
/// `Embedding`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Transition,
    Propagation,
    Embedding,
    Rows,
    Index,
    Balls,
    NnDmax,
}

impl Stage {
    const COUNT: usize = 7;
    const ALL: [Stage; Stage::COUNT] = [
        Stage::Transition,
        Stage::Propagation,
        Stage::Embedding,
        Stage::Rows,
        Stage::Index,
        Stage::Balls,
        Stage::NnDmax,
    ];

    /// The stage's key under `config`: exactly the fields its artifact is
    /// a pure function of, `f32`s by bit pattern.
    fn key(self, config: &GrainConfig) -> StageKey {
        let kernel = config.kernel;
        let eps = config.influence_eps.to_bits();
        let top_k = config.influence_row_top_k;
        match self {
            Stage::Transition => StageKey::Transition(kernel.transition_kind()),
            Stage::Propagation | Stage::Embedding | Stage::NnDmax => StageKey::Kernel(kernel),
            Stage::Rows => StageKey::Rows(kernel, eps, top_k),
            Stage::Index => StageKey::Index(kernel, eps, top_k, config.theta),
            Stage::Balls => StageKey::Balls(kernel, config.radius.to_bits()),
        }
    }

    /// The fail-point site a build of this stage crosses, followed by a
    /// cancellation checkpoint, before any work. The transition and the
    /// embedding are never interrupted.
    fn site(self) -> Option<&'static str> {
        match self {
            Stage::Transition | Stage::Embedding => None,
            Stage::Propagation => Some("engine.build.propagation"),
            Stage::Rows => Some("engine.build.rows"),
            Stage::Index => Some("engine.build.index"),
            Stage::Balls => Some("engine.build.balls"),
            Stage::NnDmax => Some("engine.build.nn_dmax"),
        }
    }

    /// The store kind this stage persists as, if any.
    fn kind(self) -> Option<ArtifactKind> {
        match self {
            Stage::Propagation => Some(ArtifactKind::Propagation),
            Stage::Rows => Some(ArtifactKind::InfluenceRows),
            Stage::Index => Some(ArtifactKind::ActivationIndex),
            _ => None,
        }
    }

    /// This stage's build counter in `stats`.
    fn counter(self, stats: &mut EngineStats) -> &mut usize {
        match self {
            Stage::Transition => &mut stats.transition_builds,
            Stage::Propagation => &mut stats.propagation_builds,
            Stage::Embedding => &mut stats.embedding_builds,
            Stage::Rows => &mut stats.influence_builds,
            Stage::Index => &mut stats.index_builds,
            Stage::Balls | Stage::NnDmax => &mut stats.diversity_builds,
        }
    }
}

/// The config fields one stage's artifact was built under (see
/// [`Stage::key`]).
#[derive(Clone, Copy, Debug, PartialEq)]
enum StageKey {
    Transition(TransitionKind),
    Kernel(Kernel),
    /// Kernel, `influence_eps` bits, `influence_row_top_k`.
    Rows(Kernel, u32, usize),
    /// The rows' key plus `theta`.
    Index(Kernel, u32, usize, ThetaRule),
    /// Kernel, `radius` bits.
    Balls(Kernel, u32),
}

/// `X^(k)` with its power ladder, the states after steps `1..k-1` (see
/// [`grain_prop::propagate_with`]), which keeps a delta's repair
/// proportional to its dirty rows. A seeded value, or a stored one whose
/// ladder does not fit, has an empty ladder and repairs through the
/// reverse cone instead.
pub(crate) struct Propagated {
    pub(crate) value: Arc<DenseMatrix>,
    pub(crate) ladder: Vec<DenseMatrix>,
}

impl Propagated {
    /// Whether the ladder has the `k - 1` levels of `value`'s shape that
    /// level-local repair reads.
    fn ladder_fits(&self, kernel: Kernel) -> bool {
        self.ladder.len() == kernel.steps().saturating_sub(1)
            && self.ladder.iter().all(|l| l.shape() == self.value.shape())
    }

    /// This `X^(k)` after a corpus delta: the `dirty` rows recomputed
    /// against `transition` and `features` (the mutated corpus's), the
    /// rest copied. A fitting ladder repairs level-locally (`O(k · |dirty|)`
    /// SpMM rows over `threads` workers) and is repaired alongside; any
    /// other falls back to the serial reverse cone and stays ladder-free.
    fn repaired(
        &self,
        transition: &CsrMatrix,
        kernel: Kernel,
        features: &DenseMatrix,
        dirty: &[u32],
        threads: usize,
    ) -> Propagated {
        let old = &self.value;
        let (value, ladder) = if self.ladder_fits(kernel) {
            let levels: Vec<&DenseMatrix> = self.ladder.iter().collect();
            repropagate_rows_laddered(transition, kernel, features, old, &levels, dirty, threads)
        } else {
            let value = repropagate_rows(transition, kernel, features, old, dirty);
            (value, Vec::new())
        };
        let value = Arc::new(value);
        Propagated { value, ladder }
    }
}

/// One stage's slot: the key its artifact was built under and the
/// artifact, an `Arc` or a `Copy` value.
type Slot<T> = Option<(StageKey, T)>;

/// Typed reads of one slot.
trait SlotExt<T> {
    /// The key the slot's artifact was built under, if it holds one.
    fn key(&self) -> Option<StageKey>;
    /// The artifact if it was built under `key`.
    fn held(&self, key: StageKey) -> Option<&T>;
    /// The artifact of a stage the caller ensured.
    fn ensured(&self) -> &T;
}

impl<T> SlotExt<T> for Slot<T> {
    fn key(&self) -> Option<StageKey> {
        self.as_ref().map(|(k, _)| *k)
    }

    fn held(&self, key: StageKey) -> Option<&T> {
        self.as_ref().filter(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn ensured(&self) -> &T {
        &self.as_ref().expect("stage ensured").1
    }
}

/// The engine's artifact table: one slot per [`Stage`]. Every slot
/// clones in O(1), so a clone is a snapshot of the engine's artifacts.
#[derive(Clone, Default)]
struct Artifacts {
    transition: Slot<Arc<CsrMatrix>>,
    propagation: Slot<Arc<Propagated>>,
    embedding: Slot<Arc<DenseMatrix>>,
    rows: Slot<Arc<InfluenceRows>>,
    index: Slot<Arc<ActivationIndex>>,
    /// The lists, shared with each `BallDiversity` without copying, and
    /// their union size, so warm selects touch no list.
    balls: Slot<(Arc<BallLists>, usize)>,
    nn_dmax: Slot<f32>,
}

impl Artifacts {
    /// The key `stage`'s slot holds, if it holds an artifact.
    fn key(&self, stage: Stage) -> Option<StageKey> {
        match stage {
            Stage::Transition => self.transition.key(),
            Stage::Propagation => self.propagation.key(),
            Stage::Embedding => self.embedding.key(),
            Stage::Rows => self.rows.key(),
            Stage::Index => self.index.key(),
            Stage::Balls => self.balls.key(),
            Stage::NnDmax => self.nn_dmax.key(),
        }
    }

    /// Resident heap bytes of `stage`'s artifact; zero for an empty slot.
    fn bytes(&self, stage: Stage) -> usize {
        use std::mem::size_of;
        let dense = |m: &DenseMatrix| m.rows() * m.cols() * size_of::<f32>();
        let held = match stage {
            Stage::Transition => self.transition.as_ref().map(|(_, t)| {
                (t.rows() + 1) * size_of::<usize>()
                    + t.nnz() * (size_of::<u32>() + size_of::<f32>())
            }),
            Stage::Propagation => self
                .propagation
                .as_ref()
                .map(|(_, p)| dense(&p.value) + p.ladder.iter().map(dense).sum::<usize>()),
            Stage::Embedding => self.embedding.as_ref().map(|(_, e)| dense(e)),
            Stage::Rows => self.rows.as_ref().map(|(_, r)| r.resident_bytes()),
            Stage::Index => self.index.as_ref().map(|(_, i)| i.resident_bytes()),
            Stage::Balls => self.balls.as_ref().map(|(_, (l, _))| l.resident_bytes()),
            Stage::NnDmax => None,
        };
        held.unwrap_or(0)
    }

    /// `stage`'s artifact as a store payload, if the stage persists and
    /// its slot holds `key`. Clones an `Arc`.
    fn payload(&self, stage: Stage, key: StageKey) -> Option<Payload> {
        match stage {
            Stage::Propagation => self
                .propagation
                .held(key)
                .map(|p| Payload::Propagation(Arc::clone(p))),
            Stage::Rows => self.rows.held(key).map(|r| Payload::Rows(Arc::clone(r))),
            Stage::Index => self.index.held(key).map(|i| Payload::Index(Arc::clone(i))),
            _ => None,
        }
    }

    /// Adopts a `payload` (stored, or a sibling's `X^(k)`) under `key` if
    /// it fits an `n`-node corpus with `d` feature columns and `kernel`'s
    /// depth. A ladder that does not fit is dropped and the value kept.
    fn adopt(&mut self, key: StageKey, payload: Payload, n: usize, d: usize, kernel: Kernel) {
        let k = kernel.steps();
        match payload {
            Payload::Propagation(mut p) if p.value.shape() == (n, d) => {
                if !p.ladder_fits(kernel) {
                    let (value, ladder) = (Arc::clone(&p.value), Vec::new());
                    p = Arc::new(Propagated { value, ladder });
                }
                self.propagation = Some((key, p));
            }
            Payload::Rows(r) if r.num_nodes() == n && r.k() == k => self.rows = Some((key, r)),
            Payload::Index(i) if i.num_nodes() == n && i.k() == k => self.index = Some((key, i)),
            _ => {}
        }
    }
}

/// What an engine last published for readers that must not wait on its
/// lock: its config and an O(1) clone of its artifact table, published
/// together, with its build counters, trace-cache flag and resident bytes.
/// Republished whenever the table or the cached greedy run changes, so it
/// never keeps alive an artifact the engine released. Lock order: the
/// engine's lock, then the cell.
#[derive(Clone, Default)]
pub(crate) struct Published {
    pub(crate) config: GrainConfig,
    artifacts: Artifacts,
    pub(crate) stats: EngineStats,
    trace_cache: bool,
    pub(crate) bytes: ArtifactBytes,
}

impl Published {
    /// The held `X^(k)` with its ladder if it is `kernel`'s.
    pub(crate) fn propagation(&self, kernel: Kernel) -> Option<Arc<Propagated>> {
        self.artifacts
            .propagation
            .held(StageKey::Kernel(kernel))
            .map(Arc::clone)
    }

    /// Derives an engine over the mutated corpus `(graph, features)` by
    /// patching this snapshot's artifacts instead of rebuilding them — the
    /// streaming fast path behind
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
    ///   transition of the right kind is held;
    /// * **propagation** — dirty rows re-propagated level-locally via
    ///   [`grain_prop::propagate::repropagate_rows_laddered`] against the
    ///   donor's power ladder (`O(k · |dirty|)` SpMM rows over
    ///   `parallelism` workers), clean rows `memcpy`d; a donor without a
    ///   fitting ladder repairs through the reverse cone
    ///   ([`grain_prop::repropagate_rows`]);
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
    /// Only artifacts held under the published config are migrated; slots
    /// holding an earlier config's artifact are dropped, and a snapshot
    /// taken mid-build migrates the stages it holds. Callers must not
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
        let threads = config.parallelism;
        let (old, mut new) = (&self.artifacts, Artifacts::default());
        let mut stats = self.stats;
        let mut spent = [Duration::ZERO; Stage::COUNT];
        for stage in Stage::ALL {
            let key = stage.key(&config);
            let start = Instant::now();
            match stage {
                Stage::Transition => {
                    let t = match old.transition.held(key) {
                        Some(t_old) => t_old.with_replaced_rows(&transition_rows(
                            &graph,
                            kind,
                            true,
                            dirty_transition,
                        )),
                        None => transition_matrix(&graph, kind, true),
                    };
                    new.transition = Some((key, Arc::new(t)));
                }
                Stage::Propagation => {
                    let Some(p) = old.propagation.held(key) else {
                        continue;
                    };
                    let t = new.transition.ensured();
                    let p = p.repaired(t, config.kernel, &features, dirty_propagation, threads);
                    new.propagation = Some((key, Arc::new(p)));
                }
                Stage::Embedding => {
                    let (Some(e), Some((_, p))) = (old.embedding.held(key), &new.propagation)
                    else {
                        continue;
                    };
                    // Clean rows keep their bits; dirty rows are
                    // re-normalized with the full pass's per-row op.
                    let mut e = (**e).clone();
                    for &v in dirty_propagation {
                        let row = e.row_mut(v as usize);
                        row.copy_from_slice(p.value.row(v as usize));
                        grain_linalg::ops::l2_normalize_row(row);
                    }
                    new.embedding = Some((key, Arc::new(e)));
                }
                Stage::Rows => {
                    let Some(rows) = old.rows.held(key) else {
                        continue;
                    };
                    let rows = rows.with_rebuilt_rows(
                        new.transition.ensured(),
                        config.kernel,
                        config.influence_eps,
                        config.influence_row_top_k,
                        dirty_influence,
                        threads,
                    );
                    new.rows = Some((key, Arc::new(rows)));
                }
                Stage::Index => {
                    let (Some(index), Some((_, rows))) = (old.index.held(key), &new.rows) else {
                        continue;
                    };
                    let index = index.repaired(rows, config.theta, dirty_influence);
                    new.index = Some((key, Arc::new(index)));
                }
                // Rebuilt lazily by the next select that needs them.
                Stage::Balls | Stage::NnDmax => continue,
            }
            spent[stage as usize] = start.elapsed();
            *stage.counter(&mut stats) += 1;
        }
        let at = |stage: Stage| spent[stage as usize];
        let timings = PatchTimings {
            transition: at(Stage::Transition),
            propagation: at(Stage::Propagation),
            embedding: at(Stage::Embedding),
            influence: at(Stage::Rows),
            index: at(Stage::Index),
        };
        let engine = SelectionEngine {
            config,
            graph,
            features,
            artifacts: new,
            // Runs over the old corpus answer nothing on the new one.
            traces: TraceCache::new(self.trace_cache),
            stats,
            published: Arc::default(),
        };
        engine.publish();
        (engine, timings)
    }
}

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
    artifacts: Artifacts,
    traces: TraceCache,
    stats: EngineStats,
    /// The snapshot cell this engine shares with its pool slot.
    pub(crate) published: Arc<Mutex<Published>>,
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
        let engine = Self {
            config,
            graph,
            features,
            artifacts: Artifacts::default(),
            traces: TraceCache::new(true),
            stats: EngineStats::default(),
            published: Arc::default(),
        };
        engine.publish();
        Ok(engine)
    }

    /// Replaces the published snapshot with the engine's current state.
    /// O(1): the table clones `Arc`s and the byte count reads lengths.
    fn publish(&self) {
        let fresh = Published {
            config: self.config,
            artifacts: self.artifacts.clone(),
            stats: self.stats,
            trace_cache: self.traces.enabled,
            bytes: self.artifact_bytes(),
        };
        // Publication is one assignment, so a poisoned cell is whole. The
        // stale snapshot drops after the unlock, so an artifact the engine
        // released is freed outside the cell's lock.
        let mut cell = self.published.lock().unwrap_or_else(PoisonError::into_inner);
        let _stale = std::mem::replace(&mut *cell, fresh);
        drop(cell);
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
        self.ensure([Stage::Transition, Stage::Propagation], &CancelToken::new())
            .expect(UNCANCELLED);
        Arc::clone(&self.artifacts.propagation.ensured().value)
    }

    /// Seeds the propagation slot with an externally computed `X^(k)`
    /// for the active kernel, sharing the allocation — used when this
    /// engine is a private companion of another engine (e.g. a
    /// [`crate::service::GrainService`]-pooled one) that already holds
    /// the artifact, so it is never re-propagated here. A seeded value
    /// carries no power ladder, so a later delta repairs it through the
    /// reverse cone.
    ///
    /// # Panics
    /// Panics if `value` does not have one row per graph node.
    pub fn seed_propagated(&mut self, value: Arc<DenseMatrix>) {
        assert_eq!(
            value.rows(),
            self.graph.num_nodes(),
            "seeded rows ({}) must match node count ({})",
            value.rows(),
            self.graph.num_nodes()
        );
        let key = Stage::Propagation.key(&self.config);
        let ladder = Vec::new();
        self.artifacts.propagation = Some((key, Arc::new(Propagated { value, ladder })));
        self.publish();
    }

    /// The held `X^(k)` if it is `kernel`'s — computes nothing on a miss.
    /// A private companion engine over the same corpus seeds itself from
    /// it via [`SelectionEngine::seed_propagated`].
    pub fn propagated_if_cached(&self, kernel: Kernel) -> Option<Arc<DenseMatrix>> {
        self.artifacts
            .propagation
            .held(StageKey::Kernel(kernel))
            .map(|p| Arc::clone(&p.value))
    }

    // ---- artifact store seam ---------------------------------------------
    //
    // The only two places that talk to `crate::store`. Both address the
    // store by this engine's *own* active config, so what is saved or
    // loaded can never disagree with what the engine holds, whichever
    // pool key the engine sits under. Adoption is not a build: it bumps
    // no build counter, which is what keeps `pending_built` from
    // re-persisting what was just loaded.

    /// The store address of the active config's artifacts over the corpus
    /// snapshot `(graph_fingerprint, epoch)`.
    fn address(&self, graph_fingerprint: u64, epoch: u64) -> ContentAddress {
        ContentAddress {
            graph_fingerprint,
            epoch,
            artifact_fingerprint: self.config.artifact_fingerprint(),
        }
    }

    /// Fills the stage slots of a fresh engine for its active config, in
    /// cost order: `sibling` (another resident engine's `X^(k)` for the
    /// active kernel, ladder included) beats the store's `X^(k)`; the
    /// store supplies the other persisted stages. Both go through one
    /// [`Artifacts::adopt`]. Every load is best-effort: a miss, a corrupt
    /// file (counted in `StoreStats`) or a shape mismatch leaves that
    /// stage to its cold build, and a validated hit is adopted
    /// bit-identically.
    pub(crate) fn adopt(
        &mut self,
        sibling: Option<Arc<Propagated>>,
        store: Option<&ArtifactStore>,
        graph_fingerprint: u64,
        epoch: u64,
    ) {
        let (n, d, kernel) = (self.graph.num_nodes(), self.features.cols(), self.config.kernel);
        if let Some(p) = sibling {
            let key = Stage::Propagation.key(&self.config);
            self.artifacts.adopt(key, Payload::Propagation(p), n, d, kernel);
        }
        if let Some(store) = store {
            let addr = self.address(graph_fingerprint, epoch);
            for stage in Stage::ALL {
                let key = stage.key(&self.config);
                let Some(kind) = stage.kind() else {
                    continue;
                };
                if self.artifacts.key(stage) == Some(key) {
                    continue; // a sibling's X^(k)
                }
                if let Ok(Some(payload)) = store.load_payload(&addr, kind) {
                    self.artifacts.adopt(key, payload, n, d, kernel);
                }
            }
        }
        self.publish();
    }

    /// The active-config stages that `built` counts as (re)built — a
    /// request's or a patch's build-counter delta — as artifacts pending
    /// a write to the store. Clones `Arc`s only: the caller commits them
    /// after releasing the engine.
    pub(crate) fn pending_built(
        &self,
        built: &EngineStats,
        graph_fingerprint: u64,
        epoch: u64,
    ) -> Vec<PendingArtifact> {
        let mut built = *built;
        let payloads: Vec<Payload> = Stage::ALL
            .into_iter()
            .filter(|&stage| *stage.counter(&mut built) > 0)
            .filter_map(|stage| self.artifacts.payload(stage, stage.key(&self.config)))
            .collect();
        if payloads.is_empty() {
            return Vec::new();
        }
        let addr = self.address(graph_fingerprint, epoch);
        payloads
            .into_iter()
            .map(|payload| PendingArtifact {
                addr: addr.clone(),
                payload,
            })
            .collect()
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
        self.publish();
    }

    /// Exact resident heap bytes of every currently cached artifact —
    /// the measurement seam for size-aware pool accounting. Not-yet-built
    /// artifacts count zero, so a cold engine reports all zeros and the
    /// count grows monotonically as `select` materializes stages.
    pub fn artifact_bytes(&self) -> ArtifactBytes {
        let bytes = |stage| self.artifacts.bytes(stage);
        ArtifactBytes {
            transition: bytes(Stage::Transition),
            propagation: bytes(Stage::Propagation),
            embedding: bytes(Stage::Embedding),
            influence_rows: bytes(Stage::Rows),
            activation_index: bytes(Stage::Index),
            balls: bytes(Stage::Balls),
            greedy_trace: self.traces.last.as_ref().map_or(0, CachedRun::bytes),
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

        // 1–3. Decoupled propagation (Eq. 6) on the kernel's transition
        // matrix, influence rows under the kernel Jacobian (Def. 3.1 /
        // Eq. 9), the activation index (Def. 3.2) and the diversity
        // precomputation (§3.3) the variant needs.
        let diversity = diversity_kind(variant, self.config.diversity).map(|kind| match kind {
            DiversityKind::Ball => Stage::Balls,
            DiversityKind::Nn => Stage::NnDmax,
        });
        // The embedding follows the index, so it is not yet resident
        // while the influence walk holds its scratch.
        let stages = [
            Stage::Transition,
            Stage::Propagation,
            Stage::Rows,
            Stage::Index,
            Stage::Embedding,
        ];
        let spent = self.ensure(stages.into_iter().chain(diversity), cancel)?;
        let at = |stage: Stage| spent[stage as usize];
        let propagation = at(Stage::Transition) + at(Stage::Propagation);
        let influence = at(Stage::Rows);
        let indexing =
            at(Stage::Embedding) + at(Stage::Index) + at(Stage::Balls) + at(Stage::NnDmax);

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
                let rows = self.artifacts.rows.ensured();
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
                self.publish();
            }
        }
        Ok(outcomes)
    }

    /// The L2-normalized rows of `X^(k)` under the active kernel (built
    /// or cached) — the embedding Grain distances diversity on; layout /
    /// interpretability consumers read it from the same store instead of
    /// re-normalizing the propagation themselves.
    pub fn normalized_embedding(&mut self) -> Arc<DenseMatrix> {
        let stages = [Stage::Transition, Stage::Propagation, Stage::Embedding];
        self.ensure(stages, &CancelToken::new()).expect(UNCANCELLED);
        Arc::clone(self.artifacts.embedding.ensured())
    }

    /// The activation index under the current config (built or cached) —
    /// interpretability experiments read activation lists directly.
    pub fn activation_index(&mut self) -> &ActivationIndex {
        let stages = [Stage::Transition, Stage::Rows, Stage::Index];
        self.ensure(stages, &CancelToken::new()).expect(UNCANCELLED);
        self.artifacts.index.ensured()
    }

    /// The influence rows under the current config (built or cached).
    pub fn influence_rows(&mut self) -> &InfluenceRows {
        let stages = [Stage::Transition, Stage::Rows];
        self.ensure(stages, &CancelToken::new()).expect(UNCANCELLED);
        self.artifacts.rows.ensured()
    }

    /// Builds each of `stages` (in order, each after the stages it is
    /// built from) whose slot does not hold the active config's key, and
    /// returns each build's wall time by stage. A build that observes `cancel` caches nothing and bumps no
    /// counter (no torn artifacts); the next request starts it afresh.
    fn ensure(
        &mut self,
        stages: impl IntoIterator<Item = Stage>,
        cancel: &CancelToken,
    ) -> GrainResult<[Duration; Stage::COUNT]> {
        let mut spent = [Duration::ZERO; Stage::COUNT];
        for stage in stages {
            let key = stage.key(&self.config);
            if self.artifacts.key(stage) == Some(key) {
                continue;
            }
            let start = Instant::now();
            if let Some(site) = stage.site() {
                fault::point(site, Some(cancel));
                cancel.checkpoint()?;
            }
            self.build(stage, key, cancel)?;
            spent[stage as usize] = start.elapsed();
            *stage.counter(&mut self.stats) += 1;
            self.publish();
        }
        Ok(spent)
    }

    /// Builds `stage`'s artifact under `key` from the (ensured) stages it
    /// depends on. Propagation polls `cancel` between SpMM power steps and
    /// the influence rows every 64 rows; the other builds run to the end.
    fn build(&mut self, stage: Stage, key: StageKey, cancel: &CancelToken) -> GrainResult<()> {
        let (config, a) = (&self.config, &mut self.artifacts);
        let threads = config.parallelism;
        let stop = || cancel.is_cancelled();
        match stage {
            Stage::Transition => {
                let t = transition_matrix(&self.graph, config.kernel.transition_kind(), true);
                a.transition = Some((key, Arc::new(t)));
            }
            Stage::Propagation => {
                let t = a.transition.ensured();
                let mut ladder = Vec::with_capacity(config.kernel.steps().saturating_sub(1));
                let value = propagate_with(
                    t,
                    config.kernel,
                    &self.features,
                    threads,
                    &stop,
                    Some(&mut ladder),
                )
                .ok_or_else(|| cancel.cancel_error())?;
                let value = Arc::new(value);
                a.propagation = Some((key, Arc::new(Propagated { value, ladder })));
            }
            Stage::Embedding => {
                let x = &a.propagation.ensured().value;
                let e = distance::normalized_embedding(x, threads);
                a.embedding = Some((key, Arc::new(e)));
            }
            Stage::Rows => {
                let rows = InfluenceRows::compute_weighted(
                    a.transition.ensured(),
                    &kernel_power_weights(config.kernel),
                    config.influence_eps,
                    config.influence_row_top_k,
                    threads,
                    &stop,
                )
                .ok_or_else(|| cancel.cancel_error())?;
                a.rows = Some((key, Arc::new(rows)));
            }
            Stage::Index => {
                let index = ActivationIndex::build(a.rows.ensured(), config.theta, threads);
                a.index = Some((key, Arc::new(index)));
            }
            Stage::Balls => {
                let balls =
                    distance::radius_neighbors(a.embedding.ensured(), config.radius, threads);
                let bound = BallDiversity::union_size(&balls, self.graph.num_nodes());
                a.balls = Some((key, (Arc::new(balls), bound)));
            }
            Stage::NnDmax => {
                let embedding = a.embedding.ensured();
                let dmax = distance::max_pairwise_distance(embedding, NN_DMAX_EXACT_LIMIT, threads);
                a.nn_dmax = Some((key, dmax));
            }
        }
        Ok(())
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
                    let (balls, bound) = self.artifacts.balls.ensured().clone();
                    Box::new(BallDiversity::from_shared_with_bound(
                        balls,
                        self.graph.num_nodes(),
                        bound,
                    ))
                }
                Some(DiversityKind::Nn) => {
                    let dmax = *self.artifacts.nn_dmax.ensured();
                    let embedding = Arc::clone(self.artifacts.embedding.ensured());
                    Box::new(NnDiversity::from_parts(
                        embedding,
                        dmax,
                        self.config.parallelism,
                    ))
                }
            };
        let (scope, magnitude_weight, gamma) = variant_parameters(variant, self.config.gamma);
        let index = self.artifacts.index.ensured();
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
    use crate::store::ScratchDir;
    use crate::streaming::DirtySets;
    use grain_graph::edit::apply_edge_edits;
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
    fn kernel_round_trip_holds_one_propagation() {
        let (g, x) = dataset(7);
        let candidates: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        let base = *engine.config();
        engine.select(&candidates, 5);
        let one_kernel = engine.artifact_bytes().propagation;
        let mut deep = base;
        deep.kernel = Kernel::RandomWalk { k: 3 };
        engine.set_config(deep).unwrap();
        engine.select(&candidates, 5);
        engine.set_config(base).unwrap();
        engine.select(&candidates, 5);
        // One slot per stage: the k = 3 build replaced the k = 2 one, so
        // the way back propagates again, and the ledger counts exactly the
        // held X^(k) and its k - 1 ladder levels.
        assert_eq!(engine.stats().propagation_builds, 3);
        assert_eq!(engine.stats().influence_builds, 3);
        let (n, d) = x.shape();
        let matrix = n * d * std::mem::size_of::<f32>();
        assert_eq!(engine.artifact_bytes().propagation, one_kernel);
        assert_eq!(one_kernel, base.kernel.steps() * matrix);
    }

    #[test]
    fn cancelled_propagation_caches_nothing_and_next_build_succeeds() {
        let (g, x) = dataset(21);
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        let kernel = engine.config().kernel;
        let tripped = CancelToken::new();
        tripped.cancel();
        engine.ensure([Stage::Transition], &tripped).unwrap();
        // Past the stage-boundary checkpoint, the build's own probe
        // between SpMM power steps sees the trip.
        let key = Stage::Propagation.key(engine.config());
        let err = engine.build(Stage::Propagation, key, &tripped).unwrap_err();
        assert!(matches!(err, GrainError::Cancelled), "{err}");
        assert!(engine.ensure([Stage::Propagation], &tripped).is_err());
        assert!(engine.propagated_if_cached(kernel).is_none());
        assert_eq!(engine.artifact_bytes().propagation, 0);
        assert_eq!(engine.stats().propagation_builds, 0);
        // The next build is whole; a held artifact ignores the probe.
        let value = engine.propagated();
        assert_eq!(*value, grain_prop::propagate(&g, kernel, &x));
        assert_eq!(engine.stats().propagation_builds, 1);
        assert!(engine
            .ensure([Stage::Transition, Stage::Propagation], &tripped)
            .is_ok());
    }

    #[test]
    fn propagated_matches_direct_propagation() {
        for kernel in [
            Kernel::RandomWalk { k: 2 },
            Kernel::RandomWalk { k: 3 },
            Kernel::Ppr { k: 2, alpha: 0.1 },
        ] {
            let (g, x) = dataset(22);
            let cfg = GrainConfig {
                kernel,
                ..GrainConfig::ball_d()
            };
            let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
            assert_eq!(
                *engine.propagated(),
                grain_prop::propagate(&g, kernel, &x),
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn propagated_twice_shares_one_allocation() {
        let (g, x) = dataset(22);
        let mut engine = SelectionEngine::new(GrainConfig::ball_d(), &g, &x).unwrap();
        let kernel = engine.config().kernel;
        let a = engine.propagated();
        let b = engine.propagated();
        assert!(
            Arc::ptr_eq(&a, &b),
            "propagated() must hand out the held X^(k)"
        );
        assert!(Arc::ptr_eq(
            &a,
            &engine.propagated_if_cached(kernel).unwrap()
        ));
        assert_eq!(engine.stats().propagation_builds, 1);
    }

    /// A config whose kernel has a two-level ladder.
    fn deep_config() -> GrainConfig {
        GrainConfig {
            kernel: Kernel::RandomWalk { k: 3 },
            ..GrainConfig::ball_d()
        }
    }

    /// `graph` without its first edge, and that delta's dirty sets under
    /// `config`'s kernel.
    fn one_edge_delta(graph: &Graph, config: &GrainConfig) -> (Arc<Graph>, DirtySets) {
        let u = (0..graph.num_nodes())
            .find(|&v| !graph.neighbors(v).is_empty())
            .unwrap();
        let edge = (u as u32, graph.neighbors(u)[0]);
        let (edited, endpoints) = apply_edge_edits(graph, &[], &[edge]).unwrap();
        let kind = config.kernel.transition_kind();
        let dirty = DirtySets::compute(&edited, kind, config.kernel.steps(), &endpoints, &[]);
        (Arc::new(edited), dirty)
    }

    /// `engine`'s published snapshot patched onto `graph` (same
    /// features) under `dirty`.
    fn patch(engine: &SelectionEngine, graph: &Arc<Graph>, dirty: &DirtySets) -> SelectionEngine {
        let features = engine.features_arc();
        let (dt, dp, di) = (&dirty.transition, &dirty.propagation, &dirty.influence);
        let published = engine.published.lock().unwrap().clone();
        published.patched(Arc::clone(graph), features, dt, dp, di).0
    }

    #[test]
    fn laddered_patch_holds_the_patched_ladder() {
        let (g, x) = dataset(23);
        let cfg = deep_config();
        let (edited, dirty) = one_edge_delta(&g, &cfg);
        let mut engine = SelectionEngine::new(cfg, &g, &x).unwrap();
        engine.propagated();
        let mut next = patch(&engine, &edited, &dirty);
        assert_eq!(next.stats().propagation_builds, 2);
        let mut cold = SelectionEngine::over(cfg, Arc::clone(&edited), x.clone()).unwrap();
        cold.propagated();
        let patched = next.artifacts.propagation.ensured();
        let built = cold.artifacts.propagation.ensured();
        assert_eq!(patched.ladder.len(), 2);
        assert_eq!(patched.value, built.value);
        assert_eq!(
            patched.ladder, built.ladder,
            "patched ladder != cold ladder"
        );
        // The patch is held: asking for X^(k) builds nothing and shares it.
        let held = Arc::clone(&patched.value);
        assert!(Arc::ptr_eq(&held, &next.propagated()));
        assert_eq!(next.stats().propagation_builds, 2);
        // So the next delta (the edge back) repairs level-locally too.
        let (restored, undo) = one_edge_delta(&edited, &cfg);
        let again = patch(&next, &restored, &undo);
        assert_eq!(again.artifacts.propagation.ensured().ladder.len(), 2);
        let mut cold = SelectionEngine::over(cfg, restored, x.clone()).unwrap();
        assert_eq!(
            *again.propagated_if_cached(cfg.kernel).unwrap(),
            *cold.propagated()
        );
    }

    #[test]
    fn ladder_free_propagation_patches_through_the_cone() {
        let (g, x) = dataset(24);
        let cfg = deep_config();
        let (n, d) = x.shape();
        let matrix = n * d * std::mem::size_of::<f32>();
        let (edited, dirty) = one_edge_delta(&g, &cfg);
        let mut cold = SelectionEngine::over(cfg, Arc::clone(&edited), x.clone()).unwrap();
        let want = cold.propagated();
        let mut donor = SelectionEngine::new(cfg, &g, &x).unwrap();
        let value = donor.propagated();
        let level = donor.artifacts.propagation.ensured().ladder[0].clone();

        // Seeded: no ladder at all.
        let mut seeded = SelectionEngine::new(cfg, &g, &x).unwrap();
        seeded.seed_propagated(Arc::clone(&value));
        // Store-loaded with one of the kernel's two levels.
        let dir = ScratchDir::new("ladder-free");
        let store = ArtifactStore::open(dir.path()).unwrap();
        let mut loaded = SelectionEngine::new(cfg, &g, &x).unwrap();
        store
            .save_propagation(&loaded.address(7, 0), &value, &[&level])
            .unwrap();
        loaded.adopt(None, Some(&store), 7, 0);
        // Adopted from a sibling with levels of the wrong shape.
        let mut misshaped = SelectionEngine::new(cfg, &g, &x).unwrap();
        let wide = Propagated {
            value: Arc::clone(&value),
            ladder: vec![DenseMatrix::zeros(n, d + 1); 2],
        };
        misshaped.adopt(Some(Arc::new(wide)), None, 0, 0);

        for (name, engine) in [
            ("seeded", seeded),
            ("loaded", loaded),
            ("misshaped", misshaped),
        ] {
            assert_eq!(engine.stats().propagation_builds, 0, "{name}");
            assert_eq!(
                engine.artifact_bytes().propagation,
                matrix,
                "{name} kept a ladder"
            );
            let next = patch(&engine, &edited, &dirty);
            let patched = next.propagated_if_cached(cfg.kernel).unwrap();
            assert_eq!(*patched, *want, "{name}: cone patch != cold build");
            assert_eq!(next.artifact_bytes().propagation, matrix, "{name}");
        }
    }
}
