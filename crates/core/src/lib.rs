//! Grain's primary contribution: node selection for GNNs by
//! **Diversified Influence Maximization** (VLDB 2021, §3).
//!
//! The selection criterion (Eq. 11) combines the *magnitude* of feature
//! influence with the *diversity* of the influenced crowd:
//!
//! ```text
//! max_S F(S) = |σ(S)| / σ̂  +  γ · D(S) / D̂ ,   |S| = B
//! ```
//!
//! where `σ(S)` is the activated node set under the feature-influence model
//! (`grain-influence`) and `D` is one of two monotone submodular diversity
//! functions over the k-step aggregated feature space:
//!
//! * [`diversity::BallDiversity`] — coverage of `r`-radius balls centered on
//!   activated nodes (Definition 3.6, "Grain (ball-D)"),
//! * [`diversity::NnDiversity`] — total nearest-activated-neighbor distance
//!   reduction (Definition 3.4, "Grain (NN-D)").
//!
//! Both make `F` monotone + submodular, so [`greedy`] (Algorithm 1) and the
//! lazily evaluated CELF variant carry the `1 - 1/e` approximation
//! guarantee. [`prune`] implements the §3.4 efficiency optimizations that
//! dismiss uninfluential candidates up front. [`engine::SelectionEngine`]
//! stages the pipeline (propagate → influence → index → greedy) with
//! per-artifact caching so repeated selections over one corpus pay the
//! heavy precompute once.
//!
//! The public front door is [`service::GrainService`]: register graphs
//! once, then answer typed [`service::SelectionRequest`]s (fixed,
//! fractional, or sweep [`service::Budget`]s) from a **sharded, `&self`**
//! [`service::EnginePool`] of warm engines — the service is
//! `Send + Sync`, cold builds are deduplicated by per-key latches,
//! batches fan out across shards via [`service::GrainService::submit_batch`],
//! and every failure is a [`error::GrainError`].
//!
//! On top of the service sits the asynchronous front-end,
//! [`scheduler::Scheduler`]: a bounded submission queue with admission
//! control ([`error::GrainError::QueueFull`], deadline rejection and
//! shedding), per-key **coalescing** of identical in-flight selections
//! (one execution fans out to every waiter), and priority/EDF dispatch
//! that groups ready work by engine key before handing it to the
//! service's batched warm path. Submissions return
//! [`scheduler::Ticket`]s; every scheduled path stays bit-identical to
//! serial [`service::GrainService::select`] calls.
//! [`selector::GrainSelector`] remains as a thin validated-config facade
//! whose `engine` constructor opens the staged pipeline directly (its
//! deprecated positional one-shots are gone).
//!
//! Corpora are live, not frozen: [`streaming`] adds
//! [`streaming::GraphDelta`] batches (edge inserts/deletes, feature
//! overwrites) and [`service::GrainService::apply_update`], which
//! advances a corpus one **epoch** by patching resident engines' cached
//! artifacts — dirty-set expansion to the k-hop frontier, rank-local
//! re-propagation, influence-row splicing, activation-index repair —
//! instead of rebuilding them, while pool keys versioned by epoch let
//! in-flight requests finish on their old snapshot. Patched artifacts
//! are byte-identical to a cold build of the mutated graph.
//!
//! Artifacts also outlive the process: [`store::ArtifactStore`] persists
//! `X^(k)` (with its power ladder), the influence-row CSR, and the
//! activation index under content addresses
//! `(graph_fingerprint, epoch, artifact_fingerprint, codec_version)`.
//! A service opened with
//! [`service::GrainService::with_artifact_store`] loads them back on a
//! pool miss — validated, epoch-exact, and bit-identical to the cold
//! build it replaces — so restarts warm-start from disk instead of
//! re-propagating every corpus.

pub mod cancel;
pub mod config;
pub mod diversity;
pub mod edge;
pub mod engine;
pub mod error;
pub mod fault;
pub mod greedy;
pub mod objective;
pub mod prune;
pub mod scheduler;
pub mod selector;
pub mod service;
pub mod store;
pub mod streaming;

pub use cancel::{CancelCause, CancelToken, OnDeadline};
pub use config::{DiversityKind, GrainConfig, GrainVariant, GreedyAlgorithm, PruneStrategy};
pub use edge::{EdgeClient, EdgeConfig, EdgeServer, EdgeStats, TenantSpec, TokenBucket};
pub use engine::{ArtifactBytes, EngineStats, PatchTimings, SelectionEngine, TraceStats};
pub use error::{DeadlineStage, GrainError, GrainResult};
pub use objective::DimObjective;
pub use scheduler::{
    CancelHandle, FairShare, ScheduledRequest, Scheduler, SchedulerConfig, SchedulerStats,
    TenantStats, Ticket,
};
pub use selector::{Completion, GrainSelector, SelectionOutcome};
pub use service::{
    Budget, EngineCheckout, EnginePool, GrainService, PoolEvent, PoolStats, SelectionReport,
    SelectionRequest,
};
pub use store::{ArtifactStore, ContentAddress, ScratchDir, StoreStats};
pub use streaming::{DirtySets, EpochReport, GraphDelta, PatchSummary};
