//! # Grain — data-efficient GNN training via diversified influence maximization
//!
//! A from-scratch Rust reproduction of *"Grain: Improving Data Efficiency
//! of Graph Neural Networks via Diversified Influence Maximization"*
//! (Zhang et al., PVLDB 14(11), 2021).
//!
//! Grain answers the question *"which B nodes of a graph should be labeled
//! so that a GNN trained on them performs best?"* by connecting data
//! selection with social influence maximization: GNN feature propagation
//! is influence propagation, and the best training set is the seed set
//! that activates the largest, most diverse crowd.
//!
//! ## Quick start
//!
//! The front door is [`GrainService`](core::service::GrainService):
//! register each graph once, then answer typed
//! [`SelectionRequest`](core::service::SelectionRequest)s from a sharded
//! pool of warm engines. The service is `&self` and `Send + Sync` — put
//! it behind an `Arc` and call it from any number of threads, or hand a
//! whole workload to
//! [`submit_batch`](core::service::GrainService::submit_batch). Repeated
//! and related requests (budget sweeps, ablations, γ scans) share cached
//! pipeline artifacts and come back bit-identical to cold runs at any
//! thread count. For open-loop traffic, wrap the service in a
//! [`Scheduler`](core::scheduler::Scheduler): a bounded queue with
//! admission control, coalescing of identical in-flight selections, and
//! deadline/priority dispatch (see `docs/ARCHITECTURE.md` for the layer
//! map). Execution is resilient end to end: every request is
//! cooperatively cancellable ([`Ticket::cancel`](core::scheduler::Ticket::cancel),
//! deadline-armed [`CancelToken`](core::cancel::CancelToken)s), can opt
//! into anytime partial results
//! ([`OnDeadline::Partial`](core::cancel::OnDeadline)), and runs
//! panic-isolated so one poisoned request never takes down a batch or a
//! worker.
//!
//! ```
//! use grain::prelude::*;
//!
//! // A synthetic citation-style corpus (Cora-like, scaled-down here).
//! let dataset = grain::data::synthetic::papers_like(500, 42);
//!
//! // Register the corpus once; engines share it from then on.
//! let service = GrainService::new();
//! service.register_graph(
//!     "papers",
//!     dataset.graph.clone(),
//!     dataset.features.clone(),
//! )?;
//!
//! // Select 20 nodes to label with Grain (ball-D), Appendix A.4 defaults.
//! let request = SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(20))
//!     .with_candidates(dataset.split.train.clone());
//! let report = service.select(&request)?;
//! let outcome = report.outcome();
//! assert_eq!(outcome.selected.len(), 20);
//!
//! // The same request again is a pool hit: zero artifacts rebuilt, the
//! // identical selection.
//! let warm = service.select(&request)?;
//! assert!(warm.fully_warm());
//! assert_eq!(warm.outcome().selected, outcome.selected);
//!
//! // Train a GCN on the selection and measure test accuracy.
//! let mut model = ModelKind::Gcn { hidden: 32 }.build(&dataset, 0);
//! model.train(
//!     &dataset.labels,
//!     &outcome.selected,
//!     &dataset.split.val,
//!     &TrainConfig::fast(),
//! );
//! let acc = grain::gnn::metrics::accuracy(
//!     &model.predict(),
//!     &dataset.labels,
//!     &dataset.split.test,
//! );
//! assert!(acc > 0.0);
//! # Ok::<(), GrainError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | DIM objective, diversity, greedy + CELF, engine, service (§3) |
//! | [`influence`] | feature-influence rows, activation index (§3.1–3.2) |
//! | [`prop`] | the six Table 1 propagation kernels + laddered delta repair |
//! | [`graph`] | CSR graphs, generators, transition matrices |
//! | [`gnn`] | GCN / SGC / APPNP / MVGRL-sim with manual backprop |
//! | [`select`] | AGE, ANRMAB, KCG, Random, Degree, core-set baselines |
//! | [`data`] | synthetic stand-ins for the five evaluation corpora |
//! | [`linalg`] | dense kernels, k-means, PCA, distances |

pub use grain_core as core;
pub use grain_data as data;
pub use grain_gnn as gnn;
pub use grain_graph as graph;
pub use grain_influence as influence;
pub use grain_linalg as linalg;
pub use grain_prop as prop;
pub use grain_select as select;

/// The items most programs need.
pub mod prelude {
    pub use grain_core::{
        ArtifactStore, Budget, CancelCause, CancelToken, Completion, ContentAddress, DeadlineStage,
        DiversityKind, EdgeClient, EdgeConfig, EdgeServer, EdgeStats, EngineCheckout, EngineStats,
        EpochReport, GrainConfig, GrainError, GrainResult, GrainService, GrainVariant, GraphDelta,
        GreedyAlgorithm, OnDeadline, PoolEvent, PoolStats, PruneStrategy, ScheduledRequest,
        Scheduler, SchedulerConfig, SchedulerStats, ScratchDir, SelectionEngine, SelectionOutcome,
        SelectionReport, SelectionRequest, StoreStats, TenantSpec, Ticket, TokenBucket,
    };
    pub use grain_data::{Dataset, Split};
    pub use grain_gnn::{Model, TrainConfig, TrainReport};
    pub use grain_graph::{Graph, TransitionKind};
    pub use grain_influence::{ActivationIndex, InfluenceRows, ThetaRule};
    pub use grain_linalg::DenseMatrix;
    pub use grain_prop::Kernel;
    pub use grain_select::{ModelKind, NodeSelector, SelectionContext};
}
