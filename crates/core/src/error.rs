//! Typed errors for the Grain selection API.
//!
//! Every fallible operation in `grain-core` — configuration validation,
//! engine construction, service requests — returns [`GrainError`] instead
//! of a bare `String`, so callers can match on the failure class (and the
//! serving tier can map classes onto response codes) while `Display` still
//! yields the precise human-readable message the old strings carried.

use std::error::Error;
use std::fmt;

/// Result alias used throughout `grain-core`.
pub type GrainResult<T> = Result<T, GrainError>;

/// Where along the scheduling path a request's deadline was discovered to
/// have passed (see [`GrainError::DeadlineExceeded`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineStage {
    /// The deadline had already passed when the request was submitted;
    /// the scheduler rejected it without queueing.
    AtSubmit,
    /// The deadline passed while the request waited in the queue; the
    /// scheduler shed it at dequeue instead of running dead work.
    InQueue,
    /// The deadline passed while the selection was already running; the
    /// engine observed it at a cooperative checkpoint (a greedy round
    /// boundary, an evaluation block, or an artifact-build stage
    /// boundary) and unwound. Requests with
    /// [`OnDeadline::Partial`](crate::cancel::OnDeadline) receive the
    /// greedy prefix instead of this error.
    MidSelection,
}

/// Everything that can go wrong answering a selection request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GrainError {
    /// A [`crate::GrainConfig`] field is outside its legal range.
    InvalidConfig {
        /// The offending field ("theta", "radius", "gamma", ...).
        field: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The feature matrix does not have one row per graph node.
    FeatureShape {
        /// Rows in the offered feature matrix.
        feature_rows: usize,
        /// Nodes in the graph.
        num_nodes: usize,
    },
    /// A request named a graph id never registered with the service.
    UnknownGraph {
        /// The unresolved graph id.
        graph: String,
    },
    /// A graph id was registered twice. Corpora are immutable once
    /// registered (pooled engines may hold them), so re-registration is
    /// rejected even with identical data.
    GraphAlreadyRegistered {
        /// The duplicated graph id.
        graph: String,
    },
    /// A candidate node id is not a node of the requested graph.
    CandidateOutOfRange {
        /// The offending candidate id.
        candidate: u32,
        /// Nodes in the graph.
        num_nodes: usize,
    },
    /// A [`crate::service::Budget`] cannot be resolved against the pool.
    InvalidBudget {
        /// Human-readable description of the violation.
        message: String,
    },
    /// An engine build was abandoned (the building thread panicked) while
    /// other requests were waiting on its build latch. The waiters get
    /// this error instead of hanging; retrying the request starts a fresh
    /// build.
    EngineBuildAbandoned {
        /// The graph id whose engine build died.
        graph: String,
    },
    /// The scheduler's submission queue is at capacity; the request was
    /// rejected at admission instead of growing the queue without bound.
    /// Back off and resubmit, or raise
    /// [`crate::scheduler::SchedulerConfig::queue_capacity`].
    QueueFull {
        /// The configured queue capacity the submission ran into.
        capacity: usize,
    },
    /// A request's deadline passed before its selection completed. The
    /// `stage` says whether the scheduler refused it at submission, shed
    /// it at dequeue, or the engine unwound it mid-selection at a
    /// cooperative checkpoint.
    DeadlineExceeded {
        /// Where the expiry was detected.
        stage: DeadlineStage,
    },
    /// The request's [`CancelToken`](crate::cancel::CancelToken) was
    /// cancelled by its caller (for a coalesced group: by the *last*
    /// live waiter) and the run unwound at a cooperative checkpoint.
    /// Nothing was delivered; retrying starts fresh.
    Cancelled,
    /// The selection for this request panicked. Panic isolation confines
    /// the damage to exactly this request: sibling requests in the same
    /// batch, the worker thread, and the engine pool all keep working.
    SelectionPanicked {
        /// The graph id whose selection panicked.
        graph: String,
    },
    /// A corpus failed ingress validation. At register or replace: a
    /// non-finite feature value or a non-finite or non-positive edge
    /// weight. In a [`GraphDelta`](crate::streaming::GraphDelta), checked
    /// against the current snapshot: also an endpoint out of range, a
    /// self-loop, an insert over a live edge, a delete of a missing edge,
    /// a duplicate edit, or a feature batch of the wrong width. The
    /// service is untouched.
    InvalidCorpus {
        /// Human-readable description of the violation.
        message: String,
    },
    /// An on-disk artifact in the [`ArtifactStore`](crate::store::ArtifactStore)
    /// failed validation: truncated payload, bad magic, checksum mismatch,
    /// unknown codec version, or a content-address/dimension mismatch
    /// against the requesting corpus. The store treats the file as absent
    /// and the caller falls through to a normal cold build — a corrupt
    /// artifact is never adopted, and never crashes a request.
    StoreCorrupt {
        /// Human-readable description of the validation failure.
        message: String,
    },
    /// The scheduler was shut down: either the submission arrived after
    /// [`crate::scheduler::Scheduler::shutdown`], or the scheduler (and
    /// with it the worker that would have answered) was dropped while the
    /// ticket was still unresolved.
    SchedulerShutdown,
}

impl fmt::Display for GrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrainError::InvalidConfig { field, message } => {
                write!(f, "invalid config field `{field}`: {message}")
            }
            GrainError::FeatureShape {
                feature_rows,
                num_nodes,
            } => write!(
                f,
                "feature rows ({feature_rows}) must match node count ({num_nodes})"
            ),
            GrainError::UnknownGraph { graph } => {
                write!(f, "graph {graph:?} is not registered with the service")
            }
            GrainError::GraphAlreadyRegistered { graph } => {
                write!(f, "graph {graph:?} is already registered")
            }
            GrainError::CandidateOutOfRange {
                candidate,
                num_nodes,
            } => write!(
                f,
                "candidate {candidate} out of range for a graph of {num_nodes} nodes"
            ),
            GrainError::InvalidBudget { message } => write!(f, "invalid budget: {message}"),
            GrainError::EngineBuildAbandoned { graph } => write!(
                f,
                "engine build for graph {graph:?} was abandoned mid-flight; retry the request"
            ),
            GrainError::QueueFull { capacity } => write!(
                f,
                "scheduler queue is full ({capacity} pending selections); back off and resubmit"
            ),
            GrainError::DeadlineExceeded { stage } => match stage {
                DeadlineStage::AtSubmit => {
                    write!(f, "deadline had already passed at submission")
                }
                DeadlineStage::InQueue => {
                    write!(f, "deadline passed while the request waited in the queue")
                }
                DeadlineStage::MidSelection => {
                    write!(
                        f,
                        "deadline passed mid-selection; the run was cancelled at a checkpoint"
                    )
                }
            },
            GrainError::Cancelled => {
                write!(f, "request was cancelled by its caller before completing")
            }
            GrainError::SelectionPanicked { graph } => write!(
                f,
                "selection for graph {graph:?} panicked; the failure was isolated to this request"
            ),
            GrainError::InvalidCorpus { message } => {
                write!(f, "invalid corpus: {message}")
            }
            GrainError::StoreCorrupt { message } => {
                write!(f, "artifact store: {message}; falling back to a cold build")
            }
            GrainError::SchedulerShutdown => {
                write!(f, "scheduler is shut down; the request was not served")
            }
        }
    }
}

impl Error for GrainError {}

impl GrainError {
    /// Wraps a validation message from a lower-level crate (e.g.
    /// `ThetaRule::validate`) as an [`GrainError::InvalidConfig`].
    pub fn config(field: &'static str, message: impl Into<String>) -> Self {
        GrainError::InvalidConfig {
            field,
            message: message.into(),
        }
    }

    /// Wraps an ingress-validation message as [`GrainError::InvalidCorpus`].
    pub fn corpus(message: impl Into<String>) -> Self {
        GrainError::InvalidCorpus {
            message: message.into(),
        }
    }

    /// Wraps an artifact-store validation message as
    /// [`GrainError::StoreCorrupt`].
    pub fn store(message: impl Into<String>) -> Self {
        GrainError::StoreCorrupt {
            message: message.into(),
        }
    }

    /// Whether a retry can plausibly succeed without any caller-side
    /// change. Exactly two classes qualify: an abandoned engine build
    /// (the racing builder died; a fresh attempt rebuilds cleanly) and a
    /// full queue (admission-control shedding; the queue drains).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            GrainError::EngineBuildAbandoned { .. } | GrainError::QueueFull { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_detail() {
        let e = GrainError::config("gamma", "must lie in [0,10], got -1");
        assert_eq!(
            e.to_string(),
            "invalid config field `gamma`: must lie in [0,10], got -1"
        );
        let e = GrainError::FeatureShape {
            feature_rows: 3,
            num_nodes: 9,
        };
        assert!(e.to_string().contains("feature rows (3)"));
        let e = GrainError::UnknownGraph {
            graph: "cora".into(),
        };
        assert!(e.to_string().contains("\"cora\""));
    }

    #[test]
    fn errors_are_matchable_and_comparable() {
        let a = GrainError::InvalidBudget {
            message: "empty sweep".into(),
        };
        assert_eq!(
            a,
            GrainError::InvalidBudget {
                message: "empty sweep".into()
            }
        );
        assert!(matches!(a, GrainError::InvalidBudget { .. }));
        // It is a std error (boxable, `?`-compatible with Box<dyn Error>).
        let boxed: Box<dyn std::error::Error> = Box::new(a);
        assert!(boxed.source().is_none());
    }

    #[test]
    fn scheduler_errors_distinguish_their_stage() {
        assert_ne!(
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::AtSubmit
            },
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::InQueue
            }
        );
        assert!(GrainError::QueueFull { capacity: 8 }
            .to_string()
            .contains("8 pending"));
        assert!(GrainError::DeadlineExceeded {
            stage: DeadlineStage::InQueue
        }
        .to_string()
        .contains("queue"));
        assert!(GrainError::SchedulerShutdown.to_string().contains("shut"));
    }

    #[test]
    fn retryable_whitelist_is_exactly_build_abandoned_and_queue_full() {
        assert!(GrainError::EngineBuildAbandoned {
            graph: "papers".into()
        }
        .is_retryable());
        assert!(GrainError::QueueFull { capacity: 2 }.is_retryable());
        for err in [
            GrainError::Cancelled,
            GrainError::SchedulerShutdown,
            GrainError::DeadlineExceeded {
                stage: DeadlineStage::MidSelection,
            },
            GrainError::SelectionPanicked {
                graph: "papers".into(),
            },
            GrainError::config("theta", "bad"),
            GrainError::corpus("edge (3, 3) is a self-loop"),
            GrainError::store("bad magic"),
        ] {
            assert!(!err.is_retryable(), "{err}");
        }
    }

    #[test]
    fn store_corrupt_renders_fallback_hint() {
        let e = GrainError::store("checksum mismatch in rows.grain");
        assert_eq!(
            e.to_string(),
            "artifact store: checksum mismatch in rows.grain; falling back to a cold build"
        );
        assert!(matches!(e, GrainError::StoreCorrupt { .. }));
    }

    #[test]
    fn invalid_delta_renders_its_message() {
        let e = GrainError::corpus("edge (1, 2) already present");
        assert_eq!(e.to_string(), "invalid corpus: edge (1, 2) already present");
    }

    #[test]
    fn resilience_errors_render_their_context() {
        assert!(GrainError::Cancelled.to_string().contains("cancelled"));
        let e = GrainError::SelectionPanicked {
            graph: "cora".into(),
        };
        assert!(e.to_string().contains("\"cora\""));
        assert!(e.to_string().contains("isolated"));
        assert!(GrainError::DeadlineExceeded {
            stage: DeadlineStage::MidSelection
        }
        .to_string()
        .contains("mid-selection"));
    }
}
