//! The edge wire protocol: length-prefixed frames in the shared
//! flat-binary [`codec`].
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload itself:
//!
//! | offset | field | encoding |
//! |---|---|---|
//! | 0 | payload length | `u32` LE (≤ the connection's max frame length) |
//! | 4 | magic | `u32` LE, `b"GRNE"` |
//! | 8 | version | `u8`, currently 2 |
//! | 9 | kind | `u8` (1 Hello, 2 HelloAck, 3 Request, 4 Response, 5 Error) |
//! | 10 | body | kind-specific flat binary |
//! | len−4 | checksum | `u64` [`codec::checksum`] over the payload bytes before it |
//!
//! The body follows the codec's rules, the same as the artifact store's
//! files: all integers little-endian, strings as `u32` length + UTF-8
//! bytes, lists as `u32` element count + elements, `f32`/`f64` by IEEE
//! bit pattern (so round-trips are bit-exact — the property the wire
//! bit-identity contract rests on), enums as `u8`/`u16` tags. **Any**
//! structural violation — short payload, bad magic, unknown version or
//! tag, checksum mismatch, lying length prefix, trailing bytes — decodes
//! to [`FrameError::Protocol`], never a panic; payload truncation by the
//! peer surfaces as [`FrameError::Io`] and a clean close at a frame
//! boundary as [`FrameError::Closed`].

use crate::cancel::{CancelCause, OnDeadline};
use crate::codec::{self, Dec, DecResult, Enc};
use crate::config::{DiversityKind, GrainConfig, GrainVariant, GreedyAlgorithm, PruneStrategy};
use crate::error::{DeadlineStage, GrainError};
use crate::pool::PoolEvent;
use crate::selector::{Completion, SelectionOutcome};
use crate::service::{Budget, SelectionReport, SelectionRequest};
use grain_influence::index::ThetaRule;
use grain_prop::Kernel;
use std::io::{Read, Write};

/// Frame magic, `b"GRNE"` read as a little-endian `u32`.
pub const EDGE_MAGIC: u32 = u32::from_le_bytes(*b"GRNE");

/// Wire codec version; bumped on any layout change.
pub const EDGE_VERSION: u8 = 2;

/// Default per-connection frame-size cap (16 MiB) — large candidate
/// lists fit, but a hostile length prefix cannot reserve unbounded
/// memory.
pub const DEFAULT_MAX_FRAME_LEN: usize = 16 << 20;

/// Smallest structurally possible payload: magic + version + kind +
/// checksum with an empty body.
pub const MIN_PAYLOAD_LEN: usize = 4 + 1 + 1 + 8;

/// Smallest encoding of one [`WireOutcome`]: three empty lists, the
/// diversity value, two counts and the completion tag.
const MIN_OUTCOME_LEN: usize = 4 + 4 + 4 + 8 + 8 + 8 + 1;

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// Edge-level error code: admission refused by the tenant's token bucket.
pub const CODE_RATE_LIMITED: u16 = 64;
/// Edge-level error code: the peer sent structurally invalid bytes.
pub const CODE_PROTOCOL: u16 = 65;
/// Edge-level error code: hello secret mismatch.
pub const CODE_UNAUTHENTICATED: u16 = 66;
/// Edge-level error code: the connection cap is reached.
pub const CODE_AT_CAPACITY: u16 = 67;
/// Edge-level error code: hello named a tenant the server does not serve.
pub const CODE_UNKNOWN_TENANT: u16 = 68;

/// The wire code of a [`GrainError`]: 1-based declaration order (with
/// the three deadline stages split out), stable per [`EDGE_VERSION`].
/// Codes ≥ 64 are edge-level (see the `CODE_*` constants) and never
/// produced by this function.
#[must_use]
pub fn grain_error_code(error: &GrainError) -> u16 {
    match error {
        GrainError::InvalidConfig { .. } => 1,
        GrainError::FeatureShape { .. } => 2,
        GrainError::UnknownGraph { .. } => 3,
        GrainError::GraphAlreadyRegistered { .. } => 4,
        GrainError::CandidateOutOfRange { .. } => 5,
        GrainError::InvalidBudget { .. } => 6,
        GrainError::EngineBuildAbandoned { .. } => 7,
        GrainError::QueueFull { .. } => 8,
        GrainError::DeadlineExceeded {
            stage: DeadlineStage::AtSubmit,
        } => 9,
        GrainError::DeadlineExceeded {
            stage: DeadlineStage::InQueue,
        } => 10,
        GrainError::DeadlineExceeded {
            stage: DeadlineStage::MidSelection,
        } => 11,
        GrainError::Cancelled => 12,
        GrainError::SelectionPanicked { .. } => 13,
        GrainError::InvalidCorpus { .. } => 14,
        GrainError::StoreCorrupt { .. } => 15,
        GrainError::SchedulerShutdown => 16,
    }
}

// ---------------------------------------------------------------------------
// Frame types
// ---------------------------------------------------------------------------

/// First frame of every connection: the client names its tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Tenant id to authenticate as.
    pub tenant: String,
    /// Shared secret; empty when the tenant is configured without one.
    pub secret: String,
}

/// Server acknowledgement of a successful [`Hello`], echoing the
/// tenant's admission parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HelloAck {
    /// The tenant's weighted-fair dispatch weight.
    pub weight: u32,
    /// The tenant's token-bucket refill rate, requests per second.
    pub rate_per_sec: f64,
    /// The tenant's token-bucket burst capacity.
    pub burst: f64,
}

/// A [`SelectionRequest`] plus its scheduling envelope, as framed on the
/// wire. `request_id` is client-chosen and echoed on the response so
/// pipelined requests can be matched up.
#[derive(Clone, Debug)]
pub struct WireRequest {
    /// Client-chosen correlation id, echoed on the response.
    pub request_id: u64,
    /// Dispatch priority; higher runs first.
    pub priority: u8,
    /// Relative deadline in milliseconds from server receipt; `0` means
    /// no deadline. (Relative, not absolute: the two ends do not share a
    /// clock.)
    pub deadline_ms: u32,
    /// Mid-selection degradation policy when the deadline trips.
    pub on_deadline: OnDeadline,
    /// The selection to run.
    pub request: SelectionRequest,
}

/// The deterministic core of a [`SelectionReport`], as framed on the
/// wire.
///
/// Pool bookkeeping (`pool_stats`, `artifact_builds`, timings) is
/// deliberately *not* carried: those fields describe the serving
/// process, not the selection, and differ between a warm and a cold
/// server answering the same request. Everything that is a pure function
/// of `(corpus, request)` — selections, traces, activated sets,
/// diversity values, evaluation counts — crosses the wire bit-exactly,
/// which is what the wire ⇔ in-process bit-identity tests assert.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReport {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// What happened in the server's engine pool (informational; not
    /// part of the bit-identity contract).
    pub pool_event: PoolEvent,
    /// Resolved budgets, one per outcome.
    pub budgets: Vec<usize>,
    /// One outcome per resolved budget.
    pub outcomes: Vec<WireOutcome>,
}

/// The deterministic fields of one [`SelectionOutcome`] (timings, which
/// are wall-clock and never bit-stable, stay server-side).
#[derive(Clone, Debug, PartialEq)]
pub struct WireOutcome {
    /// Selected nodes in pick order.
    pub selected: Vec<u32>,
    /// `F(S)` after each pick.
    pub objective_trace: Vec<f64>,
    /// Final activated set `σ(S)`, sorted.
    pub sigma: Vec<u32>,
    /// Final unnormalized diversity value `D(S)`.
    pub diversity_value: f64,
    /// Marginal-gain evaluations spent.
    pub evaluations: usize,
    /// Candidate count after §3.4 pruning.
    pub candidates_after_prune: usize,
    /// Whether the run completed or degraded to an anytime prefix.
    pub completion: Completion,
}

impl WireOutcome {
    /// Projects a [`SelectionOutcome`] onto its wire-carried fields.
    #[must_use]
    pub fn from_outcome(outcome: &SelectionOutcome) -> Self {
        Self {
            selected: outcome.selected.clone(),
            objective_trace: outcome.objective_trace.clone(),
            sigma: outcome.sigma.clone(),
            diversity_value: outcome.diversity_value,
            evaluations: outcome.evaluations,
            candidates_after_prune: outcome.candidates_after_prune,
            completion: outcome.completion,
        }
    }
}

impl WireReport {
    /// Projects a served [`SelectionReport`] onto its wire-carried
    /// fields under the given correlation id.
    #[must_use]
    pub fn from_report(request_id: u64, report: &SelectionReport) -> Self {
        Self {
            request_id,
            pool_event: report.pool_event,
            budgets: report.budgets.clone(),
            outcomes: report
                .outcomes
                .iter()
                .map(WireOutcome::from_outcome)
                .collect(),
        }
    }
}

/// A typed failure frame: either a [`GrainError`] that the scheduler /
/// service returned (codes 1–16) or an edge-level refusal (codes ≥ 64).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Echo of the failing request's correlation id; `0` for
    /// connection-level errors (bad hello, protocol violations).
    pub request_id: u64,
    /// Error code; see [`grain_error_code`] and the `CODE_*` constants.
    pub code: u16,
    /// Human-readable rendering of the error.
    pub message: String,
}

/// Every frame the protocol can carry.
#[derive(Clone, Debug)]
pub enum Frame {
    /// Client → server: authenticate a tenant.
    Hello(Hello),
    /// Server → client: hello accepted.
    HelloAck(HelloAck),
    /// Client → server: run a selection.
    Request(Box<WireRequest>),
    /// Server → client: the selection's deterministic result.
    Response(WireReport),
    /// Server → client: a typed failure.
    Error(WireError),
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => 1,
            Frame::HelloAck(_) => 2,
            Frame::Request(_) => 3,
            Frame::Response(_) => 4,
            Frame::Error(_) => 5,
        }
    }
}

/// How reading a frame can fail.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// I/O failure, including EOF in the middle of a frame.
    Io(std::io::Error),
    /// Structurally invalid bytes; the message names the first violation.
    Protocol(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Protocol(message) => write!(f, "protocol error: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------------
// Body encodings
// ---------------------------------------------------------------------------

fn enc_kernel(e: &mut Enc, kernel: Kernel) {
    match kernel {
        Kernel::SymNorm { k } => {
            e.u8(0);
            e.usize(k);
        }
        Kernel::RandomWalk { k } => {
            e.u8(1);
            e.usize(k);
        }
        Kernel::Ppr { k, alpha } => {
            e.u8(2);
            e.usize(k);
            e.f32(alpha);
        }
        Kernel::TriangleIa { k } => {
            e.u8(3);
            e.usize(k);
        }
        Kernel::S2gc { k, alpha } => {
            e.u8(4);
            e.usize(k);
            e.f32(alpha);
        }
        Kernel::Gbp { k, beta } => {
            e.u8(5);
            e.usize(k);
            e.f32(beta);
        }
    }
}

fn dec_kernel(d: &mut Dec<'_>) -> DecResult<Kernel> {
    Ok(match d.u8()? {
        0 => Kernel::SymNorm { k: d.usize()? },
        1 => Kernel::RandomWalk { k: d.usize()? },
        2 => Kernel::Ppr {
            k: d.usize()?,
            alpha: d.f32()?,
        },
        3 => Kernel::TriangleIa { k: d.usize()? },
        4 => Kernel::S2gc {
            k: d.usize()?,
            alpha: d.f32()?,
        },
        5 => Kernel::Gbp {
            k: d.usize()?,
            beta: d.f32()?,
        },
        tag => return Err(format!("unknown kernel tag {tag}")),
    })
}

fn enc_theta(e: &mut Enc, theta: ThetaRule) {
    match theta {
        ThetaRule::FixedAbsolute(t) => {
            e.u8(0);
            e.f32(t);
        }
        ThetaRule::RelativeToRowMax(t) => {
            e.u8(1);
            e.f32(t);
        }
        ThetaRule::GlobalQuantile(q) => {
            e.u8(2);
            e.f64(q);
        }
    }
}

fn dec_theta(d: &mut Dec<'_>) -> DecResult<ThetaRule> {
    Ok(match d.u8()? {
        0 => ThetaRule::FixedAbsolute(d.f32()?),
        1 => ThetaRule::RelativeToRowMax(d.f32()?),
        2 => ThetaRule::GlobalQuantile(d.f64()?),
        tag => return Err(format!("unknown theta tag {tag}")),
    })
}

fn variant_tag(variant: GrainVariant) -> u8 {
    match variant {
        GrainVariant::Full => 0,
        GrainVariant::NoDiversity => 1,
        GrainVariant::NoMagnitude => 2,
        GrainVariant::ClassicCoverage => 3,
    }
}

fn dec_variant(d: &mut Dec<'_>) -> DecResult<GrainVariant> {
    Ok(match d.u8()? {
        0 => GrainVariant::Full,
        1 => GrainVariant::NoDiversity,
        2 => GrainVariant::NoMagnitude,
        3 => GrainVariant::ClassicCoverage,
        tag => return Err(format!("unknown variant tag {tag}")),
    })
}

fn enc_config(e: &mut Enc, config: &GrainConfig) {
    enc_kernel(e, config.kernel);
    enc_theta(e, config.theta);
    e.f32(config.radius);
    e.f64(config.gamma);
    e.f32(config.influence_eps);
    e.usize(config.influence_row_top_k);
    e.u8(match config.diversity {
        DiversityKind::Ball => 0,
        DiversityKind::Nn => 1,
    });
    e.u8(match config.algorithm {
        GreedyAlgorithm::Plain => 0,
        GreedyAlgorithm::Lazy => 1,
    });
    match config.prune {
        None => e.u8(0),
        Some(PruneStrategy::Degree { keep_fraction }) => {
            e.u8(1);
            e.f64(keep_fraction);
        }
        Some(PruneStrategy::WalkMass { keep_fraction }) => {
            e.u8(2);
            e.f64(keep_fraction);
        }
    }
    e.u8(variant_tag(config.variant));
    e.usize(config.parallelism);
    e.usize(config.cancel_check_every);
}

fn dec_config(d: &mut Dec<'_>) -> DecResult<GrainConfig> {
    let kernel = dec_kernel(d)?;
    let theta = dec_theta(d)?;
    let radius = d.f32()?;
    let gamma = d.f64()?;
    let influence_eps = d.f32()?;
    let influence_row_top_k = d.usize()?;
    let diversity = match d.u8()? {
        0 => DiversityKind::Ball,
        1 => DiversityKind::Nn,
        tag => return Err(format!("unknown diversity tag {tag}")),
    };
    let algorithm = match d.u8()? {
        0 => GreedyAlgorithm::Plain,
        1 => GreedyAlgorithm::Lazy,
        tag => return Err(format!("unknown algorithm tag {tag}")),
    };
    let prune = match d.u8()? {
        0 => None,
        1 => Some(PruneStrategy::Degree {
            keep_fraction: d.f64()?,
        }),
        2 => Some(PruneStrategy::WalkMass {
            keep_fraction: d.f64()?,
        }),
        tag => return Err(format!("unknown prune tag {tag}")),
    };
    let variant = dec_variant(d)?;
    let parallelism = d.usize()?;
    let cancel_check_every = d.usize()?;
    Ok(GrainConfig {
        kernel,
        theta,
        radius,
        gamma,
        influence_eps,
        influence_row_top_k,
        diversity,
        algorithm,
        prune,
        variant,
        parallelism,
        cancel_check_every,
    })
}

fn enc_request(e: &mut Enc, wire: &WireRequest) {
    e.u64(wire.request_id);
    e.u8(wire.priority);
    e.u32(wire.deadline_ms);
    e.u8(match wire.on_deadline {
        OnDeadline::Fail => 0,
        OnDeadline::Partial => 1,
    });
    let request = &wire.request;
    e.str(&request.graph);
    enc_config(e, &request.config);
    match &request.budget {
        Budget::Fixed(b) => {
            e.u8(0);
            e.usize(*b);
        }
        Budget::Fraction(f) => {
            e.u8(1);
            e.f64(*f);
        }
        Budget::Sweep(budgets) => {
            e.u8(2);
            e.usize_list(budgets);
        }
    }
    match &request.candidates {
        None => e.u8(0),
        Some(candidates) => {
            e.u8(1);
            e.list(candidates);
        }
    }
    match request.variant {
        None => e.u8(0),
        Some(variant) => {
            e.u8(1);
            e.u8(variant_tag(variant));
        }
    }
    e.u64(request.seed);
}

fn dec_request(d: &mut Dec<'_>) -> DecResult<WireRequest> {
    let request_id = d.u64()?;
    let priority = d.u8()?;
    let deadline_ms = d.u32()?;
    let on_deadline = match d.u8()? {
        0 => OnDeadline::Fail,
        1 => OnDeadline::Partial,
        tag => return Err(format!("unknown on_deadline tag {tag}")),
    };
    let graph = d.str()?;
    let config = dec_config(d)?;
    let budget = match d.u8()? {
        0 => Budget::Fixed(d.usize()?),
        1 => Budget::Fraction(d.f64()?),
        2 => Budget::Sweep(d.usize_list()?),
        tag => return Err(format!("unknown budget tag {tag}")),
    };
    let candidates = match d.u8()? {
        0 => None,
        1 => Some(d.list()?),
        tag => return Err(format!("unknown candidates flag {tag}")),
    };
    let variant = match d.u8()? {
        0 => None,
        1 => Some(dec_variant(d)?),
        tag => return Err(format!("unknown variant flag {tag}")),
    };
    let seed = d.u64()?;
    Ok(WireRequest {
        request_id,
        priority,
        deadline_ms,
        on_deadline,
        request: SelectionRequest {
            graph,
            config,
            budget,
            candidates,
            variant,
            seed,
        },
    })
}

fn completion_tag(completion: Completion) -> u8 {
    match completion {
        Completion::Complete => 0,
        Completion::Partial {
            cause: CancelCause::Caller,
        } => 1,
        Completion::Partial {
            cause: CancelCause::Deadline,
        } => 2,
    }
}

fn dec_completion(d: &mut Dec<'_>) -> DecResult<Completion> {
    Ok(match d.u8()? {
        0 => Completion::Complete,
        1 => Completion::Partial {
            cause: CancelCause::Caller,
        },
        2 => Completion::Partial {
            cause: CancelCause::Deadline,
        },
        tag => return Err(format!("unknown completion tag {tag}")),
    })
}

fn enc_response(e: &mut Enc, report: &WireReport) {
    e.u64(report.request_id);
    e.u8(match report.pool_event {
        PoolEvent::Hit => 0,
        PoolEvent::ColdMiss => 1,
        PoolEvent::RebuildAfterEviction => 2,
        PoolEvent::JoinedBuild => 3,
        PoolEvent::CoalescedSelection => 4,
    });
    e.usize_list(&report.budgets);
    e.count(report.outcomes.len());
    for outcome in &report.outcomes {
        e.list(&outcome.selected);
        e.list(&outcome.objective_trace);
        e.list(&outcome.sigma);
        e.f64(outcome.diversity_value);
        e.usize(outcome.evaluations);
        e.usize(outcome.candidates_after_prune);
        e.u8(completion_tag(outcome.completion));
    }
}

fn dec_response(d: &mut Dec<'_>) -> DecResult<WireReport> {
    let request_id = d.u64()?;
    let pool_event = match d.u8()? {
        0 => PoolEvent::Hit,
        1 => PoolEvent::ColdMiss,
        2 => PoolEvent::RebuildAfterEviction,
        3 => PoolEvent::JoinedBuild,
        4 => PoolEvent::CoalescedSelection,
        tag => return Err(format!("unknown pool-event tag {tag}")),
    };
    let budgets = d.usize_list()?;
    let n = d.count(MIN_OUTCOME_LEN)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        outcomes.push(WireOutcome {
            selected: d.list()?,
            objective_trace: d.list()?,
            sigma: d.list()?,
            diversity_value: d.f64()?,
            evaluations: d.usize()?,
            candidates_after_prune: d.usize()?,
            completion: dec_completion(d)?,
        });
    }
    Ok(WireReport {
        request_id,
        pool_event,
        budgets,
        outcomes,
    })
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Encodes a frame to its full on-wire bytes (length prefix included).
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::default();
    e.u32(EDGE_MAGIC);
    e.u8(EDGE_VERSION);
    e.u8(frame.kind());
    match frame {
        Frame::Hello(hello) => {
            e.str(&hello.tenant);
            e.str(&hello.secret);
        }
        Frame::HelloAck(ack) => {
            e.u32(ack.weight);
            e.f64(ack.rate_per_sec);
            e.f64(ack.burst);
        }
        Frame::Request(wire) => enc_request(&mut e, wire),
        Frame::Response(report) => enc_response(&mut e, report),
        Frame::Error(error) => {
            e.u64(error.request_id);
            e.u16(error.code);
            e.str(&error.message);
        }
    }
    let payload = e.seal();
    let mut framed = Vec::with_capacity(4 + payload.len());
    framed.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("frame beyond u32")
            .to_le_bytes(),
    );
    framed.extend_from_slice(&payload);
    framed
}

/// Writes one frame to `w` (single `write_all`, no interleaving hazard
/// when callers serialize writes through one owner).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        format!("peer closed mid-frame ({filled}/{} bytes)", buf.len()),
                    ))
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Decodes one frame payload (the bytes after the length prefix).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    dec_payload(payload).map_err(FrameError::Protocol)
}

fn dec_payload(payload: &[u8]) -> DecResult<Frame> {
    let mut d = Dec::new(codec::unseal(payload)?);
    let magic = d.u32()?;
    if magic != EDGE_MAGIC {
        return Err(format!("bad magic {magic:#010x}"));
    }
    let version = d.u8()?;
    if version != EDGE_VERSION {
        return Err(format!(
            "unsupported version {version} (this end speaks {EDGE_VERSION})"
        ));
    }
    let frame = match d.u8()? {
        1 => Frame::Hello(Hello {
            tenant: d.str()?,
            secret: d.str()?,
        }),
        2 => Frame::HelloAck(HelloAck {
            weight: d.u32()?,
            rate_per_sec: d.f64()?,
            burst: d.f64()?,
        }),
        3 => Frame::Request(Box::new(dec_request(&mut d)?)),
        4 => Frame::Response(dec_response(&mut d)?),
        5 => Frame::Error(WireError {
            request_id: d.u64()?,
            code: d.u16()?,
            message: d.str()?,
        }),
        tag => return Err(format!("unknown frame kind {tag}")),
    };
    d.finish()?;
    Ok(frame)
}

/// Reads one frame from `r`, enforcing `max_frame_len` on the length
/// prefix *before* allocating.
pub fn read_frame(r: &mut impl Read, max_frame_len: usize) -> Result<Frame, FrameError> {
    let mut len_bytes = [0u8; 4];
    read_exact_or(r, &mut len_bytes, true)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len < MIN_PAYLOAD_LEN {
        return Err(FrameError::Protocol(format!(
            "frame length {len} is below the {MIN_PAYLOAD_LEN}-byte minimum"
        )));
    }
    if len > max_frame_len {
        return Err(FrameError::Protocol(format!(
            "frame length {len} exceeds the {max_frame_len}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, false)?;
    decode_payload(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> WireRequest {
        WireRequest {
            request_id: 7,
            priority: 3,
            deadline_ms: 250,
            on_deadline: OnDeadline::Partial,
            request: SelectionRequest::new(
                "papers",
                GrainConfig {
                    kernel: Kernel::Ppr { k: 3, alpha: 0.15 },
                    prune: Some(PruneStrategy::WalkMass { keep_fraction: 0.5 }),
                    ..GrainConfig::nn_d()
                },
                Budget::Sweep(vec![5, 10, 20]),
            )
            .with_candidates(vec![1, 2, 3, 5, 8])
            .with_variant(GrainVariant::NoDiversity)
            .with_seed(42),
        }
    }

    fn roundtrip(frame: &Frame) -> Frame {
        let bytes = encode_frame(frame);
        let mut cursor = &bytes[..];
        read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN).expect("roundtrip")
    }

    #[test]
    fn request_roundtrips_bit_exactly() {
        let wire = sample_request();
        let Frame::Request(back) = roundtrip(&Frame::Request(Box::new(wire.clone()))) else {
            panic!("wrong kind back");
        };
        assert_eq!(back.request_id, wire.request_id);
        assert_eq!(back.priority, wire.priority);
        assert_eq!(back.deadline_ms, wire.deadline_ms);
        assert_eq!(back.on_deadline, wire.on_deadline);
        assert_eq!(back.request.graph, wire.request.graph);
        assert_eq!(back.request.config, wire.request.config);
        assert_eq!(back.request.candidates, wire.request.candidates);
        assert_eq!(back.request.variant, wire.request.variant);
        assert_eq!(back.request.seed, wire.request.seed);
        // Budget has no PartialEq; compare through the debug rendering.
        assert_eq!(
            format!("{:?}", back.request.budget),
            format!("{:?}", wire.request.budget)
        );
    }

    #[test]
    fn response_roundtrips_bit_exactly() {
        let report = WireReport {
            request_id: 9,
            pool_event: PoolEvent::CoalescedSelection,
            budgets: vec![5, 10],
            outcomes: vec![WireOutcome {
                selected: vec![4, 2, 9],
                objective_trace: vec![0.1, 0.2 + 0.1, 0.30000000000000004],
                sigma: vec![1, 2, 3, 4],
                diversity_value: 1.25,
                evaluations: 17,
                candidates_after_prune: 40,
                completion: Completion::Partial {
                    cause: CancelCause::Deadline,
                },
            }],
        };
        let Frame::Response(back) = roundtrip(&Frame::Response(report.clone())) else {
            panic!("wrong kind back");
        };
        assert_eq!(back, report);
    }

    #[test]
    fn corrupt_payload_is_a_typed_protocol_error_not_a_panic() {
        let mut bytes = encode_frame(&Frame::Request(Box::new(sample_request())));
        // Flip one body byte: checksum catches it.
        bytes[20] ^= 0xFF;
        let mut cursor = &bytes[..];
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Protocol(_))
        ));
        // A version-1 frame (re-sealed so only the version trips).
        let mut payload = encode_frame(&Frame::Request(Box::new(sample_request()))).split_off(4);
        payload[4] = 1;
        let body = payload.len() - 8;
        let sum = codec::checksum(&payload[..body]);
        payload[body..].copy_from_slice(&sum.to_le_bytes());
        let Err(FrameError::Protocol(message)) = decode_payload(&payload) else {
            panic!("a version-1 frame must be refused");
        };
        assert!(message.contains("unsupported version 1"), "{message}");
    }

    #[test]
    fn truncated_frame_is_an_io_error_and_clean_close_is_closed() {
        let bytes = encode_frame(&Frame::Hello(Hello {
            tenant: "acme".into(),
            secret: String::new(),
        }));
        let mut truncated = &bytes[..bytes.len() - 3];
        assert!(matches!(
            read_frame(&mut truncated, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Io(_))
        ));
        let mut empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut empty, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn outcome_count_is_checked_against_the_smallest_outcome() {
        let mut e = Enc::default();
        e.u32(EDGE_MAGIC);
        e.u8(EDGE_VERSION);
        e.u8(4);
        e.u64(9);
        e.u8(0);
        e.usize_list(&[]);
        // 74 bytes follow the count: room for two smallest outcomes, not three.
        e.count(3);
        e.bytes(&[0; 2 * MIN_OUTCOME_LEN]);
        let Err(FrameError::Protocol(message)) = decode_payload(&e.seal()) else {
            panic!("an outcome count beyond the body must be refused");
        };
        assert!(message.contains("length prefix 3"), "{message}");
    }

    #[test]
    fn hello_frame_bytes_are_pinned() {
        // The wire format, checksum included, is a contract with deployed
        // peers: changing these bytes requires bumping `EDGE_VERSION`.
        let bytes = encode_frame(&Frame::Hello(Hello {
            tenant: "acme".into(),
            secret: "s3".into(),
        }));
        #[rustfmt::skip]
        let golden: [u8; 32] = [
            28, 0, 0, 0, // payload length
            b'G', b'R', b'N', b'E', 2, 1, // magic, version, kind
            4, 0, 0, 0, b'a', b'c', b'm', b'e', // tenant
            2, 0, 0, 0, b's', b'3', // secret
            113, 44, 47, 3, 3, 105, 208, 126, // checksum
        ];
        assert_eq!(bytes, golden);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let bytes = (u32::MAX).to_le_bytes();
        let mut cursor = &bytes[..];
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Protocol(_))
        ));
    }
}
