//! Configuration of the Grain selection pipeline.
//!
//! Defaults follow Appendix A.4 of the paper: threshold `θ = 0.25`, ball
//! radius `r = 0.05`, trade-off `γ = 1`, and a depth-2 propagation matching
//! the 2-layer GCN used throughout the evaluation.

use crate::error::{GrainError, GrainResult};
use grain_influence::index::ThetaRule;
use grain_prop::Kernel;
use serde::{Deserialize, Serialize};

/// Which diversity function instantiates `D(S)` in Eq. 11.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiversityKind {
    /// Ball coverage over activated nodes (Definition 3.6).
    Ball,
    /// Nearest-neighbor distance reduction (Definition 3.4).
    Nn,
}

/// Greedy maximization strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GreedyAlgorithm {
    /// Algorithm 1 verbatim: re-evaluate every candidate each round.
    Plain,
    /// CELF lazy greedy: exploit submodularity to skip stale candidates.
    /// Selects the identical set (property-tested) at a fraction of the
    /// marginal-gain evaluations.
    Lazy,
}

/// Candidate pruning strategies from §3.4 ("identify and dismiss
/// uninfluential nodes").
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PruneStrategy {
    /// Keep the top fraction of candidates by degree.
    Degree {
        /// Fraction of candidates retained, in `(0, 1]`.
        keep_fraction: f64,
    },
    /// Keep the top fraction by received random-walk mass
    /// (Σ_v I_v(u, k), the distribution of random walkers of \[26\]).
    WalkMass {
        /// Fraction of candidates retained, in `(0, 1]`.
        keep_fraction: f64,
    },
}

/// The selection variant: full Grain or one of the Table 3 ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GrainVariant {
    /// Full DIM objective (magnitude + diversity over `σ(S)`).
    Full,
    /// "No Diversity": maximize `|σ(S)|` only.
    NoDiversity,
    /// "No Magnitude": maximize ball coverage of balls centered on the
    /// *seed* nodes themselves, no influence term.
    NoMagnitude,
    /// "Classic Coverage": keep the magnitude term but compute diversity
    /// from balls centered on `S` instead of `σ(S)` — the i.i.d.-style
    /// coverage of \[45\] that ignores propagation.
    ClassicCoverage,
}

/// Full pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GrainConfig {
    /// Propagation kernel inherited from the target GNN (Eq. 6 / Table 1).
    pub kernel: Kernel,
    /// Activation threshold rule for `θ` (Definition 3.2). The paper's
    /// `θ = 0.25` is interpreted relative to each row's strongest
    /// influencer by default (see [`ThetaRule`] and DESIGN.md).
    pub theta: ThetaRule,
    /// Ball radius `r` in the normalized feature space (Definition 3.6).
    pub radius: f32,
    /// Diversity trade-off `γ` in Eq. 11.
    pub gamma: f64,
    /// Influence-row pruning epsilon (entries below never reach `θ`).
    pub influence_eps: f32,
    /// Deterministic row truncation: keep only the `top_k` heaviest
    /// entries of each influence row (ties → smaller column id), applied
    /// **before** Eq. 8 normalization; `0` disables truncation. Bounds the
    /// influence artifact at `top_k` entries per node on hub-heavy graphs
    /// where ε-pruning alone is not enough — the lever that makes the
    /// n=1e6 hot path fit in memory. Changes results, so it participates
    /// in [`GrainConfig::artifact_fingerprint`].
    pub influence_row_top_k: usize,
    /// Diversity function choice.
    pub diversity: DiversityKind,
    /// Greedy maximization strategy.
    pub algorithm: GreedyAlgorithm,
    /// Optional §3.4 candidate pruning.
    pub prune: Option<PruneStrategy>,
    /// Full objective or a Table 3 ablation.
    pub variant: GrainVariant,
    /// Worker threads for the artifact hot paths (`X^(k)` propagation
    /// rounds, influence rows, activation-index inversion, ball lists,
    /// NN `d_max`); `0` means auto (`GRAIN_THREADS` or the machine's
    /// available parallelism).
    ///
    /// Deliberately **excluded** from
    /// [`GrainConfig::artifact_fingerprint`]: every parallel kernel runs
    /// on fixed row blocks (`grain_linalg::par::for_each_block_mut`), each
    /// row computed wholly by one worker with fixed-order reductions, so
    /// artifacts are bit-identical at any thread count — two configs
    /// differing only here share one warm engine and rebuild nothing.
    pub parallelism: usize,
    /// How many marginal-gain evaluations may pass between cooperative
    /// cancellation checks inside a greedy round (round boundaries are
    /// always checked). Smaller values observe a tripped
    /// [`CancelToken`](crate::cancel::CancelToken) sooner at slightly
    /// more polling overhead; must be ≥ 1.
    ///
    /// Like `parallelism`, this field is **excluded** from both
    /// fingerprints: checkpoints never change which candidate is picked,
    /// so two configs differing only here select identically and share
    /// one warm engine.
    pub cancel_check_every: usize,
}

impl Default for GrainConfig {
    fn default() -> Self {
        Self {
            kernel: Kernel::RandomWalk { k: 2 },
            theta: ThetaRule::RelativeToRowMax(0.25),
            radius: 0.05,
            gamma: 1.0,
            influence_eps: 1e-4,
            influence_row_top_k: 0,
            diversity: DiversityKind::Ball,
            algorithm: GreedyAlgorithm::Lazy,
            prune: None,
            variant: GrainVariant::Full,
            parallelism: 0,
            cancel_check_every: 1024,
        }
    }
}

impl GrainConfig {
    /// The paper's "Grain (ball-D)" configuration.
    #[must_use]
    pub fn ball_d() -> Self {
        Self {
            diversity: DiversityKind::Ball,
            ..Self::default()
        }
    }

    /// The paper's "Grain (NN-D)" configuration.
    #[must_use]
    pub fn nn_d() -> Self {
        Self {
            diversity: DiversityKind::Nn,
            ..Self::default()
        }
    }

    /// Table 3 ablation constructor.
    #[must_use]
    pub fn ablation(variant: GrainVariant) -> Self {
        Self {
            variant,
            ..Self::ball_d()
        }
    }

    /// Validates parameter ranges, returning the first violation as a
    /// typed [`GrainError::InvalidConfig`].
    pub fn validate(&self) -> GrainResult<()> {
        self.theta
            .validate()
            .map_err(|message| GrainError::config("theta", message))?;
        if !(0.0..=1.0).contains(&self.radius) {
            return Err(GrainError::config(
                "radius",
                format!("must lie in [0,1], got {}", self.radius),
            ));
        }
        if !(0.0..=10.0).contains(&self.gamma) {
            return Err(GrainError::config(
                "gamma",
                format!("must lie in [0,10], got {}", self.gamma),
            ));
        }
        if self.influence_eps < 0.0 {
            return Err(GrainError::config(
                "influence_eps",
                format!("must be >= 0, got {}", self.influence_eps),
            ));
        }
        if let Some(
            PruneStrategy::Degree { keep_fraction } | PruneStrategy::WalkMass { keep_fraction },
        ) = self.prune
        {
            if !(0.0 < keep_fraction && keep_fraction <= 1.0) {
                return Err(GrainError::config(
                    "prune.keep_fraction",
                    format!("must lie in (0,1], got {keep_fraction}"),
                ));
            }
        }
        if self.cancel_check_every == 0 {
            return Err(GrainError::config(
                "cancel_check_every",
                "must be >= 1 (checks cannot be infinitely frequent)",
            ));
        }
        Ok(())
    }

    /// A stable key over exactly the fields that determine the engine's
    /// cached artifacts (transition matrix, `X^(k)`, influence rows,
    /// activation index, ball lists, NN `d_max`).
    ///
    /// Two configs with equal fingerprints can share one warm
    /// [`crate::SelectionEngine`] with zero rebuilds: the remaining fields
    /// (`gamma`, `algorithm`, `prune`, `variant`) only steer the greedy
    /// stage and ride along via [`crate::SelectionEngine::set_config`],
    /// and `parallelism` only changes how many workers build an artifact,
    /// never its bits. The [`crate::pool::EnginePool`] keys engines by
    /// this fingerprint.
    ///
    /// `f32` parameters enter by bit pattern, consistent with the engine's
    /// internal cache keys.
    #[must_use]
    pub fn artifact_fingerprint(&self) -> String {
        let theta = match self.theta {
            ThetaRule::FixedAbsolute(t) => format!("abs:{:08x}", t.to_bits()),
            ThetaRule::RelativeToRowMax(t) => format!("rel:{:08x}", t.to_bits()),
            ThetaRule::GlobalQuantile(q) => format!("q:{:016x}", q.to_bits()),
        };
        format!(
            "{}|eps:{:08x}|theta:{theta}|r:{:08x}|topk:{}",
            self.kernel.cache_key(),
            self.influence_eps.to_bits(),
            self.radius.to_bits(),
            self.influence_row_top_k,
        )
    }

    /// A stable key over every field that determines a **selection
    /// result**: the [`GrainConfig::artifact_fingerprint`] plus the
    /// greedy-stage fields (`gamma`, `diversity`, `algorithm`, `prune`,
    /// `variant`) that steer the maximization without touching cached
    /// artifacts.
    ///
    /// Two configs with equal selection fingerprints produce bit-identical
    /// [`crate::SelectionOutcome`]s over the same graph, candidate pool,
    /// and budget — which is exactly the invariant the
    /// [`crate::scheduler::Scheduler`] relies on to coalesce identical
    /// in-flight requests into one execution. `parallelism` is excluded
    /// for the same reason it is excluded from the artifact fingerprint:
    /// every kernel is bit-identical at any thread count.
    #[must_use]
    pub fn selection_fingerprint(&self) -> String {
        let prune = match self.prune {
            None => "none".to_string(),
            Some(PruneStrategy::Degree { keep_fraction }) => {
                format!("deg:{:016x}", keep_fraction.to_bits())
            }
            Some(PruneStrategy::WalkMass { keep_fraction }) => {
                format!("walk:{:016x}", keep_fraction.to_bits())
            }
        };
        format!(
            "{}|gamma:{:016x}|div:{:?}|alg:{:?}|prune:{prune}|var:{:?}",
            self.artifact_fingerprint(),
            self.gamma.to_bits(),
            self.diversity,
            self.algorithm,
            self.variant,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_appendix_a4() {
        let c = GrainConfig::default();
        assert_eq!(c.theta, ThetaRule::RelativeToRowMax(0.25));
        assert_eq!(c.radius, 0.05);
        assert_eq!(c.gamma, 1.0);
        assert_eq!(c.kernel.steps(), 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn named_constructors_set_diversity() {
        assert_eq!(GrainConfig::ball_d().diversity, DiversityKind::Ball);
        assert_eq!(GrainConfig::nn_d().diversity, DiversityKind::Nn);
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let bad_theta = GrainConfig {
            theta: ThetaRule::FixedAbsolute(2.0),
            ..GrainConfig::default()
        };
        assert!(bad_theta.validate().is_err());
        let bad_prune = GrainConfig {
            prune: Some(PruneStrategy::Degree { keep_fraction: 0.0 }),
            ..GrainConfig::default()
        };
        assert!(bad_prune.validate().is_err());
    }

    #[test]
    fn ablation_constructor_keeps_ball_defaults() {
        let c = GrainConfig::ablation(GrainVariant::NoMagnitude);
        assert_eq!(c.variant, GrainVariant::NoMagnitude);
        assert_eq!(c.diversity, DiversityKind::Ball);
    }

    #[test]
    fn validation_errors_name_the_field() {
        let bad = GrainConfig {
            gamma: -1.0,
            ..GrainConfig::default()
        };
        match bad.validate() {
            Err(GrainError::InvalidConfig { field, .. }) => assert_eq!(field, "gamma"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let bad_theta = GrainConfig {
            theta: ThetaRule::FixedAbsolute(2.0),
            ..GrainConfig::default()
        };
        match bad_theta.validate() {
            Err(GrainError::InvalidConfig { field, .. }) => assert_eq!(field, "theta"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_ignores_greedy_only_fields() {
        let base = GrainConfig::ball_d();
        let mut greedy_only = base;
        greedy_only.gamma = 0.25;
        greedy_only.algorithm = GreedyAlgorithm::Plain;
        greedy_only.variant = GrainVariant::NoDiversity;
        greedy_only.prune = Some(PruneStrategy::Degree { keep_fraction: 0.5 });
        greedy_only.parallelism = 8;
        assert_eq!(
            base.artifact_fingerprint(),
            greedy_only.artifact_fingerprint()
        );
        // NN-D shares the same artifacts too (separate diversity slots).
        assert_eq!(
            base.artifact_fingerprint(),
            GrainConfig::nn_d().artifact_fingerprint()
        );
    }

    #[test]
    fn selection_fingerprint_splits_on_greedy_fields_only_where_results_differ() {
        let base = GrainConfig::ball_d();
        // Greedy-stage changes alter the selection fingerprint (they alter
        // results) while leaving the artifact fingerprint alone.
        for changed in [
            GrainConfig {
                gamma: 0.25,
                ..base
            },
            GrainConfig {
                algorithm: GreedyAlgorithm::Plain,
                ..base
            },
            GrainConfig {
                variant: GrainVariant::NoDiversity,
                ..base
            },
            GrainConfig {
                prune: Some(PruneStrategy::Degree { keep_fraction: 0.5 }),
                ..base
            },
            GrainConfig::nn_d(),
        ] {
            assert_ne!(
                base.selection_fingerprint(),
                changed.selection_fingerprint(),
                "{changed:?}"
            );
            assert_eq!(
                base.artifact_fingerprint(),
                changed.artifact_fingerprint(),
                "{changed:?}"
            );
        }
        // `parallelism` and `cancel_check_every` change neither:
        // artifacts and selections are bit-identical at any thread count
        // and any checkpoint cadence.
        let threaded = GrainConfig {
            parallelism: 8,
            ..base
        };
        assert_eq!(
            base.selection_fingerprint(),
            threaded.selection_fingerprint()
        );
        let chatty = GrainConfig {
            cancel_check_every: 1,
            ..base
        };
        assert_eq!(base.selection_fingerprint(), chatty.selection_fingerprint());
    }

    #[test]
    fn zero_cancel_check_every_is_rejected() {
        let bad = GrainConfig {
            cancel_check_every: 0,
            ..GrainConfig::default()
        };
        match bad.validate() {
            Err(GrainError::InvalidConfig { field, .. }) => {
                assert_eq!(field, "cancel_check_every")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn fingerprint_splits_on_artifact_fields() {
        let base = GrainConfig::ball_d();
        for changed in [
            GrainConfig {
                kernel: Kernel::RandomWalk { k: 3 },
                ..base
            },
            GrainConfig {
                theta: ThetaRule::RelativeToRowMax(0.4),
                ..base
            },
            GrainConfig {
                radius: 0.1,
                ..base
            },
            GrainConfig {
                influence_eps: 1e-3,
                ..base
            },
            GrainConfig {
                influence_row_top_k: 32,
                ..base
            },
        ] {
            assert_ne!(
                base.artifact_fingerprint(),
                changed.artifact_fingerprint(),
                "{changed:?}"
            );
        }
    }

    #[test]
    fn top_k_splits_fingerprints_exactly_where_selection_can_differ() {
        // Truncation changes influence rows, hence potentially the
        // selection: every distinct top_k must map to a distinct artifact
        // fingerprint (and so a distinct selection fingerprint), while
        // equal top_k values keep sharing a warm engine.
        let base = GrainConfig::ball_d();
        let at = |top_k: usize| GrainConfig {
            influence_row_top_k: top_k,
            ..base
        };
        for (a, b) in [(0usize, 1usize), (0, 32), (16, 32), (31, 32)] {
            assert_ne!(
                at(a).artifact_fingerprint(),
                at(b).artifact_fingerprint(),
                "top_k {a} vs {b}"
            );
            assert_ne!(
                at(a).selection_fingerprint(),
                at(b).selection_fingerprint(),
                "top_k {a} vs {b}"
            );
        }
        assert_eq!(at(32).artifact_fingerprint(), at(32).artifact_fingerprint());
        assert!(at(32).validate().is_ok());
        assert!(at(32).artifact_fingerprint().contains("topk:32"));
    }
}
