//! Propagation kernel descriptors (one per Table 1 row).

use grain_graph::TransitionKind;
use serde::{Deserialize, Serialize};

/// A parameter-free propagation mechanism from Table 1 of the paper.
///
/// `k` is the propagation depth, inherited from the target GNN's layer
/// count (2 everywhere in the paper's experiments).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum Kernel {
    /// GCN: `X^(k) = T_sym X^(k-1)`.
    SymNorm {
        /// Propagation depth.
        k: usize,
    },
    /// SGC: `X^(k) = T_rw X^(k-1)`.
    RandomWalk {
        /// Propagation depth.
        k: usize,
    },
    /// APPNP / PPR: `X^(k) = (1-α) T_rw X^(k-1) + α X^(0)`.
    Ppr {
        /// Propagation depth.
        k: usize,
        /// Teleport probability `α`.
        alpha: f32,
    },
    /// SIGN: `X^(k) = T_tr X^(k-1)` on triangle-induced adjacency.
    TriangleIa {
        /// Propagation depth.
        k: usize,
    },
    /// S2GC: `X^(k) = (1/k) Σ_{l=1..k} ((1-α) T^l X^(0) + α X^(0))`.
    S2gc {
        /// Propagation depth.
        k: usize,
        /// Residual weight `α`.
        alpha: f32,
    },
    /// GBP: `X^(k) = Σ_{l=0..k} β^l T^l X^(0)` (θ_l = β^l weighting).
    Gbp {
        /// Propagation depth.
        k: usize,
        /// Geometric layer-weight decay `β`.
        beta: f32,
    },
}

impl Kernel {
    /// Propagation depth `K`.
    pub fn steps(&self) -> usize {
        match *self {
            Kernel::SymNorm { k }
            | Kernel::RandomWalk { k }
            | Kernel::Ppr { k, .. }
            | Kernel::TriangleIa { k }
            | Kernel::S2gc { k, .. }
            | Kernel::Gbp { k, .. } => k,
        }
    }

    /// The transition matrix this kernel propagates with.
    pub fn transition_kind(&self) -> TransitionKind {
        match self {
            Kernel::SymNorm { .. } => TransitionKind::Symmetric,
            Kernel::TriangleIa { .. } => TransitionKind::TriangleInduced,
            Kernel::RandomWalk { .. }
            | Kernel::Ppr { .. }
            | Kernel::S2gc { .. }
            | Kernel::Gbp { .. } => TransitionKind::RandomWalk,
        }
    }

    /// Display name matching the paper's Table 1 terminology.
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::SymNorm { .. } => "normalized-adjacency",
            Kernel::RandomWalk { .. } => "random-walk",
            Kernel::Ppr { .. } => "ppr",
            Kernel::TriangleIa { .. } => "triangle-ia",
            Kernel::S2gc { .. } => "s2gc",
            Kernel::Gbp { .. } => "gbp",
        }
    }

    /// Stable key for caching propagated embeddings (`f32` params are
    /// bit-encoded so the key is exact).
    pub fn cache_key(&self) -> String {
        match *self {
            Kernel::SymNorm { k } => format!("sym:{k}"),
            Kernel::RandomWalk { k } => format!("rw:{k}"),
            Kernel::Ppr { k, alpha } => format!("ppr:{k}:{:08x}", alpha.to_bits()),
            Kernel::TriangleIa { k } => format!("tri:{k}"),
            Kernel::S2gc { k, alpha } => format!("s2gc:{k}:{:08x}", alpha.to_bits()),
            Kernel::Gbp { k, beta } => format!("gbp:{k}:{:08x}", beta.to_bits()),
        }
    }

    /// All Table 1 kernels at depth `k` with the paper's default parameters
    /// (α = 0.1 as in APPNP's Appendix A.4 setting, β = 0.5).
    pub fn all_table1(k: usize) -> Vec<Kernel> {
        vec![
            Kernel::SymNorm { k },
            Kernel::RandomWalk { k },
            Kernel::Ppr { k, alpha: 0.1 },
            Kernel::TriangleIa { k },
            Kernel::S2gc { k, alpha: 0.1 },
            Kernel::Gbp { k, beta: 0.5 },
        ]
    }
}

impl Kernel {
    /// What [`Kernel::cache_key`] encodes, without allocating: the
    /// variant, the depth and the `f32` parameter's bits (0 if none).
    fn identity(&self) -> (u8, usize, u32) {
        match *self {
            Kernel::SymNorm { k } => (0, k, 0),
            Kernel::RandomWalk { k } => (1, k, 0),
            Kernel::Ppr { k, alpha } => (2, k, alpha.to_bits()),
            Kernel::TriangleIa { k } => (3, k, 0),
            Kernel::S2gc { k, alpha } => (4, k, alpha.to_bits()),
            Kernel::Gbp { k, beta } => (5, k, beta.to_bits()),
        }
    }
}

/// Equal exactly when the [`Kernel::cache_key`]s are: parameters compare
/// by bit pattern, so `0.0 != -0.0` and a NaN equals itself.
impl PartialEq for Kernel {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for Kernel {}

impl std::hash::Hash for Kernel {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_extracts_depth() {
        assert_eq!(Kernel::SymNorm { k: 3 }.steps(), 3);
        assert_eq!(Kernel::Ppr { k: 5, alpha: 0.2 }.steps(), 5);
    }

    #[test]
    fn transition_kinds_match_table1() {
        assert_eq!(
            Kernel::SymNorm { k: 2 }.transition_kind(),
            TransitionKind::Symmetric
        );
        assert_eq!(
            Kernel::RandomWalk { k: 2 }.transition_kind(),
            TransitionKind::RandomWalk
        );
        assert_eq!(
            Kernel::TriangleIa { k: 2 }.transition_kind(),
            TransitionKind::TriangleInduced
        );
    }

    #[test]
    fn cache_keys_distinguish_params() {
        let a = Kernel::Ppr { k: 2, alpha: 0.1 };
        let b = Kernel::Ppr { k: 2, alpha: 0.2 };
        assert_ne!(a.cache_key(), b.cache_key());
        assert_ne!(a, b);
        assert_eq!(a, Kernel::Ppr { k: 2, alpha: 0.1 });
    }

    #[test]
    fn equality_and_hash_agree_with_cache_keys() {
        use std::hash::{BuildHasher, RandomState};
        let nan_a = f32::from_bits(0x7fc0_0001);
        let nan_b = f32::from_bits(0x7fc0_0002);
        let mut kernels = Vec::new();
        for k in 1..=3 {
            kernels.extend(Kernel::all_table1(k));
            for p in [0.0, -0.0, nan_a, nan_b] {
                kernels.push(Kernel::Ppr { k, alpha: p });
                kernels.push(Kernel::S2gc { k, alpha: p });
                kernels.push(Kernel::Gbp { k, beta: p });
            }
        }
        let hasher = RandomState::new();
        for a in &kernels {
            for b in &kernels {
                assert_eq!(a == b, a.cache_key() == b.cache_key(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hasher.hash_one(a), hasher.hash_one(b), "{a:?}");
                }
            }
        }
        assert_ne!(
            Kernel::Ppr { k: 2, alpha: 0.0 },
            Kernel::Ppr { k: 2, alpha: -0.0 }
        );
        assert_ne!(
            Kernel::Gbp { k: 2, beta: nan_a },
            Kernel::Gbp { k: 2, beta: nan_b }
        );
        assert_eq!(
            Kernel::Gbp { k: 2, beta: nan_a },
            Kernel::Gbp { k: 2, beta: nan_a }
        );
    }

    #[test]
    fn all_table1_covers_six_mechanisms() {
        let ks = Kernel::all_table1(2);
        assert_eq!(ks.len(), 6);
        let names: std::collections::HashSet<_> = ks.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 6);
    }
}
