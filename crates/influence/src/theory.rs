//! Empirical checkers for the paper's structural theorems.
//!
//! Theorems 3.3, 3.5 and 3.7 claim that `|σ(S)|`, `D_NN(S)` and `D_ball(S)`
//! are nondecreasing and submodular. These helpers verify both properties
//! on explicit chains `S ⊆ T` for arbitrary set functions, and back the
//! proptest suites in `grain-core` and the root integration tests.

/// Outcome of a property check: `Ok(())` or a human-readable counterexample.
pub type PropertyResult = Result<(), String>;

/// Checks `f(S) <= f(T)` for the given nested pair.
///
/// The caller guarantees `subset ⊆ superset`; the function re-verifies it.
pub fn check_monotone_pair(
    f: &mut dyn FnMut(&[u32]) -> f64,
    subset: &[u32],
    superset: &[u32],
) -> PropertyResult {
    debug_assert!(
        is_subset(subset, superset),
        "check_monotone_pair needs S ⊆ T"
    );
    let fs = f(subset);
    let ft = f(superset);
    if fs <= ft + 1e-6 {
        Ok(())
    } else {
        Err(format!(
            "monotonicity violated: f({subset:?}) = {fs} > f({superset:?}) = {ft}"
        ))
    }
}

/// Checks the diminishing-returns inequality
/// `f(S ∪ {x}) - f(S) >= f(T ∪ {x}) - f(T)` for `S ⊆ T`, `x ∉ T`.
pub fn check_submodular_triple(
    f: &mut dyn FnMut(&[u32]) -> f64,
    subset: &[u32],
    superset: &[u32],
    x: u32,
) -> PropertyResult {
    debug_assert!(
        is_subset(subset, superset),
        "check_submodular_triple needs S ⊆ T"
    );
    debug_assert!(!superset.contains(&x), "x must lie outside T");
    let fs = f(subset);
    let ft = f(superset);
    let fsx = f(&with(subset, x));
    let ftx = f(&with(superset, x));
    let gain_s = fsx - fs;
    let gain_t = ftx - ft;
    if gain_s + 1e-6 >= gain_t {
        Ok(())
    } else {
        Err(format!(
            "submodularity violated at x={x}: gain over S={subset:?} is {gain_s}, \
             gain over T={superset:?} is {gain_t}"
        ))
    }
}

/// Exhaustively checks monotonicity + submodularity over every chain
/// `S ⊆ T ⊆ U` with `|U| <= universe.len()`. Exponential — only for small
/// universes in tests (≤ ~10 elements).
pub fn check_all_chains(f: &mut dyn FnMut(&[u32]) -> f64, universe: &[u32]) -> PropertyResult {
    let n = universe.len();
    assert!(
        n <= 12,
        "check_all_chains is exponential; universe too large"
    );
    let subsets: Vec<Vec<u32>> = (0..(1usize << n))
        .map(|mask| {
            (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| universe[i])
                .collect()
        })
        .collect();
    for (mi, s) in subsets.iter().enumerate() {
        for (mj, t) in subsets.iter().enumerate() {
            if mi & mj != mi {
                continue; // not a subset pair
            }
            check_monotone_pair(f, s, t)?;
            for &x in universe {
                if !t.contains(&x) {
                    check_submodular_triple(f, s, t, x)?;
                }
            }
        }
    }
    Ok(())
}

fn is_subset(a: &[u32], b: &[u32]) -> bool {
    a.iter().all(|x| b.contains(x))
}

fn with(s: &[u32], x: u32) -> Vec<u32> {
    let mut v = s.to_vec();
    v.push(x);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{ActivationIndex, ThetaRule};
    use crate::walk::InfluenceRows;
    use grain_graph::{generators, transition_matrix, TransitionKind};

    #[test]
    fn cardinality_is_monotone_submodular() {
        // f(S) = |S| (modular, hence submodular + monotone).
        let mut f = |s: &[u32]| s.len() as f64;
        assert!(check_all_chains(&mut f, &[0, 1, 2, 3]).is_ok());
    }

    #[test]
    fn detects_supermodular_function() {
        // f(S) = |S|^2 is strictly supermodular -> must be rejected.
        let mut f = |s: &[u32]| (s.len() * s.len()) as f64;
        assert!(check_all_chains(&mut f, &[0, 1, 2]).is_err());
    }

    #[test]
    fn detects_non_monotone_function() {
        let mut f = |s: &[u32]| -(s.len() as f64);
        let err = check_monotone_pair(&mut f, &[0], &[0, 1]).unwrap_err();
        assert!(err.contains("monotonicity"));
    }

    #[test]
    fn sigma_size_satisfies_theorem_3_3() {
        // Theorem 3.3 validated on a concrete random instance.
        let g = generators::erdos_renyi_gnm(25, 60, 11);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let rows = InfluenceRows::compute(&t, 2, 0.0);
        let idx = ActivationIndex::build(&rows, ThetaRule::FixedAbsolute(0.05), 1);
        let universe: Vec<u32> = (0..8).collect();
        let mut f = |s: &[u32]| idx.sigma_size(s) as f64;
        check_all_chains(&mut f, &universe).unwrap();
    }
}
