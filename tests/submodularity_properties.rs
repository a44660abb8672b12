//! Property-based verification of the paper's structural theorems
//! (3.3, 3.5, 3.7): monotonicity and submodularity of `|sigma(S)|`,
//! `D_ball`, `D_NN` and the combined DIM objective `F`, plus CELF/greedy
//! equivalence — all on randomized graphs via proptest.

use grain::core::diversity::{BallDiversity, DiversityFunction, NnDiversity};
use grain::core::greedy::{lazy_greedy, plain_greedy};
use grain::core::objective::MarginalObjective;
use grain::core::DimObjective;
use grain::influence::theory::check_all_chains;
use grain::influence::{ActivationIndex, InfluenceRows};
use grain::prelude::*;
use grain_graph::generators;
use proptest::prelude::*;

/// Random small instance: ER graph + random features.
fn instance(nodes: usize, edges: usize, seed: u64) -> (Graph, DenseMatrix, ActivationIndex) {
    let g = generators::erdos_renyi_gnm(nodes, edges, seed);
    let t = grain_graph::transition_matrix(&g, TransitionKind::RandomWalk, true);
    let rows = InfluenceRows::compute(&t, 2, 0.0);
    let idx = ActivationIndex::build(&rows, ThetaRule::RelativeToRowMax(0.3), 1);
    let data: Vec<f32> = (0..nodes * 4)
        .map(|i| {
            (((i as u64).wrapping_mul(seed ^ 0x9e3779b97f4a7c15) >> 33) % 97) as f32 * 0.05 + 0.01
        })
        .collect();
    let x = DenseMatrix::from_vec(nodes, 4, data);
    (g, x, idx)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Theorem 3.3: |sigma(S)| is nondecreasing and submodular.
    #[test]
    fn sigma_size_monotone_submodular(seed in 0u64..500, nodes in 12usize..28, edge_factor in 1usize..4) {
        let (_, _, idx) = instance(nodes, nodes * edge_factor, seed);
        let universe: Vec<u32> = (0..7u32).collect();
        let mut f = |s: &[u32]| idx.sigma_size(s) as f64;
        prop_assert!(check_all_chains(&mut f, &universe).is_ok());
    }

    /// Theorem 3.7: D_ball is nondecreasing and submodular (as a function
    /// of the SEED set through sigma, exactly as used in the objective).
    #[test]
    fn ball_diversity_monotone_submodular(seed in 0u64..500, nodes in 12usize..24) {
        let (_, x, idx) = instance(nodes, nodes * 2, seed);
        let emb = grain_linalg::distance::normalized_embedding(&x, 1);
        let universe: Vec<u32> = (0..6u32).collect();
        let mut f = |s: &[u32]| {
            let mut div = BallDiversity::new(&emb, 0.1);
            div.commit(&idx.sigma(s));
            div.value()
        };
        prop_assert!(check_all_chains(&mut f, &universe).is_ok());
    }

    /// Theorem 3.5: D_NN is nondecreasing and submodular.
    #[test]
    fn nn_diversity_monotone_submodular(seed in 0u64..500, nodes in 12usize..20) {
        let (_, x, idx) = instance(nodes, nodes * 2, seed);
        let emb = grain_linalg::distance::normalized_embedding(&x, 1);
        let universe: Vec<u32> = (0..5u32).collect();
        let mut f = |s: &[u32]| {
            let mut div = NnDiversity::new(emb.clone(), 1024);
            div.commit(&idx.sigma(s));
            div.value()
        };
        prop_assert!(check_all_chains(&mut f, &universe).is_ok());
    }

    /// Eq. 11: the combined DIM objective inherits both properties, so the
    /// greedy guarantee applies.
    #[test]
    fn dim_objective_monotone_submodular(seed in 0u64..300, nodes in 12usize..20) {
        let (_, x, idx) = instance(nodes, nodes * 2, seed);
        let emb = grain_linalg::distance::normalized_embedding(&x, 1);
        let universe: Vec<u32> = (0..5u32).collect();
        let mut f = |s: &[u32]| {
            let div = BallDiversity::new(&emb, 0.1);
            let mut obj = DimObjective::new(&idx, div, 1.0);
            for &u in s {
                obj.add(u);
            }
            obj.value()
        };
        prop_assert!(check_all_chains(&mut f, &universe).is_ok());
    }

    /// CELF selects exactly the plain-greedy set on random instances.
    #[test]
    fn celf_equals_plain_greedy(seed in 0u64..500, nodes in 15usize..40, budget in 2usize..8) {
        let (_, x, idx) = instance(nodes, nodes * 2, seed);
        let emb = grain_linalg::distance::normalized_embedding(&x, 1);
        let candidates: Vec<u32> = (0..nodes as u32).collect();
        let mut a = DimObjective::new(&idx, BallDiversity::new(&emb, 0.1), 1.0);
        let ta = plain_greedy(&mut a, &candidates, budget, &CancelToken::new(), usize::MAX);
        let mut b = DimObjective::new(&idx, BallDiversity::new(&emb, 0.1), 1.0);
        let tb = lazy_greedy(&mut b, &candidates, budget, &CancelToken::new(), usize::MAX);
        prop_assert_eq!(&ta.selected, &tb.selected);
        prop_assert!(tb.evaluations <= ta.evaluations);
    }

    /// The greedy objective trace is nondecreasing with diminishing gains.
    #[test]
    fn greedy_trace_concave(seed in 0u64..300, nodes in 15usize..30) {
        let (_, x, idx) = instance(nodes, nodes * 2, seed);
        let emb = grain_linalg::distance::normalized_embedding(&x, 1);
        let candidates: Vec<u32> = (0..nodes as u32).collect();
        let mut obj = DimObjective::new(&idx, BallDiversity::new(&emb, 0.1), 1.0);
        let trace = plain_greedy(&mut obj, &candidates, 6, &CancelToken::new(), usize::MAX);
        let mut last_value = 0.0;
        let mut last_gain = f64::INFINITY;
        for &v in &trace.objective_trace {
            let gain = v - last_value;
            prop_assert!(gain >= -1e-9, "objective decreased");
            prop_assert!(gain <= last_gain + 1e-9, "greedy gains increased");
            last_gain = gain;
            last_value = v;
        }
    }

    /// Influence rows stay normalized probability vectors for any graph.
    #[test]
    fn influence_rows_are_distributions(seed in 0u64..500, nodes in 10usize..40, edge_factor in 1usize..5) {
        let g = generators::erdos_renyi_gnm(nodes, nodes * edge_factor, seed);
        let t = grain_graph::transition_matrix(&g, TransitionKind::RandomWalk, true);
        let rows = InfluenceRows::compute(&t, 2, 0.0);
        for v in 0..nodes {
            let sum: f32 = rows.row_values(v).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {} sums to {}", v, sum);
        }
    }
}
