//! Reproducibility: every pipeline stage is a pure function of its seed,
//! including under parallel execution.

use grain::prelude::*;

#[test]
fn datasets_are_seed_deterministic() {
    let a = grain::data::synthetic::cora_like(3);
    let b = grain::data::synthetic::cora_like(3);
    assert_eq!(a.graph.adjacency(), b.graph.adjacency());
    assert_eq!(a.features, b.features);
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.split, b.split);
    let c = grain::data::synthetic::cora_like(4);
    assert_ne!(a.graph.adjacency(), c.graph.adjacency());
}

#[test]
fn grain_selection_is_deterministic() {
    let ds = grain::data::synthetic::papers_like(1000, 5);
    let run = || {
        let service = GrainService::new();
        service
            .register_graph("papers", ds.graph.clone(), ds.features.clone())
            .unwrap();
        let request = SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(20))
            .with_candidates(ds.split.train.clone());
        service.select(&request).unwrap().outcome().selected.clone()
    };
    assert_eq!(run(), run());
}

#[test]
fn selection_is_thread_count_invariant() {
    // One worker must give the same selection as the default count. The
    // count goes through `parallelism`, which every engine stage honours,
    // rather than the process-wide `GRAIN_THREADS`, which would leak into
    // the tests running beside this one.
    let ds = grain::data::synthetic::papers_like(800, 6);
    let one_shot = |parallelism: usize| {
        let config = GrainConfig {
            parallelism,
            ..GrainConfig::ball_d()
        };
        SelectionEngine::new(config, &ds.graph, &ds.features)
            .unwrap()
            .select(&ds.split.train, 15)
            .selected
    };
    let multi = one_shot(0);
    let single = one_shot(1);
    assert_eq!(multi, single);
}

#[test]
fn gnn_training_is_deterministic_per_seed() {
    let ds = grain::data::synthetic::papers_like(400, 7);
    let train: Vec<u32> = ds.split.train.iter().take(32).copied().collect();
    let run = |seed: u64| {
        let mut model = ModelKind::Gcn { hidden: 16 }.build(&ds, seed);
        let cfg = TrainConfig {
            epochs: 20,
            patience: None,
            seed,
            ..Default::default()
        };
        model.train(&ds.labels, &train, &[], &cfg);
        model.predict()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn influence_rows_identical_across_runs() {
    let ds = grain::data::synthetic::papers_like(600, 8);
    let t = grain::graph::transition_matrix(&ds.graph, TransitionKind::RandomWalk, true);
    let a = InfluenceRows::compute(&t, 2, 1e-4);
    let b = InfluenceRows::compute(&t, 2, 1e-4);
    for v in 0..ds.num_nodes() {
        assert_eq!(a.row(v), b.row(v));
    }
}

#[test]
fn baseline_selectors_deterministic_per_seed() {
    let ds = grain::data::synthetic::papers_like(500, 9);
    let ctx = SelectionContext::new(&ds, 11);
    let mut k1 = grain::select::kcenter::KCenterGreedySelector::new(4);
    let mut k2 = grain::select::kcenter::KCenterGreedySelector::new(4);
    assert_eq!(k1.select(&ctx, 10), k2.select(&ctx, 10));
    let mut d1 = grain::select::degree::DegreeSelector::new();
    let mut d2 = grain::select::degree::DegreeSelector::new();
    assert_eq!(d1.select(&ctx, 10), d2.select(&ctx, 10));
}
