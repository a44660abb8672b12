//! The facade crate's public API: everything a downstream user needs is
//! reachable through `grain::prelude` and the re-exported modules.

use grain::prelude::*;

#[test]
fn prelude_covers_the_quickstart_surface() {
    // Construct every major public type through the prelude only.
    let config = GrainConfig::ball_d();
    assert!(config.validate().is_ok());
    let _kernel = Kernel::Ppr { k: 2, alpha: 0.1 };
    let _rule = ThetaRule::RelativeToRowMax(0.25);
    let _model = ModelKind::default();
    let _cfg = TrainConfig::default();
    let _variant = GrainVariant::Full;
    let _div = DiversityKind::Nn;
    let _algo = GreedyAlgorithm::Lazy;
    let _prune = PruneStrategy::Degree { keep_fraction: 0.5 };
    // The service layer is reachable through the prelude too.
    let _service = GrainService::with_capacity(2);
    let _request = SelectionRequest::new("papers", config, Budget::Fraction(0.1))
        .with_variant(GrainVariant::NoDiversity)
        .with_seed(7);
    let _budget = Budget::Sweep(vec![4, 8]);
    let _event = PoolEvent::ColdMiss;
    let _stats = PoolStats::default();
    let _err: GrainError = GrainError::UnknownGraph {
        graph: "papers".into(),
    };
}

#[test]
fn service_round_trip_through_the_prelude() {
    let ds = grain::data::synthetic::papers_like(200, 4);
    let service = GrainService::new();
    service
        .register_graph("papers", ds.graph.clone(), ds.features.clone())
        .unwrap();
    let report = service
        .select(
            &SelectionRequest::new("papers", GrainConfig::ball_d(), Budget::Fixed(6))
                .with_candidates(ds.split.train.clone()),
        )
        .unwrap();
    assert_eq!(report.outcome().selected.len(), 6);
    assert_eq!(report.pool_event, PoolEvent::ColdMiss);
    assert_eq!(service.pool_stats().cold_misses, 1);
    assert_eq!(service.graphs(), vec!["papers"]);
}

#[test]
fn module_reexports_are_wired() {
    // One item per re-exported crate.
    let g = grain::graph::generators::erdos_renyi_gnm(10, 15, 1);
    assert_eq!(g.num_nodes(), 10);
    let m = grain::linalg::DenseMatrix::zeros(2, 2);
    assert_eq!(m.shape(), (2, 2));
    let ks = grain::prop::Kernel::all_table1(2);
    assert_eq!(ks.len(), 6);
    let ds = grain::data::synthetic::papers_like(100, 1);
    assert_eq!(ds.num_nodes(), 100);
    let lineup = grain::select::standard_lineup(1);
    assert_eq!(lineup.len(), 7);
}

#[test]
fn selection_outcome_exposes_observability_fields() {
    let ds = grain::data::synthetic::papers_like(300, 2);
    let outcome = SelectionEngine::new(GrainConfig::ball_d(), &ds.graph, &ds.features)
        .unwrap()
        .select(&ds.split.train, 8);
    // All reporting fields are populated.
    assert_eq!(outcome.selected.len(), 8);
    assert_eq!(outcome.objective_trace.len(), 8);
    assert!(outcome.evaluations >= 8);
    assert!(outcome.timings.total >= outcome.timings.greedy);
    assert!(outcome.candidates_after_prune > 0);
    assert!(outcome.diversity_value >= 0.0);
}

#[test]
fn dataset_api_supports_budget_vocabulary() {
    let ds = grain::data::synthetic::papers_like(400, 3);
    assert_eq!(ds.budget(20), 20 * ds.num_classes);
    assert!(ds.edge_homophily() > 0.0);
    let stats = grain::data::stats::DatasetStats::of(&ds);
    assert_eq!(stats.nodes, 400);
}
