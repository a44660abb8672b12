//! Live-corpus maintenance: `apply_update` against cold-rebuild oracles.
//!
//! The streaming subsystem's contract is *bit-identity*: after a
//! [`GraphDelta`] lands, every artifact a patched engine serves must be
//! byte-for-byte what a cold build over the mutated corpus would have
//! produced — so selections, objective traces, and evaluation counts are
//! indistinguishable from a freshly registered service. This suite
//! drives that contract end-to-end through the public API on randomized
//! graphs and deltas, across kernels, top-k truncation, and thread
//! counts, plus the epoch semantics the scheduler layers on top.

use grain::graph::generators;
use grain::prelude::*;
use proptest::prelude::*;

const FEATURE_DIM: usize = 6;

fn corpus(n: usize, seed: u64) -> (Graph, DenseMatrix) {
    let g = generators::erdos_renyi_gnm(n, 3 * n, seed);
    let mut x = DenseMatrix::zeros(n, FEATURE_DIM);
    for v in 0..n {
        for j in 0..FEATURE_DIM {
            x.set(v, j, ((v * 31 + j * 7 + seed as usize) % 13) as f32 * 0.1);
        }
    }
    (g, x)
}

fn has_edge(g: &Graph, u: u32, v: u32) -> bool {
    g.adjacency().row(u as usize).0.binary_search(&v).is_ok()
}

/// A deterministic mixed delta for `g`: up to three deletions of live
/// edges, up to three insertions of absent edges, and (optionally) one
/// feature-row overwrite — never empty, never self-contradictory.
fn mutation(g: &Graph, seed: u64, with_features: bool) -> GraphDelta {
    let n = g.num_nodes() as u64;
    let mut delta = GraphDelta::new();
    let mut touched: Vec<(u32, u32)> = Vec::new();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for _ in 0..8 {
        let v = (next() % n) as u32;
        let (cols, _) = g.adjacency().row(v as usize);
        if cols.is_empty() {
            continue;
        }
        let u = cols[next() as usize % cols.len()];
        let key = (v.min(u), v.max(u));
        if touched.contains(&key) {
            continue;
        }
        touched.push(key);
        delta = delta.delete_edge(v, u);
        if delta.num_deletes() == 3 {
            break;
        }
    }
    for _ in 0..16 {
        let a = (next() % n) as u32;
        let b = (next() % n) as u32;
        let key = (a.min(b), a.max(b));
        if a == b || has_edge(g, a, b) || touched.contains(&key) {
            continue;
        }
        touched.push(key);
        delta = delta.insert_edge(a, b);
        if delta.num_inserts() == 3 {
            break;
        }
    }
    if with_features || delta.is_empty() {
        let v = (next() % n) as u32;
        let row: Vec<f32> = (0..FEATURE_DIM).map(|j| (j as f32 + 1.0) * 0.05).collect();
        delta = delta.set_features(v, row);
    }
    delta
}

/// The cold oracle's corpus: replay the delta on a scratch service (no
/// warm engines, so the splice path alone runs) and read back the
/// mutated snapshot.
fn mutated_corpus(g: &Graph, x: &DenseMatrix, delta: &GraphDelta) -> (Graph, DenseMatrix) {
    let service = GrainService::new();
    service
        .register_graph("scratch", g.clone(), x.clone())
        .unwrap();
    service.apply_update("scratch", delta).unwrap();
    (
        (*service.graph("scratch").unwrap()).clone(),
        (*service.features("scratch").unwrap()).clone(),
    )
}

fn config_for(kernel: Kernel, top_k: usize, parallelism: usize) -> GrainConfig {
    GrainConfig {
        kernel,
        influence_row_top_k: top_k,
        parallelism,
        ..GrainConfig::ball_d()
    }
}

fn assert_bit_identical(a: &SelectionReport, b: &SelectionReport, context: &str) {
    let (ao, bo) = (a.outcome(), b.outcome());
    assert_eq!(ao.selected, bo.selected, "{context}: selected set");
    assert_eq!(
        ao.objective_trace.len(),
        bo.objective_trace.len(),
        "{context}: trace length"
    );
    for (i, (x, y)) in ao
        .objective_trace
        .iter()
        .zip(&bo.objective_trace)
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: objective bit drift at round {i} ({x} vs {y})"
        );
    }
    assert_eq!(ao.evaluations, bo.evaluations, "{context}: evaluations");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// After `apply_update`, a warm selection is bit-identical to a cold
    /// service registered directly with the mutated corpus — across the
    /// paper's kernels, with and without top-k row truncation, and
    /// regardless of thread count.
    #[test]
    fn apply_update_is_bit_identical_to_cold_rebuild(
        seed in 0u64..500,
        nodes in 24usize..56,
    ) {
        let (g, x) = corpus(nodes, seed);
        let delta = mutation(&g, seed ^ 0xd1f7, seed % 2 == 0);
        let (g2, x2) = mutated_corpus(&g, &x, &delta);
        for kernel in [
            Kernel::SymNorm { k: 2 },
            Kernel::RandomWalk { k: 2 },
            Kernel::Ppr { k: 2, alpha: 0.15 },
        ] {
            for top_k in [0usize, 8] {
                for parallelism in [1usize, 2, 7] {
                    let config = config_for(kernel, top_k, parallelism);
                    let request =
                        SelectionRequest::new("live", config, Budget::Fixed(6));

                    let live = GrainService::new();
                    live.register_graph("live", g.clone(), x.clone()).unwrap();
                    live.select(&request).unwrap(); // warm the engine on epoch 0
                    let report = live.apply_update("live", &delta).unwrap();
                    prop_assert_eq!(report.epoch, 1);
                    prop_assert_eq!(report.engines_patched(), 1);
                    let patched = live.select(&request).unwrap();
                    // The patched engine must actually serve the answer.
                    prop_assert_eq!(patched.pool_event, PoolEvent::Hit);
                    prop_assert_eq!(patched.artifact_builds.propagation_builds, 0);
                    prop_assert_eq!(patched.artifact_builds.influence_builds, 0);

                    let cold = GrainService::new();
                    cold.register_graph("live", g2.clone(), x2.clone()).unwrap();
                    let reference = cold.select(&request).unwrap();
                    assert_bit_identical(
                        &patched,
                        &reference,
                        &format!("{kernel:?} top_k={top_k} par={parallelism}"),
                    );
                }
            }
        }
    }

    /// Deleting a batch of edges and reinserting them (same weights) in a
    /// later delta returns the corpus to its original adjacency — and the
    /// twice-patched engine to bit-identical selections.
    #[test]
    fn delete_then_reinsert_round_trips(seed in 0u64..500, nodes in 30usize..60) {
        let (g, x) = corpus(nodes, seed);
        // Pick three live edges deterministically.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 0..nodes as u32 {
            let (cols, _) = g.adjacency().row(v as usize);
            if let Some(&u) = cols.iter().find(|&&u| u > v) {
                edges.push((v, u));
                if edges.len() == 3 {
                    break;
                }
            }
        }
        if edges.len() < 3 {
            return Ok(()); // degenerate graph draw; skip the case
        }

        let request = SelectionRequest::new(
            "g",
            config_for(Kernel::RandomWalk { k: 2 }, 8, 0),
            Budget::Fixed(6),
        );
        let service = GrainService::new();
        service.register_graph("g", g.clone(), x).unwrap();
        let before = service.select(&request).unwrap();

        let mut del = GraphDelta::new();
        let mut re = GraphDelta::new();
        for &(v, u) in &edges {
            del = del.delete_edge(v, u);
            re = re.insert_edge(v, u); // generator edges carry weight 1.0
        }
        service.apply_update("g", &del).unwrap();
        let report = service.apply_update("g", &re).unwrap();
        prop_assert_eq!(report.epoch, 2);

        let restored = service.graph("g").unwrap();
        prop_assert_eq!(
            restored.adjacency(),
            g.adjacency(),
            "round-trip must restore the adjacency exactly"
        );
        let after = service.select(&request).unwrap();
        prop_assert_eq!(after.pool_event, PoolEvent::Hit);
        assert_bit_identical(&before, &after, "delete/reinsert round-trip");
    }
}

/// A feature-only delta leaves the transition untouched: no influence
/// rows are re-walked, yet propagation dirties the k-hop ball of the
/// overwritten rows and the selection matches a cold rebuild.
#[test]
fn feature_only_delta_skips_influence_rewalk() {
    let (g, x) = corpus(90, 11);
    let request = SelectionRequest::new(
        "g",
        config_for(Kernel::SymNorm { k: 2 }, 0, 0),
        Budget::Fixed(6),
    );
    let service = GrainService::new();
    service.register_graph("g", g.clone(), x.clone()).unwrap();
    service.select(&request).unwrap();

    let row: Vec<f32> = (0..FEATURE_DIM).map(|j| 0.9 - j as f32 * 0.1).collect();
    let delta = GraphDelta::new().set_features(17, row.clone());
    let report = service.apply_update("g", &delta).unwrap();
    assert_eq!(report.engines_patched(), 1);
    assert_eq!(report.patched[0].dirty_influence, 0);
    assert!(report.patched[0].dirty_propagation > 0);
    let patched = service.select(&request).unwrap();

    let mut x2 = x;
    x2.row_mut(17).copy_from_slice(&row);
    let cold = GrainService::new();
    cold.register_graph("g", g, x2).unwrap();
    let reference = cold.select(&request).unwrap();
    assert_bit_identical(&patched, &reference, "feature-only delta");
}

/// Every way a corpus enters the service holds it to one policy: a
/// non-finite feature, or a non-finite or non-positive edge weight, is
/// refused as `InvalidCorpus` — at register (the id stays unregistered),
/// at replace (the epoch stays put) and in a delta.
#[test]
fn ingress_refuses_non_finite_features_and_bad_weights_everywhere() {
    let (g, x) = corpus(40, 3);
    let service = GrainService::new();
    service
        .register_graph("live", g.clone(), x.clone())
        .unwrap();

    let edges: Vec<(u32, u32, f32)> = g
        .adjacency()
        .iter_triplets()
        .filter(|&(u, v, _)| u < v)
        .collect();
    let mut bad: Vec<(&str, Graph, DenseMatrix)> = Vec::new();
    for (what, value) in [
        ("NaN feature", f32::NAN),
        ("+inf feature", f32::INFINITY),
        ("-inf feature", f32::NEG_INFINITY),
    ] {
        let mut y = x.clone();
        y.set(7, 2, value);
        bad.push((what, g.clone(), y));
    }
    for (what, weight) in [("NaN weight", f32::NAN), ("negative weight", -1.0)] {
        let mut e = edges.clone();
        e[0].2 = weight;
        bad.push((what, Graph::from_weighted_edges(40, e), x.clone()));
    }
    for (what, graph, features) in bad {
        let err = service
            .register_graph("fresh", graph.clone(), features.clone())
            .unwrap_err();
        assert!(
            matches!(err, GrainError::InvalidCorpus { .. }),
            "register, {what}: {err}"
        );
        assert!(
            !service.graphs().contains(&"fresh".to_string()),
            "register, {what}: the corpus was registered"
        );
        let err = service.replace_graph("live", graph, features).unwrap_err();
        assert!(
            matches!(err, GrainError::InvalidCorpus { .. }),
            "replace, {what}: {err}"
        );
        assert_eq!(service.epoch("live").unwrap(), 0, "replace, {what}");
    }

    let (u, v) = (0..40u32)
        .flat_map(|u| (u + 1..40).map(move |v| (u, v)))
        .find(|&(u, v)| !has_edge(&g, u, v))
        .expect("a sparse corpus has an absent edge");
    for (what, delta) in [
        (
            "NaN feature",
            GraphDelta::new().set_features(7, vec![f32::NAN; FEATURE_DIM]),
        ),
        (
            "+inf feature",
            GraphDelta::new().set_features(7, vec![f32::INFINITY; FEATURE_DIM]),
        ),
        (
            "-inf feature",
            GraphDelta::new().set_features(7, vec![f32::NEG_INFINITY; FEATURE_DIM]),
        ),
        (
            "NaN weight",
            GraphDelta::new().insert_weighted(u, v, f32::NAN),
        ),
        ("zero weight", GraphDelta::new().insert_weighted(u, v, 0.0)),
        (
            "negative weight",
            GraphDelta::new().insert_weighted(u, v, -1.0),
        ),
    ] {
        let err = service.apply_update("live", &delta).unwrap_err();
        assert!(
            matches!(err, GrainError::InvalidCorpus { .. }),
            "delta, {what}: {err}"
        );
        assert_eq!(service.epoch("live").unwrap(), 0, "delta, {what}");
    }
    // The valid corpus still registers and replaces.
    service
        .register_graph("fresh", g.clone(), x.clone())
        .unwrap();
    assert_eq!(service.replace_graph("live", g, x).unwrap(), 1);
}

/// Epoch semantics under the scheduler: selections queued (and coalesced)
/// before an `apply_update` lands still complete, and everything that
/// *executes* after the flip is bit-identical to a cold service over the
/// mutated corpus — one consistent snapshot, never a torn mix.
#[test]
fn scheduled_selections_resolve_consistently_across_epoch_flip() {
    let (g, x) = corpus(80, 21);
    let service = std::sync::Arc::new(GrainService::new());
    service
        .register_graph("live", g.clone(), x.clone())
        .unwrap();
    let request = SelectionRequest::new(
        "live",
        config_for(Kernel::RandomWalk { k: 2 }, 8, 0),
        Budget::Fixed(7),
    );
    let scheduler = Scheduler::new(
        std::sync::Arc::clone(&service),
        SchedulerConfig {
            workers: 2,
            start_paused: true,
            ..SchedulerConfig::default()
        },
    );

    // Two identical submissions on epoch 0 coalesce onto one slot while
    // dispatch is paused; the update then flips the corpus to epoch 1
    // before any work runs.
    let first = scheduler.submit(request.clone()).unwrap();
    let twin = scheduler.submit(request.clone()).unwrap();
    let report = service
        .apply_update(
            "live",
            &GraphDelta::new().insert_edge(2, 71).delete_edge_first(&g),
        )
        .unwrap();
    assert_eq!(report.epoch, 1);
    // A post-flip submission keys on epoch 1 and must not join the
    // epoch-0 pair's slot.
    let late = scheduler.submit(request.clone()).unwrap();
    scheduler.resume();

    let a = first.wait().unwrap();
    let b = twin.wait().unwrap();
    let c = late.wait().unwrap();
    assert_eq!(
        scheduler.stats().coalesced,
        1,
        "only the epoch-0 twins coalesce"
    );

    // Everything executed after the flip: all three match the cold
    // oracle over the mutated corpus.
    let cold = GrainService::new();
    cold.register_graph(
        "live",
        (*service.graph("live").unwrap()).clone(),
        (*service.features("live").unwrap()).clone(),
    )
    .unwrap();
    let reference = cold.select(&request).unwrap();
    for (label, got) in [("first", &a), ("twin", &b), ("late", &c)] {
        assert_bit_identical(got, &reference, label);
    }
}

trait DeltaTestExt {
    fn delete_edge_first(self, g: &Graph) -> Self;
}

impl DeltaTestExt for GraphDelta {
    /// Deletes the first edge of node 0 (present in every generated
    /// corpus used here).
    fn delete_edge_first(self, g: &Graph) -> Self {
        let (cols, _) = g.adjacency().row(0);
        self.delete_edge(0, cols[0])
    }
}
