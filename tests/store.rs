//! The on-disk artifact store: codec round-trips, corruption handling,
//! and the warm-start contract.
//!
//! The store's contract has three clauses, each driven end-to-end here:
//!
//! 1. **Bit-identity** — an artifact loaded from disk is byte-for-byte
//!    the artifact that was saved, and a service that warm-starts from
//!    the store answers selection requests bit-identically to the cold
//!    build it skipped (across kernels, truncation, and thread counts).
//! 2. **Corruption is typed, never wrong** — any damaged file (truncated,
//!    wrong magic, flipped payload byte, foreign codec version) loads as
//!    `GrainError::StoreCorrupt`, and a service facing such a file falls
//!    through to a cold build instead of crashing or serving bad data.
//! 3. **Epochs are exact** — artifacts persisted for epoch `e` are never
//!    loaded for epoch `e+1`: `apply_update` re-persists patched
//!    artifacts under the new epoch's content address and retires the
//!    old epoch's files.

use grain::core::store::ArtifactKind;
use grain::influence::walk::kernel_power_weights;
use grain::prelude::*;
use grain_graph::{generators, transition_matrix};
use proptest::prelude::*;
use std::fs;
use std::path::Path;

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

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every `.grain` file under `dir`, sorted for determinism.
fn grain_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "grain"))
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 18, ..ProptestConfig::default() })]

    /// Rows and index artifacts round-trip bit-identically for every
    /// kernel family, with and without per-row truncation, at any worker
    /// count used to build them.
    #[test]
    fn rows_and_index_round_trip_across_kernels(
        n in 20usize..90,
        seed in 0u64..500,
        kernel_pick in 0usize..3,
        top_k in 0usize..8,
        threads in 1usize..4,
    ) {
        let kernel = [
            Kernel::SymNorm { k: 2 },
            Kernel::RandomWalk { k: 3 },
            Kernel::Ppr { k: 2, alpha: 0.15 },
        ][kernel_pick];
        let (g, _) = corpus(n, seed);
        let t = transition_matrix(&g, kernel.transition_kind(), true);
        let weights = kernel_power_weights(kernel);
        let rows =
            InfluenceRows::compute_weighted(&t, &weights, 1e-4, top_k, threads, &|| false)
                .unwrap();
        let index = ActivationIndex::build(&rows, ThetaRule::RelativeToRowMax(0.3), 1);

        let scratch = ScratchDir::new("rt");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let addr = ContentAddress {
            graph_fingerprint: seed.wrapping_mul(0x9e3779b97f4a7c15),
            epoch: 0,
            artifact_fingerprint: format!("k{kernel_pick}-t{top_k}"),
        };
        store.save_rows(&addr, &rows).unwrap();
        store.save_index(&addr, &index).unwrap();

        let loaded = store.load_rows(&addr).unwrap().unwrap();
        prop_assert_eq!(loaded.offsets(), rows.offsets());
        prop_assert_eq!(loaded.cols(), rows.cols());
        prop_assert_eq!(bits(loaded.vals()), bits(rows.vals()));
        prop_assert_eq!(loaded.k(), rows.k());
        prop_assert_eq!(loaded.num_nodes(), rows.num_nodes());

        let loaded = store.load_index(&addr).unwrap().unwrap();
        prop_assert_eq!(loaded.offsets(), index.offsets());
        prop_assert_eq!(loaded.items(), index.items());
        prop_assert_eq!(loaded.theta().to_bits(), index.theta().to_bits());
        prop_assert_eq!(loaded.k(), index.k());
    }

    /// Dense propagation payloads (arbitrary shapes and values, with a
    /// power ladder) round-trip bit-identically.
    #[test]
    fn propagation_round_trips_bit_identically(
        rows in 1usize..60,
        cols in 1usize..12,
        levels in 0usize..3,
        seed in 0u64..500,
    ) {
        let fill = |salt: u64| {
            let mut m = DenseMatrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    let h = (r as u64 * 31 + c as u64 * 7 + seed * 13 + salt)
                        .wrapping_mul(0x9e3779b97f4a7c15);
                    m.set(r, c, (h % 1000) as f32 * 1e-3 - 0.5);
                }
            }
            m
        };
        let value = fill(0);
        let ladder: Vec<DenseMatrix> = (0..levels).map(|l| fill(l as u64 + 1)).collect();
        let ladder_refs: Vec<&DenseMatrix> = ladder.iter().collect();

        let scratch = ScratchDir::new("rt-prop");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let addr = ContentAddress {
            graph_fingerprint: seed + 1,
            epoch: 3,
            artifact_fingerprint: "prop".to_string(),
        };
        store.save_propagation(&addr, &value, &ladder_refs).unwrap();
        let (lv, ll) = store.load_propagation(&addr).unwrap().unwrap();
        prop_assert_eq!(lv.shape(), value.shape());
        prop_assert_eq!(bits(lv.as_slice()), bits(value.as_slice()));
        prop_assert_eq!(ll.len(), ladder.len());
        for (a, b) in ll.iter().zip(&ladder) {
            prop_assert_eq!(a.shape(), b.shape());
            prop_assert_eq!(bits(a.as_slice()), bits(b.as_slice()));
        }
    }
}

#[test]
fn every_corruption_is_a_typed_error_not_a_panic() {
    let (g, _) = corpus(60, 5);
    let kernel = Kernel::SymNorm { k: 2 };
    let t = transition_matrix(&g, kernel.transition_kind(), true);
    let rows =
        InfluenceRows::compute_weighted(&t, &kernel_power_weights(kernel), 1e-4, 0, 0, &|| false)
            .unwrap();
    let scratch = ScratchDir::new("corrupt");
    let store = ArtifactStore::open(scratch.path()).unwrap();
    let addr = ContentAddress {
        graph_fingerprint: 42,
        epoch: 0,
        artifact_fingerprint: "c".to_string(),
    };
    store.save_rows(&addr, &rows).unwrap();
    let path = store.path_for(&addr, ArtifactKind::InfluenceRows);
    let pristine = fs::read(&path).unwrap();

    let corruptions: Vec<(&str, Vec<u8>)> = vec![
        ("truncated", pristine[..pristine.len() / 2].to_vec()),
        ("bad magic", {
            let mut b = pristine.clone();
            b[0] ^= 0xff;
            b
        }),
        ("flipped payload byte", {
            let mut b = pristine.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            b
        }),
        ("empty file", Vec::new()),
    ];
    for (what, bytes) in corruptions {
        fs::write(&path, &bytes).unwrap();
        match store.load_rows(&addr) {
            Err(GrainError::StoreCorrupt { .. }) => {}
            other => panic!("{what}: expected StoreCorrupt, got {other:?}"),
        }
    }
    assert!(store.stats().corruptions >= 4);

    // A pristine rewrite loads again.
    fs::write(&path, &pristine).unwrap();
    assert!(store.load_rows(&addr).unwrap().is_some());
}

/// The headline contract: a fresh process pointed at the same store
/// directory answers without rebuilding any persisted artifact, and the
/// answer is bit-identical to the cold run that populated the store.
#[test]
fn restart_warm_starts_from_disk_bit_identically() {
    let scratch = ScratchDir::new("restart");
    let (g, x) = corpus(250, 7);
    let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(10));

    let cold = {
        let service = GrainService::new()
            .with_artifact_store(scratch.path())
            .unwrap();
        service.register_graph("g", g.clone(), x.clone()).unwrap();
        let report = service.select(&request).unwrap();
        assert!(report.artifact_builds.propagation_builds > 0);
        assert!(report.artifact_builds.influence_builds > 0);
        assert!(report.artifact_builds.index_builds > 0);
        let stats = service.store_stats().unwrap();
        assert_eq!(stats.saves, 3, "one file per persisted stage");
        assert!(stats.bytes_written > 0);
        report
    };
    assert_eq!(grain_files(scratch.path()).len(), 3);

    // "Restart": a brand-new service over the same corpus and directory.
    let service = GrainService::new()
        .with_artifact_store(scratch.path())
        .unwrap();
    service.register_graph("g", g, x).unwrap();
    let warm = service.select(&request).unwrap();
    // The engine object is new (a pool cold miss), but every persisted
    // stage came from disk: zero compute builds.
    assert_eq!(warm.pool_event, PoolEvent::ColdMiss);
    assert_eq!(warm.artifact_builds.propagation_builds, 0);
    assert_eq!(warm.artifact_builds.influence_builds, 0);
    assert_eq!(warm.artifact_builds.index_builds, 0);
    assert_eq!(warm.outcome().selected, cold.outcome().selected);
    assert_eq!(warm.outcome().sigma, cold.outcome().sigma);
    assert_eq!(
        warm.outcome().objective_trace,
        cold.outcome().objective_trace
    );
    let stats = service.store_stats().unwrap();
    assert_eq!(stats.loads, 3);
    assert_eq!(
        stats.saves, 0,
        "freshly loaded artifacts must not be re-persisted"
    );

    // And a second request on the restarted service is an ordinary pool
    // hit that touches neither compute nor disk.
    let hit = service.select(&request).unwrap();
    assert!(hit.fully_warm());
    assert_eq!(service.store_stats().unwrap().loads, 3);
    assert_eq!(hit.outcome().selected, warm.outcome().selected);
}

/// Warm starts hold across kernels, θ rules, truncation, and thread
/// counts — the full artifact-fingerprint space, not just the default
/// config.
#[test]
fn restart_is_bit_identical_across_configs() {
    let base = GrainConfig::ball_d();
    let configs = [
        GrainConfig {
            kernel: Kernel::RandomWalk { k: 3 },
            ..base
        },
        GrainConfig {
            theta: ThetaRule::RelativeToRowMax(0.5),
            influence_row_top_k: 16,
            ..base
        },
        GrainConfig {
            parallelism: 3,
            ..base
        },
    ];
    for (i, cfg) in configs.iter().enumerate() {
        let scratch = ScratchDir::new("restart-cfg");
        let (g, x) = corpus(150, 20 + i as u64);
        let request = SelectionRequest::new("g", *cfg, Budget::Fixed(8));
        let cold = {
            let service = GrainService::new()
                .with_artifact_store(scratch.path())
                .unwrap();
            service.register_graph("g", g.clone(), x.clone()).unwrap();
            service.select(&request).unwrap()
        };
        let service = GrainService::new()
            .with_artifact_store(scratch.path())
            .unwrap();
        service.register_graph("g", g, x).unwrap();
        let warm = service.select(&request).unwrap();
        assert_eq!(
            warm.artifact_builds.propagation_builds, 0,
            "config {i} re-propagated"
        );
        assert_eq!(
            warm.artifact_builds.influence_builds, 0,
            "config {i} re-walked"
        );
        assert_eq!(
            warm.outcome().selected,
            cold.outcome().selected,
            "config {i}"
        );
        assert_eq!(
            warm.outcome().objective_trace,
            cold.outcome().objective_trace,
            "config {i}"
        );
    }
}

/// A service that finds only corrupt files cold-builds, answers
/// correctly, and heals the store by re-persisting what it built.
#[test]
fn corrupt_store_falls_back_to_cold_build_and_heals() {
    let scratch = ScratchDir::new("fallback");
    let (g, x) = corpus(120, 9);
    let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(6));
    let cold = {
        let service = GrainService::new()
            .with_artifact_store(scratch.path())
            .unwrap();
        service.register_graph("g", g.clone(), x.clone()).unwrap();
        service.select(&request).unwrap()
    };
    // Flip a payload byte in every persisted file.
    for path in grain_files(scratch.path()) {
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
    }
    let service = GrainService::new()
        .with_artifact_store(scratch.path())
        .unwrap();
    service.register_graph("g", g.clone(), x.clone()).unwrap();
    let rebuilt = service.select(&request).unwrap();
    assert!(rebuilt.artifact_builds.propagation_builds > 0);
    assert_eq!(rebuilt.outcome().selected, cold.outcome().selected);
    assert_eq!(
        rebuilt.outcome().objective_trace,
        cold.outcome().objective_trace
    );
    let stats = service.store_stats().unwrap();
    assert!(stats.corruptions >= 3, "stats: {stats:?}");
    assert_eq!(stats.saves, 3, "the rebuilt artifacts heal the store");

    // The healed files answer the next restart from disk again.
    let service = GrainService::new()
        .with_artifact_store(scratch.path())
        .unwrap();
    service.register_graph("g", g, x).unwrap();
    let healed = service.select(&request).unwrap();
    assert_eq!(healed.artifact_builds.propagation_builds, 0);
    assert_eq!(service.store_stats().unwrap().loads, 3);
    assert_eq!(healed.outcome().selected, cold.outcome().selected);
}

/// Epoch exactness: after a delta lands, the store serves the *patched*
/// epoch's artifacts — a persisted pre-delta artifact is never loaded
/// for the post-delta epoch — and the retired epoch's files are removed.
#[test]
fn post_delta_epoch_never_loads_pre_delta_artifacts() {
    let scratch = ScratchDir::new("epoch");
    let (g, x) = corpus(160, 11);
    let delta = GraphDelta::new()
        .insert_edge(0, 120)
        .set_features(3, vec![0.9, 0.1, 0.0, 0.4, 0.0, 0.2]);
    let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(8));

    let service = GrainService::with_capacity(4)
        .with_artifact_store(scratch.path())
        .unwrap();
    service.register_graph("g", g.clone(), x.clone()).unwrap();
    service.select(&request).unwrap(); // persists epoch-0 artifacts
    let e0_files = grain_files(scratch.path());
    assert_eq!(e0_files.len(), 3);
    assert!(e0_files
        .iter()
        .all(|p| p.file_name().unwrap().to_string_lossy().contains("-e0-")));

    service.apply_update("g", &delta).unwrap();
    // Default retention (1 epoch): the e0 files are gone, replaced by
    // the patched artifacts under the e1 address.
    let e1_files = grain_files(scratch.path());
    assert_eq!(e1_files.len(), 3, "files now: {e1_files:?}");
    assert!(e1_files
        .iter()
        .all(|p| p.file_name().unwrap().to_string_lossy().contains("-e1-")));

    // Force the next request through the store.
    service.pool().clear();
    let loads_before = service.store_stats().unwrap().loads;
    let from_disk = service.select(&request).unwrap();
    assert_eq!(from_disk.artifact_builds.propagation_builds, 0);
    assert_eq!(from_disk.artifact_builds.influence_builds, 0);
    assert_eq!(from_disk.artifact_builds.index_builds, 0);
    assert_eq!(service.store_stats().unwrap().loads, loads_before + 3);

    // Oracle: the same history replayed with no store at all. Any
    // stale-epoch load would break this bit-identity.
    let oracle = GrainService::with_capacity(4);
    oracle.register_graph("g", g, x).unwrap();
    oracle.select(&request).unwrap();
    oracle.apply_update("g", &delta).unwrap();
    let expected = oracle.select(&request).unwrap();
    assert_eq!(from_disk.outcome().selected, expected.outcome().selected);
    assert_eq!(
        from_disk.outcome().objective_trace,
        expected.outcome().objective_trace
    );
}

/// A checkout can re-key its engine through `set_config`. An update that
/// patches the engine must persist its artifacts under the engine's own
/// config, not under the pool key it sits in; otherwise a later request
/// for the pool key's config loads the re-keyed engine's activation index
/// from disk. Both variants must equal a store-less oracle: the checkout
/// released before the update, and held across it.
#[test]
fn rekeyed_engine_persists_under_its_own_address_across_an_update() {
    for hold in [false, true] {
        let scratch = ScratchDir::new("rekey");
        let (g, x) = corpus(160, 11);
        let delta = GraphDelta::new().insert_edge(0, 120);
        let ball_d = GrainConfig::ball_d();
        let rekeyed = GrainConfig {
            theta: ThetaRule::RelativeToRowMax(0.6),
            ..ball_d
        };
        let request = SelectionRequest::new("g", ball_d, Budget::Fixed(8));

        let service = GrainService::with_capacity(4)
            .with_artifact_store(scratch.path())
            .unwrap();
        service.register_graph("g", g.clone(), x.clone()).unwrap();
        let (checkout, _) = service.engine("g", &ball_d).unwrap();
        {
            let mut engine = checkout.lock();
            engine.set_config(rekeyed).unwrap();
            engine.select(&(0..160).collect::<Vec<u32>>(), 8);
        }
        // `then_some` drops the checkout right here when `hold` is false.
        let held = hold.then_some(checkout);
        service.apply_update("g", &delta).unwrap();
        drop(held);
        service.pool().clear();
        let answered = service.select(&request).unwrap();

        let oracle = GrainService::with_capacity(4);
        oracle.register_graph("g", g, x).unwrap();
        oracle.apply_update("g", &delta).unwrap();
        let expected = oracle.select(&request).unwrap();
        assert_eq!(
            answered.outcome().selected,
            expected.outcome().selected,
            "checkout held across the update: {hold}"
        );
        assert_eq!(
            answered.outcome().objective_trace,
            expected.outcome().objective_trace,
            "checkout held across the update: {hold}"
        );
    }
}

/// A store directory that vanishes under a live service fails every
/// later write. The failures are counted, and answers are unaffected:
/// the update's patched engine and a cold rebuild both still equal a
/// store-less oracle.
#[test]
fn failed_writes_are_counted_and_answers_hold() {
    let scratch = ScratchDir::new("vanished");
    let (g, x) = corpus(160, 13);
    let delta = GraphDelta::new().insert_edge(2, 150);
    let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(8));
    let store_dir = scratch.path().join("store");

    let service = GrainService::with_capacity(4)
        .with_artifact_store(&store_dir)
        .unwrap();
    service.register_graph("g", g.clone(), x.clone()).unwrap();
    service.select(&request).unwrap();
    assert_eq!(service.store_stats().unwrap().save_failures, 0);
    fs::remove_dir_all(&store_dir).unwrap();

    service.apply_update("g", &delta).unwrap();
    let after_update = service.store_stats().unwrap().save_failures;
    assert!(after_update > 0, "the update's writes failed silently");
    let patched = service.select(&request).unwrap();
    service.pool().clear();
    let rebuilt = service.select(&request).unwrap();
    assert!(rebuilt.artifact_builds.propagation_builds > 0);
    let stats = service.store_stats().unwrap();
    assert!(stats.save_failures > after_update, "{stats:?}");

    let oracle = GrainService::with_capacity(4);
    oracle.register_graph("g", g, x).unwrap();
    oracle.apply_update("g", &delta).unwrap();
    let expected = oracle.select(&request).unwrap();
    for answered in [&patched, &rebuilt] {
        assert_eq!(answered.outcome().selected, expected.outcome().selected);
        assert_eq!(
            answered.outcome().objective_trace,
            expected.outcome().objective_trace
        );
    }
}

/// The scratch helper itself: tests never leak store directories.
#[test]
fn scratch_dirs_are_cleaned_up_on_drop() {
    let path = {
        let scratch = ScratchDir::new("leak-check");
        let store = ArtifactStore::open(scratch.path()).unwrap();
        let (g, _) = corpus(30, 1);
        let t = transition_matrix(&g, grain_graph::TransitionKind::Symmetric, true);
        let weights = kernel_power_weights(Kernel::SymNorm { k: 2 });
        let rows = InfluenceRows::compute_weighted(&t, &weights, 1e-4, 0, 0, &|| false).unwrap();
        let addr = ContentAddress {
            graph_fingerprint: 1,
            epoch: 0,
            artifact_fingerprint: "leak".to_string(),
        };
        store.save_rows(&addr, &rows).unwrap();
        assert!(!grain_files(scratch.path()).is_empty());
        scratch.path().to_path_buf()
    };
    assert!(!path.exists(), "scratch dir {path:?} leaked");
}
