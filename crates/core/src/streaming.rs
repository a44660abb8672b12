//! Live corpora: delta application and epoch-versioned artifact
//! maintenance.
//!
//! A registered corpus is immutable *per epoch*: engines, artifacts, and
//! in-flight requests all reference one `(graph, features)` snapshot.
//! [`GrainService::apply_update`] advances a corpus to its next epoch by
//! **patching** the resident engines' cached artifacts instead of
//! rebuilding them — turning an edit of a handful of edges on a
//! million-node corpus from a multi-second cold rebuild into a
//! millisecond-scale splice.
//!
//! # Dirty-set math
//!
//! Let `E` be the (sorted) endpoints of every inserted or deleted edge
//! and `F` the nodes whose feature rows a delta overwrites. Each §3
//! artifact is dirtied by a bounded neighborhood of the edit:
//!
//! | artifact | dirty superset | why |
//! |---|---|---|
//! | transition row `r` | `E` (random-walk), `ball₁(E)` (symmetric) | a row depends on its own adjacency row, plus (symmetric) its neighbors' degrees |
//! | `X^(k)` row `v` | `ball_k(T_d ∪ F)` | row `v` reads transition rows within `k-1` hops and feature rows within `k` hops |
//! | influence row `v` | `ball_{k-1}(T_d)` | the walk from `v` expands transition rows of nodes within `k-1` hops; features never enter |
//! | activation entries | inverted entries of dirty influence rows | `act[u]` is a per-row inversion |
//!
//! Balls are taken under the **new** adjacency, which suffices because
//! both endpoints of every deleted edge are themselves in `E`: any old
//! path from a clean node to a dirty transition row that used a deleted
//! edge already hits a dirty endpoint on its still-live prefix.
//!
//! # Bit-identity contract
//!
//! Patched artifacts are **byte-identical** to a cold build over the
//! mutated corpus: dirty rows re-run the exact per-row float paths of the
//! cold builders ([`grain_prop::propagate()`]'s SpMM row order,
//! [`grain_influence::InfluenceRows`]' scatter-gather walk), clean rows
//! are `memcpy`d, and the cheap row-local artifacts (transition rows,
//! normalized embedding rows) are recomputed by the cold builders'
//! per-row functions and spliced.
//! Tier-1 property tests assert byte equality across kernels, top-k
//! truncation, and thread counts.
//!
//! # Epochs and concurrency
//!
//! Pool keys carry the corpus epoch, so an update never mutates an
//! artifact a request might be reading: each engine is patched from the
//! artifact snapshot it last published, without its lock, the patched
//! engines are inserted under epoch `e+1` keys, the corpus pointer is
//! swapped, and in-flight requests holding epoch-`e` checkouts finish on
//! their consistent snapshot. The flip reclaims every epoch-`e` engine
//! from the pool and removes epoch `e`'s store files. The scheduler stamps the submit-time
//! epoch into its coalescing key, so selections racing an update
//! coalesce only within one corpus version and re-submissions after the
//! flip run (and re-key) on `e+1`.

use crate::engine::PatchTimings;
use crate::error::{GrainError, GrainResult};
use crate::pool::PoolKey;
use crate::service::GrainService;
use grain_graph::{apply_edge_edits, check_weight, k_hop_ball, Graph, TransitionKind};
use grain_linalg::DenseMatrix;
use std::collections::HashMap;
use std::sync::{Arc, PoisonError};
use std::time::{Duration, Instant};

/// A batch of structural and feature edits applied atomically to one
/// registered corpus — the unit of [`GrainService::apply_update`].
///
/// Edges are undirected and unweighted-by-default (weight `1.0`);
/// endpoint order does not matter. A delta must be internally consistent:
/// no duplicate edits of one edge or feature row, no self-loops, inserts
/// of live edges only if the same batch deletes them first. Validation
/// happens against the corpus snapshot inside `apply_update`; an invalid
/// delta leaves the corpus untouched.
///
/// ```
/// use grain_core::streaming::GraphDelta;
///
/// let delta = GraphDelta::new()
///     .insert_edge(3, 17)
///     .insert_weighted(4, 9, 2.5)
///     .delete_edge(3, 5)
///     .set_features(17, vec![0.1, 0.2, 0.3]);
/// assert!(!delta.is_empty());
/// assert_eq!((delta.num_inserts(), delta.num_deletes()), (2, 1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    inserts: Vec<(u32, u32, f32)>,
    deletes: Vec<(u32, u32)>,
    feature_rows: Vec<(u32, Vec<f32>)>,
}

impl GraphDelta {
    /// An empty delta; chain the builder methods to fill it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the undirected edge `{u, v}` with weight `1.0`.
    #[must_use]
    pub fn insert_edge(self, u: u32, v: u32) -> Self {
        self.insert_weighted(u, v, 1.0)
    }

    /// Inserts the undirected edge `{u, v}` with an explicit weight.
    #[must_use]
    pub fn insert_weighted(mut self, u: u32, v: u32, weight: f32) -> Self {
        self.inserts.push((u, v, weight));
        self
    }

    /// Deletes the undirected edge `{u, v}`.
    #[must_use]
    pub fn delete_edge(mut self, u: u32, v: u32) -> Self {
        self.deletes.push((u, v));
        self
    }

    /// Overwrites node `v`'s feature row. The row must match the corpus
    /// feature width at application time.
    #[must_use]
    pub fn set_features(mut self, v: u32, row: Vec<f32>) -> Self {
        self.feature_rows.push((v, row));
        self
    }

    /// True when the delta contains no edits at all (such a delta is
    /// rejected by [`GrainService::apply_update`]).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.feature_rows.is_empty()
    }

    /// Number of edge insertions.
    pub fn num_inserts(&self) -> usize {
        self.inserts.len()
    }

    /// Number of edge deletions.
    pub fn num_deletes(&self) -> usize {
        self.deletes.len()
    }

    /// Number of feature-row overwrites.
    pub fn num_feature_rows(&self) -> usize {
        self.feature_rows.len()
    }

    /// Validates the feature-row edits against the corpus snapshot (edge
    /// edits are validated structurally by [`apply_edge_edits`]).
    fn validate_features(&self, features: &DenseMatrix) -> GrainResult<()> {
        let (n, d) = features.shape();
        let mut seen: Vec<u32> = Vec::with_capacity(self.feature_rows.len());
        for (v, row) in &self.feature_rows {
            if *v as usize >= n {
                return Err(GrainError::corpus(format!(
                    "feature row {v} out of range for a corpus of {n} nodes"
                )));
            }
            if row.len() != d {
                return Err(GrainError::corpus(format!(
                    "feature row {v} has width {}, corpus has {d}",
                    row.len()
                )));
            }
            validate_feature_row(*v as usize, row)?;
            if seen.contains(v) {
                return Err(GrainError::corpus(format!(
                    "feature row {v} is overwritten twice in one delta"
                )));
            }
            seen.push(*v);
        }
        Ok(())
    }

    /// Sorted node ids whose feature rows this delta overwrites.
    fn feature_seeds(&self) -> Vec<u32> {
        let mut seeds: Vec<u32> = self.feature_rows.iter().map(|(v, _)| *v).collect();
        seeds.sort_unstable();
        seeds
    }
}

/// The sorted dirty-row supersets of one delta under one `(transition
/// kind, depth)` — shared by every resident engine with that kernel
/// shape (see the module docs for the derivation).
#[derive(Clone, Debug)]
pub struct DirtySets {
    /// Transition rows whose values can change (`T_d`).
    pub transition: Vec<u32>,
    /// `X^(k)` rows to re-propagate (`ball_k(T_d ∪ F)`).
    pub propagation: Vec<u32>,
    /// Influence rows to re-walk (`ball_{k-1}(T_d)`).
    pub influence: Vec<u32>,
}

impl DirtySets {
    /// Computes the dirty supersets for a delta with edge-edit endpoints
    /// `endpoints` and feature-row seeds `feature_seeds`, for an engine
    /// running `kind` at propagation depth `k`. Balls expand under the
    /// *new* adjacency (`graph` is the post-splice graph).
    pub fn compute(
        graph: &Graph,
        kind: TransitionKind,
        k: usize,
        endpoints: &[u32],
        feature_seeds: &[u32],
    ) -> Self {
        let transition = match kind {
            TransitionKind::RandomWalk => endpoints.to_vec(),
            // A symmetric-normalized row also depends on its neighbors'
            // degrees, so the edit's endpoints dirty their 1-hop ball.
            TransitionKind::Symmetric => k_hop_ball(graph, endpoints, 1),
            TransitionKind::TriangleInduced => {
                unreachable!("triangle-induced engines are rebuilt cold, not patched")
            }
        };
        let mut seeds: Vec<u32> = transition
            .iter()
            .chain(feature_seeds.iter())
            .copied()
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        let propagation = k_hop_ball(graph, &seeds, k);
        let influence = if k == 0 || transition.is_empty() {
            Vec::new()
        } else {
            k_hop_ball(graph, &transition, k - 1)
        };
        Self {
            transition,
            propagation,
            influence,
        }
    }
}

/// One migrated engine in an [`EpochReport`]: which artifact fingerprint
/// it serves and how many rows each incremental patch touched.
#[derive(Clone, Debug)]
pub struct PatchSummary {
    /// The engine's artifact fingerprint (see
    /// [`crate::GrainConfig::artifact_fingerprint`]).
    pub fingerprint: String,
    /// `X^(k)` rows re-propagated.
    pub dirty_propagation: usize,
    /// Influence rows re-walked.
    pub dirty_influence: usize,
    /// Per-stage wall clock of this engine's migration.
    pub timings: PatchTimings,
}

/// What one [`GrainService::apply_update`] did: the epoch transition,
/// the delta's shape, and the per-engine patch accounting.
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// The updated graph id.
    pub graph: String,
    /// Epoch the delta was applied against.
    pub from_epoch: u64,
    /// The new current epoch (`from_epoch + 1`).
    pub epoch: u64,
    /// Edge insertions applied.
    pub edges_inserted: usize,
    /// Edge deletions applied.
    pub edges_deleted: usize,
    /// Feature rows overwritten.
    pub feature_rows_overwritten: usize,
    /// Engines patched into the new epoch (one entry each): every resident
    /// engine of the old epoch, busy or idle, but the triangle-induced.
    pub patched: Vec<PatchSummary>,
    /// Triangle-induced engines skipped, the only skip (a single edge edit
    /// can dirty every triangle count, so they rebuild cold on next use).
    pub engines_skipped_triangle: usize,
    /// Wall time spent splicing the graph/features snapshot.
    pub splice_time: Duration,
    /// Wall time spent patching engines.
    pub patch_time: Duration,
    /// Total wall time of the update.
    pub total_time: Duration,
}

impl EpochReport {
    /// Number of engines migrated to the new epoch.
    pub fn engines_patched(&self) -> usize {
        self.patched.len()
    }

    /// Largest re-propagated row count across patched engines (0 when no
    /// engine was resident) — the headline dirty-set size of the update.
    pub fn max_dirty_propagation(&self) -> usize {
        self.patched
            .iter()
            .map(|p| p.dirty_propagation)
            .max()
            .unwrap_or(0)
    }
}

impl GrainService {
    /// Applies `delta` to the registered corpus `graph_id`, advancing it
    /// one epoch and migrating every resident engine, busy or idle, by
    /// patching the artifact snapshot it last published (never waiting on
    /// its lock) in place of a cold rebuild.
    ///
    /// The patched artifacts are **byte-identical** to what a cold build
    /// over the mutated corpus would produce (see the module docs), so
    /// selections after an update are bit-for-bit the selections of a
    /// freshly registered mutated graph. In-flight requests racing the
    /// update finish on the old epoch's snapshot; requests submitted
    /// after it run on the new one.
    ///
    /// Fails with [`GrainError::UnknownGraph`] for an unregistered id and
    /// [`GrainError::InvalidCorpus`] for an inconsistent delta (endpoint
    /// out of range, self-loop, insert of a live edge, delete of a
    /// missing edge, non-finite weight or feature, duplicate edit, wrong
    /// feature width, or an empty delta). On error the corpus and every
    /// engine are untouched.
    pub fn apply_update(&self, graph_id: &str, delta: &GraphDelta) -> GrainResult<EpochReport> {
        let t0 = Instant::now();
        // One mutation at a time; selections never take this lock.
        let _update = self.update.lock().unwrap_or_else(PoisonError::into_inner);
        let (old_graph, old_features, from_epoch, old_fingerprint) = self.corpus(graph_id)?;
        if delta.is_empty() {
            return Err(GrainError::corpus("delta contains no edits"));
        }
        delta.validate_features(&old_features)?;

        // Splice the new snapshot. Both artifacts stay structurally
        // shared with the old epoch where the delta leaves them
        // untouched (feature-only deltas reuse the graph Arc and vice
        // versa).
        let (new_graph, endpoints) = if delta.inserts.is_empty() && delta.deletes.is_empty() {
            (Arc::clone(&old_graph), Vec::new())
        } else {
            let (g, endpoints) = apply_edge_edits(&old_graph, &delta.inserts, &delta.deletes)
                .map_err(|e| GrainError::corpus(e.to_string()))?;
            (Arc::new(g), endpoints)
        };
        let new_features = if delta.feature_rows.is_empty() {
            Arc::clone(&old_features)
        } else {
            let mut f = (*old_features).clone();
            for (v, row) in &delta.feature_rows {
                f.row_mut(*v as usize).copy_from_slice(row);
            }
            Arc::new(f)
        };
        let feature_seeds = delta.feature_seeds();
        // The new epoch's lineage fingerprint folds the delta into the
        // old one, so a persisted pre-delta artifact can never answer a
        // post-delta content address — even at the same epoch number on
        // a diverged history (store regression test).
        let new_fingerprint = if self.store.is_some() {
            crate::store::mix_fingerprint(old_fingerprint, delta_hash(delta))
        } else {
            0
        };
        let splice_time = t0.elapsed();

        // Migrate resident engines: per engine, compute (or reuse) the
        // dirty sets for its (transition kind, depth), patch the snapshot
        // the engine last published and park the patched engine under the
        // next epoch's key. A select running on the engine keeps its lock
        // and finishes on the old epoch.
        let t1 = Instant::now();
        let mut dirty_cache: HashMap<(TransitionKind, usize), DirtySets> = HashMap::new();
        let mut patched = Vec::new();
        let mut pending: Vec<crate::store::PendingArtifact> = Vec::new();
        let mut skipped_triangle = 0usize;
        for slot in self.pool.resident_slots_for(graph_id, from_epoch) {
            let published = slot.published().clone();
            let kernel = published.config.kernel;
            if kernel.transition_kind() == TransitionKind::TriangleInduced {
                skipped_triangle += 1;
                continue;
            }
            let shape = (kernel.transition_kind(), kernel.steps());
            let dirty = dirty_cache.entry(shape).or_insert_with(|| {
                DirtySets::compute(&new_graph, shape.0, shape.1, &endpoints, &feature_seeds)
            });
            let (next, timings) = published.patched(
                Arc::clone(&new_graph),
                Arc::clone(&new_features),
                &dirty.transition,
                &dirty.propagation,
                &dirty.influence,
            );
            let built = next.stats().delta_since(&published.stats);
            // The patched engine is re-keyed by its own config, which may
            // differ from the key it sat under (a checkout can re-key an
            // engine through `set_config`). Its patched artifacts are
            // re-persisted under the new epoch's address — patched ≡
            // cold-over-mutated-graph byte-for-byte, so the store stays
            // warm across the flip. Taken here as shared handles (we own
            // `next`), encoded and written after the corpus pointer flips.
            let fingerprint = next.config().artifact_fingerprint();
            if self.store.is_some() {
                pending.extend(next.pending_built(&built, new_fingerprint, from_epoch + 1));
            }
            self.pool.insert_ready(
                PoolKey {
                    graph: graph_id.to_string(),
                    epoch: from_epoch + 1,
                    fingerprint: fingerprint.clone(),
                },
                next,
            );
            patched.push(PatchSummary {
                fingerprint,
                dirty_propagation: dirty.propagation.len(),
                dirty_influence: dirty.influence.len(),
                timings,
            });
        }
        let patch_time = t1.elapsed();

        // Flip the corpus pointer. New requests now observe epoch e+1
        // and find the patched engines warm under their keys; the old
        // epoch's engines and store files are reclaimed. The patched
        // epoch's artifacts are written after the flip. A failed write
        // counts in `StoreStats::save_failures` and costs only a restart's
        // cold build.
        self.flip_epoch(graph_id, new_graph, new_features, new_fingerprint)?;
        if let Some(store) = &self.store {
            for artifact in pending {
                let _ = store.commit(artifact);
            }
        }

        Ok(EpochReport {
            graph: graph_id.to_string(),
            from_epoch,
            epoch: from_epoch + 1,
            edges_inserted: delta.num_inserts(),
            edges_deleted: delta.num_deletes(),
            feature_rows_overwritten: delta.num_feature_rows(),
            patched,
            engines_skipped_triangle: skipped_triangle,
            splice_time,
            patch_time,
            total_time: t0.elapsed(),
        })
    }
}

/// The ingress policy for a corpus entering the service whole (register
/// or replace): one feature row per node, every feature finite, and every
/// stored edge weight finite and positive — the weight rule
/// [`apply_edge_edits`] holds each delta's inserts to. A delta's feature
/// rows go through the same per-row check ([`validate_feature_row`]).
pub(crate) fn validate_corpus(graph: &Graph, features: &DenseMatrix) -> GrainResult<()> {
    if features.rows() != graph.num_nodes() {
        return Err(GrainError::FeatureShape {
            feature_rows: features.rows(),
            num_nodes: graph.num_nodes(),
        });
    }
    for v in 0..features.rows() {
        validate_feature_row(v, features.row(v))?;
    }
    for (u, v, w) in graph.adjacency().iter_triplets() {
        check_weight(u, v, w).map_err(|e| GrainError::corpus(e.to_string()))?;
    }
    Ok(())
}

/// Rejects feature row `v` if it holds a non-finite value.
fn validate_feature_row(v: usize, row: &[f32]) -> GrainResult<()> {
    match row.iter().find(|x| !x.is_finite()) {
        Some(bad) => Err(GrainError::corpus(format!(
            "feature row {v} contains non-finite value {bad}"
        ))),
        None => Ok(()),
    }
}

/// Deterministic content hash of a delta's edits, folded into the corpus
/// lineage fingerprint by [`crate::store::mix_fingerprint`]. Length
/// prefixes keep distinct edit lists from colliding by concatenation.
fn delta_hash(delta: &GraphDelta) -> u64 {
    let mut h = crate::codec::Fnv64::new();
    h.write_u64(delta.inserts.len() as u64);
    for &(u, v, w) in &delta.inserts {
        h.write_u32(u);
        h.write_u32(v);
        h.write_f32(w);
    }
    h.write_u64(delta.deletes.len() as u64);
    for &(u, v) in &delta.deletes {
        h.write_u32(u);
        h.write_u32(v);
    }
    h.write_u64(delta.feature_rows.len() as u64);
    for (v, row) in &delta.feature_rows {
        h.write_u32(*v);
        h.write_u64(row.len() as u64);
        for &x in row {
            h.write_f32(x);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrainConfig;
    use crate::service::{Budget, SelectionRequest};
    use grain_graph::generators;

    fn corpus(n: usize, seed: u64) -> (Graph, DenseMatrix) {
        let g = generators::erdos_renyi_gnm(n, 3 * n, seed);
        let mut x = DenseMatrix::zeros(n, 6);
        for v in 0..n {
            for j in 0..6 {
                x.set(v, j, ((v * 31 + j * 7 + seed as usize) % 13) as f32 * 0.1);
            }
        }
        (g, x)
    }

    #[test]
    fn delta_builder_accumulates_edits() {
        let d = GraphDelta::new()
            .insert_edge(0, 1)
            .delete_edge(2, 3)
            .set_features(4, vec![1.0]);
        assert_eq!(
            (d.num_inserts(), d.num_deletes(), d.num_feature_rows()),
            (1, 1, 1)
        );
        assert!(!d.is_empty());
        assert!(GraphDelta::new().is_empty());
    }

    #[test]
    fn delta_hash_is_pinned() {
        // Folded into lineage fingerprints that name store files: changing
        // this value requires bumping `store::CODEC_VERSION`.
        let d = GraphDelta::new()
            .insert_weighted(0, 3, 0.75)
            .delete_edge(1, 2)
            .set_features(2, vec![1.0, -2.0]);
        assert_eq!(delta_hash(&d), 0x6fc8_d4ca_d0b7_136c);
    }

    #[test]
    fn apply_update_bumps_epoch_and_patches_resident_engines() {
        let (g, x) = corpus(120, 3);
        let service = GrainService::with_capacity(4);
        service.register_graph("g", g, x).unwrap();
        assert_eq!(service.epoch("g").unwrap(), 0);
        let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(6));
        service.select(&request).unwrap();

        let report = service
            .apply_update("g", &GraphDelta::new().insert_edge(0, 100))
            .unwrap();
        assert_eq!((report.from_epoch, report.epoch), (0, 1));
        assert_eq!(service.epoch("g").unwrap(), 1);
        assert_eq!(report.engines_patched(), 1);
        assert!(report.max_dirty_propagation() > 0);

        // The patched engine answers the post-update request warm: no
        // propagation or influence rebuild.
        let after = service.select(&request).unwrap();
        assert_eq!(after.pool_event, crate::pool::PoolEvent::Hit);
        assert_eq!(after.artifact_builds.propagation_builds, 0);
        assert_eq!(after.artifact_builds.influence_builds, 0);
    }

    /// Runs `body` while another thread holds the lock of the engine
    /// `service.engine(graph, config)` checks out.
    fn with_engine_held<R>(
        service: &GrainService,
        graph: &str,
        config: &GrainConfig,
        body: impl FnOnce() -> R,
    ) -> R {
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                let (checkout, _) = service.engine(graph, config).unwrap();
                let guard = checkout.lock();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                drop(guard);
            });
            held_rx.recv().unwrap();
            let out = body();
            release_tx.send(()).unwrap();
            out
        })
    }

    #[test]
    fn a_busy_engine_is_patched_from_its_published_snapshot() {
        let (g, x) = corpus(150, 9);
        let delta = GraphDelta::new().insert_edge(1, 140).delete_edge_of(&g);
        // No diversity term: a patch migrates every stage this config
        // reads, so the first request after it builds nothing.
        let config = GrainConfig {
            variant: crate::config::GrainVariant::NoDiversity,
            ..GrainConfig::ball_d()
        };
        let request = SelectionRequest::new("g", config, Budget::Fixed(8));
        let service = GrainService::with_capacity(4);
        service.register_graph("g", g.clone(), x.clone()).unwrap();
        service.select(&request).unwrap();

        let report = with_engine_held(&service, "g", &config, || {
            service.apply_update("g", &delta).unwrap()
        });
        assert_eq!(report.engines_patched(), 1, "the held engine is patched");

        let after = service.select(&request).unwrap();
        assert_eq!(after.pool_event, crate::pool::PoolEvent::Hit);
        assert_eq!(after.artifact_builds.total_builds(), 0);
        let (g2, _) = apply_edge_edits(&g, &delta.inserts, &delta.deletes).unwrap();
        let cold = GrainService::with_capacity(1);
        cold.register_graph("g", g2, x).unwrap();
        let cold = cold.select(&request).unwrap();
        assert_eq!(after.outcome().selected, cold.outcome().selected);
        assert_eq!(after.outcome().objective_trace, cold.outcome().objective_trace);
    }

    #[test]
    fn late_commits_leave_no_superseded_files_or_engines() {
        // B snapshots epoch 0, waits on A's lock while the corpus flips
        // to epoch 1, then builds and commits epoch-0 artifacts.
        let (g, x) = corpus(150, 4);
        let scratch = crate::store::ScratchDir::new("late-commit");
        let service = GrainService::with_capacity(4)
            .with_artifact_store(scratch.path())
            .unwrap();
        service.register_graph("g", g, x).unwrap();
        let config = GrainConfig::ball_d();
        let request = SelectionRequest::new("g", config, Budget::Fixed(6));
        let delta = GraphDelta::new().insert_edge(0, 100);
        std::thread::scope(|s| {
            with_engine_held(&service, "g", &config, || {
                let hits = service.pool_stats().hits;
                let reader = s.spawn(|| service.select(&request).unwrap());
                while service.pool_stats().hits == hits {
                    std::thread::yield_now();
                }
                service.apply_update("g", &delta).unwrap();
                reader
            })
            .join()
            .unwrap();
        });
        assert_eq!(service.epoch("g").unwrap(), 1);
        let stale: Vec<String> = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains("-e0-"))
            .collect();
        assert!(stale.is_empty(), "epoch-0 files left: {stale:?}");
        assert!(service.pool().keys().iter().all(|(_, epoch, _)| *epoch == 1));
    }

    #[test]
    fn apply_update_reclaims_stale_epoch_engines() {
        // The moment the corpus flips to e1, every engine still keyed to
        // e0 is reclaimed from the pool — patched engines live on under
        // their e1 keys.
        let (g, x) = corpus(120, 17);
        let service = GrainService::with_capacity(8);
        service.register_graph("g", g, x).unwrap();
        let base = GrainConfig::ball_d();
        let deep = GrainConfig {
            radius: base.radius * 2.0,
            ..base
        };
        for cfg in [base, deep] {
            service
                .select(&SelectionRequest::new("g", cfg, Budget::Fixed(5)))
                .unwrap();
        }
        assert_eq!(service.pool().len(), 2);
        let report = service
            .apply_update("g", &GraphDelta::new().insert_edge(0, 100))
            .unwrap();
        assert_eq!(report.engines_patched(), 2);
        // 2 patched engines at e1; both e0 originals reclaimed.
        assert_eq!(service.pool_stats().epoch_reclaims, 2);
        assert_eq!(service.pool().len(), 2);
        assert!(service
            .pool()
            .keys()
            .iter()
            .all(|(_, epoch, _)| *epoch == 1));
    }

    #[test]
    fn patched_selection_matches_cold_service_over_mutated_graph() {
        let (g, x) = corpus(150, 9);
        let delta = GraphDelta::new()
            .insert_edge(1, 140)
            .insert_weighted(7, 33, 2.0)
            .delete_edge_of(&g);
        let service = GrainService::with_capacity(4);
        service
            .register_graph("live", g.clone(), x.clone())
            .unwrap();
        let request = SelectionRequest::new("live", GrainConfig::ball_d(), Budget::Fixed(8));
        service.select(&request).unwrap();
        service.apply_update("live", &delta).unwrap();
        let patched = service.select(&request).unwrap();

        // Cold reference: a fresh service registered directly with the
        // mutated corpus.
        let (g2, _) = apply_edge_edits(&g, &delta.inserts, &delta.deletes).unwrap();
        let cold_service = GrainService::with_capacity(4);
        cold_service.register_graph("live", g2, x).unwrap();
        let cold = cold_service
            .select(&SelectionRequest::new(
                "live",
                GrainConfig::ball_d(),
                Budget::Fixed(8),
            ))
            .unwrap();
        assert_eq!(patched.outcome().selected, cold.outcome().selected);
        assert_eq!(
            patched.outcome().objective_trace,
            cold.outcome().objective_trace
        );
    }

    #[test]
    fn feature_only_delta_dirties_no_influence_rows() {
        let (g, x) = corpus(100, 5);
        let service = GrainService::with_capacity(4);
        service.register_graph("g", g, x).unwrap();
        let request = SelectionRequest::new("g", GrainConfig::ball_d(), Budget::Fixed(5));
        service.select(&request).unwrap();
        let report = service
            .apply_update(
                "g",
                &GraphDelta::new().set_features(12, vec![9.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
            )
            .unwrap();
        assert_eq!(report.engines_patched(), 1);
        assert_eq!(report.patched[0].dirty_influence, 0);
        assert!(report.patched[0].dirty_propagation > 0);
    }

    #[test]
    fn invalid_deltas_are_rejected_and_corpus_untouched() {
        let (g, x) = corpus(50, 1);
        let service = GrainService::with_capacity(2);
        service.register_graph("g", g, x).unwrap();
        for (delta, needle) in [
            (GraphDelta::new(), "no edits"),
            (GraphDelta::new().insert_edge(0, 99), "out of range"),
            (GraphDelta::new().insert_edge(4, 4), "self-loop"),
            (GraphDelta::new().delete_edge(0, 49), "does not exist"),
            (GraphDelta::new().set_features(7, vec![1.0]), "width"),
            (
                GraphDelta::new().set_features(99, vec![0.0; 6]),
                "out of range",
            ),
            (
                GraphDelta::new().set_features(3, vec![f32::NAN, 0.0, 0.0, 0.0, 0.0, 0.0]),
                "non-finite",
            ),
        ] {
            let err = service.apply_update("g", &delta).unwrap_err();
            assert!(
                matches!(err, GrainError::InvalidCorpus { .. }),
                "{delta:?} -> {err}"
            );
            assert!(err.to_string().contains(needle), "{err} !~ {needle}");
            assert_eq!(service.epoch("g").unwrap(), 0, "epoch moved on {err}");
        }
        let err = service
            .apply_update("missing", &GraphDelta::new().insert_edge(0, 1))
            .unwrap_err();
        assert!(matches!(err, GrainError::UnknownGraph { .. }));
    }

    #[test]
    fn register_graph_rejects_duplicates_and_replace_graph_advances_epoch() {
        let (g, x) = corpus(60, 2);
        let service = GrainService::with_capacity(2);
        service.register_graph("g", g.clone(), x.clone()).unwrap();
        // Regression: re-registration must stay a typed error, even with
        // identical data — snapshots are immutable per epoch.
        let err = service.register_graph("g", g, x).unwrap_err();
        assert!(matches!(err, GrainError::GraphAlreadyRegistered { .. }));
        assert_eq!(service.epoch("g").unwrap(), 0);

        // replace_graph is the sanctioned wholesale swap: new snapshot,
        // next epoch, old engines unreachable by new requests.
        let (g2, x2) = corpus(80, 3);
        let epoch = service.replace_graph("g", g2, x2).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(service.epoch("g").unwrap(), 1);
        assert_eq!(service.graph("g").unwrap().num_nodes(), 80);
        let (g3, _) = corpus(70, 4);
        let err = service
            .replace_graph("g", g3, DenseMatrix::zeros(9, 6))
            .unwrap_err();
        assert!(matches!(err, GrainError::FeatureShape { .. }));
        let (g4, x4) = corpus(40, 5);
        let err = service.replace_graph("nope", g4, x4).unwrap_err();
        assert!(matches!(err, GrainError::UnknownGraph { .. }));
    }

    impl GraphDelta {
        /// Test helper: delete the first edge of node 5 (guaranteed to
        /// exist in the generated corpora).
        fn delete_edge_of(self, g: &Graph) -> Self {
            let (cols, _) = g.adjacency().row(5);
            let c = cols[0];
            self.delete_edge(5, c)
        }
    }
}
