//! Cache of propagated embeddings keyed by kernel.
//!
//! The selection pipeline evaluates several components (influence rows,
//! diversity, downstream GNN inputs) that all consume `X^(k)`; the cache
//! makes sure each kernel propagates exactly once per graph.
//!
//! The cache owns its corpus through [`Arc`] handles and stores each
//! artifact as an `Arc<DenseMatrix>`, so a long-lived serving tier (an
//! engine pool, a selection context feeding baselines) can hold the cache
//! without borrowing and hand out shared `X^(k)` views without copying.

use crate::kernel::Kernel;
use crate::propagate::propagate_with;
use grain_graph::{transition_matrix, CsrMatrix, Graph};
use grain_linalg::DenseMatrix;
use std::collections::HashMap;
use std::sync::Arc;

/// One kernel's cached propagation: the final `X^(k)` plus the power
/// ladder (intermediate step states, see
/// [`crate::propagate::propagate_with`]) that keeps delta
/// repair output-proportional. Seeded entries carry an empty ladder and
/// fall back to reverse-cone repair.
struct CachedKernel {
    value: Arc<DenseMatrix>,
    ladder: Vec<Arc<DenseMatrix>>,
}

/// Per-graph memoization of `X^(k)` per kernel.
pub struct PropagationCache {
    graph: Arc<Graph>,
    features: Arc<DenseMatrix>,
    cache: HashMap<String, CachedKernel>,
}

impl PropagationCache {
    /// New cache over a graph and its raw feature matrix `X^(0)`.
    ///
    /// Accepts anything convertible into shared handles: owned values or
    /// preexisting `Arc`s (the engine-pool path, zero copies).
    ///
    /// # Panics
    /// Panics if `features.rows() != graph.num_nodes()`.
    pub fn new(graph: impl Into<Arc<Graph>>, features: impl Into<Arc<DenseMatrix>>) -> Self {
        let graph = graph.into();
        let features = features.into();
        assert_eq!(
            graph.num_nodes(),
            features.rows(),
            "feature rows ({}) must match node count ({})",
            features.rows(),
            graph.num_nodes()
        );
        Self {
            graph,
            features,
            cache: HashMap::new(),
        }
    }

    /// The propagated embedding for `kernel`, computed on first use.
    /// The returned handle shares the cached allocation.
    pub fn get(&mut self, kernel: Kernel) -> Arc<DenseMatrix> {
        if !self.cache.contains_key(&kernel.cache_key()) {
            let t = transition_matrix(&self.graph, kernel.transition_kind(), true);
            return self
                .get_with(kernel, &t, 0, &|| false)
                .expect("propagation with a never-stopping probe cannot be cancelled");
        }
        Arc::clone(&self.cache[&kernel.cache_key()].value)
    }

    /// Like [`PropagationCache::get`], but propagates over a prebuilt
    /// transition matrix on a miss, over `threads` workers (`0` = auto) —
    /// callers that already hold `T` (the selection engine caches it for
    /// the influence rows) avoid rebuilding it here. Because propagation
    /// is bit-identical at any thread count (see
    /// [`crate::propagate_with`]), the cached artifact does not depend on
    /// the thread count it was built with — which is why a serving
    /// parallelism knob can be excluded from engine cache keys.
    ///
    /// `stop` is the cooperative probe of [`crate::propagate_with`]: a
    /// cache miss whose build observes it returns `None` and caches
    /// **nothing** — the next request for this kernel starts a fresh,
    /// complete build, so cancellation can never tear an artifact. Cache
    /// hits ignore the probe entirely (the work is already done; handing
    /// it out is free).
    ///
    /// # Panics
    /// Panics if `transition` does not match the cached graph's node count.
    pub fn get_with(
        &mut self,
        kernel: Kernel,
        transition: &CsrMatrix,
        threads: usize,
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<Arc<DenseMatrix>> {
        let key = kernel.cache_key();
        if !self.cache.contains_key(&key) {
            let mut ladder = Vec::with_capacity(kernel.steps().saturating_sub(1));
            let value = propagate_with(
                transition,
                kernel,
                &self.features,
                threads,
                stop,
                Some(&mut ladder),
            )?;
            self.cache.insert(
                key.clone(),
                CachedKernel {
                    value: Arc::new(value),
                    ladder: ladder.into_iter().map(Arc::new).collect(),
                },
            );
        }
        Some(Arc::clone(&self.cache[&key].value))
    }

    /// Incrementally patches `X^(k)` for `kernel` after a graph/feature
    /// delta: recomputes only the `dirty` rows against `transition` (the
    /// **edited** graph's transition matrix), splices them into a copy
    /// of `old` (the pre-delta artifact), caches the patched matrix under
    /// the kernel's key, and returns it.
    ///
    /// `old_ladder` is the donor engine's power ladder for this kernel
    /// ([`PropagationCache::cached_ladder`]). When complete (`k - 1`
    /// levels, the invariant every non-seeded cache entry holds), repair
    /// runs level-local via
    /// [`crate::propagate::repropagate_rows_laddered`] — `O(k · |dirty|)`
    /// rows of SpMM — and the patched ladder is cached here so the next
    /// delta repairs just as cheaply. A missing/incomplete ladder (seeded
    /// artifacts) falls back to the reverse-cone
    /// [`crate::propagate::repropagate_rows`], which needs no
    /// intermediate state but expands over clean neighbors.
    ///
    /// The cache must already be over the post-delta corpus — its
    /// `features` are the new `X^(0)`. Bit-identity contract: given a
    /// `dirty` set covering every row the delta can perturb (see
    /// `grain_graph::edit::k_hop_ball`), the cached artifact is
    /// byte-identical to a cold build over the edited corpus.
    ///
    /// # Panics
    /// Panics on shape mismatches or an unsorted/out-of-range `dirty`
    /// list (see [`crate::propagate::repropagate_rows`]).
    pub fn repropagate_rows(
        &mut self,
        kernel: Kernel,
        transition: &CsrMatrix,
        old: &DenseMatrix,
        old_ladder: &[Arc<DenseMatrix>],
        dirty: &[u32],
    ) -> Arc<DenseMatrix> {
        let entry = if old_ladder.len() == kernel.steps().saturating_sub(1) {
            let refs: Vec<&DenseMatrix> = old_ladder.iter().map(|l| l.as_ref()).collect();
            let (patched, ladder) = crate::propagate::repropagate_rows_laddered(
                transition,
                kernel,
                &self.features,
                old,
                &refs,
                dirty,
            );
            CachedKernel {
                value: Arc::new(patched),
                ladder: ladder.into_iter().map(Arc::new).collect(),
            }
        } else {
            let patched =
                crate::propagate::repropagate_rows(transition, kernel, &self.features, old, dirty);
            CachedKernel {
                value: Arc::new(patched),
                ladder: Vec::new(),
            }
        };
        let value = Arc::clone(&entry.value);
        self.cache.insert(kernel.cache_key(), entry);
        value
    }

    /// Inserts a precomputed `X^(k)` for `kernel`, sharing the allocation.
    /// A caller that already holds the artifact (e.g. a pooled engine
    /// handing its propagation to a private companion cache) seeds it here
    /// so the kernel never re-propagates. Seeded entries carry no power
    /// ladder, so a later delta repair on this cache takes the
    /// reverse-cone path.
    ///
    /// # Panics
    /// Panics if `value` does not have one row per graph node.
    pub fn seed(&mut self, kernel: Kernel, value: Arc<DenseMatrix>) {
        assert_eq!(
            value.rows(),
            self.graph.num_nodes(),
            "seeded rows ({}) must match node count ({})",
            value.rows(),
            self.graph.num_nodes()
        );
        self.cache.insert(
            kernel.cache_key(),
            CachedKernel {
                value,
                ladder: Vec::new(),
            },
        );
    }

    /// [`PropagationCache::seed`] carrying the power ladder alongside the
    /// final `X^(k)` — the adoption path for artifacts deserialized from
    /// the on-disk store, which persists the ladder so a store-loaded
    /// engine repairs deltas as cheaply as a cold-built one. A ladder of
    /// the wrong depth (anything but `kernel.steps() - 1` levels) is
    /// discarded and the entry seeded ladder-free, preserving the
    /// reverse-cone fallback instead of corrupting level-local repair.
    /// Mis-shaped ladder levels are discarded the same way.
    ///
    /// # Panics
    /// Panics if `value` does not have one row per graph node.
    pub fn seed_with_ladder(
        &mut self,
        kernel: Kernel,
        value: Arc<DenseMatrix>,
        ladder: Vec<Arc<DenseMatrix>>,
    ) {
        assert_eq!(
            value.rows(),
            self.graph.num_nodes(),
            "seeded rows ({}) must match node count ({})",
            value.rows(),
            self.graph.num_nodes()
        );
        let complete = ladder.len() == kernel.steps().saturating_sub(1)
            && ladder.iter().all(|l| l.rows() == self.graph.num_nodes());
        self.cache.insert(
            kernel.cache_key(),
            CachedKernel {
                value,
                ladder: if complete { ladder } else { Vec::new() },
            },
        );
    }

    /// The cached `X^(k)` for `kernel` if it has already been propagated
    /// (or seeded), without computing anything on a miss.
    pub fn get_cached(&self, kernel: Kernel) -> Option<Arc<DenseMatrix>> {
        self.cache
            .get(&kernel.cache_key())
            .map(|c| Arc::clone(&c.value))
    }

    /// The cached power ladder for `kernel` — empty for misses, seeded
    /// entries, and `k <= 1` kernels (which need no intermediate state).
    /// Handles share the cached allocations.
    pub fn cached_ladder(&self, kernel: Kernel) -> Vec<Arc<DenseMatrix>> {
        self.cache
            .get(&kernel.cache_key())
            .map(|c| c.ladder.iter().map(Arc::clone).collect())
            .unwrap_or_default()
    }

    /// Resident heap bytes of everything cached for `kernel`: the final
    /// `X^(k)` plus its power ladder. Zero on a miss.
    pub fn resident_bytes(&self, kernel: Kernel) -> usize {
        let dense = |m: &DenseMatrix| m.rows() * m.cols() * std::mem::size_of::<f32>();
        self.cache.get(&kernel.cache_key()).map_or(0, |c| {
            dense(&c.value) + c.ladder.iter().map(|l| dense(l)).sum::<usize>()
        })
    }

    /// True if `kernel` has already been propagated.
    pub fn contains(&self, kernel: Kernel) -> bool {
        self.cache.contains_key(&kernel.cache_key())
    }

    /// Number of kernels materialized so far.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True if nothing has been propagated yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// The raw (unpropagated) feature matrix.
    pub fn raw_features(&self) -> &DenseMatrix {
        &self.features
    }

    /// Shared handle to the raw feature matrix.
    pub fn features_arc(&self) -> Arc<DenseMatrix> {
        Arc::clone(&self.features)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Shared handle to the underlying graph.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::propagate;
    use grain_graph::generators;

    #[test]
    fn caches_one_entry_per_kernel() {
        let g = generators::erdos_renyi_gnm(20, 40, 3);
        let x = DenseMatrix::full(20, 4, 1.0);
        let mut cache = PropagationCache::new(g, x);
        assert!(cache.is_empty());
        let _ = cache.get(Kernel::RandomWalk { k: 2 });
        let _ = cache.get(Kernel::RandomWalk { k: 2 });
        assert_eq!(cache.len(), 1);
        let _ = cache.get(Kernel::SymNorm { k: 2 });
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_value_matches_direct_propagation() {
        let g = generators::erdos_renyi_gnm(15, 30, 4);
        let x = DenseMatrix::from_vec(15, 2, (0..30).map(|i| i as f32 * 0.1).collect());
        let kernel = Kernel::Ppr { k: 2, alpha: 0.1 };
        let direct = propagate(&g, kernel, &x);
        let mut cache = PropagationCache::new(g, x);
        assert_eq!(&*cache.get(kernel), &direct);
    }

    #[test]
    fn repeated_gets_share_one_allocation() {
        let g = generators::erdos_renyi_gnm(12, 24, 6);
        let x = DenseMatrix::full(12, 3, 0.5);
        let mut cache = PropagationCache::new(g, x);
        let a = cache.get(Kernel::RandomWalk { k: 2 });
        let b = cache.get(Kernel::RandomWalk { k: 2 });
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out shared views");
    }

    #[test]
    fn arc_corpus_is_not_copied() {
        let g = Arc::new(generators::erdos_renyi_gnm(10, 20, 7));
        let x = Arc::new(DenseMatrix::zeros(10, 2));
        let cache = PropagationCache::new(Arc::clone(&g), Arc::clone(&x));
        assert!(Arc::ptr_eq(&cache.graph_arc(), &g));
        assert!(Arc::ptr_eq(&cache.features_arc(), &x));
    }

    #[test]
    #[should_panic(expected = "must match node count")]
    fn rejects_mismatched_features() {
        let g = generators::erdos_renyi_gnm(10, 20, 5);
        let x = DenseMatrix::zeros(5, 2);
        let _ = PropagationCache::new(g, x);
    }

    #[test]
    fn repropagate_rows_caches_the_patched_artifact() {
        use grain_graph::edit::{apply_edge_edits, k_hop_ball};
        use grain_graph::{transition_matrix, TransitionKind};
        let g = generators::erdos_renyi_gnm(40, 100, 8);
        let x = DenseMatrix::from_vec(40, 3, (0..120).map(|i| (i % 7) as f32 * 0.2).collect());
        let kernel = Kernel::RandomWalk { k: 2 };
        let t_old = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let old = propagate(&g, kernel, &x);
        let (edited, endpoints) = apply_edge_edits(&g, &[], &[(0, g.neighbors(0)[0])]).unwrap();
        let t_new = transition_matrix(&edited, TransitionKind::RandomWalk, true);
        let dirty = k_hop_ball(&edited, &endpoints, 3);
        // A donor cache that built cold carries the ladder; the patching
        // cache adopts and repairs it.
        let mut donor = PropagationCache::new(g.clone(), x.clone());
        let _ = donor.get_with(kernel, &t_old, 0, &|| false);
        let old_ladder = donor.cached_ladder(kernel);
        assert_eq!(old_ladder.len(), 1, "k=2 ladder is one level");
        let mut cache = PropagationCache::new(edited.clone(), x.clone());
        let patched = cache.repropagate_rows(kernel, &t_new, &old, &old_ladder, &dirty);
        assert_eq!(&*patched, &propagate(&edited, kernel, &x));
        // The patch is cached: the next get hands out the same allocation.
        assert!(Arc::ptr_eq(
            &patched,
            &cache.get_with(kernel, &t_new, 0, &|| false).unwrap()
        ));
        // The patched ladder matches a cold build's over the edited graph,
        // so the next delta can repair level-locally too.
        let mut cold = PropagationCache::new(edited.clone(), x.clone());
        let _ = cold.get_with(kernel, &t_new, 0, &|| false);
        assert_eq!(
            cache.cached_ladder(kernel)[0],
            cold.cached_ladder(kernel)[0],
            "patched ladder != cold ladder"
        );
        // A donor without a ladder (seeded artifact) still patches via the
        // reverse-cone fallback.
        let mut bare = PropagationCache::new(edited.clone(), x.clone());
        let fallback = bare.repropagate_rows(kernel, &t_new, &old, &[], &dirty);
        assert_eq!(&*fallback, &*patched);
        assert!(bare.cached_ladder(kernel).is_empty());
    }

    #[test]
    fn cancelled_build_caches_nothing_and_next_build_succeeds() {
        use grain_graph::{transition_matrix, TransitionKind};
        let g = generators::erdos_renyi_gnm(20, 40, 3);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let x = DenseMatrix::full(20, 4, 1.0);
        let kernel = Kernel::RandomWalk { k: 2 };
        let mut cache = PropagationCache::new(g, x);
        assert!(cache.get_with(kernel, &t, 0, &|| true).is_none());
        assert!(!cache.contains(kernel), "cancelled build left no artifact");
        // A fresh uncancelled build produces the full, correct artifact.
        let full = cache.get_with(kernel, &t, 0, &|| false).unwrap();
        assert_eq!(&*full, &*cache.get(kernel));
        // Hits ignore the probe: the work already happened.
        assert!(cache.get_with(kernel, &t, 0, &|| true).is_some());
    }
}
