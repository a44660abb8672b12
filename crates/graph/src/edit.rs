//! Structural graph edits for live corpora.
//!
//! [`apply_edge_edits`] turns a validated batch of edge deletions and
//! insertions into a **new** [`Graph`] by splicing only the endpoint rows
//! of the adjacency CSR ([`crate::csr::CsrMatrix::with_replaced_rows`]), leaving
//! every untouched row byte-identical — the graph-layer half of the
//! incremental-maintenance contract: the spliced graph must equal a cold
//! [`Graph::from_weighted_edges`] build of the mutated edge list bit for
//! bit. [`k_hop_ball`] is the dirty-set expansion primitive: a k-layer
//! propagation model only perturbs rows within the k-hop neighborhood of
//! the touched endpoints, so artifact repair is output-proportional.
//!
//! Semantics are strict so silent corpus drift is impossible: deletes
//! apply before inserts (delete + reinsert of one edge in a single batch
//! is a weight update), deleting a missing edge or inserting an existing
//! one is a typed [`EditError`], and weights must be finite and positive.

use crate::graph::Graph;
use std::collections::BTreeMap;
use std::fmt;

/// Why an edit batch was rejected. The graph is never modified on error.
#[derive(Clone, Debug, PartialEq)]
pub enum EditError {
    /// An edit names a node outside `0..num_nodes`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Node count of the graph being edited.
        num_nodes: usize,
    },
    /// An insert names `u == v`; the adjacency never stores self-loops.
    SelfLoop {
        /// The node of the attempted self-loop.
        node: u32,
    },
    /// An insert names an edge that already exists (and is not deleted in
    /// the same batch).
    EdgeExists {
        /// Endpoint.
        u: u32,
        /// Endpoint.
        v: u32,
    },
    /// A delete names an edge that does not exist.
    EdgeMissing {
        /// Endpoint.
        u: u32,
        /// Endpoint.
        v: u32,
    },
    /// An insert carries a non-finite or non-positive weight.
    BadWeight {
        /// Endpoint.
        u: u32,
        /// Endpoint.
        v: u32,
        /// The rejected weight.
        weight: f32,
    },
    /// The same undirected edge appears twice in the inserts, or twice in
    /// the deletes.
    DuplicateEdit {
        /// Endpoint.
        u: u32,
        /// Endpoint.
        v: u32,
    },
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            EditError::SelfLoop { node } => {
                write!(f, "self-loop insert on node {node} (adjacency stores none)")
            }
            EditError::EdgeExists { u, v } => write!(f, "edge ({u}, {v}) already exists"),
            EditError::EdgeMissing { u, v } => write!(f, "edge ({u}, {v}) does not exist"),
            EditError::BadWeight { u, v, weight } => {
                write!(
                    f,
                    "edge ({u}, {v}) has invalid weight {weight} (must be finite and > 0)"
                )
            }
            EditError::DuplicateEdit { u, v } => {
                write!(f, "edge ({u}, {v}) appears twice in one edit batch")
            }
        }
    }
}

impl std::error::Error for EditError {}

/// The unordered key of an undirected edge.
fn undirected(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

/// The edge-weight policy: finite and strictly positive. Every insert is
/// held to it here, and a serving tier holds every stored weight of an
/// incoming corpus to it too.
pub fn check_weight(u: u32, v: u32, weight: f32) -> Result<(), EditError> {
    if weight.is_finite() && weight > 0.0 {
        Ok(())
    } else {
        Err(EditError::BadWeight { u, v, weight })
    }
}

/// Applies a batch of edge deletions and insertions, returning the edited
/// graph and the sorted, deduplicated list of **touched endpoints** (the
/// seed set for dirty-set expansion).
///
/// Deletes are applied before inserts, so a delete + insert of the same
/// edge in one batch is a weight update. Validation is total before any
/// row is built: on `Err` the input graph is untouched and no allocation
/// beyond the edit maps has happened.
///
/// The returned graph is **bit-identical** to a cold
/// [`Graph::from_weighted_edges`] build of the mutated edge list
/// (property-tested), because a spliced row carries the same strictly
/// ascending column order a cold CSR build produces and untouched rows
/// are memcpy'd verbatim.
pub fn apply_edge_edits(
    graph: &Graph,
    inserts: &[(u32, u32, f32)],
    deletes: &[(u32, u32)],
) -> Result<(Graph, Vec<u32>), EditError> {
    let n = graph.num_nodes();
    let in_range = |node: u32| -> Result<(), EditError> {
        if (node as usize) < n {
            Ok(())
        } else {
            Err(EditError::NodeOutOfRange { node, num_nodes: n })
        }
    };
    // Per-row edit plan: row -> (cols to delete, cols to insert with
    // weights). BTreeMaps keep every traversal deterministic.
    let mut delete_cols: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut insert_cols: BTreeMap<u32, Vec<(u32, f32)>> = BTreeMap::new();
    let mut seen_deletes: Vec<(u32, u32)> = Vec::with_capacity(deletes.len());
    for &(u, v) in deletes {
        in_range(u)?;
        in_range(v)?;
        let key = undirected(u, v);
        if seen_deletes.contains(&key) {
            return Err(EditError::DuplicateEdit { u, v });
        }
        seen_deletes.push(key);
        if !graph.has_edge(u as usize, v) {
            return Err(EditError::EdgeMissing { u, v });
        }
        delete_cols.entry(u).or_default().push(v);
        delete_cols.entry(v).or_default().push(u);
    }
    let mut seen_inserts: Vec<(u32, u32)> = Vec::with_capacity(inserts.len());
    for &(u, v, w) in inserts {
        in_range(u)?;
        in_range(v)?;
        if u == v {
            return Err(EditError::SelfLoop { node: u });
        }
        check_weight(u, v, w)?;
        let key = undirected(u, v);
        if seen_inserts.contains(&key) {
            return Err(EditError::DuplicateEdit { u, v });
        }
        seen_inserts.push(key);
        // Exists after deletes: an edge present in the graph is insertable
        // only if this batch also deletes it (weight update).
        if graph.has_edge(u as usize, v) && !seen_deletes.contains(&key) {
            return Err(EditError::EdgeExists { u, v });
        }
        insert_cols.entry(u).or_default().push((v, w));
        insert_cols.entry(v).or_default().push((u, w));
    }
    // Touched endpoint set, sorted unique.
    let mut endpoints: Vec<u32> = delete_cols
        .keys()
        .chain(insert_cols.keys())
        .copied()
        .collect();
    endpoints.sort_unstable();
    endpoints.dedup();
    if endpoints.is_empty() {
        return Ok((graph.clone(), endpoints));
    }
    // Build each touched row by a sorted merge of (old row minus deleted
    // columns) with the inserted columns.
    let adj = graph.adjacency();
    let mut replacements: Vec<(usize, Vec<u32>, Vec<f32>)> = Vec::with_capacity(endpoints.len());
    for &r in &endpoints {
        let mut dels = delete_cols.remove(&r).unwrap_or_default();
        dels.sort_unstable();
        let mut ins = insert_cols.remove(&r).unwrap_or_default();
        ins.sort_unstable_by_key(|&(c, _)| c);
        let (old_cols, old_vals) = adj.row(r as usize);
        let mut cols = Vec::with_capacity(old_cols.len() + ins.len());
        let mut vals = Vec::with_capacity(old_cols.len() + ins.len());
        let mut ii = 0usize;
        for (i, &c) in old_cols.iter().enumerate() {
            while ii < ins.len() && ins[ii].0 < c {
                cols.push(ins[ii].0);
                vals.push(ins[ii].1);
                ii += 1;
            }
            if dels.binary_search(&c).is_ok() {
                // Deleted; a same-batch reinsert of this column lands from
                // `ins` (sorted merge handles either side of `c`).
                if ii < ins.len() && ins[ii].0 == c {
                    cols.push(ins[ii].0);
                    vals.push(ins[ii].1);
                    ii += 1;
                }
                continue;
            }
            debug_assert!(ii >= ins.len() || ins[ii].0 != c, "insert over live edge");
            cols.push(c);
            vals.push(old_vals[i]);
        }
        while ii < ins.len() {
            cols.push(ins[ii].0);
            vals.push(ins[ii].1);
            ii += 1;
        }
        replacements.push((r as usize, cols, vals));
    }
    let edited = adj.with_replaced_rows(&replacements);
    Ok((Graph::from_adjacency_trusted(edited), endpoints))
}

/// The closed k-hop ball around `seeds`: every node reachable from a seed
/// in at most `k` edge hops, seeds included, sorted ascending.
///
/// This is the dirty-set expansion of incremental maintenance: with a
/// k-step propagation kernel, `X^(k)` row `r` depends only on nodes
/// within `k` hops of `r`, so rows outside the ball of the touched
/// endpoints are untouched by an edit.
pub fn k_hop_ball(graph: &Graph, seeds: &[u32], k: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut in_ball = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();
    for &s in seeds {
        assert!((s as usize) < n, "seed {s} out of range ({n} nodes)");
        if !in_ball[s as usize] {
            in_ball[s as usize] = true;
            frontier.push(s);
        }
    }
    let mut next: Vec<u32> = Vec::new();
    for _ in 0..k {
        if frontier.is_empty() {
            break;
        }
        next.clear();
        for &v in &frontier {
            for &u in graph.neighbors(v as usize) {
                if !in_ball[u as usize] {
                    in_ball[u as usize] = true;
                    next.push(u);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    (0..n as u32).filter(|&v| in_ball[v as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn path(n: usize) -> Graph {
        Graph::from_edges(
            n,
            &(0..n as u32 - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn insert_and_delete_match_cold_rebuild() {
        let g = Graph::from_weighted_edges(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5)]);
        let (edited, endpoints) = apply_edge_edits(&g, &[(0, 4, 0.5)], &[(1, 2)]).unwrap();
        let cold = Graph::from_weighted_edges(5, [(0, 1, 1.0), (2, 3, 1.5), (0, 4, 0.5)]);
        assert_eq!(edited.adjacency(), cold.adjacency());
        assert_eq!(endpoints, vec![0, 1, 2, 4]);
    }

    #[test]
    fn delete_then_reinsert_is_a_weight_update() {
        let g = Graph::from_weighted_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]);
        let (edited, _) = apply_edge_edits(&g, &[(0, 1, 5.0)], &[(0, 1)]).unwrap();
        let cold = Graph::from_weighted_edges(3, [(0, 1, 5.0), (1, 2, 1.0)]);
        assert_eq!(edited.adjacency(), cold.adjacency());
    }

    #[test]
    fn random_edits_match_cold_rebuild() {
        let g = generators::erdos_renyi_gnm(60, 180, 7);
        // Delete the lexicographically first 5 edges, insert 5 fresh ones.
        let mut existing: Vec<(u32, u32, f32)> = Vec::new();
        for u in 0..60usize {
            for (&v, &w) in g.neighbors(u).iter().zip(g.neighbor_weights(u)) {
                if (u as u32) < v {
                    existing.push((u as u32, v, w));
                }
            }
        }
        let deletes: Vec<(u32, u32)> = existing[..5].iter().map(|&(u, v, _)| (u, v)).collect();
        let mut inserts = Vec::new();
        let mut u = 0u32;
        while inserts.len() < 5 {
            let v = (u * 17 + 31) % 60;
            if u != v
                && !g.has_edge(u as usize, v)
                && !inserts
                    .iter()
                    .any(|&(a, b, _)| undirected(a, b) == undirected(u, v))
            {
                inserts.push((u, v, 0.25 + inserts.len() as f32));
            }
            u += 1;
        }
        let (edited, endpoints) = apply_edge_edits(&g, &inserts, &deletes).unwrap();
        let mut survivors: Vec<(u32, u32, f32)> = existing[5..].to_vec();
        survivors.extend(inserts.iter().copied());
        let cold = Graph::from_weighted_edges(60, survivors);
        assert_eq!(edited.adjacency(), cold.adjacency());
        assert!(endpoints.windows(2).all(|w| w[0] < w[1]), "sorted unique");
    }

    #[test]
    fn strict_validation_errors() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(
            apply_edge_edits(&g, &[(0, 1, 1.0)], &[]).unwrap_err(),
            EditError::EdgeExists { u: 0, v: 1 }
        );
        assert_eq!(
            apply_edge_edits(&g, &[], &[(1, 2)]).unwrap_err(),
            EditError::EdgeMissing { u: 1, v: 2 }
        );
        assert_eq!(
            apply_edge_edits(&g, &[(2, 2, 1.0)], &[]).unwrap_err(),
            EditError::SelfLoop { node: 2 }
        );
        assert_eq!(
            apply_edge_edits(&g, &[(0, 9, 1.0)], &[]).unwrap_err(),
            EditError::NodeOutOfRange {
                node: 9,
                num_nodes: 3
            }
        );
        assert_eq!(
            apply_edge_edits(&g, &[(0, 2, -1.0)], &[]).unwrap_err(),
            EditError::BadWeight {
                u: 0,
                v: 2,
                weight: -1.0
            }
        );
        assert_eq!(
            apply_edge_edits(&g, &[(0, 2, 1.0), (2, 0, 1.0)], &[]).unwrap_err(),
            EditError::DuplicateEdit { u: 2, v: 0 }
        );
        assert_eq!(
            apply_edge_edits(&g, &[], &[(0, 1), (1, 0)]).unwrap_err(),
            EditError::DuplicateEdit { u: 1, v: 0 }
        );
    }

    #[test]
    fn empty_batch_is_identity() {
        let g = path(4);
        let (edited, endpoints) = apply_edge_edits(&g, &[], &[]).unwrap();
        assert_eq!(edited.adjacency(), g.adjacency());
        assert!(endpoints.is_empty());
    }

    #[test]
    fn ball_expands_hop_by_hop() {
        let g = path(6); // 0-1-2-3-4-5
        assert_eq!(k_hop_ball(&g, &[2], 0), vec![2]);
        assert_eq!(k_hop_ball(&g, &[2], 1), vec![1, 2, 3]);
        assert_eq!(k_hop_ball(&g, &[2], 2), vec![0, 1, 2, 3, 4]);
        assert_eq!(k_hop_ball(&g, &[0, 5], 1), vec![0, 1, 4, 5]);
        assert_eq!(k_hop_ball(&g, &[], 3), Vec::<u32>::new());
        // Saturation: a huge k covers the component and stops early.
        assert_eq!(k_hop_ball(&g, &[0], 100).len(), 6);
    }
}
