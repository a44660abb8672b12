//! Per-edge triangle counting.
//!
//! The Triangle-induced Adjacency kernel of Table 1 (from SIGN) weights each
//! edge by the number of triangles it participates in: `A_T[u][v] = #{w :
//! (u,v), (u,w), (v,w) ∈ E}`. Because CSR rows keep sorted neighbor lists,
//! the count for an edge is a sorted-list intersection, giving the classic
//! `O(Σ_e (deg(u) + deg(v)))` algorithm, parallelized over nodes.

use crate::csr::CsrMatrix;
use crate::graph::Graph;
use grain_linalg::par;

/// Number of common neighbors of two sorted neighbor lists.
#[inline]
pub fn sorted_intersection_count(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Builds the triangle-induced adjacency matrix `A_T`.
///
/// Entry `(u, v)` holds the number of triangles through edge `(u, v)`;
/// edges in no triangle vanish. Additionally every node receives a unit
/// self-loop so that rows never become empty (a zero row would make the
/// `D_T^{-1} A_T` transition undefined for that node; the self-loop keeps
/// the walk lazily in place instead, see DESIGN.md).
pub fn triangle_adjacency(g: &Graph) -> CsrMatrix {
    let n = g.num_nodes();
    let rows: Vec<Vec<(u32, f32)>> = par::map(
        0,
        n,
        16,
        || (),
        |(), u| {
            let nu = g.neighbors(u);
            let mut row = Vec::with_capacity(nu.len() + 1);
            for &v in nu {
                let c = sorted_intersection_count(nu, g.neighbors(v as usize));
                if c > 0 {
                    row.push((v, c as f32));
                }
            }
            row.push((u as u32, 1.0));
            row.sort_unstable_by_key(|&(c, _)| c);
            row
        },
    );
    let mut triplets = Vec::with_capacity(rows.iter().map(Vec::len).sum());
    for (u, row) in rows.iter().enumerate() {
        for &(v, w) in row {
            triplets.push((u as u32, v, w));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets, false)
}

/// Total triangle count of the graph.
pub fn count_triangles(g: &Graph) -> u64 {
    let n = g.num_nodes();
    let per_node: Vec<u64> = par::map(
        0,
        n,
        16,
        || (),
        |(), u| {
            let nu = g.neighbors(u);
            let mut c = 0u64;
            for &v in nu {
                if (v as usize) > u {
                    // Only count each triangle once via its smallest vertex order:
                    // common neighbors w > v of the ordered pair (u, v).
                    let nv = g.neighbors(v as usize);
                    let mut i = 0;
                    let mut j = 0;
                    while i < nu.len() && j < nv.len() {
                        match nu[i].cmp(&nv[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                if nu[i] > v {
                                    c += 1;
                                }
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                }
            }
            c
        },
    );
    per_node.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_graph() -> Graph {
        // Triangle 0-1-2 plus pendant 3.
        Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn intersection_count_basics() {
        assert_eq!(sorted_intersection_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1]), 0);
        assert_eq!(sorted_intersection_count(&[1, 2], &[1, 2]), 2);
    }

    #[test]
    fn triangle_edges_get_counted() {
        let at = triangle_adjacency(&triangle_graph());
        // Edge (0,1) lies in one triangle.
        assert_eq!(at.get(0, 1), 1.0);
        assert_eq!(at.get(1, 2), 1.0);
        // Pendant edge (2,3) lies in none -> dropped.
        assert_eq!(at.get(2, 3), 0.0);
        // Self-loops present everywhere.
        for v in 0..4 {
            assert_eq!(at.get(v, v as u32), 1.0);
        }
    }

    #[test]
    fn total_triangle_count() {
        assert_eq!(count_triangles(&triangle_graph()), 1);
        // K4 has 4 triangles.
        let k4 = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(count_triangles(&k4), 4);
    }

    #[test]
    fn triangle_free_graph_keeps_only_self_loops() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let at = triangle_adjacency(&path);
        assert_eq!(count_triangles(&path), 0);
        assert_eq!(at.nnz(), 4); // 4 self-loops only
    }

    #[test]
    fn multi_triangle_edge_weight() {
        // Edge (0,1) shared by triangles with 2 and 3.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
        let at = triangle_adjacency(&g);
        assert_eq!(at.get(0, 1), 2.0);
        assert_eq!(count_triangles(&g), 2);
    }
}
