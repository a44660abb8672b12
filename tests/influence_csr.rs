//! The flat-CSR influence artifact against an independent nested oracle.
//!
//! `InfluenceRows` stores its rows in one contiguous CSR
//! (`offsets`/`cols`/`vals`), scatter-gathered by per-worker chunks and
//! stitched in rank order. This suite rebuilds the retired
//! `Vec<Vec<(u32, f32)>>` algorithm from scratch — same ε-pruned
//! truncated-walk recurrence, serial, one allocation per row — and
//! demands bit-identical agreement across kernels, pruning thresholds,
//! truncation settings, and worker counts, on randomized graphs.

use grain::influence::walk::kernel_power_weights;
use grain::influence::InfluenceRows;
use grain::prelude::*;
use grain_graph::{generators, transition_matrix, CsrMatrix};
use proptest::prelude::*;

/// The retired nested builder: normalized rows of `Σ_l weights[l]·T^l`
/// with ε-pruning between steps and optional per-row `top_k` truncation,
/// computed serially with the exact float operations of the original.
fn nested_reference(
    t: &CsrMatrix,
    weights: &[f32],
    eps: f32,
    top_k: usize,
) -> Vec<Vec<(u32, f32)>> {
    let n = t.rows();
    let mut rows = Vec::with_capacity(n);
    let mut step = vec![0.0f32; n];
    let mut acc = vec![0.0f32; n];
    for v in 0..n {
        let mut frontier = vec![(v as u32, 1.0f32)];
        let mut acc_touched: Vec<u32> = Vec::new();
        if weights[0] != 0.0 {
            acc[v] = weights[0];
            acc_touched.push(v as u32);
        }
        for &wl in weights.iter().skip(1) {
            let mut step_touched: Vec<u32> = Vec::new();
            for &(node, mass) in &frontier {
                let (idx, vals) = t.row(node as usize);
                for (&c, &w) in idx.iter().zip(vals) {
                    let add = mass * w;
                    if add == 0.0 {
                        continue;
                    }
                    if step[c as usize] == 0.0 {
                        step_touched.push(c);
                    }
                    step[c as usize] += add;
                }
            }
            frontier.clear();
            for &c in &step_touched {
                let val = step[c as usize];
                step[c as usize] = 0.0;
                if val >= eps {
                    frontier.push((c, val));
                    if wl != 0.0 {
                        if acc[c as usize] == 0.0 {
                            acc_touched.push(c);
                        }
                        acc[c as usize] += wl * val;
                    }
                }
            }
        }
        let mut row: Vec<(u32, f32)> = Vec::new();
        for &c in &acc_touched {
            let val = acc[c as usize];
            acc[c as usize] = 0.0;
            if val > 0.0 {
                row.push((c, val));
            }
        }
        if top_k > 0 && row.len() > top_k {
            row.sort_unstable_by(|&(ca, wa), &(cb, wb)| wb.total_cmp(&wa).then(ca.cmp(&cb)));
            row.truncate(top_k);
        }
        row.sort_unstable_by_key(|&(c, _)| c);
        let total: f32 = row.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for e in &mut row {
                e.1 /= total;
            }
        }
        rows.push(row);
    }
    rows
}

fn assert_bit_identical(csr: &InfluenceRows, nested: &[Vec<(u32, f32)>], context: &str) {
    assert_eq!(csr.num_nodes(), nested.len(), "{context}: node count");
    for (v, want) in nested.iter().enumerate() {
        let got: Vec<(u32, f32)> = csr.row_entries(v).collect();
        assert_eq!(got.len(), want.len(), "{context}: row {v} nnz");
        for (&(gc, gw), &(wc, ww)) in got.iter().zip(want) {
            assert_eq!(gc, wc, "{context}: row {v} column");
            assert_eq!(
                gw.to_bits(),
                ww.to_bits(),
                "{context}: row {v} col {gc} weight {gw} vs {ww}"
            );
        }
    }
}

fn kernels() -> Vec<Kernel> {
    vec![
        Kernel::SymNorm { k: 2 },
        Kernel::RandomWalk { k: 3 },
        Kernel::Ppr { k: 2, alpha: 0.15 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The CSR build is bit-identical to the nested oracle for every
    /// kernel, pruning threshold, and worker count.
    #[test]
    fn csr_build_is_bit_identical_to_nested_oracle(
        seed in 0u64..300,
        nodes in 16usize..48,
        edge_factor in 2usize..5,
    ) {
        let g = generators::erdos_renyi_gnm(nodes, nodes * edge_factor, seed);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        for kernel in kernels() {
            let weights = kernel_power_weights(kernel);
            for eps in [0.0f32, 1e-3] {
                let oracle = nested_reference(&t, &weights, eps, 0);
                for threads in [1usize, 2, 7] {
                    let csr = InfluenceRows::compute_weighted(&t, &weights, eps, 0, threads, &|| false)
                        .expect("never-stopping probe");
                    assert_bit_identical(
                        &csr,
                        &oracle,
                        &format!("{kernel:?} eps={eps} threads={threads}"),
                    );
                }
            }
        }
    }

    /// Truncated rows agree with the oracle's truncation at every worker
    /// count, and truncation bounds each row's population.
    #[test]
    fn truncated_rows_match_oracle_and_bound_nnz(
        seed in 0u64..300,
        nodes in 16usize..40,
        top_k in 1usize..6,
    ) {
        let g = generators::erdos_renyi_gnm(nodes, nodes * 4, seed);
        let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
        let weights = kernel_power_weights(Kernel::SymNorm { k: 2 });
        let oracle = nested_reference(&t, &weights, 0.0, top_k);
        for threads in [1usize, 3, 8] {
            let csr = InfluenceRows::compute_weighted(
                &t, &weights, 0.0, top_k, threads, &|| false,
            )
            .expect("never-stopping probe");
            assert_bit_identical(&csr, &oracle, &format!("top_k={top_k} threads={threads}"));
            for v in 0..nodes {
                prop_assert!(csr.row_nnz(v) <= top_k);
            }
        }
    }
}

/// The CSR artifact's resident bytes are exactly its offsets array plus
/// one column id and one value per stored entry, with and without
/// truncation — on 64-bit targets `8·(n+1) + 8·nnz`, below the retired
/// nested layout's `24·n + 8·nnz` at every n ≥ 1.
#[test]
fn csr_resident_bytes_undercut_nested_layout() {
    let g = generators::erdos_renyi_gnm(200, 900, 5);
    let t = transition_matrix(&g, TransitionKind::RandomWalk, true);
    for top_k in [0usize, 8] {
        let rows = InfluenceRows::compute_weighted(
            &t,
            &kernel_power_weights(Kernel::RandomWalk { k: 2 }),
            0.0,
            top_k,
            0,
            &|| false,
        )
        .unwrap();
        assert_eq!(
            rows.resident_bytes(),
            (rows.num_nodes() + 1) * std::mem::size_of::<usize>() + 8 * rows.nnz(),
            "top_k={top_k}"
        );
    }
}
