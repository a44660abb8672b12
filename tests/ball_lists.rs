//! Pinned outputs of the ball-D precompute.
//!
//! The ball lists (Definition 3.6) and the NN-D `d_max` constant
//! (Definition 3.4) come from exact all-pairs scans over the normalized
//! `X^(k)` embedding. Any change to how those scans run must leave their
//! output bit-identical, so this suite pins an FNV-1a hash of the lists
//! and the `d_max` bits on a fixed `papers_like(500)` corpus, at every
//! thread count. The pinned values were computed by the plain per-pair
//! scan that preceded the lane-blocked kernel.

use grain::core::{GrainConfig, GrainVariant, SelectionEngine};
use grain::data::synthetic::papers_like;
use grain::linalg::distance;

/// FNV-1a over each ball's length and members, in row order.
fn hash_balls(n: usize, ball: impl Fn(usize) -> Vec<u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for u in 0..n {
        let members = ball(u);
        eat(members.len() as u32);
        members.into_iter().for_each(&mut eat);
    }
    h
}

#[test]
fn ball_lists_and_dmax_match_pinned_goldens() {
    let data = papers_like(500, 11);
    let config = GrainConfig {
        variant: GrainVariant::NoDiversity,
        ..GrainConfig::ball_d()
    };
    let embedding = SelectionEngine::new(config, &data.graph, &data.features)
        .expect("valid config")
        .normalized_embedding();
    let n = embedding.rows();
    // (radius, hash of the lists, total members)
    let pinned: [(f32, u64, usize); 4] = [
        (0.05, 0x8aa7_cd1b_2d44_221f, 752),
        (0.1, 0xc9f4_1801_4fd6_9e38, 8_230),
        (0.15, 0x4bcf_443c_5edb_5067, 148_158),
        (0.2, 0xda7e_9c46_fc8e_eb5c, 240_738),
    ];
    // (exact limit, d_max bits): the exact triangle and the anchor sample
    let pinned_dmax: [(usize, u32); 2] = [(usize::MAX, 0x3ea3_6476), (64, 0x3e9d_6ceb)];
    for threads in [1usize, 2, 5] {
        for &(r, hash, total) in &pinned {
            let balls = distance::radius_neighbors(&embedding, r, threads);
            assert_eq!(balls.len(), n);
            let got_total: usize = (0..n).map(|u| balls[u].len()).sum();
            let got = hash_balls(n, |u| balls[u].to_vec());
            assert_eq!((got, got_total), (hash, total), "r {r} threads {threads}");
        }
        for &(limit, bits) in &pinned_dmax {
            let got = distance::max_pairwise_distance(&embedding, limit, threads).to_bits();
            assert_eq!(got, bits, "limit {limit} threads {threads}");
        }
    }
}
