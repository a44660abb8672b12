//! GNN training is thread-count-free: every GEMM of the forward and
//! backward passes writes each output row on one worker in a fixed order,
//! so the trained model's outputs have one bit pattern at any
//! `GRAIN_THREADS`. The pinned hash is that of a one-thread run; a kernel
//! that summed per-worker partials would move it on any multi-core host.

use grain_gnn::gcn::GcnModel;
use grain_gnn::{Model, TrainConfig};
use grain_linalg::DenseMatrix;

fn fnv64(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn gcn_training_bits_are_pinned() {
    let (n, d) = (400, 64);
    let graph = grain_graph::generators::erdos_renyi_gnm(n, 5 * n, 7);
    // About a third of the features are exactly zero, so the GEMMs'
    // zero-skip paths run.
    let data = (0..n * d)
        .map(|v| {
            let h = (v as u64).wrapping_mul(2_654_435_761) % 1_000_003;
            if h % 3 == 0 {
                0.0
            } else {
                ((h % 97) as f32 - 48.0) / 48.0
            }
        })
        .collect();
    let features = DenseMatrix::from_vec(n, d, data);
    let labels: Vec<u32> = (0..n as u32)
        .map(|v| (v.wrapping_mul(2_654_435_761) >> 7) % 4)
        .collect();
    let train: Vec<u32> = (0..80).collect();
    let mut model = GcnModel::new(&graph, &features, 4, 32, 3);
    let cfg = TrainConfig {
        epochs: 10,
        patience: None,
        ..TrainConfig::default()
    };
    model.train(&labels, &train, &[], &cfg);
    assert_eq!(
        format!("{:016x}", fnv64(model.predict().as_slice())),
        "0200bb48d68efdaf"
    );
}
