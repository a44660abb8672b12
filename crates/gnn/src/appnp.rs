//! APPNP (Klicpera et al.): "predict then propagate" — an MLP produces
//! per-node logits which are diffused with personalized PageRank.
//!
//! ```text
//! H  = dropout(relu(X W1))
//! Z0 = H W2
//! Z  = PPR_K(Z0),  PPR step: Z ← (1-α) Â Z + α Z0
//! ```
//!
//! The PPR operator is a symmetric polynomial in `Â`, so backprop through
//! the propagation reuses the same iteration on the incoming gradient.

use crate::activ::{dropout_mask, relu_backward_inplace, relu_inplace, softmax_rows};
use crate::adam::Adam;
use crate::init::glorot_uniform;
use crate::loss::masked_cross_entropy;
use crate::metrics::accuracy;
use crate::model::{EpochHook, Model, TrainConfig, TrainReport};
use grain_graph::{transition_matrix, CsrMatrix, Graph, TransitionKind};
use grain_linalg::{ops, DenseMatrix};

/// APPNP model bound to a graph + feature matrix.
pub struct AppnpModel {
    a_hat: CsrMatrix,
    x: DenseMatrix,
    w1: DenseMatrix,
    w2: DenseMatrix,
    hidden: usize,
    num_classes: usize,
    k: usize,
    alpha: f32,
}

impl AppnpModel {
    /// Builds the model (`k` PPR iterations, teleport `alpha`; the paper
    /// uses `alpha = 0.1`).
    pub fn new(
        graph: &Graph,
        features: &DenseMatrix,
        num_classes: usize,
        hidden: usize,
        k: usize,
        alpha: f32,
        seed: u64,
    ) -> Self {
        assert_eq!(
            graph.num_nodes(),
            features.rows(),
            "feature rows != node count"
        );
        assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0,1]");
        let a_hat = transition_matrix(graph, TransitionKind::Symmetric, true);
        let d = features.cols();
        Self {
            a_hat,
            x: features.clone(),
            w1: glorot_uniform(d, hidden, seed),
            w2: glorot_uniform(hidden, num_classes, seed.wrapping_add(1)),
            hidden,
            num_classes,
            k,
            alpha,
        }
    }

    /// Applies the K-step PPR diffusion to a logit/gradient matrix.
    fn ppr_propagate(&self, z0: &DenseMatrix) -> DenseMatrix {
        let mut z = z0.clone();
        for _ in 0..self.k {
            let mut next = self.a_hat.spmm(&z, 0);
            ops::scale(&mut next, 1.0 - self.alpha);
            ops::axpy(&mut next, self.alpha, z0);
            z = next;
        }
        z
    }

    fn forward_eval(&self) -> DenseMatrix {
        let mut h = ops::matmul(&self.x, &self.w1);
        relu_inplace(&mut h);
        let z0 = ops::matmul(&h, &self.w2);
        softmax_rows(&self.ppr_propagate(&z0))
    }
}

impl Model for AppnpModel {
    fn name(&self) -> &'static str {
        "appnp"
    }

    fn reset(&mut self, seed: u64) {
        self.w1 = glorot_uniform(self.x.cols(), self.hidden, seed);
        self.w2 = glorot_uniform(self.hidden, self.num_classes, seed.wrapping_add(1));
    }

    fn train_with_hook(
        &mut self,
        labels: &[u32],
        train_idx: &[u32],
        val_idx: &[u32],
        cfg: &TrainConfig,
        mut hook: Option<&mut EpochHook<'_>>,
    ) -> TrainReport {
        assert_eq!(labels.len(), self.x.rows(), "labels must cover all nodes");
        let n = self.x.rows();
        let mut opt1 = Adam::new(self.w1.as_slice().len(), cfg.lr);
        let mut opt2 = Adam::new(self.w2.as_slice().len(), cfg.lr);
        let mut report = TrainReport::default();
        let mut best = (self.w1.clone(), self.w2.clone());
        let mut since_best = 0usize;
        for epoch in 0..cfg.epochs {
            report.epochs_run = epoch + 1;
            // ---- forward ----
            let z1 = ops::matmul(&self.x, &self.w1);
            let mut h = z1.clone();
            relu_inplace(&mut h);
            let mask = dropout_mask(n, self.hidden, cfg.dropout, cfg.seed ^ (epoch as u64) << 1);
            let hd = ops::hadamard(&h, &mask);
            let z0 = ops::matmul(&hd, &self.w2);
            let z = self.ppr_propagate(&z0);
            // ---- loss ----
            let (loss, dz) = masked_cross_entropy(&z, labels, train_idx);
            report.final_loss = loss;
            // ---- backward ----
            // dZ0 = PPR^T dZ = PPR dZ (symmetric polynomial of Â).
            let dz0 = self.ppr_propagate(&dz);
            let mut dw2 = ops::matmul_tn(&hd, &dz0);
            ops::axpy(&mut dw2, cfg.weight_decay, &self.w2);
            let dhd = ops::matmul_nt(&dz0, &self.w2);
            let mut dz1 = ops::hadamard(&dhd, &mask);
            relu_backward_inplace(&mut dz1, &z1);
            let mut dw1 = ops::matmul_tn(&self.x, &dz1);
            ops::axpy(&mut dw1, cfg.weight_decay, &self.w1);
            opt1.step(&mut self.w1, &dw1);
            opt2.step(&mut self.w2, &dw2);
            // ---- validation / hook ----
            if !val_idx.is_empty() || hook.is_some() {
                let probs = self.forward_eval();
                if let Some(hk) = hook.as_deref_mut() {
                    hk(epoch, &probs);
                }
                if !val_idx.is_empty() {
                    let va = accuracy(&probs, labels, val_idx);
                    if va > report.best_val_accuracy {
                        report.best_val_accuracy = va;
                        report.best_epoch = epoch;
                        best = (self.w1.clone(), self.w2.clone());
                        since_best = 0;
                    } else {
                        since_best += 1;
                        if let Some(p) = cfg.patience {
                            if since_best >= p && epoch + 1 >= cfg.min_epochs {
                                break;
                            }
                        }
                    }
                }
            }
        }
        if !val_idx.is_empty() {
            self.w1 = best.0;
            self.w2 = best.1;
        }
        report
    }

    fn predict(&self) -> DenseMatrix {
        self.forward_eval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use crate::testutil::toy_dataset;

    #[test]
    fn learns_two_community_classification() {
        let (g, x, labels) = toy_dataset(21);
        let train: Vec<u32> = vec![0, 1, 2, 3, 40, 41, 42, 43];
        let test: Vec<u32> = (10..40).chain(50..80).collect();
        let mut model = AppnpModel::new(&g, &x, 2, 16, 4, 0.1, 7);
        let cfg = TrainConfig {
            epochs: 120,
            dropout: 0.3,
            patience: None,
            ..Default::default()
        };
        model.train(&labels, &train, &[], &cfg);
        let acc = accuracy(&model.predict(), &labels, &test);
        assert!(acc > 0.85, "test accuracy {acc}");
    }

    #[test]
    fn alpha_one_disables_propagation() {
        // With alpha = 1 the PPR fixpoint is Z0 itself.
        let (g, x, _) = toy_dataset(22);
        let model = AppnpModel::new(&g, &x, 2, 8, 5, 1.0, 3);
        let z0 = DenseMatrix::from_vec(
            g.num_nodes(),
            1,
            (0..g.num_nodes()).map(|i| i as f32).collect(),
        );
        assert_eq!(model.ppr_propagate(&z0), z0);
    }

    #[test]
    fn ppr_propagation_is_symmetric_operator() {
        // <PPR(a), b> == <a, PPR(b)> — the identity backprop relies on.
        let (g, x, _) = toy_dataset(23);
        let n = g.num_nodes();
        let model = AppnpModel::new(&g, &x, 2, 8, 3, 0.2, 4);
        let a = DenseMatrix::from_vec(n, 1, (0..n).map(|i| ((i * 7 % 5) as f32) - 2.0).collect());
        let b = DenseMatrix::from_vec(n, 1, (0..n).map(|i| ((i * 3 % 11) as f32) * 0.1).collect());
        let pa = model.ppr_propagate(&a);
        let pb = model.ppr_propagate(&b);
        let lhs = ops::dot(pa.as_slice(), b.as_slice());
        let rhs = ops::dot(a.as_slice(), pb.as_slice());
        assert!(
            (lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }

    #[test]
    fn reset_is_deterministic() {
        let (g, x, _) = toy_dataset(24);
        let mut model = AppnpModel::new(&g, &x, 2, 8, 3, 0.1, 11);
        let p0 = model.predict();
        model.reset(11);
        assert_eq!(model.predict(), p0);
    }
}
