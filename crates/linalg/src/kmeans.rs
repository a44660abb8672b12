//! k-means with k-means++ seeding.
//!
//! Used by the AGE baseline (density arm: distance to the nearest cluster
//! centroid of the current embedding) and by FeatProp-style selection of
//! cluster centers. Deterministic given the seed.

use crate::dense::DenseMatrix;
use crate::distance::sq_euclidean;
use crate::par;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Clone, Debug)]
pub struct KMeansResult {
    /// `k x d` centroid matrix.
    pub centroids: DenseMatrix,
    /// Cluster index per input row.
    pub assignment: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// Runs k-means++ initialization followed by Lloyd iterations.
///
/// # Panics
/// Panics if `k == 0` or the input has no rows.
pub fn kmeans(data: &DenseMatrix, k: usize, max_iter: usize, seed: u64) -> KMeansResult {
    assert!(k > 0, "kmeans: k must be positive");
    assert!(data.rows() > 0, "kmeans: empty input");
    let k = k.min(data.rows());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, k, &mut rng);
    let mut assignment = vec![0usize; data.rows()];
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // Assignment step (parallel).
        let assigned = par::map(
            0,
            data.rows(),
            32,
            || (),
            |(), i| {
                let row = data.row(i);
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..k {
                    let d = sq_euclidean(row, centroids.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                (best, best_d as f64)
            },
        );
        let new_inertia: f64 = assigned.iter().map(|(_, d)| *d).sum();
        for (i, (c, _)) in assigned.iter().enumerate() {
            assignment[i] = *c;
        }
        // Update step.
        let d = data.cols();
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignment.iter().enumerate() {
            counts[c] += 1;
            let row = data.row(i);
            for (j, &v) in row.iter().enumerate() {
                sums[c * d + j] += v as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster at a random data row to keep k live clusters.
                let pick = rng.random_range(0..data.rows());
                centroids.row_mut(c).copy_from_slice(data.row(pick));
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            let c_row = centroids.row_mut(c);
            for (j, cv) in c_row.iter_mut().enumerate() {
                *cv = (sums[c * d + j] * inv) as f32;
            }
        }
        // Convergence: relative inertia improvement below tolerance.
        if inertia.is_finite() && (inertia - new_inertia).abs() <= 1e-6 * inertia.max(1.0) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }
    KMeansResult {
        centroids,
        assignment,
        inertia,
        iterations,
    }
}

/// k-means++ seeding: iteratively samples new centers proportional to the
/// squared distance to the nearest already-chosen center.
fn plus_plus_init(data: &DenseMatrix, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let n = data.rows();
    let d = data.cols();
    let mut centers = DenseMatrix::zeros(k, d);
    let first = rng.random_range(0..n);
    centers.row_mut(0).copy_from_slice(data.row(first));
    let mut dist2: Vec<f32> = (0..n)
        .map(|i| sq_euclidean(data.row(i), centers.row(0)))
        .collect();
    for c in 1..k {
        let total: f64 = dist2.iter().map(|&v| v as f64).sum();
        let pick = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            // Inverse-CDF sampling over the squared-distance weights.
            let target = rng.random::<f64>() * total;
            let mut acc = 0.0f64;
            let mut chosen = n - 1;
            for (i, &w) in dist2.iter().enumerate() {
                acc += w as f64;
                if acc >= target {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centers.row_mut(c).copy_from_slice(data.row(pick));
        for (i, d2) in dist2.iter_mut().enumerate() {
            let nd = sq_euclidean(data.row(i), centers.row(c));
            if nd < *d2 {
                *d2 = nd;
            }
        }
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> DenseMatrix {
        // 20 points around (0,0), 20 around (10,10).
        let mut data = Vec::new();
        for i in 0..20 {
            data.extend_from_slice(&[0.0 + (i % 5) as f32 * 0.1, 0.0 + (i / 5) as f32 * 0.1]);
        }
        for i in 0..20 {
            data.extend_from_slice(&[10.0 + (i % 5) as f32 * 0.1, 10.0 + (i / 5) as f32 * 0.1]);
        }
        DenseMatrix::from_vec(40, 2, data)
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let res = kmeans(&data, 2, 50, 7);
        // All points in first blob share a cluster, disjoint from second blob.
        let c0 = res.assignment[0];
        assert!(res.assignment[..20].iter().all(|&c| c == c0));
        assert!(res.assignment[20..].iter().all(|&c| c != c0));
        assert!(res.inertia < 50.0);
    }

    #[test]
    fn k_clamped_to_row_count() {
        let data = DenseMatrix::from_vec(3, 1, vec![0., 1., 2.]);
        let res = kmeans(&data, 10, 10, 1);
        assert_eq!(res.centroids.rows(), 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let a = kmeans(&data, 3, 25, 42);
        let b = kmeans(&data, 3, 25, 42);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let data = DenseMatrix::from_vec(4, 1, vec![0., 2., 4., 6.]);
        let res = kmeans(&data, 1, 20, 3);
        assert!((res.centroids.get(0, 0) - 3.0).abs() < 1e-5);
    }
}
