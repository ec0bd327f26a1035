//! Bagged random forest (Table IV's `RF`, the paper's chosen model).
//!
//! Trees are fitted on bootstrap resamples with `sqrt`-feature subsetting
//! and trained in parallel on alba-par; `predict_proba` averages the leaf
//! distributions of all trees (scikit-learn semantics), summed in tree
//! order.

use crate::model::Classifier;
use crate::tree::{Criterion, DecisionTree, MaxFeatures, TreeParams};
use alba_data::{bootstrap_indices, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Random-forest hyperparameters (Table IV search space).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ForestParams {
    /// Number of trees (`n_estimators`).
    pub n_estimators: usize,
    /// Maximum tree depth (`None` = unlimited).
    pub max_depth: Option<usize>,
    /// Split criterion.
    pub criterion: Criterion,
    /// Features per split (defaults to `Sqrt`, the scikit-learn default).
    pub max_features: MaxFeatures,
    /// Bootstrap resampling (true in scikit-learn by default).
    pub bootstrap: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self {
            n_estimators: 100,
            max_depth: None,
            criterion: Criterion::Gini,
            max_features: MaxFeatures::Sqrt,
            bootstrap: true,
            seed: 0,
        }
    }
}

/// A fitted random forest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RandomForest {
    params: ForestParams,
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

impl RandomForest {
    /// Creates an unfitted forest.
    pub fn new(params: ForestParams) -> Self {
        Self { params, trees: Vec::new(), n_classes: 0 }
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[usize], n_classes: usize) {
        assert!(x.rows() > 0, "cannot fit on an empty dataset");
        assert!(self.params.n_estimators > 0, "need at least one tree");
        self.n_classes = n_classes;
        let mut seeder = StdRng::seed_from_u64(self.params.seed);
        let tree_seeds: Vec<u64> = (0..self.params.n_estimators).map(|_| seeder.gen()).collect();

        self.trees = alba_par::map(tree_seeds, |seed| {
            let params = TreeParams {
                max_depth: self.params.max_depth,
                criterion: self.params.criterion,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: self.params.max_features,
                seed,
            };
            let mut tree = DecisionTree::new(params);
            if self.params.bootstrap {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xB007);
                let idx = bootstrap_indices(x.rows(), x.rows(), &mut rng);
                let xb = x.select_rows(&idx);
                let yb: Vec<usize> = idx.iter().map(|&i| y[i]).collect();
                tree.fit(&xb, &yb, n_classes);
            } else {
                tree.fit(x, y, n_classes);
            }
            tree
        });
    }

    fn predict_proba(&self, x: &Matrix) -> Matrix {
        assert!(!self.trees.is_empty(), "predict_proba called before fit");
        // Tree probabilities in parallel, summed in tree order (float
        // addition is order-sensitive), then averaged.
        let mut acc = alba_par::map(&self.trees, |t| t.predict_proba(x))
            .into_iter()
            .reduce(|mut a, b| {
                for (va, vb) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
                    *va += vb;
                }
                a
            })
            .expect("at least one tree");
        let n = self.trees.len() as f64;
        acc.map_inplace(|v| v / n);
        acc
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let jitter = ((i * 13) % 17) as f64 * 0.02;
            match i % 3 {
                0 => {
                    rows.push(vec![0.0 + jitter, 0.0, jitter]);
                    y.push(0);
                }
                1 => {
                    rows.push(vec![2.0, 2.0 - jitter, jitter]);
                    y.push(1);
                }
                _ => {
                    rows.push(vec![4.0 - jitter, 0.0, 1.0 - jitter]);
                    y.push(2);
                }
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    fn small_forest(seed: u64) -> RandomForest {
        RandomForest::new(ForestParams { n_estimators: 15, seed, ..ForestParams::default() })
    }

    #[test]
    fn learns_three_blobs() {
        let (x, y) = blobs(60);
        let mut f = small_forest(1);
        f.fit(&x, &y, 3);
        assert_eq!(f.n_trees(), 15);
        assert_eq!(f.predict(&x), y);
    }

    #[test]
    fn probabilities_are_normalised() {
        let (x, y) = blobs(30);
        let mut f = small_forest(2);
        f.fit(&x, &y, 3);
        let p = f.predict_proba(&x);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    /// Hand-written reference: leaf distributions summed in tree order,
    /// then divided by the tree count.
    fn tree_order_mean(f: &RandomForest, x: &Matrix) -> Vec<u64> {
        let mut acc = f.trees[0].predict_proba(x).as_slice().to_vec();
        for t in &f.trees[1..] {
            for (a, b) in acc.iter_mut().zip(t.predict_proba(x).as_slice()) {
                *a += b;
            }
        }
        let n = f.trees.len() as f64;
        acc.iter().map(|v| (v / n).to_bits()).collect()
    }

    /// Fits a shallow forest on label-noisy data (impure leaves, so the
    /// float sum is order-sensitive); returns the serialised model, its
    /// probabilities and the tree-order reference, all as bits.
    fn fit_and_query() -> (String, Vec<u64>, Vec<u64>) {
        let rows: Vec<Vec<f64>> =
            (0..90).map(|i| vec![i as f64 / 90.0, ((i * 37 % 11) as f64) * 0.03]).collect();
        let y: Vec<usize> = (0..90).map(|i| (i * 3 / 90 + usize::from(i % 7 == 0)) % 3).collect();
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 25,
            max_depth: Some(3),
            seed: 11,
            ..ForestParams::default()
        });
        f.fit(&x, &y, 3);
        let got = f.predict_proba(&x).as_slice().iter().map(|v| v.to_bits()).collect();
        (serde_json::to_string(&f).expect("serialise"), got, tree_order_mean(&f, &x))
    }

    /// `predict_proba` is the tree-order sum bit for bit, and `fit`
    /// serialises identically, on the main thread and inside a pool job
    /// (where alba-par runs the tree loops inline).
    #[test]
    fn reduction_order_is_pinned_on_and_off_the_pool() {
        let (main_json, main_p, main_ref) = fit_and_query();
        assert_eq!(main_p, main_ref, "main thread: not the tree-order sum");
        let mut pool: alba_par::Pool<(), (String, Vec<u64>, Vec<u64>)> =
            alba_par::Pool::new(1, alba_obs::Obs::disabled(), |_w, ()| fit_and_query());
        let (pool_json, pool_p, pool_ref) =
            pool.run_epoch(vec![()]).pop().expect("one slot").expect("job ran");
        assert_eq!(pool_p, pool_ref, "pool job: not the tree-order sum");
        assert_eq!(pool_p, main_p, "probabilities depend on the calling thread");
        assert_eq!(pool_json, main_json, "fitted model depends on the calling thread");
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = blobs(45);
        let mut a = small_forest(7);
        let mut b = small_forest(7);
        a.fit(&x, &y, 3);
        b.fit(&x, &y, 3);
        assert_eq!(a.predict_proba(&x).as_slice(), b.predict_proba(&x).as_slice());
    }

    #[test]
    fn different_seeds_differ_on_overlapping_data() {
        // Overlapping classes: bootstrap resampling makes per-seed
        // probability estimates differ near the decision boundary.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let v = i as f64 / 80.0 + ((i * 37 % 11) as f64) * 0.03;
            rows.push(vec![v]);
            // Label noise keeps leaves impure so bootstrap resamples yield
            // different leaf distributions.
            y.push(usize::from(v > 0.5) ^ usize::from(i % 7 == 0));
        }
        let x = Matrix::from_rows(&rows);
        let mut a = RandomForest::new(ForestParams {
            n_estimators: 10,
            max_depth: Some(2),
            seed: 7,
            ..ForestParams::default()
        });
        let mut b = RandomForest::new(ForestParams {
            n_estimators: 10,
            max_depth: Some(2),
            seed: 8,
            ..ForestParams::default()
        });
        a.fit(&x, &y, 2);
        b.fit(&x, &y, 2);
        assert_ne!(a.predict_proba(&x).as_slice(), b.predict_proba(&x).as_slice());
    }

    #[test]
    fn bagging_produces_soft_probabilities_near_boundary() {
        // Overlapping classes on one feature: forest probabilities should be
        // strictly between 0 and 1 near the overlap.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            rows.push(vec![v]);
            y.push(usize::from(v + ((i * 31 % 10) as f64) * 0.05 > 0.5));
        }
        let x = Matrix::from_rows(&rows);
        let mut f = RandomForest::new(ForestParams {
            n_estimators: 25,
            max_depth: Some(3),
            ..ForestParams::default()
        });
        f.fit(&x, &y, 2);
        let p = f.predict_proba(&Matrix::from_rows(&[vec![0.5]]));
        assert!(p.get(0, 0) > 0.02 && p.get(0, 0) < 0.98, "boundary proba {}", p.get(0, 0));
    }

    #[test]
    fn single_class_training_is_certain() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let y = vec![1, 1, 1];
        let mut f = small_forest(3);
        f.fit(&x, &y, 3);
        let p = f.predict_proba(&x);
        for r in 0..3 {
            assert_eq!(p.get(r, 1), 1.0);
        }
    }
}
