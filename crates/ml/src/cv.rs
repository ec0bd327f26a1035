//! Stratified cross-validation and grid search (paper Sec. III-C/IV-E.2).
//!
//! Hyperparameters are tuned by grid search under 5-fold *stratified*
//! cross-validation, run only on the active-learning training dataset to
//! avoid information leakage from the test set.

use crate::metrics::Scores;
use crate::spec::ModelSpec;
use alba_data::{stratified_k_fold, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Mean macro-F1 of a spec under stratified k-fold cross-validation.
///
/// Deterministic given `seed` (fold assignment and model seeds derive from
/// it).
pub fn cross_val_f1(
    spec: &ModelSpec,
    x: &Matrix,
    y: &[usize],
    n_classes: usize,
    k: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let folds = stratified_k_fold(y, k, &mut rng);
    let scores: Vec<f64> = alba_par::map(folds.iter().enumerate(), |(fi, (train, valid))| {
        let xt = x.select_rows(train);
        let yt: Vec<usize> = train.iter().map(|&i| y[i]).collect();
        let xv = x.select_rows(valid);
        let yv: Vec<usize> = valid.iter().map(|&i| y[i]).collect();
        let mut model = spec.with_seed(seed ^ (fi as u64 + 1)).build();
        model.fit(&xt, &yt, n_classes);
        let pred = model.predict(&xv);
        Scores::compute(&yv, &pred, n_classes).f1
    });
    scores.iter().sum::<f64>() / scores.len().max(1) as f64
}

/// One grid-search row: spec plus its CV score.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridResult {
    /// The evaluated configuration.
    pub spec: ModelSpec,
    /// Mean macro-F1 across folds.
    pub cv_f1: f64,
}

/// Result of a full grid search.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridSearch {
    /// All evaluated configurations, sorted best-first.
    pub results: Vec<GridResult>,
}

impl GridSearch {
    /// Runs the grid (parallel over configurations x folds).
    pub fn run(
        grid: &[ModelSpec],
        x: &Matrix,
        y: &[usize],
        n_classes: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        assert!(!grid.is_empty(), "empty grid");
        let mut results: Vec<GridResult> = alba_par::map(grid, |spec| GridResult {
            spec: spec.clone(),
            cv_f1: cross_val_f1(spec, x, y, n_classes, k, seed),
        });
        results.sort_by(|a, b| b.cv_f1.total_cmp(&a.cv_f1));
        Self { results }
    }

    /// The best configuration.
    pub fn best(&self) -> &GridResult {
        &self.results[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestParams;
    use crate::spec::ModelFamily;

    fn blobs(n: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let jitter = ((i * 13) % 17) as f64 * 0.03;
            if i % 2 == 0 {
                rows.push(vec![0.0 + jitter, jitter]);
                y.push(0);
            } else {
                rows.push(vec![1.0 - jitter, 1.0]);
                y.push(1);
            }
        }
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn cv_scores_separable_data_high() {
        let (x, y) = blobs(60);
        let spec = ModelSpec::Forest(ForestParams { n_estimators: 10, ..ForestParams::default() });
        let f1 = cross_val_f1(&spec, &x, &y, 2, 5, 7);
        assert!(f1 > 0.95, "cv f1 {f1}");
    }

    #[test]
    fn cv_is_deterministic() {
        let (x, y) = blobs(40);
        let spec = ModelSpec::Forest(ForestParams { n_estimators: 5, ..ForestParams::default() });
        let a = cross_val_f1(&spec, &x, &y, 2, 5, 3);
        let b = cross_val_f1(&spec, &x, &y, 2, 5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn grid_search_sorts_best_first() {
        let (x, y) = blobs(60);
        // A deliberately weak configuration (depth 0 is impossible; use
        // a 1-tree forest with depth 1 vs a strong forest).
        let weak = ModelSpec::Forest(ForestParams {
            n_estimators: 1,
            max_depth: Some(1),
            ..ForestParams::default()
        });
        let strong =
            ModelSpec::Forest(ForestParams { n_estimators: 20, ..ForestParams::default() });
        let gs = GridSearch::run(&[weak, strong], &x, &y, 2, 4, 11);
        assert_eq!(gs.results.len(), 2);
        assert!(gs.results[0].cv_f1 >= gs.results[1].cv_f1);
        assert!(gs.best().cv_f1 > 0.9);
    }

    #[test]
    fn tuned_specs_run_through_cv() {
        let (x, y) = blobs(40);
        for family in [ModelFamily::Lr, ModelFamily::Rf, ModelFamily::Lgbm] {
            let f1 = cross_val_f1(&ModelSpec::tuned(family, true), &x, &y, 2, 3, 1);
            assert!(f1 > 0.8, "{family:?} f1 {f1}");
        }
    }
}
