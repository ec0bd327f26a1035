//! Ablation studies beyond the paper's evaluation.
//!
//! DESIGN.md commits to five ablations of design choices the paper fixes
//! without exploration:
//!
//! 1. **Strategy x model matrix** — the paper pairs its strategies with a
//!    random forest only; does margin beat uncertainty under LGBM or LR?
//! 2. **Feature-extractor ablation** — Table V asserts TSFRESH is best on
//!    Volta and MVTS on Eclipse; measure all four combinations.
//! 3. **Chi-square top-k sweep** — the paper sweeps 250..6436 features and
//!    settles on 2000; regenerate the sweep at reduced scale.
//! 4. **Anomaly-intensity sensitivity** — how much of the diagnosis score
//!    comes from the easy high-intensity injections?
//! 5. **Batch-mode querying** — the paper re-trains after every single
//!    label (and lists cheaper querying as future work); measure the cost
//!    of labeling in batches of 1 / 5 / 10 per re-train.

use crate::data::{FeatureMethod, System, SystemData};
use crate::report::{fmt_opt, fmt_score, render_table};
use crate::scale::RunScale;
use crate::split::{prepare_split, seed_and_pool};
use alba_active::{run_batched_session, MethodCurves, SessionConfig, Strategy};
use alba_data::Dataset;
use alba_ml::{ModelFamily, ModelSpec, Scores};
use serde::{Deserialize, Serialize};

/// Result of the strategy x model matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StrategyModelMatrix {
    /// Model families evaluated (columns).
    pub families: Vec<ModelFamily>,
    /// Strategies evaluated (rows).
    pub strategies: Vec<Strategy>,
    /// `final_f1[strategy][family]` after the query budget.
    pub final_f1: Vec<Vec<f64>>,
}

impl StrategyModelMatrix {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut header: Vec<&str> = vec!["strategy"];
        let names: Vec<&str> = self.families.iter().map(|f| f.name()).collect();
        header.extend(&names);
        let rows: Vec<Vec<String>> = self
            .strategies
            .iter()
            .zip(&self.final_f1)
            .map(|(s, row)| {
                let mut cells = vec![s.name().to_string()];
                cells.extend(row.iter().map(|&v| fmt_score(v)));
                cells
            })
            .collect();
        format!(
            "== Ablation: query strategy x model family (final F1, Volta) ==\n{}",
            render_table(&header, &rows)
        )
    }
}

/// Runs the strategy x model matrix on Volta (MVTS features for speed).
pub fn run_strategy_model_matrix(scale: &RunScale) -> StrategyModelMatrix {
    let data = SystemData::generate(System::Volta, FeatureMethod::Mvts, scale.campaign, scale.seed);
    let split = prepare_split(&data.dataset, &scale.split, scale.seed ^ 0xAB1);
    let sp = seed_and_pool(&split.train, None, scale.seed ^ 0xAB2);
    let families = vec![ModelFamily::Rf, ModelFamily::Lgbm, ModelFamily::Lr, ModelFamily::Mlp];
    let strategies =
        vec![Strategy::Uncertainty, Strategy::Margin, Strategy::Entropy, Strategy::Random];

    let jobs: Vec<(usize, usize)> =
        (0..strategies.len()).flat_map(|s| (0..families.len()).map(move |f| (s, f))).collect();
    let scores: Vec<((usize, usize), f64)> = alba_par::map(&jobs, |&(si, fi)| {
        let spec = ModelSpec::tuned(families[fi], true);
        let session = run_batched_session(
            &spec,
            &sp.seed_set,
            &sp.pool,
            &split.test,
            &SessionConfig {
                strategy: strategies[si],
                budget: scale.budget.min(40),
                target_f1: None,
                seed: scale.seed ^ ((si as u64) << 8) ^ (fi as u64),
            },
            // Batch 10 keeps the slowest families (MLP, LGBM) tractable:
            // 4 re-trains per cell instead of 40.
            10,
        );
        let f1 = session.records.last().map_or(session.initial_scores.f1, |r| r.scores.f1);
        ((si, fi), f1)
    });
    let mut final_f1 = vec![vec![0.0; families.len()]; strategies.len()];
    for ((s, f), v) in scores {
        final_f1[s][f] = v;
    }
    StrategyModelMatrix { families, strategies, final_f1 }
}

/// One row of the feature-extractor ablation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureAblationRow {
    /// System evaluated.
    pub system: String,
    /// Extractor used.
    pub method: String,
    /// Starting F1 of the seed-only model.
    pub starting_f1: f64,
    /// Final F1 after the budget (uncertainty strategy).
    pub final_f1: f64,
    /// Mean queries to 0.80 F1.
    pub to_080: Option<f64>,
}

/// Result of the feature-extractor ablation (Table V's premise).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeatureAblation {
    /// All four (system, extractor) combinations.
    pub rows: Vec<FeatureAblationRow>,
}

impl FeatureAblation {
    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.system.clone(),
                    r.method.clone(),
                    fmt_score(r.starting_f1),
                    fmt_opt(r.to_080),
                    fmt_score(r.final_f1),
                ]
            })
            .collect();
        format!(
            "== Ablation: feature extractor per system (uncertainty strategy) ==\n{}",
            render_table(&["system", "extractor", "start F1", "to 0.80", "final F1"], &rows)
        )
    }
}

/// Runs the 2x2 feature-extractor ablation.
pub fn run_feature_ablation(scale: &RunScale) -> FeatureAblation {
    let combos = [
        (System::Volta, FeatureMethod::Mvts),
        (System::Volta, FeatureMethod::TsFresh),
        (System::Eclipse, FeatureMethod::Mvts),
        (System::Eclipse, FeatureMethod::TsFresh),
    ];
    let rows = combos
        .iter()
        .map(|&(system, method)| {
            let data = SystemData::generate(system, method, scale.campaign, scale.seed);
            let split = prepare_split(&data.dataset, &scale.split, scale.seed ^ 0xFA1);
            let sp = seed_and_pool(&split.train, None, scale.seed ^ 0xFA2);
            let spec = scale.model(system == System::Volta);
            let session = run_batched_session(
                &spec,
                &sp.seed_set,
                &sp.pool,
                &split.test,
                &SessionConfig {
                    strategy: Strategy::Uncertainty,
                    budget: scale.budget,
                    target_f1: None,
                    seed: scale.seed ^ 0xFA3,
                },
                1,
            );
            let to_080 = MethodCurves::mean_queries_to_target(std::slice::from_ref(&session), 0.80);
            FeatureAblationRow {
                system: system.name().to_string(),
                method: method.name().to_string(),
                starting_f1: session.initial_scores.f1,
                final_f1: session.records.last().map_or(session.initial_scores.f1, |r| r.scores.f1),
                to_080,
            }
        })
        .collect();
    FeatureAblation { rows }
}

/// Result of the chi-square top-k sweep (paper Sec. IV-E.1).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TopKSweep {
    /// Feature counts swept.
    pub ks: Vec<usize>,
    /// Supervised test F1 of the tuned model at each k.
    pub f1: Vec<f64>,
}

impl TopKSweep {
    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> =
            self.ks.iter().zip(&self.f1).map(|(k, f)| vec![k.to_string(), fmt_score(*f)]).collect();
        format!(
            "== Ablation: chi-square top-k sweep (Volta, tuned RF) ==\n{}",
            render_table(&["top-k features", "test F1"], &rows)
        )
    }
}

/// Runs the top-k sweep on Volta.
pub fn run_topk_sweep(scale: &RunScale, ks: &[usize]) -> TopKSweep {
    let data = SystemData::generate_best(System::Volta, scale.campaign, scale.seed);
    let spec = scale.model(true);
    let f1: Vec<f64> = alba_par::map(ks, |&k| {
        let mut cfg = scale.split;
        cfg.top_k_features = k;
        let split = prepare_split(&data.dataset, &cfg, scale.seed ^ 0x70F);
        let mut model = spec.with_seed(scale.seed ^ 0x70E).build();
        model.fit(&split.train.x, &split.train.y, split.train.n_classes());
        let pred = model.predict(&split.test.x);
        Scores::compute(&split.test.y, &pred, split.train.n_classes()).f1
    });
    TopKSweep { ks: ks.to_vec(), f1 }
}

/// Result of the intensity-sensitivity ablation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IntensitySensitivity {
    /// Intensity buckets (upper bounds in percent).
    pub buckets: Vec<(u32, u32)>,
    /// Per-bucket recall of anomalous test samples (tuned RF trained on the
    /// full training pool).
    pub recall: Vec<f64>,
    /// Number of anomalous test samples per bucket.
    pub support: Vec<usize>,
}

impl IntensitySensitivity {
    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .buckets
            .iter()
            .zip(self.recall.iter().zip(&self.support))
            .map(|((lo, hi), (r, n))| vec![format!("{lo}-{hi}%"), fmt_score(*r), n.to_string()])
            .collect();
        format!(
            "== Ablation: diagnosis recall vs injected intensity (Volta) ==\n{}",
            render_table(&["intensity", "recall", "test samples"], &rows)
        )
    }
}

/// Measures per-intensity diagnosis recall on Volta.
pub fn run_intensity_sensitivity(scale: &RunScale) -> IntensitySensitivity {
    let data = SystemData::generate_best(System::Volta, scale.campaign, scale.seed);
    let split = prepare_split(&data.dataset, &scale.split, scale.seed ^ 0x1A7);
    let spec = scale.model(true);
    let mut model = spec.with_seed(scale.seed ^ 0x1A8).build();
    model.fit(&split.train.x, &split.train.y, split.train.n_classes());
    let pred = model.predict(&split.test.x);
    let buckets = vec![(2u32, 5u32), (10, 20), (50, 100)];
    let mut recall = Vec::new();
    let mut support = Vec::new();
    for &(lo, hi) in &buckets {
        let mut ok = 0usize;
        let mut total = 0usize;
        for (p, (m, &y)) in pred.iter().zip(split.test.meta.iter().zip(&split.test.y)) {
            if y == 0 || m.intensity_pct < lo || m.intensity_pct > hi {
                continue;
            }
            total += 1;
            if *p == y {
                ok += 1;
            }
        }
        recall.push(if total == 0 { 0.0 } else { ok as f64 / total as f64 });
        support.push(total);
    }
    IntensitySensitivity { buckets, recall, support }
}

/// Result of the batch-mode ablation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BatchModeAblation {
    /// Batch sizes evaluated.
    pub batch_sizes: Vec<usize>,
    /// Labels needed to reach 0.80 F1 per batch size (uncertainty).
    pub labels_to_080: Vec<Option<f64>>,
    /// Final F1 after the budget.
    pub final_f1: Vec<f64>,
    /// Model re-trains consumed (budget / batch, the annotator-side win).
    pub retrains: Vec<usize>,
}

impl BatchModeAblation {
    /// Text rendering.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .batch_sizes
            .iter()
            .enumerate()
            .map(|(i, b)| {
                vec![
                    b.to_string(),
                    fmt_opt(self.labels_to_080[i]),
                    fmt_score(self.final_f1[i]),
                    self.retrains[i].to_string(),
                ]
            })
            .collect();
        format!(
            "== Ablation: batch-mode querying (uncertainty, Volta) ==\n{}",
            render_table(&["batch size", "labels to 0.80", "final F1", "re-trains"], &rows)
        )
    }
}

/// Runs the batch-mode ablation on Volta.
pub fn run_batch_mode(scale: &RunScale, batch_sizes: &[usize]) -> BatchModeAblation {
    let data = SystemData::generate_best(System::Volta, scale.campaign, scale.seed);
    let split = prepare_split(&data.dataset, &scale.split, scale.seed ^ 0xBA7);
    let sp = seed_and_pool(&split.train, None, scale.seed ^ 0xBA8);
    let spec = scale.model(true);

    let results: Vec<(Option<f64>, f64, usize)> = alba_par::map(batch_sizes, |&b| {
        let session = run_batched_session(
            &spec,
            &sp.seed_set,
            &sp.pool,
            &split.test,
            &SessionConfig {
                strategy: Strategy::Uncertainty,
                budget: scale.budget,
                target_f1: None,
                seed: scale.seed ^ 0xBA9,
            },
            b,
        );
        let to_080 = MethodCurves::mean_queries_to_target(std::slice::from_ref(&session), 0.80);
        let final_f1 = session.records.last().map_or(session.initial_scores.f1, |r| r.scores.f1);
        let retrains = session.records.len().div_ceil(b);
        (to_080, final_f1, retrains)
    });
    BatchModeAblation {
        batch_sizes: batch_sizes.to_vec(),
        labels_to_080: results.iter().map(|r| r.0).collect(),
        final_f1: results.iter().map(|r| r.1).collect(),
        retrains: results.iter().map(|r| r.2).collect(),
    }
}

/// Everything bundled, for the `repro --exp ablations` entry point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AblationSuite {
    /// Strategy x model matrix.
    pub matrix: StrategyModelMatrix,
    /// Feature-extractor 2x2.
    pub features: FeatureAblation,
    /// Chi-square top-k sweep.
    pub topk: TopKSweep,
    /// Intensity sensitivity.
    pub intensity: IntensitySensitivity,
    /// Batch-mode querying.
    pub batch: BatchModeAblation,
}

impl AblationSuite {
    /// Text rendering of every ablation.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n{}\n{}\n{}",
            self.matrix.render(),
            self.features.render(),
            self.topk.render(),
            self.intensity.render(),
            self.batch.render()
        )
    }
}

/// Runs the whole ablation suite.
pub fn run_ablations(scale: &RunScale) -> AblationSuite {
    let ks: Vec<usize> = match scale.campaign {
        alba_telemetry::Scale::Smoke => vec![100, 300, 800],
        alba_telemetry::Scale::Default => vec![250, 500, 1200, 2000, 4000],
        alba_telemetry::Scale::Full => vec![250, 500, 1000, 2000, 4000, 6436],
    };
    AblationSuite {
        matrix: run_strategy_model_matrix(scale),
        features: run_feature_ablation(scale),
        topk: run_topk_sweep(scale, &ks),
        intensity: run_intensity_sensitivity(scale),
        batch: run_batch_mode(scale, &[1, 5, 10]),
    }
}

/// Helper for filtering datasets by intensity in external ablations.
pub fn restrict_to_intensities(ds: &Dataset, lo: u32, hi: u32) -> Dataset {
    let idx = ds.indices_where(|m, y| y == 0 || (m.intensity_pct >= lo && m.intensity_pct <= hi));
    ds.select(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_mode_smoke() {
        let res = run_batch_mode(&RunScale::smoke(51), &[1, 4]);
        assert_eq!(res.batch_sizes, vec![1, 4]);
        assert!(res.retrains[1] < res.retrains[0], "bigger batches re-train less");
        for &f in &res.final_f1 {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    fn topk_sweep_smoke() {
        let res = run_topk_sweep(&RunScale::smoke(52), &[50, 400]);
        assert_eq!(res.ks, vec![50, 400]);
        assert!(res.f1.iter().all(|f| (0.0..=1.0).contains(f)));
        assert!(res.render().contains("top-k"));
    }

    #[test]
    fn intensity_sensitivity_smoke() {
        let res = run_intensity_sensitivity(&RunScale::smoke(53));
        assert_eq!(res.buckets.len(), 3);
        // High-intensity injections must be diagnosed at least as well as
        // the lowest bucket (the monotone trend the sublinear effect model
        // produces).
        assert!(res.recall[2] + 0.15 >= res.recall[0], "recall by bucket: {:?}", res.recall);
    }

    #[test]
    fn restrict_to_intensities_keeps_healthy() {
        let data = SystemData::generate(
            System::Volta,
            FeatureMethod::Mvts,
            alba_telemetry::Scale::Smoke,
            54,
        );
        let r = restrict_to_intensities(&data.dataset, 50, 100);
        assert!(!r.is_empty());
        for (m, &y) in r.meta.iter().zip(&r.y) {
            assert!(y == 0 || (50..=100).contains(&m.intensity_pct));
        }
        let healthy_before = data.dataset.class_counts()[0];
        assert_eq!(r.class_counts()[0], healthy_before);
    }
}
