//! Figure mode: the paper figures a grid replays, their cell expansions
//! and the assembly of cell results into each figure's result type.
//! Every expansion mirrors the driver it replaced exactly (job order and
//! seed derivations), so the assembled figures are byte-identical to the
//! driver's; `tests/determinism.rs` pins that.

use crate::cell::{CellResult, CellSpec, CellTask, Holdout, CELL_REV};
use crate::spec::{FigureSpec, GridCell};
use alba_active::{MethodCurves, SessionResult, Strategy};
use alba_ml::{mean_and_ci95, Scores};
use albadross::experiments::{
    CurvesResult, RobustnessPoint, RobustnessResult, UnseenAppsResult, UnseenAppsScenario,
    UnseenInputsResult,
};
use albadross::System;
use std::collections::BTreeMap;

/// Which paper figure a figure-mode spec replays (the spec's `"figure"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Figure {
    /// Figs. 3 / 5: every strategy (and Proctor) on stratified splits.
    Curves,
    /// Fig. 6: seed from a few applications, test on the others.
    UnseenApps,
    /// Fig. 7: no AL; fit on k applications, test on held-out ones.
    Robustness,
    /// Fig. 8: seed from the other input decks, test on the held-out one.
    UnseenInputs,
}

// The paper's sweeps: Figs. 6 and 8 compare two strategies; Figs. 6 and
// 7 draw 5 random application combinations per count; Fig. 6 seeds from
// 2/4/6 applications; Fig. 7 trains on 2/4/6/8 against 3 held-out ones
// and adds an all-apps reference; Fig. 8 holds out each input deck.
const HELD_OUT_STRATEGIES: [Strategy; 2] = [Strategy::Uncertainty, Strategy::Random];
const APP_COMBOS: u64 = 5;
const SEED_APP_COUNTS: [usize; 3] = [2, 4, 6];
const TRAIN_APP_COUNTS: [usize; 4] = [2, 4, 6, 8];
const TEST_APPS: usize = 3;
const ALL_APPS: &str = "fit+all_apps";
const HELD_OUT_DECKS: [usize; 3] = [0, 1, 2];

fn seed_apps_pipeline(strategy: Strategy, k: usize) -> String {
    format!("{}+k{k}", strategy.name())
}

fn train_apps_pipeline(k: usize) -> String {
    format!("fit+k{k}")
}

/// Expands a figure spec into its cells, in the replaced driver's job
/// order.
pub(crate) fn expand_figure(fig: &FigureSpec) -> Vec<GridCell> {
    let scale = &fig.scale;
    let model = scale.model(fig.system == System::Volta);
    let mut cells = Vec::new();
    let mut push = |pipeline: String, pair_id: u64, seeds: [u64; 3], task: CellTask| {
        let [split_seed, pool_seed, session_seed] = seeds;
        let spec = CellSpec {
            rev: CELL_REV,
            system: fig.system,
            method: fig.method.unwrap_or_else(|| fig.system.best_feature_method()),
            campaign: scale.campaign,
            data_seed: scale.seed,
            split: scale.split,
            split_seed,
            pool_seed,
            session_seed,
            contamination_pct: 0.0,
            noise_seed: 0,
            task,
        };
        cells.push(GridCell { idx: cells.len(), pipeline, pair_id, spec });
    };
    let al =
        |strategy| CellTask::Al { strategy, model: model.clone(), budget: scale.budget, batch: 1 };
    let held_out_al = |holdout, strategy| CellTask::HeldOutAl {
        holdout,
        strategy,
        model: model.clone(),
        budget: scale.budget,
        batch: 1,
    };
    let seed = scale.seed;
    match fig.figure {
        Figure::Curves => {
            for rep in 0..scale.n_splits as u64 {
                let split_seed = seed ^ ((rep + 1) * 0x9E37_79B9);
                let pool_seed = seed ^ (rep + 101);
                for s in Strategy::ALL {
                    let repeats = if s.is_informative() { 1 } else { scale.baseline_repeats };
                    for r in 0..repeats as u64 {
                        let seeds =
                            [split_seed, pool_seed, seed ^ (rep << 16) ^ (r << 32) ^ 0xF00D];
                        push(s.name().to_string(), rep, seeds, al(s));
                    }
                }
                if fig.include_proctor {
                    let session_seed = seed ^ (rep << 16) ^ 0xF00D;
                    let task = CellTask::Proctor { config: scale.proctor(session_seed) };
                    push("proctor".to_string(), rep, [split_seed, pool_seed, session_seed], task);
                }
            }
        }
        Figure::UnseenApps => {
            for k in SEED_APP_COUNTS {
                for combo in 0..APP_COMBOS {
                    let combo_seed = seed ^ ((k as u64) << 24) ^ (combo << 8);
                    let seeds = [combo_seed ^ 0x5, combo_seed ^ 0x6, combo_seed ^ 0x7];
                    for s in HELD_OUT_STRATEGIES {
                        let task =
                            held_out_al(Holdout::UnseenApps { k, shuffle_seed: combo_seed }, s);
                        push(seed_apps_pipeline(s, k), combo_seed, seeds, task);
                    }
                }
            }
        }
        Figure::Robustness => {
            let fit = |holdout| CellTask::Fit { model: model.clone(), holdout };
            for combo in 0..APP_COMBOS {
                let combo_seed = seed ^ 0xF17 ^ (combo << 10);
                for k in TRAIN_APP_COUNTS {
                    let holdout = Holdout::TrainApps { k, n_test: TEST_APPS };
                    let seeds = [combo_seed, 0, combo_seed ^ 0x9];
                    push(train_apps_pipeline(k), combo, seeds, fit(Some(holdout)));
                }
            }
            for rep in 0..scale.n_splits as u64 {
                let split_seed = seed ^ ((rep + 1) * 0x9E37_79B9);
                let seeds = [split_seed, 0, seed ^ (rep + 31)];
                push(ALL_APPS.to_string(), split_seed, seeds, fit(None));
            }
        }
        Figure::UnseenInputs => {
            for deck in HELD_OUT_DECKS {
                let deck_seed = seed ^ 0xDEC ^ ((deck as u64) << 12);
                let seeds = [deck_seed, deck_seed ^ 0x2, deck_seed ^ 0x3];
                for s in HELD_OUT_STRATEGIES {
                    let task = held_out_al(Holdout::UnseenDeck { deck }, s);
                    push(s.name().to_string(), deck as u64, seeds, task);
                }
            }
        }
    }
    cells
}

/// A figure-mode grid's result, in the figure's own artifact format.
#[derive(Clone, Debug)]
pub enum FigureResult {
    /// Figs. 3 / 5.
    Curves(CurvesResult),
    /// Fig. 6.
    UnseenApps(UnseenAppsResult),
    /// Fig. 7.
    Robustness(RobustnessResult),
    /// Fig. 8.
    UnseenInputs(UnseenInputsResult),
}

impl FigureResult {
    /// Text rendering of the figure.
    pub fn render(&self) -> String {
        match self {
            FigureResult::Curves(r) => r.render(),
            FigureResult::UnseenApps(r) => r.render(),
            FigureResult::Robustness(r) => r.render(),
            FigureResult::UnseenInputs(r) => r.render(),
        }
    }
}

/// Rebuilds the figure from its cells: sessions regroup by pipeline in
/// expansion order (= the replaced driver's job order) and aggregate in
/// the figure's display order.
pub(crate) fn assemble(
    fig: &FigureSpec,
    cells: &[GridCell],
    results: &[CellResult],
) -> FigureResult {
    let mut sessions: BTreeMap<String, Vec<SessionResult>> = BTreeMap::new();
    for (cell, result) in cells.iter().zip(results) {
        sessions.entry(cell.pipeline.clone()).or_default().push(result.session.clone());
    }
    let of = |pipeline: &str| sessions.get(pipeline).map(Vec::as_slice).unwrap_or_default();
    let held_out_curves = |pipeline: &dyn Fn(Strategy) -> String| {
        let curves = HELD_OUT_STRATEGIES
            .iter()
            .map(|&s| MethodCurves::from_sessions(s.name(), of(&pipeline(s))))
            .collect();
        let to_095 = HELD_OUT_STRATEGIES
            .iter()
            .map(|&s| {
                let target = MethodCurves::mean_queries_to_target(of(&pipeline(s)), 0.95);
                (s.name().to_string(), target)
            })
            .collect();
        (curves, to_095)
    };
    match fig.figure {
        Figure::Curves => FigureResult::Curves(reconstruct_curves(fig, cells, results, sessions)),
        Figure::UnseenApps => FigureResult::UnseenApps(UnseenAppsResult {
            scenarios: SEED_APP_COUNTS
                .iter()
                .map(|&k| {
                    let (curves, to_095) = held_out_curves(&|s| seed_apps_pipeline(s, k));
                    UnseenAppsScenario { n_training_apps: k, curves, to_095 }
                })
                .collect(),
        }),
        Figure::Robustness => {
            // Mean and CI over the pipeline's cells, in expansion order.
            let stat = |pipeline: &str, f: fn(&Scores) -> f64| {
                let values: Vec<f64> = of(pipeline).iter().map(|s| f(&s.initial_scores)).collect();
                mean_and_ci95(&values)
            };
            let points = TRAIN_APP_COUNTS
                .iter()
                .map(|&k| {
                    let pipeline = train_apps_pipeline(k);
                    RobustnessPoint {
                        n_training_apps: k,
                        f1: stat(&pipeline, |s| s.f1),
                        false_alarm: stat(&pipeline, |s| s.false_alarm_rate),
                        miss_rate: stat(&pipeline, |s| s.anomaly_miss_rate),
                    }
                })
                .collect();
            FigureResult::Robustness(RobustnessResult {
                points,
                cv_reference: Scores {
                    f1: stat(ALL_APPS, |s| s.f1).0,
                    false_alarm_rate: stat(ALL_APPS, |s| s.false_alarm_rate).0,
                    anomaly_miss_rate: stat(ALL_APPS, |s| s.anomaly_miss_rate).0,
                },
            })
        }
        Figure::UnseenInputs => {
            let (curves, to_095) = held_out_curves(&|s| s.name().to_string());
            FigureResult::UnseenInputs(UnseenInputsResult { curves, to_095 })
        }
    }
}

/// Rebuilds `run_curves`' `CurvesResult`: curves in its display order,
/// one seed-set size per split.
fn reconstruct_curves(
    fig: &FigureSpec,
    cells: &[GridCell],
    results: &[CellResult],
    sessions: BTreeMap<String, Vec<SessionResult>>,
) -> CurvesResult {
    let mut order: Vec<String> = Strategy::ALL.iter().map(|s| s.name().to_string()).collect();
    if fig.include_proctor {
        order.push("proctor".to_string());
    }
    let curves: Vec<MethodCurves> = order
        .iter()
        .filter_map(|name| sessions.get(name).map(|s| MethodCurves::from_sessions(name, s)))
        .collect();

    // One seed-set size per split: the first cell of each pair shares
    // its split with the rest.
    let mut seen: Vec<u64> = Vec::new();
    let mut seed_sum = 0.0f64;
    for (cell, result) in cells.iter().zip(results) {
        if !seen.contains(&cell.pair_id) {
            seen.push(cell.pair_id);
            seed_sum += result.seed_count as f64;
        }
    }
    let mean_seed_count = if seen.is_empty() { 0.0 } else { seed_sum / seen.len() as f64 };
    let class_names = results.first().map(|r| r.class_names.clone()).unwrap_or_default();
    CurvesResult {
        system: fig.system,
        method: fig.method.unwrap_or_else(|| fig.system.best_feature_method()),
        curves,
        sessions,
        mean_seed_count,
        class_names,
    }
}
