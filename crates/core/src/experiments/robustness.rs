//! The robustness motivation experiment (paper Sec. V-B, Fig. 7).
//!
//! No active learning here: a random forest is trained on *all* samples of
//! `k` applications and evaluated on a constant test set of 3 held-out
//! applications, for k = 2..8. The paper finds a ~30 % F1 drop and a 35x
//! higher false-alarm rate at k = 2 relative to the 5-fold-CV setting where
//! every application appears in training — the motivation for ALBADross's
//! robustness design.

use crate::report::{fmt_score, render_table};
use alba_ml::Scores;
use serde::{Deserialize, Serialize};

/// Mean ± CI of the three scores at one training-app count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Number of applications in the training set.
    pub n_training_apps: usize,
    /// (mean, 95 % CI half-width) of the macro F1.
    pub f1: (f64, f64),
    /// (mean, CI) of the false-alarm rate.
    pub false_alarm: (f64, f64),
    /// (mean, CI) of the anomaly miss rate.
    pub miss_rate: (f64, f64),
}

/// Full result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RobustnessResult {
    /// One point per training-app count.
    pub points: Vec<RobustnessPoint>,
    /// The 5-fold-CV reference (dashed lines in Fig. 7): all applications
    /// in both training and test.
    pub cv_reference: Scores,
}

impl RobustnessResult {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.n_training_apps.to_string(),
                    format!("{:.2} ±{:.2}", p.f1.0, p.f1.1),
                    format!("{:.2} ±{:.2}", p.false_alarm.0, p.false_alarm.1),
                    format!("{:.2} ±{:.2}", p.miss_rate.0, p.miss_rate.1),
                ]
            })
            .collect();
        rows.push(vec![
            "all (5-fold CV)".into(),
            fmt_score(self.cv_reference.f1),
            fmt_score(self.cv_reference.false_alarm_rate),
            fmt_score(self.cv_reference.anomaly_miss_rate),
        ]);
        let mut out = String::from("== Fig.7-style: robustness vs training applications ==\n");
        out.push_str(&render_table(&["training apps", "F1", "false alarm", "miss rate"], &rows));
        out
    }
}
