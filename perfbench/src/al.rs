//! The `eclipse_al_session` workload: the paper's offline pool-based AL
//! loop on the Eclipse smoke campaign.
//!
//! `run_session` is the program as shipped; it yields the query
//! throughput and the records every other loop is checked against. The
//! replica below makes the same calls in the same order (the loop body
//! of `run_batched_session` with a batch of one), with one of the
//! benchmark's spans around each, so a round's wall time and its split
//! across layers can be measured from outside.

use crate::serve::hash_hex;
use crate::spans::{unattributed_ms, Layers};
use alba_active::{
    run_session, select_batch, SelectionContext, SessionConfig, SessionResult, Strategy,
};
use alba_data::{Dataset, Matrix};
use alba_ml::{Classifier, ModelFamily, ModelSpec, Scores};
use alba_telemetry::Scale;
use albadross::{
    prepare_split, seed_and_pool, FeatureMethod, SeedPool, SplitConfig, System, SystemData,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

/// Labels queried per session, of a pool of about 160 windows. A round
/// costs more as the labelled set grows, so the slowest rounds, which
/// make the latency p99, are each session's last few, and host jitter
/// on any one of them moves it. Only a run that pools many campaigns
/// steadies it: 40 queries fit about ten sessions in a 30-second run,
/// where 60 fitted five and left the p99's spread near its bound.
pub const BUDGET: usize = 40;

/// Spans on the driving thread (see `spans::unattributed_ms`).
pub const TOP_LEVEL: [&str; 7] = [
    "core.system_data_ms",
    "core.split_ms",
    "ml.fit_ms",
    "ml.predict_pool_ms",
    "active.select_ms",
    "active.label_ms",
    "ml.eval_ms",
];

/// The AL session's inputs, built from the seed.
pub struct Inputs {
    sp: SeedPool,
    test: Dataset,
    spec: ModelSpec,
    cfg: SessionConfig,
}

/// Campaign → features → split → seed set and pool.
pub fn setup(seed: u64, ly: &mut Layers) -> Inputs {
    let sd = ly.time("core.system_data_ms", || {
        SystemData::generate(System::Eclipse, FeatureMethod::Mvts, Scale::Smoke, seed)
    });
    let (split, sp) = ly.time("core.split_ms", || {
        let split = prepare_split(
            &sd.dataset,
            &SplitConfig { train_fraction: 0.5, top_k_features: 300 },
            seed,
        );
        let sp = seed_and_pool(&split.train, None, seed);
        (split, sp)
    });
    Inputs {
        sp,
        test: split.test,
        spec: ModelSpec::tuned(ModelFamily::Rf, false),
        cfg: SessionConfig { strategy: Strategy::Margin, budget: BUDGET, target_f1: None, seed },
    }
}

/// What the replica's loop produced.
pub struct Replica {
    /// `(pool_index, true_label, app, scores)` per query, like `QueryRecord`.
    pub records: Vec<(usize, usize, String, Scores)>,
    /// Scores of the seed-set model.
    pub initial: Scores,
    /// `(round_ms, pool windows the round diagnosed)` per round.
    pub rounds: Vec<(f64, f64)>,
    /// Test-set predictions of the final model.
    pub final_pred: Vec<usize>,
}

/// The session loop, one span per layer call.
pub fn replica(inp: &Inputs, ly: &mut Layers) -> Replica {
    let (seed_set, pool, test, cfg) = (&inp.sp.seed_set, &inp.sp.pool, &inp.test, &inp.cfg);
    let n_classes = seed_set.n_classes();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut model = inp.spec.with_seed(cfg.seed ^ 0xA1).build();
    let mut labeled_x = seed_set.x.clone();
    let mut labeled_y = seed_set.y.clone();
    let mut remaining: Vec<usize> = (0..pool.len()).collect();
    let pool_apps: Vec<String> = pool.meta.iter().map(|m| m.app.clone()).collect();
    let app_cycle: Vec<String> = pool.applications();

    let fit = |ly: &mut Layers, model: &mut Box<dyn Classifier>, x: &Matrix, y: &[usize]| {
        ly.time("ml.fit_ms", || model.fit(x, y, n_classes));
        ly.count("ml.fit.calls", 1.0);
        ly.count("ml.fit.rows", y.len() as f64);
    };
    let evaluate = |ly: &mut Layers, model: &dyn Classifier| {
        ly.time("ml.eval_ms", || {
            let pred = model.predict(&test.x);
            (Scores::compute(&test.y, &pred, n_classes), pred)
        })
    };
    fit(ly, &mut model, &labeled_x, &labeled_y);
    let (initial, mut final_pred) = evaluate(ly, model.as_ref());
    let mut records = Vec::with_capacity(cfg.budget);
    let mut rounds = Vec::with_capacity(cfg.budget);
    while records.len() < cfg.budget && !remaining.is_empty() {
        let round = Instant::now();
        let scored = remaining.len() as f64;
        let proba = ly.time("ml.predict_pool_ms", || {
            let pool_x = pool.x.select_rows(&remaining);
            model.predict_proba(&pool_x)
        });
        let positions = ly.time("active.select_ms", || {
            let ctx = SelectionContext {
                proba: &proba,
                remaining: &remaining,
                apps: &pool_apps,
                app_cycle: &app_cycle,
                query_number: records.len(),
            };
            select_batch(cfg.strategy, &ctx, &mut rng, 1)
        });
        let picked: Vec<usize> = ly.time("active.label_ms", || {
            positions
                .into_iter()
                .map(|pos| {
                    let i = remaining.swap_remove(pos);
                    labeled_x.push_row(pool.x.row(i));
                    labeled_y.push(pool.y[i]);
                    i
                })
                .collect()
        });
        fit(ly, &mut model, &labeled_x, &labeled_y);
        let (scores, pred) = evaluate(ly, model.as_ref());
        final_pred = pred;
        for i in picked {
            records.push((i, pool.y[i], pool.meta[i].app.clone(), scores));
        }
        rounds.push((round.elapsed().as_secs_f64() * 1e3, scored));
    }
    Replica { records, initial, rounds, final_pred }
}

/// A score triple as exact bits.
fn score_bits(s: &Scores) -> [u64; 3] {
    [s.f1.to_bits(), s.false_alarm_rate.to_bits(), s.anomaly_miss_rate.to_bits()]
}

/// A hash of the session's initial scores and records, bit for bit.
pub fn digest(initial: &Scores, records: &[(usize, usize, String, Scores)]) -> String {
    let rows: Vec<_> = records.iter().map(|(i, y, app, sc)| (i, y, app, score_bits(sc))).collect();
    hash_hex(&(score_bits(initial), rows))
}

/// `run_session`'s records in the replica's shape.
fn program_records(r: &SessionResult) -> Vec<(usize, usize, String, Scores)> {
    r.records.iter().map(|q| (q.pool_index, q.true_label, q.app.clone(), q.scores)).collect()
}

/// Queries whose record differs between the two loops, plus the length
/// difference and a differing initial score: 0 iff they agree exactly.
pub fn mismatch(program: &SessionResult, rep: &Replica) -> usize {
    let prog = program_records(program);
    let rows = prog
        .iter()
        .zip(&rep.records)
        .filter(|(a, b)| {
            a.0 != b.0 || a.1 != b.1 || a.2 != b.2 || score_bits(&a.3) != score_bits(&b.3)
        })
        .count();
    rows + prog.len().abs_diff(rep.records.len())
        + usize::from(score_bits(&program.initial_scores) != score_bits(&rep.initial))
}

/// Anomaly precision and recall of test-set predictions: an "alarm" is a
/// non-healthy verdict, correct when its label is the truth.
pub fn alarm_quality(truth: &[usize], pred: &[usize], healthy: usize) -> (f64, f64) {
    let alarms = pred.iter().filter(|&&p| p != healthy).count();
    let anomalous = truth.iter().filter(|&&t| t != healthy).count();
    let hits = truth.iter().zip(pred).filter(|&(&t, &p)| t != healthy && t == p).count();
    let ratio = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    (ratio(hits, alarms), ratio(hits, anomalous))
}

/// One end-to-end repetition of the AL workload, as printed.
#[derive(Debug, Serialize)]
pub struct AlReport {
    /// Campaign + features + split + seed/pool, seconds.
    pub setup_s: f64,
    /// `run_session` wall time, seconds.
    pub session_s: f64,
    /// Queries `run_session` made.
    pub queries: usize,
    /// Pool size.
    pub pool: usize,
    /// Query budget.
    pub budget: usize,
    /// Always 0: an AL round has no partial failure.
    pub failed: u64,
    /// See [`alarm_quality`].
    pub alarm_precision: f64,
    /// See [`alarm_quality`].
    pub alarm_recall: f64,
    /// Final test macro F1.
    pub diagnosis_f1: f64,
    /// [`mismatch`] between `run_session` and the replica.
    pub replica_mismatch: usize,
    /// [`digest`] of `run_session`'s records.
    pub digest: String,
    /// `(round_ms, pool windows the round scored)` per replica round.
    pub latency: Vec<(f64, f64)>,
    /// Peak resident set of the process, MB (filled in last).
    pub peak_rss_mb: f64,
}

/// One end-to-end repetition: set-up, the shipped `run_session`, then the
/// replica for per-round latency.
pub fn run_e2e(seed: u64) -> AlReport {
    let t = Instant::now();
    let inp = setup(seed, &mut Layers::default());
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let program = run_session(&inp.spec, &inp.sp.seed_set, &inp.sp.pool, &inp.test, &inp.cfg);
    let session_s = t.elapsed().as_secs_f64();

    let rep = replica(&inp, &mut Layers::default());
    let healthy = inp.test.encoder.encode("healthy").expect("healthy class present");
    let (alarm_precision, alarm_recall) = alarm_quality(&inp.test.y, &rep.final_pred, healthy);
    AlReport {
        setup_s,
        session_s,
        queries: program.records.len(),
        pool: inp.sp.pool.len(),
        budget: BUDGET,
        failed: 0,
        alarm_precision,
        alarm_recall,
        diagnosis_f1: program.records.last().map_or(program.initial_scores.f1, |r| r.scores.f1),
        replica_mismatch: mismatch(&program, &rep),
        digest: digest(&program.initial_scores, &program_records(&program)),
        latency: rep.rounds,
        peak_rss_mb: f64::NAN,
    }
}

/// One traced repetition: set-up and the replica under spans, plus the
/// shipped `run_session` (before the replica when `program_first`) for
/// the mirror check and the overhead figure. Returns the per-layer
/// metrics and the program's record digest.
pub fn run_trace(seed: u64, program_first: bool) -> (Vec<(&'static str, f64)>, String) {
    let mut ly = Layers::default();
    let wall = Instant::now();
    let inp = setup(seed, &mut ly);
    let setup_ms = wall.elapsed().as_secs_f64() * 1e3;
    let run_program = || {
        let t = Instant::now();
        let program = run_session(&inp.spec, &inp.sp.seed_set, &inp.sp.pool, &inp.test, &inp.cfg);
        (program, t.elapsed().as_secs_f64() * 1e3)
    };
    let early = program_first.then(run_program);
    let rep_start = Instant::now();
    let rep = replica(&inp, &mut ly);
    let rep_ms = rep_start.elapsed().as_secs_f64() * 1e3;
    // The traced wall is set-up plus the replica, not the program's run.
    let wall_ms = setup_ms + rep_ms;
    let (program, program_ms) = early.unwrap_or_else(run_program);

    let calls = ly.n("ml.fit.calls");
    let mut out: Vec<(&'static str, f64)> = TOP_LEVEL.iter().map(|&k| (k, ly.ms(k))).collect();
    out.extend([
        ("ml.fit.calls", calls),
        ("ml.fit.rows_mean", if calls > 0.0 { ly.n("ml.fit.rows") / calls } else { 0.0 }),
        ("trace.wall_ms", wall_ms),
        ("trace.unattributed_ms", unattributed_ms(wall_ms, &ly, &TOP_LEVEL)),
        ("trace.overhead_pct", (rep_ms - program_ms) / program_ms * 100.0),
        ("trace.mirror_mismatch", mismatch(&program, &rep) as f64),
    ]);
    (out, digest(&program.initial_scores, &program_records(&program)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alarm_quality_counts_correct_anomalous_verdicts() {
        // healthy = 0; truth has 3 anomalous, predictions raise 3 alarms,
        // 2 of them with the right label.
        let truth = [0, 1, 2, 2, 0];
        let pred = [1, 1, 2, 0, 0];
        let (p, r) = alarm_quality(&truth, &pred, 0);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }
}
