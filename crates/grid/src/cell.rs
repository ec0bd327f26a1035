//! Content-addressed grid cells: the canonical cell spec, its store
//! key, and the pure `run_cell` evaluator.
//!
//! A [`CellSpec`] is *self-contained*: every seed the evaluation
//! consumes (split, seed-pool, session, noise) is stored explicitly, so
//! `run_cell` is a pure function of the spec alone — no grid-level
//! context leaks in. That is what makes memoisation safe across specs:
//! a cell computed for a partial sweep is byte-for-byte the cell the
//! full sweep would compute, so its store entry ([`CellSpec::key`],
//! FNV over the canonical JSON plus [`CELL_REV`]) is a legitimate hit
//! for any spec that expands to it.
//!
//! Bump [`CELL_REV`] whenever the evaluation semantics change — old
//! store entries then miss instead of silently serving stale results.

use alba_active::{flip_labels, run_batched_session, SessionConfig, SessionResult, Strategy};
use alba_data::{Dataset, SampleMeta};
use alba_ml::{ModelSpec, Scores};
use alba_telemetry::Scale;
use albadross::{
    prepare_pre_split, prepare_split, run_proctor_session, seed_and_pool_filtered,
    shuffled_applications, FeatureMethod, ProctorConfig, SplitConfig, System, SystemData,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Version stamp hashed into every cell key. Bump on any change to the
/// evaluation semantics of [`run_cell`].
pub const CELL_REV: u32 = 1;

/// How a held-out cell divides the dataset (paper Sec. V-B). The
/// applications are derived from the dataset inside the cell, so specs
/// expand without touching data.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Holdout {
    /// Stratified split; the seed set comes only from the first `k`
    /// applications of a `shuffle_seed` shuffle, and the test side keeps
    /// only the other applications (Fig. 6).
    UnseenApps {
        /// Applications the seed set may come from.
        k: usize,
        /// Application-shuffle seed.
        shuffle_seed: u64,
    },
    /// Stratified split; the seed set comes only from input decks other
    /// than `deck`, and the test side keeps only `deck` (Fig. 8).
    UnseenDeck {
        /// The held-out input deck.
        deck: usize,
    },
    /// No stratified split: the applications are shuffled with the
    /// cell's `split_seed`, the last `n_test` form the test side and the
    /// first `k` the train side (Fig. 7).
    TrainApps {
        /// Training applications.
        k: usize,
        /// Held-out test applications.
        n_test: usize,
    },
}

/// What one cell evaluates: an active-learning session, a Proctor
/// baseline session, or a plain supervised fit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum CellTask {
    /// One pool-based AL session.
    Al {
        /// Query strategy.
        strategy: Strategy,
        /// Fully resolved supervised model.
        model: ModelSpec,
        /// Label budget.
        budget: usize,
        /// Labels per re-train (1 = the paper's protocol).
        batch: usize,
    },
    /// One Proctor semi-supervised session.
    Proctor {
        /// Full Proctor configuration (autoencoder, head, budget, seed).
        config: ProctorConfig,
    },
    /// One AL session, as [`CellTask::Al`], on a held-out split.
    HeldOutAl {
        /// How the dataset is divided.
        holdout: Holdout,
        /// Query strategy.
        strategy: Strategy,
        /// Fully resolved supervised model.
        model: ModelSpec,
        /// Label budget.
        budget: usize,
        /// Labels per re-train.
        batch: usize,
    },
    /// One supervised fit on the whole prepared train side, in its
    /// original row order, scored on the test side: a session without
    /// queries. `session_seed` seeds the model; the pool seed and the
    /// contamination fields are unused.
    Fit {
        /// Fully resolved supervised model.
        model: ModelSpec,
        /// Held-out split, or `None` for the stratified one.
        holdout: Option<Holdout>,
    },
}

/// The canonical, content-addressed description of one grid cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellSpec {
    /// Evaluation-semantics version ([`CELL_REV`]).
    pub rev: u32,
    /// System whose campaign feeds the cell.
    pub system: System,
    /// Feature-extraction method.
    pub method: FeatureMethod,
    /// Campaign scale.
    pub campaign: Scale,
    /// Campaign/feature generation seed.
    pub data_seed: u64,
    /// Split / feature-selection configuration.
    pub split: SplitConfig,
    /// Stratified-split seed.
    pub split_seed: u64,
    /// Seed-set/pool decomposition seed.
    pub pool_seed: u64,
    /// Session seed (strategy tie-breaks + model).
    pub session_seed: u64,
    /// Fraction (percent) of pool labels flipped before the session.
    pub contamination_pct: f64,
    /// Label-flip seed.
    pub noise_seed: u64,
    /// The session the cell runs.
    pub task: CellTask,
}

impl CellSpec {
    /// The cell's content-addressed store key (16 hex chars).
    pub fn key(&self) -> String {
        alba_store::key_of("grid-cell", self)
    }
}

/// The result of one evaluated cell.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellResult {
    /// The spec's content key (for audit; recomputed on load).
    pub key: String,
    /// The spec that produced this result.
    pub spec: CellSpec,
    /// Seed-set size of the cell's split.
    pub seed_count: usize,
    /// Unlabeled-pool size of the cell's split.
    pub pool_len: usize,
    /// How many pool labels the contamination axis flipped.
    pub labels_flipped: usize,
    /// Class names of the dataset (for drill-downs).
    pub class_names: Vec<String>,
    /// Full session history.
    pub session: SessionResult,
}

impl CellResult {
    /// Final F1 of the session (last query, or the seed model).
    pub fn final_f1(&self) -> f64 {
        self.session.records.last().map(|r| r.scores.f1).unwrap_or(self.session.initial_scores.f1)
    }

    /// Final false-alarm rate.
    pub fn final_false_alarm(&self) -> f64 {
        self.session
            .records
            .last()
            .map(|r| r.scores.false_alarm_rate)
            .unwrap_or(self.session.initial_scores.false_alarm_rate)
    }

    /// Final anomaly-miss rate.
    pub fn final_miss_rate(&self) -> f64 {
        self.session
            .records
            .last()
            .map(|r| r.scores.anomaly_miss_rate)
            .unwrap_or(self.session.initial_scores.anomaly_miss_rate)
    }
}

/// The split-level slice of a cell spec: everything that determines the
/// prepared train and test sides, and nothing session specific — cells
/// sharing these fields share one cached split.
#[derive(Serialize)]
struct SplitIdentity {
    system: System,
    method: FeatureMethod,
    campaign: Scale,
    data_seed: u64,
    split: SplitConfig,
    split_seed: u64,
    holdout: Option<Holdout>,
}

/// One prepared split.
struct SplitInstance {
    /// Prepared train side, in its original row order.
    train: Dataset,
    test: Dataset,
    /// Which train-side samples may enter the seed set.
    seedable: Box<dyn Fn(&SampleMeta) -> bool + Send + Sync>,
}

/// Process-level split cache: figure grids re-use one split across the
/// ~6 methods evaluated on it, so recomputing the (expensive) chi-square
/// selection per cell would multiply wall time for no result change.
/// Lookups and inserts only — never iterated — and bounded.
static SPLIT_CACHE: Mutex<Option<BTreeMap<String, Arc<SplitInstance>>>> = Mutex::new(None);

/// Distinct splits kept in memory; a sweep touching more recycles.
const SPLIT_CACHE_CAP: usize = 8;

fn cached_split(spec: &CellSpec, full: &Dataset) -> Arc<SplitInstance> {
    let holdout = match &spec.task {
        CellTask::HeldOutAl { holdout, .. } => Some(holdout),
        CellTask::Fit { holdout, .. } => holdout.as_ref(),
        CellTask::Al { .. } | CellTask::Proctor { .. } => None,
    };
    let ident = SplitIdentity {
        system: spec.system,
        method: spec.method,
        campaign: spec.campaign,
        data_seed: spec.data_seed,
        split: spec.split,
        split_seed: spec.split_seed,
        holdout: holdout.cloned(),
    };
    let key = alba_store::key_of("grid-split", &ident);
    if let Some(hit) = SPLIT_CACHE.lock().as_ref().and_then(|m| m.get(&key).cloned()) {
        return hit;
    }
    let inst = Arc::new(prepare_sides(full, spec, holdout));
    let mut guard = SPLIT_CACHE.lock();
    let map = guard.get_or_insert_with(BTreeMap::new);
    if map.len() >= SPLIT_CACHE_CAP {
        map.clear();
    }
    map.insert(key, inst.clone());
    inst
}

fn keep(ds: &Dataset, pred: impl Fn(&SampleMeta) -> bool) -> Dataset {
    ds.select(&ds.indices_where(|m, _| pred(m)))
}

fn prepare_sides(full: &Dataset, spec: &CellSpec, holdout: Option<&Holdout>) -> SplitInstance {
    if let Some(&Holdout::TrainApps { k, n_test }) = holdout {
        let mut train_apps = shuffled_applications(full, spec.split_seed);
        let test_apps = train_apps.split_off(train_apps.len().saturating_sub(n_test));
        train_apps.truncate(k);
        let train = keep(full, |m| train_apps.contains(&m.app));
        let test = keep(full, |m| test_apps.contains(&m.app));
        let p = prepare_pre_split(&train, &test, &spec.split);
        return SplitInstance { train: p.train, test: p.test, seedable: Box::new(|_| true) };
    }
    let p = prepare_split(full, &spec.split, spec.split_seed);
    let seedable: Box<dyn Fn(&SampleMeta) -> bool + Send + Sync> = match holdout {
        Some(&Holdout::UnseenApps { k, shuffle_seed }) => {
            let mut seen = shuffled_applications(full, shuffle_seed);
            seen.truncate(k);
            Box::new(move |m| seen.contains(&m.app))
        }
        Some(&Holdout::UnseenDeck { deck }) => Box::new(move |m| m.input_deck != deck),
        _ => return SplitInstance { train: p.train, test: p.test, seedable: Box::new(|_| true) },
    };
    // The test side keeps exactly the samples that may not seed.
    SplitInstance { train: p.train, test: keep(&p.test, |m| !seedable(m)), seedable }
}

/// The cell's (memoised) dataset.
pub(crate) fn dataset(spec: &CellSpec) -> Arc<SystemData> {
    SystemData::shared(spec.system, spec.method, spec.campaign, spec.data_seed)
}

/// Evaluates one cell. Pure in the spec: equal specs produce
/// bit-identical results regardless of worker, process, or which grid
/// asked.
pub fn run_cell(spec: &CellSpec) -> CellResult {
    let data = dataset(spec);
    let inst = cached_split(spec, &data.dataset);
    let decompose = || {
        let mut sp = seed_and_pool_filtered(&inst.train, &inst.seedable, spec.pool_seed);
        let n_classes = sp.pool.n_classes();
        let flipped =
            flip_labels(&mut sp.pool.y, n_classes, spec.contamination_pct, spec.noise_seed);
        (sp, flipped)
    };
    let (session, seed_count, pool_len, labels_flipped) = match &spec.task {
        CellTask::Al { strategy, model, budget, batch }
        | CellTask::HeldOutAl { strategy, model, budget, batch, .. } => {
            let (sp, flipped) = decompose();
            let config = SessionConfig {
                strategy: *strategy,
                budget: *budget,
                target_f1: None,
                seed: spec.session_seed,
            };
            let session = run_batched_session(
                model,
                &sp.seed_set,
                &sp.pool,
                &inst.test,
                &config,
                (*batch).max(1),
            );
            (session, sp.seed_set.len(), sp.pool.len(), flipped)
        }
        CellTask::Proctor { config } => {
            let (sp, flipped) = decompose();
            let session = run_proctor_session(&sp.seed_set, &sp.pool, &inst.test, config);
            (session, sp.seed_set.len(), sp.pool.len(), flipped)
        }
        CellTask::Fit { model, .. } => {
            let n_classes = inst.train.n_classes();
            let mut fitted = model.with_seed(spec.session_seed).build();
            fitted.fit(&inst.train.x, &inst.train.y, n_classes);
            let pred = fitted.predict(&inst.test.x);
            // No query policy: the strategy is a placeholder, as for
            // Proctor sessions.
            let session = SessionResult {
                strategy: Strategy::Random,
                initial_scores: Scores::compute(&inst.test.y, &pred, n_classes),
                records: Vec::new(),
            };
            (session, inst.train.len(), 0, 0)
        }
    };
    CellResult {
        key: spec.key(),
        spec: spec.clone(),
        seed_count,
        pool_len,
        labels_flipped,
        class_names: data.dataset.encoder.names().to_vec(),
        session,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use albadross::RunScale;

    fn smoke_spec(session_seed: u64) -> CellSpec {
        let scale = RunScale::smoke(3);
        CellSpec {
            rev: CELL_REV,
            system: System::Volta,
            method: FeatureMethod::Mvts,
            campaign: Scale::Smoke,
            data_seed: 3,
            split: scale.split,
            split_seed: 3 ^ 0x9E37_79B9,
            pool_seed: 3 ^ 101,
            session_seed,
            contamination_pct: 0.0,
            noise_seed: 0,
            task: CellTask::Al {
                strategy: Strategy::Uncertainty,
                model: scale.model(true),
                budget: 4,
                batch: 1,
            },
        }
    }

    #[test]
    fn keys_are_stable_and_spec_sensitive() {
        let a = smoke_spec(7);
        assert_eq!(a.key(), a.key(), "key is a pure function");
        let mut b = smoke_spec(7);
        b.session_seed = 8;
        assert_ne!(a.key(), b.key(), "different seeds, different cells");
        let mut c = smoke_spec(7);
        c.rev = CELL_REV + 1;
        assert_ne!(a.key(), c.key(), "rev bump invalidates old entries");
    }

    #[test]
    fn run_cell_is_deterministic_and_round_trips_json() {
        let spec = smoke_spec(7);
        let r1 = run_cell(&spec);
        let r2 = run_cell(&spec);
        let j1 = serde_json::to_string(&r1).unwrap();
        let j2 = serde_json::to_string(&r2).unwrap();
        assert_eq!(j1, j2, "equal specs → byte-identical results");
        assert_eq!(r1.session.records.len(), 4, "budget honoured");
        assert!(r1.seed_count > 0 && r1.pool_len > 0);

        // Serialise → parse → re-serialise is byte-stable (the memo
        // path's normalisation invariant).
        let parsed: CellResult = serde_json::from_str(&j1).unwrap();
        let j3 = serde_json::to_string(&parsed).unwrap();
        assert_eq!(j1, j3, "JSON round-trip must be bit-exact");
    }

    #[test]
    fn contamination_changes_the_session_and_is_counted() {
        let clean = smoke_spec(7);
        let mut dirty = smoke_spec(7);
        dirty.contamination_pct = 25.0;
        dirty.noise_seed = 99;
        let rc = run_cell(&clean);
        let rd = run_cell(&dirty);
        assert_eq!(rc.labels_flipped, 0);
        assert!(rd.labels_flipped > 0, "contaminated cell flips pool labels");
        assert_ne!(clean.key(), dirty.key());
    }
}
