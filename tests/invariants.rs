//! Seconds-scale smokes of the workspace's byte-identity invariants,
//! so the root test suite notices when a refactor breaks one. The full
//! suites stay in their crates (here: `crates/grid/tests/determinism.rs`);
//! a smoke re-runs one small case through the public API. The serve
//! worker-count smoke lives with its stress matrix in `properties.rs`.

use albadross_repro::chaos::Failpoints;
use albadross_repro::grid::{run_grid, GridSpec, RunOptions};
use albadross_repro::store::TelemetryStore;
use std::sync::Arc;

/// Four cells: two strategies × two seeds, one extractor, one model.
const SWEEP: &str = r#"{
    "name": "invariants",
    "mode": "sweep",
    "system": "volta",
    "campaign": "smoke",
    "extractors": ["mvts"],
    "strategies": ["uncertainty", "random"],
    "models": ["rf"],
    "budgets": [4],
    "seeds": [3, 4],
    "top_k_features": 60
}"#;

/// A grid sweep writes byte-identical `GridOutcome.json` at 1 and 2
/// worker lanes: lane placement and the alba-par runtime change wall
/// time only.
#[test]
fn grid_report_is_byte_identical_at_one_and_two_workers() {
    let spec = GridSpec::parse(SWEEP, None).expect("parse sweep");
    let one = run_grid(&spec, &RunOptions::default()).expect("1-worker grid");
    let two = run_grid(&spec, &RunOptions { workers: 2, ..RunOptions::default() })
        .expect("2-worker grid");
    assert_eq!(one.stats.cells, 4);
    assert_eq!(one.json, two.json, "2-worker report diverged from the 1-worker one");
}

/// A sweep killed by a failing cell write resumes against the same store
/// to a byte-identical report, re-using exactly the cells persisted
/// before the failure.
#[test]
fn killed_grid_resumes_byte_identical_from_its_store() {
    const WRITES: usize = 2;
    let spec = GridSpec::parse(SWEEP, None).expect("parse sweep");
    let reference = run_grid(&spec, &RunOptions::default()).expect("uninterrupted grid");

    let dir = std::env::temp_dir().join(format!("alba_invariants_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fp = Failpoints::new();
    fp.arm_after("cell.write", WRITES as u64, 1);
    let mut store = TelemetryStore::open(&dir).expect("open store");
    store.set_fault_hook(Arc::new(fp.io_hook("invariants")));
    // One worker: the cells persisted before the failure are the first ones.
    let killed = run_grid(&spec, &RunOptions { store: Some(store), ..RunOptions::default() });
    assert!(killed.is_err(), "the armed cell.write failpoint must abort the run");

    let store = TelemetryStore::open(&dir).expect("reopen store");
    let resumed = run_grid(&spec, &RunOptions { store: Some(store), ..RunOptions::default() })
        .expect("resumed grid");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(resumed.stats.memo_hits, WRITES, "resume re-uses every persisted cell");
    assert_eq!(resumed.json, reference.json, "resumed report diverged from the uninterrupted one");
}
