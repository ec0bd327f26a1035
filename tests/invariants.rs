//! Seconds-scale smokes of the workspace's byte-identity invariants,
//! so the root test suite notices when a refactor breaks one. The full
//! suites stay in their crates (here: `crates/grid/tests/determinism.rs`);
//! a smoke re-runs one small case through the public API. The serve
//! worker-count smoke lives with its stress matrix in `properties.rs`.

use albadross_repro::grid::{run_grid, GridSpec, RunOptions};

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
