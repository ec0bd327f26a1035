//! Integration tests pinning the grid's determinism contracts:
//! figure-mode equivalence with the monolithic `run_curves` driver and
//! with the committed Figs. 6–8 goldens, worker-count invariance,
//! cross-spec memoisation, and byte-identical resume after a mid-sweep
//! crash.

use alba_chaos::Failpoints;
use alba_grid::{run_grid, FigureResult, GridSpec, RunOptions};
use alba_store::TelemetryStore;
use albadross::experiments::{run_curves, CurvesConfig};
use albadross::{RunScale, System};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("alba_grid_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const FIG_SMOKE: &str = r#"{
    "name": "fig3",
    "mode": "figure",
    "system": "volta",
    "scale": "smoke",
    "seed": 5
}"#;

const SWEEP: &str = r#"{
    "name": "sweep",
    "mode": "sweep",
    "system": "volta",
    "campaign": "smoke",
    "extractors": ["mvts"],
    "strategies": ["uncertainty", "margin", "random"],
    "models": ["rf"],
    "budgets": [5],
    "seeds": [21, 22],
    "top_k_features": 120
}"#;

/// The partial spec shares seed 21's cells with SWEEP — a grid of a
/// different name and shape, hitting the same content-addressed memo.
const SWEEP_PARTIAL: &str = r#"{
    "name": "partial",
    "mode": "sweep",
    "system": "volta",
    "campaign": "smoke",
    "extractors": ["mvts"],
    "strategies": ["uncertainty", "margin", "random"],
    "models": ["rf"],
    "budgets": [5],
    "seeds": [21],
    "top_k_features": 120
}"#;

/// Figure mode replays `run_curves` exactly: same sessions, same
/// curves, byte-identical JSON for the part the figure files persist.
#[test]
fn figure_grid_matches_monolithic_run_curves() {
    let spec = GridSpec::parse(FIG_SMOKE, None).expect("parse");
    let out = run_grid(&spec, &RunOptions::default()).expect("grid");
    let Some(FigureResult::Curves(grid_curves)) = out.figure else {
        panic!("a curves figure yields curves")
    };

    let reference = run_curves(&CurvesConfig {
        system: System::Volta,
        method: None,
        scale: RunScale::smoke(5),
        include_proctor: true,
    });

    let a = serde_json::to_string(&grid_curves.curves).expect("ser");
    let b = serde_json::to_string(&reference.curves).expect("ser");
    assert_eq!(a, b, "grid figure curves must be byte-identical to run_curves");
    let a = serde_json::to_string(&grid_curves.sessions).expect("ser");
    let b = serde_json::to_string(&reference.sessions).expect("ser");
    assert_eq!(a, b, "raw sessions must match too");
    assert_eq!(grid_curves.mean_seed_count, reference.mean_seed_count);
    assert_eq!(grid_curves.class_names, reference.class_names);
    assert_eq!(grid_curves.method, reference.method);
}

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs a committed figure spec at smoke scale, seed 7 (the goldens'
/// sizing), and checks its JSON against `results/<id>_smoke.json`,
/// which the replaced driver wrote.
fn smoke_figure_matches_golden(id: &str) -> FigureResult {
    let src = repo_file(&format!("specs/{id}.json"));
    let spec = GridSpec::parse(&src, Some(&RunScale::smoke(7))).expect("parse");
    let figure = run_grid(&spec, &RunOptions::default()).expect("grid").figure.expect("figure");
    let json = match &figure {
        FigureResult::UnseenApps(r) => serde_json::to_string_pretty(r),
        FigureResult::Robustness(r) => serde_json::to_string_pretty(r),
        FigureResult::UnseenInputs(r) => serde_json::to_string_pretty(r),
        FigureResult::Curves(r) => serde_json::to_string_pretty(&r.curves),
    }
    .expect("ser");
    assert!(
        json == repo_file(&format!("results/{id}_smoke.json")),
        "{id} at smoke seed 7 diverged from results/{id}_smoke.json"
    );
    figure
}

/// Figs. 6–8 replay their drivers byte for byte, and keep the paper's
/// shapes: more seeded applications start higher (Fig. 6), training on
/// two applications trails the all-apps reference (Fig. 7), and an
/// unseen input deck degrades the start (Fig. 8).
#[test]
fn held_out_figures_match_their_goldens() {
    let FigureResult::UnseenApps(fig6) = smoke_figure_matches_golden("fig6") else {
        panic!("fig6 is an unseen-apps figure")
    };
    let start = |i: usize| fig6.scenarios[i].curves[0].f1.mean[0];
    assert!(start(2) + 0.1 >= start(0), "6-app start {} vs 2-app {}", start(2), start(0));
    assert!(fig6.scenarios.iter().all(|s| s.to_095.contains_key("uncertainty")));
    assert!(fig6.render().contains("2 training applications"));

    let FigureResult::Robustness(fig7) = smoke_figure_matches_golden("fig7") else {
        panic!("fig7 is a robustness figure")
    };
    let cv = fig7.cv_reference.f1;
    assert!(cv > 0.5, "cv reference {cv}");
    assert!(fig7.points[0].f1.0 < cv, "2-app F1 {} must trail {cv}", fig7.points[0].f1.0);
    assert!(fig7.points.iter().all(|p| (0.0..=1.0).contains(&p.f1.0)));
    assert!(fig7.render().contains("5-fold CV"));

    let FigureResult::UnseenInputs(fig8) = smoke_figure_matches_golden("fig8") else {
        panic!("fig8 is an unseen-inputs figure")
    };
    let start = fig8.curves[0].f1.mean[0];
    assert!(start < 0.9, "unseen-deck start F1 {start} should be degraded");
    assert!(fig8.curves.iter().all(|c| c.f1.mean.iter().all(|v| (0.0..=1.0).contains(v))));
    assert!(fig8.render().contains("unseen application inputs"));
}

/// Same spec at 1, 2, and 4 workers: byte-identical reports and
/// leaderboards — assignment is positional, the merge is ordered.
#[test]
fn worker_count_invariance() {
    let spec = GridSpec::parse(SWEEP, None).expect("parse");
    let base = run_grid(&spec, &RunOptions::default()).expect("1 worker");
    for workers in [2, 4] {
        let out = run_grid(&spec, &RunOptions { workers, ..RunOptions::default() }).expect("grid");
        assert_eq!(out.json, base.json, "{workers}-worker report diverged");
        assert_eq!(out.leaderboard_md, base.leaderboard_md);
    }
}

/// A sweep killed after N cell writes resumes to a byte-identical
/// report, recomputing only what was never persisted.
#[test]
fn kill_mid_sweep_then_resume_is_byte_identical() {
    let spec = GridSpec::parse(SWEEP, None).expect("parse");
    let total = spec.expand().len();
    assert_eq!(total, 6);

    // Uninterrupted reference, no store.
    let reference = run_grid(&spec, &RunOptions::default()).expect("reference");

    // Crash run: the 4th cell write fails (3 survive). Workers = 1 so
    // "cells persisted before the crash" is exactly the first 3.
    let dir = tmp_dir("kill");
    let fp = Failpoints::new();
    fp.arm_after("cell.write", 3, 1);
    let mut store = TelemetryStore::open(&dir).expect("open");
    store.set_fault_hook(std::sync::Arc::new(fp.io_hook("grid")));
    let crashed = run_grid(&spec, &RunOptions { store: Some(store), ..RunOptions::default() });
    assert!(crashed.is_err(), "armed failpoint must abort the sweep");
    let persisted = std::fs::read_dir(dir.join("cells")).expect("cells dir").count();
    assert_eq!(persisted, 3, "exactly the pre-crash cells are on disk");

    // Resume against the same store, with a clean hook and more workers.
    let store = TelemetryStore::open(&dir).expect("reopen");
    let resumed =
        run_grid(&spec, &RunOptions { workers: 2, store: Some(store), ..RunOptions::default() })
            .expect("resume");
    assert_eq!(resumed.stats.memo_hits, 3, "resume must reuse every persisted cell");
    assert_eq!(resumed.stats.computed, total - 3);
    assert_eq!(
        resumed.json, reference.json,
        "killed-and-resumed sweep must be byte-identical to an uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cells are content-addressed, not grid-addressed: a differently-named
/// partial sweep warms the memo for the full sweep.
#[test]
fn memoisation_is_shared_across_specs() {
    let dir = tmp_dir("xspec");
    let partial = GridSpec::parse(SWEEP_PARTIAL, None).expect("parse");
    let opts = || RunOptions {
        store: Some(TelemetryStore::open(&dir).expect("open")),
        ..RunOptions::default()
    };
    let first = run_grid(&partial, &opts()).expect("partial");
    assert_eq!(first.stats.computed, 3);

    let full = GridSpec::parse(SWEEP, None).expect("parse");
    let second = run_grid(&full, &opts()).expect("full");
    assert_eq!(second.stats.memo_hits, 3, "seed-21 cells come from the partial run");
    assert_eq!(second.stats.computed, 3, "only seed-22 cells are new");

    // And the memoised result matches a from-scratch run byte-for-byte.
    let fresh = run_grid(&full, &RunOptions::default()).expect("fresh");
    assert_eq!(second.json, fresh.json);
    let _ = std::fs::remove_dir_all(&dir);
}
