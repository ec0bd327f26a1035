//! Seconds-scale smokes of the workspace's byte-identity invariants,
//! so the root test suite notices when a refactor breaks one. The full
//! suites stay in their crates (here: `crates/grid/tests/determinism.rs`);
//! a smoke re-runs one small case through the public API. The serve
//! worker-count smoke lives with its stress matrix in `properties.rs`;
//! the wire-capture replay suite is `crates/net/tests/replay.rs`.

use albadross_repro::chaos::Failpoints;
use albadross_repro::framework::{MonitorConfig, System};
use albadross_repro::grid::{run_grid, GridSpec, RunOptions};
use albadross_repro::net::{
    Gateway, GatewayConfig, IngestLogReplay, Lockstep, MemListener, TenantConfig, WireClient,
};
use albadross_repro::obs::{MemorySink, Obs, TickClock};
use albadross_repro::serve::{FleetService, ServeConfig};
use albadross_repro::store::TelemetryStore;
use albadross_repro::telemetry::Scale;
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

/// An equally seeded 16-node Volta service on a tick clock, with its
/// event log captured.
fn wire_service() -> (FleetService, Arc<MemorySink>) {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, 42);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    let obs = Obs::with_clock(Arc::new(TickClock::new()));
    let sink = Arc::new(MemorySink::new());
    obs.set_sink(sink.clone());
    (FleetService::with_obs(cfg, obs), sink)
}

/// A live in-memory gateway session journals what it ingested; replaying
/// that capture offline into an equally seeded service reproduces the
/// event log, the deployed model and the alarms exactly.
#[test]
fn captured_wire_session_replays_byte_identically() {
    let (mut live, live_events) = wire_service();
    let (listener, dialer) = MemListener::new(1 << 20);
    let tenants = GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]);
    let batches = live.fleet_batches();
    let max_ticks = batches.len() + 60;
    let mut session = Lockstep {
        client: WireClient::new(Box::new(move || Box::new(dialer.dial())), "volta", "tok", batches),
        gateway: Gateway::new(tenants, Box::new(listener)),
    };
    let stats = live.run_frontier(&mut session, max_ticks);
    assert!(!session.client.is_failed(), "the live session must complete cleanly");
    assert!(stats.tenants.iter().map(|t| t.samples_delivered).sum::<u64>() > 0);
    assert!(!live.swap_ticks().is_empty(), "the live run must retrain");

    let capture = session.gateway.ingest_log().as_bytes().to_vec();
    let (mut replayed, replay_events) = wire_service();
    let mut replay = IngestLogReplay::from_bytes(&capture).expect("the capture parses");
    replayed.run_frontier(&mut replay, max_ticks);

    assert_eq!(replay_events.lines(), live_events.lines(), "event logs diverged");
    assert_eq!(replayed.model().to_json(), live.model().to_json(), "models diverged");
    assert_eq!(replayed.alarms().len(), live.alarms().len());
}
