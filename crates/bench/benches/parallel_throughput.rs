//! Parallel shard runtime and zero-copy extraction throughput.
//!
//! Three measured regions:
//!
//! * `extract` — one unscaled model-input row from a 34-metric,
//!   60-sample window with NaN gaps, through the **materialised** path
//!   (`FeatureView::unscaled_row`: clone + full preprocess + extract
//!   every metric, then select) versus the **zero-copy** path
//!   (`FeatureView::unscaled_row_into`: per-metric sub-slice preprocess
//!   in a reusable scratch, only the metrics the [`ExtractPlan`]
//!   touches). The selected set mirrors the production Volta profile:
//!   300 features clustered on 18 of the 34 metrics, so the plan skips
//!   roughly half the catalog. The `speedup` key is the acceptance
//!   number `scripts/ci.sh` asserts ≥ 2.
//! * `serve` — a full `FleetService` replay at 1/2/4/8 pool workers,
//!   node-metric readings per wall second per core (the container CI
//!   runs on is single-core, so worker counts beyond 1 measure barrier
//!   overhead, not parallel speedup).
//! * `merge barrier` — p50/p99 of `par_epoch_ns` (dispatch → last
//!   shard joined) from a wall-clock `Obs` over the 4-worker run.
//!
//! Writes `results/BENCH_parallel.json` — the trajectory point
//! `scripts/bench_gate.sh` gates — and prints the same numbers.
//!
//! Environment knobs:
//!
//! * `ALBA_BENCH_QUICK=1` — fewer extraction repetitions, shorter
//!   replay.
//!
//! Run with: `cargo bench -p alba-bench --bench parallel_throughput`

use std::hint::black_box;
use std::time::Instant;

use alba_data::{Matrix, MetricDef, MetricKind, MultiSeries};
use alba_features::{FeatureExtractor, FeatureView, MinMaxScaler, Mvts, PreprocessConfig};
use alba_obs::Obs;
use alba_serve::{FleetService, ServeConfig};
use alba_telemetry::Scale;
use albadross::{MonitorConfig, System};

const WINDOW: usize = 60;
const N_METRICS: usize = 34;
const SELECTED_METRICS: usize = 18;
const TOP_K: usize = 300;

/// A Volta-shaped window: 34 metrics (gauge/counter mix), 60 samples,
/// a NaN gap stripe so the interpolation path is on the measured clock.
fn window() -> MultiSeries {
    let metrics: Vec<MetricDef> = (0..N_METRICS)
        .map(|m| MetricDef {
            name: format!("m{m}"),
            subsystem: "bench".to_string(),
            kind: if m % 4 == 0 { MetricKind::Counter } else { MetricKind::Gauge },
        })
        .collect();
    let mut s = MultiSeries::new(metrics);
    for t in 0..WINDOW {
        let row: Vec<f64> = (0..N_METRICS)
            .map(|m| {
                if t % 13 == 5 && m % 7 == 2 {
                    f64::NAN // sensor gap
                } else {
                    (t as f64 * 0.31 + m as f64).sin() * 12.0 + (m * t) as f64 * 0.01 + 50.0
                }
            })
            .collect();
        s.push_sample(&row);
    }
    s
}

/// The production selection profile: `TOP_K` features clustered on
/// `SELECTED_METRICS` of the `N_METRICS` metrics (chi-square selection
/// concentrates on the informative subsystems), spread deterministically
/// over each chosen metric's per-metric features.
fn production_view(npm: usize) -> FeatureView {
    let mut selected = Vec::with_capacity(TOP_K);
    let mut slot = 0usize;
    'outer: loop {
        for m in 0..SELECTED_METRICS {
            let metric = m * (N_METRICS / SELECTED_METRICS); // every other metric
            let f = metric * npm + (slot % npm);
            if !selected.contains(&f) {
                selected.push(f);
                if selected.len() == TOP_K {
                    break 'outer;
                }
            }
        }
        slot += 1;
    }
    selected.sort_unstable();
    let k = selected.len();
    let scaler = MinMaxScaler::fit(&Matrix::from_rows(&[vec![0.0; k], vec![1.0; k]]));
    FeatureView::new(selected, scaler)
}

struct ExtractRun {
    materialized_rows_per_sec: f64,
    zero_copy_rows_per_sec: f64,
    speedup: f64,
}

fn bench_extract(reps: usize) -> ExtractRun {
    let ex = Mvts;
    let view = production_view(ex.n_features_per_metric());
    let pre = PreprocessConfig { trim_frac: 0.0, diff_counters: true, interpolate: true };
    let w = window();

    let plan = view.plan(&ex);
    let mut scratch = alba_features::ExtractScratch::default();
    let mut out = vec![0.0; view.n_features()];

    // Warm-up + the bit-identity check the whole refactor rests on.
    let golden = view.unscaled_row(&ex, &w, &pre);
    view.unscaled_row_into(&ex, &w, &pre, &plan, &mut scratch, &mut out);
    assert_eq!(
        golden.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "the measured paths must be bit-identical"
    );

    // Interleaved rounds, best rate per path: the container is a shared
    // single core, so any one timed region can absorb a scheduler
    // stall — the per-path *maximum* over alternating chunks is the
    // stable statistic (criterion's min-time idea, by hand).
    const ROUNDS: usize = 5;
    let chunk = (reps / ROUNDS).max(1);
    let mut mat: f64 = 0.0;
    let mut zc: f64 = 0.0;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        for _ in 0..chunk {
            // Materialised: clone + full preprocess + all 34 metrics.
            black_box(view.unscaled_row(&ex, black_box(&w), &pre));
        }
        mat = mat.max(chunk as f64 / t.elapsed().as_secs_f64().max(1e-9));

        let t = Instant::now();
        for _ in 0..chunk {
            // Zero-copy: planned extraction, reusable scratch, no clone.
            view.unscaled_row_into(&ex, black_box(&w), &pre, &plan, &mut scratch, &mut out);
            black_box(&out);
        }
        zc = zc.max(chunk as f64 / t.elapsed().as_secs_f64().max(1e-9));
    }

    ExtractRun {
        materialized_rows_per_sec: mat,
        zero_copy_rows_per_sec: zc,
        speedup: zc / mat.max(1e-9),
    }
}

struct ServeRun {
    node_metrics_per_sec: f64,
    epoch_p50_ns: u64,
    epoch_p99_ns: u64,
}

/// One full replay at `workers` pool workers against a wall clock.
fn bench_serve(workers: usize, quick: bool) -> ServeRun {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, if quick { 16 } else { 32 }, 42);
    cfg.fleet.duration_override_s = Some(if quick { 120 } else { 240 });
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.max_retrains = 0; // pure ingest + diagnosis in the measured region
    cfg.n_workers = workers;
    let obs = Obs::wall();
    let mut svc = FleetService::with_obs(cfg, obs.clone());
    let readings_per_sample =
        svc.fleet_batches().first().and_then(|b| b.first()).map_or(0, |s| s.values.len());

    let t = Instant::now();
    let stats = svc.run_to_completion();
    let elapsed = t.elapsed().as_secs_f64().max(1e-9);
    assert!(stats.windows > 0, "bench replay must diagnose windows");

    let epochs = obs.histogram("par_epoch_ns", &[]).snapshot();
    ServeRun {
        node_metrics_per_sec: stats.samples_emitted as f64 * readings_per_sample as f64 / elapsed,
        epoch_p50_ns: epochs.as_ref().and_then(|h| h.quantile(0.50)).unwrap_or(0),
        epoch_p99_ns: epochs.as_ref().and_then(|h| h.quantile(0.99)).unwrap_or(0),
    }
}

fn main() {
    let quick = std::env::var("ALBA_BENCH_QUICK").is_ok_and(|v| v == "1");
    let reps = if quick { 2_000 } else { 20_000 };

    let extract = bench_extract(reps);
    println!(
        "par/extract  materialised          {:>14.0} rows/s/core",
        extract.materialized_rows_per_sec
    );
    println!(
        "par/extract  zero-copy             {:>14.0} rows/s/core  ({:.2}x)",
        extract.zero_copy_rows_per_sec, extract.speedup
    );

    let worker_counts = [1usize, 2, 4, 8];
    let runs: Vec<ServeRun> = worker_counts.iter().map(|&w| bench_serve(w, quick)).collect();
    for (w, run) in worker_counts.iter().zip(&runs) {
        println!(
            "par/serve    w={w}                   {:>14.0} node-metrics/s",
            run.node_metrics_per_sec
        );
    }
    let barrier = &runs[2]; // the 4-worker run
    println!(
        "par/barrier  epoch (4 workers)     p50 {} ns, p99 {} ns",
        barrier.epoch_p50_ns, barrier.epoch_p99_ns
    );

    let json = format!(
        "{{\n  \"bench\": \"parallel_throughput\",\n  \"quick\": {},\n  \
         \"extract_rows_per_sec_per_core_materialized\": {:.0},\n  \
         \"extract_rows_per_sec_per_core_zero_copy\": {:.0},\n  \
         \"extract_zero_copy_speedup\": {:.2},\n  \
         \"serve_node_metrics_per_sec_w1\": {:.0},\n  \
         \"serve_node_metrics_per_sec_w2\": {:.0},\n  \
         \"serve_node_metrics_per_sec_w4\": {:.0},\n  \
         \"serve_node_metrics_per_sec_w8\": {:.0},\n  \
         \"merge_barrier_p50_ns\": {},\n  \
         \"merge_barrier_p99_ns\": {}\n}}\n",
        quick,
        extract.materialized_rows_per_sec,
        extract.zero_copy_rows_per_sec,
        extract.speedup,
        runs[0].node_metrics_per_sec,
        runs[1].node_metrics_per_sec,
        runs[2].node_metrics_per_sec,
        runs[3].node_metrics_per_sec,
        barrier.epoch_p50_ns,
        barrier.epoch_p99_ns,
    );
    // `cargo bench` runs the binary with cwd = the package dir, so
    // anchor the artifact at the workspace root explicitly.
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&results).expect("create results dir");
    std::fs::write(results.join("BENCH_parallel.json"), json)
        .expect("write results/BENCH_parallel.json");
    println!("par/json     wrote results/BENCH_parallel.json");
}
