//! The two serve workloads, run end to end through the program as
//! shipped: `FleetService::new` (obs and tracer disabled) driven one
//! `tick()` / `tick_from()` call at a time by a single closed-loop
//! driver.

use alba_ml::metrics::ConfusionMatrix;
use alba_net::{Gateway, GatewayConfig, MemListener, TenantConfig, WireClient};
use alba_serve::{FleetService, NetFrontier, NodeAlarm, ServeConfig, TelemetrySample, TenantStats};
use alba_telemetry::Scale;
use albadross::{FeatureMethod, MonitorConfig, System};
use serde::Serialize;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Fleet-seconds streamed per Volta session.
pub const VOLTA_STREAM_S: usize = 300;
/// Fleet-seconds streamed per Eclipse node.
pub const ECLIPSE_STREAM_S: usize = 80;
/// Monitor window stride, ticks.
const STRIDE: usize = 10;
/// Tenant name and token of the wire workload's single connection.
const TENANT: (&str, &str) = ("eclipse", "bench-token");

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serve {
    /// `volta_tsfresh_serve`: 52 nodes, TSFRESH, online AL loop live.
    VoltaTsfresh,
    /// `eclipse_wire_serve`: 1488 nodes, Mvts, wire ingest, no retrain.
    EclipseWire,
}

impl Serve {
    /// True when input arrives through the alba-net gateway.
    pub fn wire(self) -> bool {
        self == Serve::EclipseWire
    }
}

/// The service configuration of a workload. `store_dir` must be a fresh,
/// empty directory for the Volta workload (its label journal lives there).
pub fn config(kind: Serve, seed: u64, store_dir: Option<String>) -> ServeConfig {
    let monitor = MonitorConfig { window: 60, stride: STRIDE, confirm: 2, min_confidence: 0.5 };
    match kind {
        Serve::VoltaTsfresh => {
            let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 52, seed);
            cfg.fleet.duration_override_s = Some(VOLTA_STREAM_S);
            cfg.monitor = monitor;
            cfg.method = FeatureMethod::TsFresh;
            cfg.n_shards = 4;
            cfg.uncertainty_threshold = 0.3;
            cfg.retrain_batch = 12;
            // Far above what any stream can use: retrain rounds grow with
            // stream length instead of stopping at a cap.
            cfg.max_retrains = 100_000;
            cfg.store_dir = store_dir;
            cfg
        }
        Serve::EclipseWire => {
            let mut cfg = ServeConfig::new(System::Eclipse, Scale::Smoke, 1488, seed);
            cfg.fleet.duration_override_s = Some(ECLIPSE_STREAM_S);
            cfg.monitor = monitor;
            cfg.method = FeatureMethod::Mvts;
            cfg.n_shards = 4;
            cfg.max_retrains = 0;
            cfg
        }
    }
}

/// The load generator of a closed loop: whatever produces the next
/// fleet-second of input before the program is asked to serve it.
pub trait LoadGen {
    /// Produces tick `now`'s input.
    fn step(&mut self, now: usize);
    /// True once every scheduled input was produced.
    fn is_done(&self) -> bool;
}

impl LoadGen for WireClient {
    fn step(&mut self, now: usize) {
        WireClient::step(self, now);
    }
    fn is_done(&self) -> bool {
        WireClient::is_done(self)
    }
}

/// The gateway as a frontier that pumps its connections before each
/// drain (what `alba_net::Lockstep` does after stepping its client).
pub struct Pumped(pub Gateway);

impl NetFrontier for Pumped {
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample> {
        self.0.pump(now, None);
        NetFrontier::poll(&mut self.0, now)
    }
    fn is_done(&self, now: usize) -> bool {
        NetFrontier::is_done(&self.0, now)
    }
    fn tenant_stats(&self) -> Vec<TenantStats> {
        NetFrontier::tenant_stats(&self.0)
    }
}

/// A lockstep frontier that clocks its load generator, so the driver can
/// subtract load-generator time from each `tick_from` call it times.
pub struct Measured<L, F> {
    /// The load generator, stepped first on every poll.
    pub loadgen: L,
    /// The program's frontier the samples arrive through.
    pub frontier: F,
    /// Wall time spent in `loadgen.step`, nanoseconds.
    pub loadgen_ns: u64,
}

impl<L: LoadGen, F: NetFrontier> NetFrontier for Measured<L, F> {
    fn poll(&mut self, now: usize) -> Vec<TelemetrySample> {
        let t = Instant::now();
        self.loadgen.step(now);
        self.loadgen_ns += t.elapsed().as_nanos() as u64;
        self.frontier.poll(now)
    }
    fn is_done(&self, now: usize) -> bool {
        self.loadgen.is_done() && self.frontier.is_done(now)
    }
    fn tenant_stats(&self) -> Vec<TenantStats> {
        self.frontier.tenant_stats()
    }
}

/// Times one call that may poll `m`, minus the load-generator time spent
/// inside it. Returns `(result, latency_ms, loadgen_ms)`.
pub fn timed_excluding_loadgen<L, F, T>(
    m: &mut Measured<L, F>,
    call: impl FnOnce(&mut Measured<L, F>) -> T,
) -> (T, f64, f64) {
    let lg0 = m.loadgen_ns;
    let t = Instant::now();
    let out = call(m);
    let wall_ns = t.elapsed().as_nanos() as u64;
    let lg_ns = m.loadgen_ns - lg0;
    (out, wall_ns.saturating_sub(lg_ns) as f64 / 1e6, lg_ns as f64 / 1e6)
}

/// The wire workload's input: `schedule` with node `n` starting
/// `n % STRIDE` ticks late, its samples re-stamped with the tick they are
/// sent on. Nodes do not boot in the same second, so their windows fall
/// due on every tick (about a tenth of the fleet each) instead of all
/// together on one tick in ten, and a run's latency percentiles rest on
/// hundreds of window ticks instead of a few dozen.
pub fn staggered(schedule: Vec<Vec<TelemetrySample>>) -> Vec<Vec<TelemetrySample>> {
    let mut out = vec![Vec::new(); schedule.len() + STRIDE - 1];
    for (t, tick) in schedule.into_iter().enumerate() {
        for mut s in tick {
            s.at = t + s.node % STRIDE;
            out[s.at].push(s);
        }
    }
    out
}

/// The wire workload's harness: a deterministic client streaming
/// `schedule` over an in-memory listener into a gateway whose tenant is
/// sized to the fleet (one connection; credits and queue hold two full
/// fleet-seconds, so a well-behaved client is never shed).
pub fn wire_harness(
    schedule: Vec<Vec<TelemetrySample>>,
    n_nodes: usize,
) -> Measured<WireClient, Pumped> {
    let per_tick = n_nodes.max(1);
    let (listener, dialer) = MemListener::new(64 << 20);
    let mut tenant = TenantConfig::new(TENANT.0, TENANT.1);
    tenant.max_connections = 1;
    tenant.initial_credits = u32::try_from(2 * per_tick).expect("fleet fits a credit window");
    tenant.queue_capacity = 2 * per_tick;
    let gateway = Gateway::new(GatewayConfig::new(vec![tenant]), Box::new(listener));
    let client =
        WireClient::new(Box::new(move || Box::new(dialer.dial())), TENANT.0, TENANT.1, schedule);
    Measured { loadgen: client, frontier: Pumped(gateway), loadgen_ns: 0 }
}

/// Alarm and window quality against the injected per-node truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quality {
    /// Alarms whose label matches the node's truth ÷ alarms.
    pub precision: f64,
    /// Anomalous nodes with a correctly labelled alarm ÷ anomalous nodes.
    pub recall: f64,
    /// Macro F1 of every window verdict against its node's truth.
    pub window_f1: f64,
}

/// Scores alarms and window verdicts against `truth` (one label per
/// node); `classes` are the model's class names.
pub fn quality(
    alarms: &[NodeAlarm],
    truth: &[String],
    verdicts: &[Vec<String>],
    classes: &[String],
) -> Quality {
    let correct = alarms.iter().filter(|a| a.alarm.label == truth[a.node]).count();
    let precision = if alarms.is_empty() { 0.0 } else { correct as f64 / alarms.len() as f64 };
    let anomalous: Vec<usize> = (0..truth.len()).filter(|&n| truth[n] != "healthy").collect();
    let caught = anomalous
        .iter()
        .filter(|&&n| alarms.iter().any(|a| a.node == n && a.alarm.label == truth[n]))
        .count();
    let recall = if anomalous.is_empty() { 1.0 } else { caught as f64 / anomalous.len() as f64 };
    let class = |l: &str| classes.iter().position(|c| c == l).expect("labels are model classes");
    let (t, p): (Vec<usize>, Vec<usize>) = verdicts
        .iter()
        .enumerate()
        .flat_map(|(n, vs)| vs.iter().map(move |v| (class(&truth[n]), class(v))))
        .unzip();
    let window_f1 = ConfusionMatrix::from_predictions(&t, &p, classes.len()).macro_f1();
    Quality { precision, recall, window_f1 }
}

/// A hash of the alarm log and swap ticks, bit for bit: equal for
/// identical runs of one binary, different (barring a 64-bit collision)
/// otherwise.
pub fn digest(alarms: &[NodeAlarm], swap_ticks: &[usize]) -> String {
    let log: Vec<_> = alarms
        .iter()
        .map(|a| (a.node, a.alarm.at, &a.alarm.label, a.alarm.confidence.to_bits()))
        .collect();
    hash_hex(&(log, swap_ticks))
}

/// `value` hashed with the standard library's fixed-key hasher, as hex.
pub fn hash_hex(value: &impl Hash) -> String {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    format!("{:016x}", h.finish())
}

/// Positions at which two alarm logs or swap-tick lists differ, plus the
/// length difference: 0 iff the runs agree exactly.
pub fn mismatch(a: (&[NodeAlarm], &[usize]), b: (&[NodeAlarm], &[usize])) -> usize {
    let alarms =
        a.0.iter().zip(b.0).filter(|(x, y)| x != y).count() + a.0.len().abs_diff(b.0.len());
    let swaps = a.1.iter().zip(b.1).filter(|(x, y)| x != y).count() + a.1.len().abs_diff(b.1.len());
    alarms + swaps
}

/// Scheduled samples lost before reaching a monitor, by cause.
#[derive(Debug, Default, Serialize)]
pub struct Failures {
    /// Scheduled but never delivered by the frontier.
    pub undelivered: u64,
    /// Shed by a full ingest queue.
    pub shed: u64,
    /// Rejected for a reading vector that disagrees with the catalog.
    pub malformed: u64,
    /// Addressed to no known node.
    pub unroutable: u64,
    /// Label-journal appends that exhausted their retries.
    pub journal_failures: u64,
}

/// One end-to-end repetition of a serve workload, as printed.
#[derive(Debug, Serialize)]
pub struct ServeReport {
    /// `FleetService::new`, seconds.
    pub setup_s: f64,
    /// Every tick call, load generator excluded, ms.
    pub serve_ms: f64,
    /// Load generator time inside the tick calls, ms.
    pub loadgen_ms: f64,
    /// Samples that reached a monitor × catalog width.
    pub node_metric_samples: u64,
    /// Samples the workload scheduled.
    pub scheduled: u64,
    /// Scheduled samples that never reached a monitor, plus journal failures.
    pub failed: u64,
    /// `failed`, by cause.
    pub failures: Failures,
    /// Windows diagnosed.
    pub windows: u64,
    /// Windows diagnosed on ticks that also ran a retrain round.
    pub retrain_windows: u64,
    /// Distinct ticks that ran a retrain round.
    pub retrain_ticks: u64,
    /// The workload's cap on retrain rounds.
    pub max_retrains: usize,
    /// Confirmed alarms.
    pub alarms: u64,
    /// Nodes whose injected truth is an anomaly.
    pub anomalous_nodes: u64,
    /// See [`Quality`].
    pub alarm_precision: f64,
    /// See [`Quality`].
    pub alarm_recall: f64,
    /// See [`Quality`].
    pub diagnosis_f1: f64,
    /// Hot-swap ticks.
    pub swap_ticks: Vec<usize>,
    /// [`digest`] of the alarm log and swap ticks.
    pub digest: String,
    /// `(latency_ms, windows)` for every tick that diagnosed windows.
    pub latency: Vec<(f64, f64)>,
    /// Peak resident set of the process, MB (filled in last).
    pub peak_rss_mb: f64,
}

/// What one end-to-end run of the program produced.
pub struct ServeRun {
    /// Confirmed alarms in confirmation order.
    pub alarms: Vec<NodeAlarm>,
    /// The printed report.
    pub report: ServeReport,
}

/// Builds the service as shipped and serves the workload's whole stream.
pub fn run_program(kind: Serve, seed: u64, store_dir: Option<String>) -> ServeRun {
    let cfg = config(kind, seed, store_dir);
    let max_retrains = cfg.max_retrains;
    let t = Instant::now();
    let mut svc = FleetService::new(cfg);
    let setup_s = t.elapsed().as_secs_f64();

    let schedule = svc.fleet_batches();
    let scheduled = schedule.iter().map(Vec::len).sum::<usize>() as u64;
    let width = schedule.iter().flatten().next().map_or(0, |s| s.values.len()) as u64;
    let mut harness = kind.wire().then(|| wire_harness(staggered(schedule), svc.n_nodes()));

    let mut latency = Vec::new();
    let (mut serve_ms, mut loadgen_ms) = (0.0, 0.0);
    let (mut windows, mut rounds, mut retrain_windows, mut retrain_ticks) =
        (0u64, 0usize, 0u64, 0u64);
    loop {
        let (more, ms, lg) = match harness.as_mut() {
            Some(h) => timed_excluding_loadgen(h, |h| svc.tick_from(h)),
            None => {
                let t = Instant::now();
                let more = svc.tick();
                (more, t.elapsed().as_secs_f64() * 1e3, 0.0)
            }
        };
        serve_ms += ms;
        loadgen_ms += lg;
        let now_windows = svc.stats().windows;
        let diagnosed = now_windows - windows;
        windows = now_windows;
        let retrained = svc.swap_ticks().len() > rounds;
        if diagnosed > 0 {
            latency.push((ms, diagnosed as f64));
            if retrained {
                retrain_windows += diagnosed;
            }
        }
        retrain_ticks += u64::from(retrained);
        rounds = svc.swap_ticks().len();
        if !more {
            break;
        }
    }

    let stats = svc.stats();
    let reached: u64 = stats.shards.iter().map(|s| s.counters.samples).sum();
    let delivered: u64 = match harness.as_ref() {
        Some(h) => h.tenant_stats().iter().map(|t| t.samples_delivered).sum(),
        None => stats.samples_emitted,
    };
    let truth: Vec<String> = (0..svc.n_nodes()).map(|n| svc.truth(n).to_string()).collect();
    let verdicts: Vec<Vec<String>> = (0..svc.n_nodes())
        .map(|n| svc.monitor(n).verdicts().iter().map(|v| v.diagnosis.label.clone()).collect())
        .collect();
    let q = quality(svc.alarms(), &truth, &verdicts, &svc.model().class_names);
    let report = ServeReport {
        setup_s,
        serve_ms,
        loadgen_ms,
        node_metric_samples: reached * width,
        scheduled,
        failed: scheduled.saturating_sub(reached) + stats.errors.journal_failures,
        failures: Failures {
            undelivered: scheduled.saturating_sub(delivered),
            shed: stats.ingest.dropped,
            malformed: stats.errors.malformed_ingest_drops + stats.errors.malformed_samples,
            unroutable: stats.errors.unroutable_samples,
            journal_failures: stats.errors.journal_failures,
        },
        windows,
        retrain_windows,
        retrain_ticks,
        max_retrains,
        alarms: svc.alarms().len() as u64,
        anomalous_nodes: truth.iter().filter(|t| *t != "healthy").count() as u64,
        alarm_precision: q.precision,
        alarm_recall: q.recall,
        diagnosis_f1: q.window_f1,
        swap_ticks: svc.swap_ticks().to_vec(),
        digest: digest(svc.alarms(), svc.swap_ticks()),
        latency,
        peak_rss_mb: f64::NAN,
    };
    ServeRun { alarms: svc.alarms().to_vec(), report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alba_serve::BatchFrontier;
    use albadross::Alarm;
    use std::time::Duration;

    /// A load generator that burns a fixed time per step.
    struct Slow(Duration, usize);

    impl LoadGen for Slow {
        fn step(&mut self, _now: usize) {
            std::thread::sleep(self.0);
            self.1 += 1;
        }
        fn is_done(&self) -> bool {
            self.1 >= 1
        }
    }

    #[test]
    fn load_generator_time_is_excluded_from_latency() {
        let mut m = Measured {
            loadgen: Slow(Duration::from_millis(30), 0),
            frontier: BatchFrontier::new(vec![Vec::new()]),
            loadgen_ns: 0,
        };
        let ((), ms, lg) = timed_excluding_loadgen(&mut m, |m| {
            let _ = m.poll(0);
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(lg >= 30.0, "load generator time must be measured, got {lg}");
        assert!((5.0..25.0).contains(&ms), "latency must exclude the 30 ms step, got {ms}");
        assert!(m.is_done(1));
    }

    #[test]
    fn stagger_delays_each_node_by_its_phase() {
        let sample = |node, at| TelemetrySample { node, at, values: vec![at as f64] };
        let schedule: Vec<_> = (0..3).map(|t| vec![sample(0, t), sample(13, t)]).collect();
        let out = staggered(schedule);
        assert_eq!(out.len(), 3 + STRIDE - 1);
        let sent: Vec<(usize, usize, f64)> = out
            .iter()
            .enumerate()
            .flat_map(|(t, tick)| tick.iter().map(move |s| (t, s.node, s.values[0])))
            .collect();
        let want =
            [(0, 0, 0.0), (1, 0, 1.0), (2, 0, 2.0), (3, 13, 0.0), (4, 13, 1.0), (5, 13, 2.0)];
        assert_eq!(sent, want);
        assert!(out.iter().enumerate().all(|(t, tick)| tick.iter().all(|s| s.at == t)));
    }

    fn alarm(node: usize, label: &str) -> NodeAlarm {
        NodeAlarm { node, alarm: Alarm { at: 70, label: label.into(), confidence: 0.9 } }
    }

    #[test]
    fn quality_scores_alarms_against_truth() {
        let truth: Vec<String> = ["healthy", "memleak", "cpuoccupy"].map(String::from).to_vec();
        let alarms = [alarm(1, "memleak"), alarm(0, "memleak"), alarm(1, "memleak")];
        let verdicts = vec![
            vec!["healthy".to_string()],
            vec!["memleak".to_string()],
            vec!["healthy".to_string()],
        ];
        let q = quality(&alarms, &truth, &verdicts, &truth);
        assert!((q.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((q.recall - 0.5).abs() < 1e-12);
        // healthy: tp 1, fp 1 → 2/3; memleak: 1; cpuoccupy: 0.
        assert!((q.window_f1 - (2.0 / 3.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_counts_differing_positions() {
        let a = [alarm(1, "memleak"), alarm(2, "dial")];
        let b = [alarm(1, "memleak"), alarm(2, "memleak"), alarm(3, "dial")];
        assert_eq!(mismatch((&a, &[5]), (&a, &[5])), 0);
        assert_eq!(mismatch((&a, &[5]), (&b, &[5, 9])), 3);
        assert_ne!(digest(&a, &[5]), digest(&a, &[6]));
    }
}
