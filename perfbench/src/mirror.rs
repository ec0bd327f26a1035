//! The traced serve run. It rebuilds the service's work from the layers'
//! public calls — the same calls, in the same order, with the same seeds
//! as `FleetService` — and wraps each call in one of the benchmark's own
//! spans. The program is not instrumented and its `stage_ns` histograms
//! are not read. The mirror's alarm log and swap ticks are compared with
//! the real service's (`trace.mirror_mismatch`), so a later change to the
//! service's schedule shows up as a count.

use crate::serve::{config, staggered, wire_harness, Serve};
use crate::spans::{unattributed_ms, Layers};
use alba_active::uncertainty_score;
use alba_data::Matrix;
use alba_features::{ExtractScratch, FeatureExtractor, FeatureView, Mvts, TsFresh};
use alba_ml::{Diagnosis, DiagnosisModel};
use alba_obs::Obs;
use alba_par::Pool;
use alba_serve::{
    FleetConfig, IngestLayer, LabelQueue, LabelRequest, NetFrontier, NodeAlarm, NodeStream,
    ReplaySource, Retrainer, ServeConfig, TelemetrySample, WindowOutcome,
};
use alba_store::{key_of, LabelJournal, TelemetryStore};
use albadross::{prepare_split, FeatureMethod, NodeMonitor, SystemData};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's salt for the held-out replay seed.
const REPLAY_SALT: u64 = 0x5E_EDF1_EED0_5A17;
/// The service's salt for the node→shard shuffle.
const SHARD_SALT: u64 = 0x5AAD_0F5A_A2D5;

/// Spans on the driving thread. They never overlap; with
/// `trace.unattributed_ms` they add up to `trace.wall_ms`.
pub const TOP_LEVEL: [&str; 15] = [
    "core.system_data_ms",
    "core.split_ms",
    "ml.fit_initial_ms",
    "telemetry.replay_build_ms",
    "par.pool_build_ms",
    "telemetry.replay_ms",
    "net.client_ms",
    "net.gateway_ms",
    "serve.ingest_ms",
    "serve.drain_ms",
    "par.epoch_ms",
    "serve.gate_ms",
    "ml.retrain_ms",
    "store.journal_ms",
    "serve.swap_ms",
];

/// One shard as the mirror runs it: the node monitors the service's
/// `Shard` would own, driven through `NodeMonitor`'s batched hooks.
struct MirrorShard {
    nodes: Vec<usize>,
    local: BTreeMap<usize, usize>,
    monitors: Vec<NodeMonitor>,
    model: Arc<DiagnosisModel>,
    view: FeatureView,
    width: usize,
    scratch: ExtractScratch,
}

/// A shard's output for one epoch, with its own spans.
struct ShardDone {
    shard: MirrorShard,
    windows: Vec<WindowOutcome>,
    alarms: Vec<NodeAlarm>,
    layers: Layers,
    busy: Duration,
}

impl MirrorShard {
    /// `Shard::process` (batched) with a span around each layer call.
    fn process(mut self, batch: Vec<TelemetrySample>) -> ShardDone {
        let start = Instant::now();
        let mut layers = Layers::default();
        let mut due: Vec<(usize, usize)> = Vec::new();
        let mut rows: Vec<Vec<f64>> = Vec::new();
        layers.time("features.extract_ms", || {
            for s in &batch {
                let Some(&l) = self.local.get(&s.node) else { continue };
                if s.values.len() != self.width {
                    continue;
                }
                if self.monitors[l].push(&s.values) {
                    let mut row = Vec::new();
                    self.monitors[l].window_row_into(&mut self.scratch, &mut row);
                    rows.push(row);
                    due.push((l, s.at));
                }
            }
        });
        let mut windows = Vec::with_capacity(due.len());
        let mut alarms = Vec::new();
        if !due.is_empty() {
            layers.count("features.windows", due.len() as f64);
            let x = layers.time("features.scale_ms", || {
                let mut x = Matrix::from_rows(&rows);
                self.view.scale_inplace(&mut x);
                for (r, row) in rows.iter_mut().enumerate() {
                    row.copy_from_slice(x.row(r));
                }
                x
            });
            let proba: Vec<Vec<f64>> = layers.time("ml.infer_ms", || {
                let p = self.model.probabilities(&x);
                (0..p.rows()).map(|r| p.row(r).to_vec()).collect()
            });
            layers.count("ml.infer.calls", 1.0);
            layers.time("core.hysteresis_ms", || {
                let names = &self.model.class_names;
                for (((l, at), row), p) in due.into_iter().zip(rows).zip(&proba) {
                    let best = (1..p.len()).fold(0, |b, i| if p[i] > p[b] { i } else { b });
                    let diagnosis = Diagnosis { label: names[best].clone(), confidence: p[best] };
                    if let Some(alarm) = self.monitors[l].apply_diagnosis(diagnosis.clone()) {
                        alarms.push(NodeAlarm { node: self.nodes[l], alarm });
                    }
                    windows.push(WindowOutcome {
                        node: self.nodes[l],
                        at,
                        uncertainty: uncertainty_score(p),
                        diagnosis,
                        row,
                    });
                }
            });
        }
        ShardDone { busy: start.elapsed(), shard: self, windows, alarms, layers }
    }

    fn set_model(&mut self, model: &Arc<DiagnosisModel>) {
        for m in &mut self.monitors {
            m.set_model(Arc::clone(model));
        }
        self.model = Arc::clone(model);
    }
}

/// The mirror's outcome: spans and counts, plus what the real service is
/// compared against.
pub struct MirrorRun {
    /// Per-layer spans and counts.
    pub layers: Layers,
    /// Confirmed alarms in confirmation order.
    pub alarms: Vec<NodeAlarm>,
    /// Hot-swap ticks.
    pub swap_ticks: Vec<usize>,
    /// Whole traced run (set-up and serving), ms.
    pub wall_ms: f64,
    /// Serving loop wall time with the load generator excluded, plus the
    /// pool build (which the program does inside its first tick), ms.
    pub serve_ms: f64,
}

/// The replay fleet through the store, as the service builds it: a miss
/// generates the streams and persists them.
fn replay_via_store(store: &TelemetryStore, cfg: &FleetConfig) -> ReplaySource {
    let key = key_of("fleet", cfg);
    if let Ok(Some(samples)) = store.read_samples("fleet", &key) {
        let streams = samples
            .into_iter()
            .map(|telemetry| {
                let app = telemetry.meta.app.clone();
                NodeStream { telemetry, app }
            })
            .collect();
        return ReplaySource::from_streams(streams);
    }
    let replay = ReplaySource::build(cfg);
    let telemetry: Vec<_> = replay.streams().iter().map(|s| s.telemetry.clone()).collect();
    let config_json = serde_json::to_string(cfg).unwrap_or_default();
    let _ = store.write_samples("fleet", &key, &config_json, &telemetry);
    replay
}

/// Runs the workload's traced mirror. `store_dir` must be fresh and empty.
pub fn run_mirror(kind: Serve, seed: u64, store_dir: Option<String>) -> MirrorRun {
    let cfg: ServeConfig = config(kind, seed, store_dir);
    let mut ly = Layers::default();
    let wall = Instant::now();

    // Set-up, in `FleetService::build` order.
    let store = cfg.store_dir.as_deref().and_then(|d| TelemetryStore::open(d).ok());
    let (system, method, scale) = (cfg.fleet.system, cfg.method, cfg.fleet.scale);
    let sd = ly.time("core.system_data_ms", || match &store {
        Some(s) => SystemData::generate_stored(s, system, method, scale, seed)
            .expect("a fresh store directory is writable"),
        None => SystemData::generate(system, method, scale, seed),
    });
    let split = ly.time("core.split_ms", || prepare_split(&sd.dataset, &cfg.split, seed));
    let (mut retrainer, mut model) = ly.time("ml.fit_initial_ms", || {
        let r = Retrainer::new(&split.train, cfg.forest);
        let m = r.fit();
        (r, m)
    });
    let view = split.feature_view();
    let journal = store.as_ref().map(|s| {
        ly.time("store.journal_ms", || {
            let mut key_cfg = cfg.clone();
            key_cfg.store_dir = None;
            key_cfg.chaos = None;
            key_cfg.n_workers = 0;
            let path = s.journal_path(&key_of("serve", &key_cfg));
            LabelJournal::open(&path).expect("a fresh journal opens").0
        })
    });
    let replay_cfg = FleetConfig { seed: cfg.fleet.seed ^ REPLAY_SALT, ..cfg.fleet };
    let mut replay = ly.time("telemetry.replay_build_ms", || match &store {
        Some(s) => replay_via_store(s, &replay_cfg),
        None => ReplaySource::build(&replay_cfg),
    });
    let n_nodes = replay.n_nodes();
    let oracle = replay.truth_labels();
    let metrics = replay.metrics().to_vec();
    let mut ingest = IngestLayer::new(n_nodes, cfg.queue_capacity).expect_width(metrics.len());
    let mut nodes: Vec<usize> = (0..n_nodes).collect();
    nodes.shuffle(&mut StdRng::seed_from_u64(cfg.fleet.seed ^ SHARD_SALT));
    let n_shards = cfg.n_shards.min(n_nodes);
    let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for (i, &n) in nodes.iter().enumerate() {
        per_shard[i % n_shards].push(n);
    }
    ingest.assign_shards(per_shard.clone());
    let extractor: Arc<dyn FeatureExtractor + Send + Sync> = match cfg.method {
        FeatureMethod::Mvts => Arc::new(Mvts),
        FeatureMethod::TsFresh => Arc::new(TsFresh),
    };
    let mut shards: Vec<MirrorShard> = per_shard
        .into_iter()
        .map(|ns| MirrorShard {
            local: ns.iter().enumerate().map(|(l, &n)| (n, l)).collect(),
            monitors: ns
                .iter()
                .map(|_| {
                    NodeMonitor::new(
                        Arc::clone(&model),
                        Arc::clone(&extractor),
                        metrics.clone(),
                        view.clone(),
                        cfg.monitor.clone(),
                    )
                })
                .collect(),
            nodes: ns,
            model: Arc::clone(&model),
            view: view.clone(),
            width: metrics.len(),
            scratch: ExtractScratch::default(),
        })
        .collect();
    let auto = std::thread::available_parallelism().map_or(1, usize::from);
    let n_workers = auto.min(shards.len()).max(1);
    // The service builds its pool lazily, inside its first tick; the
    // mirror builds it here so its cost shows as set-up of its own.
    let mut pool: Pool<(MirrorShard, Vec<TelemetrySample>), ShardDone> =
        ly.time("par.pool_build_ms", || {
            Pool::new(n_workers, Obs::disabled(), |_w, (shard, batch): (MirrorShard, Vec<_>)| {
                shard.process(batch)
            })
        });
    // The wire load generator's input: the same schedule the real run's
    // client streams (`FleetService::fleet_batches`).
    let mut harness = kind.wire().then(|| {
        ly.time("net.client_ms", || {
            let mut r = replay.clone();
            let mut schedule = Vec::new();
            while !r.is_exhausted() {
                schedule.push(r.tick());
            }
            wire_harness(staggered(schedule), n_nodes)
        })
    });

    // Serving loop, in `FleetService::tick` / `tick_from` order.
    let mut label_queue = LabelQueue::new(cfg.label_queue_capacity);
    let mut alarms: Vec<NodeAlarm> = Vec::new();
    let mut swap_ticks: Vec<usize> = Vec::new();
    let (mut busiest_sum, mut mean_sum) = (0.0f64, 0.0f64);
    let serve_start = Instant::now();
    let client_before = ly.ms("net.client_ms");
    let mut tick = 0usize;
    loop {
        let now = tick;
        let emitted = match harness.as_mut() {
            Some(h) => {
                let t = Instant::now();
                h.loadgen.step(now);
                ly.add("net.client_ms", t.elapsed());
                ly.time("net.gateway_ms", || h.frontier.poll(now))
            }
            None => ly.time("telemetry.replay_ms", || replay.tick()),
        };
        ly.count("serve.ingest.offered", emitted.len() as f64);
        let shed = ly.time("serve.ingest_ms", || {
            let mut shed = 0usize;
            for s in emitted {
                if !ingest.offer(s) {
                    shed += 1;
                }
            }
            shed
        });
        ly.count("serve.ingest.shed", shed as f64);

        let batches: Vec<Vec<TelemetrySample>> = ly.time("serve.drain_ms", || {
            (0..shards.len()).map(|sid| ingest.drain_shard(sid)).collect()
        });

        let epoch = Instant::now();
        let jobs: Vec<_> = std::mem::take(&mut shards).into_iter().zip(batches).collect();
        let done = pool.run_epoch(jobs);
        let epoch_wall = epoch.elapsed();
        ly.add("par.epoch_ms", epoch_wall);
        let mut reports = Vec::with_capacity(done.len());
        let mut busy: Vec<f64> = Vec::with_capacity(done.len());
        for slot in done {
            let d = slot.expect("mirror shards do not panic");
            ly.merge(&d.layers);
            ly.add("par.shard_busy_ms", d.busy);
            busy.push(d.busy.as_secs_f64() * 1e3);
            shards.push(d.shard);
            reports.push((d.windows, d.alarms));
        }
        let busiest = busy.iter().copied().fold(0.0, f64::max);
        busiest_sum += busiest;
        mean_sum += busy.iter().sum::<f64>() / busy.len().max(1) as f64;
        ly.add(
            "par.barrier_wait_ms",
            epoch_wall.saturating_sub(Duration::from_secs_f64(busiest / 1e3)),
        );

        let gating_open = swap_ticks.len() < cfg.max_retrains;
        ly.time("serve.gate_ms", || {
            for (windows, shard_alarms) in reports {
                alarms.extend(shard_alarms);
                if gating_open {
                    for w in &windows {
                        if w.uncertainty >= cfg.uncertainty_threshold {
                            label_queue.offer(LabelRequest::from_window(w));
                        }
                    }
                }
            }
        });

        while label_queue.len() >= cfg.retrain_batch && swap_ticks.len() < cfg.max_retrains {
            let reqs = label_queue.take(cfg.retrain_batch);
            if reqs.is_empty() {
                break;
            }
            let mut labelled = Vec::with_capacity(reqs.len());
            for r in reqs {
                let Some(truth) = oracle.get(r.node).cloned() else { continue };
                if let Some(j) = &journal {
                    ly.time("store.journal_ms", || j.append_label(r.node, r.at, &truth, &r.row))
                        .expect("journal append");
                    ly.count("store.journal.appends", 1.0);
                }
                labelled.push((r.row, truth));
            }
            if labelled.is_empty() {
                break;
            }
            ly.count("ml.retrain.rows", labelled.len() as f64);
            model = ly.time("ml.retrain_ms", || retrainer.fold_in(labelled));
            ly.count("ml.retrain.rounds", 1.0);
            ly.time("serve.swap_ms", || {
                for sh in &mut shards {
                    sh.set_model(&model);
                }
                label_queue.record_retrain();
            });
            if let Some(j) = &journal {
                ly.time("store.journal_ms", || j.append_retrain(swap_ticks.len() as u64 + 1, tick))
                    .expect("journal append");
                ly.count("store.journal.appends", 1.0);
            }
            swap_ticks.push(tick);
        }

        tick += 1;
        let done = match harness.as_ref() {
            Some(h) => h.is_done(tick),
            None => replay.is_exhausted(),
        };
        if done && ingest.is_empty() {
            break;
        }
    }
    let serve_ms = serve_start.elapsed().as_secs_f64() * 1e3
        - (ly.ms("net.client_ms") - client_before)
        + ly.ms("par.pool_build_ms");
    drop(pool);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    // Derived per-layer figures.
    let gate = label_queue.stats();
    ly.count("serve.gate.requests", (gate.requested + gate.dropped) as f64);
    ly.count("serve.gate.accepted", gate.requested as f64);
    ly.count("core.alarms", alarms.len() as f64);
    if let Some(h) = harness.as_ref() {
        let sent = h.loadgen.stats().frames_sent as f64;
        let delivered: u64 = h.tenant_stats().iter().map(|t| t.samples_delivered).sum();
        ly.count("net.frames", sent);
        ly.count("net.frames_undelivered", sent - delivered as f64);
    }
    ly.count("par.shard_skew", if mean_sum > 0.0 { busiest_sum / mean_sum } else { 0.0 });
    MirrorRun { layers: ly, alarms, swap_ticks, wall_ms, serve_ms }
}

/// The per-layer metrics of a mirror run, as `(name, value)`.
pub fn layer_metrics(m: &MirrorRun) -> Vec<(&'static str, f64)> {
    let ly = &m.layers;
    let windows = ly.n("features.windows");
    let calls = ly.n("ml.infer.calls");
    let requests = ly.n("serve.gate.requests");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out: Vec<(&'static str, f64)> = TOP_LEVEL.iter().map(|&k| (k, ly.ms(k))).collect();
    out.extend([
        ("net.frames", ly.n("net.frames")),
        ("net.frames_undelivered", ly.n("net.frames_undelivered")),
        ("serve.ingest.offered", ly.n("serve.ingest.offered")),
        ("serve.ingest.shed", ly.n("serve.ingest.shed")),
        ("par.shard_busy_ms", ly.ms("par.shard_busy_ms")),
        ("par.barrier_wait_ms", ly.ms("par.barrier_wait_ms")),
        ("par.shard_skew", ly.n("par.shard_skew")),
        ("features.extract_ms", ly.ms("features.extract_ms")),
        ("features.windows", windows),
        ("features.extract_us_per_window", ratio(ly.ms("features.extract_ms") * 1e3, windows)),
        ("features.scale_ms", ly.ms("features.scale_ms")),
        ("ml.infer_ms", ly.ms("ml.infer_ms")),
        ("ml.infer.calls", calls),
        ("ml.infer.rows_per_call", ratio(windows, calls)),
        ("core.hysteresis_ms", ly.ms("core.hysteresis_ms")),
        ("core.alarms", ly.n("core.alarms")),
        ("serve.gate.requests", requests),
        ("serve.gate.accepted_ratio", ratio(ly.n("serve.gate.accepted"), requests)),
        ("ml.retrain.rounds", ly.n("ml.retrain.rounds")),
        ("ml.retrain.rows", ly.n("ml.retrain.rows")),
        ("store.journal.appends", ly.n("store.journal.appends")),
        ("trace.wall_ms", m.wall_ms),
        ("trace.unattributed_ms", unattributed_ms(m.wall_ms, ly, &TOP_LEVEL)),
    ]);
    out
}
