//! Streaming telemetry replay — the service's stand-in for an LDMS
//! aggregator feed.
//!
//! A [`ReplaySource`] materialises one campaign's worth of per-node runs
//! (via the [`alba_telemetry`] generator) and replays them as a fleet:
//! every fleet slot is one `(run, node)` telemetry stream with its
//! ground-truth label, and [`ReplaySource::tick`] emits one 1 Hz sample
//! per still-active node. Replay is fully deterministic in the master
//! seed — the integration suite asserts bit-identical streams — and the
//! ground truth doubles as the feedback loop's labelling oracle.

use alba_data::MetricDef;
use alba_telemetry::{generate_run, NodeTelemetry, Scale};
use albadross::System;
use serde::{Deserialize, Serialize};

/// Fleet simulation shape: which system, how many nodes, which seed.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FleetConfig {
    /// System whose campaign generator feeds the fleet.
    pub system: System,
    /// Campaign scale (controls metric-catalog width and run durations).
    pub scale: Scale,
    /// Number of fleet nodes (52 covers the Volta testbed; Eclipse
    /// supports up to 1488).
    pub n_nodes: usize,
    /// Master seed: drives run generation, durations and injections.
    pub seed: u64,
    /// When set, every run's steady-state duration is overridden (tests
    /// use this to guarantee enough samples per stream for windowing).
    pub duration_override_s: Option<usize>,
}

impl FleetConfig {
    /// A fleet of `n_nodes` nodes on `system` at the given scale.
    pub fn new(system: System, scale: Scale, n_nodes: usize, seed: u64) -> Self {
        Self { system, scale, n_nodes, seed, duration_override_s: None }
    }
}

/// One fleet node's replayable telemetry stream plus its ground truth.
#[derive(Clone, Debug)]
pub struct NodeStream {
    /// The generated node telemetry (series + provenance + label).
    pub telemetry: NodeTelemetry,
    /// Application that produced the stream (provenance shortcut).
    pub app: String,
}

/// One emitted telemetry sample: all metric readings of one node at one
/// tick.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// Fleet node index.
    pub node: usize,
    /// Emission tick (1 Hz ⇒ seconds since replay start).
    pub at: usize,
    /// One reading per catalog metric.
    pub values: Vec<f64>,
}

/// Deterministic fleet-wide telemetry replay.
#[derive(Clone, Debug)]
pub struct ReplaySource {
    streams: Vec<NodeStream>,
    metrics: Vec<MetricDef>,
    cursor: usize,
}

impl ReplaySource {
    /// Generates the fleet's streams. Runs are taken from the system's
    /// campaign in configuration order (cycling with re-derived seeds if
    /// the campaign is smaller than the fleet) and generated in parallel;
    /// the assignment of streams to fleet slots is deterministic in
    /// `cfg.seed`.
    pub fn build(cfg: &FleetConfig) -> Self {
        assert!(cfg.n_nodes >= 1, "a fleet needs at least one node");
        let campaign = cfg.system.campaign(cfg.scale, cfg.seed);
        let catalog = campaign.catalog();
        let base = campaign.run_configs();
        assert!(!base.is_empty(), "campaign produced no runs");

        // Enough run configs to cover the fleet: cycle the campaign,
        // re-deriving per-round seeds so repeated rounds differ.
        let mut picked = Vec::new();
        let mut covered = 0usize;
        let mut round = 0u64;
        while covered < cfg.n_nodes {
            for rc in &base {
                let mut rc = rc.clone();
                if let Some(d) = cfg.duration_override_s {
                    rc.duration_s = d;
                }
                rc.seed ^= round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                covered += rc.node_count;
                picked.push(rc);
                if covered >= cfg.n_nodes {
                    break;
                }
            }
            round += 1;
        }

        let mut streams: Vec<NodeStream> = alba_par::map(&picked, |rc| {
            let app = &rc.app.name;
            generate_run(rc, &catalog, &campaign.signature, &campaign.noise)
                .into_iter()
                .map(|telemetry| NodeStream { telemetry, app: app.clone() })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        streams.truncate(cfg.n_nodes);
        let metrics = streams[0].telemetry.series.metrics.clone();
        Self { streams, metrics, cursor: 0 }
    }

    /// Rebuilds a replay source from already-materialised streams — the
    /// path taken when a [`FleetService`](crate::FleetService) reads its
    /// fleet back from a warm `alba-store` entry instead of regenerating
    /// it. Streams must be in fleet-slot order and share one catalog.
    pub fn from_streams(streams: Vec<NodeStream>) -> Self {
        assert!(!streams.is_empty(), "a fleet needs at least one stream");
        let metrics = streams[0].telemetry.series.metrics.clone();
        Self { streams, metrics, cursor: 0 }
    }

    /// Number of fleet nodes.
    pub fn n_nodes(&self) -> usize {
        self.streams.len()
    }

    /// The metric catalog every stream reports (shared fleet-wide).
    pub fn metrics(&self) -> &[MetricDef] {
        &self.metrics
    }

    /// The fleet's per-node streams.
    pub fn streams(&self) -> &[NodeStream] {
        &self.streams
    }

    /// Ground-truth label of one node's stream (the labelling oracle).
    pub fn truth(&self, node: usize) -> &str {
        &self.streams[node].telemetry.label
    }

    /// Ground-truth labels for the whole fleet, indexed by node.
    pub fn truth_labels(&self) -> Vec<String> {
        self.streams.iter().map(|s| s.telemetry.label.clone()).collect()
    }

    /// Current replay tick.
    pub fn tick_index(&self) -> usize {
        self.cursor
    }

    /// Longest stream length — replay is exhausted after this many ticks.
    pub fn max_len(&self) -> usize {
        self.streams.iter().map(|s| s.telemetry.series.len()).max().unwrap_or(0)
    }

    /// True once every stream has been fully replayed.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.max_len()
    }

    /// Emits one 1 Hz sample for every node still active at the current
    /// tick, in node order, then advances the clock.
    pub fn tick(&mut self) -> Vec<TelemetrySample> {
        let t = self.cursor;
        self.cursor += 1;
        let mut out = Vec::new();
        for (node, stream) in self.streams.iter().enumerate() {
            let series = &stream.telemetry.series;
            if t >= series.len() {
                continue;
            }
            let values = (0..series.n_metrics()).map(|m| series.metric(m)[t]).collect();
            out.push(TelemetrySample { node, at: t, values });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FleetConfig {
        FleetConfig::new(System::Volta, Scale::Smoke, 12, 7)
    }

    #[test]
    fn build_fills_every_fleet_slot() {
        let r = ReplaySource::build(&cfg());
        assert_eq!(r.n_nodes(), 12);
        assert!(!r.metrics().is_empty());
        assert_eq!(r.truth_labels().len(), 12);
        assert!(r.max_len() >= 60, "smoke streams are >= 60 samples");
    }

    #[test]
    fn fleet_larger_than_campaign_cycles_runs() {
        // Smoke Volta: 11 apps * 3 shapes * 4 runs * 4 nodes = 528 node
        // streams; ask for more to force a second round.
        let big = FleetConfig::new(System::Volta, Scale::Smoke, 600, 3);
        let r = ReplaySource::build(&big);
        assert_eq!(r.n_nodes(), 600);
    }

    #[test]
    fn tick_emits_only_active_nodes_and_advances() {
        let mut r = ReplaySource::build(&cfg());
        let first = r.tick();
        assert_eq!(first.len(), 12, "every stream is active at t=0");
        assert!(first.iter().enumerate().all(|(i, s)| s.node == i && s.at == 0));
        let mut emitted = first.len();
        while !r.is_exhausted() {
            emitted += r.tick().len();
        }
        let expected: usize = r.streams().iter().map(|s| s.telemetry.series.len()).sum();
        assert_eq!(emitted, expected, "every sample of every stream is emitted once");
        assert!(r.tick().is_empty(), "exhausted replay emits nothing");
    }

    #[test]
    fn replay_is_bit_identical_for_a_seed() {
        let mut a = ReplaySource::build(&cfg());
        let mut b = ReplaySource::build(&cfg());
        while !a.is_exhausted() {
            let (sa, sb) = (a.tick(), b.tick());
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.node, y.node);
                assert_eq!(x.at, y.at);
                for (u, v) in x.values.iter().zip(&y.values) {
                    assert_eq!(u.to_bits(), v.to_bits(), "replay must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = ReplaySource::build(&cfg());
        let b = ReplaySource::build(&FleetConfig { seed: 8, ..cfg() });
        let sa = &a.streams()[0].telemetry.series;
        let sb = &b.streams()[0].telemetry.series;
        assert!(
            sa.metric(0)[..20] != sb.metric(0)[..20],
            "different seeds must produce different telemetry"
        );
    }

    #[test]
    fn duration_override_is_applied() {
        let r = ReplaySource::build(&FleetConfig { duration_override_s: Some(150), ..cfg() });
        // 150 steady-state seconds plus two transients.
        assert!(r.max_len() >= 150, "override lengthens smoke runs");
    }
}
