//! Aggregated service statistics, serialisable to JSON for dashboards.
//!
//! Distribution summaries (busy time, queueing latency) are derived
//! from the shards' [`Histogram`]s at snapshot time, so the export
//! carries tail percentiles — p50/p90/p95/p99/max — not just means.
//! Export is fallible by signature ([`ServiceStats::to_json`] returns
//! `Result`): a stats dump must never panic the service it describes.
//!
//! The struct counters here are the only record of what they count —
//! the obs registry is a no-op under `Obs::disabled()` — so `/metrics`
//! renders the ingest and shard drop families from a snapshot.

use crate::chaos::ChaosStats;
use crate::feedback::FeedbackStats;
use crate::frontier::TenantStats;
use crate::ingest::IngestStats;
use crate::shard::ShardStats;
use alba_obs::{Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Five-number summary of a latency histogram (units are whatever was
/// recorded: nanoseconds for busy time, ticks for queueing delay).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Values recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl LatencySummary {
    /// Summarises a histogram snapshot.
    pub fn from_snapshot(s: &HistogramSnapshot) -> Self {
        Self {
            count: s.count,
            mean: s.mean(),
            p50: s.quantile(0.50).unwrap_or(0),
            p90: s.quantile(0.90).unwrap_or(0),
            p95: s.quantile(0.95).unwrap_or(0),
            p99: s.quantile(0.99).unwrap_or(0),
            max: s.max,
        }
    }

    /// Summarises a live histogram.
    pub fn from_histogram(h: &Histogram) -> Self {
        Self::from_snapshot(&h.snapshot())
    }
}

/// One shard's counters plus derived rates, as exported.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub id: usize,
    /// Nodes assigned to the shard.
    pub nodes: usize,
    /// Raw counters.
    pub counters: ShardStats,
    /// Total busy time in milliseconds (rounded).
    pub busy_ms: u64,
    /// Windows diagnosed per busy second.
    pub windows_per_busy_s: f64,
    /// Busy time per [`process`](crate::Shard::process) call, ns.
    pub busy: LatencySummary,
    /// Queueing delay between sample emission and diagnosis, ticks.
    pub latency: LatencySummary,
}

impl ShardSnapshot {
    /// Derives the exported snapshot from the shard's raw counters and
    /// timing histograms.
    pub fn new(
        id: usize,
        nodes: usize,
        c: ShardStats,
        busy: &Histogram,
        latency: &Histogram,
    ) -> Self {
        let busy_s = busy.sum() as f64 / 1e9;
        Self {
            id,
            nodes,
            counters: c,
            busy_ms: busy.sum() / 1_000_000,
            windows_per_busy_s: if busy_s > 0.0 { c.windows as f64 / busy_s } else { 0.0 },
            busy: LatencySummary::from_histogram(busy),
            latency: LatencySummary::from_histogram(latency),
        }
    }
}

/// Typed error counters: every fallible path the service survives is
/// counted here instead of panicking or silently swallowing the fault.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ErrorStats {
    /// Samples addressed outside the fleet (ingest routing guard).
    pub unroutable_samples: u64,
    /// Samples shed on full ingest queues — *backpressure*: the fleet
    /// outran diagnosis. Distinct from the malformed counters, which are
    /// corruption; conflating the two hides whether the fix is capacity
    /// or feed integrity.
    pub queue_full_drops: u64,
    /// Samples the ingest layer rejected because their reading vector's
    /// width disagreed with the metric catalog — corruption at the
    /// boundary, before any queue was consulted.
    pub malformed_ingest_drops: u64,
    /// Samples whose readings disagreed with the metric catalog at the
    /// shard (defence in depth behind the ingest-layer width check).
    pub malformed_samples: u64,
    /// Label requests whose node had no oracle truth entry.
    pub oracle_misses: u64,
    /// Journal tears healed by reopen-and-retry.
    pub journal_reopens: u64,
    /// Journal appends abandoned after the retry budget (labels lost to
    /// durable storage; the in-memory round still completes).
    pub journal_failures: u64,
}

impl ErrorStats {
    /// Sum of every error counter.
    pub fn total(&self) -> u64 {
        self.unroutable_samples
            + self.queue_full_drops
            + self.malformed_ingest_drops
            + self.malformed_samples
            + self.oracle_misses
            + self.journal_reopens
            + self.journal_failures
    }
}

/// Whole-service statistics after (or during) a run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Service ticks executed.
    pub ticks: usize,
    /// Samples emitted by the replay source.
    pub samples_emitted: u64,
    /// Ingest-layer counters (accepted / dropped / peak depth).
    pub ingest: IngestStats,
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<ShardSnapshot>,
    /// Windows diagnosed fleet-wide.
    pub windows: u64,
    /// Fleet-wide queueing-delay summary (per-shard histograms merged).
    pub latency: LatencySummary,
    /// Alarms confirmed fleet-wide.
    pub alarms: u64,
    /// Confirmed alarms per diagnosed label.
    pub alarms_by_label: BTreeMap<String, u64>,
    /// Feedback-loop counters.
    pub feedback: FeedbackStats,
    /// Typed error counters (survived faults, not crashes).
    pub errors: ErrorStats,
    /// Chaos injection/recovery counters (present iff the run was
    /// driven by a fault plan).
    pub chaos: Option<ChaosStats>,
    /// Per-tenant network-frontier accounting (populated iff the run was
    /// driven through a [`NetFrontier`](crate::NetFrontier); empty for
    /// in-process replay). Sorted by tenant name by the frontier.
    pub tenants: Vec<TenantStats>,
    /// Model hot-swaps performed (ticks at which they happened).
    pub swap_ticks: Vec<usize>,
    /// Wall-clock run time in milliseconds.
    pub wall_ms: u64,
    /// Windows diagnosed per wall-clock second.
    pub windows_per_s: f64,
}

impl ServiceStats {
    /// Compact JSON export.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Pretty-printed JSON export.
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Renders the ingest and shard drop counters as Prometheus counter
    /// families: `ingest_{accepted,dropped,malformed,unroutable}_total`
    /// and `shard_{malformed,misrouted}_total{shard}`. The malformed and
    /// unroutable rows appear once they have counted something.
    pub(crate) fn expose_counters(&self, out: &mut String) {
        let fleet = |v: u64| vec![(String::new(), v)];
        let per_shard = |f: fn(&ShardStats) -> u64| -> Vec<(String, u64)> {
            self.shards
                .iter()
                .map(|s| (format!("{{shard=\"{}\"}}", s.id), f(&s.counters)))
                .collect()
        };
        let families = [
            ("ingest_accepted_total", fleet(self.ingest.pushed), false),
            ("ingest_dropped_total", fleet(self.ingest.dropped), false),
            ("ingest_malformed_total", fleet(self.ingest.malformed), true),
            ("ingest_unroutable_total", fleet(self.ingest.unroutable), true),
            ("shard_malformed_total", per_shard(|c| c.malformed), true),
            ("shard_misrouted_total", per_shard(|c| c.misrouted), false),
        ];
        for (name, rows, sparse) in families {
            let mut rows = rows.into_iter().filter(|&(_, v)| !sparse || v > 0).peekable();
            if rows.peek().is_some() {
                let _ = writeln!(out, "# TYPE {name} counter");
            }
            for (labels, v) in rows {
                let _ = writeln!(out, "{name}{labels} {v}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip_through_json() {
        let mut busy = Histogram::new();
        busy.record(1_500_000);
        busy.record(500_000);
        let mut latency = Histogram::new();
        latency.record(1);
        latency.record(3);
        let mut s = ServiceStats {
            ticks: 10,
            samples_emitted: 520,
            windows: 42,
            alarms: 3,
            wall_ms: 17,
            windows_per_s: 2470.6,
            swap_ticks: vec![7],
            latency: LatencySummary::from_histogram(&latency),
            ..ServiceStats::default()
        };
        s.alarms_by_label.insert("memleak".into(), 2);
        s.alarms_by_label.insert("dcopy".into(), 1);
        s.shards.push(ShardSnapshot::new(
            0,
            13,
            ShardStats { windows: 42, ..Default::default() },
            &busy,
            &latency,
        ));
        let back: ServiceStats = serde_json::from_str(&s.to_json().unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.shards[0].busy_ms, 2);
        assert_eq!(back.shards[0].latency.mean, 2.0);
        assert_eq!(back.shards[0].latency.p50, 1);
        assert_eq!(back.shards[0].latency.max, 3);
        assert_eq!(back.latency.count, 2);
    }

    #[test]
    fn summary_of_exact_small_values() {
        let mut h = Histogram::new();
        for t in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(t);
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p99, 7);
        assert_eq!(s.max, 7);
    }

    #[test]
    fn drop_counters_expose_under_their_family_names() {
        let mut s = ServiceStats::default();
        s.ingest.pushed = 7;
        s.shards.push(ShardSnapshot { id: 1, ..ShardSnapshot::default() });
        let mut out = String::new();
        s.expose_counters(&mut out);
        assert!(out.contains("# TYPE ingest_accepted_total counter\ningest_accepted_total 7\n"));
        assert!(out.contains("shard_misrouted_total{shard=\"1\"} 0\n"));
        assert!(!out.contains("malformed"), "zero error rows stay hidden: {out}");

        s.ingest.malformed = 2;
        s.shards[0].counters.malformed = 3;
        let mut out = String::new();
        s.expose_counters(&mut out);
        assert!(out.contains("ingest_malformed_total 2\n"));
        assert!(out.contains("shard_malformed_total{shard=\"1\"} 3\n"));
        assert!(!out.contains("unroutable"));
    }

    #[test]
    fn empty_service_stats_export() {
        let s = ServiceStats::default();
        let json = s.to_json_pretty().unwrap();
        let back: ServiceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
