//! One repetition of a benchmark workload, printed as one JSON line.
//!
//! ```text
//! alba-perfbench <workload> --seed <n> --mode <e2e|trace> --dir <fresh dir> [--program-first]
//! ```
//!
//! `e2e` runs the program as shipped and reports what its user sees;
//! `trace` runs the traced mirror (per-layer spans from outside the
//! program) and the program, to compare their outputs and their serving
//! times. The mirror runs first unless `--program-first` is given, so
//! alternating the flag across repetitions cancels the advantage of
//! running second on warm caches. `perfbench/run.py` repeats this binary in fresh
//! processes, so every set-up is cold, and aggregates the repetitions.

mod al;
mod mirror;
mod serve;
mod spans;

use serde::Serialize;
use serve::Serve;
use std::collections::BTreeMap;

/// One traced repetition, as printed.
#[derive(Serialize)]
struct TraceReport {
    /// Per-layer metrics by name.
    layers: BTreeMap<String, f64>,
    /// The spans that, with `trace.unattributed_ms`, add up to `trace.wall_ms`.
    top_level: Vec<String>,
    /// Digest of the program's own outputs (alarm log / AL records).
    digest: String,
    /// Peak resident set of the process, MB.
    peak_rss_mb: f64,
}

impl TraceReport {
    fn new(layers: Vec<(&str, f64)>, top_level: &[&str], digest: String) -> Self {
        Self {
            layers: layers.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            top_level: top_level.iter().map(|k| k.to_string()).collect(),
            digest,
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: alba-perfbench <volta_tsfresh_serve|eclipse_wire_serve|eclipse_al_session> \
         --seed <n> --mode <e2e|trace> --dir <fresh dir> [--program-first]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let workload = args.first().cloned().unwrap_or_else(|| usage());
    let seed: u64 = flag("--seed").and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
    let trace = match flag("--mode").as_deref() {
        Some("e2e") => false,
        Some("trace") => true,
        _ => usage(),
    };
    let dir = std::path::PathBuf::from(flag("--dir").unwrap_or_else(|| usage()));
    let program_first = args.iter().any(|a| a == "--program-first");
    let kind = match workload.as_str() {
        "volta_tsfresh_serve" => Some(Serve::VoltaTsfresh),
        "eclipse_wire_serve" => Some(Serve::EclipseWire),
        "eclipse_al_session" => None,
        _ => usage(),
    };
    // Only the Volta workload keeps a label journal; it gets a fresh,
    // empty store directory per run so it never warm-restarts.
    let store = |k: Serve, name: &str| (!k.wire()).then(|| dir.join(name).display().to_string());

    let line = match (kind, trace) {
        (Some(k), false) => {
            let mut report = serve::run_program(k, seed, store(k, "program")).report;
            report.peak_rss_mb = peak_rss_mb();
            serde_json::to_string(&report)
        }
        (Some(k), true) => {
            let (m, p) = if program_first {
                let p = serve::run_program(k, seed, store(k, "program"));
                (mirror::run_mirror(k, seed, store(k, "mirror")), p)
            } else {
                let m = mirror::run_mirror(k, seed, store(k, "mirror"));
                (m, serve::run_program(k, seed, store(k, "program")))
            };
            let mut layers = mirror::layer_metrics(&m);
            let overhead = (m.serve_ms - p.report.serve_ms) / p.report.serve_ms * 100.0;
            let diff =
                serve::mismatch((&m.alarms, &m.swap_ticks), (&p.alarms, &p.report.swap_ticks));
            layers.push(("trace.overhead_pct", overhead));
            layers.push(("trace.mirror_mismatch", diff as f64));
            serde_json::to_string(&TraceReport::new(layers, &mirror::TOP_LEVEL, p.report.digest))
        }
        (None, false) => {
            let mut report = al::run_e2e(seed);
            report.peak_rss_mb = peak_rss_mb();
            serde_json::to_string(&report)
        }
        (None, true) => {
            let (layers, digest) = al::run_trace(seed, program_first);
            serde_json::to_string(&TraceReport::new(layers, &al::TOP_LEVEL, digest))
        }
    };
    println!("{}", line.expect("reports serialise"));
}
