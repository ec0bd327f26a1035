//! End-to-end network frontier demo: a deterministic wire client
//! streams a Volta fleet over real loopback TCP into the gateway, the
//! gateway feeds `FleetService`, and the captured ingest journal is
//! replayed offline to prove byte-identity — the contract the whole
//! `alba-net` crate exists to keep.
//!
//! The run:
//!
//! 1. Live session — `WireClient` dials the gateway's TCP listener,
//!    authenticates as tenant `volta`, and streams every fleet batch
//!    under credit-based flow control while the service diagnoses.
//! 2. Control plane — the same listener answers an HTTP Prometheus
//!    scrape (`GET /metrics`) plus the tracing routes (`/trace/0`,
//!    `/flightrec`) after the run; the scrapes are written next to the
//!    event log.
//! 3. Replay — a fresh equally-seeded service consumes the captured
//!    journal through `IngestLogReplay`; the example asserts the event
//!    logs are byte-identical and the deployed models bit-identical.
//!
//! The live run carries a causal [`Tracer`] seeded with the campaign
//! seed: the gateway records `decode` hops, the service every pipeline
//! stage, and shutdown dumps the flight recorder. Trace ids are pure
//! functions of `(seed, node, tick)`, so two equal-seed invocations
//! write byte-identical `fleet_gateway_trace.jsonl` and
//! `flightrec_shutdown.jsonl` artifacts (ci.sh checks exactly that).
//! The offline replay is deliberately untraced — trace identity is a
//! live-vs-live contract; replay identity is judged on the event log.
//!
//! Environment knobs (both used by `scripts/ci.sh`):
//!
//! * `ALBA_GATEWAY_OUT=<dir>` — artifact directory (default `results`):
//!   `fleet_gateway_events.jsonl`, `fleet_gateway_capture.bin`,
//!   `fleet_gateway_metrics.prom`, `fleet_gateway_trace.jsonl`,
//!   `flightrec_shutdown.jsonl`.
//! * `ALBA_GATEWAY_CHAOS=storm` — run the client under a seeded
//!   reconnect-storm fault plan; identity must still hold because the
//!   journal records what was *accepted*, not what was attempted.
//! * `ALBA_GATEWAY_SEED=<n>` — campaign seed (default 42).
//!
//! Run with: `cargo run --release --example fleet_gateway`

use std::path::Path;
use std::sync::Arc;

use albadross_repro::chaos::{NetChaosConfig, NetFaultPlan};
use albadross_repro::framework::{MonitorConfig, System};
use albadross_repro::net::{
    ByteStream, Gateway, GatewayConfig, IngestLogReplay, Lockstep, TcpByteStream, TcpDoor,
    TenantConfig, WireClient,
};
use albadross_repro::obs::{MemorySink, Obs, TickClock};
use albadross_repro::serve::{FleetService, ServeConfig, Tracer};
use albadross_repro::telemetry::Scale;

fn config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(System::Volta, Scale::Smoke, 16, seed);
    cfg.fleet.duration_override_s = Some(150);
    cfg.monitor = MonitorConfig { window: 60, stride: 10, confirm: 2, min_confidence: 0.5 };
    cfg.uncertainty_threshold = 0.3;
    cfg.retrain_batch = 8;
    cfg.max_retrains = 2;
    // One pool worker: the `par_worker_*` rows of the committed metric
    // scrape then do not depend on the host's core count (events and
    // traces are identical at any worker count).
    cfg.n_workers = 1;
    cfg
}

fn observed_service(seed: u64, tracer: Tracer) -> (FleetService, Arc<MemorySink>) {
    let obs = Obs::with_clock(Arc::new(TickClock::new()));
    let sink = Arc::new(MemorySink::new());
    obs.set_sink(sink.clone());
    (FleetService::with_tracer(config(seed), obs, tracer), sink)
}

/// Scrapes `GET <path>` from the gateway's control plane over a fresh
/// TCP connection, pumping the gateway until the response completes.
fn scrape(
    harness: &mut Lockstep,
    svc: &FleetService,
    addr: &std::net::SocketAddr,
    path: &str,
) -> String {
    let mut probe = TcpByteStream::connect(addr).expect("connect control plane");
    let request = format!("GET {path} HTTP/1.1\r\nHost: gw\r\n\r\n");
    probe.write(request.as_bytes()).expect("send scrape");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    for now in 0..50usize {
        harness.gateway.pump(100_000 + now, Some(svc));
        while let Ok(n) = probe.read(&mut chunk) {
            if n == 0 {
                break;
            }
            raw.extend_from_slice(&chunk[..n]);
        }
        if raw.windows(4).any(|w| w == b"\r\n\r\n") {
            harness.gateway.pump(100_000 + now + 1, Some(svc));
            while let Ok(n) = probe.read(&mut chunk) {
                if n == 0 {
                    break;
                }
                raw.extend_from_slice(&chunk[..n]);
            }
            break;
        }
    }
    let raw = String::from_utf8(raw).expect("scrape is text");
    assert!(raw.starts_with("HTTP/1.1 200 OK"), "scrape failed: {}", &raw[..raw.len().min(120)]);
    raw.split("\r\n\r\n").nth(1).expect("scrape has a body").to_string()
}

fn main() {
    let out = std::env::var("ALBA_GATEWAY_OUT").unwrap_or_else(|_| "results".into());
    let out = Path::new(&out);
    let seed: u64 =
        std::env::var("ALBA_GATEWAY_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42);
    let chaos = std::env::var("ALBA_GATEWAY_CHAOS").is_ok_and(|v| v == "storm");
    std::fs::create_dir_all(out).expect("create output directory");

    // --- live session over loopback TCP -----------------------------
    // The tracer is shared by the gateway and the service: one seed,
    // one clock, one flight recorder spanning net + shards + service.
    let tracer = Tracer::new(seed, Arc::new(TickClock::new()), Tracer::DEFAULT_RING);
    let trace_sink = Arc::new(MemorySink::new());
    tracer.set_sink(trace_sink.clone());
    tracer.set_dump_dir(out);
    let (mut svc, sink) = observed_service(seed, tracer.clone());
    let door = TcpDoor::bind("127.0.0.1:0").expect("bind loopback");
    let addr = door.addr();
    // The gateway shares the service's metric registry so one scrape
    // covers the whole stack; it emits counters/gauges/histograms only,
    // never events, so replay identity is unaffected.
    let gateway = Gateway::with_tracer(
        GatewayConfig::new(vec![TenantConfig::new("volta", "tok")]),
        Box::new(door),
        svc.obs().clone(),
        tracer.clone(),
    );
    let mut client = WireClient::new(
        Box::new(move || Box::new(TcpByteStream::connect(&addr).expect("dial gateway"))),
        "volta",
        "tok",
        svc.fleet_batches(),
    );
    if chaos {
        let horizon = svc.fleet_batches().len();
        client = client.with_faults(NetFaultPlan::generate(
            &NetChaosConfig::reconnect_storm(4),
            seed,
            horizon,
        ));
        println!("chaos: reconnect storm enabled (4 mid-stream reconnects)");
    }
    let mut harness = Lockstep { client, gateway };

    println!(
        "serving {} fleet batches over TCP {addr} (seed {seed})...",
        svc.fleet_batches().len()
    );
    let max_ticks = svc.fleet_batches().len() + 60;
    let stats = svc.run_frontier(&mut harness, max_ticks);
    assert!(!harness.client.is_failed(), "wire session must complete cleanly");

    let tenant = stats.tenants.first().expect("tenant stats present");
    println!(
        "  live: {} frames accepted, {} samples delivered, {} connects, {} busy sheds",
        tenant.frames_accepted,
        tenant.samples_delivered,
        tenant.connects,
        tenant.frames_no_credit + tenant.frames_queue_full,
    );
    println!("  live: {} alarms, {} retrains", svc.alarms().len(), stats.feedback.retrains);
    if chaos {
        let cs = harness.client.stats();
        println!(
            "  chaos: {} reconnects survived, {} busy frames seen",
            cs.reconnects, cs.busy_seen
        );
        assert!(cs.reconnects >= 1, "the storm must actually reconnect");
    }

    // --- control-plane scrapes on the same listener ------------------
    let metrics = scrape(&mut harness, &svc, &addr, "/metrics");
    assert!(metrics.contains("# TYPE"), "scrape must be Prometheus text exposition");
    assert!(
        metrics.contains("net_tenant_frames_accepted_total"),
        "scrape must carry the per-tenant admission counters"
    );
    std::fs::write(out.join("fleet_gateway_metrics.prom"), &metrics).expect("write metrics");

    let node_trace = scrape(&mut harness, &svc, &addr, "/trace/0");
    let parsed = serde_json::parse_value(&node_trace).expect("/trace/0 body is JSON");
    assert!(
        matches!(parsed, serde::Value::Array(_)),
        "/trace/0 returns the node's recent hops as a JSON array"
    );
    let flightrec = scrape(&mut harness, &svc, &addr, "/flightrec");
    assert!(flightrec.starts_with("{\"ts\":"), "/flightrec leads with its header line");
    println!(
        "  trace: {} hops recorded, {} flight-recorder dumps, /trace/0 + /flightrec scraped",
        tracer.hops_recorded(),
        tracer.dumps_taken()
    );

    // --- artifacts ----------------------------------------------------
    let live_events = sink.lines();
    let capture = harness.gateway.ingest_log().as_bytes().to_vec();
    std::fs::write(out.join("fleet_gateway_events.jsonl"), live_events.join("\n") + "\n")
        .expect("write event log");
    std::fs::write(out.join("fleet_gateway_capture.bin"), &capture).expect("write capture");
    std::fs::write(out.join("fleet_gateway_trace.jsonl"), trace_sink.lines().join("\n") + "\n")
        .expect("write trace log");
    let live_model = svc.model().to_json();

    // --- offline replay of the captured journal ----------------------
    println!("replaying the captured journal ({} bytes) offline...", capture.len());
    let (mut replay_svc, replay_sink) = observed_service(seed, Tracer::disabled());
    let mut replay = IngestLogReplay::from_bytes(&capture).expect("capture parses");
    replay_svc.run_frontier(&mut replay, max_ticks);

    assert_eq!(replay_sink.lines(), live_events, "event logs must be byte-identical");
    assert_eq!(replay_svc.model().to_json(), live_model, "models must be bit-identical");
    assert_eq!(replay_svc.alarms().len(), svc.alarms().len());
    println!(
        "  replay: {} events byte-identical, model bit-identical, {} alarms match",
        live_events.len(),
        svc.alarms().len()
    );

    println!("artifacts: events/capture/metrics/trace/flightrec -> {}", out.display());
    println!("\nall gateway acceptance checks passed");
}
