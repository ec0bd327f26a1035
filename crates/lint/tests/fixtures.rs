//! Golden-file test for the interprocedural passes.
//!
//! `tests/fixtures/corpus/` is a miniature workspace (the paths inside
//! it mirror real crate paths, so the hot-path roots and output sinks
//! resolve) holding one reachable panic behind a three-edge chain, a
//! two-hop ambient-time taint, an AB/BA lock inversion, a suppressed
//! and a stale-suppressed site, a private executor outside the runtime
//! crate (`no-ambient-thread`), and false-positive traps (dynamic
//! dispatch, `#[cfg(test)]` code, thread creation inside `crates/par`). The full report is compared against
//! `tests/fixtures/golden.json`; on drift the test prints the actual
//! JSON so the golden can be reviewed and updated deliberately.

use alba_lint::analyze_sources;
use std::collections::BTreeMap;
use std::path::Path;

fn load_corpus() -> BTreeMap<String, String> {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/corpus");
    let mut files = BTreeMap::new();
    let mut stack = vec![corpus.clone()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("corpus dir") {
            let path = entry.expect("corpus entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&corpus)
                    .expect("under corpus")
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                files.insert(rel, std::fs::read_to_string(&path).expect("corpus file"));
            }
        }
    }
    files
}

/// The slice of the report the golden file pins down. Serialization
/// order is deterministic (struct field order, findings sorted by the
/// analyzer), so a byte comparison is meaningful.
#[derive(serde::Serialize)]
struct GoldenReport {
    findings: Vec<alba_lint::Finding>,
    stale_suppressions: Vec<alba_lint::Finding>,
    suppressed: u64,
}

#[test]
fn corpus_reproduces_the_golden_findings() {
    let report = analyze_sources(&load_corpus());

    let actual = serde_json::to_string_pretty(&GoldenReport {
        findings: report.findings,
        stale_suppressions: report.stale_suppressions,
        suppressed: report.suppressed,
    })
    .expect("render actual");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, format!("{actual}\n")).expect("write golden.json");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).expect("golden.json");
    assert_eq!(
        golden.trim_end(),
        actual.trim_end(),
        "fixture report drifted from golden; actual:\n{actual}",
    );
}

#[test]
fn corpus_chains_and_cycles_have_the_advertised_shape() {
    let report = analyze_sources(&load_corpus());

    // The reachable panic is reported through at least three call edges
    // (>= 4 chain steps: root, two intermediates, site).
    let deep = report
        .findings
        .iter()
        .find(|f| f.rule == "reachable-panic")
        .expect("a reachable-panic finding");
    assert!(deep.chain.len() >= 4, "expected >= 3 call edges, got chain {:?}", deep.chain);
    assert_eq!(deep.chain.first().expect("chain root").func, "FleetService::tick");

    // Exactly one lock cycle, and it names both locks.
    let cycles: Vec<_> = report.findings.iter().filter(|f| f.rule == "lock-order-cycle").collect();
    assert_eq!(cycles.len(), 1, "cycles: {cycles:?}");
    assert!(cycles[0].message.contains("Pool::sched") && cycles[0].message.contains("Pool::stats"));

    // The ambient-time taint crossed two call hops into the sink writer.
    let taint =
        report.findings.iter().find(|f| f.rule == "nondet-taint").expect("a nondet-taint finding");
    assert!(taint.chain.len() >= 3, "expected a 2-hop taint chain, got {:?}", taint.chain);

    // Traps stay silent for the interprocedural passes: the panic in
    // `Loud::handle` is only callable through a trait object (token
    // rules still flag the site itself), and the `#[cfg(test)]`
    // look-alike root in service.rs never enters the graph at all.
    let inter: Vec<_> = report.findings.iter().filter(|f| f.rule == "reachable-panic").collect();
    assert!(
        inter.iter().all(|f| !f.path.ends_with("handler.rs")),
        "dynamic dispatch must not create call edges: {inter:?}",
    );
    assert!(
        report.findings.iter().all(|f| !f.path.ends_with("service.rs")),
        "test-module code must stay out of the graph: {:?}",
        report.findings,
    );

    // One suppression silenced its site; the stale one was caught.
    assert!(report.suppressed >= 1, "the tail_lane allow must count as suppressed");
    assert_eq!(report.stale_suppressions.len(), 1, "{:?}", report.stale_suppressions);
    assert_eq!(report.stale_suppressions[0].rule, "stale-suppression");

    // Thread creation fires once per site in the private executor, and
    // never in its test module or in the runtime crate.
    let threads: Vec<u32> = report
        .findings
        .iter()
        .filter(|f| f.rule == "no-ambient-thread")
        .map(|f| {
            assert!(f.path.ends_with("serve/src/offload.rs"), "{f:?}");
            f.line
        })
        .collect();
    assert_eq!(threads, vec![8, 15], "thread::scope and thread::Builder only");
}
