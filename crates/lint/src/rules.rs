//! The rule catalog and the per-file rule engine.
//!
//! Every rule is a token-level pattern plus a path scope. Scopes are
//! deliberately coarse (path prefixes, forward slashes, relative to the
//! workspace root) — the point is to guard the crates whose *outputs*
//! must replay byte-identically, not to model the type system. Matching
//! happens on the [`crate::lexer`] token stream, so patterns inside
//! comments, strings, and raw strings can never fire.
//!
//! | rule | guards against |
//! |------|----------------|
//! | `no-float-partial-cmp` | `partial_cmp(..).unwrap()/expect(..)` float ordering — panics on NaN; use `total_cmp` |
//! | `no-ambient-time` | `Instant::now`/`SystemTime::now` outside the obs clock seam |
//! | `no-ambient-entropy` | `thread_rng`/`from_entropy`/`OsRng`/`getrandom` — all RNGs must be seeded |
//! | `no-unordered-iteration` | `HashMap`/`HashSet` in crates that serialise ordered output |
//! | `no-panic-in-fallible` | `unwrap`/`expect`/`panic!`-family on non-test runtime paths of serve/store/chaos/net |
//! | `no-direct-failpoint-bypass` | direct `std::fs`/`File`/`OpenOptions` I/O in serve, bypassing the store's `set_fault_hook` seam |
//! | `no-unbounded-channel` | `VecDeque::new`/`LinkedList::new`/`mpsc::channel` queues on the network ingest path — every buffer a peer can fill must be born bounded |
//! | `no-untraced-stage` | stage functions in serve's service.rs that open an obs span without touching the causal tracer — metrics and traces must cover the same stages |
//! | `no-unordered-join` | `try_iter`/`try_recv`/iterating a receiver in the parallel runtime — results must be joined by a counted blocking barrier, in slot order, never in arrival order |
//! | `no-ambient-thread` | `thread::spawn`/`thread::scope`/`thread::Builder` outside `crates/par/src` — alba-par is the one thread runtime |
//!
//! Three further rules — `reachable-panic`, `nondet-taint`,
//! `lock-order-cycle` — are produced by the interprocedural engine in
//! [`crate::dataflow`], not by this per-file engine; they live in the
//! same catalog so `allow(...)` validation and `--rules` cover them.

use crate::lexer::{LexFile, Tok, Token};

/// A single diagnostic before suppression/baseline filtering.
#[derive(Clone, Debug, PartialEq)]
pub struct RawFinding {
    /// Rule that fired.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human explanation.
    pub message: String,
}

/// Static description of one rule (the catalog entry).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Kebab-case rule name, as used in `allow(...)`.
    pub name: &'static str,
    /// One-line description for `--rules` and the docs.
    pub summary: &'static str,
}

/// The full rule catalog, in reporting order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        name: "no-float-partial-cmp",
        summary: "float ordering must use total_cmp; partial_cmp().unwrap()/expect() panics on NaN",
    },
    RuleInfo {
        name: "no-ambient-time",
        summary: "Instant::now/SystemTime::now only inside the obs clock seam (crates/obs/src/clock.rs)",
    },
    RuleInfo {
        name: "no-ambient-entropy",
        summary: "thread_rng/from_entropy/OsRng/getrandom forbidden; every RNG must be explicitly seeded",
    },
    RuleInfo {
        name: "no-unordered-iteration",
        summary: "HashMap/HashSet forbidden in serve/store/obs/repro; use BTreeMap/BTreeSet or justify lookup-only use",
    },
    RuleInfo {
        name: "no-panic-in-fallible",
        summary: "unwrap/expect/panic!/unreachable!/todo!/unimplemented! forbidden on non-test serve/store/chaos runtime paths",
    },
    RuleInfo {
        name: "no-direct-failpoint-bypass",
        summary: "serve must not do filesystem I/O directly; store I/O routes through alba-store and its set_fault_hook seam",
    },
    RuleInfo {
        name: "no-unbounded-channel",
        summary: "VecDeque::new/LinkedList::new/mpsc::channel forbidden on the network ingest path; queues a peer can fill must use with_capacity plus an enforced bound",
    },
    RuleInfo {
        name: "no-untraced-stage",
        summary: "a serve service.rs function that opens an obs stage span must also record alba-trace hops, so causal traces cover every stage the metrics cover",
    },
    RuleInfo {
        name: "no-unordered-join",
        summary: "try_iter/try_recv/iterating a receiver forbidden in the parallel runtime; join worker results with a counted blocking recv and reorder by slot, never by arrival",
    },
    RuleInfo {
        name: "no-ambient-thread",
        summary: "thread::spawn/thread::scope/thread::Builder forbidden in non-test code outside crates/par/src; fan out through alba_par::map or an alba_par::Pool so there is one thread runtime and calls never nest",
    },
    RuleInfo {
        name: "reachable-panic",
        summary: "interprocedural: no unwrap/expect/panic!-family/indexing transitively reachable from the hot-path roots (FleetService::tick, par epoch/workers, gateway poll, grid workers); reported with the full call chain",
    },
    RuleInfo {
        name: "nondet-taint",
        summary: "interprocedural: ambient time/entropy and unordered containers must not be reachable from fns whose output is journaled (obs events/exposition, traces, model serialisation)",
    },
    RuleInfo {
        name: "lock-order-cycle",
        summary: "interprocedural: the lock-acquisition-order graph over Type::field lock identities must be acyclic; a cycle is a deadlock candidate",
    },
];

/// True when `name` is a known rule (for validating `allow(...)` lists).
pub fn is_known_rule(name: &str) -> bool {
    name == crate::suppress::BAD_SUPPRESSION || CATALOG.iter().any(|r| r.name == name)
}

/// File-classification facts the rules scope on.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// First line of the file's `#[cfg(test)]` region, if any.
    pub test_from_line: Option<u32>,
    /// True when the whole file is test/bench/example context.
    pub all_test: bool,
}

impl FileContext {
    /// Classifies `path` (workspace-relative, forward slashes).
    pub fn classify(path: &str, lexed: &LexFile) -> Self {
        let all_test = path.starts_with("tests/")
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.starts_with("examples/")
            || path.contains("/examples/")
            || path.ends_with("/testutil.rs");
        Self { path: path.to_string(), test_from_line: find_cfg_test(lexed), all_test }
    }

    /// True when `line` sits in test context (whole-file or trailing
    /// `#[cfg(test)]` region).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.all_test || self.test_from_line.is_some_and(|from| line >= from)
    }
}

/// Finds the line of the first `#[cfg(... test ...)]` attribute. The
/// repo convention keeps test modules at the end of each file, so
/// everything from that line onward is treated as test code.
fn find_cfg_test(lexed: &LexFile) -> Option<u32> {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !(is_punct(toks, i, '#') && is_punct(toks, i + 1, '[') && is_ident(toks, i + 2, "cfg")) {
            continue;
        }
        // Scan the attribute's (...) group for a `test` ident.
        let mut depth = 0i32;
        for t in &toks[i + 3..] {
            match &t.tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth <= 0 {
                        break;
                    }
                }
                Tok::Punct(']') if depth == 0 => break,
                Tok::Ident(s) if s == "test" && depth >= 1 => return Some(toks[i].line),
                _ => {}
            }
        }
    }
    None
}

fn is_ident(toks: &[Token], i: usize, name: &str) -> bool {
    matches!(toks.get(i), Some(Token { tok: Tok::Ident(s), .. }) if s == name)
}

fn is_punct(toks: &[Token], i: usize, c: char) -> bool {
    matches!(toks.get(i), Some(Token { tok: Tok::Punct(p), .. }) if *p == c)
}

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some(Token { tok: Tok::Ident(s), .. }) => Some(s.as_str()),
        _ => None,
    }
}

/// `a :: b` at position `i` (the `a` ident).
fn is_path_pair(toks: &[Token], i: usize, a: &str, b: &str) -> bool {
    is_ident(toks, i, a)
        && is_punct(toks, i + 1, ':')
        && is_punct(toks, i + 2, ':')
        && is_ident(toks, i + 3, b)
}

/// Index just past the `)` matching the `(` at `open` (which must be a
/// `(`), or `None` when unbalanced.
fn skip_parens(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
    }
    None
}

/// Marks which token indices sit inside a `use ...;` item, so type
/// *imports* don't trip the unordered-container rule.
fn use_statement_mask(toks: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        match &t.tok {
            Tok::Ident(s) if s == "use" && !in_use => in_use = true,
            Tok::Punct(';') if in_use => {
                in_use = false;
                continue;
            }
            _ => {}
        }
        mask[i] = in_use;
    }
    mask
}

// ---- path scopes ----------------------------------------------------

fn in_pipeline_scope(path: &str) -> bool {
    // Bench binaries and examples measure wall time legitimately; the
    // lint tool itself is not part of the replayed pipeline.
    !(path.starts_with("crates/bench/")
        || path.starts_with("examples/")
        || path.starts_with("crates/lint/"))
}

fn in_ordered_output_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path.starts_with("crates/store/src/")
        || path.starts_with("crates/obs/src/")
        || path.starts_with("crates/net/src/")
        || path.starts_with("crates/trace/src/")
        || path.starts_with("crates/grid/src/")
        || path.starts_with("crates/par/src/")
        || path == "crates/bench/src/bin/repro.rs"
}

fn in_no_panic_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
        || path.starts_with("crates/store/src/")
        || path.starts_with("crates/chaos/src/")
        || path.starts_with("crates/net/src/")
        || path.starts_with("crates/trace/src/")
        || path.starts_with("crates/grid/src/")
}

/// The network ingest path: buffers here are fillable by a remote peer,
/// so every queue must be born with an explicit capacity.
fn in_net_ingest_scope(path: &str) -> bool {
    path.starts_with("crates/net/src/") || path == "crates/serve/src/ingest.rs"
}

fn in_serve_io_scope(path: &str) -> bool {
    path.starts_with("crates/serve/src/")
}

/// The serve tick pipeline: the one file where obs stage spans and
/// alba-trace hops must move in lockstep.
fn in_traced_stage_scope(path: &str) -> bool {
    path == "crates/serve/src/service.rs"
}

/// The parallel runtime: code that joins worker results. Arrival-order
/// consumption (`try_iter`, `try_recv`, looping over a receiver) makes
/// the merge order scheduler-dependent, which is exactly the
/// non-determinism the epoch barrier exists to prevent.
fn in_join_scope(path: &str) -> bool {
    path.starts_with("crates/par/src/")
        || path == "crates/serve/src/service.rs"
        || path == "crates/grid/src/runner.rs"
}

/// The one crate allowed to create threads.
fn in_thread_runtime(path: &str) -> bool {
    path.starts_with("crates/par/src/")
}

// ---- the engine -----------------------------------------------------

/// Runs every rule over one lexed file. Suppressions are NOT applied
/// here — the caller filters (so it can also count suppressed findings).
pub fn check_file(ctx: &FileContext, lexed: &LexFile) -> Vec<RawFinding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();

    // no-float-partial-cmp: `.partial_cmp( ... ).unwrap()` / `.expect(`.
    for i in 0..toks.len() {
        if !(is_punct(toks, i, '.') && is_ident(toks, i + 1, "partial_cmp")) {
            continue;
        }
        let Some(after) = skip_parens(toks, i + 2) else { continue };
        if is_punct(toks, after, '.')
            && (is_ident(toks, after + 1, "unwrap") || is_ident(toks, after + 1, "expect"))
        {
            out.push(RawFinding {
                rule: "no-float-partial-cmp",
                line: toks[i + 1].line,
                message:
                    "partial_cmp().unwrap()/expect() panics on NaN; order floats with total_cmp"
                        .to_string(),
            });
        }
    }

    // no-ambient-time: `Instant::now` / `SystemTime::now`.
    if in_pipeline_scope(&ctx.path) {
        for i in 0..toks.len() {
            for src in ["Instant", "SystemTime"] {
                if is_path_pair(toks, i, src, "now") {
                    out.push(RawFinding {
                        rule: "no-ambient-time",
                        line: toks[i].line,
                        message: format!(
                            "{src}::now() is ambient time; route through the alba-obs Clock seam \
                             (WallClock/TickClock) so replays stay byte-identical"
                        ),
                    });
                }
            }
        }
    }

    // no-ambient-entropy: unseeded RNG sources, everywhere.
    for (i, t) in toks.iter().enumerate() {
        if let Tok::Ident(s) = &t.tok {
            if matches!(s.as_str(), "thread_rng" | "from_entropy" | "OsRng" | "getrandom") {
                out.push(RawFinding {
                    rule: "no-ambient-entropy",
                    line: toks[i].line,
                    message: format!(
                        "`{s}` draws ambient entropy; derive every RNG from an explicit seed \
                         (SeedableRng::seed_from_u64)"
                    ),
                });
            }
        }
    }

    // no-unordered-iteration: HashMap/HashSet outside `use` items, in
    // crates whose outputs are order-sensitive; test code exempt.
    if in_ordered_output_scope(&ctx.path) {
        let mask = use_statement_mask(toks);
        for (i, t) in toks.iter().enumerate() {
            if mask[i] || ctx.is_test_line(t.line) {
                continue;
            }
            if let Tok::Ident(s) = &t.tok {
                if s == "HashMap" || s == "HashSet" {
                    out.push(RawFinding {
                        rule: "no-unordered-iteration",
                        line: t.line,
                        message: format!(
                            "`{s}` iteration order is seeded by ambient RandomState; in a crate \
                             that serialises ordered output use BTreeMap/BTreeSet, sort before \
                             emitting, or justify a lookup-only use with an allow"
                        ),
                    });
                }
            }
        }
    }

    // no-panic-in-fallible: `.unwrap()`/`.expect(` + panic!-family on
    // non-test runtime paths of serve/store/chaos.
    if in_no_panic_scope(&ctx.path) {
        for i in 0..toks.len() {
            let line = match toks.get(i) {
                Some(t) => t.line,
                None => continue,
            };
            if ctx.is_test_line(line) {
                continue;
            }
            if is_punct(toks, i, '.')
                && is_punct(toks, i + 2, '(')
                && (is_ident(toks, i + 1, "unwrap") || is_ident(toks, i + 1, "expect"))
            {
                let what = ident_at(toks, i + 1).unwrap_or("unwrap");
                out.push(RawFinding {
                    rule: "no-panic-in-fallible",
                    line: toks[i + 1].line,
                    message: format!(
                        "`.{what}()` on a runtime path; return a typed error (or justify an \
                         infallible-by-construction case with an allow)"
                    ),
                });
            }
            if is_punct(toks, i + 1, '!') {
                if let Some(mac) = ident_at(toks, i) {
                    if matches!(mac, "panic" | "unreachable" | "todo" | "unimplemented") {
                        out.push(RawFinding {
                            rule: "no-panic-in-fallible",
                            line,
                            message: format!(
                                "`{mac}!` on a runtime path; surface a typed error instead of \
                                 crashing the service"
                            ),
                        });
                    }
                }
            }
        }
    }

    // no-direct-failpoint-bypass: direct fs I/O in serve runtime code.
    if in_serve_io_scope(&ctx.path) {
        for i in 0..toks.len() {
            let line = match toks.get(i) {
                Some(t) => t.line,
                None => continue,
            };
            if ctx.is_test_line(line) {
                continue;
            }
            // `fs::read` only counts when `fs` starts the path, so the
            // `std::fs::read` form is not reported twice.
            let bare_fs =
                is_path_pair(toks, i, "fs", "read") && !is_punct(toks, i.wrapping_sub(1), ':');
            let hit = if is_path_pair(toks, i, "std", "fs") || bare_fs {
                Some("std::fs")
            } else if is_path_pair(toks, i, "File", "open")
                || is_path_pair(toks, i, "File", "create")
            {
                Some("File::open/create")
            } else if is_ident(toks, i, "OpenOptions") {
                Some("OpenOptions")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(RawFinding {
                    rule: "no-direct-failpoint-bypass",
                    line,
                    message: format!(
                        "direct `{what}` I/O in serve bypasses the store's set_fault_hook \
                         failpoint seam; route persistence through alba-store APIs"
                    ),
                });
            }
        }
    }

    // no-unbounded-channel: growable queues born without a capacity on
    // the network ingest path. `with_capacity` alone is only half the
    // contract (the bound must also be enforced), but `new()` is the
    // reliably-lintable half: a queue that never states its capacity
    // certainly never checks it.
    if in_net_ingest_scope(&ctx.path) {
        for i in 0..toks.len() {
            let line = match toks.get(i) {
                Some(t) => t.line,
                None => continue,
            };
            if ctx.is_test_line(line) {
                continue;
            }
            let hit = if is_path_pair(toks, i, "VecDeque", "new") {
                Some("VecDeque::new")
            } else if is_path_pair(toks, i, "LinkedList", "new") {
                Some("LinkedList::new")
            } else if is_path_pair(toks, i, "mpsc", "channel") {
                Some("mpsc::channel")
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(RawFinding {
                    rule: "no-unbounded-channel",
                    line,
                    message: format!(
                        "`{what}` creates an unbounded queue on the network ingest path; a \
                         hostile or bursty peer can grow it without limit — use with_capacity \
                         and shed (BUSY) past the bound, or justify with an allow"
                    ),
                });
            }
        }
    }

    // no-untraced-stage: a service.rs fn that opens an obs stage span
    // (`.span(`) must also touch the causal tracer (a `tracer`, `hop`,
    // or `trace_*` ident) somewhere in its body — otherwise the stage
    // is visible to metrics but invisible to trace replay. The lexer
    // drops string literals, so the check is identifier-shaped: find
    // each fn body by brace matching and compare what it calls.
    if in_traced_stage_scope(&ctx.path) {
        let mut i = 0;
        while i < toks.len() {
            if !is_ident(toks, i, "fn") {
                i += 1;
                continue;
            }
            let fn_line = toks[i].line;
            let fn_name = ident_at(toks, i + 1).unwrap_or("?").to_string();
            // The body's opening brace; a `;` first means no body
            // (trait method signature).
            let mut j = i + 1;
            let mut open = None;
            while j < toks.len() {
                match toks[j].tok {
                    Tok::Punct('{') => {
                        open = Some(j);
                        break;
                    }
                    Tok::Punct(';') => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else {
                i = j.max(i + 1);
                continue;
            };
            let mut depth = 0i32;
            let mut end = toks.len();
            for (k, t) in toks.iter().enumerate().skip(open) {
                match t.tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            end = k + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let body = &toks[open..end];
            let opens_span = (0..body.len()).any(|k| {
                is_punct(body, k, '.')
                    && is_ident(body, k + 1, "span")
                    && is_punct(body, k + 2, '(')
            });
            let traced = body.iter().any(|t| {
                matches!(&t.tok, Tok::Ident(s)
                    if s == "tracer" || s == "hop" || s.starts_with("trace_"))
            });
            if opens_span && !traced && !ctx.is_test_line(fn_line) {
                out.push(RawFinding {
                    rule: "no-untraced-stage",
                    line: fn_line,
                    message: format!(
                        "`{fn_name}` opens an obs stage span but never records an alba-trace hop; \
                         every pipeline stage must appear in the causal trace (record a hop, or \
                         justify a metrics-only stage with an allow)"
                    ),
                });
            }
            i = open + 1;
        }
    }

    // no-unordered-join: arrival-order result consumption in the
    // parallel runtime. `try_iter`/`try_recv` yield whatever has landed
    // so far, and a `for` loop over a receiver drains in completion
    // order — either way the merge order depends on the scheduler. The
    // sanctioned shape is a counted loop of *blocking* `recv` calls
    // that reorders results by slot index before anything downstream
    // sees them.
    if in_join_scope(&ctx.path) {
        for i in 0..toks.len() {
            let line = match toks.get(i) {
                Some(t) => t.line,
                None => continue,
            };
            if ctx.is_test_line(line) {
                continue;
            }
            if is_punct(toks, i, '.')
                && is_punct(toks, i + 2, '(')
                && (is_ident(toks, i + 1, "try_iter") || is_ident(toks, i + 1, "try_recv"))
            {
                let what = ident_at(toks, i + 1).unwrap_or("try_recv");
                out.push(RawFinding {
                    rule: "no-unordered-join",
                    line: toks[i + 1].line,
                    message: format!(
                        "`.{what}()` consumes worker results in arrival order; join with a \
                         counted blocking recv and reorder by slot index so the merge is \
                         scheduler-independent"
                    ),
                });
            }
            // `for <pat> in <expr> {` whose header names a receiver.
            if is_ident(toks, i, "for") && !is_punct(toks, i + 1, '<') {
                for t in &toks[i + 1..] {
                    match &t.tok {
                        Tok::Punct('{') | Tok::Punct(';') => break,
                        Tok::Ident(s)
                            if s == "rx"
                                || s == "receiver"
                                || s.ends_with("_rx")
                                || s.starts_with("rx_") =>
                        {
                            out.push(RawFinding {
                                rule: "no-unordered-join",
                                line,
                                message: format!(
                                    "`for … in` over receiver `{s}` drains results in completion \
                                     order; use a counted blocking recv loop and reorder by slot \
                                     index instead"
                                ),
                            });
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // no-ambient-thread: thread creation outside the alba-par runtime.
    // A second executor would nest threads inside pool jobs and split
    // the host's cores between schedulers that cannot see each other.
    if !in_thread_runtime(&ctx.path) {
        for i in 0..toks.len() {
            let line = toks[i].line;
            if ctx.is_test_line(line) {
                continue;
            }
            for what in ["spawn", "scope", "Builder"] {
                if is_path_pair(toks, i, "thread", what) {
                    out.push(RawFinding {
                        rule: "no-ambient-thread",
                        line,
                        message: format!(
                            "`thread::{what}` creates threads outside the alba-par runtime; fan \
                             out with alba_par::map or an alba_par::Pool so work never runs on \
                             a second executor or nests threads inside pool jobs"
                        ),
                    });
                }
            }
        }
    }

    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<RawFinding> {
        let lexed = lex(src);
        let ctx = FileContext::classify(path, &lexed);
        check_file(&ctx, &lexed)
    }

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        run(path, src).into_iter().map(|f| f.rule).collect()
    }

    // ---- no-float-partial-cmp ---------------------------------------

    #[test]
    fn partial_cmp_unwrap_fires_anywhere() {
        let src = "fn f(a: &[f64], b: f64) { let mut v = a.to_vec(); v.sort_by(|x, y| x.partial_cmp(y).unwrap()); }";
        assert_eq!(rules_fired("crates/core/src/x.rs", src), vec!["no-float-partial-cmp"]);
        let src2 = "fn g() { let _ = a.partial_cmp(&b).expect(\"finite\"); }";
        assert_eq!(rules_fired("tests/t.rs", src2), vec!["no-float-partial-cmp"]);
    }

    #[test]
    fn partial_cmp_with_nan_handling_is_fine() {
        let src = "fn f() { let o = a.partial_cmp(&b).unwrap_or(core::cmp::Ordering::Equal); let t = a.total_cmp(&b); }";
        assert!(rules_fired("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn partial_cmp_with_nested_parens_still_matches() {
        let src = "fn f() { v.sort_by(|a, b| score(a).partial_cmp(&score(b)).unwrap()); }";
        assert_eq!(rules_fired("crates/ml/src/x.rs", src), vec!["no-float-partial-cmp"]);
    }

    // ---- no-ambient-time --------------------------------------------

    #[test]
    fn ambient_time_fires_in_pipeline_crates() {
        let src = "fn f() { let t = Instant::now(); let w = std::time::SystemTime::now(); }";
        assert_eq!(
            rules_fired("crates/serve/src/x.rs", src),
            vec!["no-ambient-time", "no-ambient-time"]
        );
    }

    #[test]
    fn ambient_time_is_allowed_in_bench_and_examples() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(rules_fired("crates/bench/src/bin/repro.rs", src).is_empty());
        assert!(rules_fired("examples/fleet_monitor.rs", src).is_empty());
    }

    // ---- no-ambient-entropy -----------------------------------------

    #[test]
    fn ambient_entropy_fires_everywhere_even_tests() {
        assert_eq!(
            rules_fired("crates/serve/src/x.rs", "fn f() { let mut rng = thread_rng(); }"),
            vec!["no-ambient-entropy"]
        );
        assert_eq!(
            rules_fired("tests/t.rs", "fn f() { let r = StdRng::from_entropy(); }"),
            vec!["no-ambient-entropy"]
        );
        assert_eq!(
            rules_fired("crates/bench/benches/b.rs", "use rand::rngs::OsRng;"),
            vec!["no-ambient-entropy"]
        );
    }

    #[test]
    fn seeded_rngs_are_fine() {
        let src = "fn f() { let r = StdRng::seed_from_u64(42); }";
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }

    // ---- no-unordered-iteration -------------------------------------

    #[test]
    fn hashmap_fires_in_output_sensitive_crates_only() {
        let src = "struct S { m: HashMap<u32, u32> }";
        assert_eq!(rules_fired("crates/serve/src/x.rs", src), vec!["no-unordered-iteration"]);
        assert_eq!(rules_fired("crates/obs/src/x.rs", src), vec!["no-unordered-iteration"]);
        assert!(rules_fired("crates/chaos/src/x.rs", src).is_empty(), "chaos is out of scope");
        assert!(rules_fired("crates/ml/src/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_use_items_and_tests_is_exempt() {
        let src = "use std::collections::HashMap;\nfn f() {}\n#[cfg(test)]\nmod tests { fn g() { let m: HashMap<u8, u8> = HashMap::new(); } }";
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }

    #[test]
    fn btreemap_is_always_fine() {
        let src = "use std::collections::BTreeMap;\nstruct S { m: BTreeMap<u32, u32> }";
        assert!(rules_fired("crates/obs/src/x.rs", src).is_empty());
    }

    // ---- no-panic-in-fallible ---------------------------------------

    #[test]
    fn unwrap_fires_on_runtime_paths_of_guarded_crates() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap() }";
        assert_eq!(rules_fired("crates/store/src/x.rs", src), vec!["no-panic-in-fallible"]);
        assert_eq!(rules_fired("crates/chaos/src/x.rs", src), vec!["no-panic-in-fallible"]);
        assert!(rules_fired("crates/ml/src/x.rs", src).is_empty(), "ml is out of scope");
    }

    #[test]
    fn panic_macros_fire_but_not_panic_any() {
        let src = "fn f(x: u8) { if x > 3 { panic!(\"bad\"); } else { unreachable!() } }";
        let fired = rules_fired("crates/serve/src/x.rs", src);
        assert_eq!(fired, vec!["no-panic-in-fallible", "no-panic-in-fallible"]);
        // panic_any is the sanctioned chaos-injection channel.
        let src2 = "fn g() { std::panic::panic_any(InjectedPanic); }";
        assert!(rules_fired("crates/serve/src/x.rs", src2).is_empty());
    }

    #[test]
    fn test_modules_and_test_files_are_exempt() {
        let src = "fn f() -> u8 { 1 }\n#[cfg(test)]\nmod tests { #[test] fn t() { Some(1).unwrap(); panic!(\"in test\"); } }";
        assert!(rules_fired("crates/store/src/x.rs", src).is_empty());
        assert!(
            rules_fired("crates/store/tests/durability.rs", "fn t() { x.unwrap(); }").is_empty()
        );
        assert!(
            rules_fired("crates/store/src/testutil.rs", "fn t() { x.expect(\"e\"); }").is_empty()
        );
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) + v.unwrap_or_else(|| 1) + v.unwrap_or_default() }";
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }

    // ---- no-direct-failpoint-bypass ---------------------------------

    #[test]
    fn direct_fs_io_in_serve_fires() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); }";
        assert_eq!(rules_fired("crates/serve/src/x.rs", src), vec!["no-direct-failpoint-bypass"]);
        let src2 = "fn f() { let _ = File::open(\"x\"); }";
        assert_eq!(rules_fired("crates/serve/src/x.rs", src2), vec!["no-direct-failpoint-bypass"]);
    }

    #[test]
    fn fs_io_outside_serve_src_is_fine() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); }";
        assert!(rules_fired("crates/store/src/x.rs", src).is_empty());
        assert!(rules_fired("crates/serve/tests/t.rs", src).is_empty());
    }

    // ---- no-unbounded-channel ---------------------------------------

    #[test]
    fn unbounded_queues_fire_on_the_net_ingest_path() {
        let src = "fn f() { let q: VecDeque<u8> = VecDeque::new(); }";
        assert_eq!(rules_fired("crates/net/src/conn.rs", src), vec!["no-unbounded-channel"]);
        assert_eq!(rules_fired("crates/serve/src/ingest.rs", src), vec!["no-unbounded-channel"]);
        let src2 = "fn g() { let (tx, rx) = mpsc::channel(); }";
        assert_eq!(rules_fired("crates/net/src/gateway.rs", src2), vec!["no-unbounded-channel"]);
        let src3 = "fn h() { let l = LinkedList::new(); }";
        assert_eq!(rules_fired("crates/net/src/client.rs", src3), vec!["no-unbounded-channel"]);
    }

    #[test]
    fn bounded_queues_and_out_of_scope_paths_are_fine() {
        let bounded = "fn f(cap: usize) { let q: VecDeque<u8> = VecDeque::with_capacity(cap); }";
        assert!(rules_fired("crates/net/src/conn.rs", bounded).is_empty());
        // Outside the ingest path, unbounded queues are not this rule's
        // business (other crates are not peer-fillable).
        let unbounded = "fn f() { let q: VecDeque<u8> = VecDeque::new(); }";
        assert!(rules_fired("crates/serve/src/service.rs", unbounded).is_empty());
        assert!(rules_fired("crates/store/src/wal.rs", unbounded).is_empty());
        // Test modules on the ingest path are exempt.
        let test_src = "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { let q: VecDeque<u8> = VecDeque::new(); } }";
        assert!(rules_fired("crates/net/src/conn.rs", test_src).is_empty());
    }

    // ---- no-untraced-stage ------------------------------------------

    #[test]
    fn span_without_tracer_fires_only_in_service_rs() {
        let src =
            "impl S { fn tick(&self) { let s = self.obs.span(\"stage_ns\", &[]); s.finish(); } }";
        assert_eq!(rules_fired("crates/serve/src/service.rs", src), vec!["no-untraced-stage"]);
        assert!(rules_fired("crates/serve/src/shard.rs", src).is_empty(), "only service.rs");
    }

    #[test]
    fn stage_fns_touching_the_tracer_are_fine() {
        let hopped = "impl S { fn tick(&self) { let s = self.obs.span(\"stage_ns\", &[]); s.finish(); self.tracer.hop(); } }";
        assert!(rules_fired("crates/serve/src/service.rs", hopped).is_empty());
        let helper = "impl S { fn tick(&self) { let s = self.obs.span(\"x\", &[]); self.trace_stage(0); s.finish(); } }";
        assert!(rules_fired("crates/serve/src/service.rs", helper).is_empty());
        let spanless = "impl S { fn stats(&self) -> u8 { 1 } }";
        assert!(rules_fired("crates/serve/src/service.rs", spanless).is_empty());
    }

    #[test]
    fn untraced_spans_in_test_modules_are_exempt() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests { fn t(o: &Obs) { let s = o.span(\"x\", &[]); s.finish(); } }";
        assert!(rules_fired("crates/serve/src/service.rs", src).is_empty());
    }

    // ---- no-unordered-join ------------------------------------------

    #[test]
    fn arrival_order_joins_fire_in_the_parallel_runtime() {
        let src = "fn f(rx: &Receiver<u8>) { for r in rx.try_iter() { use_it(r); } }";
        // Both the try_iter call and the for-over-rx header fire.
        assert_eq!(
            rules_fired("crates/par/src/lib.rs", src),
            vec!["no-unordered-join", "no-unordered-join"]
        );
        let src2 = "fn g(results_rx: &Receiver<u8>) { while let Ok(r) = results_rx.try_recv() { use_it(r); } }";
        assert_eq!(rules_fired("crates/serve/src/service.rs", src2), vec!["no-unordered-join"]);
        let src3 = "fn h(receiver: Receiver<u8>) { for r in receiver { use_it(r); } }";
        assert_eq!(rules_fired("crates/grid/src/runner.rs", src3), vec!["no-unordered-join"]);
    }

    #[test]
    fn counted_blocking_joins_are_fine() {
        // The sanctioned barrier: block on recv exactly n times, then
        // reorder by slot — no arrival-order iteration anywhere.
        let src = "fn f(rx: &Receiver<(usize, u8)>, n: usize) { let mut got = 0; while got < n { let (slot, r) = rx.recv().unwrap_or_default(); out[slot] = r; got += 1; } }";
        assert!(rules_fired("crates/par/src/lib.rs", src).is_empty());
        let shutdown = "fn d(rx: &Receiver<u8>) { while let Ok(m) = rx.recv() { handle(m); } }";
        assert!(rules_fired("crates/par/src/lib.rs", shutdown).is_empty());
    }

    #[test]
    fn unordered_joins_outside_the_join_scope_or_in_tests_are_exempt() {
        let src = "fn f(rx: &Receiver<u8>) { for r in rx.try_iter() { use_it(r); } }";
        assert!(rules_fired("crates/net/src/conn.rs", src).is_empty(), "net is out of scope");
        assert!(rules_fired("crates/serve/src/shard.rs", src).is_empty(), "only service.rs");
        let test_src = "fn ok() {}\n#[cfg(test)]\nmod tests { fn t(rx: &Receiver<u8>) { for r in rx.try_iter() {} } }";
        assert!(rules_fired("crates/par/src/lib.rs", test_src).is_empty());
        // Idents merely *containing* rx (matrix …) are not receivers.
        let matrix = "fn f(matrix: &Matrix) { for row in matrix.rows() { use_it(row); } }";
        assert!(rules_fired("crates/par/src/lib.rs", matrix).is_empty());
        // `for<'a>` higher-ranked bounds are not loops.
        let hrtb = "fn f<F: for<'a> Fn(&'a u8)>(g: F) { g(&1); }";
        assert!(rules_fired("crates/par/src/lib.rs", hrtb).is_empty());
    }

    // ---- no-ambient-thread ------------------------------------------

    #[test]
    fn thread_creation_fires_outside_the_runtime_crate() {
        let src = "fn f() { std::thread::spawn(|| {}); thread::scope(|s| {}); }";
        assert_eq!(
            rules_fired("crates/grid/src/runner.rs", src),
            vec!["no-ambient-thread", "no-ambient-thread"]
        );
        let builder = "fn f() { let b = std::thread::Builder::new(); }";
        assert_eq!(rules_fired("crates/ml/src/forest.rs", builder), vec!["no-ambient-thread"]);
        assert!(rules_fired("crates/par/src/map.rs", src).is_empty(), "alba-par owns threads");
    }

    #[test]
    fn thread_creation_in_tests_and_look_alikes_is_fine() {
        let test_src =
            "fn ok() {}\n#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }";
        assert!(rules_fired("crates/chaos/src/failpoint.rs", test_src).is_empty());
        assert!(rules_fired("tests/properties.rs", "fn t() { thread::spawn(|| {}); }").is_empty());
        // A scope handle's `spawn` sits under an already-flagged `thread::scope`, and
        // `thread::current` creates nothing.
        let other = "fn f(s: &Scope) { s.spawn(|| {}); let id = thread::current().id(); }";
        assert!(rules_fired("crates/grid/src/runner.rs", other).is_empty());
    }

    // ---- context classification -------------------------------------

    #[test]
    fn cfg_test_region_detection_handles_nested_cfgs() {
        let lexed = lex("fn f() {}\n#[cfg(all(test, feature = \"x\"))]\nmod tests {}\n");
        assert_eq!(find_cfg_test(&lexed), Some(2));
        let lexed2 = lex("#[cfg(feature = \"slow\")]\nmod slow {}\n");
        assert_eq!(find_cfg_test(&lexed2), None);
    }

    #[test]
    fn findings_inside_comments_and_strings_never_fire() {
        let src = concat!(
            "// thread_rng() Instant::now() HashMap x.partial_cmp(y).unwrap()\n",
            "/* SystemTime::now() panic!(\"no\") */\n",
            "fn f() -> &'static str { \"thread_rng OsRng std::fs::read\" }\n",
            "const R: &str = r#\"Instant::now() .unwrap()\"#;\n",
        );
        assert!(rules_fired("crates/serve/src/x.rs", src).is_empty());
    }
}
