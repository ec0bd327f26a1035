#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds `perfbench/` (a cargo
package of its own) in release mode, then runs the `alba-perfbench`
binary once per repetition, each time in a fresh process with a fresh
scratch directory under `.bench_out/`, so every set-up is cold and no
run warm-restarts from an earlier one. The first two repetitions stream
the same inputs and must give identical outputs; each later one streams
a new fleet (or AL campaign) derived from `--seed`. It repeats until
`--seconds` have passed (at least twice) and, end to end, until the
latency p99 over every repetition's diagnosed windows has at least ten
samples above it. It aggregates the repetitions and prints two lines:
a self-describing report (host, repetitions, median and quartiles per
metric, percentile sample counts, checks) and, last, the result object
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs the traced mirror and reports the per-layer metrics. The exit code
is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 2
MAX_REPS = 50
# Stop starting repetitions once this much of the run's own time is used,
# so a run always ends well inside three minutes.
WALL_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 60.0
P50, P99 = 0.50, 0.99
# Diagnosis quality: reported with every run, but not a BENCHMARK.json
# metric — it is fixed by the seed's fleet, so it varies across seeds
# far more than any bound allows, and no code change moves it by chance.
QUALITY = ("alarm_precision", "alarm_recall", "diagnosis_f1")
# A p99 is only reported with at least this many samples above it.
MIN_BEYOND = 10
# The largest share of the traced wall time no top-level span may cover.
MAX_UNATTRIBUTED = 0.05
# The smallest share of diagnosed windows that retrain ticks must carry
# when retraining is on, so that they show in the latency tail.
RETRAIN_SHARE = 0.01


def weighted_percentile(pairs, q):
    """Nearest-rank percentile of `(value, weight)` pairs: the smallest
    value whose cumulative weight reaches `q` of the total."""
    pairs = sorted(p for p in pairs if p[1] > 0)
    total = sum(w for _, w in pairs)
    if total <= 0:
        raise ValueError("no samples")
    target = q * total
    acc = 0.0
    for value, weight in pairs:
        acc += weight
        if acc >= target - 1e-9:
            return value
    return pairs[-1][0]


def samples_beyond(pairs, value):
    """How many samples of `(value, weight)` pairs lie strictly above `value`."""
    return sum(w for v, w in pairs if v > value)


def spread(values):
    """(median, first quartile, third quartile) of `values`."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def reconciles(layers):
    """The top-level spans account for the traced wall time: what they
    leave (`trace.unattributed_ms`) is not negative (overlapping spans
    would make it so) and at most MAX_UNATTRIBUTED of `trace.wall_ms`
    (work outside every span would push it above)."""
    rest, wall = layers["trace.unattributed_ms"], layers["trace.wall_ms"]
    return wall > 0 and -1e-6 * wall <= rest <= MAX_UNATTRIBUTED * wall


def pooled_latency(reps):
    """Every repetition's `(latency_ms, windows)` pairs, pooled."""
    return [tuple(p) for r in reps for p in r["latency"]]


def latency_ok(reps):
    """True when the pooled p99 has at least MIN_BEYOND samples above it."""
    lat = pooled_latency(reps)
    return bool(lat) and samples_beyond(lat, weighted_percentile(lat, P99)) >= MIN_BEYOND


def e2e_values(rep):
    """The end-to-end metrics of one repetition; its latency percentiles
    are its own (the reported ones pool every repetition)."""
    lat = rep["latency"]
    if "session_s" in rep:
        throughput = rep["queries"] / rep["session_s"]
    else:
        throughput = rep["node_metric_samples"] / (rep["serve_ms"] / 1e3)
    return {
        "setup_s": rep["setup_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "throughput_per_s": throughput,
        "diagnosis_p50_ms": weighted_percentile(lat, P50),
        "diagnosis_p99_ms": weighted_percentile(lat, P99),
    }


def input_seed(seed, k):
    """The input seed of repetition `k`, derived from the run's seed.
    Repetitions 0 and 1 share inputs, so their outputs must match; each
    later repetition streams a different fleet (or AL campaign)."""
    return (seed * 1000003 + max(k - 1, 0)) % (1 << 63)


def serve_checks(reps):
    """Checks and report entries of the serve workloads' feedback loop:
    when retraining is on, the retrain cap never binds and retrain ticks
    carry more than RETRAIN_SHARE of the diagnosed windows."""
    shares = [r["retrain_windows"] / r["windows"] for r in reps]
    report = {"retrain_window_share": shares, "retrain_ticks": [r["retrain_ticks"] for r in reps],
              "retrain_rounds": [len(r["swap_ticks"]) for r in reps]}
    checks = {}
    if reps[0]["max_retrains"] > 0:
        checks["retrain_cap_not_binding"] = all(len(r["swap_ticks"]) < r["max_retrains"] for r in reps)
        checks["retrain_ticks_carry_1pct_of_windows"] = all(s > RETRAIN_SHARE for s in shares)
    return checks, report


def aggregate(bench, reps, trace):
    """Folds repetitions into (correct, attempted, failed, metrics, report).
    `reps[0]` and `reps[1]` ran the same inputs and must match exactly."""
    checks = {}
    checks["same_inputs_identical_outputs"] = len(reps) >= 2 and reps[0]["digest"] == reps[1]["digest"]
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    per_metric = {m["name"]: [] for m in specs}
    pooled, quality, extra = {}, {}, {}
    attempted = failed = 0
    if trace:
        for r in reps:
            unknown = set(r["layers"]) - set(per_metric)
            if unknown:
                raise SystemExit("unknown layer metrics: %s" % sorted(unknown))
            for name in per_metric:
                per_metric[name].append(r["layers"].get(name, 0.0))
        checks["layers_reconcile_with_wall"] = all(reconciles(r["layers"]) for r in reps)
        checks["no_lost_wire_samples"] = all(
            r["layers"].get("net.frames_undelivered", 0.0) == 0 and r["layers"].get("serve.ingest.shed", 0.0) == 0
            for r in reps)
        attempted = len(reps)
    else:
        for r in reps:
            values = e2e_values(r)
            for name in per_metric:
                per_metric[name].append(values[name])
            attempted += int(r["scheduled"] if "scheduled" in r else r["queries"])
            failed += int(r["failed"])
        lat = pooled_latency(reps)
        for name, q in (("diagnosis_p50_ms", P50), ("diagnosis_p99_ms", P99)):
            value = weighted_percentile(lat, q)
            pooled[name] = {"value": value, "samples": sum(w for _, w in lat), "ticks": len(lat),
                            "samples_beyond": samples_beyond(lat, value)}
        checks["no_failed_samples"] = failed == 0
        checks["p99_has_10_samples_beyond"] = pooled["diagnosis_p99_ms"]["samples_beyond"] >= MIN_BEYOND
        # Diagnoses must be right at least some of the time: a correct
        # alarm is raised and an anomalous node (or window) is caught.
        checks["correct_alarms_raised"] = all(r["alarm_precision"] > 0 and r["alarm_recall"] > 0 for r in reps)
        if "queries" in reps[0]:
            checks["budget_spent"] = all(r["queries"] == min(r["pool"], r["budget"]) for r in reps)
            checks["replica_matches_program"] = all(r["replica_mismatch"] == 0 for r in reps)
        else:
            c, extra = serve_checks(reps)
            checks.update(c)
        for q in QUALITY:
            med, q1, q3 = spread([r[q] for r in reps])
            quality[q] = {"median": med, "q1": q1, "q3": q3, "unit": "ratio", "better": "higher",
                          "reps": [r[q] for r in reps]}
    metrics, described = {}, {}
    for m in specs:
        vals = per_metric[m["name"]]
        med, q1, q3 = spread(vals)
        d = {"value": med, "median": med, "q1": q1, "q3": q3, "unit": m["unit"], "better": m["better"],
             "reps": vals}
        if m["name"] in pooled:
            # Percentiles pool every repetition's windows; `median`, `q1`,
            # `q3` and `reps` describe the per-repetition percentiles.
            d.update(pooled[m["name"]])
        metrics[m["name"]] = {"value": d["value"], "unit": m["unit"]}
        described[m["name"]] = d
    correct = all(checks.values())
    report = {"checks": checks, "metrics": described, "quality": quality}
    report.update(extra)
    return correct, max(attempted, 1), failed, metrics, report


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "rustc": rustc, "python": platform.python_version()}


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return None
    if proc.returncode != 0:
        return None
    return os.path.join(target, "release", "alba-perfbench")


def child_env():
    env = dict(os.environ)
    # The program reads this to memoise datasets on disk; every run must
    # generate cold, in memory.
    env.pop("ALBA_STORE_DIR", None)
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    t_start = time.monotonic()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    binary = build()
    if binary is None or not os.path.exists(binary):
        print("benchmark build failed", file=sys.stderr)
        return 1

    mode = "trace" if args.trace else "e2e"
    run_dir = os.path.join(ROOT, ".bench_out", "%d-%d" % (os.getpid(), int(time.time() * 1e3)))
    os.makedirs(run_dir, exist_ok=True)
    reps, last = [], 0.0
    measure_start = time.monotonic()

    def run_child(k, input_seed):
        rep_dir = os.path.join(run_dir, "rep%d" % k)
        os.makedirs(rep_dir)
        cmd = [binary, args.workload, "--seed", str(input_seed), "--mode", mode, "--dir", rep_dir]
        if args.trace and k % 2:
            cmd.append("--program-first")
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("repetition %d failed with code %d" % (k, proc.returncode))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    try:
        while len(reps) < MAX_REPS:
            elapsed = time.monotonic() - measure_start
            # Past `--seconds`, an end-to-end run goes on only until its
            # pooled p99 has enough samples above it.
            enough = args.trace or latency_ok(reps)
            if len(reps) >= MIN_REPS and elapsed >= args.seconds and enough:
                break
            if len(reps) >= MIN_REPS and time.monotonic() - t_start + last > WALL_LIMIT_S:
                break
            t = time.monotonic()
            reps.append(run_child(len(reps), input_seed(args.seed, len(reps))))
            last = time.monotonic() - t
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_out"))
        except OSError:
            pass

    correct, attempted, failed, metrics, report = aggregate(bench, reps, bool(args.trace))
    report.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": mode,
        "repetitions": len(reps),
        "measured_s": time.monotonic() - measure_start,
        "host": host_fingerprint(),
        "error_rate": failed / attempted,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
