"""Tests of the benchmark driver's statistics and checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import run

BENCH = json.load(open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")))


def serve_rep(digest="d1", failed=0, lat=None, setup=1.0, retrain_windows=52, max_retrains=100000):
    return {
        "digest": digest,
        "setup_s": setup,
        "peak_rss_mb": 100.0,
        "node_metric_samples": 3400.0,
        "serve_ms": 1000.0,
        "scheduled": 100,
        "failed": failed,
        "alarm_precision": 0.9,
        "alarm_recall": 0.5,
        "diagnosis_f1": 0.6,
        "latency": lat if lat is not None else [[10.0, 980], [50.0, 10], [60.0, 10]],
        "windows": 1000,
        "retrain_windows": retrain_windows,
        "retrain_ticks": 1,
        "swap_ticks": [60, 60],
        "max_retrains": max_retrains,
    }


def trace_rep(unattributed=1.0, wall=100.0, undelivered=0.0):
    layers = {m["name"]: 0.0 for m in BENCH["per_layer"]}
    layers.update({"trace.unattributed_ms": unattributed, "trace.wall_ms": wall,
                   "net.frames_undelivered": undelivered})
    return {"digest": "d1", "layers": layers}


class PercentileTest(unittest.TestCase):
    def test_weighted_percentile_is_nearest_rank(self):
        pairs = [[3.0, 1], [1.0, 1], [2.0, 1], [4.0, 1]]
        self.assertEqual(run.weighted_percentile(pairs, 0.5), 2.0)
        self.assertEqual(run.weighted_percentile(pairs, 0.99), 4.0)
        self.assertEqual(run.weighted_percentile(pairs, 0.25), 1.0)

    def test_weights_count_every_window_of_a_tick(self):
        # 99 windows wait 10 ms, 1 window waits 500 ms: p99 is 10 ms.
        self.assertEqual(run.weighted_percentile([[500.0, 1], [10.0, 99]], 0.99), 10.0)
        # With two slow windows the p99 lands on the slow tick.
        self.assertEqual(run.weighted_percentile([[500.0, 2], [10.0, 98]], 0.99), 500.0)

    def test_samples_beyond_counts_only_samples_above_the_value(self):
        pairs = [[1.0, 800], [2.0, 388], [3.0, 12]]
        p99 = run.weighted_percentile(pairs, 0.99)
        self.assertEqual(p99, 2.0)
        self.assertEqual(run.samples_beyond(pairs, p99), 12)
        self.assertEqual(run.samples_beyond(pairs, 3.0), 0)

    def test_one_heavy_slowest_tick_leaves_nothing_beyond_p99(self):
        # A thousand windows, but the slowest tick holds 20 of them: p99
        # is that tick's latency and no sample lies above it.
        pairs = [[10.0, 990], [500.0, 20]]
        p99 = run.weighted_percentile(pairs, 0.99)
        self.assertEqual(p99, 500.0)
        self.assertEqual(run.samples_beyond(pairs, p99), 0)

    def test_empty_latency_is_an_error(self):
        with self.assertRaises(ValueError):
            run.weighted_percentile([[1.0, 0]], 0.5)

    def test_spread_uses_statistics_quantiles(self):
        med, q1, q3 = run.spread([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertEqual((q1, q3), (1.5, 4.5))
        self.assertEqual(run.spread([7.0]), (7.0, 7.0, 7.0))


class ReconcileTest(unittest.TestCase):
    def test_small_non_negative_remainder_reconciles(self):
        self.assertTrue(run.reconciles({"trace.unattributed_ms": 0.5, "trace.wall_ms": 100.0}))
        self.assertTrue(run.reconciles({"trace.unattributed_ms": 0.0, "trace.wall_ms": 100.0}))

    def test_overlapping_spans_fail(self):
        # Top-level spans summing past the wall time counted some of it twice.
        self.assertFalse(run.reconciles({"trace.unattributed_ms": -3.0, "trace.wall_ms": 100.0}))

    def test_unspanned_work_fails(self):
        self.assertFalse(run.reconciles({"trace.unattributed_ms": 20.0, "trace.wall_ms": 100.0}))

    def test_traced_run_fails_on_bad_reconciliation_or_lost_samples(self):
        correct, *_, report = run.aggregate(BENCH, [trace_rep(), trace_rep()], True)
        self.assertTrue(correct, report["checks"])
        correct, *_, report = run.aggregate(BENCH, [trace_rep(), trace_rep(unattributed=-5.0)], True)
        self.assertFalse(report["checks"]["layers_reconcile_with_wall"])
        correct, *_, report = run.aggregate(BENCH, [trace_rep(), trace_rep(undelivered=3.0)], True)
        self.assertFalse(correct)
        self.assertFalse(report["checks"]["no_lost_wire_samples"])


class AggregateTest(unittest.TestCase):
    def test_medians_and_pooled_percentiles(self):
        reps = [serve_rep(setup=1.0), serve_rep(setup=3.0), serve_rep(setup=2.0)]
        correct, attempted, failed, metrics, report = run.aggregate(BENCH, reps, False)
        self.assertTrue(correct, report["checks"])
        self.assertEqual((attempted, failed), (300, 0))
        self.assertEqual(metrics["setup_s"], {"value": 2.0, "unit": "s"})
        self.assertEqual(metrics["throughput_per_s"]["value"], 3400.0)
        self.assertEqual(metrics["diagnosis_p50_ms"]["value"], 10.0)
        self.assertEqual(set(metrics), {m["name"] for m in BENCH["end_to_end"]})
        p99 = report["metrics"]["diagnosis_p99_ms"]
        # 3000 pooled windows: p99 is the 50 ms tick, 30 windows lie above.
        self.assertEqual((p99["value"], p99["samples"], p99["samples_beyond"]), (50.0, 3000, 30))

    def test_differing_outputs_for_equal_inputs_fail(self):
        correct, *_, report = run.aggregate(BENCH, [serve_rep(), serve_rep(digest="other")], False)
        self.assertFalse(correct)
        self.assertFalse(report["checks"]["same_inputs_identical_outputs"])

    def test_lost_samples_fail(self):
        correct, _, failed, _, report = run.aggregate(BENCH, [serve_rep(failed=3), serve_rep()], False)
        self.assertFalse(correct)
        self.assertEqual(failed, 3)

    def test_p99_without_ten_samples_beyond_fails(self):
        heavy = [[10.0, 990], [500.0, 20]]
        correct, *_, report = run.aggregate(BENCH, [serve_rep(lat=heavy), serve_rep(lat=heavy)], False)
        self.assertFalse(correct)
        self.assertFalse(report["checks"]["p99_has_10_samples_beyond"])
        self.assertFalse(run.latency_ok([serve_rep(lat=heavy)]))
        self.assertTrue(run.latency_ok([serve_rep()]))

    def test_retrain_ticks_must_carry_one_percent_of_windows(self):
        reps = [serve_rep(), serve_rep(retrain_windows=5)]
        correct, *_, report = run.aggregate(BENCH, reps, False)
        self.assertFalse(report["checks"]["retrain_ticks_carry_1pct_of_windows"])
        self.assertEqual(report["retrain_window_share"], [0.052, 0.005])
        correct, *_, report = run.aggregate(BENCH, [serve_rep(max_retrains=2)] * 2, False)
        self.assertFalse(report["checks"]["retrain_cap_not_binding"])
        # Without retraining the feedback checks do not apply.
        correct, *_, report = run.aggregate(BENCH, [serve_rep(retrain_windows=0, max_retrains=0)] * 2, False)
        self.assertTrue(correct, report["checks"])

    def test_first_two_repetitions_share_inputs(self):
        seeds = [run.input_seed(7, k) for k in range(6)]
        self.assertEqual(seeds[0], seeds[1])
        self.assertEqual(len(set(seeds[1:])), 5)
        self.assertEqual(seeds, [run.input_seed(7, k) for k in range(6)])


if __name__ == "__main__":
    unittest.main()
