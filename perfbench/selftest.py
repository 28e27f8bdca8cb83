#!/usr/bin/env python3
"""Self-test of the benchmark's own statistics, digest, output-check
and self-time code (perfbench/benchlib.py), plus the consistency of
BENCHMARK.json with perfbench/layers.json.

    python3 perfbench/selftest.py
"""

import json
import math
import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

GOOD_BODY = ("0.5 6255000000 0.75 83.85 0 12 4 0.001 1.35 0.2\n"
             "0 0 0\n0\n4 1 2 3 4\n4 1 1 1 1\n4 1 1 1 1\n4 1 2 3 4\n")


def chrome_trace(spans):
    """The shape obs::writeChromeTraceSpans writes."""
    events = [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "perfbench"}}]
    for name, ts, dur, sid, parent in spans:
        events.append({"name": name, "cat": "fleet", "ph": "X", "pid": 0,
                       "tid": 0, "ts": ts, "dur": dur,
                       "args": {"trace_id": "0" * 32,
                                "span_id": "%016x" % sid,
                                "parent_id": "%016x" % parent,
                                "job": -1}})
    return {"displayTimeUnit": "ms", "traceEvents": events}


class Statistics(unittest.TestCase):
    def test_quartile_spread_matches_statistics_module(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(benchlib.quartile_spread(values), (q3 - q1) / 3.0)
        self.assertEqual(benchlib.quartile_spread(values), 1.0)

    def test_spread_of_constant_and_single_values_is_zero(self):
        self.assertEqual(benchlib.quartile_spread([2.0] * 7), 0.0)
        self.assertEqual(benchlib.quartile_spread([2.0]), 0.0)

    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)

    def test_scaled_median_divides_by_the_reference_median(self):
        nominal = benchlib.REF_NOMINAL_S
        # The host ran at half speed (reference twice as slow): the
        # median repetition counts half.
        ref = [3 * nominal, 2 * nominal, 1.5 * nominal]
        self.assertTrue(math.isclose(
            benchlib.scaled_median([5.0, 3.0, 4.0], ref), 2.0))

    def test_scaled_median_keeps_times_at_nominal_speed(self):
        ref = [benchlib.REF_NOMINAL_S] * 3
        self.assertEqual(benchlib.scaled_median([2.5, 1.5], ref), 2.0)

    def test_scaled_median_needs_samples_and_reference(self):
        with self.assertRaises(ValueError):
            benchlib.scaled_median([], [benchlib.REF_NOMINAL_S])
        with self.assertRaises(ValueError):
            benchlib.scaled_median([1.0], [])


class Digests(unittest.TestCase):
    def test_known_sha256(self):
        self.assertEqual(
            benchlib.digest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        self.assertEqual(benchlib.digest(b"abc"), benchlib.digest("abc"))

    def test_file_digest_equals_bytes_digest(self):
        with tempfile.NamedTemporaryFile(delete=False) as f:
            f.write(b"coolcmp-trace-v2\n1 2 3\n")
        try:
            self.assertEqual(benchlib.file_digest(f.name),
                             benchlib.digest(b"coolcmp-trace-v2\n1 2 3\n"))
        finally:
            os.unlink(f.name)


class OutputChecks(unittest.TestCase):
    def test_plausible_body_passes(self):
        self.assertEqual(benchlib.body_problems(GOOD_BODY), [])

    def test_nan_and_cold_peak_are_caught(self):
        nan = GOOD_BODY.replace("83.85", "nan", 1)
        self.assertIn("non-finite value", benchlib.body_problems(nan))
        cold = GOOD_BODY.replace("83.85", "0", 1)
        self.assertTrue(any("peak" in p
                            for p in benchlib.body_problems(cold)))

    def test_check_jobs_counts_mismatch_missing_and_extra(self):
        golden = {"a": benchlib.digest(GOOD_BODY),
                  "b": benchlib.digest(GOOD_BODY),
                  "gone": benchlib.digest(GOOD_BODY)}
        bodies = {"a": GOOD_BODY, "b": GOOD_BODY.replace("12", "13", 1),
                  "new": GOOD_BODY}
        failed, messages = benchlib.check_jobs(bodies, golden)
        self.assertEqual(failed, 3)
        self.assertEqual(len(messages), 3)
        self.assertEqual(benchlib.check_jobs({"a": GOOD_BODY},
                                             {"a": golden["a"]}), (0, []))

    def test_paper_claim_bands(self):
        bands = {"dvfs_over_stopgo": 2.52, "ratio_digits": 2, "runs": 144,
                 "peak_below_c": 84.2}
        claims = {"dvfs_over_stopgo": 2.524, "runs": 144, "emergencies": 0,
                  "peak_temp_c": 84.1, "dvfs_cells": 2,
                  "sensor_ge_counter_cells": 2}
        self.assertEqual(benchlib.check_paper_claims(claims, bands), [])
        bad = dict(claims, dvfs_over_stopgo=2.49, emergencies=1,
                   peak_temp_c=84.3, sensor_ge_counter_cells=1)
        self.assertEqual(len(benchlib.check_paper_claims(bad, bands)), 4)


class SelfTimes(unittest.TestCase):
    # root [0, 10 s) with children a [1, 4) and b [4, 8); b has c
    # [5, 6). Times in microseconds, as the trace stores them.
    SPANS = [("root", 0, 10e6, 1, 0), ("a", 1e6, 3e6, 2, 1),
             ("b", 4e6, 4e6, 3, 1), ("c", 5e6, 1e6, 4, 3),
             ("tail", 10e6, 2e6, 5, 0)]

    def load(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(chrome_trace(self.SPANS), f)
        try:
            return benchlib.load_spans(f.name)
        finally:
            os.unlink(f.name)

    def test_self_time_subtracts_direct_children(self):
        selfs = benchlib.self_times(self.load())
        expect = {"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0, "tail": 2.0}
        for name, seconds in expect.items():
            self.assertTrue(math.isclose(selfs[name], seconds),
                            (name, selfs[name]))

    def test_self_times_add_up_to_root_time(self):
        spans = self.load()
        self.assertTrue(math.isclose(sum(benchlib.self_times(spans).values()),
                                     benchlib.root_time(spans)))
        self.assertTrue(math.isclose(benchlib.root_time(spans), 12.0))

    def test_concurrency(self):
        spans = [{"name": "g", "start": 0.0, "dur": 2.0},
                 {"name": "g", "start": 1.0, "dur": 2.0},
                 {"name": "h", "start": 9.0, "dur": 1.0}]
        self.assertTrue(math.isclose(benchlib.concurrency(spans, "g"),
                                     4.0 / 3.0))
        self.assertEqual(benchlib.concurrency(spans, "missing"), 0.0)
        serial = [{"name": "g", "start": 0.0, "dur": 1.0},
                  {"name": "g", "start": 1.0, "dur": 1.0}]
        self.assertEqual(benchlib.concurrency(serial, "g"), 1.0)


class Spec(unittest.TestCase):
    def test_every_per_layer_metric_is_mapped(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            layers = json.load(f)
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(sorted(names), sorted(layers))
        workloads = {w["name"] for w in spec["workloads"]}
        for name, entry in layers.items():
            self.assertTrue(set(entry["on"]) <= workloads, name)
            self.assertEqual(set(entry["on"]) | set(entry["flat_on"]),
                             workloads, name)


if __name__ == "__main__":
    unittest.main()
