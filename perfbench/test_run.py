#!/usr/bin/env python3
"""Tests for the benchmark's own code: output and GC parsers, span
arithmetic, normalisation, and the metric declarations.

    python3 perfbench/test_run.py
"""

import sys

sys.dont_write_bytecode = True

import os
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


RUN_STDOUT = b"""algorithm: gradient on grid:60x60
nodes 3600, edges 7080, diameter 118, u = 1, kappa = 2.1600
max local skew    : 1.1765
mean local skew   : 0.4012
p99 local skew    : 0.9480
max global skew   : 9.8210
final local skew  : 0.9911
final global skew : 9.3375
messages / events : 569078 / 988966
gradient envelope : 25.9200 (analytic local bound)
"""

GC_STDERR = b"""store: 84 hits, 0 misses (0 fresh dispatches)
allocated_words: 264570390
minor_words: 250000000
promoted_words: 12478211
major_words: 27048601
minor_collections: 998
major_collections: 47
forced_major_collections: 0
heap_words: 506191
top_heap_words: 6527488
mean_space_overhead: 92.273141
"""


def span(id_, name, parent, start, end, cell=0):
    return {"id": id_, "name": name, "parent": parent, "cell": cell,
            "start": start, "end": end}


class Parsers(unittest.TestCase):
    def test_run_summary(self):
        s = run.run_summary(RUN_STDOUT)
        self.assertEqual(s, {"nodes": 3600, "edges": 7080, "diameter": 118,
                             "messages": 569078, "events": 988966})
        self.assertIsNone(run.run_summary(b"error: bad topology\n"))

    def test_store_line(self):
        self.assertEqual(run.store_line(GC_STDERR), (84, 0, 0))
        self.assertEqual(
            run.store_line(b"store: 0 hits, 84 misses (6554465 fresh dispatches)\n"),
            (0, 84, 6554465))
        self.assertIsNone(run.store_line(b"wrote 84 rows\n"))

    def test_check_lines(self):
        out = (b"checked dynamic-gradient on torus:30x30: 348363 events monitored\n"
               b"verdict: CONFORMS\n")
        self.assertEqual(run.check_lines(out), (348363, "CONFORMS"))
        bad = out.replace(b"CONFORMS", b"VIOLATION\n  rate at node 3")
        self.assertEqual(run.check_lines(bad), (348363, "VIOLATION"))
        self.assertIsNone(run.check_lines(b"verdict: CONFORMS\n"))

    def test_trace_lines(self):
        err = (b"wrote 579766 event lines to x/events.jsonl\n"
               b"schema: 579766 lines OK\n")
        self.assertEqual(run.trace_lines(err), (579766, 579766))
        self.assertIsNone(run.trace_lines(b"wrote 3 event lines to f\n"))

    def test_csv_events(self):
        csv = (b"topology,algorithm,seed,nodes,events,jumps\n"
               b"ring:32,free-run,1000,32,201,0\n"
               b"ring:32,gradient,1000,32,1500,0\n")
        self.assertEqual(run.csv_events(csv), 1701)
        self.assertIsNone(run.csv_events(b""))

    def test_parse_gc(self):
        gc = run.parse_gc(GC_STDERR)
        self.assertEqual(gc["allocated_words"], 264570390)
        self.assertEqual(gc["minor_collections"], 998)
        self.assertEqual(gc["top_heap_words"], 6527488)
        self.assertAlmostEqual(gc["mean_space_overhead"], 92.273141)
        self.assertNotIn("store", gc)
        self.assertEqual(run.parse_gc(b"schema: 12 lines OK\n"), {})

    def test_sum_gc(self):
        class P:
            def __init__(self, gc):
                self.gc = gc
        total = run.sum_gc([P({"allocated_words": 10.0, "top_heap_words": 5.0}),
                            P({"allocated_words": 2.0, "top_heap_words": 7.0})])
        self.assertEqual(total, {"allocated_words": 12.0, "top_heap_words": 7.0})


class SweepGate(unittest.TestCase):
    COLD = b"store: 0 hits, 42 misses (3000 fresh dispatches)\n"
    WARM = b"store: 42 hits, 0 misses (0 fresh dispatches)\n"

    def verify(self, cold_err, warm_err, warm_csv=b"topology,events\nring:32,3000\n"):
        class P:
            def __init__(self, err):
                self.err = err
        with tempfile.TemporaryDirectory() as work:
            for name, data in (("cold.csv", b"topology,events\nring:32,3000\n"),
                               ("warm.csv", warm_csv)):
                with open(os.path.join(work, name), "wb") as f:
                    f.write(data)
            return run.WORKLOADS["sweep-store"].verify(42, [P(cold_err), P(warm_err)], work)

    def test_store_lines_are_outputs(self):
        outputs, events, errors = self.verify(self.COLD + GC_STDERR.split(b"\n", 1)[1], self.WARM)
        self.assertEqual(errors, [])
        self.assertEqual(events, 3000)
        self.assertEqual(outputs["store"], self.COLD + self.WARM)

    def test_warm_misses_and_csv_changes_fail(self):
        _, _, errors = self.verify(self.COLD, self.COLD.replace(b"0 hits", b"41 hits", 1),
                                   warm_csv=b"topology,events\nring:32,3001\n")
        self.assertEqual(len(errors), 2, errors)


class Spans(unittest.TestCase):
    def test_nested(self):
        spans = [span(0, "cmd.run", -1, 0.0, 10.0),
                 span(1, "core.cell", 0, 1.0, 9.0),
                 span(2, "sim.run", 1, 2.0, 7.0)]
        self.assertEqual(run.self_times(spans),
                         {"cmd.run": 2.0, "core.cell": 3.0, "sim.run": 5.0})
        self.assertEqual(run.span_totals(spans),
                         {"cmd.run": 10.0, "core.cell": 8.0, "sim.run": 5.0})

    def test_siblings(self):
        spans = [span(0, "cmd.sweep_cold", -1, 0.0, 10.0),
                 span(1, "store.find", 0, 0.0, 1.0),
                 span(2, "store.find", 0, 1.0, 2.5),
                 span(3, "core.cell", 0, 3.0, 8.0)]
        self.assertEqual(run.self_times(spans),
                         {"cmd.sweep_cold": 2.5, "store.find": 2.5, "core.cell": 5.0})

    def test_top_level_siblings_have_no_parent(self):
        spans = [span(0, "cmd.check", -1, 0.0, 1.0),
                 span(1, "cmd.trace", -1, 1.0, 4.0)]
        self.assertEqual(run.self_times(spans), {"cmd.check": 1.0, "cmd.trace": 3.0})

    def test_twin_cost_is_a_difference_of_minima(self):
        spans = [span(0, "cmd.check", -1, 0.0, 4.0),
                 span(1, "bare.check", -1, 4.0, 5.5),
                 span(2, "sink.check", -1, 5.5, 7.5),
                 span(3, "bare.check", -1, 7.5, 8.5),
                 span(4, "sink.check", -1, 8.5, 11.0),
                 span(5, "bare.trace", -1, 11.0, 12.0),
                 span(6, "sink.trace", -1, 12.0, 12.25)]
        self.assertAlmostEqual(run.twin_cost(spans, "check"), 2.0 - 1.0)
        # A sink that reads faster than its bare twin is not clipped.
        self.assertAlmostEqual(run.twin_cost(spans, "trace"), 0.25 - 1.0)
        self.assertEqual(run.twin_cost(spans, "run"), 0.0)


class Normalisation(unittest.TestCase):
    def test_normalise(self):
        nominal = run.REF_NOMINAL_S
        # Twice as slow a host (kernel 0.8 s against 0.4 s nominal) halves it.
        self.assertAlmostEqual(run.normalise(3.0, 2 * nominal), 1.5)
        self.assertAlmostEqual(run.normalise(3.0, nominal), 3.0)
        # A workload that slows by only sqrt(2) when the kernel slows by 2.
        self.assertAlmostEqual(run.normalise(3.0, 2 * nominal, 0.5), 3.0 / 2 ** 0.5)
        self.assertAlmostEqual(run.normalise(3.0, 2 * nominal, 0.0), 3.0)

    def test_bracket(self):
        self.assertAlmostEqual(run.bracket_ref(0.4, 0.6), 0.5)

    def test_normalised_total_is_a_ratio_of_sums(self):
        nominal = run.REF_NOMINAL_S
        # A pass on a host at nominal speed and one on a host twice as slow
        # that also took twice as long: both read 2 s.
        self.assertAlmostEqual(run.normalised_total([(2.0, nominal), (4.0, 2 * nominal)], 1.0), 2.0)
        # Not the mean of per-pass ratios (2.0 and 0.5 -> 1.25).
        self.assertAlmostEqual(run.normalised_total([(2.0, nominal), (1.0, 2 * nominal)], 1.0), 1.0)

    def test_normalised_total_with_elasticity(self):
        nominal = run.REF_NOMINAL_S
        passes = [(2.0, nominal), (6.0, 3 * nominal)]  # means 4 s and 2 x nominal
        self.assertAlmostEqual(run.normalised_total(passes, 0.0), 4.0)
        self.assertAlmostEqual(run.normalised_total(passes, 0.5), 4.0 / 2 ** 0.5)

    def test_tail_percentile(self):
        self.assertIsNone(run.tail_percentile([1.0] * 10))
        xs = [float(i) for i in range(84)]
        pct, value = run.tail_percentile(xs)
        self.assertEqual(value, 73.0)  # values 74..83: ten beyond it
        self.assertAlmostEqual(pct, 100.0 * 74 / 84)
        self.assertEqual(run.tail_percentile([float(i) for i in range(11)]), (100.0 / 11, 0.0))

    def test_digest_separates_parts(self):
        self.assertNotEqual(run.digest({"a": b"xy", "b": b""}),
                            run.digest({"a": b"x", "b": b"y"}))
        self.assertEqual(run.digest({"a": b"1", "b": b"2"}),
                         run.digest({"b": b"2", "a": b"1"}))


class Declarations(unittest.TestCase):
    def setUp(self):
        self.e2e, self.layer = run.declared_metrics()

    def check(self, emitted, declared):
        for name, (value, unit) in emitted.items():
            self.assertRegex(name, r"\A[A-Za-z0-9_.-]+\Z")
            self.assertEqual(declared.get(name), unit, name)
            self.assertIsInstance(value, float, name)
        self.assertEqual(set(emitted), set(declared))

    def test_end_to_end(self):
        self.check(run.end_to_end_metrics(2.0, 0.5, 1000, 60000.0), self.e2e)

    def test_per_layer(self):
        spans = [span(0, "cmd.run", -1, 0.0, 3.0),
                 span(1, "graph.diameter", 0, 2.0, 2.5),
                 span(2, "core.cell", 0, 0.0, 2.0),
                 span(3, "sim.run", 2, 0.1, 1.9)]
        counts = {"sim.events": 100.0, "sim.queue_high_water": 7.0}
        m = run.layer_metrics(spans, counts, {"wall": 3.5, "cpu": 3.4},
                              {"ref_s": 0.4, "steal_pct": 0.1}, 0,
                              {"allocated_words": 1024.0 * 1024.0})
        self.check(m, self.layer)
        self.assertEqual(m["gc.allocated_mb"][0], 8.0)
        self.assertAlmostEqual(m["trace.overhead_s"][0], -0.5)
        self.assertAlmostEqual(m["sim.events_per_busy_s"][0], 100 / 1.8)

    def test_workload_names(self):
        import json
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
