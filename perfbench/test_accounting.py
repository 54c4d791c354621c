"""Self-tests for the benchmark's accounting (perfbench/accounting.py).

    python3 perfbench/test_accounting.py
"""

import json
import math
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import accounting as acc  # noqa: E402


def rec(phase="O", conn=0, idx=0, code="w", status=acc.OK, due=0, sent=0,
        recv=0, decoded=0, nbytes=10, row="-"):
    return acc.Record(phase, conn, idx, code, status, due, sent, recv,
                      decoded, nbytes, row)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 101))  # 100 samples
        self.assertEqual(acc.percentile(values, 0.90), 90)
        self.assertIsNone(acc.percentile(values[:99], 0.90))
        self.assertEqual(acc.percentile(list(range(1, 1001)), 0.99), 990)
        self.assertIsNone(acc.percentile(list(range(1, 1000)), 0.99))

    def test_median_needs_no_tail_rule_beyond_ten(self):
        self.assertEqual(acc.percentile(list(range(1, 21)), 0.5), 10)
        self.assertIsNone(acc.percentile([1, 2, 3], 0.5))
        self.assertEqual(acc.median([3, 1, 2]), 2)
        self.assertIsNone(acc.median([]))

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000, 0, -1)]
        self.assertEqual(acc.percentile(values, 0.99), 990.0)


class FailureTest(unittest.TestCase):
    def test_failures_are_infinite_latency(self):
        records = [rec(due=0, recv=1000 * (i + 1)) for i in range(95)]
        records += [rec(status=s) for s in
                    (acc.ERR, acc.BUSY, acc.TIMEOUT, acc.BROKEN, acc.BUSY)]
        lat = acc.due_latencies_us(records, ("w",))
        self.assertEqual(len(lat), 100)
        self.assertEqual(sum(1 for v in lat if math.isinf(v)), 5)
        # 5% failed: p90 is still a real latency, any tail past 95% is not.
        self.assertEqual(acc.percentile(lat, 0.90), 90.0)
        self.assertEqual(acc.failures(records), 5)

    def test_enough_failures_make_the_tail_infinite(self):
        records = [rec(due=0, recv=1000) for _ in range(980)]
        records += [rec(status=acc.BUSY) for _ in range(20)]
        lat = acc.due_latencies_us(records, ("w",))
        self.assertTrue(math.isinf(acc.percentile(lat, 0.99)))
        self.assertEqual(acc.percentile(lat, 0.5), 1.0)

    def test_failures_outside_measured_phases_not_counted(self):
        records = [rec(phase="W", status=acc.ERR), rec(phase="C",
                                                       status=acc.BUSY)]
        self.assertEqual(acc.failures(records), 1)


class DueTimeTest(unittest.TestCase):
    def test_latency_runs_from_due_not_send(self):
        # Due at 0, sent 5 ms late, answered 1 ms after sending.
        r = rec(due=0, sent=5_000_000, recv=6_000_000)
        self.assertEqual(acc.due_latencies_us([r], ("w",)), [6000.0])
        self.assertEqual(acc.generator_lags_us([r]), [5000.0])

    def test_only_open_loop_requests_and_requested_kinds(self):
        records = [rec(phase="C", due=0, recv=1000),
                   rec(code="d", due=0, recv=2000),
                   rec(code="w", due=100, recv=1100)]
        self.assertEqual(acc.due_latencies_us(records, ("w",)), [1.0])
        self.assertEqual(acc.due_latencies_us(records, ("w", "d")),
                         [2.0, 1.0])


class QpsTest(unittest.TestCase):
    def test_counts_only_inside_window(self):
        win0, win1 = 1_000_000_000, 3_000_000_000
        records = [rec(phase="C", recv=t) for t in
                   (999_999_999, 1_000_000_000, 2_000_000_000,
                    2_999_999_999, 3_000_000_000)]
        records.append(rec(phase="C", status=acc.ERR, recv=2_000_000_000))
        records.append(rec(phase="O", recv=2_000_000_000))
        self.assertEqual(acc.closed_loop_rates(records, win0, win1), [1.5])
        self.assertEqual(acc.closed_loop_rates(records, win1, win0), [])

    def test_slices_isolate_a_stall(self):
        # 10 s at 1000/s, except second 4, which completed nothing.
        records = [rec(phase="C", recv=i * 1_000_000) for i in range(10_000)
                   if not 4000 <= i < 5000]
        rates = acc.closed_loop_rates(records, 0, 10_000_000_000,
                                      per_slice=500)
        self.assertEqual(len(rates), 10)
        self.assertEqual(sorted(rates)[1:], [1000.0] * 9)
        self.assertEqual(statistics.median(rates), 1000.0)
        # Too few completions to slice: the plain rate.
        self.assertEqual(acc.closed_loop_rates(records, 0, 10_000_000_000,
                                               per_slice=5000), [900.0])


class UpdateModelTest(unittest.TestCase):
    STREAM = [
        "INSERT 7 0 0 1 1",   # conn 0: new -> 1
        "INSERT 8 0 0 1 1",   # conn 1: new -> 1
        "INSERT 7 0 0 1 1",   # conn 0: duplicate -> 0
        "DELETE 8 0 0 1 1",   # conn 1: live -> 1
        "DELETE 9 0 0 1 1",   # conn 0: never inserted -> 0
        "DELETE 8 0 0 1 1",   # conn 1: already deleted -> 0
    ]

    def records(self, rows):
        return [rec(conn=i % 2, idx=i, code=s[0].lower().replace("d", "x"),
                    row=r) for i, (s, r) in enumerate(zip(self.STREAM, rows))]

    def test_expected_replies(self):
        model = acc.UpdateModel()
        self.assertEqual(model.check(self.records("110100"), self.STREAM), 0)
        self.assertEqual(model.live, {7: (0.0, 0.0, 1.0, 1.0)})

    def test_wrong_reply_detected(self):
        model = acc.UpdateModel()
        self.assertEqual(model.check(self.records("111100"), self.STREAM), 1)

    def test_failed_update_is_a_disagreement(self):
        records = self.records("110100")
        records[0] = records[0]._replace(status=acc.BUSY, row="-")
        self.assertGreaterEqual(acc.UpdateModel().check(records, self.STREAM),
                                1)

    def test_reads_are_ignored(self):
        stream = ["SELECT WINDOW 0 0 1 1"]
        self.assertEqual(acc.UpdateModel().check([rec()], stream), 0)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = acc.parse_spans(
            "1 net.request - 0 10000\n"
            "1 net.parse net.request 0 1000\n"
            "1 net.eval net.request 1000 8000\n"
            "1 net.encode net.request 8000 10000\n"
            "1 core.knn net.eval 20000 25000\n"
            "2 net.eval - 0 3000\n")
        self_us = acc.self_times_us(spans)
        self.assertEqual(self_us["net.request"], [0.0])
        self.assertEqual(sorted(self_us["net.eval"]), [2.0, 3.0])
        self.assertEqual(self_us["core.knn"], [5.0])
        self.assertEqual(acc.durations_us(spans)["net.encode"], [2.0])


class RecordFormatTest(unittest.TestCase):
    def test_parse(self):
        header, records = acc.parse_records(
            "# mode=run win0=5 win1=9 rate=100\n"
            "O 2 17 i 0 100 110 300 0 6 1\n"
            "garbage\n")
        self.assertEqual(header["win1"], "9")
        self.assertEqual(records, [acc.Record("O", 2, 17, "i", 0, 100, 110,
                                              300, 0, 6, "1")])


class LayerMapTest(unittest.TestCase):
    """config.json's layer map names only what BENCHMARK.json reports."""

    def test_layer_map_matches_benchmark_json(self):
        bench = json.load(open(os.path.join(HERE, os.pardir,
                                            "BENCHMARK.json")))
        config = json.load(open(os.path.join(HERE, "config.json")))
        gated = {m["name"] for m in bench["end_to_end"]}
        workloads = {w["name"] for w in bench["workloads"]}
        self.assertEqual(set(config["workloads"]), workloads)
        self.assertEqual(set(config["layers"]),
                         {m["name"] for m in bench["per_layer"]})
        for name, target in config["layers"].items():
            self.assertLessEqual(set(target["moves"]), gated, name)
            self.assertFalse(set(target.get("diagnostics", [])) & gated, name)
            self.assertTrue(target["moves"] or target.get("diagnostics"),
                            name)
            self.assertLessEqual(set(target["on"]), workloads, name)


if __name__ == "__main__":
    unittest.main()
