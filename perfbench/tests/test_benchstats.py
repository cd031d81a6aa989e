"""Self-tests of the benchmark's statistics and output checks.

Run: python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import benchstats  # noqa: E402
import run  # noqa: E402


class TailTest(unittest.TestCase):
    def test_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = benchstats.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(1 for v in values if v > value), 10)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 3.0, 2.0] * 5  # 25 samples
        value, pct, n = benchstats.tail(values)
        self.assertEqual(n, 25)
        self.assertAlmostEqual(pct, 60.0)
        self.assertGreaterEqual(sum(1 for v in values if v > value), 10)
        # No higher sample keeps ten beyond it.
        self.assertLess(sum(1 for v in values if v > 4.0), 10)

    def test_too_few_samples_gives_maximum(self):
        self.assertEqual(benchstats.tail([3, 1, 2]), (3, 100.0, 3))
        self.assertEqual(benchstats.tail(list(range(10)))[0], 9)

    def test_eleven_samples(self):
        value, pct, n = benchstats.tail(list(range(11)))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.tail([])


class CalmPassesTest(unittest.TestCase):
    def test_all_calm(self):
        self.assertEqual(benchstats.calm_passes([0.0, 0.02, 0.1]), [0, 1, 2])

    def test_stolen_passes_left_out(self):
        self.assertEqual(benchstats.calm_passes([0.0, 0.3, 0.01, 0.5, 0.0]),
                         [0, 2, 4])

    def test_mostly_stolen_keeps_least_stolen_half(self):
        shares = [0.4, 0.2, 0.9, 0.3, 0.05]
        self.assertEqual(benchstats.calm_passes(shares), [1, 3, 4])

    def test_no_passes(self):
        self.assertEqual(benchstats.calm_passes([]), [])


class MedianGeomeanTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 3, 2]), 2.5)

    def test_geomean(self):
        self.assertAlmostEqual(benchstats.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(benchstats.geomean([2, 8, 4]), 4.0)
        # Small programs weigh as much as large ones.
        self.assertAlmostEqual(benchstats.geomean([0.5, 50.0]), 5.0)

    def test_geomean_rejects_non_positive(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with self.assertRaises(ValueError):
                benchstats.geomean(bad)


class FailureTest(unittest.TestCase):
    STDOUT = b"report\n--- exit code 3 ---\n"

    def test_match(self):
        ref = {"exit": 3, "stdout": self.STDOUT}
        self.assertIsNone(benchstats.check_output(3, self.STDOUT, ref))

    def test_unexpected_exit(self):
        ref = {"exit": 0, "stdout": self.STDOUT}
        self.assertIn("exit status 1", benchstats.check_output(1, self.STDOUT, ref))

    def test_signal(self):
        ref = {"exit": 0, "stdout": b""}
        self.assertIn("signal 11", benchstats.check_output(-11, b"", ref))

    def test_output_mismatch(self):
        ref = {"exit": 3, "stdout": self.STDOUT}
        self.assertIsNotNone(benchstats.check_output(3, b"other\n", ref))

    def test_stats_counts(self):
        out = (b"lines of code:            10\n"
               b"members in used classes:  1052\n"
               b"dead members:             84 (8.0%)\n")
        ok = {"exit": 0, "members": 1052, "dead": 84}
        self.assertIsNone(benchstats.check_output(0, out, ok))
        self.assertIn("dead", benchstats.check_output(
            0, out, {"exit": 0, "members": 1052, "dead": 85}))
        self.assertIn("members", benchstats.check_output(
            0, out, {"exit": 0, "members": 1, "dead": 84}))
        self.assertIsNone(benchstats.check_output(
            0, out, {"exit": 0, "members": None, "dead": 84}))
        self.assertIsNotNone(benchstats.check_output(
            0, b"no stats\n", {"exit": 0, "members": 1, "dead": 0}))

    def test_fail_ratio(self):
        self.assertEqual(benchstats.fail_ratio(200, 0), 0.0)
        self.assertEqual(benchstats.fail_ratio(200, 5), 0.025)
        with self.assertRaises(ValueError):
            benchstats.fail_ratio(0, 0)


class UnattributedTest(unittest.TestCase):
    def test_share(self):
        self.assertAlmostEqual(
            benchstats.unattributed_pct(1000.0, [600.0, 300.0, 80.0]), 2.0)
        self.assertEqual(benchstats.unattributed_pct(10.0, [10.0]), 0.0)

    def test_empty_pass(self):
        with self.assertRaises(ValueError):
            benchstats.unattributed_pct(0.0, [])


class DeclaredMetricsTest(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics run.py reports."""

    def test_matches_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                            "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(name, unit) for name, unit in run.END_TO_END])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [(name, unit) for name, unit in run.per_layer_names()])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for m in spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertEqual(spec["paths"], ["perfbench"])


if __name__ == "__main__":
    unittest.main()
