"""Self-tests of the benchmark harness: python3 bench/test_bench.py"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import SHAPES, Problem, determinant, problem  # noqa: E402


def inputs(workload, seed):
    return [problem(workload, seed, i).argv for i in range(2 * len(SHAPES[workload]))]


class FakeCli:
    """Stands in for dcrit.cli: prints a fixed report, or raises."""

    def __init__(self, stdout="", code=0, exc=None):
        self.stdout, self.code, self.exc = stdout, code, exc

    def main(self, argv):
        if self.exc:
            raise self.exc
        print(self.stdout, end="")
        return self.code


def crit_report(milnor, hilbert):
    return json.dumps({"command": "crit", "inputs": {}, "version": "0.1.0",
                       "results": {"milnor": milnor, "hilbert": hilbert,
                                   "pairing": {"symmetric": True},
                                   "obstruction": {"quotient_dim": milnor}}})


X3Y3 = Problem("crit-a", ("crit",), {"exponents": [3, 3], "weights": [1, 1], "cutoff": 3})
X3Y3_ROWS = {"0": [1, 2, 1, 0], "-1": [0, 0, 0, 0], "-2": [0, 0, 0, 0]}


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in SHAPES:
            self.assertEqual(inputs(workload, 7), inputs(workload, 7))

    def test_other_seed_other_inputs(self):
        for workload in SHAPES:
            self.assertNotEqual(inputs(workload, 7), inputs(workload, 8))

    def test_determinant(self):
        self.assertEqual(determinant([[2, 1], [4, 2]]), 0)
        self.assertEqual(determinant([[0, 1, 0], [1, 0, 0], [0, 0, 3]]), -3)


class Oracles(unittest.TestCase):
    def test_x3_plus_y3_has_milnor_number_4(self):
        self.assertEqual(oracles.verify(X3Y3, 0, crit_report(4, X3Y3_ROWS)), [])
        self.assertTrue(oracles.verify(X3Y3, 0, crit_report(5, X3Y3_ROWS)))

    def test_x2_y_slices(self):
        # (x^2, y): H^0 = Q[x,y]/(x^2, y) has Hilbert series 1 + t
        self.assertEqual(oracles.series([2, 1], [1, 1], 5), [1, 1, 0, 0, 0, 0])
        zero = Problem("zero-regular", ("zero",),
                       {"n": 2, "degrees": [2, 1], "common": 0, "cutoff": 3})
        report = {"command": "zero", "results": {
            "checks": [{"name": "d_squared", "status": "pass"}], "h0_dimension": 2,
            "hilbert": {"0": [1, 1, 0, 0], "-1": [0, 0, 0, 0], "-2": [0, 0, 0, 0]}}}
        self.assertEqual(oracles.verify(zero, 0, json.dumps(report)), [])
        report["results"]["hilbert"]["-1"][2] = 1
        self.assertTrue(oracles.verify(zero, 0, json.dumps(report)))

    def test_common_factor_section(self):
        # x*(x, y): H^0 = Q[x,y]/(x^2, xy) and H^-1 is spanned by y*e1 - x*e2 (weight 3)
        zero = Problem("zero-common", ("zero",),
                       {"n": 2, "degrees": [1, 1], "common": 1, "cutoff": 4})
        report = {"command": "zero", "results": {
            "checks": [{"name": "d_squared", "status": "pass"}], "h0_dimension": "infinite",
            "hilbert": {"0": [1, 2, 1, 1, 1], "-1": [0, 0, 0, 1, 1], "-2": [0, 0, 0, 0, 0]}}}
        self.assertEqual(oracles.verify(zero, 0, json.dumps(report)), [])
        report["results"]["hilbert"]["-1"] = [0] * 5
        self.assertTrue(oracles.verify(zero, 0, json.dumps(report)))


class CorruptReports(unittest.TestCase):
    def count_failures(self, cli):
        p = run.Pass()
        p.run(cli, 0, X3Y3)
        return len(p.failures)

    def test_good_report_passes(self):
        self.assertEqual(self.count_failures(FakeCli(crit_report(4, X3Y3_ROWS))), 0)

    def test_corrupted_reports_are_failures_not_crashes(self):
        good = crit_report(4, X3Y3_ROWS)
        for cli in (FakeCli(good[: len(good) // 2]),                  # truncated JSON
                    FakeCli(good.replace('"milnor": 4', '"milnor": 3')),  # wrong answer
                    FakeCli(good.replace('"hilbert"', '"hilb"')),      # missing key
                    FakeCli(crit_report(4, {"0": [1, 2], "-1": None})),  # bad rows
                    FakeCli(good, code=1),                             # unexpected exit code
                    FakeCli(exc=RuntimeError("boom"))):                # raised
            self.assertEqual(self.count_failures(cli), 1)


class SelfTime(unittest.TestCase):
    def test_nested_trace(self):
        # main [0, 10] > a [1, 4] > b [2, 3];  main > a [5, 6]
        names = ["main", "a", "b", "a"]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 6.0]
        parents = [-1, 0, 1, 0]
        got = spans.self_times(names, starts, ends, parents)
        self.assertEqual(got, {"main": (1, 6.0), "a": (2, 3.0), "b": (1, 1.0)})


class Tracing(unittest.TestCase):
    def test_tracing_changes_no_output_and_is_removed(self):
        cli = run.import_dcrit()
        core = [problem("koszul-slices", 0, i) for i in range(3)]
        plain, traced = run.Pass(), run.Pass()
        for i, prob in enumerate(core):
            plain.run(cli, i, prob)
        original = cli.main
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.main, original)
            for i, prob in enumerate(core):
                traced.run(cli, i, prob)
        finally:
            tracer.uninstall()
        self.assertIs(cli.main, original)
        self.assertEqual(plain.digest.hexdigest(), traced.digest.hexdigest())
        self.assertEqual(plain.failures + traced.failures, [])
        layers = tracer.layers(since=0)
        self.assertEqual(layers["cli.main"][0], 3)
        self.assertIn("cohomology.hilbert_table", layers)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_run_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(SHAPES))


if __name__ == "__main__":
    unittest.main()
