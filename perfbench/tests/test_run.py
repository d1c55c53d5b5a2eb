"""Tests of run.py's argument handling.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""
import importlib.util
import io
import unittest
from contextlib import redirect_stderr
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent.parent / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

GOOD = ["--workload", "cve-matrix", "--seed", "0", "--seconds", "10", "--trace", "0"]


def with_value(slot, value):
    argv = list(GOOD)
    argv[slot] = value
    return argv


class ParseArgs(unittest.TestCase):
    def test_accepts_the_contract_form(self):
        self.assertEqual(run.parse_args(GOOD),
                         {"workload": "cve-matrix", "seed": 0, "seconds": 10, "trace": "0"})
        self.assertEqual(run.parse_args(with_value(3, str(2**64 - 1)))["seed"], 2**64 - 1)

    def test_rejects_bad_input(self):
        cases = [
            [], ["--help"], GOOD + ["--jobs", "2"], GOOD + ["--seed"], GOOD[:6],
            with_value(6, "--seed"),
            with_value(1, "cve_matrix"), with_value(3, "-1"), with_value(3, "+1"),
            with_value(3, " 1"), with_value(3, "1_000"), with_value(3, "1e3"),
            with_value(3, str(2**64)), with_value(5, "0"), with_value(5, "601"),
            with_value(5, "ten"), with_value(7, "2"), with_value(7, "true"),
        ]
        for argv in cases:
            with self.subTest(argv=argv), self.assertRaises(run.UsageError):
                run.parse_args(argv)

    def test_usage_error_exits_2_before_building(self):
        with redirect_stderr(io.StringIO()) as err:
            self.assertEqual(run.main(["--help"]), 2)
        self.assertIn("usage:", err.getvalue())


class DeclaredResult(unittest.TestCase):
    DECLARED = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]

    def result(self, metrics):
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    def test_keeps_exactly_the_declared_metrics_in_order(self):
        got = run.declared_result(self.result({
            "b": {"value": 2, "unit": "count"}, "a_ms": {"value": 1.5, "unit": "ms"},
            "extra": {"value": 9, "unit": "s"}}), self.DECLARED, "0")
        self.assertEqual(list(got["metrics"]), ["a_ms", "b"])
        self.assertEqual(got["attempted"], 5)

    def test_bypassed_layer_reads_zero_only_when_traced(self):
        partial = self.result({"a_ms": {"value": 1.5, "unit": "ms"}})
        self.assertEqual(run.declared_result(partial, self.DECLARED, "1")["metrics"]["b"],
                         {"value": 0, "unit": "count"})
        with self.assertRaises(ValueError):
            run.declared_result(partial, self.DECLARED, "0")

    def test_unit_mismatch_is_an_error(self):
        with self.assertRaises(ValueError):
            run.declared_result(self.result({"a_ms": {"value": 1.5, "unit": "s"},
                                             "b": {"value": 2, "unit": "count"}}),
                                self.DECLARED, "1")


if __name__ == "__main__":
    unittest.main()
