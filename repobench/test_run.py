"""Self-tests of run.py's result-schema check (python3 repobench/run.py
--self-test runs them together with trace_test)."""

import json
import unittest
from pathlib import Path

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def good_result(trace):
    expected = run.expected_metrics(SPEC, trace)
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u}
                        for n, u in expected.items()}}


class ValidateResultTest(unittest.TestCase):
    def check(self, result, trace=0):
        return run.validate_result(result,
                                   run.expected_metrics(SPEC, trace))

    def test_accepts_both_modes(self):
        self.assertEqual(self.check(good_result(0), 0), [])
        self.assertEqual(self.check(good_result(1), 1), [])

    def test_modes_use_disjoint_metric_lists(self):
        self.assertNotEqual(self.check(good_result(0), 1), [])
        self.assertNotEqual(self.check(good_result(1), 0), [])

    def test_rejects_extra_top_level_key(self):
        result = good_result(0)
        result["note"] = "x"
        self.assertNotEqual(self.check(result), [])

    def test_rejects_missing_metric(self):
        result = good_result(0)
        result["metrics"].pop("setup_s")
        self.assertTrue(any("setup_s" in p for p in self.check(result)))

    def test_rejects_wrong_unit(self):
        result = good_result(0)
        result["metrics"]["qps"]["unit"] = "ms"
        self.assertTrue(any("qps" in p for p in self.check(result)))

    def test_rejects_non_finite_or_missing_value(self):
        for bad in (None, float("nan"), float("inf"), "1.0", True):
            result = good_result(0)
            result["metrics"]["qps"]["value"] = bad
            self.assertNotEqual(self.check(result), [], bad)

    def test_rejects_bad_counts(self):
        for key, bad in (("attempted", 0), ("attempted", 1.5),
                         ("failed", -1), ("failed", True)):
            result = good_result(0)
            result[key] = bad
            self.assertNotEqual(self.check(result), [], (key, bad))

    def test_rejects_non_boolean_correct(self):
        result = good_result(0)
        result["correct"] = 1
        self.assertNotEqual(self.check(result), [])

    def test_spec_has_setup_metric(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
