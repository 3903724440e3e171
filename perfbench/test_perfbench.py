"""The benchmark's own tests, standard library only.

    python3 perfbench/test_perfbench.py

The last test runs every workload twice (about three minutes).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ctlab.cli  # noqa: E402
from ctlab import corpus, mitigations  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def traced(fn, *args):
    """Run ``fn`` with every target wrapped; returns (result, trace)."""
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        result = fn(*args)
    finally:
        spans.uninstall(undo)
    return result, rec.export()


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in BENCHMARK[key]] + [w["name"] for w in BENCHMARK["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_traced_run_reports_exactly_the_per_layer_metrics(self):
        analysis = workloads.Analysis("fig1d_ctlookup", "llvm18-O3", 4)
        _, trace = traced(workloads.run_analysis, analysis, 0)
        metrics = run.layer_metrics([(trace, 1.0)], [0.1], 1.0, 1.0)
        self.assertEqual(set(metrics), {m["name"] for m in BENCHMARK["per_layer"]})
        for name, (value, unit) in metrics.items():
            self.assertIsInstance(value, (int, float), name)


class KnownAnswers(unittest.TestCase):
    def test_every_corpus_flag_is_a_known_answer(self):
        off = mitigations.preset("baseline-off").spec.digest()
        for entry in corpus.entries():
            answer, _ = workloads.KNOWN[(entry.name, off)]
            self.assertEqual(answer, "clean" if entry.ct_expected else "leaky",
                             entry.name)

    def test_sweep_covers_every_program_and_preset(self):
        self.assertEqual(set(workloads.PROGRAMS), set(corpus.names()))
        self.assertEqual(set(workloads.PRESETS), set(mitigations.PRESETS))

    def test_matrix_rows_are_the_canonical_study(self):
        self.assertEqual(workloads.MATRIX["vary"], list(ctlab.cli._CANONICAL_VARY))
        self.assertEqual([tuple(r) for r in workloads.MATRIX["rows"]],
                         ctlab.cli._CANONICAL_ROWS)


class Spans(unittest.TestCase):
    def check_trace(self, trace):
        spans_ = trace["spans"]
        self.assertTrue(spans_)
        for group, layer, start, end, parent, thread in spans_:
            self.assertLessEqual(start, end)
            if parent is not None:
                p = spans_[parent]
                self.assertEqual(p[5], thread, "a child runs in its parent's thread")
                self.assertLessEqual(p[2], start, f"{group} starts inside {p[0]}")
                self.assertLessEqual(end, p[3], f"{group} ends inside {p[0]}")
        summary = spans.account(trace)
        for layer, value in summary["self"].items():
            self.assertGreaterEqual(value, -1e-9, layer)
        # Self times add up to the wall time the top-level spans cover.
        self.assertAlmostEqual(sum(summary["self"].values()), summary["covered"],
                               delta=1e-6 * max(1.0, summary["covered"]))

    def test_in_process_spans_nest_and_add_up(self):
        analysis = workloads.Analysis("loop_unswitch_toy", "gcc13-O3", 8)
        _, trace = traced(workloads.run_analysis, analysis, 0)
        self.check_trace(trace)
        groups = {s[0] for s in trace["spans"]}
        self.assertLessEqual({"passes.run_pipeline", "passes.cleanup",
                              "passes.loop_unswitch", "backend.lower",
                              "tracer.execute", "leaks.compare"}, groups)

    def test_thread_pool_spans_add_up(self):
        def matrix():
            with contextlib.redirect_stdout(io.StringIO()):
                return ctlab.cli.main(["matrix", "fig1d_ctlookup", "--inputs", "4"])

        _, trace = traced(matrix)
        self.assertTrue(any(s[5] != trace["main_thread"] for s in trace["spans"]))
        self.check_trace(trace)

    def test_uninstall_restores_every_name(self):
        before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if name.startswith("ctlab")}
        traced(lambda: None)
        after = {name: dict(vars(sys.modules[name])) for name in before}
        self.assertEqual(before, after)


class Workloads(unittest.TestCase):
    def run_bench(self, workload, trace, hashseed):
        env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        info, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
        return info, result

    def test_every_workload_is_correct_and_deterministic(self):
        e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
        layers = {m["name"] for m in BENCHMARK["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                info0, plain = self.run_bench(workload, 0, hashseed=0)
                info1, trace = self.run_bench(workload, 1, hashseed=1)
                for result in (plain, trace):
                    self.assertTrue(result["correct"], info0["failures"]
                                    + info1["failures"])
                    self.assertEqual(result["failed"], 0)
                self.assertEqual(set(plain["metrics"]), e2e)
                self.assertEqual(set(trace["metrics"]), layers)
                self.assertEqual(info0["digest"], info1["digest"],
                                 "reports differ between PYTHONHASHSEED 0 and 1")


if __name__ == "__main__":
    unittest.main()
