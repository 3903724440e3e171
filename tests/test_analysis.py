"""``analyze`` against a hand-written pipeline, and the demos' golden output."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

from ctlab import Analysis, analyze
from ctlab.backend import PROFILES, lower
from ctlab.corpus import load_program, names
from ctlab.ir import print_ir
from ctlab.leaks import compare_traces
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline
from ctlab.tracer import execute, gen_inputs

ROOT = Path(__file__).resolve().parent.parent


def reference_report(low, spec, inputs: int, seed: int):
    """The tracing half of the analysis, spelled out."""
    iset = gen_inputs(low, count=inputs, seed=seed)
    traces = [execute(low, args) for args in iset.arg_dicts()]
    report = compare_traces(traces, low.function().id_to_loc(), spec.digest())
    return report, len(iset)


def test_analyze_matches_hand_written_pipeline():
    """Every preset x corpus program at seeds 0 and 3, plus fig1b_load at
    512 inputs, which its 8-bit secret caps at 256."""
    for preset_name, p in PRESETS.items():
        spec = p.spec
        for program in names():
            prog = load_program(program)
            text = print_ir(prog)
            mid, pass_log = run_pipeline(prog, spec)
            low, lower_log = lower(mid, PROFILES[spec.backend],
                                   spec.cmov_conversion)
            cases = [(16, 0), (16, 3)]
            if program == "fig1b_load":
                cases.append((512, 0))
            for inputs, seed in cases:
                where = (program, preset_name, inputs, seed)
                got = analyze(prog, spec, inputs, seed)
                report, count = reference_report(low, spec, inputs, seed)
                assert isinstance(got, Analysis)
                # Findings compare with their witnesses.
                assert got.report.findings == report.findings, where
                assert got.report.program == report.program, where
                assert got.report.pipeline == spec.digest(), where
                assert got.report.seed == seed, where
                assert got.report.inputs == count, where
                assert print_ir(got.midend) == print_ir(mid), where
                assert print_ir(got.lowered) == print_ir(low), where
                assert got.pass_log == pass_log, where
                assert got.lower_log == lower_log, where
                assert print_ir(prog) == text, where     # input untouched
            if program == "fig1b_load":
                assert count == 256


@pytest.mark.parametrize("demo", ["01_break_a_ct_select",
                                  "02_pass_interactions",
                                  "03_mitigation_flags"])
def test_demo_output_is_unchanged(demo, capsys):
    runpy.run_path(str(ROOT / "demos" / f"{demo}.py"), run_name="__main__")
    golden = (ROOT / "tests" / "golden" / f"{demo}.out").read_text(
        encoding="utf-8")
    assert capsys.readouterr().out == golden
