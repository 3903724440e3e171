"""``analyze`` against a hand-written pipeline, and the demos' golden output."""

from __future__ import annotations

import runpy
from functools import lru_cache
from pathlib import Path

import pytest

from ctlab import Analysis, analyze, backend, corpus, ir, tracer
from ctlab.backend import PROFILES, lower
from ctlab.corpus import load_program, names
from ctlab.ir import print_ir
from ctlab.leaks import compare_traces
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline
from ctlab.tracer import execute, gen_inputs
from conftest import count_draws, count_walks, start_cold

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


# ----------------------------------------------------------------------
# The memos, against cold runs


def shown(a: Analysis) -> tuple:
    """An analysis as text: both programs with ids, their next fresh ids,
    both logs and the report."""
    return (print_ir(a.midend), a.midend.function().next_id, repr(a.pass_log),
            print_ir(a.lowered), a.lowered.function().next_id,
            repr(a.lower_log), repr(a.report))


def test_warm_analyses_give_what_cold_ones_give():
    # The oracle: every corpus program under every preset at seeds 0, 1
    # and 7, run forwards and then in reverse on warm memos, gives what
    # each run gives from empty memos.
    runs = [(name, p.spec, seed) for seed in (0, 1, 7) for name in names()
            for p in PRESETS.values()]
    want = []
    for name, spec, seed in runs:
        start_cold()
        want.append(shown(analyze(load_program(name), spec, seed=seed)))
    for step in (1, -1):
        start_cold()
        got = [shown(analyze(load_program(name), spec, seed=seed))
               for name, spec, seed in runs[::step]]
        assert got == want[::step]


def test_a_repeated_sweep_keys_each_program_once_and_lowers_each_input_once(
        monkeypatch):
    # A frozen program builds its content key at most once; lowering runs
    # once per distinct (input, profile, cmov flag), and a second sweep
    # builds no key and lowers nothing.
    keyed, lowered = [], []
    real_key, real_lower = ir.program_key, backend._lower_function
    monkeypatch.setattr(ir, "program_key",
                        lambda prog: keyed.append(prog) or real_key(prog))
    monkeypatch.setattr(backend, "_lower_function", lambda *a: (
        lowered.append(a) or real_lower(*a)))

    def sweep():
        return [(a.midend, spec.backend, spec.cmov_conversion)
                for spec in (p.spec for p in PRESETS.values())
                for a in (analyze(load_program(name), spec)
                          for name in names())]

    start_cold()
    inputs = sweep()
    assert len({id(prog) for prog in keyed}) == len(keyed)
    distinct = {(print_ir(mid), mid.function().next_id, *rest)
                for mid, *rest in inputs}
    assert len(lowered) == len(distinct) < len(inputs)
    done = len(keyed), len(lowered)
    sweep()
    assert (len(keyed), len(lowered)) == done


def sweep_at(seed):
    for spec in (p.spec for p in PRESETS.values()):
        for name in names():
            analyze(load_program(name), spec, seed=seed)


def test_a_repeated_sweep_draws_each_input_set_once(monkeypatch):
    # The corpus programs keep their parameters under every preset, so a
    # sweep at one seed draws one input set per distinct declaration: 9,
    # since fig1a_branch and fig1c_ctselect declare the same parameters.
    # A second sweep draws none.
    for name in names():
        load_program(name)              # and its self-check
    draws = count_draws(monkeypatch)
    sweep_at(1)
    assert len(draws) == len(tracer._inputs) == 9
    sweep_at(1)
    assert len(draws) == 9


def test_a_cold_study_walks_each_program_once(monkeypatch):
    # The corpus checks an entry with the pipeline of no passes, so the
    # entry's first pipeline starts from that kept state: a fresh process
    # walks each corpus entry, pass output and lowering once.
    monkeypatch.setattr(corpus, "_CHECKED", set())
    monkeypatch.setattr(corpus, "_parsed", lru_cache(maxsize=None)(
        corpus._parsed.__wrapped__))    # parse anew, once per entry
    walks = count_walks(monkeypatch)
    sweep_at(0)
    assert len(walks) == len({*map(id, walks)}) == 89
