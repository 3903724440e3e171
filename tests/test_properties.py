"""Cross-cutting invariants, checked over the corpus with hypothesis."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from ctlab.analysis import analyze
from ctlab.corpus import load_program, names
from ctlab.ir import parse_ir, print_ir
from ctlab.leaks import compare_traces
from ctlab.mitigations import PRESETS, preset
from ctlab.tracer import execute, gen_inputs

SETTLE = settings(max_examples=25, deadline=None)

PRESET_NAMES = sorted(PRESETS)


def secret_bits(prog) -> int:
    return sum(p.bits for p in prog.function().params if p.is_secret)


SMALL_SECRET = [n for n in names() if secret_bits(load_program(n)) <= 8]


def run(program_name: str, preset_name: str):
    """One analysis; two inputs are the fewest the leak check takes, and
    callers only look at the programs."""
    spec = preset(preset_name).spec
    return analyze(load_program(program_name), spec, inputs=2)


def build(program_name: str, preset_name: str):
    return run(program_name, preset_name).lowered


@SETTLE
@given(st.sampled_from(PRESET_NAMES), st.sampled_from(names()),
       st.integers(0, 2**32 - 1))
def test_pipelines_preserve_semantics(preset_name, program_name, seed):
    """Optimized code must compute what the original computed."""
    base = load_program(program_name)
    low = build(program_name, preset_name)
    for args in gen_inputs(base, count=4, seed=seed).arg_dicts():
        want = execute(base, args)
        got = execute(low, args)
        assert got.result == want.result
        assert got.memory == want.memory


@SETTLE
@given(st.sampled_from(names()), st.integers(0, 2**32 - 1))
def test_identical_inputs_never_flagged(program_name, seed):
    """The checker cannot invent a leak: same input, same trace."""
    prog = build(program_name, "llvm18-O3")
    args = gen_inputs(prog, count=1, seed=seed).arg_dicts()[0]
    a = execute(prog, args)
    b = execute(prog, args)
    assert a.events == b.events


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(SMALL_SECRET),
       st.sampled_from(["baseline-off", "llvm18-O3", "gcc13-O3", "i386-O3"]),
       st.integers(0, 999))
def test_sampling_is_sound(program_name, preset_name, seed):
    """Findings from a sampled input set are a subset of the findings from
    exhaustively enumerating the (small) secret domain."""
    low = build(program_name, preset_name)
    id_to_loc = low.function().id_to_loc()

    def finding_keys(count, use_seed):
        iset = gen_inputs(low, count=count, seed=use_seed)
        traces = [execute(low, a) for a in iset.arg_dicts()]
        if len(traces) < 2:
            return set()
        rep = compare_traces(traces, id_to_loc)
        return {(f.instr, f.kind) for f in rep.findings}

    bits = secret_bits(low)
    sampled = finding_keys(count=6, use_seed=seed)
    exhaustive = finding_keys(count=1 << bits, use_seed=0)
    assert sampled <= exhaustive


@SETTLE
@given(st.sampled_from(PRESET_NAMES), st.sampled_from(names()))
def test_printed_ir_round_trips(preset_name, program_name):
    """print -> parse -> print is a fixpoint, for source and optimized IR."""
    result = run(program_name, preset_name)
    for prog in (result.midend, result.lowered):
        text = print_ir(prog)
        assert print_ir(parse_ir(text)) == text


@SETTLE
@given(st.sampled_from(PRESET_NAMES), st.sampled_from(names()))
def test_locations_never_invented(preset_name, program_name):
    """Every surviving instruction points at an original source line."""
    def locs(prog):
        return {(i.loc.file, i.loc.line)
                for f in prog.functions.values() for i in f.instructions()}

    base = load_program(program_name)
    result = run(program_name, preset_name)
    assert locs(result.midend) <= locs(base)
    assert locs(result.lowered) <= locs(base)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(names()), st.integers(0, 2**32 - 1),
       st.integers(2, 12))
def test_gen_inputs_rows_distinct_and_reproducible(program_name, seed, count):
    prog = load_program(program_name)
    a = gen_inputs(prog, count=count, seed=seed)
    b = gen_inputs(prog, count=count, seed=seed)
    assert a.secret_values == b.secret_values
    keys = [tuple(sorted(r.items())) for r in a.secret_values]
    assert len(set(keys)) == len(keys)
    bits = secret_bits(prog)
    cap = count if bits > 62 else min(count, 1 << bits)
    assert len(a.secret_values) == cap


def test_verdicts_insensitive_to_input_order():
    """compare_traces findings do not depend on trace order."""
    low = build("jump_threading_toy", "gcc13-O3")
    id_to_loc = low.function().id_to_loc()
    args = gen_inputs(low, count=16, seed=0).arg_dicts()
    traces = [execute(low, a) for a in args]
    fwd = compare_traces(traces, id_to_loc)
    rev = compare_traces(list(reversed(traces)), id_to_loc)
    assert {(f.instr, f.kind) for f in fwd.findings} == \
        {(f.instr, f.kind) for f in rev.findings}
