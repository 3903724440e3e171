"""Acceptance gate: the headline behaviors, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

from __future__ import annotations

from ctlab import analysis
from ctlab.cli import _CANONICAL_ROWS, _CANONICAL_VARY
from ctlab.corpus import entries, load_program, names
from ctlab.ir import parse_ir, print_ir
from ctlab.leaks import CONTROL_FLOW, compare_traces
from ctlab.mitigations import PRESETS, emit_real_flags, preset
from ctlab.tracer import execute, gen_inputs


def verdict(n: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name})"


def analyze(program: str, spec):
    """One analysis of a corpus entry; returns (report, lower log)."""
    result = analysis.analyze(load_program(program), spec)
    return result.report, result.lower_log


def matrix_verdicts(program: str) -> list[bool]:
    base = preset("llvm18-O3").spec
    out = []
    for row in _CANONICAL_ROWS:
        spec = base.with_toggles(**dict(zip(_CANONICAL_VARY, row)))
        report, _ = analyze(program, spec)
        out.append(report.is_clean)
    return out


CT_ENTRIES = [e.name for e in entries() if e.ct_expected]


def test_1_interaction_matrix_ecdsa():
    got = matrix_verdicts("ecdsa_bearssl_lookup")
    want = [False, True, False, False, True, True, True]
    verdict(1, "interaction-matrix-ecdsa", got == want)


def test_2_interaction_matrix_rsa():
    got = matrix_verdicts("rsa_bearssl_lookup")
    want = [False, False, False, False, False, True, True]
    verdict(2, "interaction-matrix-rsa", got == want)


def test_3_gcc_toy_behavior():
    toys = ["jump_threading_toy", "loop_unswitch_toy", "path_splitting_toy"]

    def cf_leaks(preset_name, program):
        report, _ = analyze(program, preset(preset_name).spec)
        return any(f.kind == CONTROL_FLOW for f in report.findings)

    at_o3 = all(cf_leaks("gcc13-O3", t) for t in toys)
    at_os = [t for t in toys if cf_leaks("gcc13-Os", t)]
    verdict(3, "gcc-toy-behavior",
            at_o3 and at_os == ["jump_threading_toy"])


def test_4_cmov_availability():
    x64_no_conversion = [
        name for name, p in PRESETS.items()
        if p.spec.backend == "x86-64" and not p.spec.cmov_conversion
    ]
    ok = len(x64_no_conversion) >= 5
    for name in x64_no_conversion:
        report, _ = analyze("fig1c_ctselect", preset(name).spec)
        ok = ok and report.is_clean
    report, _ = analyze("fig1c_ctselect", preset("i386-O3").spec)
    ok = ok and not report.is_clean
    verdict(4, "cmov-availability", ok)


def test_5_poly_frommsg_pathway():
    report, llog = analyze("poly_frommsg", preset("toy-novec-nounroll").spec)
    created_by_lowering = {i for e in llog for i in e.created}
    ok = (len(report.findings) == 1
          and report.findings[0].kind == CONTROL_FLOW
          and report.findings[0].instr in created_by_lowering)
    verdict(5, "poly-frommsg-pathway", ok)


def test_6_mitigation_completeness():
    ok = True
    for preset_name in ("llvm18-O3-mitig", "gcc13-O3-mitig"):
        for name in CT_ENTRIES:
            report, _ = analyze(name, preset(preset_name).spec)
            ok = ok and report.is_clean
    for name in CT_ENTRIES:
        report, _ = analyze(name, preset("llvm18-O3-mitig+vect").spec)
        if name == "rsa_bearssl_lookup":
            ok = ok and not report.is_clean
        else:
            ok = ok and report.is_clean
    verdict(6, "mitigation-completeness", ok)


def test_7_non_ct_invariance():
    ok = True
    for preset_name in PRESETS:
        for name in ("fig1a_branch", "fig1b_load"):
            report, _ = analyze(name, preset(preset_name).spec)
            ok = ok and len(report.findings) >= 1
    verdict(7, "non-ct-invariance", ok)


def test_8_unrolling_metric():
    base = preset("llvm18-O3").spec.with_toggles(loop_unroll=False)
    rolled, _ = analyze("rsa_bearssl_lookup", base)
    unrolled, _ = analyze("rsa_bearssl_lookup",
                          base.with_toggles(loop_unroll=True))
    ok = (not rolled.is_clean and not unrolled.is_clean
          and unrolled.vulnerable_instructions > rolled.vulnerable_instructions
          and unrolled.lines() == rolled.lines())
    verdict(8, "unrolling-metric", ok)


def test_9_property_suites():
    ok = True

    # semantic preservation: every preset on every corpus program
    for preset_name, p in PRESETS.items():
        for name in names():
            base = load_program(name)
            low = analysis.analyze(base, p.spec, inputs=2).lowered
            for args in gen_inputs(base, count=64, seed=7).arg_dicts():
                want = execute(base, args)
                got = execute(low, args)
                ok = ok and got.result == want.result and got.memory == want.memory

    # zero-secret soundness: identical inputs give identical traces
    for name in names():
        prog = load_program(name)
        args = gen_inputs(prog, count=1, seed=11).arg_dicts()[0]
        ok = ok and execute(prog, args).events == execute(prog, args).events

    # sampled-16 vs exhaustive agreement on small secret domains
    for name in names():
        prog = load_program(name)
        bits = sum(p.bits for p in prog.function().params if p.is_secret)
        if bits > 8:
            continue
        loc = prog.function().id_to_loc()

        def keys(count):
            iset = gen_inputs(prog, count=count, seed=0)
            traces = [execute(prog, a) for a in iset.arg_dicts()]
            rep = compare_traces(traces, loc)
            return {(f.instr, f.kind) for f in rep.findings}

        ok = ok and keys(16) == keys(1 << bits)

    # parse/print round-trip on every corpus program
    for name in names():
        text = print_ir(load_program(name))
        ok = ok and print_ir(parse_ir(text)) == text

    # golden flag strings
    ok = ok and emit_real_flags("llvm") == [
        "-mllvm", "--x86-cmov-converter=false",
        "-mllvm", "--disable-cgp-select2branch=true",
        "-mllvm", "--unswitch-threshold=1", "-fno-vectorize"]
    ok = ok and emit_real_flags("llvm", keep_vectorize=True) == [
        "-mllvm", "--x86-cmov-converter=false",
        "-mllvm", "--disable-cgp-select2branch=true",
        "-mllvm", "--unswitch-threshold=1"]
    ok = ok and emit_real_flags("gcc") == [
        "-fno-unswitch-loops", "-fno-thread-jumps", "-fno-split-paths"]
    ok = ok and emit_real_flags("llvm", mitig=False) == []

    verdict(9, "property-suites", ok)
