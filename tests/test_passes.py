"""Pass pipeline: spec handling, cleanup, and each transform's shape.

``tests/golden/pipelines.txt`` pins what every corpus program becomes under
every preset.  After a deliberate change to what the passes produce,
regenerate it with ``PYTHONPATH=src python tests/test_passes.py`` and say
which lines changed and why.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest

from ctlab import analyze, ir, passes
from ctlab.backend import PROFILES, lower
from ctlab.cfg import natural_loops
from ctlab.corpus import load_program, names
from ctlab.ir import (BINARY_OPS, CMP_PREDS, IRError, Program, SourceLoc,
                      copy_program, parse_ir, print_ir, program_key,
                      validate)
from ctlab.mitigations import PRESETS
from ctlab.passes import (
    PASS_ORDER,
    InternalPassError,
    PassLogEntry,
    PipelineSpec,
    cleanup,
    run_pipeline,
)
from ctlab.tracer import execute, gen_inputs


def ops(func, label):
    return [i.opcode for i in func.block(label).instrs]


def pipe(prog, **toggles):
    knobs = {k: toggles.pop(k) for k in list(toggles)
             if k == "unswitch_threshold"}
    spec = PipelineSpec(toggles={k: True for k in toggles}, **knobs)
    return run_pipeline(prog, spec)


# ----------------------------------------------------------------------
# PipelineSpec


def test_spec_normalizes_toggles():
    spec = PipelineSpec(toggles={"slp": True})
    assert set(spec.toggles) == set(PASS_ORDER)
    assert spec.order == ["slp"]
    spec = PipelineSpec(toggles={"slp": True, "instcombine": True})
    assert spec.order == ["instcombine", "slp"]   # fixed order, not dict order


def test_spec_rejects_unknown_toggle_and_width():
    with pytest.raises(ValueError):
        PipelineSpec(toggles={"gvn": True})
    with pytest.raises(TypeError):              # fixed at 4 lanes
        PipelineSpec(vector_width=4)


def test_with_toggles():
    spec = PipelineSpec(toggles={"slp": True})
    flipped = spec.with_toggles(slp=False, loop_unroll=True, cmov_conversion=True)
    assert flipped.order == ["loop_unroll"]
    assert flipped.cmov_conversion
    assert spec.order == ["slp"]                  # original untouched
    with pytest.raises(ValueError):
        spec.with_toggles(licm=True)


def test_digest_tracks_configuration():
    a = PipelineSpec(toggles={"slp": True})
    b = PipelineSpec(toggles={"slp": True})
    c = b.with_toggles(slp=False)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 12
    int(a.digest(), 16)


# Report `pipeline` fields, known-answer keys and benchmark digests are
# built on these, so a change to what digest() hashes must not move them.
PRESET_DIGESTS = {
    "llvm18-O3": "03bc15baa116",
    "llvm18-Os": "b828cd05c0ed",
    "llvm18-O3-mitig": "063367b77169",
    "llvm18-O3-mitig+vect": "9afa3759ee4e",
    "gcc13-O3": "6b494996b4d0",
    "gcc13-Os": "fd7984102c82",
    "gcc13-O3-mitig": "5d4f9d68bf76",
    "baseline-off": "26c68ea2aaf2",
    "i386-O3": "eae1f0fb3d61",
    "toy-novec-nounroll": "7d1bbb6caf7c",
}


def test_preset_digests_are_stable():
    assert {name: p.spec.digest() for name, p in PRESETS.items()} \
        == PRESET_DIGESTS


def test_pipeline_requires_midend_stage():
    prog = parse_ir("stage lowered\nfunc f(secret s: u1) {\nbb0:\n  ret 0\n}")
    with pytest.raises(InternalPassError):
        run_pipeline(prog, PipelineSpec())


def test_empty_pipeline_is_identity():
    prog = load_program("rsa_bearssl_lookup")
    out, log = run_pipeline(prog, PipelineSpec())
    assert print_ir(out) == print_ir(prog)
    assert log == []
    assert out is not prog                        # still a copy


# ----------------------------------------------------------------------
# cleanup


def test_cleanup_folds_and_propagates():
    src = """
func f(public n: u32 = 1) {
bb0:
  k = icmp.lt 2, 3
  r = select k, n, 0
  t = add r, 0
  ret t
}
"""
    prog = parse_ir(src)
    func = prog.function()
    cleanup(func, prog.globals)
    assert [i.opcode for i in func.instructions()] == ["ret"]
    assert func.blocks[0].instrs[0].operands == ("n",)


def test_cleanup_folds_constant_branches():
    # literal conditions appear after unswitch/unroll substitution
    src = """
func f(public n: u32 = 1) {
bb0:
  condbr 1, bbT, bbF
bbT:
  ret 1
bbF:
  ret 2
}
"""
    prog = parse_ir(src)
    func = prog.function()
    cleanup(func, prog.globals)
    assert [i.opcode for i in func.instructions()] == ["ret"]
    assert func.blocks[0].instrs[0].operands == (1,)


def test_cleanup_removes_dead_code_but_keeps_stores():
    src = """
func f(public n: u32 = 1) {
bb0:
  dead = add n, 1
  store g, 0, n
  ret n
}
global g: arr<u32,1> = zeros
"""
    prog = parse_ir(src)
    func = prog.function()
    cleanup(func, prog.globals)
    kept = [i.opcode for i in func.instructions()]
    assert kept == ["store", "ret"]


def test_cleanup_removes_store_of_just_loaded_value():
    src = """
func f(public n: u32 = 1) {
bb0:
  v = load g, n
  store g, n, v
  ret v
}
global g: arr<u32,4> = zeros
"""
    prog = parse_ir(src)
    func = prog.function()
    cleanup(func, prog.globals)
    assert [i.opcode for i in func.instructions()] == ["load", "ret"]


@pytest.mark.parametrize("load, region", [("load", "u64"), ("load.8", "u32")])
def test_cleanup_keeps_store_of_a_narrowed_load(load, region):
    # The load wraps 4294967301 to its width, so storing it back is a write.
    src = f"""
func f(secret s: u1) {{
bb0:
  v = {load} g, 0
  store g, 0, v
  ret v
}}
global g: arr<{region},1> = [4294967301]
"""
    prog = parse_ir(src)
    func = parse_ir(src).function()
    cleanup(func, prog.globals)
    assert [i.opcode for i in func.instructions()] == ["load", "store", "ret"]
    out, _ = pipe(prog, instcombine=True)
    for s in (0, 1):
        base, t = execute(prog, {"s": s}), execute(out, {"s": s})
        assert (t.result, t.memory) == (base.result, base.memory)


def test_cleanup_merges_straight_line_blocks():
    src = """
func f(public n: u32 = 1) {
bb0:
  a = add n, 1
  br bb1
bb1:
  b = add a, 1
  ret b
}
"""
    prog = parse_ir(src)
    func = prog.function()
    cleanup(func, prog.globals)
    assert len(func.blocks) == 1
    assert [i.opcode for i in func.instructions()] == ["add", "add", "ret"]


def test_cleanup_merges_a_long_chain_in_one_call():
    body = "".join(f"bb{k}:\n  x{k + 1} = add x{k}, 1\n  br bb{k + 1}\n"
                   for k in range(250))
    prog = parse_ir(f"func f(public x0: u32 = 3) {{\n{body}"
                    f"bb250:\n  ret x250\n}}")
    func = prog.function()
    cleanup(func, prog.globals)
    assert len(func.blocks) == 1
    assert not cleanup(func, prog.globals)
    assert execute(prog, {"x0": 3}).result == 253


@pytest.mark.parametrize("order", ["a b c", "c b a"])
def test_cleanup_retargets_phi_arms_to_the_chain_head(order):
    # a -> b -> c merges into a, whichever of them comes first in the
    # function, so the phi's arm from c must name a.
    chain = {"a": "  x = add n, 1\n  br b\n",
             "b": "  y = add x, 2\n  br c\n",
             "c": "  z = add y, 3\n  br join\n"}
    blocks = "".join(f"{l}:\n{chain[l]}" for l in order.split())
    src = f"""
func f(secret s: u1, public n: u32 = 1) {{
bb0:
  condbr s, a, other
other:
  br join
{blocks}join:
  r = phi [c: z], [other: n]
  ret r
}}
"""
    prog = parse_ir(src)
    func = prog.function()
    cleanup(func, prog.globals)
    assert [b.label for b in func.blocks] == ["bb0", "other", "a", "join"]
    phi = func.block("join").instrs[0]
    assert phi.labels == ("a", "other") and phi.operands == ("z", "n")


def walk_copies(copies):
    """Copy-chain resolution as ``_apply_copies`` first wrote it: each
    name in turn walks to the end of its chain or to its first repeat."""
    for name in list(copies):
        seen = {name}
        val = copies[name]
        while isinstance(val, str) and val in copies and val not in seen:
            seen.add(val)
            val = copies[val]
        copies[name] = val
    return copies


@pytest.mark.parametrize("copies", [
    {"a": "b", "b": "c", "c": 7},                   # a chain to a constant
    {"c": "d", "b": "c", "a": "b"},                 # ... to a value, reversed
    {"a": "a"},                                     # a self-loop
    {"a": "b", "b": "a"},                           # a cycle
    {"x": "a", "b": "a", "a": "b"},                 # a tail resolved first
    {"b": "a", "x": "a", "a": "b"},                 # ... after a member
    {"t": "u", "u": "a", "a": "b", "b": "c", "c": "a", "d": "d", "e": 0},
], ids=["chain", "reversed", "self-loop", "cycle", "tail-first",
        "tail-after", "mixed"])
def test_copy_chains_resolve_as_the_one_at_a_time_walk(copies):
    got = dict(copies)
    passes._resolve_copies(got)
    assert got == walk_copies(dict(copies))


def test_copy_chains_resolve_as_the_walk_on_random_maps():
    rng = random.Random(5)
    for _ in range(3000):
        keys = rng.sample(range(9), rng.randint(1, 9))
        copies = {f"n{k}": rng.choice([f"n{j}" for j in range(9)] + [0, 3])
                  for k in keys}
        got = dict(copies)
        passes._resolve_copies(got)
        assert got == walk_copies(dict(copies)), copies


def test_a_long_chain_of_forwarding_phis_resolves_to_its_source():
    n = 1200
    copies = {f"p{i}": f"p{i - 1}" if i > 1 else "s" for i in range(n, 0, -1)}
    passes._resolve_copies(copies)
    assert set(copies.values()) == {"s"}


def test_cleanup_that_does_not_settle_raises(monkeypatch):
    # The first if_convert step arms the block merger, which then claims a
    # change on every sweep, so the cleanup after it never settles; the
    # passes applied before it are in the log.
    real = passes._merge_blocks
    armed = []
    monkeypatch.setattr(passes, "_merge_blocks",
                        lambda func: real(func) or bool(armed))
    monkeypatch.setattr(passes, "if_convert",
                        lambda func: not armed and not armed.append(True))
    prog = parse_ir("func g(public n: u32 = 1) {\nbb0:\n  ret n\n}\n")
    with pytest.raises(InternalPassError,
                       match="pass if_convert: cleanup of g") as err:
        pipe(prog, instcombine=True, if_convert=True)
    assert [(e.pass_name, e.function) for e in err.value.log] == \
        [("instcombine", "g")]
    with pytest.raises(InternalPassError, match="did not reach a fixpoint"):
        cleanup(prog.function(), prog.globals)


def test_pass_that_does_not_settle_raises(monkeypatch):
    # if_convert claims a change on every step, so its application never
    # settles; everything applied before it is in the log.
    real = passes.if_convert
    monkeypatch.setattr(passes, "if_convert", lambda func: real(func) or True)
    src = "func g(public n: u32 = 1) {\nbb0:\n  ret n\n}\n"
    with pytest.raises(InternalPassError,
                       match="pass if_convert: if_convert of g did not "
                             "reach a fixpoint") as err:
        pipe(parse_ir(src), instcombine=True, slp=True, if_convert=True)
    assert [(e.pass_name, e.function) for e in err.value.log] == \
        [("instcombine", "g"), ("slp", "g")]


def retarget(func):
    """A step that points the entry's terminator at a missing block."""
    term = func.blocks[0].terminator
    if term.labels == ("nowhere",):
        return False
    func.blocks[0].instrs[-1] = term._replace(labels=("nowhere",))
    return True


def test_pass_that_breaks_the_program_is_named(monkeypatch):
    # Only a pass application that reports no change skips validation, so
    # a step that reports its change is checked.
    monkeypatch.setattr(passes, "if_convert", retarget)
    src = "func f(public n: u32 = 1) {\nbb0:\n  br bb1\nbb1:\n  ret n\n}"
    with pytest.raises(InternalPassError,
                       match="pass if_convert broke the program: "
                             "f/bb0/id0: unknown target block 'nowhere'"):
        pipe(parse_ir(src), if_convert=True)


def test_a_failing_pipeline_keeps_only_the_passes_before_it(monkeypatch):
    # A pass that breaks the program keeps no state, so a second run runs
    # it again and raises the same error with the same log.
    monkeypatch.setattr(passes, "if_convert", retarget)
    src = "func f(public n: u32 = 1) {\nbb0:\n  br bb1\nbb1:\n  ret n\n}"
    passes._states.clear()
    raised = []
    for _ in range(2):
        with pytest.raises(InternalPassError, match="broke the program") \
                as err:
            pipe(parse_ir(src), instcombine=True, if_convert=True)
        raised.append((str(err.value), err.value.log))
    assert raised[0] == raised[1]
    assert [e.pass_name for e in raised[0][1]] == ["instcombine", "if_convert"]
    assert [prefix for _, prefix in passes._states] == [("instcombine",)]


def test_an_in_place_fold_logs_no_change_and_is_validated(monkeypatch):
    # Cleanup folds `x = add 1, 2` into a const under the same id.  The
    # application reports a change, so the program is validated; no id
    # came or went, so the log says "no change", as lowering's does.
    checked = []
    monkeypatch.setattr(passes, "validate", lambda prog, key=None: (
        checked.append(prog) or validate(prog, key)))
    passes._states.clear()              # run the passes, not the memo
    src = "func f(public n: u32 = 1) {\nbb0:\n  x = add 1, 2\n  ret x\n}"
    out, log = pipe(parse_ir(src), instcombine=True)
    assert ops(out.function(), "bb0") == ["const", "ret"]
    assert [e.summary for e in log] == ["no change"]
    assert len(checked) == 2            # the input, then after instcombine


@pytest.mark.parametrize("preset_name", list(PRESETS))
def test_cleanup_output_is_a_fixpoint(monkeypatch, preset_name):
    real = passes.cleanup
    unsettled = []

    def checked(func, globals_):
        changed = real(func, globals_)
        if real(func, globals_):
            unsettled.append(func.name)
        return changed

    monkeypatch.setattr(passes, "cleanup", checked)
    passes._states.clear()              # run the passes, not the memo
    for name in names():
        run_pipeline(load_program(name), PRESETS[preset_name].spec)
        assert unsettled == [], name


def test_skipping_cleanup_on_clean_functions_changes_nothing(monkeypatch):
    # run_pipeline skips cleanup after a step that reports no change on a
    # function that cleanup already settled.  Running cleanup after every
    # step instead gives the same program and log on every corpus program
    # under every preset.
    def every_time(prog, spec):
        out, log = passes.copy_program(prog), []
        func = out.function()
        for name in spec.order:
            before = {i.iid for i in func.instructions()}
            passes._to_fixpoint(lambda f: passes._PASSES[name](f, spec),
                                func, name)
            cleanup(func, out.globals)
            log.append(passes._log_entry(name, func, before))
        return out, log

    calls = []
    real = passes.cleanup
    monkeypatch.setattr(passes, "cleanup",
                        lambda *a: calls.append(1) or real(*a))
    passes._states.clear()              # run the passes, not the memo
    applications = 0
    for name in names():
        for preset in PRESETS.values():
            out, log = run_pipeline(load_program(name), preset.spec)
            want, want_log = every_time(load_program(name), preset.spec)
            assert print_ir(out) == print_ir(want), (name, preset.name)
            assert [(e.pass_name, e.function, e.summary) for e in log] == \
                [(e.pass_name, e.function, e.summary) for e in want_log]
            applications += len(log)
    assert len(calls) < applications      # some were skipped


# The step function of each pass, as the pass table calls it.
STEPS = ("instcombine_lite", "jump_thread", "path_split", "loop_unswitch",
         "loop_unroll", "loop_vectorize", "slp_lite", "if_convert")


@pytest.mark.parametrize("spec", [p.spec for p in PRESETS.values()] + [
    PipelineSpec(toggles={k: True for k in PASS_ORDER})],
    ids=list(PRESETS) + ["every-pass"])
def test_a_step_that_reports_no_change_changed_nothing(monkeypatch, spec):
    # run_pipeline runs steps and cleanup in place on its own copy, so one
    # that returns False must leave the function exactly as it found it,
    # down to the next fresh id.
    assert len(STEPS) == len(PASS_ORDER)
    broken = []

    def checked(fn):
        def run(func, *rest):
            before = print_ir(Program({func.name: func})), func.next_id
            if fn(func, *rest):
                return True
            if (print_ir(Program({func.name: func})), func.next_id) != before:
                broken.append((fn.__name__, func.name))
            return False
        return run

    for name in STEPS + ("cleanup",):
        monkeypatch.setattr(passes, name, checked(getattr(passes, name)))
    passes._states.clear()              # run the passes, not the memo
    for name in names():
        run_pipeline(load_program(name), spec)
        assert broken == [], name


@pytest.mark.parametrize("identity", [
    "add {v}, 0", "add 0, {v}", "or {v}, 0", "xor 0, {v}", "sub {v}, 0",
    "mul {v}, 1", "mul 1, {v}", "shl {v}, 0", "lshr {v}, 0",
    "and {v}, {m}", "and {m}, {v}",
])
def test_identity_forwarding_respects_width(identity):
    op, rest = identity.split(" ", 1)

    def at(width, v):
        return f"{op}.{width} " + rest.format(v=v, m=(1 << width) - 1)

    # r wraps a u32 at width 8 (1000 -> 232); s (a u8) and t (a width-16
    # value at width 16) already fit, so only those two are forwarded.
    src = f"""
func f(public x: u32 = 1000, public y: u8 = 200) {{
bb0:
  n = and.16 x, 65535
  r = {at(8, "x")}
  s = {at(8, "y")}
  t = {at(16, "n")}
  u = add r, s
  v = add u, t
  ret v
}}
"""
    prog = parse_ir(src)
    args = {"x": 1000, "y": 200}
    assert execute(prog, args).result == 232 + 200 + 1000
    out, _ = pipe(prog, instcombine=True)
    assert execute(out, args).result == 232 + 200 + 1000
    assert [i.opcode for i in out.function().instructions()] == \
        ["and", op, "add", "add", "ret"]


WIDE_ARM_SRC = {
    "select": """
  r = select s, x, 0
  t = add r, 0
  ret t""",
    "phi": """
  condbr s, bbT, bbF
bbT:
  br bbJ
bbF:
  br bbJ
bbJ:
  r = phi [bbT: x], [bbF: 0]
  t = add r, 0
  ret t""",
    "loop phi": """
  br h
h:
  r = phi [bb0: x], [b: q]
  i = phi [bb0: 0], [b: i2]
  c = icmp.lt i, 2
  condbr c, b, done
b:
  q = select s, r, 0
  i2 = add i, 1
  br h
done:
  t = add r, 0
  ret t""",
}


@pytest.mark.parametrize("form", WIDE_ARM_SRC)
def test_identity_forwarding_follows_select_and_phi_arms(form):
    # A select or phi passes its u64 arm through unwrapped, so the width-32
    # `t = add r, 0` still wraps it (4294967301 -> 5) and must stay.
    src = ("func f(public x: u64 = 4294967301, secret s: u1) {\nbb0:"
           + WIDE_ARM_SRC[form] + "\n}")
    prog = parse_ir(src)
    out, _ = pipe(prog, instcombine=True)
    for s in (0, 1):
        args = {"x": 4294967301, "s": s}
        assert execute(prog, args).result == 5 * s
        assert execute(out, args).result == 5 * s


def test_identity_forwarding_over_a_load_keeps_its_wrap():
    # A load wraps its u64 element to its width 32 (4294967301 -> 5), so
    # `r = add v, 0` adds nothing and may be forwarded.
    src = """
func f(secret s: u1) {
bb0:
  v = load g, 0
  r = add v, 0
  ret r
}
global g: arr<u64,1> = [4294967301]
"""
    prog = parse_ir(src)
    out, _ = pipe(prog, instcombine=True)
    for s in (0, 1):
        assert execute(prog, {"s": s}).result == 5
        assert execute(out, {"s": s}).result == 5


def _fold_cases(op, width):
    values = (0, 1, 7, 300, (1 << width) - 1, 1 << width, (3 << width) + 5)
    if op == "neg":
        return [(a,) for a in values]
    return [(a, b) for a in values for b in values]


@pytest.mark.parametrize("width", (8, 16, 32, 64))
@pytest.mark.parametrize("op", sorted(BINARY_OPS) + ["neg"]
                         + [f"icmp.{p}" for p in CMP_PREDS])
def test_folding_matches_execution(op, width):
    cases = _fold_cases(op, width)
    body = "".join(
        f"  r{k} = {op}.{width} {', '.join(map(str, args))}\n"
        f"  store out, {k}, r{k}\n" for k, args in enumerate(cases))
    prog = parse_ir(f"func f() {{\nbb0:\n{body}  ret 0\n}}\n"
                    f"global out: arr<u64,{len(cases)}> = zeros\n")
    folded, _ = pipe(prog, instcombine=True)
    assert {i.opcode for i in folded.function().instructions()} == \
        {"const", "store", "ret"}
    want = execute(prog, {}).memory["out"]
    got = execute(folded, {}).memory["out"]
    assert [(args, w, g) for args, w, g in zip(cases, want, got) if w != g] \
        == []


# ----------------------------------------------------------------------
# instcombine


def test_instcombine_masked_blend_becomes_select():
    prog, log = pipe(load_program("fig1c_ctselect"), instcombine=True)
    func = prog.function()
    assert ops(func, "bb0") == ["xor", "xor", "select", "ret"]
    sel = next(i for i in func.instructions() if i.opcode == "select")
    assert sel.operands == ("sec", "ra", "rb")
    assert sel.iid == 7
    assert (sel.loc.file, sel.loc.line) == ("fig1c.c", 6)
    assert log[0].created == (7,) and log[0].deleted == (2, 3, 4, 5)


def test_instcombine_and_neg_mask():
    src = """
func f(secret s: u1, public a: u32 = 9) {
bb0:
  m = neg s
  r = and m, a
  ret r
}
"""
    prog, _ = pipe(parse_ir(src), instcombine=True)
    func = prog.function()
    sel = next(i for i in func.instructions() if i.opcode == "select")
    assert sel.operands == ("s", "a", 0)
    for s in (0, 1):
        assert execute(prog, {"s": s, "a": 9}).result == (9 if s else 0)


@pytest.mark.parametrize("name", names())
def test_instcombine_step_is_idempotent(name):
    # A second step must not re-match what the first consumed, nor spend ids.
    for func in load_program(name).functions.values():
        passes.instcombine_lite(func)
        next_id = func.next_id
        assert not passes.instcombine_lite(func)
        assert func.next_id == next_id


def test_instcombine_rewrites_a_shared_mask_after_the_blend():
    # t feeds the blend and u; the blend becomes a select in the first
    # step, and t, no longer part of a blend, becomes one in the next.
    src = """
func f(secret s: u1, public a: u32 = 9, public b: u32 = 4) {
bb0:
  m = neg s
  d = xor a, b
  t = and m, d
  r = xor b, t
  u = add r, t
  ret u
}
"""
    prog = parse_ir(src)
    out, _ = pipe(prog, instcombine=True)
    func = out.function()
    assert [(i.result, i.operands) for i in func.instructions()
            if i.opcode == "select"] == [("t", ("s", "d", 0)),
                                         ("r", ("s", "a", "b"))]
    for s in (0, 1):
        args = {"s": s, "a": 9, "b": 4}
        assert execute(out, args).result == execute(prog, args).result


def test_instcombine_requires_boolean_condition():
    # the mask source must be provably 0/1; a u32 secret is not
    src = """
func f(secret s: u32, public a: u32 = 9) {
bb0:
  m = neg s
  r = and m, a
  ret r
}
"""
    prog, log = pipe(parse_ir(src), instcombine=True)
    assert all(i.opcode != "select" for i in prog.function().instructions())


def test_instcombine_takes_a_phi_of_comparisons_as_boolean():
    # c is 0 or 1 on either path, so the mask becomes a select.
    src = """
func f(secret s: u32, public a: u32 = 9) {
bb0:
  p = icmp.eq s, 0
  condbr p, bbT, bbF
bbT:
  x = icmp.lt s, 5
  br bbJ
bbF:
  y = icmp.gt s, 7
  br bbJ
bbJ:
  c = phi [bbT: x], [bbF: y]
  m = sub 0, c
  r = and m, a
  ret r
}
"""
    prog = parse_ir(src)
    out, _ = pipe(prog, instcombine=True)
    assert [i.operands for i in out.function().instructions()
            if i.opcode == "select"] == [("c", "a", 0)]
    for s in (0, 3, 8):
        args = {"s": s, "a": 9}
        assert execute(out, args).result == execute(prog, args).result


# ----------------------------------------------------------------------
# jump threading


def test_jump_thread_shape():
    prog, log = pipe(load_program("jump_threading_toy"), jump_thread=True)
    func = prog.function()
    labels = [b.label for b in func.blocks]
    assert labels == ["bb0", "bb0.t", "bb0.f", "bb0.ft", "bb0.ff", "bb0.join"]
    join = func.block("bb0.join")
    phi = join.instrs[0]
    assert phi.opcode == "phi" and len(phi.operands) == 3
    assert set(phi.labels) == {"bb0.t", "bb0.ft", "bb0.ff"}
    # two secret-dependent branches now exist where none did
    condbrs = [i for i in func.instructions() if i.opcode == "condbr"]
    assert len(condbrs) == 2
    for a in range(16):
        want = (16 if a < 10 else 0) | (4 if a > 12 else 0)
        assert execute(prog, {"a": a}).result == want


def test_jump_thread_needs_disjoint_ranges():
    src = """
func f(secret a: u4) {
bb0:
  c1 = icmp.lt a, 10
  r1 = select c1, 16, 0
  c2 = icmp.lt a, 12
  t = or r1, 4
  r = select c2, t, r1
  ret r
}
"""
    _, log = pipe(parse_ir(src), jump_thread=True)
    assert [e.summary for e in log] == ["no change"]


def select_pairs(n: int):
    """``n`` correlated select pairs in a row in one block, each pair's
    false arm the previous pair's result: a jump threading step threads
    them one after another.  The block leaves along a phi's edge."""
    lines = ["func f(secret a: u8, public b: u32 = 3) {", "bb0:"]
    v = "b"
    for k in range(n):
        lines += [f"  c{k} = icmp.lt a, 10", f"  r{k} = select c{k}, 16, {v}",
                  f"  d{k} = icmp.gt a, 12", f"  t{k} = or r{k}, 4",
                  f"  s{k} = select d{k}, t{k}, r{k}"]
        v = f"s{k}"
    lines += ["  br done", "done:", f"  r = phi [bb0: {v}]", "  ret r", "}"]
    return parse_ir("\n".join(lines))


def test_jump_thread_threads_a_chain_of_pairs():
    prog = select_pairs(6)
    out, log = pipe(prog, jump_thread=True)
    assert log[0].summary != "no change"
    assert not any(i.opcode == "select" for i in out.function().instructions())
    for a in (0, 9, 10, 11, 12, 13, 255):
        args = {"a": a, "b": 3}
        assert execute(out, args).result == execute(prog, args).result


def test_a_jump_thread_step_reads_the_function_once(monkeypatch):
    # A step builds each whole-function fact at most once, looks up no
    # block by a scan of the block list, renames phi arms only in the
    # blocks that hold them, and sets the block list once, however many
    # pairs it threads: the counts are the same at n and 4n pairs.
    counts: dict[str, int] = {}

    def count(key, k=1):
        counts[key] = counts.get(key, 0) + k

    for key, obj in (("_all_names", passes), ("_labels", passes),
                     ("_uses", passes), ("defs", ir.Function),
                     ("instructions", ir.Function), ("block", ir.Function)):
        monkeypatch.setattr(obj, key, lambda *a, key=key,
                            real=getattr(obj, key): count(key) or real(*a))
    real_fix = passes._fix_phi_arm_labels

    def fix(blocks, renames):
        counts["phi blocks"] = max(counts.get("phi blocks", 0), len(blocks))
        return real_fix(blocks, renames)

    monkeypatch.setattr(passes, "_fix_phi_arm_labels", fix)

    class Watched(ir.Function):         # counts new block lists
        def __setattr__(self, attr, value):
            if attr == "blocks":
                count("rebuilds")
            super().__setattr__(attr, value)

    def step(n):
        """The step's counts and the blocks it leaves."""
        func = select_pairs(n).function()
        func.__class__ = Watched
        counts.clear()
        assert passes.jump_thread(func)
        return dict(counts), len(func.blocks)

    (small, small_blocks), (large, large_blocks) = step(25), step(100)
    assert small == large == {"defs": 1, "_uses": 1, "instructions": 2,
                              "_all_names": 1, "_labels": 1,
                              "phi blocks": 1, "rebuilds": 1}
    assert (small_blocks, large_blocks) == (2 + 5 * 25, 2 + 5 * 100)


def test_threadings_in_a_row_keep_labels_short():
    # Each threading splits the join block of the one before it.  The new
    # blocks are named after the first block, each with its own counter,
    # not after the join, so k threadings make labels of O(log k)
    # characters.
    n = 400
    prog = select_pairs(n)
    out, _ = pipe(prog, jump_thread=True)
    labels = [b.label for b in out.function().blocks]
    assert len(labels) == 1 + 5 * n         # `done` joins the last join
    assert labels[:8] == ["bb0", "bb0.t", "bb0.f", "bb0.ft", "bb0.ff",
                          "bb0.join", "bb0.t0", "bb0.f0"]
    assert max(map(len, labels)) == len(f"bb0.join{n - 2}")
    for a in (0, 9, 11, 13, 255):
        args = {"a": a, "b": 3}
        assert execute(out, args).result == execute(prog, args).result


# ----------------------------------------------------------------------
# path splitting


def test_path_split_shape():
    prog, log = pipe(load_program("path_splitting_toy"), path_split=True)
    func = prog.function()
    assert {b.label for b in func.blocks} >= {"loopB.t", "loopB.f"}
    header_phis = func.block("loopH").phis()
    assert all(len(p.operands) == 3 for p in header_phis)
    tails = {func.block("loopB.t").instrs[0].operands[1],
             func.block("loopB.f").instrs[0].operands[1]}
    assert tails == {1, 4294967295}
    assert all(i.opcode != "select" for i in func.instructions())
    # semantics: +1 per clear sign bit, -1 per set sign bit (5 clear, 3 set)
    t = execute(prog, {"p": (0, 0x80, 0, 0, 0x80, 0x80, 0, 0), "n": 8})
    assert t.result == 2


def test_path_split_leaves_non_latch_selects_alone():
    _, log = pipe(load_program("fig1c_ctselect"), path_split=True)
    assert [e.summary for e in log] == ["no change"]


# ----------------------------------------------------------------------
# loop unswitching


def test_unswitch_hoists_invariant_select():
    prog, log = pipe(load_program("loop_unswitch_toy"), loop_unswitch=True)
    func = prog.function()
    guard = func.block("bb0").instrs[-1]
    assert guard.opcode == "condbr" and guard.operands == ("w",)
    assert set(guard.labels) == {"loopH", "loopH.us"}
    assert all(i.opcode != "select" for i in func.instructions())
    # specialized copies: one zeroes y, the other's store was redundant
    stores = {b.label: [i for i in b.instrs if i.opcode == "store"]
              for b in func.blocks}
    assert len(stores["loopB"]) == 2            # x update + y zeroing
    assert len(stores["loopB.us"]) == 1         # x update only
    for w in (0, 1):
        t = execute(prog, {"w": w})
        want_y = (0,) * 8 if w else tuple(range(8))
        assert t.memory["y"] == want_y


def unswitch_src(conds: str) -> str:
    """A counted loop whose body chains one select per secret condition."""
    params = ", ".join(f"secret {c}: u1" for c in conds)
    sels = "".join(f"  x{k + 1} = select {c}, x{k}, {k + 1}\n"
                   for k, c in enumerate(conds))
    return f"""
func f({params}) {{
bb0:
  br loopH
loopH:
  i = phi [bb0: 0], [loopB: inext]
  k = icmp.lt i, 8
  condbr k, loopB, done
loopB:
  x0 = load src, i
{sels}  store dst, i, x{len(conds)}
  inext = add i, 1
  br loopH
done:
  ret 0
}}
global src: arr<u32,8> = counting
global dst: arr<u32,8> = zeros
"""


def test_unswitch_runs_to_its_fixpoint():
    # Four invariant selects take 1 + 2 + 4 + 8 = 15 unswitchings, four
    # steps, and leave one loop per combination of the four conditions.
    prog = parse_ir(unswitch_src("abcd"))
    out, _ = pipe(prog, loop_unswitch=True)
    func = out.function()
    loops = natural_loops(func)
    assert len(loops) == 16
    assert [i for loop in loops for l in loop.blocks
            for i in func.block(l).instrs if i.opcode == "select"] == []
    for bits in range(16):
        args = {s: (bits >> k) & 1 for k, s in enumerate("abcd")}
        assert execute(out, args).memory == execute(prog, args).memory


def test_unswitch_growth_is_bounded():
    # Eight invariant selects would ask for 256 copies of the loop.  The
    # growth budget stops cloning long before; the rest stay selects.
    conds = "abcdefgh"
    prog = parse_ir(unswitch_src(conds))
    out, _ = pipe(prog, loop_unswitch=True)
    func = out.function()
    loops = natural_loops(func)
    assert 16 < len(loops) < 256
    assert sum(len(func.block(l).instrs) for loop in loops
               for l in loop.blocks) <= passes._UNSWITCH_GROWTH * 32
    for bits in (0, 0b10110010, 255):
        args = {s: (bits >> k) & 1 for k, s in enumerate(conds)}
        assert execute(out, args).memory == execute(prog, args).memory


def test_unswitch_respects_threshold():
    prog = load_program("loop_unswitch_toy")
    _, log = pipe(prog, loop_unswitch=True, unswitch_threshold=1)
    assert [e.summary for e in log] == ["no change"]


# ----------------------------------------------------------------------
# loop unrolling


UNROLL_SRC = """
func f(secret s: u2) {
bb0:
  br loopH
loopH:
  i = phi [bb0: 0], [loopB: inext]
  acc = phi [bb0: 0], [loopB: acc2]
  c = icmp.lt i, 3
  condbr c, loopB, done
loopB:
  v = load tbl, i
  e = icmp.eq s, i
  m = neg e
  t = and m, v
  acc2 = or acc, t
  inext = add i, 1
  br loopH
done:
  ret acc
}
global tbl: arr<u32,4> = counting
"""


def test_unroll_flattens_constant_trip_loop():
    prog, log = pipe(parse_ir(UNROLL_SRC), loop_unroll=True)
    func = prog.function()
    assert len(func.blocks) == 1                  # fully flattened
    assert all(i.opcode not in ("phi", "condbr") for i in func.instructions())
    loads = [i for i in func.instructions() if i.opcode == "load"]
    assert [i.operands[1] for i in loads] == [0, 1, 2]   # iv made constant
    names = [i.result for i in loads]
    assert names == ["v.it0", "v.it1", "v.it2"]
    for s in range(4):
        assert execute(prog, {"s": s}).result == (s if s < 3 else 0)


def loop_chain(n: int):
    """``n`` two-trip counted loops in a row, each storing ``a`` twice."""
    lines = ["func f(public a: u32 = 3) {", "e:", "  br h0"]
    for k in range(n):
        prev = "e" if k == 0 else f"e{k - 1}"
        lines += [f"h{k}:", f"  i{k} = phi [{prev}: 0], [b{k}: n{k}]",
                  f"  c{k} = icmp.lt i{k}, 2", f"  condbr c{k}, b{k}, e{k}",
                  f"b{k}:", f"  o{k} = add i{k}, {2 * k}",
                  f"  store dst, o{k}, a", f"  n{k} = add i{k}, 1",
                  f"  br h{k}", f"e{k}:", f"  br h{k + 1}"]
    lines[-1] = "  ret 0"
    lines += ["}", f"global dst: arr<u32,{2 * n}> = zeros"]
    return parse_ir("\n".join(lines))


def test_unroll_takes_every_loop_in_one_step():
    # One counted loop more than the step bound, in a row.
    n = passes._FIXPOINT_STEPS + 1
    out, _ = pipe(loop_chain(n), loop_unroll=True)
    assert natural_loops(out.function()) == []
    assert execute(out, {"a": 3}).memory["dst"] == (3,) * (2 * n)


def test_unroll_renames_only_the_readers_of_loop_values(monkeypatch):
    # Only the readers of an unrolled loop's values are renamed, not every
    # instruction once per loop: the substitutions, clones included, stay
    # within a small multiple of the function's size.
    calls = 0
    real = ir.substitute

    def counted(ins, mapping):
        nonlocal calls
        calls += 1
        return real(ins, mapping)

    monkeypatch.setattr(ir, "substitute", counted)
    monkeypatch.setattr(passes, "substitute", counted)
    passes._states.clear()              # run the passes, not the memo
    prog = loop_chain(250)
    size = sum(1 for _ in prog.function().instructions())
    out, _ = pipe(prog, loop_unroll=True)
    assert natural_loops(out.function()) == []
    assert calls <= 2 * size, (calls, size)
    want, got = execute(prog, {"a": 3}), execute(out, {"a": 3})
    assert (got.result, got.memory) == (want.result, want.memory)


def select_chain(n: int):
    """``n`` loops in a row whose latches step by a select on the secret
    ``s``: path splitting splits each latch, and unswitching unswitches
    loops while its budget lasts."""
    lines = ["func f(secret s: u1) {", "e:", "  br h0"]
    for k in range(n):
        prev = "e" if k == 0 else f"e{k - 1}"
        lines += [f"h{k}:", f"  i{k} = phi [{prev}: 0], [b{k}: n{k}]",
                  f"  c{k} = icmp.lt i{k}, 4", f"  condbr c{k}, b{k}, e{k}",
                  f"b{k}:", f"  v{k} = select s, 1, 2",
                  f"  n{k} = add i{k}, v{k}", f"  br h{k}",
                  f"e{k}:", f"  br h{k + 1}"]
    lines[-1] = f"  ret i{n - 1}"
    return parse_ir("\n".join(lines + ["}"]))


@pytest.mark.parametrize("build", [loop_chain, select_chain])
@pytest.mark.parametrize("name", ["path_split", "loop_unswitch",
                                  "loop_unroll"])
def test_a_loop_step_reads_the_function_once(monkeypatch, build, name):
    # Each step of a loop pass builds each whole-function fact at most
    # once and rebuilds the block list at most once, however many loops
    # it rewrites: the counts per step are the same at n and 4n loops.
    counts: dict[str, int] = {}

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    def counted(key, real):
        return lambda *args: count(key) or real(*args)

    for key in ("_all_names", "_labels", "_uses"):
        monkeypatch.setattr(passes, key, counted(key, getattr(passes, key)))
    monkeypatch.setattr(ir.Function, "defs",
                        counted("defs", ir.Function.defs))

    class Spliced(list):                # counts splices into the list
        def __setitem__(self, at, value):
            if isinstance(at, slice):
                count("rebuilds")
            super().__setitem__(at, value)

        def extend(self, items):
            count("rebuilds")
            super().extend(items)

        def insert(self, at, item):
            count("rebuilds")
            super().insert(at, item)

    class Watched(ir.Function):         # counts new block lists
        def __setattr__(self, attr, value):
            if attr == "blocks":
                count("rebuilds")
                value = Spliced(value)
            super().__setattr__(attr, value)

    def steps(n):
        """Whether each step changed the function, and its counts."""
        func = build(n).function()
        func.__class__ = Watched
        func.blocks = func.blocks
        out = []
        while True:
            counts.clear()
            changed = getattr(passes, name)(func)
            out.append((changed, frozenset(counts.items())))
            if not changed:
                return out

    # Unswitching's budget, not n, decides how many steps it takes.
    small, large = steps(25), steps(100)
    assert set(small) == set(large)
    for changed, step_counts in small:
        assert all(n <= 1 for _, n in step_counts), small
        assert dict(step_counts).get("rebuilds", 0) == changed
    # Unrolling rewrites the counted loops, the other two the selects.
    assert small[0][0] is ((name == "loop_unroll") is (build is loop_chain))


def test_one_unroll_step_renames_across_loops():
    # The second loop's entry values and body read the first loop's
    # accumulated value, and its `keep` ends as that value: the renames
    # chain from `keep` to `acc` to the first loop's last peel.  It runs
    # until the first loop's last index, which the step reads from the
    # first loop's rewrite.
    src = """
func f(secret a: u4) {
e:
  br h0
h0:
  i = phi [e: 0], [b0: i2]
  acc = phi [e: a], [b0: acc2]
  c = icmp.lt i, 3
  condbr c, b0, x0
b0:
  acc2 = add acc, i
  i2 = add i, 1
  br h0
x0:
  br h1
h1:
  j = phi [x0: 0], [b1: j2]
  s = phi [x0: acc], [b1: s2]
  keep = phi [x0: acc], [b1: keep]
  c1 = icmp.lt j, i
  condbr c1, b1, x1
b1:
  t = mul s, acc
  s2 = add t, j
  j2 = add j, 1
  br h1
x1:
  r = xor s, keep
  ret r
}
"""
    prog = parse_ir(src)
    out = ir.copy_program(prog)
    assert passes.loop_unroll(out.function())
    assert natural_loops(out.function()) == []
    assert validate(out) == []
    for a in range(16):
        assert execute(out, {"a": a}).result == execute(prog, {"a": a}).result


def test_unroll_respects_full_limit():
    def unroll(trips):
        src = UNROLL_SRC.replace("icmp.lt i, 3", f"icmp.lt i, {trips}") \
            .replace("arr<u32,4>", f"arr<u32,{trips}>")
        return pipe(parse_ir(src), loop_unroll=True)

    _, log = unroll(17)
    assert [e.summary for e in log] == ["no change"]
    prog, log = unroll(16)
    assert log[0].summary != "no change"
    assert natural_loops(prog.function()) == []


def test_unroll_skips_unknown_trip_counts():
    _, log = pipe(load_program("path_splitting_toy"), loop_unroll=True)
    assert [e.summary for e in log] == ["no change"]


def test_unroll_nested_keeps_inner_loops_valid():
    # outer loop peels clone the entire inner loop; ids and names must stay
    # unique across the 15 copies
    prog, log = pipe(load_program("rsa_bearssl_lookup"), loop_unroll=True)
    assert validate(prog) == []
    assert log[0].summary != "no change"
    t = execute(prog, {"bits": 5, "mwlen": 8})
    base = execute(load_program("rsa_bearssl_lookup"), {"bits": 5, "mwlen": 8})
    assert t.result == base.result and t.memory == base.memory


# ----------------------------------------------------------------------
# loop vectorization


def test_vectorize_rsa_inner_loop():
    prog, log = pipe(load_program("rsa_bearssl_lookup"), loop_vectorize=True)
    func = prog.function()
    labels = {b.label for b in func.blocks}
    assert {"innerH.vh", "innerH.vb", "innerH", "innerB"} <= labels
    vb = ops(func, "innerH.vb")
    assert vb == ["add", "vload", "vload", "vand", "vor", "vstore", "add", "br"]
    # runtime guard and splat of the secret-derived mask live in the preheader
    pre = func.block("outerB")
    assert [i.opcode for i in pre.instrs[-4:]] == ["sub", "icmp", "splat", "condbr"]
    # the scalar loop remains as epilogue with a third phi arm
    epi_phi = func.block("innerH").phis()[0]
    assert len(epi_phi.operands) == 3
    t = execute(prog, {"bits": 5, "mwlen": 8})
    base = execute(load_program("rsa_bearssl_lookup"), {"bits": 5, "mwlen": 8})
    assert t.result == base.result and t.memory == base.memory


def test_vectorize_reaches_every_inner_loop_of_rsa():
    # Unrolling the outer loop leaves 15 copies of the inner loop; each is
    # vectorized, and each vector loop branches on the secret mask.
    prog = load_program("rsa_bearssl_lookup")
    mid, _ = run_pipeline(prog, PRESETS["llvm18-O3"].spec)
    assert sum(b.label.endswith(".vh") for b in mid.function().blocks) == 15
    report = analyze(prog, PRESETS["llvm18-O3-mitig+vect"].spec).report
    assert len(report.findings) == 15
    assert {(f.kind, f.loc.file, f.loc.line) for f in report.findings} == \
        {("control-flow", "rsa.c", 6)}


def test_vectorize_builds_its_maps_once_and_keeps_them_exact(monkeypatch):
    # One step over the 15 inner loops of unrolled rsa builds the use map
    # once; after every loop it vectorizes, the maps, names and labels it
    # carries equal ones built afresh from the function with the step's
    # rewrites spliced in.
    real_uses, real_step, real_apply = (passes._uses, passes.loop_vectorize,
                                        passes._apply_vector_plan)
    builds, steps, applied = [], [], []

    def step(f):
        before = len(builds)
        changed = real_step(f)
        steps.append((changed, len(builds) - before))
        return changed

    def apply(step, plan):
        real_apply(step, plan)
        f = ir.Function(step.f.name, step.f.params, [
            new for b in step.f.blocks
            for new in step.replaced.get(b.label, (b,))])
        defs, uses, names, labels = (step.defs, step.uses, step.names,
                                     step.labels)

        def by_iid(uses):
            return {v: sorted(readers, key=lambda i: i.iid)
                    for v, readers in uses.items()}

        assert defs == f.defs()
        assert by_iid(uses) == by_iid(real_uses(f))
        assert names == passes._all_names(f)
        assert labels == passes._labels(f)
        applied.append(plan.loop.header)

    monkeypatch.setattr(passes, "_uses",
                        lambda f: builds.append(f) or real_uses(f))
    monkeypatch.setattr(passes, "loop_vectorize", step)
    monkeypatch.setattr(passes, "_apply_vector_plan", apply)
    passes._states.clear()              # run the passes, not the memo
    run_pipeline(load_program("rsa_bearssl_lookup"), PRESETS["llvm18-O3"].spec)
    assert len(applied) == 15
    assert steps == [(True, 1), (False, 1)]


def vector_chain(n: int):
    """``n`` eight-trip counted loops in a row, each storing ``a``: every
    one vectorizes, and each splats ``a`` under the same base name."""
    lines = ["func f(public a: u32 = 3) {", "e:", "  br h0"]
    for k in range(n):
        prev = "e" if k == 0 else f"e{k - 1}"
        lines += [f"h{k}:", f"  i{k} = phi [{prev}: 0], [b{k}: n{k}]",
                  f"  c{k} = icmp.lt i{k}, 8", f"  condbr c{k}, b{k}, e{k}",
                  f"b{k}:", f"  o{k} = add i{k}, {8 * k}",
                  f"  store dst, o{k}, a", f"  n{k} = add i{k}, 1",
                  f"  br h{k}", f"e{k}:", f"  br h{k + 1}"]
    lines[-1] = "  ret 0"
    lines += ["}", f"global dst: arr<u32,{8 * n}> = zeros"]
    return parse_ir("\n".join(lines))


def test_a_vectorize_step_reads_the_function_once(monkeypatch):
    # A step builds each whole-function fact once, looks up no block by a
    # scan of the block list, sets that list once, and finds a fresh name
    # in two probes on average, however many loops it vectorizes: the
    # counts are the same at n and 4n loops.
    counts: dict[str, int] = {}

    def count(key):
        counts[key] = counts.get(key, 0) + 1

    for key, obj in (("_all_names", passes), ("_labels", passes),
                     ("_uses", passes), ("defs", ir.Function),
                     ("block", ir.Function)):
        monkeypatch.setattr(obj, key, lambda *a, key=key,
                            real=getattr(obj, key): count(key) or real(*a))
    real_fresh = passes._fresh_name
    monkeypatch.setattr(passes, "_fresh_name", lambda taken, base: count(
        "fresh names") or real_fresh(taken, base))

    class Probed(passes._Taken):        # the step's names and labels
        def __contains__(self, name):
            count("probes")
            return super().__contains__(name)

    monkeypatch.setattr(passes, "_Taken", Probed)

    class Watched(ir.Function):         # counts new block lists
        def __setattr__(self, attr, value):
            if attr == "blocks":
                count("rebuilds")
            super().__setattr__(attr, value)

    def step(n):
        """The step's counts; the fresh names and probes per loop."""
        prog = vector_chain(n)
        func = prog.function()
        func.__class__ = Watched
        counts.clear()
        assert passes.loop_vectorize(func)
        seen = dict(counts)
        per_loop = (seen.pop("fresh names") / n, seen.pop("probes") / n)
        assert len(func.blocks) == 1 + 6 * n
        args = {"a": 5}
        assert execute(prog, args).memory == \
            execute(vector_chain(n), args).memory
        return seen, per_loop

    (small, small_names), (large, large_names) = step(25), step(100)
    assert small == large == {"defs": 1, "_uses": 1, "_all_names": 1,
                              "rebuilds": 1}
    for fresh_names, probes in (small_names, large_names):
        assert fresh_names == 10 and probes <= 2 * fresh_names


def test_vectorize_skips_reductions():
    _, log = pipe(load_program("fig1d_ctlookup"), loop_vectorize=True)
    assert [e.summary for e in log] == ["no change"]


def test_vectorize_skips_narrow_loads():
    # A vload's lanes are 32 bits; load.8 keeps only the low byte.
    src = """
func f(public n: u32 = 8) {
bb0:
  br loop
loop:
  i = phi [bb0: 0], [body: i1]
  c = icmp.lt i, n
  condbr c, body, exit
body:
  x = load.8 src, i
  y = add x, 1
  store dst, i, y
  i1 = add i, 1
  br loop
exit:
  ret 0
}
global src: arr<u32,8> = [256, 257, 258, 259, 260, 261, 262, 263]
global dst: arr<u32,8> = zeros
"""
    prog = parse_ir(src)
    out, log = pipe(prog, loop_vectorize=True)
    assert [e.summary for e in log] == ["no change"]
    assert execute(out, {"n": 8}).memory == execute(prog, {"n": 8}).memory
    _, log = pipe(parse_ir(src.replace("load.8", "load")),
                     loop_vectorize=True)
    assert log[0].summary != "no change"


def test_vectorize_skips_splats_wider_than_a_lane():
    # A splat's lanes are 32 bits; a u64 stored as written keeps all 64.
    src = """
func f(public a: u64 = 4294967301, public n: u32 = 8) {
bb0:
  br loop
loop:
  i = phi [bb0: 0], [body: i1]
  c = icmp.lt i, n
  condbr c, body, exit
body:
  store dst, i, a
  i1 = add i, 1
  br loop
exit:
  ret 0
}
global dst: arr<u64,8> = zeros
"""
    prog = parse_ir(src)
    out, _ = pipe(prog, loop_vectorize=True)
    args = {"a": 4294967301, "n": 8}
    assert execute(prog, args).memory["dst"] == (4294967301,) * 8
    assert execute(out, args).memory == execute(prog, args).memory
    _, log = pipe(parse_ir(src.replace("u64 =", "u32 =")), loop_vectorize=True)
    assert log[0].summary != "no change"


# ----------------------------------------------------------------------
# slp


SLP_SRC = """
func f(public a: u32 = 3) {
bb0:
  x0 = load src, 0
  x1 = load src, 1
  x2 = load src, 2
  x3 = load src, 3
  y0 = add x0, a
  y1 = add x1, a
  y2 = add x2, a
  y3 = add x3, a
  store dst, 0, y0
  store dst, 1, y1
  store dst, 2, y2
  store dst, 3, y3
  ret 0
}
global src: arr<u32,8> = counting
global dst: arr<u32,8> = zeros
"""


def test_slp_packs_consecutive_stores():
    prog, log = pipe(parse_ir(SLP_SRC), slp=True)
    func = prog.function()
    assert ops(func, "bb0") == ["vload", "splat", "vadd", "vstore", "ret"]
    assert log[0].summary == "+4/-12 instructions"
    t = execute(prog, {"a": 3})
    assert t.memory["dst"] == (3, 4, 5, 6, 0, 0, 0, 0)
    # secret params: none here, so reuse args via explicit call
    # lanes come from consecutive offsets 0..3
    vstore = next(i for i in func.instructions() if i.opcode == "vstore")
    assert vstore.operands[1] == 0 and vstore.width == 4


def store_runs(n: int, escape: bool):
    """``n`` packable runs of stores in one block; with ``escape``, a chain
    of xors outside the runs reads a lane of each, so none packs."""
    lines = ["func f(public a: u32 = 3) {", "bb0:"]
    acc = 0
    for r in range(n):
        for k in range(4 * r, 4 * r + 4):
            lines += [f"  x{k} = load src, {k}", f"  y{k} = add x{k}, a",
                      f"  store dst, {k}, y{k}"]
        if escape:
            lines.append(f"  e{r} = xor {acc}, y{4 * r + 1}")
            acc = f"e{r}"
    lines += [f"  ret {acc}", "}", f"global src: arr<u32,{4 * n}> = counting",
              f"global dst: arr<u32,{4 * n}> = zeros"]
    return parse_ir("\n".join(lines))


def test_slp_packs_every_run_in_one_step():
    # One packable run more than the step bound, in one block.
    n = passes._FIXPOINT_STEPS + 1
    prog = store_runs(n, escape=False)
    out, _ = pipe(prog, slp=True)
    assert sum(i.opcode == "vstore" for i in out.function().instructions()) \
        == n
    assert execute(out, {"a": 3}).memory == execute(prog, {"a": 3}).memory


@pytest.mark.parametrize("escape", [True, False])
def test_slp_builds_its_facts_once_per_packing(monkeypatch, escape):
    # A step builds the function's defs and use map at most once, and again
    # after each packing, however many runs it tries: the builds less the
    # packings are the same at n and 4n runs.
    counts: dict[str, int] = {}
    for key, obj in (("_uses", passes), ("defs", ir.Function)):
        real = getattr(obj, key)
        monkeypatch.setattr(obj, key, lambda *a, key=key, real=real: (
            counts.__setitem__(key, counts.get(key, 0) + 1) or real(*a)))

    def step(n):
        func = store_runs(n, escape).function()
        counts.clear()
        assert passes.slp_lite(func) is not escape
        packed = sum(i.opcode == "vstore" for i in func.instructions())
        return packed, counts.get("defs", 0), counts.get("_uses", 0)

    small, large = step(25), step(100)
    assert [small[0], large[0]] == ([0, 0] if escape else [25, 100])
    assert [small[1] - small[0], small[2] - small[0]] == \
        [large[1] - large[0], large[2] - large[0]]
    assert small[1] <= small[0] + 1 and small[2] <= small[0] + 1, small


def test_slp_skips_narrow_loads():
    narrow = SLP_SRC.replace("load src", "load.8 src").replace(
        "counting", "[256, 257, 258, 259, 260, 261, 262, 263]")
    prog = parse_ir(narrow)
    out, log = pipe(prog, slp=True)
    assert [e.summary for e in log] == ["no change"]
    assert execute(out, {"a": 3}).memory == execute(prog, {"a": 3}).memory


def test_slp_skips_splats_wider_than_a_lane():
    # The blend splats a; a u64 selected as written keeps all 64 bits.
    src = """
func f(secret s: u1, public a: u64 = 4294967301) {
bb0:
  x0 = load src, 0
  x1 = load src, 1
  x2 = load src, 2
  x3 = load src, 3
  y0 = select s, a, x0
  y1 = select s, a, x1
  y2 = select s, a, x2
  y3 = select s, a, x3
  store dst, 0, y0
  store dst, 1, y1
  store dst, 2, y2
  store dst, 3, y3
  ret 0
}
global src: arr<u32,8> = counting
global dst: arr<u64,8> = zeros
"""
    prog = parse_ir(src)
    out, _ = pipe(prog, slp=True)
    args = {"a": 4294967301, "s": 1}
    assert execute(prog, args).memory["dst"][:4] == (4294967301,) * 4
    assert execute(out, args).memory == execute(prog, args).memory
    _, log = pipe(parse_ir(src.replace("a: u64", "a: u32")), slp=True)
    assert log[0].summary != "no change"


def test_slp_skips_when_a_member_escapes():
    escaped = SLP_SRC.replace("ret 0", "ret y1")
    _, log = pipe(parse_ir(escaped), slp=True)
    assert [e.summary for e in log] == ["no change"]


def test_slp_skips_non_consecutive_offsets():
    gappy = SLP_SRC.replace("store dst, 3, y3", "store dst, 4, y3")
    _, log = pipe(parse_ir(gappy), slp=True)
    assert [e.summary for e in log] == ["no change"]


# ----------------------------------------------------------------------
# guards: each program meets one check that refuses a rewrite, so the
# step reports no change and changes nothing


GUARDED = {
    # r1 is read after the pair of selects that threading would remove.
    "jump_thread": """
func f(secret a: u4) {
bb0:
  c1 = icmp.lt a, 10
  r1 = select c1, 16, 0
  c2 = icmp.gt a, 12
  t = or r1, 4
  r = select c2, t, r1
  u = add r, r1
  ret u
}
""",
    # loopA leaves the loop, and `found` reads its load.
    "loop_unroll": """
func f(secret s: u2) {
bb0:
  br loopH
loopH:
  i = phi [bb0: 0], [loopB: inext]
  c = icmp.lt i, 4
  condbr c, loopA, done
loopA:
  v = load tbl, i
  e = icmp.eq v, s
  condbr e, found, loopB
loopB:
  inext = add i, 1
  br loopH
found:
  ret v
done:
  ret 0
}
global tbl: arr<u32,4> = [1, 2, 3, 9]
""",
    # The exit reads the loop's compare, which no other check looks at.
    "loop_vectorize": """
func f(secret k: u8, public n: u32 = 8) {
bb0:
  br loop
loop:
  i = phi [bb0: 0], [body: i1]
  c = icmp.lt i, n
  condbr c, body, exit
body:
  x = load src, i
  y = add x, k
  store dst, i, y
  i1 = add i, 1
  br loop
exit:
  ret c
}
global src: arr<u32,8> = counting
global dst: arr<u32,8> = zeros
""",
    # z reads dst[0] between the stores that packing would move past it.
    "slp": """
func f(secret a: u8) {
bb0:
  x0 = load src, 0
  x1 = load src, 1
  x2 = load src, 2
  x3 = load src, 3
  y0 = add x0, a
  y1 = add x1, a
  y2 = add x2, a
  y3 = add x3, a
  store dst, 0, y0
  z = load dst, 0
  store dst, 1, y1
  store dst, 2, y2
  store dst, 3, y3
  ret z
}
global src: arr<u32,8> = counting
global dst: arr<u32,8> = zeros
""",
}


@pytest.mark.parametrize("name", GUARDED)
def test_a_guard_refuses_a_rewrite_that_would_break_the_program(name):
    prog = parse_ir(GUARDED[name])
    func = ir.copy_program(prog).function()
    assert passes._PASSES[name](func, PipelineSpec()) is False
    assert func == prog.function()
    out, _ = pipe(prog, **{name: True})
    low, _ = lower(out, PROFILES["x86-64"])
    for args in gen_inputs(prog).arg_dicts():
        want, got = execute(prog, args), execute(low, args)
        assert (got.result, got.memory) == (want.result, want.memory), args


# A block that no edge reaches reads s2 from the latch's tail.  The latch
# dominates no block but itself, so no reachable block outside the tail
# and the header's phis can read a tail value; cleanup deletes the
# unreachable reader right after the split.
UNREACHED_READER = """
func f(secret p: arr<u8,4>, public n: u32 = 4) {
bb0:
  br loopH
loopH:
  i = phi [bb0: 0], [loopB: inext]
  s = phi [bb0: 0], [loopB: s2]
  c = icmp.lt i, n
  condbr c, loopB, done
loopB:
  pv = load p, i
  cc = icmp.lt pv, 128
  t = select cc, 1, 2
  s2 = add s, t
  inext = add i, 1
  br loopH
done:
  ret s
dead:
  u = add s2, 1
  ret u
}
"""


def test_path_split_splits_a_latch_that_only_an_unreachable_block_reads():
    prog = parse_ir(UNREACHED_READER)
    out, log = pipe(prog, path_split=True)
    assert [e.summary for e in log] == ["+7/-6 instructions"]
    assert validate(out) == []
    assert "dead" not in {b.label for b in out.function().blocks}
    low, _ = lower(out, PROFILES["x86-64"])
    for args in gen_inputs(prog).arg_dicts():
        want, got = execute(prog, args), execute(low, args)
        assert (got.result, got.memory) == (want.result, want.memory), args


# ----------------------------------------------------------------------
# if conversion


DIAMOND = """
func f(secret s: u1, public a: u32 = 5) {
bb0:
  condbr s, bbT, bbF
bbT:
  t = add a, 1
  br bbJ
bbF:
  u = add a, 2
  br bbJ
bbJ:
  r = phi [bbT: t], [bbF: u]
  ret r
}
"""


def test_if_convert_flattens_pure_diamond():
    prog, log = pipe(parse_ir(DIAMOND), if_convert=True)
    func = prog.function()
    assert len(func.blocks) == 1
    sel = next(i for i in func.instructions() if i.opcode == "select")
    assert sel.operands == ("s", "t", "u")
    assert log[0].summary == "+1/-4 instructions"
    assert execute(prog, {"s": 1, "a": 5}).result == 6
    assert execute(prog, {"s": 0, "a": 5}).result == 7


def diamond_chain(n: int):
    """``n`` pure secret diamonds in a row, each join the next head."""
    lines = ["func f(secret s: u1, public a: u32 = 5) {", "j:"]
    v = "a"
    for k in range(n):
        lines += [f"  condbr s, t{k}, f{k}",
                  f"t{k}:", f"  x{k} = add {v}, 1", f"  br j{k}",
                  f"f{k}:", f"  y{k} = add {v}, 2", f"  br j{k}",
                  f"j{k}:", f"  v{k} = phi [t{k}: x{k}], [f{k}: y{k}]"]
        v = f"v{k}"
    lines += [f"  ret {v}", "}"]
    return parse_ir("\n".join(lines))


def test_if_convert_takes_every_diamond_in_one_step():
    # 250 diamonds in a row, more than the 200-step bound: one step
    # converts them all, so the bound counts rounds, not diamonds.
    n = 250
    prog = diamond_chain(n)
    out, _ = pipe(prog, if_convert=True)
    func = out.function()
    assert len(func.blocks) == 1
    assert sum(i.opcode == "select" for i in func.instructions()) == n
    assert execute(out, {"s": 1, "a": 5}).result == 5 + n
    assert execute(out, {"s": 0, "a": 5}).result == 5 + 2 * n


def test_if_convert_reads_the_function_once_per_step(monkeypatch):
    # A step builds the predecessor map once, looks up no block by a scan
    # of the block list and rebuilds that list once, however many diamonds
    # it converts; 4x the diamonds take at most 6x the time.
    counts: dict[str, int] = {}
    for key, obj in (("predecessors", passes), ("block", ir.Function)):
        real = getattr(obj, key)
        monkeypatch.setattr(obj, key, lambda *a, key=key, real=real: (
            counts.__setitem__(key, counts.get(key, 0) + 1) or real(*a)))

    class Watched(ir.Function):         # counts new block lists
        def __setattr__(self, attr, value):
            if attr == "blocks":
                counts["rebuilds"] = counts.get("rebuilds", 0) + 1
            super().__setattr__(attr, value)

    def step(n):
        """The step's counts, the blocks it leaves and its best time."""
        best = float("inf")
        for _ in range(5):
            func = diamond_chain(n).function()
            func.__class__ = Watched
            counts.clear()
            gc.collect()
            gc.disable()                # time the step, not a collection
            try:
                start = time.perf_counter()
                assert passes.if_convert(func)
                best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
        return dict(counts), len(func.blocks), best

    (small, small_blocks, t_small), (large, large_blocks, t_large) = \
        step(250), step(1000)
    assert small == large == {"predecessors": 1, "rebuilds": 1}
    assert (small_blocks, large_blocks) == (251, 1001)
    assert t_large <= 6 * t_small, (t_small, t_large)


def test_if_convert_barred_by_memory_ops():
    barred = DIAMOND.replace("t = add a, 1", "t = add a, 1\n  store g, 0, t")
    barred += "global g: arr<u32,1> = zeros\n"
    _, log = pipe(parse_ir(barred), if_convert=True)
    assert [e.summary for e in log] == ["no change"]


# ----------------------------------------------------------------------
# pipeline composition


def test_log_records_every_enabled_pass():
    prog = load_program("fig1a_branch")
    spec = PipelineSpec(toggles={k: True for k in PASS_ORDER})
    out, log = run_pipeline(prog, spec)
    assert [e.pass_name for e in log] == list(PASS_ORDER)
    assert validate(out) == []


def test_the_pipeline_leaves_no_cyclic_garbage():
    # With the collector off, every object the passes drop must be freed
    # by its reference count: a cycle would keep a whole function alive
    # until the next collection.
    programs = {name: load_program(name) for name in names()}
    gc.collect()
    gc.disable()
    try:
        for prog in programs.values():
            for preset in PRESETS.values():
                run_pipeline(prog, preset.spec)
    finally:
        gc.enable()
    assert gc.collect() == 0


def test_all_passes_on_all_corpus_entries_stay_valid():
    spec = PipelineSpec(toggles={k: True for k in PASS_ORDER})
    for name in names():
        out, _ = run_pipeline(load_program(name), spec)
        assert validate(out) == [], name


class SpecReads:
    """A spec that records the name of each field read from it."""

    def __init__(self, spec: PipelineSpec, reads: set[str]):
        self.spec, self.reads = spec, reads

    def __getattr__(self, name):
        self.reads.add(name)
        return getattr(self.spec, name)


def test_only_unswitching_reads_the_spec():
    # run_pipeline keys the states it keeps by the passes applied, with
    # the unswitch threshold for loop_unswitch: a step that read any other
    # field of the spec would make two specs share a state they should
    # not.  Every pass runs over every corpus program here.
    spec = PipelineSpec(toggles={k: True for k in PASS_ORDER})
    reads = {name: set() for name in PASS_ORDER}
    for program in names():
        prog = load_program(program)
        func = prog.function()
        for name in PASS_ORDER:
            step = passes._PASSES[name]
            passes._to_fixpoint(
                lambda f: step(f, SpecReads(spec, reads[name])), func, name)
            cleanup(func, prog.globals)
    assert {k: v for k, v in reads.items() if v} == \
        {"loop_unswitch": {"unswitch_threshold"}}


# ----------------------------------------------------------------------
# the memo of pipeline states


def study_specs() -> list[PipelineSpec]:
    """Every preset, then every canonical matrix row over llvm18-O3."""
    from ctlab.cli import _CANONICAL_ROWS, _CANONICAL_VARY
    base = PRESETS["llvm18-O3"].spec
    return [p.spec for p in PRESETS.values()] + [
        base.with_toggles(**dict(zip(_CANONICAL_VARY, row)))
        for row in _CANONICAL_ROWS]


def shown(result) -> tuple:
    """A pipeline's result as text: its program with ids, its next fresh
    id and its log."""
    out, log = result
    return print_ir(out), out.function().next_id, repr(log)


def cold(prog, spec) -> tuple:
    """``shown`` of a run that starts from an empty memo."""
    passes._states.clear()
    return shown(run_pipeline(prog, spec))


def test_the_memo_gives_what_a_cold_run_gives():
    # The oracle: every corpus program under every preset and every
    # canonical matrix row, run forwards and then in reverse, each time
    # from an empty memo, gives what each run gives on its own.
    runs = [(load_program(name), spec) for name in names()
            for spec in study_specs()]
    want = [cold(prog, spec) for prog, spec in runs]
    for step in (1, -1):
        passes._states.clear()
        got = [shown(run_pipeline(prog, spec)) for prog, spec in runs[::step]]
        assert got == want[::step]


def test_what_the_key_leaves_out_gets_its_own_state():
    # program_key leaves out source locations and the next fresh id, but
    # the passes copy both into their output; and the unswitch threshold
    # changes what unswitching does.  Each such input gets its own output.
    spec = PRESETS["gcc13-O3"].spec
    source = load_program("loop_unswitch_toy")
    moved = copy_program(source)
    last = moved.function().blocks[-1].instrs
    last[-1] = last[-1]._replace(loc=SourceLoc("moved.c", 99))
    later = copy_program(source)
    later.function().next_id += 5
    assert program_key(moved) == program_key(later) == program_key(source)
    runs = [(source, spec), (moved, spec), (later, spec),
            (source, replace(spec, unswitch_threshold=2))]
    want = [cold(prog, spec) for prog, spec in runs]
    assert len(set(want)) == len(runs)
    passes._states.clear()
    assert [shown(run_pipeline(prog, spec)) for prog, spec in runs] == want


def test_a_returned_program_is_the_callers_own():
    # Neither changing what a run returned nor changing its input changes
    # what a later run returns.
    spec = PRESETS["llvm18-O3"].spec
    source = load_program("rsa_bearssl_lookup")
    want = cold(source, spec)
    out, log = run_pipeline(source, spec)
    for prog in (out, source):
        func = prog.function()
        func.blocks[-1].instrs.pop()
        func.blocks.pop(0)
        func.params[0].name = "renamed"
        func.next_id = 0
        prog.globals.clear()
    log.clear()
    assert shown(run_pipeline(load_program("rsa_bearssl_lookup"), spec)) == \
        want


def test_numbers_the_key_cannot_tell_apart_are_run_without_the_memo():
    # 1.0 == 1, so a program that holds a number that is not an int is
    # never answered from the state of the equal program of ints: as
    # without the memo, a `const 1.0` is an invalid input, and a width of
    # 32.0 fails in the passes.  Neither keeps a state.
    src = ("func f(public n: u32 = 1) {\nbb0:\n  c = const 1\n"
           "  x = add n, c\n  ret x\n}")
    prog = parse_ir(src)
    passes._states.clear()
    pipe(prog, instcombine=True)
    for k, change, error in [(0, {"operands": (1.0,)}, IRError),
                             (1, {"width": 32.0}, TypeError)]:
        bad = copy_program(prog)
        instrs = bad.function().blocks[0].instrs
        instrs[k] = instrs[k]._replace(**change)
        assert program_key(bad) == program_key(prog)
        with pytest.raises(error):
            pipe(bad, instcombine=True)
    assert len(passes._states) == 1


def test_the_memo_keeps_the_last_memo_size_states(monkeypatch):
    applied = []
    real = passes._log_entry
    monkeypatch.setattr(passes, "_log_entry", lambda *a: (
        applied.append(a[0]) or real(*a)))
    progs = [parse_ir(f"func f(public n: u32 = 1) {{\nbb0:\n  x = add n, {k}"
                      "\n  ret x\n}") for k in range(ir.MEMO_SIZE + 1)]
    passes._states.clear()
    for prog in progs:
        pipe(prog, instcombine=True)
    assert len(applied) == ir.MEMO_SIZE + 1
    assert len(passes._states) == ir.MEMO_SIZE
    pipe(progs[-1], instcombine=True)   # kept
    assert len(applied) == ir.MEMO_SIZE + 1
    pipe(progs[0], instcombine=True)    # the least recently used went
    assert len(applied) == ir.MEMO_SIZE + 2


# ----------------------------------------------------------------------
# what the passes produce, pinned


GOLDEN_PIPELINES = Path(__file__).resolve().parent / "golden" / "pipelines.txt"


def render_log(log: list[PassLogEntry]) -> str:
    """One line per pass application, with id churn indented below."""
    lines = []
    for e in log:
        lines.append(f"{e.pass_name:<14} {e.function:<20} {e.summary}")
        if e.created:
            lines.append(f"{'':14} created ids: {', '.join(map(str, e.created))}")
        if e.deleted:
            lines.append(f"{'':14} deleted ids: {', '.join(map(str, e.deleted))}")
    return "\n".join(lines)


def pipeline_digests() -> str:
    """One line per corpus program x preset: sha256 prefixes of the midend
    IR, the lowered IR, and the pass log followed by the lowering log."""
    lines = []
    for name in names():
        for preset in PRESETS.values():
            spec = preset.spec
            mid, log = run_pipeline(load_program(name), spec)
            low, lower_log = lower(mid, PROFILES[spec.backend],
                                   spec.cmov_conversion)
            texts = {"mid": print_ir(mid), "low": print_ir(low),
                     "log": render_log(log + lower_log)}
            digests = " ".join(
                f"{k}={hashlib.sha256(t.encode()).hexdigest()[:16]}"
                for k, t in texts.items())
            lines.append(f"{name} {preset.name} {digests}")
    return "\n".join(lines) + "\n"


def test_pipelines_match_golden():
    assert pipeline_digests().splitlines() == \
        GOLDEN_PIPELINES.read_text(encoding="utf-8").splitlines()


if __name__ == "__main__":
    GOLDEN_PIPELINES.write_text(pipeline_digests(), encoding="utf-8")
