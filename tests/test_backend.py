"""Instruction selection for select/vselect on the target profiles."""

from __future__ import annotations

import gc
import time

import pytest

from ctlab import backend, passes
from ctlab.backend import PROFILES, LoweringError, lower
from ctlab.ir import parse_ir, validate
from ctlab.tracer import BranchDir, execute

X64 = PROFILES["x86-64"]
I386 = PROFILES["i386"]

PLAIN_SELECT = """
func f(secret s: u1, public a: u32 = 3, public b: u32 = 4) {
bb0:
  r = select s, a, b   !loc sel.c:2
  ret r                !loc sel.c:3
}
"""


def test_profiles():
    assert X64.has_cmov
    assert not I386.has_cmov
    assert set(PROFILES) == {"x86-64", "i386"}


def test_select_becomes_cmov_keeping_id_and_loc():
    prog = parse_ir(PLAIN_SELECT)
    low, log = lower(prog, X64)
    assert low.stage == "lowered"
    func = low.function()
    cmov = func.block("bb0").instrs[0]
    assert cmov.opcode == "cmov"
    assert cmov.iid == 0                          # same instruction, new opcode
    assert (cmov.loc.file, cmov.loc.line) == ("sel.c", 2)
    assert cmov.operands == ("s", "a", "b")
    assert log[0].summary == "no change"          # id set is unchanged
    t = execute(low, {"s": 1, "a": 3, "b": 4})
    assert t.result == 3 and t.events == []


def test_i386_always_branches():
    low, log = lower(parse_ir(PLAIN_SELECT), I386)
    func = low.function()
    labels = [b.label for b in func.blocks]
    assert labels == ["bb0", "bb0.t", "bb0.f", "bb0.j"]
    condbr = func.block("bb0").instrs[-1]
    assert condbr.opcode == "condbr" and condbr.operands == ("s",)
    assert (condbr.loc.file, condbr.loc.line) == ("sel.c", 2)
    phi = func.block("bb0.j").instrs[0]
    assert phi.opcode == "phi" and phi.result == "r"
    assert phi.operands == ("a", "b")
    for s in (0, 1):
        t = execute(low, {"s": s, "a": 3, "b": 4})
        assert t.result == (3 if s else 4)
        assert t.events == [BranchDir(instr=condbr.iid, taken=bool(s))]


LOOP_SELECT = """
func f(secret s: u1, public n: u32 = 4) {
bb0:
  br loopH
loopH:
  i = phi [bb0: 0], [loopB: inext]
  c = icmp.lt i, n
  condbr c, loopB, done
loopB:
  v = load g, i
  r = select s, v, 0
  store g, i, r
  inext = add i, 1
  br loopH
done:
  ret 0
}
global g: arr<u32,8> = counting
"""


def test_cmov_conversion_targets_loads_in_innermost_loops():
    prog = parse_ir(LOOP_SELECT)
    gentle, _ = lower(prog, X64)
    assert any(i.opcode == "cmov" for i in gentle.function().instructions())

    converted, log = lower(prog, X64, cmov_conversion=True)
    func = converted.function()
    assert all(i.opcode != "cmov" for i in func.instructions())
    assert any(b.label.startswith("loopB.") for b in func.blocks)
    assert validate(converted) == []
    # the diamond branches on the secret once per iteration
    t = execute(converted, {"s": 1, "n": 4})
    dirs = [e for e in t.events if isinstance(e, BranchDir)]
    assert len(dirs) > 5                          # loop header + per-item guard


def test_cmov_conversion_ignores_selects_outside_loops():
    # same select, no loop: conversion leaves the cmov alone
    src = """
func f(secret s: u1, public a: u32 = 3) {
bb0:
  v = load g, 0
  r = select s, v, 0
  ret r
}
global g: arr<u32,8> = counting
"""
    low, _ = lower(parse_ir(src), X64, cmov_conversion=True)
    assert any(i.opcode == "cmov" for i in low.function().instructions())


def test_cmov_conversion_needs_load_derived_operand():
    # loop select with loop-invariant operands: stays a cmov
    src = """
func f(secret s: u1, public n: u32 = 4) {
bb0:
  br loopH
loopH:
  i = phi [bb0: 0], [loopB: inext]
  c = icmp.lt i, n
  condbr c, loopB, done
loopB:
  r = select s, 7, 9
  store g, i, r
  inext = add i, 1
  br loopH
done:
  ret 0
}
global g: arr<u32,8> = zeros
"""
    low, _ = lower(parse_ir(src), X64, cmov_conversion=True)
    assert any(i.opcode == "cmov" for i in low.function().instructions())


def test_multiple_selects_in_one_block():
    src = """
func f(secret s: u1, secret u: u1, public a: u32 = 1) {
bb0:
  r1 = select s, a, 0
  r2 = select u, r1, a
  x = add r1, r2
  ret x
}
"""
    low, log = lower(parse_ir(src), I386)
    assert validate(low) == []
    assert all(i.opcode != "select" for i in low.function().instructions())
    for s in (0, 1):
        for u in (0, 1):
            want = ((1 if s else 0) + ((1 if s else 0) if u else 1)) & 0xFFFFFFFF
            assert execute(low, {"s": s, "u": u, "a": 1}).result == want


def select_run(n: int):
    """``n`` selects on the secret in a row in one block, each choosing
    between the previous one and a constant; the block leaves along a
    phi's edge."""
    lines = ["func f(secret s: u1, public a: u32 = 3) {", "bb0:"]
    v = "a"
    for k in range(n):
        lines.append(f"  x{k} = select s, {v}, {k}")
        v = f"x{k}"
    lines += ["  br done", "done:", f"  r = phi [bb0: {v}]", "  ret r", "}"]
    return parse_ir("\n".join(lines))


def test_lowering_is_linear_in_the_selects_it_branches(monkeypatch):
    # A lowering takes the labels once and renames phi arms only in the
    # successors of each block it splits, however many selects it
    # branches; 4x the selects in one block take at most 6x the time.
    counts = {"labels": 0, "phi blocks": 0}
    real_labels, real_fix = passes._labels, passes._fix_phi_arm_labels

    def labels(func):
        counts["labels"] += 1
        return real_labels(func)

    def fix(blocks, renames):
        counts["phi blocks"] = max(counts["phi blocks"], len(blocks))
        return real_fix(blocks, renames)

    monkeypatch.setattr(backend, "_labels", labels)
    monkeypatch.setattr(backend, "_fix_phi_arm_labels", fix)

    def run(n):
        """The counts, the lowered program and the best time."""
        best = float("inf")
        for _ in range(5):
            prog = select_run(n)
            counts.update(dict.fromkeys(counts, 0))
            gc.collect()
            gc.disable()                # time the lowering, not a collection
            try:
                start = time.perf_counter()
                low, _ = lower(prog, I386)
                best = min(best, time.perf_counter() - start)
            finally:
                gc.enable()
        return dict(counts), low, best

    (small, _, t_small), (large, low, t_large) = run(100), run(400)
    assert small == large == {"labels": 1, "phi blocks": 1}
    assert len(low.function().blocks) == 2 + 3 * 400
    assert t_large <= 6 * t_small, (t_small, t_large)
    for s in (0, 1):
        assert execute(low, {"s": s, "a": 3}).result == (3 if s else 399)


VSELECT = """
func f(secret s: u1, public a: u32 = 2) {
bb0:
  m = splat.4 s        !loc v.c:1
  x = vload.4 g, 0     !loc v.c:2
  y = splat.4 a        !loc v.c:3
  r = vselect.4 m, x, y  !loc v.c:4
  vstore.4 g, 4, r     !loc v.c:5
  ret 0                !loc v.c:6
}
global g: arr<u32,8> = counting
"""


def test_vselect_branches_on_the_splat_scalar():
    low, _ = lower(parse_ir(VSELECT), X64)
    func = low.function()
    condbr = func.block("bb0").instrs[-1]
    assert condbr.opcode == "condbr" and condbr.operands == ("s",)
    for s in (0, 1):
        t = execute(low, {"s": s, "a": 2})
        want = (0, 1, 2, 3) if s else (2, 2, 2, 2)
        assert t.memory["g"][4:] == want


def test_vselect_requires_splat_mask():
    src = """
func f(secret s: u1, public a: u32 = 2) {
bb0:
  x = vload.4 g, 0
  r = vselect.4 x, x, x
  vstore.4 g, 4, r
  ret 0
}
global g: arr<u32,8> = counting
"""
    with pytest.raises(LoweringError):
        lower(parse_ir(src), X64)


def test_lowering_twice_rejected():
    low, _ = lower(parse_ir(PLAIN_SELECT), X64)
    with pytest.raises(LoweringError):
        lower(low, X64)


def test_lower_log_shape():
    _, log = lower(parse_ir(PLAIN_SELECT), I386)
    (entry,) = log
    assert entry.pass_name == "lower"
    assert entry.summary == "+4/-1 instructions"
    assert len(entry.created) == 4 and len(entry.deleted) == 1
