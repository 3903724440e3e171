"""Interpreter semantics, leakage events, and input generation."""

from __future__ import annotations

import pytest

from ctlab.ir import parse_ir, validate
from ctlab.tracer import BranchDir, MemAccess, TraceError, execute, gen_inputs


def run(src: str, **args):
    return execute(parse_ir(src), args)


def expr(body: str, **args):
    """Evaluate a tiny single-block function returning `r`."""
    src = f"func f(public a: u32 = 0, public b: u32 = 0) {{\nbb0:\n{body}\n  ret r\n}}"
    return run(src, a=args.get("a", 0), b=args.get("b", 0)).result


def test_arithmetic_wraps_to_width():
    assert expr("  r = add a, 1", a=0xFFFFFFFF) == 0
    assert expr("  r = sub a, 1", a=0) == 0xFFFFFFFF
    assert expr("  r = mul a, a", a=0x10000) == 0
    assert expr("  r = add.8 a, 1", a=255) == 0
    assert expr("  r = neg a", a=1) == 0xFFFFFFFF


def test_shifts_mask_amount_by_width():
    assert expr("  r = shl a, 33", a=1) == 2          # 33 & 31 == 1
    assert expr("  r = lshr a, 32", a=8) == 8         # 32 & 31 == 0
    assert expr("  r = lshr.8 a, 9", a=0x80) == 0x40


def test_icmp_and_select():
    assert expr("  c = icmp.lt a, b\n  r = add c, 0", a=1, b=2) == 1
    assert expr("  c = icmp.ne a, b\n  r = add c, 0", a=3, b=3) == 0
    assert expr("  c = icmp.gt a, b\n  r = select c, 10, 20", a=5, b=1) == 10
    assert expr("  c = icmp.eq a, 0\n  r = select c, 10, 20", a=7) == 20


SELECT_TRACE = """
func f(secret s: u1) {
bb0:
  r = select s, 3, 4
  ret r
}
"""


def test_select_emits_no_events():
    t = run(SELECT_TRACE, s=1)
    assert t.result == 3
    assert t.events == []
    assert run(SELECT_TRACE, s=0).result == 4


def test_cmov_needs_lowered_stage_and_is_silent():
    src = "stage lowered\n" + SELECT_TRACE.replace("select", "cmov")
    t = run(src, s=0)
    assert t.result == 4 and t.events == []


def test_select_rejected_in_lowered_stage():
    # execute takes a validated program; validate is what rejects it.
    assert validate(parse_ir("stage lowered\n" + SELECT_TRACE)) == [
        "f/bb0/id0: select present in lowered program"]


BRANCHY = """
func f(secret s: u1) {
bb0:
  condbr s, bbT, bbF   !loc a.c:1
bbT:
  ret 1
bbF:
  ret 0
}
"""


def test_condbr_records_direction():
    taken = run(BRANCHY, s=1)
    assert taken.events == [BranchDir(instr=0, taken=True)]
    assert taken.result == 1
    untaken = run(BRANCHY, s=0)
    assert untaken.events == [BranchDir(instr=0, taken=False)]


MEMORY = """
func f(secret s: u8) {
bb0:
  v = load table, s
  store scratch, 2, v
  ret v
}
global table: arr<u32,256> = counting
global scratch: arr<u32,4> = zeros
"""


def test_memory_events_and_final_memory():
    t = run(MEMORY, s=9)
    assert t.events == [
        MemAccess(instr=0, kind="load", region="table", offset=9),
        MemAccess(instr=1, kind="store", region="scratch", offset=2),
    ]
    assert t.result == 9
    assert t.memory["scratch"] == (0, 0, 9, 0)
    assert t.memory["table"] == tuple(range(256))


def test_events_are_hashable_value_tuples():
    b = BranchDir(instr=3, taken=True)
    m = MemAccess(instr=3, kind="load", region="table", offset=0)
    assert b == BranchDir(3, True) and hash(b) == hash(BranchDir(3, True))
    assert b != BranchDir(instr=3, taken=False)
    assert (m.instr, m.kind, m.region, m.offset) == (3, "load", "table", 0)
    with pytest.raises(AttributeError):
        b.taken = False
    branches = [BranchDir(i, t) for i in range(2) for t in (False, True)]
    accesses = [MemAccess(i, k, "table", o) for i in range(2)
                for k in ("load", "store") for o in range(2)]
    assert all(x != y and y != x for x in branches for y in accesses)
    assert len(set(branches) | set(accesses)) == len(branches) + len(accesses)

    seen = {tuple(run(MEMORY, s=9).events): "s=9"}
    assert seen[tuple(run(MEMORY, s=9).events)] == "s=9"
    assert tuple(run(MEMORY, s=8).events) not in seen


def test_vector_ops_emit_per_lane_events():
    src = """
func f(secret s: u1) {
bb0:
  v = vload.4 table, 4
  w = splat.4 s
  x = vadd.4 v, w
  vstore.4 out, 0, x
  ret 0
}
global table: arr<u32,16> = counting
global out: arr<u32,4> = zeros
"""
    t = run(src, s=1)
    loads = [e for e in t.events if e.kind == "load"]
    stores = [e for e in t.events if e.kind == "store"]
    assert [e.offset for e in loads] == [4, 5, 6, 7]
    assert [e.offset for e in stores] == [0, 1, 2, 3]
    assert t.memory["out"] == (5, 6, 7, 8)


def test_array_parameters_are_memory_regions():
    src = """
func f(secret m: arr<u8,4>) {
bb0:
  v = load m, 1
  ret v
}
"""
    t = execute(parse_ir(src), {"m": (9, 8, 7, 6)})
    assert t.result == 8
    assert t.events == [MemAccess(instr=0, kind="load", region="m", offset=1)]


def test_out_of_bounds_and_missing_args_raise():
    with pytest.raises(TraceError):
        run(MEMORY.replace("load table, s", "load table, 999"), s=0)
    with pytest.raises(TraceError):
        run(MEMORY)  # no binding for s


def test_branch_to_unknown_block_raises():
    src = """
func f(secret s: u1) {
bb0:
  condbr s, bb1, bbX
bb1:
  ret 0
}
"""
    # execute takes a validated program; validate is what rejects it.
    assert validate(parse_ir(src)) == [
        "f/bb0/id0: unknown target block 'bbX'"]


def test_fuel_limit():
    src = """
func f(secret s: u1) {
bb0:
  br bb0
}
"""
    with pytest.raises(TraceError):
        execute(parse_ir(src), {"s": 0}, fuel=100)


def test_gen_inputs_deterministic_and_distinct():
    prog = parse_ir(SELECT_TRACE)
    a = gen_inputs(prog, count=2, seed=5)
    b = gen_inputs(prog, count=2, seed=5)
    assert a.secret_values == b.secret_values
    assert a.seed == 5
    rows = [tuple(sorted(r.items())) for r in a.secret_values]
    assert len(set(rows)) == len(rows)


def test_gen_inputs_caps_at_secret_domain():
    prog = parse_ir(SELECT_TRACE)           # 1-bit secret: domain size 2
    iset = gen_inputs(prog, count=16, seed=0)
    assert len(iset) == 2
    assert sorted(r["s"] for r in iset.secret_values) == [0, 1]


def test_gen_inputs_publics_take_defaults():
    src = """
func f(secret s: u2, public n: u32 = 7) {
bb0:
  r = add n, s
  ret r
}
"""
    iset = gen_inputs(parse_ir(src), count=4, seed=1)
    assert iset.public_values == {"n": 7}
    args = iset.arg_dicts()
    assert len(args) == 4
    assert all(d["n"] == 7 and 0 <= d["s"] <= 3 for d in args)
    missing = src.replace(" = 7", "")
    with pytest.raises(TraceError):
        gen_inputs(parse_ir(missing))


def test_gen_inputs_array_secret():
    src = """
func f(secret m: arr<u8,2>) {
bb0:
  v = load m, 0
  ret v
}
"""
    iset = gen_inputs(parse_ir(src), count=3, seed=2)
    for row in iset.secret_values:
        m = row["m"]
        assert isinstance(m, tuple) and len(m) == 2
        assert all(0 <= x <= 255 for x in m)
