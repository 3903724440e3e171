"""Loop discovery and counted-loop recognition."""

from __future__ import annotations

from ctlab.cfg import counted_loop_info, natural_loops
from ctlab.corpus import load_program
from ctlab.ir import parse_ir

STRAIGHT = """
func f(public n: u32 = 4) {
bb0:
  a = add n, 1
  ret a
}
"""


def test_no_loops_in_straight_line_code():
    func = parse_ir(STRAIGHT).function()
    assert natural_loops(func) == []


def test_nested_loops_rsa():
    func = load_program("rsa_bearssl_lookup").function()
    loops = natural_loops(func)
    assert len(loops) == 2
    outer, inner = loops                     # outermost first
    assert inner.parent is outer
    assert outer.parent is None
    assert inner.blocks < outer.blocks


def test_counted_loop_fields_simple():
    func = load_program("fig1d_ctlookup").function()
    (loop,) = natural_loops(func)
    info = counted_loop_info(func, loop)
    assert info is not None
    assert info.header == loop.header
    assert info.iv_phi.opcode == "phi"
    assert info.step_instr.opcode == "add" and info.step_instr.operands[1] == 1
    assert info.cmp_instr.pred == "lt"
    assert info.init == 0 and info.bound == 4
    assert info.trip_count == 4
    assert info.exit not in loop.blocks


def test_trip_counts_corpus():
    # ecdsa: both loops have constant bounds
    func = load_program("ecdsa_bearssl_lookup").function()
    outer, inner = natural_loops(func)
    assert counted_loop_info(func, outer).trip_count == 15   # u = 1..16
    assert counted_loop_info(func, inner).trip_count == 4

    # rsa: outer bound resolves through `lim = shl 1, k`; inner bound is a
    # public parameter, so no static trip count.
    func = load_program("rsa_bearssl_lookup").function()
    outer, inner = natural_loops(func)
    oinfo = counted_loop_info(func, outer)
    assert oinfo.bound == 16 and oinfo.trip_count == 15
    iinfo = counted_loop_info(func, inner)
    assert iinfo is not None
    assert iinfo.bound == "mwlen" and iinfo.trip_count is None


def test_not_counted_when_shape_is_off():
    # decrement step: the recognizer wants `add iv, 1`
    src = """
func f(public n: u32 = 4) {
bb0:
  br loop
loop:
  i = phi [bb0: 4], [body: i2]
  c = icmp.lt i, n
  condbr c, body, done
body:
  i2 = sub i, 1
  br loop
done:
  ret i
}
"""
    func = parse_ir(src).function()
    (loop,) = natural_loops(func)
    assert counted_loop_info(func, loop) is None
