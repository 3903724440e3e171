"""Loop discovery and counted-loop recognition."""

from __future__ import annotations

import pytest

from ctlab import cfg, ir
from ctlab.backend import PROFILES, lower
from ctlab.cfg import counted_loop_info, innermost, natural_loops
from ctlab.corpus import load_program, names
from ctlab.ir import dominators, parse_ir, predecessors, reachable
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline

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
    assert innermost(loops) == [inner]
    assert inner.blocks < outer.blocks


# An outer loop holding two sibling loops, the second of which holds a
# third: only the first sibling and the third loop are innermost.
NESTED = """
func f(public n: u32 = 2) {
bb0:
  br oh
oh:
  i = phi [bb0: 0], [ol: i1]
  c = icmp.lt i, n
  condbr c, ah, done
ah:
  j = phi [oh: 0], [ah: j1]
  j1 = add j, 1
  cj = icmp.lt j1, n
  condbr cj, ah, bh
bh:
  k = phi [ah: 0], [bl: k1]
  ck = icmp.lt k, n
  condbr ck, ch, ol
ch:
  m = phi [bh: 0], [ch: m1]
  m1 = add m, 1
  cm = icmp.lt m1, n
  condbr cm, ch, bl
bl:
  k1 = add k, 1
  br bh
ol:
  i1 = add i, 1
  br oh
done:
  ret i
}
"""


def test_innermost_keeps_only_leaf_loops_in_order():
    loops = natural_loops(parse_ir(NESTED).function())
    assert [l.header for l in loops] == ["oh", "bh", "ah", "ch"]
    assert [l.header for l in innermost(loops)] == ["ah", "ch"]


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


# ----------------------------------------------------------------------
# dominators against the iterative set-intersection form


def reference_dominators(func):
    """Dominator sets by intersecting predecessors' sets to a fixpoint,
    over the reachable blocks only."""
    reach = reachable(func)
    order = [b.label for b in func.blocks if b.label in reach]
    preds = predecessors(func)
    dom = {l: set(order) for l in order}
    dom[func.entry] = {func.entry}
    changed = True
    while changed:
        changed = False
        for l in order:
            if l == func.entry:
                continue
            ps = [p for p in preds[l] if p in reach]
            new = set(order)
            for p in ps:
                new &= dom[p]
            new.add(l)
            if not ps:
                new = {l}
            if new != dom[l]:
                dom[l] = new
                changed = True
    return dom


def test_dominators_match_the_reference_on_every_pipeline_function(
        monkeypatch):
    # Every function the passes and the lowering return or ask about, the
    # ones in the middle of a pass's fixpoint included.
    sizes = []

    def checked(func):
        got = dominators(func)
        assert got == reference_dominators(func), func.name
        sizes.append(len(func.blocks))
        return got

    monkeypatch.setattr(cfg, "dominators", checked)
    monkeypatch.setattr(ir, "dominators", checked)
    for name in names():
        source = load_program(name)
        checked(source.function())
        for p in PRESETS.values():
            mid, _ = run_pipeline(source, p.spec)
            low, _ = lower(mid, PROFILES[p.spec.backend],
                           p.spec.cmov_conversion)
            checked(mid.function())
            checked(low.function())
    assert max(sizes) >= 318            # ecdsa, just unrolled


@pytest.mark.parametrize("src, want", [
    # a diamond: the join's dominators are what both arms share
    ("""
e:
  condbr c, l, r
l:
  br j
r:
  br j
j:
  ret 0
""", {"e": "e", "l": "e l", "r": "e r", "j": "e j"}),
    # an irreducible loop entered at both a and b
    ("""
e:
  condbr c, a, b
a:
  br b
b:
  condbr c, a, x
x:
  ret 0
""", {"e": "e", "a": "e a", "b": "e b", "x": "e b x"}),
    # unreachable blocks, one of them the only predecessor of another
    ("""
e:
  br x
u:
  br x
v:
  br w
w:
  ret 1
x:
  ret 0
""", {"e": "e", "x": "e x"}),
    # a self-loop, and a back edge into the entry block
    ("""
e:
  br s
s:
  condbr c, s, t
t:
  condbr c, e, x
x:
  ret 0
""", {"e": "e", "s": "e s", "t": "e s t", "x": "e s t x"}),
], ids=["diamond", "irreducible", "unreachable", "self-loop"])
def test_dominators_of_hand_written_shapes(src, want):
    func = parse_ir("func f(public c: u32 = 1) {" + src + "}").function()
    assert dominators(func) == reference_dominators(func) == \
        {l: set(d.split()) for l, d in want.items()}
