"""Loop discovery and counted-loop recognition."""

from __future__ import annotations

from collections import Counter

import pytest

from ctlab import backend, cfg, ir, passes, tracer
from ctlab.backend import PROFILES, lower
from ctlab.cfg import counted_loop_info, innermost, natural_loops
from ctlab.corpus import load_program, names
from ctlab.ir import control_flow, parse_ir, predecessors, successors
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline
from ctlab.tracer import execute, gen_inputs
from conftest import start_cold

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


def test_a_bound_and_start_defined_by_consts_resolve_to_them():
    # A const, a parameter and an immediate have nothing to follow.
    src = """
func f(public n: u32 = 4) {
bb0:
  lo = const 2
  hi = const 7
  br h
h:
  i = phi [bb0: lo], [b: i1]
  c = icmp.lt i, hi
  condbr c, b, done
b:
  i1 = add i, 1
  br h
done:
  ret i
}
"""
    func = parse_ir(src).function()
    info = counted_loop_info(func, natural_loops(func)[0])
    assert (info.init, info.bound, info.trip_count) == (2, 7, 5)


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
    succs = {b.label: successors(b) for b in func.blocks}
    reach, stack = set(), [func.entry]
    while stack:
        l = stack.pop()
        if l in succs and l not in reach:
            reach.add(l)
            stack.extend(succs[l])
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


def dominator_sets(func):
    """Each reachable block's dominators, itself included, read off the
    dominator tree of ``func``; the tree's O(1) test must agree with them
    on every pair of labels."""
    flow = control_flow(func)
    dom = {}
    for l in flow.reachable:
        dom[l] = {l}
        d = l
        while flow.idom(d) is not None:
            d = flow.idom(d)
            dom[l].add(d)
    labels = [b.label for b in func.blocks]
    assert [(a, b) for a in labels for b in labels
            if flow.dominates(a, b) != (a in dom.get(b, ()))] == []
    return dom


def test_dominators_match_the_reference_on_every_pipeline_function(
        monkeypatch):
    # Every function the passes and the lowering return or ask about, the
    # ones in the middle of a pass's fixpoint included.
    sizes = []
    real = ir.control_flow
    seen = {}           # id -> facts, each held so that no id is reused

    def checked(func):
        # Functions of one shape share their facts: check them once.
        flow = real(func)
        if id(flow) not in seen:
            seen[id(flow)] = flow
            assert dominator_sets(func) == reference_dominators(func), \
                func.name
            sizes.append(len(func.blocks))
        return flow

    for module in (ir, cfg, passes, tracer):
        monkeypatch.setattr(module, "control_flow", checked)
    start_cold()                        # run the passes, not the memo
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
    assert dominator_sets(func) == reference_dominators(func) == \
        {l: set(d.split()) for l, d in want.items()}


# ----------------------------------------------------------------------
# Facts built once per shape of the control-flow graph


def study():
    """Every corpus program under every preset, each lowered program run
    on one input and checked against its source."""
    for name in names():
        source = load_program(name)
        args = gen_inputs(source, count=1, seed=0).arg_dicts()[0]
        execute(source, args)
        for p in PRESETS.values():
            mid, _ = run_pipeline(source, p.spec)
            low, _ = lower(mid, PROFILES[p.spec.backend],
                           p.spec.cmov_conversion)
            execute(low, args)


def test_a_study_builds_each_graphs_facts_once(monkeypatch):
    # A study meets every corpus program under every preset, and checking
    # the results meets each source program.  Each distinct graph builds
    # its dominator tree and its loops at most once, and a second round
    # builds none: a study that outgrew the memo would rebuild on every
    # round.
    trees, loops = Counter(), Counter()
    real_flow, real_loops = ir.ControlFlow, cfg._find_loops

    def flow(labels, successors):
        trees[labels, successors] += 1
        return real_flow(labels, successors)

    def find_loops(flow):
        loops[flow.labels, flow.successors] += 1
        return real_loops(flow)

    monkeypatch.setattr(ir, "ControlFlow", flow)
    monkeypatch.setattr(cfg, "_find_loops", find_loops)
    start_cold()
    study()
    assert max(trees.values()) == max(loops.values()) == 1
    built = (sum(trees.values()), sum(loops.values()))
    study()
    assert (sum(trees.values()), sum(loops.values())) == built


def test_a_study_checks_and_translates_each_program_once(monkeypatch):
    # The same for the other per-process memos.  A cold study walks each
    # pass output that changed and each lowering once, when it is frozen:
    # the programs walked are the programs the pipeline and the lowering
    # keep, less the corpus inputs, which were checked when the corpus
    # froze them.  It translates each distinct key
    # once, reaches each pipeline state by one pass application, and a
    # second round walks, translates, applies and lowers nothing.  A
    # corpus or a preset list that outgrows ir.MEMO_SIZE fails here: the
    # one size holds the study's translations, graphs, pipeline states and
    # lowerings.
    walked = []
    translations, graphs = Counter(), Counter()
    applications, lowerings = [], []
    real_validate = ir.validate
    real_translator, real_flow = tracer._Translator, ir.ControlFlow
    real_entry, real_lower = passes._log_entry, backend._lower_function

    def entry(name, func, before):      # one per pass application
        applications.append(name)
        return real_entry(name, func, before)

    def lower_function(func, profile, cmov_conversion):
        lowerings.append(profile)
        return real_lower(func, profile, cmov_conversion)

    def translator(prog):
        translations[prog.key] += 1
        return real_translator(prog)

    def flow(labels, successors):
        graphs[labels, successors] += 1
        return real_flow(labels, successors)

    monkeypatch.setattr(ir, "validate", lambda prog: (
        walked.append(prog) or real_validate(prog)))
    monkeypatch.setattr(tracer, "_Translator", translator)
    monkeypatch.setattr(ir, "ControlFlow", flow)
    monkeypatch.setattr(passes, "_log_entry", entry)
    monkeypatch.setattr(backend, "_lower_function", lower_function)
    start_cold()
    study()
    inputs = {id(load_program(name)) for name in names()}
    kept = [out for out, _, _ in passes._states.values()
            if id(out) not in inputs]
    kept += [out for out, _ in backend._lowered.values()]
    assert len({*map(id, walked)}) == len(walked)           # each once
    assert {*map(id, walked)} == {*map(id, kept)}
    assert max(translations.values()) == 1
    assert len(applications) == 200 and len(passes._states) == 210
    assert len(lowerings) == len(backend._lowered) == 48
    assert max(len(translations), len(graphs)) <= ir.MEMO_SIZE
    def counts():
        return (len(walked), sum(translations.values()), len(applications),
                len(lowerings))

    done = counts()
    study()
    assert counts() == done


def test_cached_loops_are_frozen():
    func = load_program("rsa_bearssl_lookup").function()
    outer, inner = natural_loops(func)
    with pytest.raises(AttributeError):
        outer.preheader = None
    with pytest.raises(AttributeError):
        inner.blocks.add("bb0")
    assert natural_loops(func) == [outer, inner]


def test_a_retargeted_branch_gets_fresh_facts():
    func = parse_ir(NESTED).function()
    flow = control_flow(func)
    assert [l.header for l in natural_loops(func)] == ["oh", "bh", "ah", "ch"]
    # `ol` leaves for `done` instead of going back to `oh`: no outer loop.
    ol = func.block("ol")
    ol.instrs[-1] = ol.instrs[-1]._replace(labels=("done",))
    fresh = control_flow(func)
    assert fresh is not flow
    assert (flow.preds("done"), fresh.preds("done")) == (("oh",),
                                                         ("oh", "ol"))
    assert [l.header for l in natural_loops(func)] == ["bh", "ah", "ch"]
