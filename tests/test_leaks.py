"""Differential trace comparison and leak attribution."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from ctlab.analysis import analyze
from ctlab.corpus import load_program
from ctlab.ir import SourceLoc, parse_ir
from ctlab.leaks import (
    CONTROL_FLOW,
    MEMORY_ACCESS,
    LeakError,
    LeakReport,
    LeakFinding,
    compare_traces,
    diff_reports,
)
from ctlab.mitigations import preset
from ctlab.tracer import BranchDir, MemAccess, Trace, execute, gen_inputs
from conftest import best_times

SECRET_BRANCH = """
func f(secret s: u1) {
bb0:
  condbr s, bbT, bbF   !loc src.c:3
bbT:
  store out, 0, 1      !loc src.c:4
  br bbJ               !loc src.c:4
bbF:
  store out, 0, 2      !loc src.c:6
  br bbJ               !loc src.c:6
bbJ:
  v = load out, 0      !loc src.c:8
  ret v                !loc src.c:8
}
global out: arr<u32,1> = zeros
"""

SECRET_INDEX = """
func f(secret s: u8) {
bb0:
  v = load table, s    !loc src.c:2
  ret v                !loc src.c:3
}
global table: arr<u32,256> = counting
"""


def traces_for(src: str, rows: list[dict]):
    prog = parse_ir(src)
    return prog, [execute(prog, r) for r in rows]


def test_control_flow_finding():
    prog, traces = traces_for(SECRET_BRANCH, [{"s": 0}, {"s": 1}])
    rep = compare_traces(traces, prog.function().id_to_loc())
    kinds = {(f.instr, f.kind) for f in rep.findings}
    assert (0, CONTROL_FLOW) in kinds
    cf = next(f for f in rep.findings if f.kind == CONTROL_FLOW)
    assert (cf.loc.file, cf.loc.line) == ("src.c", 3)
    assert cf.witness == (0, 1)
    assert not rep.is_clean


def test_memory_finding_and_dedup():
    prog, traces = traces_for(SECRET_INDEX, [{"s": 3}, {"s": 5}, {"s": 9}])
    rep = compare_traces(traces, prog.function().id_to_loc())
    assert [(f.instr, f.kind) for f in rep.findings] == [(0, MEMORY_ACCESS)]
    assert rep.findings[0].witness == (0, 1)   # first diverging pair wins
    assert rep.vulnerable_instructions == 1
    assert rep.vulnerable_lines == 1
    assert rep.lines() == {("src.c", 2)}


def test_memory_offsets_after_cf_divergence_not_blamed():
    # after a control-flow split the store offsets differ positionally, but
    # only events inside the aligned prefix may produce memory findings
    prog, traces = traces_for(SECRET_BRANCH, [{"s": 0}, {"s": 1}])
    rep = compare_traces(traces, prog.function().id_to_loc())
    assert all(f.kind == CONTROL_FLOW for f in rep.findings)


def test_identical_traces_are_clean():
    src = """
func f(secret s: u8) {
bb0:
  r = select s, 1, 2   !loc src.c:1
  ret r                !loc src.c:2
}
"""
    prog, traces = traces_for(src, [{"s": 0}, {"s": 1}, {"s": 7}])
    rep = compare_traces(traces, prog.function().id_to_loc())
    assert rep.is_clean
    assert rep.findings == []


def test_all_pairs_not_just_first():
    # s=0 and s=1 diverge; s=1 and s=3 also diverge at a later branch.
    src = """
func f(secret s: u2) {
bb0:
  b0 = and s, 1         !loc src.c:1
  condbr b0, bbA, bbB   !loc src.c:2
bbA:
  b1 = lshr s, 1        !loc src.c:3
  condbr b1, bbC, bbD   !loc src.c:4
bbB:
  br bbD                !loc src.c:5
bbC:
  br bbD                !loc src.c:6
bbD:
  ret 0                 !loc src.c:7
}
"""
    prog, traces = traces_for(src, [{"s": 0}, {"s": 1}, {"s": 3}])
    rep = compare_traces(traces, prog.function().id_to_loc())
    instrs = {f.instr for f in rep.findings}
    assert instrs == {1, 3}   # pair (0,1) hits id 1, pair (1,2) hits id 3


def test_compare_traces_errors():
    prog, traces = traces_for(SECRET_INDEX, [{"s": 1}, {"s": 2}])
    with pytest.raises(LeakError):
        compare_traces(traces[:1], prog.function().id_to_loc())
    other = execute(parse_ir(SECRET_BRANCH.replace("func f", "func g")), {"s": 0})
    with pytest.raises(LeakError):
        compare_traces([traces[0], other], prog.function().id_to_loc())


def mk_report(lines: list[int]) -> LeakReport:
    findings = [
        LeakFinding(i, CONTROL_FLOW, SourceLoc("a.c", ln), (0, 1))
        for i, ln in enumerate(lines)
    ]
    return LeakReport("p", "d", findings)


def test_diff_reports_line_level():
    d = diff_reports(mk_report([3, 5]), mk_report([5, 9]))
    assert d.added_lines == {("a.c", 9)}
    assert d.removed_lines == {("a.c", 3)}
    assert d.unchanged == {("a.c", 5)}
    assert not d.is_empty
    assert diff_reports(mk_report([4]), mk_report([4])).is_empty
    with pytest.raises(LeakError):
        diff_reports(mk_report([1]), LeakReport("other", "d"))


def test_duplicated_instructions_same_line_count_once():
    findings = [
        LeakFinding(10, CONTROL_FLOW, SourceLoc("a.c", 6), (0, 1)),
        LeakFinding(22, CONTROL_FLOW, SourceLoc("a.c", 6), (0, 2)),
    ]
    rep = LeakReport("p", "d", findings)
    assert rep.vulnerable_instructions == 2
    assert rep.vulnerable_lines == 1


# ----------------------------------------------------------------------
# Reference: every pair scanned, per-id offset sequences compared.

def _ref_aligned(ea, eb) -> bool:
    if type(ea) is not type(eb) or ea.instr != eb.instr:
        return False
    if isinstance(ea, MemAccess):
        return ea.kind == eb.kind and ea.region == eb.region
    return True


def _ref_cf_prefix(a: Trace, b: Trace) -> tuple[int, int | None]:
    n = min(len(a.events), len(b.events))
    for pos in range(n):
        ea, eb = a.events[pos], b.events[pos]
        if not _ref_aligned(ea, eb):
            return pos, None
        if isinstance(ea, BranchDir) and ea.taken != eb.taken:
            return pos, ea.instr
    return n, None


def reference_compare_traces(traces, id_to_loc):
    """The all-pairs checker, kept as an oracle for compare_traces."""
    found = {}

    def add(instr, kind, witness):
        if (instr, kind) in found:
            return
        loc = id_to_loc.get(instr)
        if loc is None:
            raise LeakError(f"no source location for instruction id {instr}")
        found[(instr, kind)] = LeakFinding(instr, kind, loc, witness)

    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            a, b = traces[i], traces[j]
            prefix, cf_id = _ref_cf_prefix(a, b)
            if cf_id is not None:
                add(cf_id, CONTROL_FLOW, (i, j))
            seq_a, seq_b = {}, {}
            for e in a.events[:prefix]:
                if isinstance(e, MemAccess):
                    seq_a.setdefault(e.instr, []).append(e.offset)
            for e in b.events[:prefix]:
                if isinstance(e, MemAccess):
                    seq_b.setdefault(e.instr, []).append(e.offset)
            for iid in sorted(set(seq_a) | set(seq_b)):
                if seq_a.get(iid) != seq_b.get(iid):
                    add(iid, MEMORY_ACCESS, (i, j))
    return LeakReport(traces[0].function, "", [found[k] for k in sorted(found)])


def outcome(check, traces, id_to_loc):
    """Findings, or the LeakError message when the check raises."""
    try:
        return "ok", check(traces, id_to_loc).findings
    except LeakError as e:
        return "error", str(e)


def mk_trace(events) -> Trace:
    return Trace("f", list(events), None, len(events))


IDS = range(4)
# Branches and memory events share ids, so one position can hold a
# BranchDir in one trace and a MemAccess with the same id in another.
EVENTS = st.one_of(
    st.builds(BranchDir, st.sampled_from(IDS), st.booleans()),
    st.builds(MemAccess, st.sampled_from(IDS), st.sampled_from(["load", "store"]),
              st.sampled_from(["t", "u"]), st.integers(0, 2)),
)
STREAMS = st.lists(EVENTS, max_size=8)
STEMS = st.lists(EVENTS, max_size=40)
TAILS = st.lists(EVENTS, max_size=2)


def tweak(e, shift: int):
    """The same event with another branch direction or with its offset
    moved by ``shift``: still aligned with ``e``, and equal to it only when
    ``shift`` is 0."""
    if not shift:
        return e
    if isinstance(e, BranchDir):
        return e._replace(taken=not e.taken)
    return e._replace(offset=e.offset + shift)


@st.composite
def trace_lists(draw):
    """Traces of one of two shapes.

    Either 2-7 traces, each fresh or derived from an earlier one: a
    duplicate, a strict prefix, a reordering, a copy with one event
    replaced, or a copy with some events tweaked in place.

    Or 3-24 traces grown from one shared stem: each a copy of the stem with
    a few events tweaked, maybe cut short, then given a fresh tail.  Groups
    of three or more then part at branches, carry offset differences
    forward, and lose members whose trace ends.
    """
    if draw(st.booleans()):
        stem = draw(STEMS)
        streams = []
        for _ in range(draw(st.integers(3, 24))):
            s = list(stem)
            for p in draw(st.sets(st.integers(0, len(s) - 1), max_size=3)
                          if s else st.just(())):
                s[p] = tweak(s[p], draw(st.integers(1, 3)))
            if draw(st.booleans()):
                s = s[:draw(st.integers(0, len(s)))]
            streams.append(s + draw(TAILS))
        return [mk_trace(s) for s in streams]
    streams = [draw(STREAMS)]
    for _ in range(draw(st.integers(1, 6))):
        base = list(draw(st.sampled_from(streams)))
        how = draw(st.sampled_from(
            ["fresh", "duplicate", "prefix", "reorder", "replace", "tweak"]))
        if how == "fresh":
            base = draw(STREAMS)
        elif how == "prefix" and base:
            base = base[:draw(st.integers(0, len(base) - 1))]
        elif how == "reorder":
            base = draw(st.permutations(base))
        elif how == "replace" and base:
            base[draw(st.integers(0, len(base) - 1))] = draw(EVENTS)
        elif how == "tweak":
            shifts = draw(st.lists(st.integers(0, 1), min_size=len(base),
                                   max_size=len(base)))
            base = [tweak(e, d) for e, d in zip(base, shifts)]
        streams.append(base)
    return [mk_trace(s) for s in streams]


@settings(max_examples=400, deadline=None)
@given(trace_lists(), st.sets(st.sampled_from(IDS)))
@example(  # two unlocated ids part in one pair: the error names the lower
    [mk_trace([MemAccess(0, "load", "t", o), MemAccess(1, "load", "t", o)])
     for o in (0, 1)], {0, 1})
@example(  # pair (0, 1) parts at memory id 1 before pair (0, 2) parts at
           # branch 0: the error names the memory id, not the lower id
    [mk_trace([MemAccess(1, "load", "t", o), BranchDir(0, taken)])
     for o, taken in ((0, True), (1, True), (0, False))], {0, 1})
@example(  # trace 1 parts from trace 0 only after a long shared stretch,
           # trace 2 at once: the witness is still (0, 1)
    [mk_trace([MemAccess(1, "load", "t", int(p == at)) for p in range(40)])
     for at in (-1, 39, 0)], set())
@example(  # four identical traces of branches and memory events: clean
    [mk_trace([BranchDir(0, True), MemAccess(1, "store", "t", 2),
               BranchDir(2, False), MemAccess(3, "load", "u", 1)])
     for _ in range(4)], set())
@example(  # one pair walked over several window doublings: offsets part on
           # id 1 at event 150, branch 0 at event 250, and id 2's offsets
           # only after that, so the findings are memory id 1 and branch 0,
           # both witnessed by (0, 1), and none for id 2
    [mk_trace([MemAccess(1, "load", "t", k) if p == 150
               else BranchDir(0, k == 1) if p == 250
               else MemAccess(2, "load", "t", p + k) if p > 250
               else MemAccess(3, "store", "u", p) for p in range(300)])
     for k in (0, 1)], set())
def test_compare_traces_matches_all_pairs_reference(traces, missing):
    id_to_loc = {i: SourceLoc("r.c", 10 + i) for i in IDS if i not in missing}
    assert (outcome(compare_traces, traces, id_to_loc)
            == outcome(reference_compare_traces, traces, id_to_loc))


def rebuilt(traces, event):
    """``traces`` with each event ``e`` replaced by ``event(e)``."""
    return [mk_trace([event(e) for e in t.events]) for t in traces]


@settings(max_examples=200, deadline=None)
@given(trace_lists(), st.sets(st.sampled_from(IDS)))
def test_identity_does_not_decide_a_finding(traces, missing):
    # The walks test identity before equality.  Every event rebuilt as a
    # fresh equal object, or every set of equal events made one object,
    # gives the findings (or the error) of the traces as drawn.
    id_to_loc = {i: SourceLoc("r.c", 10 + i) for i in IDS if i not in missing}
    want = outcome(compare_traces, traces, id_to_loc)
    interned = {}
    for event in (lambda e: type(e)(*e), lambda e: interned.setdefault(e, e)):
        assert outcome(compare_traces, rebuilt(traces, event),
                       id_to_loc) == want


def test_compare_is_linear_in_the_traces():
    # n traces share a 200-event stem, part in pairs at a branch of their
    # own, and each pair runs on to a branch taken both ways: a walk whose
    # work per member or per pair grew with the traces would take more
    # than 6 times as long at 4 times the traces.
    stem = [MemAccess(0, "load", "t", p % 7) for p in range(200)]
    tail = [MemAccess(1, "store", "u", p % 5) for p in range(50)]

    def prepare(n):
        traces = [mk_trace(stem + [BranchDir(2 + k // 2, True)] + tail
                           + [BranchDir(1, k % 2 == 0)]) for k in range(n)]
        id_to_loc = {i: SourceLoc("s.c", i) for i in range(2 + n // 2)}
        return lambda: compare_traces(traces, id_to_loc)

    (t_small, small), (t_large, large) = best_times(prepare, 100, 400)
    for report in small, large:
        assert [(f.instr, f.kind, f.witness) for f in report.findings] \
            == [(1, CONTROL_FLOW, (0, 1))]
    assert t_large <= 6 * t_small, (t_small, t_large)


def test_witness_is_first_pair_in_index_order_with_duplicates():
    a = [BranchDir(0, False)]
    b = [BranchDir(0, True), MemAccess(1, "load", "t", 0)]
    c = [BranchDir(0, True), MemAccess(1, "load", "t", 1)]
    traces = [mk_trace(e) for e in (a, a, b, c, b)]
    id_to_loc = {0: SourceLoc("w.c", 1), 1: SourceLoc("w.c", 2)}
    rep = compare_traces(traces, id_to_loc)
    witnesses = {(f.instr, f.kind): f.witness for f in rep.findings}
    assert witnesses == {(0, CONTROL_FLOW): (0, 2),      # A/B
                         (1, MEMORY_ACCESS): (2, 3)}     # only B/C
    assert rep.findings == reference_compare_traces(traces, id_to_loc).findings


# Distinct traces that a corpus row's inputs give, where some are equal.
DISTINCT = {("path_splitting_toy", "gcc13-O3", 64): 54}


@pytest.mark.parametrize("program, preset_name, inputs", [
    ("fig1b_load", "baseline-off", 256),
    ("poly_frommsg", "llvm18-O3", 128),
    ("path_splitting_toy", "gcc13-O3", 64),
    ("rsa_bearssl_lookup", "llvm18-Os", 16),
])
def test_compare_traces_matches_reference_on_corpus(program, preset_name,
                                                    inputs):
    # The first two rows: every trace distinct from every other, parting
    # within a few events, where walking the traces as one group saves the
    # most over walking each pair alone.  path_splitting_toy: classes of
    # equal traces that part every three events, so small groups walk to
    # the end.  rsa: 16 traces of 481 events each, one leaving the group
    # every 32 events, at 15 different branches.
    low = analyze(load_program(program), preset(preset_name).spec,
                  inputs=inputs, seed=0).lowered
    traces = [execute(low, args) for args in
              gen_inputs(low, count=inputs, seed=0).arg_dicts()]
    assert (len({tuple(t.events) for t in traces})
            == DISTINCT.get((program, preset_name, inputs), inputs))
    id_to_loc = low.function().id_to_loc()
    report = compare_traces(traces, id_to_loc)
    assert report.findings
    assert report == reference_compare_traces(traces, id_to_loc)
