"""Trace comparison, leak classification, and report diffing.

Two traces of the same function on the same public inputs should be
identical when the code is constant-time.  Each pair of traces is walked
in step, skipping equal events, and its divergences are classified:

* control-flow: the first aligned position where a conditional branch went
  different ways.  The pair stops there; later events are unaligned and
  would only produce noise.
* memory-access: an aligned load/store before that point (same id, kind
  and region) whose element offset differs.  Inside the aligned prefix
  each id's offsets line up position by position, so this is the same as
  comparing each id's ordered offset sequence.

A pair also stops at its first misaligned event, or where one trace ends.

The pairs are not walked one by one but refined together, as a
partition: a group holds traces no pair of which has stopped.  It walks
forward while its members' events line up, noting memory events met at
different offsets, and at the first position where they stop lining up
it splits by aligned structure; pairs that land in different parts stop,
and each part of two or more goes on alone.  Identical traces never stop,
so they stay in one part.  Each pair is so walked exactly as far as a
scan of its two traces would go, and the work grows with the number of
traces rather than of their pairs.

Findings are attributed to instruction ids and source locations, and
deduplicated by (instr, kind) so each culprit appears once per report.
A finding's witness is the first diverging input pair in index order, as
if every pair had been scanned.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import compress, count
from operator import ne

from .ir import SourceLoc
from .tracer import Trace

CONTROL_FLOW = "control-flow"
MEMORY_ACCESS = "memory-access"


class LeakError(Exception):
    pass


@dataclass(frozen=True)
class LeakFinding:
    instr: int
    kind: str                    # CONTROL_FLOW or MEMORY_ACCESS
    loc: SourceLoc
    witness: tuple[int, int]     # indices of the diverging input pair


@dataclass
class LeakReport:
    program: str
    pipeline: str                # PipelineSpec digest
    findings: list[LeakFinding] = field(default_factory=list)
    preset: str = ""
    seed: int = 0
    inputs: int = 0

    @property
    def vulnerable_instructions(self) -> int:
        return len({f.instr for f in self.findings})

    @property
    def vulnerable_lines(self) -> int:
        return len(self.lines())

    @property
    def is_clean(self) -> bool:
        return not self.findings

    def lines(self) -> set[tuple[str, int]]:
        return {(f.loc.file, f.loc.line) for f in self.findings}


@dataclass
class ReportDiff:
    added_lines: set[tuple[str, int]]
    removed_lines: set[tuple[str, int]]
    unchanged: set[tuple[str, int]]

    @property
    def is_empty(self) -> bool:
        return not self.added_lines and not self.removed_lines


def first_divergence(a: Trace, b: Trace) -> tuple[int, int] | None:
    """Earliest event index where the traces differ, with a's instruction id
    there.  If one trace is a strict prefix of the other, the position is the
    shorter length and the id comes from the longer trace's next event.
    Identical traces give None.
    """
    n = min(len(a.events), len(b.events))
    for pos in range(n):
        if a.events[pos] != b.events[pos]:
            return pos, a.events[pos].instr
    if len(a.events) == len(b.events):
        return None
    longer = b if len(b.events) > len(a.events) else a
    return n, longer.events[n].instr


# A group's members are first walked against its lowest member over this
# many events, then over windows twice as long: a member misaligned late in
# a window wastes the walks of the members before it, and doubling keeps
# that waste within the work already done.
_WINDOW = 16

_Note = Callable[[int, str, tuple[int, int]], None]
_Group = tuple[int, list[int], list[list[tuple]]]


def _refine(pos: int, idx: list[int], seqs: list[list[tuple]], note: _Note,
            groups: list[_Group]) -> None:
    """Walk one group of traces from event ``pos`` until it splits or a
    member ends, noting the first diverging pair in the group for every
    divergence on the way.

    ``idx`` (ascending) are the members' trace indices and ``seqs`` their
    event lists; no pair of members has stopped before ``pos``.  The parts
    of two or more members that the group splits into go onto ``groups``.
    An event's aligned structure is ``e[:3]``: (instr, kind, region) of a
    memory event, the whole (instr, taken) of a branch; the lengths
    differ, so the two never match.
    """
    # While every member is aligned with the first, two members that differ
    # cannot both equal the first, so the first paired with the lowest
    # member that differs from it is the first pair to show a memory
    # divergence.  Each member is walked against the first, skipping equal
    # events, up to the first misaligned event of any member (``split``)
    # or the end of the shortest.  A member walked before ``split`` was
    # found may have gone past it, but only together with the first, so
    # what it found there is a divergence of that pair all the same.
    first = seqs[0]
    split = end = min(map(len, seqs))
    lowest: dict[int, int] = {}     # memory id -> lowest member differing
    lo, width = pos, _WINDOW
    while lo < split:
        hi = min(lo + width, split)
        for m in range(1, len(seqs)):
            s = seqs[m]
            for q in compress(count(lo), map(ne, first[lo:hi], s[lo:hi])):
                a = first[q]
                if a[:3] != s[q][:3]:
                    hi = split = q
                    break
                if m < lowest.get(a[0], len(seqs)):
                    lowest[a[0]] = m
        lo, width = hi, 2 * width
    for iid, m in lowest.items():
        note(iid, MEMORY_ACCESS, (idx[0], idx[m]))

    if split == end:
        # The shortest members ended: their pairs stop, the rest go on.
        rest = [m for m, s in enumerate(seqs) if len(s) > end]
        if len(rest) > 1:
            groups.append((end, [idx[m] for m in rest],
                           [seqs[m] for m in rest]))
        return
    # Split by aligned structure; pairs across buckets stop here, and a
    # branch taken both ways is a control-flow divergence.
    buckets: dict[tuple, list[int]] = {}
    for m, s in enumerate(seqs):
        buckets.setdefault(s[split][:3], []).append(m)
    for head, ms in buckets.items():
        if len(head) == 2:
            other = buckets.get((head[0], False)) if head[1] else None
            if other:
                i, j = idx[ms[0]], idx[other[0]]
                note(head[0], CONTROL_FLOW, (min(i, j), max(i, j)))
        else:
            e = seqs[ms[0]][split]
            for m in ms:
                if seqs[m][split] != e:
                    note(head[0], MEMORY_ACCESS, (idx[ms[0]], idx[m]))
                    break
        if len(ms) > 1:
            groups.append((split + 1, [idx[m] for m in ms],
                           [seqs[m] for m in ms]))


def compare_traces(traces: list[Trace], id_to_loc: dict[int, SourceLoc],
                   pipeline: str = "") -> LeakReport:
    """Find every divergence between traces and attribute it.

    Traces equal to trace 0 are dropped first: such a trace parts from
    every other trace as trace 0 does, in a later pair.  The rest are
    refined together in groups (``_refine``), never compared pair by pair.
    Findings are deduplicated by (instr, kind), keeping the witness from
    the first diverging pair in index order.  An instruction id without a
    source location is an error, for the finding that pair order reaches
    first.  The finding set is independent of trace order.
    """
    if len(traces) < 2:
        raise LeakError("need at least 2 traces to compare")
    names = {t.function for t in traces}
    if len(names) != 1:
        raise LeakError(f"traces from different functions: {sorted(names)}")

    witness: dict[tuple[int, str], tuple[int, int]] = {}

    def note(instr: int, kind: str, pair: tuple[int, int]):
        old = witness.get((instr, kind))
        if old is None or pair < old:
            witness[instr, kind] = pair

    first = traces[0].events
    idx = [0] + [i for i in range(1, len(traces))
                 if traces[i].events != first]
    groups: list[_Group] = []
    if len(idx) > 1:
        groups.append((0, idx, [traces[i].events for i in idx]))
    while groups:
        _refine(*groups.pop(), note, groups)

    unlocated = [(pair, kind, instr) for (instr, kind), pair in witness.items()
                 if instr not in id_to_loc]
    if unlocated:
        instr = min(unlocated)[2]
        raise LeakError(f"no source location for instruction id {instr}")
    findings = [LeakFinding(instr, kind, id_to_loc[instr], witness[instr, kind])
                for instr, kind in sorted(witness)]
    return LeakReport(next(iter(names)), pipeline, findings)


def diff_reports(old: LeakReport, new: LeakReport) -> ReportDiff:
    """Line-level difference; a line in both reports is unchanged even when
    its instruction ids moved (unrolling duplicates instructions, not lines).
    """
    if old.program != new.program:
        raise LeakError(
            f"cannot diff reports for {old.program!r} vs {new.program!r}")
    a, b = old.lines(), new.lines()
    return ReportDiff(added_lines=b - a, removed_lines=a - b, unchanged=a & b)
