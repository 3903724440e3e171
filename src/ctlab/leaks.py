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
partition: a group holds traces no pair of which has stopped.  A group of
three or more walks column by column, reading one event of each member
per position, and moves on while every event equals the first; at the
first position where they stop lining up it splits by aligned structure,
noting what differs there; pairs that land in different parts stop, and
each part of two or more goes on alone.  A group of two is one scan for
the positions where its events differ.  Identical traces never stop, so
they stay in one part.  Each pair is so walked exactly as far as a scan
of its two traces would go, and the work grows with the events read, not
with the pairs: a position costs one step of Python whatever the size of
the group, and a part goes on with its members' iterators where the
group left them, without slicing their lists again.

Both walks test identity before equality.  The tracer builds each event
once and shares it between traces, so nearly every test is settled by
identity in C, but identity is only a shortcut: two equal events that
are distinct objects are compared by value, and give the same findings.

Findings are attributed to instruction ids and source locations, and
deduplicated by (instr, kind) so each culprit appears once per report.
A finding's witness is the first diverging input pair in index order, as
if every pair had been scanned.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from itertools import compress, count, islice
from operator import is_not

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


_Note = Callable[[int, str, tuple[int, int]], None]
_Group = tuple[int, list[int], list[list[tuple]], list[Iterator[tuple]]]


def _refine(pos: int, idx: list[int], seqs: list[list[tuple]],
            its: list[Iterator[tuple]], note: _Note,
            groups: list[_Group]) -> None:
    """Walk one group of traces from event ``pos`` until it splits or a
    member ends, noting the first diverging pair in the group for every
    divergence on the way.

    ``idx`` (ascending) are the members' trace indices, ``seqs`` their
    event lists and ``its`` iterators over those lists from ``pos`` on; no
    pair of members has stopped before ``pos``.  The parts of two or more
    members that the group splits into go onto ``groups``, each member
    with its own iterator, so no part starts over from its list.  An
    event's aligned structure is ``e[:3]``: (instr, kind, region) of a
    memory event, the whole (instr, taken) of a branch; the lengths
    differ, so the two never match.

    A pair is one scan, in C, for the positions where its two events are
    not one object; each hit is then compared by value.  A group of three
    or more reads a column, one event of each member, per position, and
    moves on when every event equals the first, a count that runs in C
    and meets the tracer's shared events by identity.
    """
    if len(seqs) == 2:
        a, b = seqs
        for q in compress(count(pos), map(is_not, *its)):
            e, f = a[q], b[q]
            if e[:3] != f[:3]:      # misaligned: the pair stops here
                if len(e) == len(f) == 2 and e[0] == f[0]:    # one branch
                    note(e[0], CONTROL_FLOW, (idx[0], idx[1]))
                return
            if e != f:
                note(e[0], MEMORY_ACCESS, (idx[0], idx[1]))
        return
    n = len(seqs)
    for p, col in enumerate(zip(*its), pos):
        if col.count(col[0]) == n:
            continue
        # Bucket by aligned structure; pairs across buckets stop here, and
        # a branch taken both ways is a control-flow divergence.  Within a
        # bucket, the first member paired with the lowest that differs
        # from it is the first pair to show a memory divergence.
        buckets: dict[tuple, list[int]] = {}
        for m, e in enumerate(col):
            buckets.setdefault(e[:3], []).append(m)
        for head, ms in buckets.items():
            if len(head) == 2:
                other = buckets.get((head[0], False)) if head[1] else None
                if other:
                    i, j = idx[ms[0]], idx[other[0]]
                    note(head[0], CONTROL_FLOW, (min(i, j), max(i, j)))
            else:
                e = col[ms[0]]
                for m in ms:
                    if col[m] != e:
                        note(head[0], MEMORY_ACCESS, (idx[ms[0]], idx[m]))
                        break
        if len(buckets) > 1:
            for ms in buckets.values():
                if len(ms) > 1:
                    groups.append((p + 1, [idx[m] for m in ms],
                                   [seqs[m] for m in ms], [its[m] for m in ms]))
            return
    # The shortest members ended: their pairs stop, the rest go on.  The
    # iterators zip read before it met the end may have lost an event.
    end = min(map(len, seqs))
    rest = [m for m, s in enumerate(seqs) if len(s) > end]
    if len(rest) > 1:
        groups.append((end, [idx[m] for m in rest], [seqs[m] for m in rest],
                       [islice(seqs[m], end, None) for m in rest]))


def compare_traces(traces: list[Trace], id_to_loc: dict[int, SourceLoc],
                   pipeline: str = "") -> LeakReport:
    """Find every divergence between traces and attribute it.

    Traces equal to trace 0 are dropped first: such a trace parts from
    every other trace as trace 0 does, in a later pair.  The rest are
    refined together in groups (``_refine``), never compared pair by pair:
    a group of three or more walks column by column, a group of two is
    one scan, and each member keeps one iterator over its events from the
    first group to the last.
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
        seqs = [traces[i].events for i in idx]
        groups.append((0, idx, seqs, list(map(iter, seqs))))
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
