"""Trace comparison, leak classification, and report diffing.

Two traces of the same function on the same public inputs should be
identical when the code is constant-time.  Traces are first split into
classes of identical event sequences, each represented by its smallest
index; identical traces cannot diverge from each other, and they diverge
from any third trace in the same way.  One pair of representatives is then
compared per pair of classes, in one scan over the two event streams that
stops at the first misaligned event.  Divergences are classified:

* control-flow: the first aligned position where a conditional branch went
  different ways.  The scan stops there; later events are unaligned and
  would only produce noise.
* memory-access: an aligned load/store before that point (same id, kind
  and region) whose element offset differs.  Inside the aligned prefix
  each id's offsets line up position by position, so this is the same as
  comparing each id's ordered offset sequence.

Findings are attributed to instruction ids and source locations, and
deduplicated by (instr, kind) so each culprit appears once per report.
Class pairs are visited in representative order, so a finding's witness is
the first diverging input pair in index order, as if every pair had been
scanned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import SourceLoc
from .tracer import BranchDir, Trace

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


def _scan(a: tuple, b: tuple) -> tuple[int | None, set[int]]:
    """(diverging condbr id or None, ids of offset-diverging memory events).

    Walks both event streams in step.  Equal events are skipped.  The scan
    stops at the first aligned branch pair with opposite directions (a
    control-flow leak) or at the first structurally misaligned event
    (defensive; deterministic programs only reach this through an earlier
    divergence).  Aligned memory events that differ only in offset are
    recorded and do not stop the scan.
    """
    mem: set[int] = set()
    for ea, eb in zip(a, b):
        if ea == eb:
            continue
        if type(ea) is not type(eb) or ea.instr != eb.instr:
            break
        if type(ea) is BranchDir:
            return ea.instr, mem
        if ea.kind != eb.kind or ea.region != eb.region:
            break
        mem.add(ea.instr)
    return None, mem


def compare_traces(traces: list[Trace], id_to_loc: dict[int, SourceLoc],
                   pipeline: str = "") -> LeakReport:
    """Compare every pair of distinct traces and attribute each divergence.

    Identical traces form one class, represented by its smallest index;
    each pair of classes is scanned once, through its representatives, in
    index order.  Findings are deduplicated by (instr, kind), keeping the
    witness from the first diverging pair in index order, which is always
    a pair of representatives.  The finding set is independent of trace
    order.
    """
    if len(traces) < 2:
        raise LeakError("need at least 2 traces to compare")
    names = {t.function for t in traces}
    if len(names) != 1:
        raise LeakError(f"traces from different functions: {sorted(names)}")

    found: dict[tuple[int, str], LeakFinding] = {}

    def add(instr: int, kind: str, witness: tuple[int, int]):
        key = (instr, kind)
        if key in found:
            return
        loc = id_to_loc.get(instr)
        if loc is None:
            raise LeakError(f"no source location for instruction id {instr}")
        found[key] = LeakFinding(instr, kind, loc, witness)

    # Insertion order keeps the representatives ascending.
    classes: dict[tuple, int] = {}
    for i, t in enumerate(traces):
        classes.setdefault(tuple(t.events), i)
    reps = list(classes.items())

    for x, (a, i) in enumerate(reps):
        for b, j in reps[x + 1:]:
            cf_id, mem_ids = _scan(a, b)
            if cf_id is not None:
                add(cf_id, CONTROL_FLOW, (i, j))
            for iid in sorted(mem_ids):
                add(iid, MEMORY_ACCESS, (i, j))

    findings = [found[k] for k in sorted(found)]
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
