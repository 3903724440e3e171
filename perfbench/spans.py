"""Spans around calls into ctlab's public functions, for the traced run.

The benchmark never edits the package.  ``install`` swaps each target
function for a timing wrapper in every ``ctlab`` namespace that holds it
(the module that defines it and every module that imported it), so callers
that look the name up at call time go through the wrapper.  ``uninstall``
puts the originals back.  Spans are kept in memory and summarised by
``account`` when the traced work is done.

A span's layer is the module that defines the function.  Counters are
read from arguments and return values after the call, inside a span of
their own (layer ``hooks``) so their cost is not charged to a layer.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("ir", "cfg", "corpus", "passes", "backend", "tracer", "leaks", "cli")

# (module, function, span group); the group names a per-layer time metric.
TARGETS = [
    ("ir", "parse_ir", "ir.parse"),
    ("ir", "validate", "ir.validate"),
    ("ir", "copy_function", "ir.copy"),
    ("ir", "copy_program", "ir.copy"),
    ("cfg", "natural_loops", "cfg.natural_loops"),
    ("cfg", "counted_loop_info", "cfg.counted_loop"),
    ("corpus", "get", "corpus.get"),
    ("corpus", "load_program", "corpus.load_program"),
    ("passes", "run_pipeline", "passes.run_pipeline"),
    ("passes", "cleanup", "passes.cleanup"),
    ("backend", "lower", "backend.lower"),
    ("tracer", "gen_inputs", "tracer.gen_inputs"),
    ("tracer", "execute", "tracer.execute"),
    ("leaks", "compare_traces", "leaks.compare"),
    ("leaks", "diff_reports", "leaks.diff"),
    ("cli", "main", "cli.main"),
]

# Pass names whose function carries a suffix; the rest are named as in
# PASS_ORDER.
_PASS_FUNCTIONS = {"instcombine": "instcombine_lite", "slp": "slp_lite"}


class Recorder:
    """Spans and counters of one process.

    A span is ``[group, layer, start, end, parent index, thread id]``.
    Parents are tracked per thread; a span opened by a worker thread with
    nothing open in that thread has no parent (see ``account``).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.main_thread = threading.main_thread().ident
        self._lock = threading.Lock()
        self._local = threading.local()
        self._checked: set[str] = set()

    def _open(self, group: str, layer: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([group, layer, time.perf_counter(), None,
                               parent, threading.get_ident()])
            self.calls[group] += 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._local.stack.pop()
        self.spans[idx][3] = time.perf_counter()

    def add(self, **counts: float) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] += value

    def wrap(self, fn, group: str, layer: str):
        hook = _HOOKS.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            g = group
            if group == "corpus.get":
                # The first access to an entry in a process self-checks it.
                name = args[0] if args else kwargs.get("name")
                if name not in self._checked:
                    self._checked.add(name)
                    g = "corpus.selfcheck"
            idx = self._open(g, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                idx = self._open("hooks", "hooks")
                try:
                    hook(self, args, result)
                finally:
                    self._close(idx)
            return result

        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "calls": dict(self.calls), "main_thread": self.main_thread}


# ----------------------------------------------------------------------
# Counters read after a call
# ----------------------------------------------------------------------

def _after_pipeline(rec, args, result):
    prog, log = result
    rec.add(**{
        "passes.applications": len(log),
        "passes.changed": sum(e.summary != "no change" for e in log),
        "passes.instrs_out": sum(len(list(f.instructions()))
                                 for f in prog.functions.values()),
    })


def _after_lower(rec, args, result):
    low, log = result
    created = {i for e in log for i in e.created}
    instrs = [i for f in low.functions.values() for i in f.instructions()]
    rec.add(**{
        "backend.cmovs": sum(i.opcode == "cmov" for i in instrs),
        "backend.selects_branched": sum(i.opcode == "condbr" and i.iid in created
                                        for i in instrs),
    })


def _after_execute(rec, args, trace):
    rec.add(**{"tracer.traces": 1, "tracer.steps": trace.steps,
               "tracer.events": len(trace.events)})


def _after_compare(rec, args, report):
    traces = args[0]
    n = len(traces)
    rec.add(**{
        "leaks.traces": n,
        "leaks.pairs": n * (n - 1) // 2,
        "leaks.distinct": len({tuple(t.events) for t in traces}),
        "leaks.findings": len(report.findings),
    })


_HOOKS = {
    "passes.run_pipeline": _after_pipeline,
    "backend.lower": _after_lower,
    "tracer.execute": _after_execute,
    "leaks.compare": _after_compare,
}


# ----------------------------------------------------------------------
# Installing and removing the wrappers
# ----------------------------------------------------------------------

def install(rec: Recorder) -> list[tuple[object, str, object]]:
    """Wrap every target in every loaded ctlab namespace; returns what
    ``uninstall`` needs to undo it."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "ctlab"
                                       or name.startswith("ctlab."))}
    passes = modules.get("ctlab.passes")
    targets = list(TARGETS)
    if passes is not None:
        targets += [("passes", _PASS_FUNCTIONS.get(p, p), f"passes.{p}")
                    for p in passes.PASS_ORDER]
    undo = []
    for modname, fname, group in targets:
        home = modules.get(f"ctlab.{modname}")
        fn = getattr(home, fname, None) if home is not None else None
        if fn is None:
            continue
        wrapper = rec.wrap(fn, group, modname)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
    return undo


def uninstall(undo) -> None:
    for mod, attr, fn in reversed(undo):
        setattr(mod, attr, fn)


# ----------------------------------------------------------------------
# Self times
# ----------------------------------------------------------------------

def _union(intervals) -> float:
    total, end = 0.0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def account(trace: dict) -> dict:
    """Self time per layer and inclusive time per group for one process.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Spans opened by worker threads (the matrix thread
    pool) with nothing open in their thread are adopted by the innermost
    main-thread span that was open when they started.  Under the
    interpreter lock those threads take turns, so their spans overlap in
    wall time; every span below them is scaled by (union of their
    intervals) / (sum of their durations), which makes the self times of
    a process add up to the wall time its top-level spans cover.

    Returns ``{"self": {layer: s}, "groups": {group: s}, "covered": s}``.
    """
    spans = trace["spans"]
    main = trace["main_thread"]
    n = len(spans)
    kids: list[list[int]] = [[] for _ in range(n)]
    adopted: dict[int | None, list[int]] = defaultdict(list)
    roots: list[int] = []
    main_spans = [i for i in range(n) if spans[i][5] == main]
    for i, (_, _, start, _, parent, thread) in enumerate(spans):
        if parent is not None:
            kids[parent].append(i)
        elif thread == main:
            roots.append(i)
        else:
            host = None
            for j in main_spans:
                if spans[j][2] <= start <= spans[j][3] and (
                        host is None or spans[j][2] >= spans[host][2]):
                    host = j
            adopted[host].append(i)

    def interval(i):
        return spans[i][2], spans[i][3]

    scale = [1.0] * n
    for ws in adopted.values():
        total = sum(spans[w][3] - spans[w][2] for w in ws)
        factor = _union(map(interval, ws)) / total if total > 0 else 1.0
        todo = list(ws)
        while todo:
            i = todo.pop()
            scale[i] = factor
            todo.extend(kids[i])

    own: dict[str, float] = defaultdict(float)
    groups: dict[str, float] = defaultdict(float)
    for i, (group, layer, start, end, parent, _) in enumerate(spans):
        covered = [interval(k) for k in kids[i]]
        covered += [interval(w) for w in adopted.get(i, ())]
        own[layer] += (end - start - _union(covered)) * scale[i]
        # Inclusive group time counts only the outermost span of a group.
        p = parent
        while p is not None and spans[p][0] != group:
            p = spans[p][4]
        if p is None:
            groups[group] += (end - start) * scale[i]
    top = [interval(i) for i in roots] + [interval(w) for w in adopted.get(None, ())]
    return {"self": dict(own), "groups": dict(groups), "covered": _union(top)}
