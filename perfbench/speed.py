"""The machine's speed, sampled while a run measures.

The benchmark was tuned on a shared 2-CPU virtual machine whose speed
drifts by a third over tens of seconds, so raw times from two runs a
minute apart can differ by more than any bound worth setting.  Between
the timed steps of a run, on the one CPU that the run and its children
are pinned to, the benchmark times a fixed calibration slice: a small
interpreter loop over IR-like nodes (attribute reads, dict lookups,
tuples), run with the garbage collector paused so the size of ctlab's
heap cannot change its cost.  A time measured while the slices take
``t`` seconds is reported as ``measured * REFERENCE_S / t``: seconds on
a machine where a slice takes ``REFERENCE_S``.  Raw times are printed
next to them.
"""

from __future__ import annotations

import gc
import statistics
import time

# A slice's median time on the 2-CPU machine the bounds were set on.
REFERENCE_S = 0.0025
_ROUNDS = 130
_OPS = ("add", "sub", "xor", "and", "load", "store", "br")


class _Node:
    __slots__ = ("op", "args")

    def __init__(self, op, args):
        self.op, self.args = op, args


_NODES = [_Node(_OPS[i % 7], (f"v{i % 13}", i & 31)) for i in range(64)]


def _slice() -> float:
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        env: dict[str, int] = {}
        out: list[tuple[str, int]] = []
        for _ in range(_ROUNDS):
            for node in _NODES:
                a = env.get(node.args[0], 0)
                if node.op == "add":
                    v = (a + node.args[1]) & 0xFFFFFFFF
                elif node.op == "xor":
                    v = a ^ node.args[1]
                elif node.op == "load":
                    out.append((node.op, a & 7))
                    continue
                else:
                    v = (a - node.args[1]) & 0xFFFFFFFF
                env[node.args[0]] = v
            if len(out) > 256:
                out = [t for t in out if t[1] & 1]
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration slices taken between timed steps."""

    EVERY_S = 0.1

    def __init__(self):
        self.slices: list[float] = []
        self._last = time.perf_counter()

    def sample(self, force: bool = False) -> None:
        """Take one slice per ``EVERY_S`` passed since the last (at least
        one when ``force``, at most five)."""
        owed = min(5, int((time.perf_counter() - self._last) / self.EVERY_S))
        for _ in range(max(owed, 1) if force else owed):
            self.slices.append(_slice())
        if owed or force:
            self._last = time.perf_counter()

    def mark(self) -> int:
        return len(self.slices)

    def factor(self, since: int) -> float:
        """Reference seconds per measured second over slices since ``since``."""
        taken = self.slices[since:]
        if not taken:
            self.sample(force=True)
            taken = self.slices[-1:]
        return REFERENCE_S / statistics.median(taken)
