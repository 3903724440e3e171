"""Differential execution tracing.

Execution records exactly the two event kinds an address/branch probe
would see on real hardware:

* ``BranchDir``  - direction of every executed conditional branch
* ``MemAccess``  - (region, element offset) of every load and store;
  vector memory ops emit one event per lane, in lane order

Events are ``NamedTuple``s: immutable, equal by value, and hashable, so a
whole trace's ``tuple(events)`` can key a dict.  The two kinds never compare
equal to each other (their lengths differ).

Straight-line data ops, ``select``, and ``cmov`` emit nothing: they model
branch-free instruction sequences.  Two runs that differ only in secret
inputs should therefore produce identical event streams when the code is
constant-time.

A trace holds events that its translation built, not fresh ones.  Branch
events and accesses at constant offsets are built while translating.  An
access at a computed offset keeps a list of events with one slot per
element of its memory region, and runs ``E.append(K[o] or miss(o))``,
``E`` the event list: the event is built into its slot the first time
any input reaches that offset, and every later trace of every input
shares it.  The bounds check, or the range proof that leaves it out,
comes before the lookup, so ``o`` is in ``[0, length)`` and never
indexes the list from its end.  A warm pass therefore allocates almost
nothing per access, and a run only its trace, event list and the cells
of each region it writes or takes as an argument (``execute``).  A warm
``wide-leaky`` benchmark pass still runs about 6 collections (5.45 of
generation 0, 0.5 of 1 and 0.05 of 2), 5 ms of its 49 ms (20 passes
pinned to one CPU, collections timed with ``gc.callbacks``: means, and
the pass's median; 2-core Xeon, CPython 3.11).

``execute`` translates a function into Python once and runs every input
through the translation.  Each generated function runs one *region* of
the control-flow graph, written as structured Python:

* A block longer than ``_CHUNK`` instructions is cut into pieces of at
  most that many; a piece falls through to the next.  Below, a block is
  such a piece.
* A region starts at a *head* block (region 0 at the entry) and holds
  every block with exactly one incoming edge, nested under the branch arm
  that enters it; a join, once every incoming edge of the join leaves the
  two arms of one ``condbr`` in the region, written after that
  ``if``/``else``; and the branches back to its head, each a ``continue``
  of a ``while True:`` around the region.
* A region also holds loops, each nested as a ``while True:`` where its
  head is entered: a loop head qualifies when exactly one edge enters it
  from outside and every other edge into it is a back edge, from a block
  that it dominates.  Steps pending are added before the ``while``, so
  the head starts at 0 as a region's does.  A branch back to the
  innermost loop's head is its ``continue``; one to the head one loop out
  is a ``break``, and the code after the inner ``while`` is the tail of
  a branch back to that head: the fuel check, then ``continue``.  No
  other code follows a nested ``while``, so every edge out of a loop that
  is none of these returns to the driver.
* Every other edge returns the index of the region its target heads to a
  driver loop, which enters a region only at its head.  So every edge
  into a nested loop's head must be its way in, a ``continue`` or a
  ``break``.  A loop is nested only where its region has room for all
  its instructions; when an edge into its head is none of the three all
  the same (from a latch that is neither nested nor a join, one in a
  loop two in, or one past an irreducible loop or past the room left),
  that head is planned as a region head and the function is planned
  again.
* A region holds at most ``_CHUNK`` instructions.  Its code sits at most
  ``_DEPTH`` levels deep, counting an ``if`` and a nested ``while`` as a
  level each, and at most ``_LOOPS`` loops deep, the ``while`` of the
  region included: CPython's compiler refuses deeper code.  A block that
  would sit deeper is not nested there: it may still be the join after an
  ``if``, and is otherwise the head of a region.
* Regions are planned before any source is written: the plan places
  every block, classifies every edge and so knows which values another
  region reads.  Only those live in a dict between regions, with the
  parameters; every other value is a local variable of its region.  A
  phi is a parallel copy on each edge into its block: into ``env`` on an
  edge that leaves the region, into locals on any other.
* Opcode semantics (the ``ir`` expressions), widths, masks, immediates,
  operand roles, memory region lengths, branch targets and block sizes
  are resolved while translating.  A region adds its blocks' sizes to the
  step count as constants along each path.
* Value and region names enter the generated source only through ``repr``;
  every identifier in it is generated, so no name can collide with one.

Translation leaves out work that it proves does nothing; the values,
events, steps and errors stay those of the ``ir`` semantics.

* Ranges.  Translation bounds every value from above with two facts,
  computed once per translation (``_Translator.ranges``).  First, each
  value's bound at its definition, from one walk over the reachable
  blocks in dominator-tree order: a parameter's and a phi's is the cap of
  its width by the width rule (``ir.width_rule``, settled once over the
  phis); a ``select`` or ``cmov`` takes its widest arm's, since it passes
  an arm through unwrapped; any other op takes what its operands' bounds
  give, within its width's mask (a sum's is the sum of theirs, an
  ``and``'s the smaller, a ``load``'s the narrower of its width and its
  region's elements).  Second, for each block, the bounds that a compare
  proves there: when a block other than the entry has a single
  predecessor, which ends in a ``condbr`` on an ``icmp.lt``/``gt``/``eq``
  /``ne``, the compare's outcome on that edge bounds one operand by the
  other (``a < b`` taken: ``a`` is at most the bound of ``b`` less one),
  and the block keeps what its immediate dominator proves.  A use reads
  the smaller of the two.  The second is the e-SSA argument of ABCD
  (Bodík, Gupta & Sarkar, PLDI 2000), sound because a value is defined
  once, and every path to a block that the edge's target dominates
  crosses that edge after the value's latest definition, so the tested
  relation still holds in that block.  A compare narrows only a value
  bounded by at most 64 bits, and such a value is never negative: a
  negative immediate, which a program built in Python may hold (the
  parser masks them), is bounded above every mask, as is anything that
  passes it through.
* Masks.  The bounds hold for every value that an op reads: by
  induction over the steps of a run, each operand is within its bound
  when an op reads it, and a mask that is left out is one that could not
  clear a bit.  So an op's wrap `` & {m}`` is left out when the bound of
  what it masks fits the width: an ``or``/``xor`` of two fitting
  operands, an ``and`` with one, an ``add``, a ``mul`` or a ``shl`` whose
  unwrapped result fits; ``lshr`` without the mask of a left operand that
  fits; a ``load`` (or ``vload`` lane) without its wrap when the elements
  are no wider than the load; and a ``store`` (or ``vstore`` lane)
  without its wrap when the value fits the element.  The last two rely on
  every memory cell fitting its element width: ``validate`` checks the
  globals' initializers, ``execute`` masks array arguments, and a store
  wraps any value that may not fit.  Three more rules:

  - A shift-amount mask that a bound proves.  An immediate amount is
    masked while translating; a value's mask `` & {k}`` (``k = w - 1``)
    is left out when its bound, counting the compares that dominate the
    shift, is at most ``k``, as the mask could not clear a bit.  A
    ``shl`` by it is bounded by its left operand's bound shifted by the
    amount's, which may prove its wrap idle too.
  - A wrap that an ``and`` clears.  A value written into an ``and`` (see
    Single uses) whose other operand's bound fits the value's width
    leaves out its own trailing wrap: ``(x & m) & y == x & y`` for every
    integer ``x``, negative ones included, when ``0 <= y <= m``.  So the
    ``and`` computes what it would with the wrap.  This covers an
    ``add``, ``sub``, ``mul``, ``or``, ``xor``, ``shl``, ``neg``, ``and``
    and a narrowing ``load``, but never ``lshr``, whose mask is on its
    left operand and shifted.  The unwrapped value may exceed its bound,
    but the ``and`` is its only reader, and only one side of an ``and``
    drops its wrap: the other is the operand whose bound makes the rule
    hold, so it keeps the wrap that enforces that bound.
  - ``-c & y`` as a select.  An ``and`` of a ``neg`` written into it, of
    a value ``c`` bounded by 1, with a ``y`` that fits the ``neg``'s width
    is written ``y if c else 0``, with the ``and``'s own wrap where ``y``
    may not fit it, and ``c`` the compare itself (``a < b``) when it is an
    ``icmp`` written into the ``neg``.  ``c`` is 0 or 1, so the wrapped
    ``-c`` is 0 or every bit of its width, and the ``and`` gives 0 or
    ``y``.  Like the rule before, this changes only an expression that no
    other op reads.
* Bounds checks.  An access at a computed offset is checked only when
  the offset's bound is above the last offset that leaves room for its
  lanes, and no earlier check of the same offset value, against a bound
  at least as tight, always runs before it in the region's structured
  code.  An arm of an ``if`` starts from the checks before the ``if``; a
  join after it, and the other arm, from those alone, since the checks of
  an arm hold only where that arm ran.  The body of a nested loop starts
  from the checks before its ``while``, which hold in every iteration;
  what the body checks holds in the same iteration only, and nothing but
  the fuel check follows the ``while``.  The earlier check raised if the
  offset was out of bounds, so the dropped one could never fail, and the
  offset still holds the value it checked: its definition dominates the
  check, so it is in no loop entered after the check (that loop's head
  would then dominate the check, which runs before the head is entered),
  and nothing between the two redefines it.
* Single uses.  A scalar value that exactly one later instruction of its
  own node reads is written into that reader's expression, not a local:
  the result of a binary op, ``neg``, ``icmp``, ``select``, ``cmov``,
  ``const`` or ``load``, read by one of the first five, a ``store`` (its
  value), ``ret`` or ``condbr``.  A node is straight-line code, so the
  value is only computed later, from operands that still hold their
  values, and checks, events, steps and fuel checks stay in place.  No
  store of the node may lie between a load and where its expression is
  at last evaluated (in its reader, or in the reader that takes that),
  and at most ``_NEST`` values nest.  Offsets (read three times), phis'
  operands, vectors and values another region reads are never inlined.
  A compare that only the test of a ``condbr``, ``select`` or ``cmov`` in
  its own region reads is tested there itself (``if a < b:``), even in a
  later node, where nothing is inlined into it.  The compare's operands
  still hold their values there: the compare dominates its reader, and
  no path from one to the other inside a region re-enters the block that
  defines an operand.  A loop nested between the two does not either,
  since that block dominates the compare and so, as for a checked offset
  above, is in no loop entered after it.

Translations, with their event tables, are kept in an LRU memo of
``ir.MEMO_SIZE`` entries keyed by the frozen program's ``key`` (see
``ir.freeze``), and each is translated from the program itself, which
reads nothing the key leaves out.  The key holds no stage: a source and
an identical lowering share one translation.  A frozen program builds
its key once, so the N inputs of an analysis meet its translation by
identity; ``execute`` freezes (and so checks) a copy of a program that
is not frozen.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .cfg import natural_loops
from .ir import (BINARY_EXPRS, COMPARE_EXPRS, LANE_WIDTH, LANEWISE_OPS,
                 NEG_EXPR, VECTOR_OPS, ArrayType, Memo, Program, ScalarType,
                 control_flow, freeze, settle, value_operands, width_rule)

DEFAULT_FUEL = 1_000_000
_LANE_MASK = (1 << LANE_WIDTH) - 1
_M64 = (1 << 64) - 1
# Instructions per region and per compile() call.  Compiling the largest
# lowered corpus function (rsa under llvm18-Os, 523 instructions) in one
# call peaks at 5.7 MB of allocations (tracemalloc, CPython 3.11); in
# batches of this size at 1.45 MB (0.85 MB at 48).  96 holds the
# 79-instruction unrolled poly_frommsg loop of five presets in one
# ``while True:`` region, where 48 split it into 3-4 regions and no loop.
_CHUNK = 96
# CPython 3.11 refuses a line 100 indentation levels deep, counting a
# function's body as level 1, and a 21st statically nested loop.  A
# node's code sits at most ``_DEPTH`` levels deep, so its arms fit; a
# region's ``while`` and the loops nested in it are at most ``_LOOPS``.
_DEPTH = 98
_LOOPS = 20
# Single uses (see the module docstring).  Each value nested adds at most 3
# parentheses, and CPython's parser takes 200.
_INLINED = {*BINARY_EXPRS, "neg", "icmp", "const", "select", "cmov", "load"}
_READERS = {*BINARY_EXPRS, "neg", "icmp", "select", "cmov", "ret", "condbr"}
_NEST = 40
# The ops whose trailing wrap an ``and`` reader may clear (see Masks);
# ``lshr`` masks its left operand instead.
_CLEARED = {*BINARY_EXPRS, "neg", "load"} - {"lshr"}
# The bound of a negative immediate: above every mask and ``_M64``.
_UNBOUNDED = 1 << 65
# What the outcome of an ``icmp`` on an edge proves of its operands
# (a, b), by predicate and outcome: each (i, j, d) reads "operand i is at
# most operand j minus d".
_PROVES = {("lt", True): ((0, 1, 1),), ("lt", False): ((1, 0, 0),),
           ("gt", True): ((1, 0, 1),), ("gt", False): ((0, 1, 0),),
           ("eq", True): ((0, 1, 0), (1, 0, 0)), ("eq", False): (),
           ("ne", True): (), ("ne", False): ((0, 1, 0), (1, 0, 0))}


class TraceError(Exception):
    """Raised when execution cannot complete (bad program or inputs)."""


class BranchDir(NamedTuple):
    instr: int
    taken: bool


class MemAccess(NamedTuple):
    instr: int
    kind: str               # "load" or "store"
    region: str             # global or array-parameter name
    offset: int


class Trace:
    """One run's events, result and step count, and ``memory``: each
    region's cells when it ended, by name.  ``memory`` is given as a dict,
    or as the run's own list of cells per region in ``names``' order."""

    __slots__ = ("function", "events", "result", "steps", "_memory", "_names")

    def __init__(self, function: str, events: list[BranchDir | MemAccess],
                 result: int | None, steps: int, memory=None, names=None):
        self.function, self.events, self.result, self.steps = \
            function, events, result, steps
        self._memory, self._names = {} if memory is None else memory, names

    @property
    def memory(self) -> dict[str, tuple[int, ...]]:
        if self._names is not None:     # built on first read
            self._memory = dict(zip(self._names, map(tuple, self._memory)))
            self._names = None
        return self._memory

    def _fields(self):
        return self.function, self.events, self.result, self.steps, self.memory

    def __eq__(self, other):
        return self._fields() == other._fields() \
            if other.__class__ is Trace else NotImplemented

    def __repr__(self):
        return ("Trace(function={!r}, events={!r}, result={!r}, steps={!r}, "
                "memory={!r})").format(*self._fields())


def execute(prog: Program, args: dict[str, int | tuple[int, ...]], *,
            fuel: int = DEFAULT_FUEL) -> Trace:
    """Run the program's function to completion and return its trace.

    ``prog`` is frozen, and so checked (``ir.freeze``): one that fails
    ``validate`` raises ``IRError``, and in one that passes every operand
    has the type its opcode takes and every value is set before it is
    read, so nothing is checked again here.  ``args`` maps every parameter
    name to a value: an int for a scalar (masked to the declared width), a
    tuple (or list) of as many ints as its length for an array parameter.
    Execution is fully deterministic.  Raises TraceError only on a missing
    or ill-formed argument, an out-of-bounds memory access, or fuel
    exhaustion.

    The function runs through its cached translation (see the module
    docstring).  A program that is not frozen is copied, checked, frozen
    and keyed anew on every call, which can take several times as long as
    the run: to trace a hand-built program over many inputs, ``ir.freeze``
    it once, which saves a walk and a key per call.  The translation
    keeps an argument plan (``_translate``), so a call reads nothing of
    the program; a global that no store writes is read from its shared
    initializer, and the trace keeps the run's region lists.
    ``steps`` counts every instruction executed, phis and the terminator
    included, and ``fuel`` bounds it with the same outcome as
    counting step by step: an out-of-bounds access at step k raises its
    bounds error when k is at most the fuel and reports fuel exhaustion
    otherwise; without one, fuel runs out when the step count exceeds it.
    A region counts its steps as constants, passes every bounds check its
    absolute step, and checks the fuel on each branch back to the head of
    a loop, its own or a nested one (on a ``break``, after the loop that
    it leaves); the driver checks it after every region.
    """
    regions, (function, names, inits, written, params) = \
        _translate(freeze(prog))
    cells = [*inits]
    for j in written:
        cells[j] = [*cells[j]]
    env: dict[str, int] = {}
    try:                                # int.__and__ takes only an int
        for name, mask, n, j in params:
            v = args[name]
            if n is None:
                env[name] = int.__and__(v, mask)
            elif isinstance(v, (tuple, list)) and len(v) == n:
                cells[j] = [x & mask for x in v]
            else:
                raise TypeError
    except KeyError:
        raise TraceError(f"missing argument {name!r}") from None
    except TypeError:
        need = "an integer" if n is None else f"a tuple of {n} integers"
        raise TraceError(f"argument {name!r}: need {need}") from None
    events: list[BranchDir | MemAccess] = []
    nxt = steps = 0
    try:
        while True:
            nxt, steps = regions[nxt](env, events, cells, steps, fuel)
            if steps > fuel:
                break
            if nxt.__class__ is tuple:
                return Trace(function, events, nxt[0], steps, cells, names)
    except _OutOfBounds as e:
        if e.step <= fuel:
            raise TraceError(str(e)) from None
    raise TraceError(f"fuel exhausted after {fuel} steps")


# ======================================================================
# Translation
# ======================================================================


class _OutOfBounds(Exception):
    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step                # absolute step of the access


class _Events:
    """The events of one memory instruction at computed offsets: ``table``
    holds one per element offset of its region, None until ``miss``
    builds it on first use; every later trace shares it."""

    __slots__ = ("iid", "kind", "region", "table")

    def __init__(self, iid, kind, region, length):
        self.iid, self.kind, self.region = iid, kind, region
        self.table = [None] * length

    def miss(self, offset):
        event = self.table[offset] = MemAccess(self.iid, self.kind,
                                               self.region, offset)
        return event


def _oob(step, iid, region, offset, length):
    """Raise the bounds error of an access at ``offset`` and up: the first
    lane outside ``[0, length)`` is ``offset`` itself or ``length``."""
    if 0 <= offset < length:
        offset = length
    raise _OutOfBounds(step, f"id {iid}: {region}[{offset}] out of "
                             f"bounds (length {length})")


# The translations of the frozen programs run, by their ``key``.
_translations = Memo()


def _translate(prog):
    """``(regions, plan)`` for the frozen program ``prog``; ``plan`` is
    ``execute``'s argument plan: ``(function name, region names, their
    initializers, the globals that a store writes, the parameters)``.

    ``regions[k](env, E, M, s, F)`` runs region k from its head, with
    ``env`` holding the values that live between regions, ``E`` the event
    list, ``M[j]`` the cells of memory region ``names[j]``, ``s`` the
    steps taken so far and ``F`` the fuel.  It returns the index of the
    next region, or a 1-tuple holding the function's result, and the step
    count.  Region 0 starts at the entry block.
    """
    return _translations.get_or(prog.key,
                                lambda: _Translator(prog).translate())


def _lane(offset: str, i: int) -> str:
    return f"{offset} + {i}" if i else offset


def _tuple(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _enclosed(expr) -> bool:
    """Does ``expr`` need no parentheses as an operand: is it a number, a
    name or a subscript (it holds no space), or one ``( ... )`` group?"""
    if " " not in expr:
        return True
    depth = 0
    for i, ch in enumerate(expr):
        depth += (ch == "(") - (ch == ")")
        if not depth:               # the first group closes here
            return i == len(expr) - 1
    return False


class _Translator:
    """Plans one function's regions, then writes and compiles their
    source.

    The graph's nodes are blocks, a block longer than ``_CHUNK``
    instructions cut into pieces; node n's arms enter ``succ[n]``.  The
    plan files each edge, keyed by its node and arm, under one of six
    kinds: "nest" (its target is nested under it), "loop" (its target is
    a loop head nested under it as a ``while True:``), "join" (it falls
    through to the join after an ``if``/``else``), "back" (a ``continue``
    to the head of the innermost loop around it, the region's own or a
    nested one), "break" (to the head of the loop one out) or "exit" (to
    the head of another region).
    """

    def __init__(self, prog):
        func = prog.function()
        # memory region -> (elem width, length), as ``execute`` lays it out
        self.shapes = {k: (g.elem_width, len(g.init))
                       for k, g in prog.globals.items()}
        params = []                     # scalar parameter widths
        for p in func.params:
            if isinstance(p.type, ArrayType):
                self.shapes[p.name] = (p.type.elem_width, p.type.length)
            else:
                params.append((p.name, p.type.width))
        # ``execute``'s argument plan (see ``_translate``).
        self.slot = {r: j for j, r in enumerate(self.shapes)}
        inits = {k: g.init for k, g in prog.globals.items()}
        stored = {ins.operands[0] for ins in func.instructions()
                  if ins.opcode in ("store", "vstore")}
        self.arguments = (
            func.name, tuple(self.shapes), tuple(map(inits.get, self.shapes)),
            tuple(self.slot[r] for r in inits if r in stored),
            tuple((p.name, (1 << p.type.width) - 1, None, None)
                  if isinstance(p.type, ScalarType) else
                  (p.name, (1 << p.type.elem_width) - 1, p.type.length,
                   self.slot[p.name]) for p in func.params))
        # Every phi's width, by the width rule (see ``ir``).
        defs = func.defs()
        inputs, rule = width_rule(defs, dict(params).__getitem__)
        self.widths = settle([v for v, ins in defs.items()
                              if ins.opcode == "phi"], inputs, rule, 0)
        # How often the function reads each value (a phi's arms count), and
        # the compares that only the test of a condbr, select or cmov reads.
        self.uses = Counter(op for ins in func.instructions() for op in
                            value_operands(ins) if isinstance(op, str))
        self.tested = {
            c for ins in func.instructions()
            if ins.opcode in ("condbr", "select", "cmov")
            and self.uses[c := ins.operands[0]] == 1 and c in defs
            and defs[c].opcode == "icmp"}
        flow = control_flow(func)
        live = flow.reachable
        self.nodes = []                 # (block, its instructions in a node)
        first = {}                      # block label -> its first node
        for b in func.blocks:
            if b.label in live:
                first[b.label] = len(self.nodes)
                self.nodes += [(b, b.instrs[i:i + _CHUNK])
                               for i in range(0, len(b.instrs), _CHUNK)]
        self.succ = [[first[l] for l in instrs[-1].labels]
                     if instrs[-1].is_terminator else [n + 1]
                     for n, (_, instrs) in enumerate(self.nodes)]
        self.indeg = [0] * len(self.nodes)
        self.indeg[0] = 1               # the call enters the entry block
        for targets in self.succ:
            for t in targets:
                self.indeg[t] += 1
        # Each loop by its head's node: its back edges, and its
        # instructions, which the region that nests it must all hold.
        size = {b.label: len(b.instrs) for b in func.blocks}
        self.cycles = {first[l.header]: (len(l.latches),
                                         sum(map(size.get, l.blocks)))
                       for l in natural_loops(func)}
        self.ranges(func, flow, defs, params)
        self.names: dict[str, str] = {}     # value -> identifier or expression
        self.tests: dict[str, str] = {}     # inlined compare -> its test
        self.namespace = {"_oob": _oob}
        self.consts = 0

    def copies(self, n, t):
        """The phi copies on the edge from node n into node t."""
        b, instrs = self.nodes[n]
        if not instrs[-1].is_terminator:
            return []
        return [(phi.result, phi.operands[phi.labels.index(b.label)])
                for phi in self.nodes[t][0].phis()]

    # -- Ranges -----------------------------------------------------------

    def ranges(self, func, flow, defs, params):
        """Bound every value from above (see Ranges in the module
        docstring): ``top`` holds each value's bound at its definition,
        ``facts[label]`` the tighter ones that compares prove in a block."""
        self.top = {name: (1 << w) - 1 for name, w in params}
        self.facts: dict[str, dict[str, int]] = {}
        blocks = {b.label: b for b in func.blocks}
        kids: dict[str | None, list[str]] = {}
        for label in flow.reachable:
            kids.setdefault(flow.idom(label), []).append(label)
        todo = list(kids[None])
        while todo:
            label = todo.pop()
            todo += kids.get(label, ())
            up = flow.idom(label)
            facts = self.facts.get(up, {})
            if up is not None and len(flow.preds(label)) == 1:
                facts = self.proved(blocks[up].instrs[-1], label, defs, facts)
            self.scope = self.facts[label] = facts
            for ins in blocks[label].instrs:
                if ins.result is not None:
                    self.top[ins.result] = self.result(ins)

    def proved(self, term, label, defs, facts):
        """``facts``, the bounds proved in ``term``'s block, with what the
        compare that ``term`` tests proves on its edge into ``label``."""
        cmp = defs.get(term.operands[0]) if term.opcode == "condbr" else None
        if cmp is None or cmp.opcode != "icmp":
            return facts
        self.scope = facts
        for i, j, d in _PROVES[cmp.pred, term.labels[0] == label]:
            x, y = cmp.operands[i], cmp.operands[j]
            new = self.bound(y) - d
            if isinstance(x, str) and new < self.bound(x) <= _M64:
                facts = {**facts, x: new}
        return facts

    def result(self, ins) -> int:
        """The bound of ``ins``'s result from its operands' bounds."""
        op, w = ins.opcode, ins.width
        if op == "phi":
            return (1 << self.widths[ins.result]) - 1
        if op in BINARY_EXPRS:
            return self.arith(op, w, *ins.operands)[1]
        if op in ("select", "cmov"):
            return max(map(self.bound, ins.operands[1:]))
        if op == "load":
            return (1 << min(w, self.shapes[ins.operands[0]][0])) - 1
        if op == "const":
            return ins.operands[0] & ((1 << w) - 1)
        if op in VECTOR_OPS:
            return _LANE_MASK
        return 1 if op == "icmp" else (1 << w) - 1

    def arith(self, op, w, a, b) -> tuple[int, int]:
        """Bounds of binary op ``op`` at width ``w`` over ``a`` and ``b``:
        one on the term that its wrap `` & {m}`` masks (``lshr``'s left
        operand, the whole result of any other op), and one on the
        result.  A ``sub`` may go below zero, so its wrap always stays.
        A shift amount is masked by ``w - 1``: an immediate while
        translating, and a value only when its bound may exceed that, so
        a ``shl`` moves its left operand by at most the amount's bound.
        ``lshr`` may move it by none."""
        m = (1 << w) - 1
        x, y = self.bound(a), self.bound(b)
        k = b & (w - 1) if isinstance(b, int) else None     # an immediate
        if op == "lshr":
            return x, min(x, m) >> (k or 0)
        if op == "add":
            term = x + y
        elif op == "mul":
            term = x * y
        elif op == "and":
            term = min(x, y)
        elif op in ("or", "xor"):
            term = (1 << max(x, y).bit_length()) - 1
        elif op == "shl" and (k is not None or y < w):
            term = x << (y if k is None else k)
        else:
            term = _UNBOUNDED
        return term, min(term, m)

    def bound(self, op) -> int:
        """The least upper bound known of ``op`` in the current block."""
        if isinstance(op, int):
            return op if op >= 0 else _UNBOUNDED
        top = self.top[op]
        return min(top, self.scope.get(op, top))

    # -- Plan -------------------------------------------------------------

    def plan(self):
        """Place every node in a region and file every edge; no source is
        written here.

        The driver enters a region only at its head, so every edge into a
        nested loop's head must be its "loop" edge, a "back" edge or a
        "break".  A loop head that some other edge enters is planned
        again, from the start, as the head of a region of its own."""
        self.forced = set()             # loop heads that head a region
        while True:
            self.region = {0: 0}        # node -> its region
            self.heads = [0]            # region -> its head node
            self.kind = {}              # (node, arm) -> kind of the edge
            self.join = {}              # condbr node -> its join node
            self.flush = set()          # joins whose arms add their steps
            self.enter = {}             # node -> steps pending on entry
            self.depth = {}             # node -> indentation of its code
            self.loops = set()          # regions with a ``while``
            self.breaks = set()         # nested loops with a "break" out
            self.closed = Counter()     # nested loop -> its back edges
            self.unclosed = set()       # nested loops entered otherwise
            self.lengths = []           # region -> its instruction count
            self.reads = []             # region -> values read, in order
            self.home = {}              # value -> region that defines it
            for k, h in enumerate(self.heads):      # exits append heads
                self.k, self.size, self.read = k, 0, {}
                self.whiles = [h]       # the loops around, innermost last
                self.place(h, 0, 2)
                for n, a, t, _ in self.walk(h):
                    self.exit(n, a, t)
                self.lengths.append(self.size)
                self.reads.append(self.read)
            if not self.unclosed:
                return
            self.forced |= self.unclosed

    def place(self, n, pend, depth):
        """Put node n in the current region, ``pend`` steps after the
        region last added to its step count, its code ``depth`` levels
        into the region's function."""
        self.region[n], self.enter[n], self.depth[n] = self.k, pend, depth
        b, instrs = self.nodes[n]
        self.size += len(instrs)
        if instrs[0] is b.instrs[0]:
            for phi in b.phis():
                self.home[phi.result] = self.k
        for ins in instrs:
            if ins.opcode == "phi":
                continue
            if ins.result is not None:
                self.home[ins.result] = self.k
            self.read.update(dict.fromkeys(
                op for op in value_operands(ins) if isinstance(op, str)))
        for t in self.succ[n]:
            self.read.update(dict.fromkeys(
                op for _, op in self.copies(n, t) if isinstance(op, str)))

    def fits(self, t):
        return self.size + len(self.nodes[t][1]) <= _CHUNK

    def walk(self, n):
        """Place in the current region what node n leads to; returns the
        edges left open at the tail of n's code, as (node, arm, target,
        pending steps)."""
        pend = self.enter[n] + len(self.nodes[n][1])
        depth = self.depth[n] + (len(self.succ[n]) > 1)     # of its arms
        whiles = self.whiles
        open_edges = []
        for a, t in enumerate(self.succ[n]):
            if t in whiles[-2:]:
                if t == whiles[-1]:
                    self.kind[n, a] = "back"
                else:
                    self.kind[n, a] = "break"
                    self.breaks.add(whiles[-1])
                if t == whiles[0]:
                    self.loops.add(self.k)
                else:
                    self.closed[t] += 1
            elif t in self.region or not self.fits(t) or depth > _DEPTH:
                open_edges.append((n, a, t, pend))
            elif self.indeg[t] == 1:
                self.kind[n, a] = "nest"
                self.place(t, pend, depth)
                open_edges += self.walk(t)
            elif self.nestable(t, depth):
                # Its code ends in ``continue``, ``break`` or an exit, so
                # no open edge leaves it.
                self.kind[n, a] = "loop"
                self.place(t, 0, depth + 1)
                whiles.append(t)
                for m, b, u, _ in self.walk(t):
                    self.exit(m, b, u)
                whiles.pop()
                if self.closed[t] < self.cycles[t][0]:
                    self.unclosed.add(t)
            else:
                open_edges.append((n, a, t, pend))
        if len(self.succ[n]) < 2 or not open_edges:
            return open_edges
        # A condbr: its join is a target that only these open edges enter.
        # The other open edges would run on into the join, so they exit.
        count = Counter(t for _, _, t, _ in open_edges)
        j = next((t for t, c in count.items() if c == self.indeg[t]
                  and t not in self.region and self.fits(t)), None)
        if j is None:
            return open_edges
        pends = set()
        for m, a, t, p in open_edges:
            if t == j:
                self.kind[m, a] = "join"
                pends.add(p)
            else:
                self.exit(m, a, t)
        if len(pends) > 1:
            self.flush.add(j)
        self.join[n] = j
        self.place(j, pends.pop() if len(pends) == 1 else 0, self.depth[n])
        return self.walk(j)

    def nestable(self, t, depth):
        """May the loop head t be nested here, its ``while`` at ``depth``?
        Only one edge may enter it from outside the loop, and the region
        must have room for the whole loop."""
        backs, size = self.cycles.get(t, (0, 0))
        return (self.indeg[t] - backs == 1 and t not in self.forced
                and self.size + size <= _CHUNK and depth < _DEPTH
                and len(self.whiles) < _LOOPS)

    def exit(self, n, a, t):
        self.kind[n, a] = "exit"
        if t not in self.region:
            self.region[t] = len(self.heads)
            self.heads.append(t)

    # -- Source -----------------------------------------------------------

    def translate(self):
        self.plan()
        # A value lives in ``env`` when a region other than its own reads
        # it; parameters have no region.  A region loads what it reads
        # from ``env`` on entry, its head's phis included.
        self.shared = {v for k, read in enumerate(self.reads) for v in read
                       if self.home.get(v) != k}
        self.inline = self.single_uses()
        # Regions are compiled in batches of at most _CHUNK instructions.
        batch: list[str] = []
        size = 0
        for k, length in enumerate(self.lengths):
            lines = self.source(k)
            if size + length > _CHUNK:
                self.compile(batch)
                batch, size = [], 0
            batch += lines
            size += length
        self.compile(batch)
        return (tuple(self.namespace[f"r{k}"] for k in range(len(self.heads))),
                self.arguments)

    def single_uses(self) -> set[str]:
        """The values written into their one reader (see Single uses), and
        the wraps that an ``and`` reader makes idle (see Masks)."""
        inline = set()
        self.unwrapped: set[str] = set()    # inlined values left unwrapped
        self.selects: dict[str, str] = {}   # ``neg`` of a 0/1 value -> it
        for b, instrs in self.nodes:
            reader = {}     # value defined here -> its reader here, or None
            for j, ins in enumerate(instrs):
                for v in (ins.operands[2:] if ins.opcode == "store" else
                          ins.operands if ins.opcode in _READERS else ()):
                    if v in reader and self.uses[v] == 1:
                        reader[v] = j
                if ins.opcode in _INLINED:
                    reader[ins.result] = None
            # Inlined value -> where its expression is evaluated, and its
            # depth there.  A compare that a later node tests takes none.
            at = {c: (len(instrs), _NEST) for c, j in reader.items()
                  if j is None and c in self.tested and c not in self.shared}
            for i in range(len(instrs) - 1, -1, -1):    # readers first
                if (j := reader.get(instrs[i].result)) is None:
                    continue
                end, d = at.get(instrs[j].result, (j, 0))
                if d < _NEST and (instrs[i].opcode != "load" or not any(
                        ins.opcode in ("store", "vstore")
                        for ins in instrs[i + 1:end])):
                    at[instrs[i].result] = end, d + 1
            inline |= at.keys()
            self.scope = self.facts[b.label]
            made = {ins.result: ins for ins in instrs if ins.result in at}
            for ins in instrs:
                if ins.opcode != "and":
                    continue
                # At most one side: the other keeps the bound it is read by.
                for x, y in (ins.operands, ins.operands[::-1]):
                    d = made.get(x)
                    if d is not None and d.opcode in _CLEARED \
                            and self.within(y, d.width):
                        if d.opcode == "neg" and self.bound(d.operands[0]) <= 1:
                            self.selects[x] = d.operands[0]
                        else:
                            self.unwrapped.add(x)
                        break
        return inline

    def compile(self, lines):
        exec(compile("\n".join(lines), "<ctlab translation>", "exec"),
             self.namespace)

    def source(self, k) -> list[str]:
        """The source of region k."""
        h = self.heads[k]
        b, instrs = self.nodes[h]
        entering = ({phi.result for phi in b.phis()}
                    if instrs[0] is b.instrs[0] else set())
        loads = [f"{self.val(v)} = env[{v!r}]" for v in self.reads[k]
                 if self.home.get(v) != k or v in entering]
        self.body: list[str] = []
        self.touched: set[str] = set()      # memory regions accessed here
        self.checked: dict[str, int] = {}   # offset -> bound proved on it
        self.indent = "        " if k in self.loops else "    "
        self.node(h)
        prologue = [f"m{j} = M[{j}]" for j, r in enumerate(self.shapes)
                    if r in self.touched] + loads
        if k in self.loops:
            prologue.append("while True:")
        return [f"def r{k}(env, E, M, s, F):",
                *("    " + line for line in prologue), *self.body]

    def emit(self, line):
        self.body.append(self.indent + line)

    def const(self, obj) -> str:
        # Interned: one string for this name in every namespace and code.
        name = sys.intern(f"K{self.consts}")
        self.consts += 1
        self.namespace[name] = obj
        return name

    def val(self, op) -> str:
        """The expression for operand ``op``."""
        if isinstance(op, int):
            return f"({op})" if op < 0 else str(op)
        return self.names.setdefault(op, f"v{len(self.names)}")

    def define(self, result, expr):
        if result in self.inline:
            self.names[result] = expr if _enclosed(expr) else f"({expr})"
            return
        v = self.val(result)
        self.emit(f"{v} = {expr}")
        if result in self.shared:
            self.emit(f"env[{result!r}] = {v}")

    def within(self, op, width) -> bool:
        """Does the value ``op`` always fit in ``width`` bits here?"""
        return self.bound(op) <= (1 << width) - 1

    def array(self, name) -> str:
        self.touched.add(name)
        return f"m{self.slot[name]}"

    def node(self, n):
        """Write node n and what the plan placed after it."""
        b, instrs = self.nodes[n]
        self.scope = self.facts[b.label]
        for step, ins in enumerate(instrs, self.enter[n] + 1):
            self.instruction(n, step, ins)
        if not instrs[-1].is_terminator:
            self.edge(n, 0)

    def edge(self, n, a):
        """Write arm a of node n: its phi copies, then its kind's code."""
        t = self.succ[n][a]
        kind = self.kind[n, a]
        pend = self.enter[n] + len(self.nodes[n][1])
        copies = self.copies(n, t)
        if kind == "exit":
            if copies:
                self.emit(", ".join(f"env[{r!r}]" for r, _ in copies)
                          + " = " + ", ".join(self.val(op) for _, op in copies))
            self.emit(f"return {self.region[t]}, s + {pend}")
            return
        if copies:
            self.emit(", ".join(self.val(r) for r, _ in copies)
                      + " = " + ", ".join(self.val(op) for _, op in copies))
            for r, _ in copies:
                if r in self.shared:
                    self.emit(f"env[{r!r}] = {self.val(r)}")
        if kind == "nest":
            self.node(t)
        elif kind == "loop":
            # The head starts with no steps pending, as a region's does.
            # A "break" out of the loop lands after it, on the tail of a
            # branch back to the head one out.
            self.emit(f"s += {pend}")
            self.emit("while True:")
            self.inside(self.node, t)
            if t in self.breaks:
                self.emit("if s > F: return None, s")
                self.emit("continue")
        elif kind == "back":
            self.emit(f"s += {pend}")
            self.emit("if s > F: return None, s")
            self.emit("continue")
        elif kind == "break":
            self.emit(f"s += {pend}")
            self.emit("break")
        elif t in self.flush:
            self.emit(f"s += {pend}")

    def access(self, step, ins, kind, lanes) -> str:
        """Check the bounds of ``lanes`` elements at ``ins``'s offset and
        record their events; returns the offset expression."""
        name, off = ins.operands[:2]
        length = self.shapes[name][1]
        o = self.val(off)
        fail = f"_oob(s + {step}, {ins.iid}, {name!r}, {o}, {length})"
        if isinstance(off, int):
            if not 0 <= off <= length - lanes:
                self.emit(fail)
            for i in range(lanes):
                event = self.const(MemAccess(ins.iid, kind, name, off + i))
                self.emit(f"E.append({event})")
        else:
            # The offset's bound proves it, or an earlier check that this
            # code always follows, of the same offset against a bound at
            # least as tight, has.
            if self.bound(off) > length - lanes \
                    and self.checked.get(off, length) > length - lanes:
                self.emit(f"if not 0 <= {o} <= {length - lanes}: {fail}")
                self.checked[off] = length - lanes
            # The check comes first: a lane's index is in [0, length).
            events = _Events(ins.iid, kind, name, length)
            table, miss = self.const(events.table), self.const(events.miss)
            for i in range(lanes):
                at = _lane(o, i)
                self.emit(f"E.append({table}[{at}] or {miss}({at}))")
        return o

    def instruction(self, n, step, ins):
        """Write ``ins`` of node n, the ``step``-th step pending there."""
        op, w, val = ins.opcode, ins.width, self.val
        mask = (1 << w) - 1
        if op == "phi":
            return
        if op in BINARY_EXPRS:
            self.define(ins.result,
                        self.binary(op, w, *ins.operands, result=ins.result))
        elif op == "neg":
            if ins.result not in self.selects:  # else its ``and`` tests it
                expr = NEG_EXPR.replace(" & {m}", "") \
                    if ins.result in self.unwrapped else NEG_EXPR
                self.define(ins.result,
                            expr.format(a=val(ins.operands[0]), m=mask))
        elif op == "icmp":
            a, b = map(val, ins.operands)
            test = COMPARE_EXPRS[ins.pred].format(a=a, b=b)
            if ins.result in self.inline:
                self.tests[ins.result] = test
            self.define(ins.result, f"1 if {test} else 0")
        elif op == "const":
            self.define(ins.result, str(ins.operands[0] & mask))
        elif op in ("select", "cmov"):
            c, a, b = ins.operands
            c, a, b = self.test(c), val(a), val(b)
            self.define(ins.result, f"{a} if {c} else {b}")
        elif op == "vselect":
            c, a, b = map(val, ins.operands)
            self.define(ins.result, _tuple(
                f"{a}[{i}] if {c}[{i}] else {b}[{i}]" for i in range(w)))
        elif op == "splat":
            self.define(ins.result,
                        f"({val(ins.operands[0])} & {_LANE_MASK},) * {w}")
        elif op in LANEWISE_OPS:
            self.define(ins.result, _tuple(
                self.binary(LANEWISE_OPS[op], LANE_WIDTH, *ins.operands, i)
                for i in range(w)))
        elif op in ("load", "vload"):
            # A cell fits its element width (see ``mask_unless``).
            name = ins.operands[0]
            lanes, width = (1, w) if op == "load" else (w, LANE_WIDTH)
            o = self.access(step, ins, "load", lanes)
            wrap = self.mask_unless(self.shapes[name][0] <= width
                                    or ins.result in self.unwrapped, width)
            loads = [f"{self.array(name)}[{_lane(o, i)}]{wrap}"
                     for i in range(lanes)]
            self.define(ins.result,
                        loads[0] if op == "load" else _tuple(loads))
        elif op in ("store", "vstore"):
            lanes = w if op == "vstore" else 1
            o = self.access(step, ins, "store", lanes)
            name, _, value = ins.operands
            m, v = self.array(name), val(value)
            ew = self.shapes[name][0]
            wrap = self.mask_unless(self.within(value, ew), ew)
            if op == "store":
                self.emit(f"{m}[{o}] = {v}{wrap}")
            else:
                for i in range(lanes):
                    self.emit(f"{m}[{_lane(o, i)}] = {v}[{i}]{wrap}")
        elif op == "br":
            self.edge(n, 0)
        elif op == "condbr":
            self.branch(n, ins)
        else:                           # ret
            r = ins.operands[0] if ins.operands else None
            self.emit(f"return ({'None' if r is None else val(r)},), "
                      f"s + {step}")

    def binary(self, op, w, a, b, lane=None, result=None) -> str:
        """``BINARY_EXPRS[op]`` at width ``w`` over operands ``a`` and
        ``b`` (their lane ``lane`` of vectors), leaving out the wrap
        `` & {m}`` when the bound of the term it masks fits the width
        (``arith``) or an ``and`` clears it (``result`` is unwrapped), and
        a shift amount's mask `` & {k}`` when the amount's bound fits it;
        an immediate amount is masked here.  An ``and`` of a ``neg`` in
        ``selects`` is a select on the value the ``neg`` negates."""
        expr = BINARY_EXPRS[op]
        if b in self.selects:
            a, b = b, a
        if a in self.selects:           # -c & b
            expr = "({b} if {a} else 0) & {m}"
        if result in self.unwrapped or \
                self.arith(op, w, a, b)[0] <= (1 << w) - 1:
            expr = expr.replace(" & {m}", "")
        if op in ("shl", "lshr") and (isinstance(b, int) or self.bound(b) < w):
            expr = expr.replace(" & {k}", "")
            if isinstance(b, int):
                b &= w - 1
        # An operand's expression is a name, a number or enclosed.
        expr = expr.replace("({a})", "{a}").replace("({b})", "{b}")
        a = self.test(self.selects[a]) if a in self.selects else self.val(a)
        b = self.val(b)
        if lane is not None:
            a, b = f"{a}[{lane}]", f"{b}[{lane}]"
        return expr.format(a=a, b=b, m=(1 << w) - 1, k=w - 1)

    @staticmethod
    def mask_unless(fits, width) -> str:
        """The wrap of a value to ``width`` bits, empty when it ``fits``.
        Every memory cell fits its element width: ``validate`` checks the
        globals, ``execute`` masks array arguments and a store wraps what
        does not fit."""
        return "" if fits else f" & {(1 << width) - 1}"

    def test(self, c) -> str:
        """The expression that a condbr, a select, a cmov or an ``and`` in
        ``selects`` tests for condition ``c``: the comparison itself when
        the compare is inlined."""
        return self.tests.get(c) or self.val(c)

    def branch(self, n, ins):
        """An ``if``/``else`` over the two arms, then the join, if any."""
        self.emit(f"if {self.test(ins.operands[0])}:")
        self.inside(self.arm, n, 0, BranchDir(ins.iid, True))
        self.emit("else:")
        self.inside(self.arm, n, 1, BranchDir(ins.iid, False))
        if n in self.join:
            self.node(self.join[n])

    def arm(self, n, a, event):
        self.emit(f"E.append({self.const(event)})")
        self.edge(n, a)

    def inside(self, write, *args):
        """``write(*args)`` one level in: an arm of an ``if`` or the body
        of a nested loop starts from the checks made before it, and what
        it checks itself does not hold after it."""
        outer, checked = self.indent, self.checked
        self.indent, self.checked = outer + "    ", dict(checked)
        write(*args)
        self.indent, self.checked = outer, checked


# ======================================================================
# Input generation
# ======================================================================

@dataclass
class InputSet:
    """Public bindings shared by all runs, plus per-run secret assignments."""

    public_values: dict[str, int]
    secret_values: list[dict[str, int | tuple[int, ...]]]
    seed: int

    def __len__(self) -> int:
        return len(self.secret_values)

    def arg_dicts(self) -> list[dict[str, int | tuple[int, ...]]]:
        return [dict(self.public_values, **sv) for sv in self.secret_values]


# The input sets drawn, by parameter declarations, count and seed.
_inputs = Memo()


def gen_inputs(prog: Program, *, count: int = 16, seed: int = 0) -> InputSet:
    """Deterministic secret assignments for differential runs.

    Publics take their declared defaults (missing default is an error).
    Secrets are drawn from a splitmix64 stream seeded with ``seed``, one
    draw per scalar (array secrets element by element, in order), and whole
    assignments are re-drawn until pairwise distinct.  ``count`` is capped
    at the size of the secret domain so distinctness is always achievable.

    The draw reads only each parameter's name, type, secrecy and default,
    ``count`` and ``seed``, so the last ``ir.MEMO_SIZE`` draws are kept in
    ``_inputs`` under those; every call returns an ``InputSet`` of its own.
    A draw that raises keeps nothing, and one whose numbers are not all
    ``int``s (``7.0 == 7``) skips the memo.
    """
    params = prog.function().params
    numbers = [count, seed]
    for p in params:
        numbers += vars(p.type).values()
        if p.default is not None:
            numbers.append(p.default)
    if all(x.__class__ is int for x in numbers):
        key = (*((p.name, p.type, p.secrecy, p.default) for p in params),
               count, seed)
        publics, rows = _inputs.get_or(key, lambda: _draw(prog, count, seed))
    else:
        publics, rows = _draw(prog, count, seed)
    return InputSet(dict(publics), [*map(dict, rows)], seed)


def _draw(prog, count, seed):
    """The public values and the secret rows of ``gen_inputs``."""
    func = prog.function()
    secrets = [p for p in func.params if p.is_secret]
    if not secrets:
        raise TraceError(f"{func.name} has no secret parameters")

    publics: dict[str, int] = {}
    for p in func.params:
        if p.is_secret:
            continue
        if p.default is None:
            raise TraceError(f"public parameter {p.name!r} has no default value")
        publics[p.name] = p.default

    total_bits = sum(p.bits for p in secrets)
    if total_bits < 63:
        count = min(count, 1 << total_bits)

    # A row is one draw per element, in order: the mask of each, and each
    # secret's slice of them (an int index for a scalar).
    masks: list[int] = []
    places = []
    for p in secrets:
        if isinstance(p.type, ScalarType):
            places.append((p.name, len(masks)))
            masks.append((1 << p.type.width) - 1)
        else:
            n = p.type.length
            places.append((p.name, slice(len(masks), len(masks) + n)))
            masks += [(1 << p.type.elem_width) - 1] * n

    m64 = _M64                          # a local: read once per draw
    state = seed & m64
    seen: set[tuple] = set()
    rows: list[dict[str, int | tuple[int, ...]]] = []
    attempts = 0
    while len(rows) < count:
        attempts += 1
        if attempts > 100_000:
            raise TraceError("input generation failed to find distinct secrets")
        draws = []
        draw = draws.append
        for m in masks:                 # splitmix64
            state = (state + 0x9E3779B97F4A7C15) & m64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & m64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
            draw((z ^ (z >> 31)) & m)
        k = tuple(draws)
        if k in seen:
            continue
        seen.add(k)
        rows.append({name: k[at] for name, at in places})
    return publics, rows
