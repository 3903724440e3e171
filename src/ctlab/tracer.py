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

``execute`` translates a function into Python once and runs every input
through the translation:

* Each reachable basic block becomes straight-line Python, cut into
  chunks of at most ``_CHUNK`` instructions; each chunk is one generated
  function, and chunks are compiled in batches of at most ``_CHUNK``
  instructions.  Opcode semantics (the ``ir`` expressions), widths,
  masks, immediates, operand roles, region lengths and branch targets are
  resolved while translating.
* A value read only in the chunk that defines it is a local variable.  A
  parameter, a phi result and a value read in another chunk live in a dict
  between chunks.  A phi is a parallel copy written on each edge into its
  block.
* Value and region names enter the generated source only through ``repr``;
  every identifier in it is generated, so no name can collide with one.
* A driver loop calls the chunks by index and counts fuel per chunk.

Translations are kept in an LRU cache of ``_CACHE_SIZE`` entries keyed by
everything a translation reads: each region's name, element width and
length, and each block's label and instructions (id, opcode, result,
operands, width, predicate, labels).  The key is never an object's
identity, because passes change instructions in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple

from .ir import (BINARY_EXPRS, COMPARE_EXPRS, LANE_WIDTH, LANEWISE_OPS,
                 NEG_EXPR, ArrayType, BasicBlock, Function, Instruction,
                 Program, ScalarType, reachable, value_operands)

DEFAULT_FUEL = 1_000_000
_LANE_MASK = (1 << LANE_WIDTH) - 1
_M64 = (1 << 64) - 1
# Instructions per generated function and per compile() call.  Compiling
# a 523-instruction function in one call peaks at 8.5 MB of allocations
# (tracemalloc, CPython 3.11); in batches of this size, at 1.2 MB.
_CHUNK = 48
# A study of every corpus program under every preset meets 34 distinct
# lowered functions; checking them against the 10 source functions adds 3
# more (the other 7 read the same as one of their lowerings).  The cache
# holds that whole working set with room to spare, so a repeated study
# translates nothing, where a smaller cache would evict in a cycle and
# re-translate on every round.  A translation retains 25-300 KB for a
# corpus program, 1.4 MB for the 34 lowered functions together.
_CACHE_SIZE = 64


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


@dataclass
class Trace:
    function: str
    events: list[BranchDir | MemAccess]
    result: int | None
    steps: int
    memory: dict[str, tuple[int, ...]] = field(default_factory=dict)


def execute(prog: Program, args: dict[str, int | tuple[int, ...]],
            func_name: str | None = None, fuel: int = DEFAULT_FUEL) -> Trace:
    """Run one function to completion and return its trace.

    ``prog`` must pass ``validate`` (``lower`` returns such a program):
    every operand then has the type its opcode takes and every value is
    set before it is read, so nothing is checked again here.  ``args``
    maps every parameter name to a value: ints for scalars (masked to the
    declared width), tuples of ints for array parameters.  Execution is
    fully deterministic.  Raises TraceError only on a missing argument or
    an array argument of the wrong length, an out-of-bounds memory access,
    or fuel exhaustion.

    The function runs through its cached translation (see the module
    docstring).  ``steps`` counts every instruction executed, phis and the
    terminator included, and ``fuel`` bounds it with the same outcome as
    counting step by step: entering a block of n instructions adds n to
    the step total s; an out-of-bounds access at position p of the block
    is reported as fuel exhaustion instead when step s - n + p + 1 exceeds
    the fuel; otherwise fuel runs out before the terminator when s does.
    """
    func = prog.function(func_name)
    memory: dict[str, list[int]] = {}
    regions: dict[str, tuple[int, int]] = {}    # element width, length
    for g in prog.globals.values():
        memory[g.name] = list(g.init)
        regions[g.name] = (g.elem_width, len(g.init))

    env: dict[str, int | tuple[int, ...]] = {}
    for p in func.params:
        if p.name not in args:
            raise TraceError(f"missing argument {p.name!r}")
        v = args[p.name]
        if isinstance(p.type, ArrayType):
            vals = tuple(int(x) & ((1 << p.type.elem_width) - 1) for x in v)
            if len(vals) != p.type.length:
                raise TraceError(
                    f"argument {p.name!r}: need {p.type.length} elements")
            memory[p.name] = list(vals)
            regions[p.name] = (p.type.elem_width, p.type.length)
        else:
            env[p.name] = int(v) & ((1 << p.type.width) - 1)

    chunks, sizes, used = _translate(
        (tuple(regions.items()),
         tuple((b.label, tuple(map(_FIELDS, b.instrs))) for b in func.blocks)))
    events: list[BranchDir | MemAccess] = []
    append, mem = events.append, [memory[r] for r in used]
    steps = i = 0
    try:
        while True:
            nxt = chunks[i](env, append, mem)
            steps += sizes[i]
            if steps > fuel:
                break
            if nxt.__class__ is tuple:
                return Trace(func.name, events, nxt[0], steps,
                             {n: tuple(v) for n, v in memory.items()})
            i = nxt
    except _OutOfBounds as e:
        if steps + e.position + 1 <= fuel:
            raise TraceError(str(e)) from None
    raise TraceError(f"fuel exhausted after {fuel} steps")


# ======================================================================
# Translation
# ======================================================================

_FIELD_NAMES = ("iid", "opcode", "result", "operands", "width", "pred",
                "labels")
_FIELDS = attrgetter(*_FIELD_NAMES)


class _OutOfBounds(Exception):
    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position        # of the instruction in its chunk


def _oob(position, iid, region, offset, length):
    """Raise the bounds error of an access at ``offset`` and up: the first
    lane outside ``[0, length)`` is ``offset`` itself or ``length``."""
    if 0 <= offset < length:
        offset = length
    raise _OutOfBounds(position, f"id {iid}: {region}[{offset}] out of "
                                 f"bounds (length {length})")


@lru_cache(maxsize=_CACHE_SIZE)
def _translate(key):
    """``(chunks, sizes, regions)`` for a function's content ``key``.

    ``chunks[i](env, append, mem)`` runs chunk i with ``env`` holding the
    values that live between chunks, ``append`` taking each event and
    ``mem[j]`` the list of ``regions[j]``.  It returns the index of the
    next chunk, or a 1-tuple holding the function's result.  ``sizes[i]``
    is chunk i's instruction count.  Chunk 0 starts the entry block.
    """
    return _Translator(*key).translate()


def _lane(offset: str, i: int) -> str:
    return f"{offset} + {i}" if i else offset


def _tuple(items) -> str:
    return "(" + "".join(f"{x}, " for x in items) + ")"


class _Translator:
    """Writes the Python source of one function's chunks and compiles it."""

    def __init__(self, region_shapes, block_fields):
        self.shapes = dict(region_shapes)   # region -> (elem width, length)
        func = Function("", [], [
            BasicBlock(label, [Instruction(loc=None,
                                           **dict(zip(_FIELD_NAMES, f)))
                               for f in fields])
            for label, fields in block_fields])
        self.blocks = {b.label: b for b in func.blocks}
        live = reachable(func)
        self.pieces = []                # (block, its instructions in a chunk)
        self.first = {}                 # block label -> its first chunk
        for b in func.blocks:
            if b.label in live:
                self.first[b.label] = len(self.pieces)
                self.pieces += [(b, b.instrs[i:i + _CHUNK])
                                for i in range(0, len(b.instrs), _CHUNK)]
        # A value lives in ``env`` when a chunk other than its own reads it;
        # phi results and parameters have no chunk of their own.
        home = {ins.result: k for k, (_, instrs) in enumerate(self.pieces)
                for ins in instrs
                if ins.result is not None and ins.opcode != "phi"}
        self.shared = {op for k, (b, instrs) in enumerate(self.pieces)
                       for op in self.reads(b, instrs)
                       if isinstance(op, str) and home.get(op) != k}
        self.names: dict[str, str] = {}     # value -> generated identifier
        self.regions: dict[str, str] = {}   # region -> generated identifier
        self.namespace = {"_new": tuple.__new__, "MA": MemAccess, "_oob": _oob}
        self.consts = 0

    def arms(self, b, target):
        """The phi copies on the edge from block ``b`` into ``target``."""
        return [(phi.result, phi.operands[phi.labels.index(b.label)])
                for phi in self.blocks[target].phis()]

    def reads(self, b, instrs):
        """The operands that ``instrs`` of block b read, the phi arms on
        the block's out-edges included."""
        for ins in instrs:
            if ins.opcode != "phi":
                yield from value_operands(ins)
            if ins.is_terminator:
                for target in ins.labels:
                    yield from (op for _, op in self.arms(b, target))

    def translate(self):
        # Chunks are compiled in batches of at most _CHUNK instructions.
        batch: list[str] = []
        size = 0
        for k, (b, instrs) in enumerate(self.pieces):
            lines = self.chunk(k, b, instrs)
            if size + len(instrs) > _CHUNK:
                self.compile(batch)
                batch, size = [], 0
            batch += lines
            size += len(instrs)
        self.compile(batch)
        return (tuple(self.namespace[f"c{k}"]
                      for k in range(len(self.pieces))),
                tuple(len(instrs) for _, instrs in self.pieces),
                tuple(self.regions))

    def compile(self, lines):
        exec(compile("\n".join(lines), "<ctlab translation>", "exec"),
             self.namespace)

    def chunk(self, k, b, instrs) -> list[str]:
        """The source of chunk ``k``, which holds ``instrs`` of block b."""
        self.block = b
        self.body: list[str] = []
        self.bound: set[str] = set()        # values in locals here
        self.touched: set[str] = set()      # regions accessed here
        for pos, ins in enumerate(instrs):
            self.instruction(pos, ins)
        if not instrs[-1].is_terminator:
            self.body.append(f"return {k + 1}")
        prologue = [f"{m} = M[{j}]"
                    for j, (r, m) in enumerate(self.regions.items())
                    if r in self.touched]
        return [f"def c{k}(env, E, M):",
                *("    " + line for line in prologue + self.body)]

    def const(self, obj) -> str:
        name = f"K{self.consts}"
        self.consts += 1
        self.namespace[name] = obj
        return name

    def val(self, op) -> str:
        """The expression for operand ``op``."""
        if isinstance(op, int):
            return f"({op})" if op < 0 else str(op)
        v = self.names.setdefault(op, f"v{len(self.names)}")
        if op not in self.bound:
            self.body.append(f"{v} = env[{op!r}]")
            self.bound.add(op)
        return v

    def define(self, result, expr):
        v = self.names.setdefault(result, f"v{len(self.names)}")
        self.body.append(f"{v} = {expr}")
        self.bound.add(result)
        if result in self.shared:
            self.body.append(f"env[{result!r}] = {v}")

    def region(self, name) -> str:
        self.touched.add(name)
        return self.regions.setdefault(name, f"m{len(self.regions)}")

    def access(self, pos, ins, kind, lanes) -> str:
        """Check the bounds of ``lanes`` elements at ``ins``'s offset and
        record their events; returns the offset expression."""
        name, off = ins.operands[:2]
        length = self.shapes[name][1]
        o = self.val(off)
        fail = f"_oob({pos}, {ins.iid}, {name!r}, {o}, {length})"
        if isinstance(off, int):
            if not 0 <= off <= length - lanes:
                self.body.append(fail)
            self.body += [
                f"E({self.const(MemAccess(ins.iid, kind, name, off + i))})"
                for i in range(lanes)]
        else:
            self.body.append(f"if not 0 <= {o} <= {length - lanes}: {fail}")
            self.body += [f"E(_new(MA, ({ins.iid}, {kind!r}, {name!r}, "
                          f"{_lane(o, i)})))" for i in range(lanes)]
        return o

    def edge(self, target):
        copies = self.arms(self.block, target)
        if copies:
            self.body.append(", ".join(f"env[{r!r}]" for r, _ in copies)
                             + " = " + ", ".join(self.val(op)
                                                 for _, op in copies))
        self.body.append(f"return {self.first[target]}")

    def instruction(self, pos, ins):
        op, w, val = ins.opcode, ins.width, self.val
        mask = (1 << w) - 1
        if op == "phi":
            return
        if op in BINARY_EXPRS:
            a, b = map(val, ins.operands)
            self.define(ins.result, BINARY_EXPRS[op].format(a=a, b=b, m=mask,
                                                            k=w - 1))
        elif op == "neg":
            self.define(ins.result, NEG_EXPR.format(a=val(ins.operands[0]),
                                                    m=mask))
        elif op == "icmp":
            a, b = map(val, ins.operands)
            self.define(ins.result, f"1 if "
                        f"{COMPARE_EXPRS[ins.pred].format(a=a, b=b)} else 0")
        elif op == "const":
            self.define(ins.result, str(ins.operands[0] & mask))
        elif op in ("select", "cmov"):
            c, a, b = map(val, ins.operands)
            self.define(ins.result, f"{a} if {c} else {b}")
        elif op == "vselect":
            c, a, b = map(val, ins.operands)
            self.define(ins.result, _tuple(
                f"{a}[{i}] if {c}[{i}] else {b}[{i}]" for i in range(w)))
        elif op == "splat":
            self.define(ins.result,
                        f"({val(ins.operands[0])} & {_LANE_MASK},) * {w}")
        elif op in LANEWISE_OPS:
            a, b = map(val, ins.operands)
            expr = BINARY_EXPRS[LANEWISE_OPS[op]]
            self.define(ins.result, _tuple(
                expr.format(a=f"{a}[{i}]", b=f"{b}[{i}]", m=_LANE_MASK,
                            k=LANE_WIDTH - 1) for i in range(w)))
        elif op == "load":
            o = self.access(pos, ins, "load", 1)
            self.define(ins.result,
                        f"{self.region(ins.operands[0])}[{o}] & {mask}")
        elif op == "vload":
            o = self.access(pos, ins, "load", w)
            m = self.region(ins.operands[0])
            self.define(ins.result, _tuple(
                f"{m}[{_lane(o, i)}] & {_LANE_MASK}" for i in range(w)))
        elif op in ("store", "vstore"):
            lanes = w if op == "vstore" else 1
            o = self.access(pos, ins, "store", lanes)
            name = ins.operands[0]
            m, v = self.region(name), val(ins.operands[2])
            emask = (1 << self.shapes[name][0]) - 1
            if op == "store":
                self.body.append(f"{m}[{o}] = {v} & {emask}")
            else:
                self.body += [f"{m}[{_lane(o, i)}] = {v}[{i}] & {emask}"
                              for i in range(lanes)]
        elif op == "br":
            self.edge(ins.labels[0])
        elif op == "condbr":
            self.branch(ins)
        else:                           # ret
            r = ins.operands[0] if ins.operands else None
            self.body.append(f"return ({'None' if r is None else val(r)},)")

    def branch(self, ins):
        # Bind what either edge copies before the lines split.
        for target in ins.labels:
            for _, op in self.arms(self.block, target):
                self.val(op)
        self.body.append(f"if {self.val(ins.operands[0])}:")
        mark = len(self.body)
        self.body.append(f"E({self.const(BranchDir(ins.iid, True))})")
        self.edge(ins.labels[0])
        self.body[mark:] = ["    " + line for line in self.body[mark:]]
        self.body.append(f"E({self.const(BranchDir(ins.iid, False))})")
        self.edge(ins.labels[1])


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


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def gen_inputs(prog: Program, func_name: str | None = None,
               count: int = 16, seed: int = 0) -> InputSet:
    """Deterministic secret assignments for differential runs.

    Publics take their declared defaults (missing default is an error).
    Secrets are drawn from a splitmix64 stream seeded with ``seed``, one
    draw per scalar (array secrets element by element, in order), and whole
    assignments are re-drawn until pairwise distinct.  ``count`` is capped
    at the size of the secret domain so distinctness is always achievable.
    """
    func = prog.function(func_name)
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

    state = seed & _M64
    seen: set[tuple] = set()
    rows: list[dict[str, int | tuple[int, ...]]] = []
    attempts = 0
    while len(rows) < count:
        attempts += 1
        if attempts > 100_000:
            raise TraceError("input generation failed to find distinct secrets")
        row: dict[str, int | tuple[int, ...]] = {}
        key = []
        for p in secrets:
            if isinstance(p.type, ScalarType):
                state, z = _splitmix64(state)
                v = z & ((1 << p.type.width) - 1)
                row[p.name] = v
                key.append(v)
            else:
                emask = (1 << p.type.elem_width) - 1
                elems = []
                for _ in range(p.type.length):
                    state, z = _splitmix64(state)
                    elems.append(z & emask)
                row[p.name] = tuple(elems)
                key.extend(elems)
        k = tuple(key)
        if k in seen:
            continue
        seen.add(k)
        rows.append(row)
    return InputSet(publics, rows, seed)
