"""Differential execution tracing.

The interpreter records exactly the two event kinds an address/branch probe
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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .ir import (BINARY_OPS, EVAL_OPS, LANE_WIDTH, LANEWISE_OPS, ArrayType,
                 Instruction, Program, ScalarType, evaluate)

DEFAULT_FUEL = 1_000_000
_LANE_MASK = (1 << LANE_WIDTH) - 1
_M64 = (1 << 64) - 1


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


def _as_scalar(v, ins: Instruction):
    if not isinstance(v, int):
        raise TraceError(f"id {ins.iid}: expected scalar operand, got vector")
    return v


def _as_vector(v, ins: Instruction, lanes: int):
    if not isinstance(v, tuple) or len(v) != lanes:
        raise TraceError(f"id {ins.iid}: expected {lanes}-lane vector operand")
    return v


def execute(prog: Program, args: dict[str, int | tuple[int, ...]],
            func_name: str | None = None, fuel: int = DEFAULT_FUEL) -> Trace:
    """Run one function to completion and return its trace.

    ``args`` maps every parameter name to a value: ints for scalars (masked
    to the declared width), tuples of ints for array parameters.  Execution
    is fully deterministic.  Raises TraceError on missing arguments, fuel
    exhaustion, out-of-bounds memory access, a branch to an unknown block,
    or a ``select``/``vselect`` surviving into a lowered program.
    """
    func = prog.function(func_name)
    memory: dict[str, list[int]] = {}
    widths: dict[str, int] = {}
    for g in prog.globals.values():
        memory[g.name] = list(g.init)
        widths[g.name] = g.elem_width

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
            widths[p.name] = p.type.elem_width
        else:
            env[p.name] = int(v) & ((1 << p.type.width) - 1)

    def val(op, ins):
        if isinstance(op, int):
            return op
        if op in env:
            return env[op]
        raise TraceError(f"id {ins.iid}: use of unset value {op!r}")

    def region(ins):
        name = ins.operands[0]
        if name not in memory:
            raise TraceError(f"id {ins.iid}: unknown memory region {name!r}")
        return name

    def check_bounds(ins, name, offset):
        if not 0 <= offset < len(memory[name]):
            raise TraceError(
                f"id {ins.iid}: {name}[{offset}] out of bounds "
                f"(length {len(memory[name])})")

    events: list[BranchDir | MemAccess] = []
    steps = 0
    blocks = {b.label: b for b in func.blocks}
    label = func.entry
    prev_label: str | None = None

    while True:
        block = blocks.get(label)
        if block is None:
            raise TraceError(
                f"block {prev_label} branches to unknown block {label!r}")
        # Parallel phi evaluation on block entry.
        phi_updates = {}
        for phi in block.phis():
            for l, op in zip(phi.labels, phi.operands):
                if l == prev_label:
                    phi_updates[phi.result] = val(op, phi)
                    break
            else:
                raise TraceError(
                    f"id {phi.iid}: no phi arm for predecessor {prev_label!r}")
        env.update(phi_updates)

        for ins in block.instrs:
            steps += 1
            if steps > fuel:
                raise TraceError(f"fuel exhausted after {fuel} steps")
            op = ins.opcode
            if op == "phi":
                continue
            if op in BINARY_OPS:
                a = _as_scalar(val(ins.operands[0], ins), ins)
                b = _as_scalar(val(ins.operands[1], ins), ins)
                env[ins.result] = BINARY_OPS[op](a, b, ins.width)
            elif op in EVAL_OPS:
                env[ins.result] = evaluate(
                    ins, *[_as_scalar(val(o, ins), ins) for o in ins.operands])
            elif op == "const":
                env[ins.result] = ins.operands[0] & ((1 << ins.width) - 1)
            elif op in ("select", "vselect") and prog.stage == "lowered":
                raise TraceError(
                    f"id {ins.iid}: {op} executed in a lowered program")
            elif op in ("select", "cmov"):
                c = _as_scalar(val(ins.operands[0], ins), ins)
                env[ins.result] = val(ins.operands[1 if c else 2], ins)
            elif op == "vselect":
                m = _as_vector(val(ins.operands[0], ins), ins, ins.width)
                a = _as_vector(val(ins.operands[1], ins), ins, ins.width)
                b = _as_vector(val(ins.operands[2], ins), ins, ins.width)
                env[ins.result] = tuple(
                    a[i] if m[i] else b[i] for i in range(ins.width))
            elif op == "splat":
                x = _as_scalar(val(ins.operands[0], ins), ins)
                env[ins.result] = (x & _LANE_MASK,) * ins.width
            elif op in LANEWISE_OPS:
                a = _as_vector(val(ins.operands[0], ins), ins, ins.width)
                b = _as_vector(val(ins.operands[1], ins), ins, ins.width)
                lane_op = BINARY_OPS[LANEWISE_OPS[op]]
                env[ins.result] = tuple(lane_op(x, y, LANE_WIDTH)
                                        for x, y in zip(a, b))
            elif op == "load":
                name = region(ins)
                off = _as_scalar(val(ins.operands[1], ins), ins)
                check_bounds(ins, name, off)
                events.append(MemAccess(ins.iid, "load", name, off))
                env[ins.result] = memory[name][off]
            elif op == "store":
                name = region(ins)
                off = _as_scalar(val(ins.operands[1], ins), ins)
                v = _as_scalar(val(ins.operands[2], ins), ins)
                check_bounds(ins, name, off)
                events.append(MemAccess(ins.iid, "store", name, off))
                memory[name][off] = v & ((1 << widths[name]) - 1)
            elif op == "vload":
                name = region(ins)
                off = _as_scalar(val(ins.operands[1], ins), ins)
                lanes = []
                for i in range(ins.width):
                    check_bounds(ins, name, off + i)
                    events.append(MemAccess(ins.iid, "load", name, off + i))
                    lanes.append(memory[name][off + i] & _LANE_MASK)
                env[ins.result] = tuple(lanes)
            elif op == "vstore":
                name = region(ins)
                off = _as_scalar(val(ins.operands[1], ins), ins)
                vec = _as_vector(val(ins.operands[2], ins), ins, ins.width)
                emask = (1 << widths[name]) - 1
                for i in range(ins.width):
                    check_bounds(ins, name, off + i)
                    events.append(MemAccess(ins.iid, "store", name, off + i))
                    memory[name][off + i] = vec[i] & emask
            elif op == "br":
                prev_label, label = label, ins.labels[0]
                break
            elif op == "condbr":
                c = _as_scalar(val(ins.operands[0], ins), ins)
                taken = bool(c)
                events.append(BranchDir(ins.iid, taken))
                prev_label, label = label, ins.labels[0 if taken else 1]
                break
            elif op == "ret":
                result = val(ins.operands[0], ins) if ins.operands else None
                if isinstance(result, tuple):
                    raise TraceError(f"id {ins.iid}: ret of a vector value")
                return Trace(func.name, events, result, steps,
                             {n: tuple(v) for n, v in memory.items()})
            else:
                raise TraceError(f"id {ins.iid}: cannot execute {op!r}")
        else:
            raise TraceError(f"block {block.label} fell through without terminator")


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
