"""Instruction selection: rewrite select/vselect into target-level form.

A ``select`` becomes either a ``cmov`` (branchless, same instruction id) or
a three-block branch diamond, depending on the target profile and on the
cmov-conversion heuristic.  A ``vselect`` becomes a branch over its mask's
scalar source.  The output program is marked ``stage lowered`` and contains no select or
vselect instructions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cfg import innermost, natural_loops
from .ir import (
    BasicBlock,
    Function,
    Instruction,
    Program,
    copy_program,
    successors,
    validate,
    value_operands,
)
from .passes import (PassLogEntry, _br, _condbr, _fix_phi_arm_labels,
                     _fresh_name, _labels, _log_entry, _Taken)

__all__ = ["BackendProfile", "LoweringError", "PROFILES", "lower"]


class LoweringError(Exception):
    """Raised when a program cannot be expressed on the chosen target."""


@dataclass(frozen=True)
class BackendProfile:
    """What the instruction selector may assume about the target."""

    name: str
    has_cmov: bool


PROFILES: dict[str, BackendProfile] = {
    "x86-64": BackendProfile("x86-64", has_cmov=True),
    "i386": BackendProfile("i386", has_cmov=False),
}


# ----------------------------------------------------------------------
# cmov-conversion heuristic
# ----------------------------------------------------------------------

def _conversion_marks(func: Function) -> set[int]:
    """Ids of selects that the converter turns back into branches.

    A select qualifies when its block sits in an innermost loop and any
    operand (condition included) depends on a load in the same block. In
    that combination a branch is presumed cheaper than a cmov stalled on
    the load, mirroring the behaviour of real if-converter tuning.
    """
    marked: set[int] = set()
    hot = {l for loop in innermost(natural_loops(func)) for l in loop.blocks}
    for block in func.blocks:
        if block.label not in hot:
            continue
        derived: set[str] = set()
        for ins in block.instrs:
            tainted = any(isinstance(o, str) and o in derived
                          for o in value_operands(ins))
            if ins.opcode == "select" and tainted:
                marked.add(ins.iid)
            if ins.result is None:
                continue
            if ins.opcode in ("load", "vload") or tainted:
                derived.add(ins.result)
    return marked


# ----------------------------------------------------------------------
# Rewriting
# ----------------------------------------------------------------------

def _split_to_diamond(func: Function, bidx: int, iidx: int, cond: object,
                      true_val: object, false_val: object, ins: Instruction,
                      labels: _Taken, blocks: dict[str, BasicBlock]) -> None:
    """Replace instrs[iidx] of block bidx with a condbr diamond.

    The join block keeps the rest of the original block, so later selects
    stay rewritable in place.  ``labels`` holds every label taken, and
    gains the diamond's; ``blocks`` maps the label of each block of the
    function being lowered to the block that keeps it.  No branch of that
    function targets a diamond's blocks but the diamond's own.
    """
    block = func.blocks[bidx]
    t_l = _fresh_name(labels, f"{block.label}.t")
    f_l = _fresh_name(labels, f"{block.label}.f")
    j_l = _fresh_name(labels, f"{block.label}.j")
    condbr = _condbr(func, ins.loc, cond, t_l, f_l)
    t_blk = [_br(func, ins.loc, j_l)]
    f_blk = [_br(func, ins.loc, j_l)]
    join_phi = Instruction(func.fresh_id(), "phi", ins.result,
                           (true_val, false_val), ins.loc, ins.width,
                           labels=(t_l, f_l))
    rest = block.instrs[iidx + 1:]
    block.instrs = block.instrs[:iidx] + [condbr]
    join = BasicBlock(j_l, [join_phi] + rest)
    func.blocks[bidx + 1:bidx + 1] = [
        BasicBlock(t_l, t_blk),
        BasicBlock(f_l, f_blk),
        join,
    ]
    # The edges out of the block now leave the join: only the phis of its
    # successors name the block.
    _fix_phi_arm_labels([blocks[l] for l in dict.fromkeys(successors(join))
                         if l in blocks], {block.label: j_l})


def _lower_function(func: Function, profile: BackendProfile,
                    cmov_conversion: bool) -> None:
    marks = (_conversion_marks(func)
             if profile.has_cmov and cmov_conversion else set())
    defs = func.defs()
    labels = _Taken(_labels(func))
    blocks = {b.label: b for b in func.blocks}

    # A split moves the rest of the block into its join block, which comes
    # later, so one forward scan reaches every instruction.
    bidx = 0
    while bidx < len(func.blocks):
        block = func.blocks[bidx]
        for iidx, ins in enumerate(block.instrs):
            if ins.opcode == "select":
                if profile.has_cmov and ins.iid not in marks:
                    block.instrs[iidx] = ins._replace(opcode="cmov")
                    continue
                cond, a, b = ins.operands
            elif ins.opcode == "vselect":
                mask, a, b = ins.operands
                mask_def = defs.get(mask) if isinstance(mask, str) else None
                if mask_def is None or mask_def.opcode != "splat":
                    raise LoweringError(
                        f"id {ins.iid}: vselect mask {mask!r} is not a splat")
                cond = mask_def.operands[0]
            else:
                continue
            _split_to_diamond(func, bidx, iidx, cond, a, b, ins, labels,
                              blocks)
            break
        bidx += 1


def lower(prog: Program, profile: BackendProfile,
          cmov_conversion: bool = False) -> tuple[Program, list[PassLogEntry]]:
    """Lower every select/vselect of the program's function for
    ``profile``; returns a lowered copy and its one-entry log."""
    if prog.stage != "midend":
        raise LoweringError(f"cannot lower a {prog.stage!r}-stage program")
    out = copy_program(prog)
    func = out.function()
    before = {i.iid for i in func.instructions()}
    _lower_function(func, profile, cmov_conversion)
    out.stage = "lowered"
    errors = validate(out)
    if errors:
        raise LoweringError(f"lowering broke the program: {errors[0]}")
    return out, [_log_entry("lower", func, before)]
