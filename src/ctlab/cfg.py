"""Control-flow analysis: natural and innermost loops, counted loops.

Loop transforms only handle the shape the toolchain's own frontends produce:
a header block that tests the bound and conditionally exits, a body that
eventually branches back to the header, and a step-1 induction variable
defined by a header phi.  Anything else is left alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import (Function, Instruction, dominators, evaluate, predecessors,
                 settle, successors)


@dataclass
class Loop:
    header: str
    latches: list[str]
    blocks: set[str] = field(default_factory=set)
    # The header's single predecessor outside the loop, or None when there
    # is not exactly one.  Like every field, a snapshot of the function when
    # natural_loops ran: a Loop built by hand has none.
    preheader: str | None = None


def natural_loops(func: Function) -> list[Loop]:
    """All natural loops, via back edges (tail dominated by head).

    Loops sharing a header are merged.  Result is sorted outermost-first
    (by block-set size, descending) with preheaders filled in.
    """
    dom = dominators(func)
    by_header: dict[str, Loop] = {}
    preds = predecessors(func)

    for block in func.blocks:
        if block.label not in dom:
            continue
        for succ in successors(block):
            if succ in dom.get(block.label, set()):
                # back edge block -> succ
                loop = by_header.setdefault(succ, Loop(succ, []))
                loop.latches.append(block.label)
                loop.blocks.add(succ)
                stack = [block.label]
                while stack:
                    l = stack.pop()
                    if l in loop.blocks:
                        continue
                    loop.blocks.add(l)
                    stack.extend(p for p in preds.get(l, []) if p in dom)

    loops = sorted(by_header.values(), key=lambda l: -len(l.blocks))
    for loop in loops:
        outside = [p for p in preds[loop.header] if p not in loop.blocks]
        if len(outside) == 1:
            loop.preheader = outside[0]
    return loops


def innermost(loops: list[Loop]) -> list[Loop]:
    """The loops that hold no other loop's header, in their given order."""
    headers = {l.header for l in loops}
    return [l for l in loops if headers & l.blocks <= {l.header}]


@dataclass
class CountedLoop:
    """A header-tested loop `for (iv = init; iv < bound; iv += 1)`.

    * header holds the iv phi, the bound compare, and a condbr whose taken
      edge enters the body and whose other edge exits.
    * the latch ends with `br header`.
    * bound is an int when it could be resolved through const definitions,
      else the operand name.
    """

    header: str
    latch: str
    exit: str
    iv_phi: Instruction
    init: object
    step_instr: Instruction
    cmp_instr: Instruction
    cond_br: Instruction
    bound: object

    @property
    def trip_count(self) -> int | None:
        if isinstance(self.init, int) and isinstance(self.bound, int):
            return max(0, self.bound - self.init)
        return None


def _resolve_const(defs: dict[str, Instruction], op: object) -> object:
    """Follow const definitions and shl/add/sub over resolved constants."""
    def reads(v):
        ins = defs.get(v)
        return ins.operands if ins and ins.opcode in ("shl", "add", "sub") \
            else ()

    def fold(v, value):
        ins = defs.get(v)
        args = [value[a] for a in reads(v)]
        if args and all(isinstance(a, int) for a in args):
            return evaluate(ins, *args)
        return ins.operands[0] if ins and ins.opcode == "const" else v

    return settle((op,), reads, fold, None)[op]


def counted_loop_info(func: Function, loop: Loop,
                      defs: dict[str, Instruction] | None = None
                      ) -> CountedLoop | None:
    """Recognize the canonical counted-loop shape, else None.  ``loop``
    must come from ``natural_loops(func)``, with its blocks and preheader
    unchanged since: the preheader is taken from it, not recomputed.
    ``defs``, when given, is ``func.defs()``."""
    header = func.block(loop.header)
    term = header.terminator
    if term is None or term.opcode != "condbr":
        return None
    taken, not_taken = term.labels
    if taken not in loop.blocks or not_taken in loop.blocks:
        return None

    # bound compare: icmp.lt iv, bound feeding the condbr
    defs = func.defs() if defs is None else defs
    cond = term.operands[0]
    if not isinstance(cond, str) or cond not in defs:
        return None
    cmp_ins = defs[cond]
    if cmp_ins.opcode != "icmp" or cmp_ins.pred != "lt":
        return None

    # induction phi in the header with a +1 step from a latch
    if len(loop.latches) != 1:
        return None
    latch = loop.latches[0]
    iv_phi = None
    for phi in header.phis():
        if cmp_ins.operands[0] == phi.result:
            iv_phi = phi
            break
    if iv_phi is None:
        return None

    init = None
    step_name = None
    if loop.preheader is None:
        return None
    for label, op in zip(iv_phi.labels, iv_phi.operands):
        if label == latch:
            step_name = op
        else:
            init = op
    if step_name is None or not isinstance(step_name, str) or step_name not in defs:
        return None
    step = defs[step_name]
    if step.opcode != "add" or step.operands[0] != iv_phi.result or step.operands[1] != 1:
        return None

    latch_term = func.block(latch).terminator
    if latch_term is None or latch_term.opcode != "br":
        return None

    bound = _resolve_const(defs, cmp_ins.operands[1])
    init_res = _resolve_const(defs, init)
    return CountedLoop(loop.header, latch, not_taken, iv_phi, init_res, step,
                       cmp_ins, term, bound)
