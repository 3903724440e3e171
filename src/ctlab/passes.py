"""Mid-end optimization passes and the pipeline runner.

Each pass is a small, deterministic model of the real transformation's
observable effect: it fires on the documented pattern and leaves everything
else untouched.  Each pass is a step that rewrites a function in place and
returns whether it changed anything; one that returns False has changed
nothing.  In place means in the function's block lists: instructions are
immutable values (see ``ir``), so a rewrite puts a new instruction where
the old one stood, and anything else that holds the old one, such as a
``defs()`` map, is stale until it is rebuilt or patched.

A step of a loop pass (path splitting, unswitching, unrolling) reads the
function's facts once, splices the block list once and renames the readers
of the values its rewrites dropped in one sweep (``_rewrite_loops``).  This
is sound because the loops it rewrites share no block or preheader, so each
rewrite reads the function as the step found it.

The runner copies the program, whose one function is the unit every pass
rewrites, runs each pass's step and then cleanup on it, each to its
fixpoint, validates the result when either reports a change, and logs
created/deleted instruction ids so leak findings can be attributed to the
pass that introduced them.  A step or cleanup that does not settle raises
an error that names it.  The runner keeps the state after each prefix of
passes it ran on a program, and starts a later run of that program from
the longest prefix it kept (see ``run_pipeline``).
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import attrgetter

from .cfg import counted_loop_info, innermost, natural_loops
from .ir import (
    BINARY_OPS,
    EVAL_OPS,
    LANE_WIDTH,
    LANEWISE_OPS,
    MEMO_SIZE,
    NO_RESULT_OPS,
    BasicBlock,
    Function,
    GlobalArray,
    Instruction,
    IRError,
    Program,
    clone_instruction,
    control_flow,
    copy_function,
    copy_program,
    evaluate,
    memo_key,
    predecessors,
    substitute,
    successors,
    validate,
    value_bits,
    value_operands,
)

# The pass table, in pipeline order: each entry takes one step of a pass
# with its knobs from the spec.  Steps are looked up as module globals at
# call time, so a wrapper installed on the module sees every step that
# runs; a pass whose result ``run_pipeline`` takes from its memo of states
# does not run.  Only ``loop_unswitch`` reads the spec, and only its
# ``unswitch_threshold``: the states ``run_pipeline`` keeps rely on that.
_PASSES = {
    "instcombine": lambda f, s: instcombine_lite(f),
    "jump_thread": lambda f, s: jump_thread(f),
    "path_split": lambda f, s: path_split(f),
    "loop_unswitch": lambda f, s: loop_unswitch(f, s.unswitch_threshold),
    "loop_unroll": lambda f, s: loop_unroll(f),
    "loop_vectorize": lambda f, s: loop_vectorize(f),
    "slp": lambda f, s: slp_lite(f),
    "if_convert": lambda f, s: if_convert(f),
}
PASS_ORDER = tuple(_PASSES)

# Every preset fully unrolls loops of at most 16 trips and vectorizes 4
# lanes wide.
_UNROLL_LIMIT = 16
_VECTOR_WIDTH = 4

_VECTOR_FORM = {scalar: vector for vector, scalar in LANEWISE_OPS.items()}
_PURE_OPS = EVAL_OPS | {"const", "select"}


class InternalPassError(Exception):
    """A pass produced an invalid function or did not settle; carries the
    partial pass log."""

    def __init__(self, message: str, log: list["PassLogEntry"]):
        super().__init__(message)
        self.log = log


@dataclass
class PipelineSpec:
    """Which passes run, their knobs, and the backend configuration."""

    toggles: dict[str, bool] = field(default_factory=dict)
    unswitch_threshold: int = 32
    backend: str = "x86-64"
    cmov_conversion: bool = False

    def __post_init__(self):
        unknown = set(self.toggles) - set(PASS_ORDER)
        if unknown:
            raise ValueError(f"unknown pass toggles: {sorted(unknown)}")
        self.toggles = {name: bool(self.toggles.get(name, False))
                        for name in PASS_ORDER}

    @property
    def order(self) -> list[str]:
        return [name for name in PASS_ORDER if self.toggles[name]]

    def with_toggles(self, **changes: bool) -> "PipelineSpec":
        """New spec with some pass toggles (or cmov_conversion) flipped."""
        for name in changes:
            if name not in PASS_ORDER and name != "cmov_conversion":
                raise ValueError(f"unknown toggle {name!r}")
        conversion = bool(changes.pop("cmov_conversion", self.cmov_conversion))
        return replace(self, toggles={**self.toggles, **changes},
                       cmov_conversion=conversion)

    def digest(self) -> str:
        # The constants keep the places of the settings they replaced, so
        # report, known-answer and benchmark keys stay valid.
        text = repr((sorted(self.toggles.items()), self.unswitch_threshold,
                     _UNROLL_LIMIT, _VECTOR_WIDTH, self.backend,
                     self.cmov_conversion))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class PassLogEntry:
    pass_name: str
    function: str
    summary: str
    created: tuple[int, ...] = ()
    deleted: tuple[int, ...] = ()


def _log_entry(name: str, func: Function, before: set[int]) -> PassLogEntry:
    """The log line for one application of ``name`` to ``func``, whose
    instruction ids were ``before``: "no change" when no id came or went."""
    after = {i.iid for i in func.instructions()}
    created = tuple(sorted(after - before))
    deleted = tuple(sorted(before - after))
    if not (created or deleted):
        return PassLogEntry(name, func.name, "no change")
    return PassLogEntry(name, func.name,
                        f"+{len(created)}/-{len(deleted)} instructions",
                        created, deleted)


# ======================================================================
# Shared helpers
# ======================================================================

def _all_names(func: Function) -> set[str]:
    return {p.name for p in func.params} | _defined_in(func.blocks)


class _Taken(set):
    """Names or labels taken, a set that only grows, with the counter of
    the last name ``_fresh_name`` gave each base (-1 for the bare base)."""

    def __init__(self, items=()):
        super().__init__(items)
        self.ends: dict[str, int] = {}


def _fresh_name(taken: set[str], base: str) -> str:
    """``base``, or ``base`` plus the smallest free counter; the result is
    added to ``taken``.  Serves value names and block labels alike.  In a
    ``_Taken`` the search resumes where the last one for ``base`` ended:
    every name before that is still taken, since the set only grows."""
    ends = taken.ends if isinstance(taken, _Taken) else {}
    n = ends.get(base, -1)
    name = base if n < 0 else f"{base}{n}"
    while name in taken:
        n += 1
        name = f"{base}{n}"
    taken.add(name)
    ends[base] = n
    return name


def _labels(func: Function) -> set[str]:
    return {b.label for b in func.blocks}


def _subst(blocks: list[BasicBlock], mapping: dict[str, object]) -> None:
    """Rename every value operand in ``blocks`` that ``mapping`` names: each
    instruction that reads one is replaced in its block."""
    for block in blocks:
        instrs = block.instrs
        for idx, ins in enumerate(instrs):
            if not mapping.keys().isdisjoint(ins.operands):
                instrs[idx] = ins._replace(operands=substitute(ins, mapping))


def _copy(f: Function, blocks: list[BasicBlock], vmap: dict[str, object],
          names: set[str], suffix: str,
          lmap: dict[str, str] | None = None) -> list[BasicBlock]:
    """Clone ``blocks`` under fresh ids, keeping each source location.

    Every result in ``blocks`` is first bound in ``vmap`` to a fresh
    ``<result><suffix>`` taken from ``names``; then each instruction is
    cloned with its operands renamed through ``vmap`` and its labels, and
    each block's own label, through ``lmap``.  Names are bound before any
    clone because a copy may use a value defined later in the region, as a
    nested loop's header phi does.
    """
    for block in blocks:
        for ins in block.instrs:
            if ins.result is not None:
                vmap[ins.result] = _fresh_name(names, ins.result + suffix)
    lmap = lmap or {}
    return [BasicBlock(lmap.get(block.label, block.label),
                       [clone_instruction(ins, f.fresh_id(), vmap, lmap,
                                          result=vmap.get(ins.result))
                        for ins in block.instrs])
            for block in blocks]


def _uses(func: Function) -> dict[str, list[Instruction]]:
    out: dict[str, list[Instruction]] = {}
    for ins in func.instructions():
        for op in value_operands(ins):
            if isinstance(op, str):
                out.setdefault(op, []).append(ins)
    return out


def _match_neg(defs: dict[str, Instruction], op: object) -> object | None:
    """Return c when op is defined as `neg c` or `sub 0, c`, else None."""
    if not isinstance(op, str) or op not in defs:
        return None
    ins = defs[op]
    if ins.opcode == "neg":
        return ins.operands[0]
    if ins.opcode == "sub" and ins.operands[0] == 0:
        return ins.operands[1]
    return None


def _relabel(block: BasicBlock, old: str, new: str) -> None:
    """Point ``block``'s terminator at ``new`` where it named ``old``."""
    term = block.instrs[-1]
    block.instrs[-1] = term._replace(
        labels=tuple(new if l == old else l for l in term.labels))


def _fix_phi_arm_labels(blocks: list[BasicBlock],
                        renames: dict[str, str]) -> None:
    """Rename the phi arm labels of ``blocks``: each key of ``renames``
    becomes its value.  Only the phis whose labels change are replaced."""
    for block in blocks:
        for idx, ins in enumerate(block.phis()):
            if not renames.keys().isdisjoint(ins.labels):
                block.instrs[idx] = ins._replace(
                    labels=tuple(renames.get(l, l) for l in ins.labels))


def _defined_in(blocks) -> set[str]:
    return {ins.result for b in blocks for ins in b.instrs
            if ins.result is not None}


def _read_only_by(uses: dict[str, list[Instruction]], instrs,
                  reader_ids: set[int]) -> bool:
    """Is every value that ``instrs`` define read only by instructions
    whose ids are in ``reader_ids``?  ``uses`` is ``_uses(func)``."""
    return all(user.iid in reader_ids for ins in instrs
               for user in uses.get(ins.result, ()))


def _loop_values_escape(blocks, uses: dict[str, list[Instruction]]) -> bool:
    """Does an instruction outside ``blocks`` read a value defined in
    them?  ``uses`` is ``_uses`` of their function."""
    inside = [ins for b in blocks for ins in b.instrs]
    return not _read_only_by(uses, inside, {ins.iid for ins in inside})


def _br(f: Function, loc, target: str) -> Instruction:
    return Instruction(f.fresh_id(), "br", None, (), loc, labels=(target,))


def _condbr(f: Function, loc, cond: object, taken: str,
            other: str) -> Instruction:
    return Instruction(f.fresh_id(), "condbr", None, (cond,), loc,
                       labels=(taken, other))


def _jump(ins: Instruction, target: str, iid: int | None = None
          ) -> Instruction:
    """``ins`` (a condbr) as a `br` to ``target``, under id ``iid`` when
    given, else its own."""
    return ins._replace(iid=ins.iid if iid is None else iid, opcode="br",
                        operands=(), labels=(target,))


def _set_arms(block: BasicBlock, idx: int, arms) -> None:
    """Make the arms of the phi ``block.instrs[idx]`` the (label, value)
    pairs ``arms``, in order."""
    block.instrs[idx] = block.instrs[idx]._replace(
        labels=tuple(l for l, _ in arms), operands=tuple(v for _, v in arms))


class _Facts:
    """Whole-function facts of ``f``, ``defs`` and ``uses``, each built at
    its first read.  They hold until ``f`` changes."""

    def __init__(self, f: Function):
        self.f = f

    defs = cached_property(lambda self: self.f.defs())
    uses = cached_property(lambda self: _uses(self.f))


class _LoopStep(_Facts):
    """One step of a loop pass over ``f``: the facts of ``f`` as the step
    found it, and what its rewrites add to it.

    ``defs``, ``uses``, and the sets of value ``names`` and block
    ``labels`` are built at their first read, which comes before the
    step's first edit: a rewrite reads what it needs before it edits.  A
    name or label that a rewrite drops stays taken for the step.  A
    rewrite puts blocks in ``replaced`` to take the place of a label's
    block, or ``appended`` at the end, and ``renames`` each value it drops;
    unrolling also keeps ``defs`` current (see ``_unroll_full``).
    """

    def __init__(self, f: Function):
        super().__init__(f)
        self.blocks = {b.label: b for b in f.blocks}
        self.position = control_flow(f).position    # orders labels
        self.loops = sorted(natural_loops(f), key=lambda l: (
            len(l.blocks), self.position(l.header)))    # innermost first
        self.replaced: dict[str, list[BasicBlock]] = {}
        self.appended: list[BasicBlock] = []
        self.renames: dict[str, object] = {}

    names = cached_property(lambda self: _Taken(_all_names(self.f)))
    labels = cached_property(lambda self: _Taken(self.blocks))

    def splice(self) -> None:
        """Put the rewrites' blocks in ``f``'s block list, at once."""
        self.f.blocks = [new for b in self.f.blocks
                         for new in self.replaced.get(b.label, (b,))] \
            + self.appended


def _rewrite_loops(step: _LoopStep, rewrite) -> bool:
    """Offer each loop, innermost first, to ``rewrite(step, loop)``, which
    returns whether it rewrote it; then splice the rewrites' blocks in at
    once, and rename the readers of the values they dropped in one sweep.

    A loop sharing a block or preheader with one rewritten before it waits
    for the next step, so each rewrite reads the function as the step found
    it.  A dropped value can be renamed to another loop's, so the renames
    are first resolved to the ends of their chains.
    """
    touched: set[str] = set()
    for loop in step.loops:
        span = loop.blocks | {loop.preheader} if loop.preheader \
            else loop.blocks
        if touched.isdisjoint(span) and rewrite(step, loop):
            touched |= span
    if not touched:
        return False
    step.splice()
    if step.renames:
        _resolve_copies(step.renames)
        _subst(step.f.blocks, step.renames)
    return True


# Steps after which a rewrite is taken not to settle.  A step rewrites every
# match it finds, so no step needs more than a handful on the corpus.
_FIXPOINT_STEPS = 200


def _to_fixpoint(step, f: Function, what: str) -> bool:
    """Call ``step(f)`` until it reports no change; True when anything
    changed.  Raises InternalPassError, naming ``what`` and the function,
    when ``f`` still changes after ``_FIXPOINT_STEPS`` steps."""
    changed = False
    for _ in range(_FIXPOINT_STEPS):
        if not step(f):
            return changed
        changed = True
    raise InternalPassError(
        f"{what} of {f.name} did not reach a fixpoint in "
        f"{_FIXPOINT_STEPS} steps", [])


# ======================================================================
# Cleanup: folding, copy propagation, DCE, CFG tidying
# ======================================================================

def _fold_constants(func: Function) -> bool:
    changed = False
    for block in func.blocks:
        for idx, ins in enumerate(block.instrs):
            ops = ins.operands
            # EVAL_OPS take at most two operands: the first and last are all.
            if ins.opcode in EVAL_OPS and isinstance(ops[0], int) \
                    and isinstance(ops[-1], int):
                block.instrs[idx] = ins._replace(
                    opcode="const", pred=None, operands=(evaluate(ins, *ops),))
                changed = True
            elif ins.opcode == "condbr" and isinstance(ops[0], int):
                block.instrs[idx] = _jump(
                    ins, ins.labels[0] if ops[0] else ins.labels[1])
                changed = True
    return changed


# Binary op -> (its identity operand, whether the identity also works on
# the left, its absorbing operand or None).  An identity of -1 is all ones
# at the instruction's width.  ``x op identity`` is x and ``x op absorbing``
# is absorbing; a right identity is tried first, then a left one.
_IDENTITIES = {
    **dict.fromkeys(("add", "or", "xor"), (0, True, None)),
    **dict.fromkeys(("sub", "shl", "lshr"), (0, False, None)),
    "and": (-1, True, 0),
    "mul": (1, True, 0),
}


def _apply_copies(func: Function) -> bool:
    """Forward const-condition selects, trivial phis, and identities whose
    forwarded operand already fits the instruction's width."""
    defs = func.defs()

    def const_of(op):
        if isinstance(op, int):
            return op
        d = defs.get(op)
        return d.operands[0] if d is not None and d.opcode == "const" else None

    copies: dict[str, object] = {}
    for ins in func.instructions():
        if ins.result is None:
            continue
        tgt = None
        ops = ins.operands
        if ins.opcode == "select":
            c = const_of(ops[0])
            if c is not None:
                tgt = ops[1] if c else ops[2]
        elif ins.opcode == "phi":
            if len(ops) >= 1 and len(set(ops)) == 1 and ops[0] != ins.result:
                tgt = ops[0]
        elif ins.opcode in _IDENTITIES:
            identity, commutes, absorbing = _IDENTITIES[ins.opcode]
            identity &= (1 << ins.width) - 1
            if ops[1] == identity:
                tgt = ops[0]
            elif commutes and ops[0] == identity:
                tgt = ops[1]
            elif absorbing in ops:
                tgt = absorbing
        if tgt is None or tgt == ins.result:
            continue
        if ins.opcode in BINARY_OPS and value_bits(func, tgt, defs) > ins.width:
            continue            # the identity still wraps tgt to the width
        copies[ins.result] = tgt
    if not copies:
        return False
    _resolve_copies(copies)
    _subst(func.blocks, copies)
    for block in func.blocks:
        block.instrs = [i for i in block.instrs if i.result not in copies]
    return True


def _resolve_copies(copies: dict[str, object]) -> None:
    """Point each copy at the end of its chain of copies, in place.

    A chain ends at the first value that is not itself a copy.  A chain
    that runs into a cycle of copies ends where it enters the cycle when
    it is resolved before every member of the cycle, and at the cycle's
    first member in ``copies`` order otherwise: the answer of resolving
    one name at a time, in that order, by walking to the end or to the
    first repeat.  Each name is walked once.
    """
    order = {name: i for i, name in enumerate(copies)}
    end: dict[str, tuple[object, str | None]] = {}  # -> (entry, cycle root)
    for start in copies:
        path: dict[str, int] = {}       # name -> its place on this walk
        v = start
        while v in copies and v not in end and v not in path:
            path[v] = len(path)
            v = copies[v]
        walk = list(path)
        if v in path:                   # the walk closed a new cycle
            cycle, walk = walk[path[v]:], walk[:path[v]]
            root = min(cycle, key=order.__getitem__)
            end.update((c, (c, root)) for c in cycle)
        fate = end.get(v, (v, None))
        end.update((p, fate) for p in walk)
    for name, (entry, root) in end.items():
        copies[name] = (entry if root is None or order[name] < order[root]
                        else root)


def _remove_dead_code(func: Function) -> bool:
    used: set[str] = set()
    for ins in func.instructions():
        for op in value_operands(ins):
            if isinstance(op, str):
                used.add(op)
    changed = False
    for block in func.blocks:
        kept = [i for i in block.instrs
                if i.opcode in NO_RESULT_OPS or i.result in used]
        if len(kept) != len(block.instrs):
            block.instrs = kept
            changed = True
    return changed


def _tidy_cfg(func: Function) -> bool:
    """Drop unreachable blocks and phi arms from vanished predecessors."""
    changed = False
    flow = control_flow(func)
    if len(flow.reachable) != len(func.blocks):
        func.blocks = [b for b in func.blocks if b.label in flow.reachable]
        flow = control_flow(func)
        changed = True
    for block in func.blocks:
        for idx, ins in enumerate(block.phis()):
            here = flow.preds(block.label)
            if not set(ins.labels).issubset(here):
                _set_arms(block, idx, [a for a in zip(ins.labels, ins.operands)
                                       if a[0] in here])
                changed = True
    return changed


def _remove_redundant_stores(func: Function,
                             globals_: dict[str, GlobalArray]) -> bool:
    """Drop `store g, i, v` when v was loaded from g[i], at least as wide as
    g's elements, earlier in the same block with no intervening store to g."""
    changed = False
    for block in func.blocks:
        drop = set()
        for idx, ins in enumerate(block.instrs):
            if ins.opcode != "store" or not isinstance(ins.operands[2], str):
                continue
            g, off, v = ins.operands
            for j in range(idx - 1, -1, -1):
                prev = block.instrs[j]
                if prev.result == v:
                    region = globals_.get(g) or func.param(g).type
                    if prev.opcode == "load" and prev.operands == (g, off) \
                            and prev.width >= region.elem_width:
                        drop.add(idx)
                    break
                if prev.opcode in ("store", "vstore") and prev.operands[0] == g:
                    break
        if drop:
            block.instrs = [i for k, i in enumerate(block.instrs)
                            if k not in drop]
            changed = True
    return changed


def _merge_blocks(func: Function) -> bool:
    """Fold every chain of blocks joined by `br` into the chain's head.  A
    block joins its predecessor's chain when that predecessor is its only
    one, it has no phis and it is not the entry."""
    preds = predecessors(func)
    by_label = {b.label: b for b in func.blocks}
    merged: dict[str, str] = {}         # folded label -> block it joined
    for b in func.blocks:
        if b.label in merged:
            continue
        while True:
            term = b.terminator
            if term is None or term.opcode != "br":
                break
            target = term.labels[0]
            if target == b.label or target == func.entry \
                    or preds.get(target) != [b.label]:
                break
            tblock = by_label[target]
            if tblock.phis():
                break
            b.instrs[-1:] = tblock.instrs
            merged[target] = b.label
            for succ in successors(tblock):
                preds[succ] = [b.label if p == target else p
                               for p in preds.get(succ, ())]
    if not merged:
        return False
    func.blocks = [b for b in func.blocks if b.label not in merged]
    for label in merged:                # a head may itself have been folded
        head = merged[label]
        while head in merged:
            head = merged[head]
        merged[label] = head
    _fix_phi_arm_labels(func.blocks, merged)
    return True


def cleanup(f: Function, globals_: dict[str, GlobalArray]) -> bool:
    """Folding, copy propagation, DCE, and CFG tidying, in place, to a
    fixpoint; True when anything changed.  Each sweep merges every block
    chain, so the corpus settles within a handful."""
    return _to_fixpoint(
        lambda f: (_fold_constants(f) | _apply_copies(f) | _remove_dead_code(f)
                   | _tidy_cfg(f) | _remove_redundant_stores(f, globals_)
                   | _merge_blocks(f)), f, "cleanup")


# ======================================================================
# instcombine
# ======================================================================

def instcombine_lite(f: Function) -> bool:
    """Rewrite bit-mask selection arithmetic into selects.

    (i)  b ^ ((0 - c) & (a ^ b))  ->  select c, a, b
    (ii) (0 - c) & a              ->  select c, a, 0

    with c provably 0/1.  The select takes the root instruction's place,
    keeping its result name and source location under a fresh id.  Roots
    whose result has no users are skipped, so a repeated step does not
    re-match the `and` an earlier one consumed.  An inner `and` of (i) that
    has users besides the blend outlives its rewrite, and the next step
    rewrites it by (ii) like any other mask.
    """
    defs = f.defs()
    used = _uses(f)
    consumed: set[int] = set()
    rewrites: list[tuple[int, tuple]] = []

    def match_masked_blend(root: Instruction):
        # root: xor(b, and(neg(c), xor(a, b)))
        for b_op, t1_op in ((root.operands[0], root.operands[1]),
                            (root.operands[1], root.operands[0])):
            if not isinstance(t1_op, str) or t1_op not in defs:
                continue
            and_ins = defs[t1_op]
            if and_ins.opcode != "and":
                continue
            for m_op, t0_op in ((and_ins.operands[0], and_ins.operands[1]),
                                (and_ins.operands[1], and_ins.operands[0])):
                c = _match_neg(defs, m_op)
                if c is None or value_bits(f, c, defs) > 1:
                    continue
                if not isinstance(t0_op, str) or t0_op not in defs:
                    continue
                xor_ins = defs[t0_op]
                if xor_ins.opcode != "xor":
                    continue
                for a_op, b2_op in ((xor_ins.operands[0], xor_ins.operands[1]),
                                    (xor_ins.operands[1], xor_ins.operands[0])):
                    if b2_op == b_op:
                        return (c, a_op, b_op), and_ins.iid
        return None

    # Whole-tree matches first so the inner `and` is not claimed by (ii).
    for root in f.instructions():
        if root.opcode != "xor" or root.result not in used:
            continue
        m = match_masked_blend(root)
        if m is not None:
            rewrites.append((root.iid, m[0]))
            consumed.add(m[1])

    for root in f.instructions():
        if root.opcode != "and" or root.iid in consumed \
                or root.result not in used:
            continue
        for m_op, a_op in ((root.operands[0], root.operands[1]),
                           (root.operands[1], root.operands[0])):
            c = _match_neg(defs, m_op)
            if c is not None and value_bits(f, c, defs) <= 1:
                rewrites.append((root.iid, (c, a_op, 0)))
                break

    table = dict(rewrites)
    for block in f.blocks:
        for idx, ins in enumerate(block.instrs):
            if ins.iid in table:
                block.instrs[idx] = Instruction(
                    f.fresh_id(), "select", ins.result, table[ins.iid],
                    ins.loc, ins.width)
    return bool(table)


# ======================================================================
# jump threading
# ======================================================================

def _true_range(cmp: Instruction) -> list[tuple[int, int]]:
    """The values x for which `icmp x, k` holds, as ranges: each predicate
    is uniformly true or false below k, at k, and above k."""
    k = cmp.operands[1]
    pieces = ((0, k - 1), (k, k), (k + 1, (1 << cmp.width) - 1))
    return [(lo, hi) for lo, hi in pieces if lo <= hi and evaluate(cmp, lo, k)]


def _ranges_disjoint(r1, r2) -> bool:
    return all(a_hi < b_lo or b_hi < a_lo
               for a_lo, a_hi in r1 for b_lo, b_hi in r2)


def _cmp_against_const(defs, op):
    if not isinstance(op, str) or op not in defs:
        return None
    ins = defs[op]
    if ins.opcode == "icmp" and isinstance(ins.operands[0], str) \
            and isinstance(ins.operands[1], int):
        return ins
    return None


def jump_thread(f: Function) -> bool:
    """Thread correlated conditions through a pair of selects.

    When a block computes `r1 = select c1, A1, B1` and later
    `r2 = select c2, A2, r1`, with c1 and c2 comparing the same value
    against constants whose true-ranges cannot both hold, the block is
    rewritten into explicit branches where the c1-true path skips the c2
    test entirely.  A step threads every such pair, block by block, looking
    again at a block after threading it and then at the blocks it split
    into; each threading turns two selects into branches, so the scan ends.
    The step reads the function once (``_ThreadStep``) and sets its block
    list once.
    """
    step = _ThreadStep(f)
    todo = f.blocks[::-1]               # the next block last
    done: list[BasicBlock] = []
    changed = False
    while todo:
        block = todo.pop()
        split = next(filter(None, (
            _thread_pair(step, block, i1, i2)
            for i1, i2 in _select_pairs(block.instrs))), None)
        if split is None:
            done.append(block)
        else:
            todo += [*reversed(split), block]
            changed = True
    if changed:
        f.blocks = done
    return changed


def _select_pairs(instrs: list[Instruction]):
    """The positions ``(i1, i2)``, ``i1 < i2``, of every pair of selects in
    ``instrs``, ordered by ``i1`` then ``i2``.  The list is read only as far
    as the pairs taken need: the first pairs come without a scan of the
    rest of a long block."""
    found: list[int] = []
    scan = (i for i, ins in enumerate(instrs) if ins.opcode == "select")

    def has(k: int) -> bool:            # is there a k-th select?
        while len(found) <= k:
            nxt = next(scan, None)
            if nxt is None:
                return False
            found.append(nxt)
        return True

    i1 = 0
    while has(i1 + 1):
        i2 = i1 + 1
        while has(i2):
            yield found[i1], found[i2]
            i2 += 1
        i1 += 1


class _ThreadStep(_Facts):
    """One step of jump threading over ``f``: the facts of ``f`` as the
    step found it, kept current as it threads.

    ``arms`` maps each label to the blocks holding a phi with an arm from
    it.  It, ``defs``, ``uses`` and the value ``names`` and block
    ``labels`` taken are each built at their first read, which comes
    before the step's first edit (``_thread_pair`` reads them all before
    it edits).  A name that a threading drops is free again, as in a
    function read afresh.
    """

    @cached_property
    def arms(self) -> dict[str, list[BasicBlock]]:
        out: dict[str, list[BasicBlock]] = {}
        for block in self.f.blocks:
            for l in {l for ins in block.phis() for l in ins.labels}:
                out.setdefault(l, []).append(block)
        return out

    names = cached_property(lambda self: _all_names(self.f))
    labels = cached_property(lambda self: _Taken(_labels(self.f)))


_JOIN_SUFFIX = re.compile(r"\.join[0-9]*\Z")


def _thread_pair(step: _ThreadStep, block: BasicBlock, i1: int,
                 i2: int) -> list[BasicBlock] | None:
    """Thread the selects ``block.instrs[i1]`` and ``[i2]``: ``block``
    keeps the code before them, and the blocks returned, to follow it,
    hold the two paths and the join.  None when the pair does not
    qualify."""
    f, defs = step.f, step.defs
    s1, s2 = block.instrs[i1], block.instrs[i2]
    c1 = _cmp_against_const(defs, s1.operands[0])
    c2 = _cmp_against_const(defs, s2.operands[0])
    if c1 is None or c2 is None or c1.operands[0] != c2.operands[0]:
        return None
    if not _ranges_disjoint(_true_range(c1), _true_range(c2)):
        return None

    r1 = s1.result
    b1 = s1.operands[2]
    a2, b2 = s2.operands[1], s2.operands[2]
    segment = block.instrs[i1 + 1:i2]
    mids = [ins for ins in segment if ins is not c2]
    if any(ins.opcode not in _PURE_OPS for ins in mids):
        return None
    before_s1 = {ins.result for ins in block.instrs[:i1] if ins.result}

    def available_early(op) -> bool:
        return not isinstance(op, str) or op in before_s1 \
            or f.param(op) is not None

    # c2 is evaluated up front on the false path, so its compared value
    # must already exist there.
    if c2 in segment and not available_early(c2.operands[0]):
        return None

    if not _read_only_by(step.uses, mids + [s1],
                         {m.iid for m in mids + [s2]}):
        return None
    mid_names = {m.result for m in mids if m.result}
    # The c1-true arm never computes the mids, so s2's false side must be
    # r1 or available before the split; the true side may also be a mid.
    if b2 != r1 and not available_early(b2):
        return None
    if a2 != r1 and a2 not in mid_names and not available_early(a2):
        return None

    labels, names, arms = step.labels, step.names, step.arms
    # Named after the block with any `.join<k>` of an earlier threading
    # dropped, so k threadings in a row make labels of O(log k) characters.
    base = _JOIN_SUFFIX.sub("", block.label)
    bt = _fresh_name(labels, f"{base}.t")
    bf = _fresh_name(labels, f"{base}.f")
    bft = _fresh_name(labels, f"{base}.ft")
    bff = _fresh_name(labels, f"{base}.ff")
    bj = _fresh_name(labels, f"{base}.join")

    # False path recomputes the mids with r1 bound to its false value.
    fmap: dict[str, object] = {r1: b1}
    false_block, = _copy(f, [BasicBlock(bf, mids)], fmap, names, ".jt")
    arm_t = s1.operands[1] if b2 == r1 else b2
    arm_ft, arm_ff = fmap.get(a2, a2), fmap.get(b2, b2)

    # The edges out of `block` now leave the join.
    arms[bj] = arms.pop(block.label, [])
    _fix_phi_arm_labels(arms[bj], {block.label: bj})
    head = block.instrs[:i1]
    if c2 in segment:
        head.append(c2)
    post = block.instrs[i2 + 1:]

    branch = _condbr(f, s1.loc, s1.operands[0], bt, bf)
    head.append(branch)
    false_block.instrs.append(_condbr(f, s2.loc, s2.operands[0], bft, bff))
    phi = Instruction(f.fresh_id(), "phi", s2.result, (arm_t, arm_ft, arm_ff),
                      s2.loc, s2.width, labels=(bt, bft, bff))
    join = BasicBlock(bj, [phi] + post)
    split = [BasicBlock(bt, [_br(f, s1.loc, bj)]), false_block,
             BasicBlock(bft, [_br(f, s2.loc, bj)]),
             BasicBlock(bff, [_br(f, s2.loc, bj)]), join]
    block.instrs = head
    gone = [s1, s2, *mids]
    for ins in gone:
        del defs[ins.result]
    _track(defs, step.uses, gone, [branch, *false_block.instrs, phi])
    names -= {ins.result for ins in gone}
    names.add(s2.result)
    for label in (bt, bft, bff):
        arms[label] = [join]
    return split


# ======================================================================
# path splitting
# ======================================================================

def path_split(f: Function) -> bool:
    """Duplicate a loop latch tail below a select into two explicit paths.

    A latch `...; r = select c, a, b; tail...; br header` becomes a
    conditional branch into two tail copies, one with r bound to a and one
    with r bound to b, both branching back to the header.  A step splits
    every such latch.
    """
    return _rewrite_loops(_LoopStep(f), _split_latch)


def _split_latch(step: _LoopStep, loop) -> bool:
    if len(loop.latches) != 1:
        return False
    latch_label = loop.latches[0]
    latch = step.blocks[latch_label]
    term = latch.terminator
    if term is None or term.opcode != "br" or term.labels != (loop.header,):
        return False
    sel_at = next((i for i, ins in enumerate(latch.instrs)
                   if ins.opcode == "select"), None)
    if sel_at is None:
        return False
    sel = latch.instrs[sel_at]
    tail = latch.instrs[sel_at + 1:]        # no phi follows a select
    header = step.blocks[loop.header]   # the latch itself when one block

    f = step.f
    lt = _fresh_name(step.labels, f"{latch_label}.t")
    lf = _fresh_name(step.labels, f"{latch_label}.f")
    t_map: dict[str, object] = {sel.result: sel.operands[1]}
    f_map: dict[str, object] = {sel.result: sel.operands[2]}
    step.replaced[latch_label] = [
        latch, *_copy(f, [BasicBlock(lt, tail)], t_map, step.names, ".t"),
        *_copy(f, [BasicBlock(lf, tail)], f_map, step.names, ".f")]

    latch.instrs = latch.instrs[:sel_at] + [
        _condbr(f, sel.loc, sel.operands[0], lt, lf)]
    for idx, phi in enumerate(header.phis()):   # each has a latch arm
        arms = []
        for l, v in zip(phi.labels, phi.operands):
            arms += [(lt, t_map.get(v, v)), (lf, f_map.get(v, v))] \
                if l == latch_label else [(l, v)]
        _set_arms(header, idx, arms)
    return True


# ======================================================================
# loop unswitching
# ======================================================================

# Unswitching clones whole loops, so k invariant conditions in one loop ask
# for 2**k copies.  The loops entered from its guard blocks (labelled
# _GUARD) may hold at most _UNSWITCH_GROWTH times the unswitch threshold in
# instructions; conditions past that budget stay in their loops.
_GUARD = "unsw.guard"
_UNSWITCH_GROWTH = 8


def loop_unswitch(f: Function, threshold: int = 32) -> bool:
    """Hoist loop-invariant conditions out of loops by duplication.

    The loop is cloned under a new guard branch on the invariant condition;
    in each copy the select (or loop-internal condbr) collapses to one
    side.  Loops whose instruction count exceeds `threshold` are left
    alone.  A step unswitches every loop it can, on one condition each, and
    stops cloning once the loops entered from unswitch guards would hold
    more than `_UNSWITCH_GROWTH` times `threshold` instructions.
    """
    step = _LoopStep(f)
    size = {l.header: sum(len(step.blocks[b].instrs) for b in l.blocks)
            for l in step.loops}
    guarded = {l.header for l in step.loops
               if (l.preheader or "").startswith(_GUARD)}
    budget = _UNSWITCH_GROWTH * threshold - sum(size[h] for h in guarded)

    def unswitch(step: _LoopStep, loop) -> bool:
        nonlocal budget
        # The clone is new growth, and so is the loop itself the first time.
        cost = size[loop.header] * (1 if loop.header in guarded else 2)
        if size[loop.header] > threshold or cost > budget \
                or not _unswitch_loop(step, loop):
            return False
        budget -= cost
        return True

    return _rewrite_loops(step, unswitch)


def _unswitch_loop(step: _LoopStep, loop) -> bool:
    if loop.preheader is None:
        return False
    blocks = step.blocks
    inside = [blocks[l] for l in loop.blocks]
    if _loop_values_escape(inside, step.uses):
        return False
    if any(blocks[e].phis() for b in inside for e in successors(b)
           if e not in loop.blocks):
        return False

    loop_defs = _defined_in(inside)

    def invariant(op) -> bool:
        return isinstance(op, str) and op not in loop_defs

    ordered = sorted(loop.blocks, key=step.position)
    # The first invariant select, else the first loop-internal condbr on an
    # invariant condition.
    candidate = next(
        (("select", l, ins) for l in ordered for ins in blocks[l].instrs
         if ins.opcode == "select" and invariant(ins.operands[0])), None) \
        or next((("condbr", l, t) for l in ordered
                 for t in [blocks[l].terminator]
                 if t is not None and t.opcode == "condbr"
                 and invariant(t.operands[0])
                 and all(x in loop.blocks for x in t.labels)), None)
    if candidate is None:
        return False

    f = step.f
    kind, cand_label, cand = candidate
    pre = loop.preheader
    label_map = {l: _fresh_name(step.labels, f"{l}.us") for l in ordered}
    originals = [blocks[l] for l in ordered]
    clones = _copy(f, originals, {}, step.names, ".us", label_map)

    # Original copy takes the condition-true side, the clone the false.
    block = blocks[cand_label]
    cblock = clones[ordered.index(cand_label)]
    at = block.instrs.index(cand)       # in the clone too
    if kind == "select":
        del block.instrs[at]
        csel = cblock.instrs.pop(at)
        _subst(originals, {cand.result: cand.operands[1]})
        _subst(clones, {csel.result: csel.operands[2]})
    else:
        block.instrs[at] = _jump(cand, cand.labels[0])
        cblock.instrs[at] = _jump(cblock.instrs[at],
                                  cblock.instrs[at].labels[1])

    guard_label = _fresh_name(step.labels, _GUARD)
    guard = BasicBlock(guard_label, [
        _condbr(f, cand.loc, cand.operands[0], loop.header,
                label_map[loop.header])])

    _relabel(blocks[pre], loop.header, guard_label)
    _fix_phi_arm_labels([blocks[loop.header]] + clones, {pre: guard_label})
    step.replaced[loop.header] = [guard, blocks[loop.header]]
    step.appended += clones
    return True


# ======================================================================
# loop unrolling
# ======================================================================

def loop_unroll(f: Function) -> bool:
    """Fully unroll counted loops whose trip count is a known constant at
    most `_UNROLL_LIMIT`.  Innermost loops first, every such loop per step;
    duplicated instructions keep their source locations under fresh ids.
    Runtime-bound loops are left alone.
    """
    return _rewrite_loops(_LoopStep(f), _unroll_full)


def _unroll_full(step: _LoopStep, loop) -> bool:
    f, blocks = step.f, step.blocks
    info = counted_loop_info(f, loop, step.defs, blocks)
    if info is None:
        return False
    trip = info.trip_count
    if trip is None or trip > _UNROLL_LIMIT:
        return False
    header_label = loop.header
    pre = loop.preheader
    header = blocks[header_label]
    header_rest = [i for i in header.instrs
                   if i.opcode != "phi" and not i.is_terminator]
    body_labels = sorted(loop.blocks - {header_label}, key=step.position)
    body = [blocks[l] for l in body_labels]
    body_entry = info.cond_br.labels[0]

    # The only way out must be the header exit, and no body phi may draw
    # a value from the header directly.
    if any(s not in loop.blocks for b in body for s in successors(b)) or any(
            header_label in phi.labels for b in body for phi in b.phis()):
        return False

    h_labels = [_fresh_name(step.labels, f"{header_label}.it{k}")
                for k in range(trip + 1)]
    b_label_maps = [
        {l: _fresh_name(step.labels, f"{l}.it{k}") for l in body_labels}
        for k in range(trip)
    ]

    def arms_from(label):       # header phi -> its value on the edge
        return {phi.result: v for phi in header.phis()
                for l, v in zip(phi.labels, phi.operands) if l == label}

    latch_val = arms_from(info.latch)
    iv = info.iv_phi.result
    cur = {**arms_from(pre), iv: info.init}
    new_blocks: list[BasicBlock] = []
    for k in range(trip + 1):
        # Header phis become the tracked per-peel values in cur; phis of
        # nested loop headers are ordinary defs and get fresh names.
        vmap: dict[str, object] = dict(cur)
        hb, = _copy(f, [BasicBlock(h_labels[k], header_rest)], vmap,
                    step.names, f".it{k}")
        if k == trip:
            hb.instrs.append(_br(f, info.cond_br.loc, info.exit))
            new_blocks.append(hb)
            break

        lmap = dict(b_label_maps[k])
        lmap[header_label] = h_labels[k + 1]
        hb.instrs.append(_br(f, info.cond_br.loc, lmap[body_entry]))
        new_blocks.append(hb)
        new_blocks += _copy(f, body, vmap, step.names, f".it{k}", lmap)

        nxt = {r: vmap.get(op, op) for r, op in latch_val.items()}
        nxt[iv] = evaluate(info.step_instr, cur[iv], 1)
        cur = nxt

    # The new blocks take the loop's place.  The header's only successor
    # outside the loop is the exit, so only the exit's phis name it, and
    # outside readers read the last peel's values.
    _relabel(blocks[pre], header_label, h_labels[0])
    _fix_phi_arm_labels([blocks[info.exit]], {header_label: h_labels[trip]})
    step.replaced.update(dict.fromkeys(loop.blocks, []))
    step.replaced[header_label] = new_blocks
    renames = {n: vmap[n] for n in _defined_in([header] + body)
               if vmap.get(n, n) != n}
    step.renames.update(renames)
    # A later loop of the step may count its trips from these values, so
    # ``defs`` gains the new ones and defines each dropped one as its last
    # peel's.  A parameter has no definition, and n's phi folds no more.
    defs = step.defs
    defs.update((i.result, i) for b in new_blocks for i in b.instrs
                if i.result is not None)
    for n, v in renames.items():
        if isinstance(v, int):
            defs[n] = Instruction(-1, "const", n, (v,), info.cond_br.loc)
        elif v in defs:
            defs[n] = defs[v]
    return True


# ======================================================================
# loop vectorization
# ======================================================================

def loop_vectorize(f: Function) -> bool:
    """Turn simple counted loops into a vector loop plus scalar epilogue.

    Fires on two-block loops whose body is iv-affine loads/stores and
    lanewise arithmetic; selects on loop-invariant conditions become
    vselects on a splatted mask.  The original loop remains as the
    remainder epilogue and keeps its instruction ids.  One step vectorizes
    every eligible innermost loop; a vectorized loop's header then has two
    outside predecessors, so it is not vectorized again.

    The step reads every fact of a ``_LoopStep`` before it edits anything.
    It extends ``defs``, the use map and the name and label sets with what
    each rewrite adds and replaces, and splices every rewrite's blocks in
    at once at its end.  Its map from label to block stays right for the
    loops' own labels and preheaders as it is: a rewrite keeps every block
    object it does not add.
    """
    step = _LoopStep(f)
    # Build the facts now: until the step splices, `f` lacks its rewrites.
    step.defs, step.uses, step.names, step.labels
    for loop in innermost(step.loops):
        plan = _vector_plan(f, loop, step.defs, step.uses, step.blocks)
        if plan is not None:
            _apply_vector_plan(step, plan)
    if not step.replaced:
        return False
    step.splice()
    return True


def _track(defs: dict[str, Instruction], uses: dict[str, list[Instruction]],
           gone, new) -> None:
    """Update ``defs`` and ``uses`` (``f.defs()`` and ``_uses(f)``) after
    the instructions ``gone`` left ``f`` and ``new`` joined it.  A reader
    joins the end of its use lists, whose order no pass relies on."""
    for ins in gone:
        for op in value_operands(ins):
            if isinstance(op, str):
                readers = uses[op]
                readers.remove(ins)
                if not readers:
                    del uses[op]
    for ins in new:
        if ins.result is not None:
            defs[ins.result] = ins
        for op in value_operands(ins):
            if isinstance(op, str):
                uses.setdefault(op, []).append(ins)


@dataclass
class _VecPlan:
    loop: object
    info: object
    body: list[Instruction]
    offadds: set[str]
    invariants: list[object]


def _vector_plan(f: Function, loop, defs, uses, blocks) -> _VecPlan | None:
    """What vectorizing ``loop`` takes, or None when it does not fit;
    ``defs`` and ``uses`` are ``f.defs()`` and ``_uses(f)``, and ``blocks``
    maps the loop's labels to their blocks."""
    info = counted_loop_info(f, loop, defs, blocks)
    if info is None or len(loop.blocks) != 2:
        return None
    header = blocks[loop.header]
    latch = blocks[info.latch]
    if len(header.phis()) != 1 or len(header.instrs) != 3:
        return None
    inside = [blocks[l] for l in loop.blocks]
    if _loop_values_escape(inside, uses):
        return None
    iv = info.iv_phi.result
    loop_defs = _defined_in(inside)
    body = [ins for ins in latch.instrs[:-1] if ins is not info.step_instr]
    if not any(ins.opcode in ("load", "store") for ins in body):
        return None

    def invariant(op) -> bool:
        return isinstance(op, int) or (isinstance(op, str)
                                       and op not in loop_defs)

    # iv-affine address computations: add(inv, iv) used only as offsets.
    offadds: dict[str, object] = {}
    for ins in body:
        if ins.opcode == "add" and ins.result is not None:
            a, b = ins.operands
            if a == iv and invariant(b):
                offadds[ins.result] = b
            elif b == iv and invariant(a):
                offadds[ins.result] = a
    for name in list(offadds):
        if not all(u.opcode in ("load", "store") and u.operands[1] == name
                   for u in uses.get(name, [])):
            del offadds[name]

    def off_key(op):
        if op == iv:
            return ("iv",)
        if isinstance(op, str) and op in offadds:
            return ("iv+", offadds[op])
        return None

    # Any other iv use would make a lane value depend on the lane index.
    for user in uses.get(iv, []):
        if user is info.step_instr or user is info.cmp_instr:
            continue
        if user.result in offadds:
            continue
        if user.opcode in ("load", "store") and user.operands[1] == iv:
            value_slots = user.operands[2:] if user.opcode == "store" else ()
            if iv not in value_slots:
                continue
        return None

    invariants: list[object] = []
    vec_results = {ins.result for ins in body
                   if ins.result is not None and ins.result not in offadds}

    def need_splat(op) -> bool:
        # A lane is 32 bits: a wider scalar would lose its high bits.
        if value_bits(f, op, defs) > LANE_WIDTH:
            return False
        if op not in invariants:
            invariants.append(op)
        return True

    def data_operand_ok(op) -> bool:
        if op == iv or (isinstance(op, str) and op in offadds):
            return False
        if invariant(op):
            return need_splat(op)
        # Loop-defined scalars (step, compare) have no vector counterpart.
        return op in vec_results

    access_keys: dict[str, set] = {}
    stored: set[str] = set()
    for ins in body:
        if ins.result in offadds:
            continue
        if ins.opcode == "load":
            key = off_key(ins.operands[1])
            if key is None or ins.width != 32:
                return None
            access_keys.setdefault(ins.operands[0], set()).add(key)
        elif ins.opcode == "store":
            key = off_key(ins.operands[1])
            if key is None:
                return None
            g = ins.operands[0]
            access_keys.setdefault(g, set()).add(key)
            stored.add(g)
            if not data_operand_ok(ins.operands[2]):
                return None
        elif ins.opcode in _VECTOR_FORM:
            if ins.width != 32:
                return None
            if not all(data_operand_ok(op) for op in ins.operands):
                return None
        elif ins.opcode == "select":
            if ins.width != 32:
                return None
            cond = ins.operands[0]
            if not invariant(cond) or not need_splat(cond):
                return None
            if not all(data_operand_ok(op) for op in ins.operands[1:]):
                return None
        else:
            return None

    # Lanes of one iteration must not touch lanes of another: all accesses
    # to a stored region have to share one offset expression.
    for g in stored:
        if len(access_keys[g]) != 1:
            return None
    return _VecPlan(loop, info, body, set(offadds), invariants)


def _apply_vector_plan(step: _LoopStep, plan: _VecPlan) -> None:
    """Add the vector loop of ``plan`` to ``step``'s function: its blocks
    go before the loop's header when the step splices.  ``defs``,
    ``uses``, ``names`` and ``labels`` of the step are kept up to date."""
    f, defs, uses = step.f, step.defs, step.uses
    names, labels = step.names, step.labels
    loop, info = plan.loop, plan.info
    iv = info.iv_phi.result
    vpre_l = _fresh_name(labels, f"{loop.header}.vpre")
    vh_l = _fresh_name(labels, f"{loop.header}.vh")
    vb_l = _fresh_name(labels, f"{loop.header}.vb")
    w = info.iv_phi.width

    vlimit = _fresh_name(names, "vlimit")
    vguard = _fresh_name(names, "vguard")
    viv = _fresh_name(names, f"{iv}.v")
    vnext = _fresh_name(names, f"{iv}.vnext")
    vcmp = _fresh_name(names, "vcmp")

    bound = info.cmp_instr.operands[1]
    vpre = BasicBlock(vpre_l, [
        Instruction(f.fresh_id(), "sub", vlimit, (bound, _VECTOR_WIDTH - 1),
                    info.cmp_instr.loc, w),
        Instruction(f.fresh_id(), "icmp", vguard, (_VECTOR_WIDTH - 1, bound),
                    info.cmp_instr.loc, w, pred="lt"),
    ])
    splats: dict[object, str] = {}
    for op in plan.invariants:
        base = f"vs.{op}" if isinstance(op, str) else f"vs.c{op}"
        sname = _fresh_name(names, base)
        vpre.instrs.append(Instruction(f.fresh_id(), "splat", sname, (op,),
                                       info.cond_br.loc, _VECTOR_WIDTH))
        splats[op] = sname
    vpre.instrs.append(_condbr(f, info.cond_br.loc, vguard, vh_l,
                               loop.header))

    vh = BasicBlock(vh_l, [
        Instruction(f.fresh_id(), "phi", viv, (info.init, vnext),
                    info.iv_phi.loc, w, labels=(vpre_l, vb_l)),
        Instruction(f.fresh_id(), "icmp", vcmp, (viv, vlimit),
                    info.cmp_instr.loc, w, pred="lt"),
        _condbr(f, info.cond_br.loc, vcmp, vb_l, loop.header),
    ])

    vecname: dict[str, str] = {}

    def vec_operand(op):
        if isinstance(op, str) and op in vecname:
            return vecname[op]
        return splats[op]

    vb = BasicBlock(vb_l)
    for ins in plan.body:
        # Every body instruction but a store gets a vector twin named .v.
        nm = None
        if ins.result is not None:
            nm = vecname[ins.result] = _fresh_name(names, f"{ins.result}.v")
        if ins.result in plan.offadds:
            vb.instrs.append(clone_instruction(ins, f.fresh_id(), {iv: viv},
                                               None, result=nm))
        elif ins.opcode in ("load", "store"):
            off = viv if ins.operands[1] == iv else vecname[ins.operands[1]]
            vb.instrs.append(Instruction(
                f.fresh_id(), "v" + ins.opcode, nm,
                (ins.operands[0], off)
                + tuple(vec_operand(op) for op in ins.operands[2:]),
                ins.loc, _VECTOR_WIDTH))
        elif ins.opcode == "select":
            vb.instrs.append(Instruction(
                f.fresh_id(), "vselect", nm,
                (splats[ins.operands[0]], vec_operand(ins.operands[1]),
                 vec_operand(ins.operands[2])), ins.loc, _VECTOR_WIDTH))
        else:
            vb.instrs.append(Instruction(
                f.fresh_id(), _VECTOR_FORM[ins.opcode], nm,
                (vec_operand(ins.operands[0]), vec_operand(ins.operands[1])),
                ins.loc, _VECTOR_WIDTH))
    vb.instrs.append(Instruction(f.fresh_id(), "add", vnext,
                                 (viv, _VECTOR_WIDTH), info.step_instr.loc,
                                 w))
    vb.instrs.append(_br(f, info.cond_br.loc, vh_l))

    # Route the preheader through the new blocks; the original loop becomes
    # the remainder, entered straight from vpre when the trip count is too
    # small or after the vector loop with the iv advanced to viv.
    pre, header = step.blocks[loop.preheader], step.blocks[loop.header]
    phi = info.iv_phi
    k = header.instrs.index(phi)
    gone = [pre.instrs[-1], phi]
    _relabel(pre, loop.header, vpre_l)
    _set_arms(header, k, [(vpre_l if l == pre.label else l, v)
                          for l, v in zip(phi.labels, phi.operands)]
              + [(vh_l, viv)])
    _track(defs, uses, gone, [pre.instrs[-1], header.instrs[k],
                              *vpre.instrs, *vh.instrs, *vb.instrs])
    step.replaced[loop.header] = [vpre, vh, vb, header]


# ======================================================================
# superword-level parallelism
# ======================================================================

class _SlpSplat:
    def __init__(self, value):
        self.value = value


class _SlpLeaf:
    def __init__(self, instrs):
        self.instrs = instrs


class _SlpNode:
    """Lanewise `opcode` over the lanes' `instrs`; a select is a blend."""

    def __init__(self, opcode, instrs, children):
        self.opcode = opcode
        self.instrs = instrs
        self.children = children


def slp_lite(f: Function) -> bool:
    """Pack runs of adjacent stores fed by isomorphic trees into vectors.

    A run of `_VECTOR_WIDTH` stores to consecutive constant offsets whose
    values are same-shaped trees of lanewise arithmetic over adjacent loads
    is replaced by vloads, vector ops, and one vstore.  Selects sharing one
    0/1 condition become branchless mask blends.  A step packs every such
    run, block by block, looking again at a block after each packing; each
    packing turns `_VECTOR_WIDTH` scalar stores into one vector store, so
    the scan ends.
    """
    changed = False
    facts = _Facts(f)
    for block in f.blocks:
        while any(_slp_try_group(f, block, g, window, facts)
                  for g, window in _store_runs(block)):
            changed = True
            facts = _Facts(f)           # the packing changed f
    return changed


def _store_runs(block: BasicBlock):
    """Each run of `_VECTOR_WIDTH` stores to one global at consecutive
    constant offsets, as (global, instruction indices)."""
    stores_by_global: dict[str, list[int]] = {}
    for idx, ins in enumerate(block.instrs):
        if ins.opcode == "store" and isinstance(ins.operands[1], int):
            stores_by_global.setdefault(ins.operands[0], []).append(idx)
    for g, idxs in sorted(stores_by_global.items()):
        for w0 in range(len(idxs) - _VECTOR_WIDTH + 1):
            window = idxs[w0:w0 + _VECTOR_WIDTH]
            offs = [block.instrs[i].operands[1] for i in window]
            if offs == list(range(offs[0], offs[0] + _VECTOR_WIDTH)):
                yield g, window


def _slp_try_group(f: Function, block: BasicBlock, g: str,
                   store_idx: list[int], facts: _Facts) -> bool:
    stores = [block.instrs[i] for i in store_idx]
    offs = [s.operands[1] for s in stores]
    defs_in_block = {ins.result: ins for ins in block.instrs
                     if ins.result is not None}
    members: list[Instruction] = list(stores)

    # `build` and `emit` take themselves as an argument: a closure that
    # named itself would hold its own cell, a reference cycle that keeps `f`
    # alive until the garbage collector next runs.
    def build(ops: list[object], build):
        if len(set(ops)) == 1:
            # A lane is 32 bits: a wider scalar would lose its high bits.
            if value_bits(f, ops[0], defs) > LANE_WIDTH:
                return None
            return _SlpSplat(ops[0])
        if not all(isinstance(o, str) and o in defs_in_block for o in ops):
            return None
        ins = [defs_in_block[o] for o in ops]
        if len({i.iid for i in ins}) != _VECTOR_WIDTH:
            return None
        ocs = {i.opcode for i in ins}
        if len(ocs) != 1:
            return None
        oc = ocs.pop()
        # A lane is 32 bits, so only 32-bit loads and arithmetic pack.
        if oc in ("load", *_VECTOR_FORM) and any(i.width != 32 for i in ins):
            return None
        if oc == "load":
            if len({i.operands[0] for i in ins}) != 1:
                return None
            loffs = [i.operands[1] for i in ins]
            if not all(isinstance(o, int) for o in loffs):
                return None
            if loffs != list(range(loffs[0], loffs[0] + _VECTOR_WIDTH)):
                return None
            if ins[0].operands[0] == g and loffs != offs:
                return None
            members.extend(ins)
            return _SlpLeaf(ins)
        if oc in _VECTOR_FORM:
            slots = (0, 1)
        elif oc == "select":
            conds = {i.operands[0] for i in ins}
            if len(conds) != 1 or value_bits(f, next(iter(conds)), defs) > 1:
                return None
            slots = (1, 2)
        else:
            return None
        kids = []
        for pos in slots:
            kid = build([i.operands[pos] for i in ins], build)
            if kid is None:
                return None
            kids.append(kid)
        members.extend(ins)
        return _SlpNode(oc, ins, kids)

    roots = [s.operands[2] for s in stores]
    if len(set(roots)) != _VECTOR_WIDTH:
        return False
    defs = facts.defs
    tree = build(roots, build)
    if tree is None or isinstance(tree, _SlpSplat):
        return False

    member_ids = {m.iid for m in members}
    if not _read_only_by(facts.uses, members, member_ids):
        return False

    # Nothing inside the group's span may write the regions the group
    # touches, and no outside read of g may sit between the moved stores.
    pos = {ins.iid: i for i, ins in enumerate(block.instrs)}
    span_lo = min(pos[m.iid] for m in members)
    span_hi = max(pos[m.iid] for m in members)
    leaf_globals = {m.operands[0] for m in members if m.opcode == "load"}
    for i in range(span_lo, span_hi + 1):
        ins = block.instrs[i]
        if ins.iid in member_ids:
            continue
        if ins.opcode in ("store", "vstore") \
                and ins.operands[0] in leaf_globals | {g}:
            return False
        if ins.opcode in ("load", "vload") and ins.operands[0] == g:
            return False

    names = _all_names(f)
    emitted: list[Instruction] = []
    splat_cache: dict[object, str] = {}

    def emit(node, emit) -> str:
        if isinstance(node, _SlpSplat):
            if node.value not in splat_cache:
                nm = _fresh_name(names, "slp.s")
                emitted.append(Instruction(f.fresh_id(), "splat", nm,
                                           (node.value,), stores[-1].loc,
                                           _VECTOR_WIDTH))
                splat_cache[node.value] = nm
            return splat_cache[node.value]
        if isinstance(node, _SlpLeaf):
            nm = _fresh_name(names, "slp.l")
            first = node.instrs[0]
            emitted.append(Instruction(f.fresh_id(), "vload", nm,
                                       (first.operands[0], first.operands[1]),
                                       first.loc, _VECTOR_WIDTH))
            return nm
        a = emit(node.children[0], emit)
        b = emit(node.children[1], emit)
        loc = node.instrs[0].loc
        if node.opcode != "select":
            nm = _fresh_name(names, "slp.v")
            emitted.append(Instruction(f.fresh_id(),
                                       _VECTOR_FORM[node.opcode], nm, (a, b),
                                       loc, _VECTOR_WIDTH))
            return nm
        # Blend: b ^ (splat(0 - c) & (a ^ b)), all lanes at once.
        ws = _fresh_name(names, "slp.m")
        wv = _fresh_name(names, "slp.mv")
        x1 = _fresh_name(names, "slp.x")
        x2 = _fresh_name(names, "slp.y")
        nm = _fresh_name(names, "slp.b")
        emitted.append(Instruction(f.fresh_id(), "neg", ws,
                                   node.instrs[0].operands[:1], loc))
        for op, res, args in (("splat", wv, (ws,)), ("vxor", x1, (a, b)),
                              ("vand", x2, (wv, x1)), ("vxor", nm, (b, x2))):
            emitted.append(Instruction(f.fresh_id(), op, res, args, loc,
                                       _VECTOR_WIDTH))
        return nm

    root_vec = emit(tree, emit)
    emitted.append(Instruction(f.fresh_id(), "vstore", None,
                               (g, offs[0], root_vec), stores[-1].loc,
                               _VECTOR_WIDTH))

    out: list[Instruction] = []
    for i, ins in enumerate(block.instrs):
        if i == span_hi:
            out.extend(emitted)
        if ins.iid in member_ids:
            continue
        out.append(ins)
    block.instrs = out
    return True


# ======================================================================
# if-conversion
# ======================================================================

def if_convert(f: Function) -> bool:
    """Collapse branchy diamonds into straight-line selects.

    Both arms must be single side-effect-free blocks (no loads either;
    speculated loads could fault) joining at a block whose only
    predecessors they are.  Arm instructions are hoisted and each join phi
    becomes a select on the diamond's condition.  A step converts every
    diamond, in block order.
    """
    preds = predecessors(f)
    blocks = {b.label: b for b in f.blocks}
    gone: set[str] = set()              # the arms of converted diamonds
    for block in f.blocks:
        term = block.terminator
        if term is None or term.opcode != "condbr":
            continue
        t_l, f_l = term.labels
        if t_l == f_l:
            continue
        tb, fb = blocks[t_l], blocks[f_l]
        if preds.get(t_l) != [block.label] or preds.get(f_l) != [block.label]:
            continue
        t_term, f_term = tb.terminator, fb.terminator
        if t_term is None or f_term is None:
            continue
        if t_term.opcode != "br" or f_term.opcode != "br":
            continue
        join = t_term.labels[0]
        if f_term.labels[0] != join or join in (t_l, f_l, block.label):
            continue
        if set(preds.get(join, [])) != {t_l, f_l}:
            continue
        arms = tb.instrs[:-1] + fb.instrs[:-1]
        if any(ins.opcode not in _PURE_OPS for ins in arms):
            continue
        jb = blocks[join]
        if any(set(p.labels) != {t_l, f_l} for p in jb.phis()):
            continue

        cond = term.operands[0]
        block.instrs = block.instrs[:-1] + arms + [
            _jump(term, join, f.fresh_id())]
        for idx, phi in enumerate(jb.instrs):
            if phi.opcode != "phi":
                break
            by_label = dict(zip(phi.labels, phi.operands))
            jb.instrs[idx] = Instruction(
                f.fresh_id(), "select", phi.result,
                (cond, by_label[t_l], by_label[f_l]), phi.loc, phi.width)
        # The head now enters the join alone; nothing enters the arms.
        preds[join] = [block.label]
        gone.update((t_l, f_l))
    if gone:
        f.blocks = [b for b in f.blocks if b.label not in gone]
    return bool(gone)


# ======================================================================
# Pipeline runner
# ======================================================================

# The pipeline states ``run_pipeline`` kept, least recently used first:
# (input, pass prefix) -> (function, log, clean), at most ``MEMO_SIZE``.
_states: OrderedDict = OrderedDict()

_LOC_ROW = attrgetter("file", "line")


def _input(prog: Program, key: tuple | None) -> tuple | None:
    """``prog`` as ``_states`` keys it, from its ``memo_key``: that key,
    each instruction's source file and line as two columns, and the
    function's next id.  ``validate`` reads neither of the last two, but
    the passes copy them into their output.  None when ``key`` is None or
    the program's contents cannot be hashed."""
    if key is None:
        return None
    func = prog.function()
    try:
        locs = [_LOC_ROW(ins.loc) for b in func.blocks for ins in b.instrs]
        start = (key, (*zip(*locs),), func.next_id)
        hash(start)
    except (AttributeError, TypeError):     # no SourceLoc, or unhashable
        return None
    return start


def run_pipeline(prog: Program,
                 spec: PipelineSpec) -> tuple[Program, list[PassLogEntry]]:
    """Apply the enabled passes in their fixed order, cleaning up after
    each, and validating the program after a pass whose step or cleanup
    reports a change.  The passes rewrite one private copy of the program
    in place.  With every toggle off the program comes back unchanged
    (modulo copying).  Raises IRError when the input program is malformed,
    and InternalPassError when a pass leaves it malformed or when the pass
    or its cleanup does not settle within ``_FIXPOINT_STEPS`` steps,
    carrying the log of passes applied so far.

    Cleanup is skipped after a step that reports no change on a function
    that cleanup left at its fixpoint: such a step changed nothing (the
    step contract), cleanup is deterministic and reads only the function
    and the globals, which no step changes, so it would stop after one
    sweep that finds nothing.  The log and the program are the same either
    way.

    A pipeline is a pure function of its input and of the spec fields its
    steps read, so after each pass the run keeps a copy of the function
    (the copy it kept before, when neither the step nor cleanup reports a
    change), the log so far and whether cleanup settled it, in
    ``_states``: the last ``MEMO_SIZE`` states, keyed by the input
    (``_input``) and the passes applied, ``loop_unswitch`` with its
    threshold.  A run starts from the longest prefix of its passes kept
    for its input and returns a fresh copy, so a program, its ids and its
    log are the same as without the memo.  A pass that raises keeps
    nothing, so a later run raises the same error with the same log.  A
    program without a ``memo_key`` runs without the memo.
    """
    if prog.stage != "midend":
        raise InternalPassError("pipeline requires a midend-stage program", [])
    key = memo_key(prog)
    errors = validate(prog, key)
    if errors:
        raise IRError(f"invalid input program: {errors[0]}")
    order, start = spec.order, _input(prog, key)
    steps = [(name, spec.unswitch_threshold) if name == "loop_unswitch"
             else name for name in order]
    prefixes = [tuple(steps[:k]) for k in range(1, len(steps) + 1)]
    done = len(order) if start is not None else 0   # passes already run
    while done and (start, prefixes[done - 1]) not in _states:
        done -= 1
    log: list[PassLogEntry] = []
    clean = False                   # is func at cleanup's fixpoint?
    kept = None                     # the memo's copy of func, if it has one
    base = prog
    if done:
        _states.move_to_end((start, prefixes[done - 1]))
        kept, kept_log, clean = _states[start, prefixes[done - 1]]
        (slot,) = prog.functions
        base = Program({slot: kept}, prog.globals, prog.stage)
        log += kept_log
    out = copy_program(base)
    func = out.function()
    for name, prefix in zip(order[done:], prefixes[done:]):
        step = _PASSES[name]
        before = {i.iid for i in func.instructions()}
        try:
            changed = _to_fixpoint(lambda f: step(f, spec), func, name)
            if changed or not clean:
                # Cleanup may change what the pass left alone.
                changed |= cleanup(func, out.globals)
                clean = True
        except InternalPassError as e:
            raise InternalPassError(f"pass {name}: {e}", log) from e
        log.append(_log_entry(name, func, before))
        errors = validate(out) if changed else []
        if errors:
            raise InternalPassError(
                f"pass {name} broke the program: {errors[0]}", log)
        if start is not None:
            if changed or kept is None:     # else func is still kept
                kept = copy_function(func)
            _states[start, prefix] = (kept, (*log,), clean)
            if len(_states) > MEMO_SIZE:
                _states.popitem(last=False)
    return out, log
