"""Mid-end optimization passes and the pipeline runner.

Each pass is a small, deterministic model of the real transformation's
observable effect: it fires on the documented pattern and leaves everything
else untouched.  Passes are pure (function in, new function out); the
runner applies the enabled ones in a fixed order, runs cleanup to its
fixpoint after each, validates the result, and logs created/deleted
instruction ids so leak findings can be attributed to the pass that
introduced them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .cfg import counted_loop_info, natural_loops
from .ir import (
    BINARY_OPS,
    EVAL_OPS,
    LANEWISE_OPS,
    BasicBlock,
    Function,
    Instruction,
    IRError,
    Program,
    ScalarType,
    clone_instruction,
    copy_function,
    copy_program,
    evaluate,
    predecessors,
    reachable,
    substitute,
    successors,
    validate,
    value_operands,
)

# The pass table, in pipeline order: each entry applies one pass with its
# knobs from the spec.  Passes are looked up as module globals at call
# time, so a wrapper installed on the module sees every application.
_PASSES = {
    "instcombine": lambda f, s: instcombine_lite(f),
    "jump_thread": lambda f, s: jump_thread(f),
    "path_split": lambda f, s: path_split(f),
    "loop_unswitch": lambda f, s: loop_unswitch(f, s.unswitch_threshold),
    "loop_unroll": lambda f, s: loop_unroll(f, s.unroll_full_limit),
    "loop_vectorize": lambda f, s: loop_vectorize(f, s.vector_width),
    "slp": lambda f, s: slp_lite(f, s.vector_width),
    "if_convert": lambda f, s: if_convert(f),
}
PASS_ORDER = tuple(_PASSES)

_VECTOR_FORM = {scalar: vector for vector, scalar in LANEWISE_OPS.items()}
_PURE_OPS = EVAL_OPS | {"const", "select"}


class InternalPassError(Exception):
    """A pass produced an invalid function; carries the partial pass log."""

    def __init__(self, message: str, log: list["PassLogEntry"]):
        super().__init__(message)
        self.log = log


@dataclass
class PipelineSpec:
    """Which passes run, their knobs, and the backend configuration."""

    toggles: dict[str, bool] = field(default_factory=dict)
    unswitch_threshold: int = 32
    unroll_full_limit: int = 16
    vector_width: int = 4
    backend: str = "x86-64"
    cmov_conversion: bool = False

    def __post_init__(self):
        unknown = set(self.toggles) - set(PASS_ORDER)
        if unknown:
            raise ValueError(f"unknown pass toggles: {sorted(unknown)}")
        if self.vector_width not in (2, 4, 8):
            raise ValueError(
                f"vector_width must be 2, 4 or 8, got {self.vector_width}")
        self.toggles = {name: bool(self.toggles.get(name, False))
                        for name in PASS_ORDER}

    @property
    def order(self) -> list[str]:
        return [name for name in PASS_ORDER if self.toggles[name]]

    def with_toggles(self, **changes: bool) -> "PipelineSpec":
        """New spec with some pass toggles (or cmov_conversion) flipped."""
        toggles = dict(self.toggles)
        conversion = self.cmov_conversion
        for name, value in changes.items():
            if name == "cmov_conversion":
                conversion = bool(value)
            elif name in PASS_ORDER:
                toggles[name] = bool(value)
            else:
                raise ValueError(f"unknown toggle {name!r}")
        return PipelineSpec(toggles, self.unswitch_threshold,
                            self.unroll_full_limit, self.vector_width,
                            self.backend, conversion)

    def digest(self) -> str:
        text = repr((sorted(self.toggles.items()), self.unswitch_threshold,
                     self.unroll_full_limit, self.vector_width, self.backend,
                     self.cmov_conversion))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class PassLogEntry:
    pass_name: str
    function: str
    summary: str
    created: tuple[int, ...] = ()
    deleted: tuple[int, ...] = ()


def render_pass_log(log: list[PassLogEntry]) -> str:
    """One line per pass application, with id churn indented below."""
    lines = []
    for e in log:
        lines.append(f"{e.pass_name:<14} {e.function:<20} {e.summary}")
        if e.created:
            lines.append(f"{'':14} created ids: {', '.join(map(str, e.created))}")
        if e.deleted:
            lines.append(f"{'':14} deleted ids: {', '.join(map(str, e.deleted))}")
    return "\n".join(lines)


# ======================================================================
# Shared helpers
# ======================================================================

def _all_names(func: Function) -> set[str]:
    names = {p.name for p in func.params}
    for ins in func.instructions():
        if ins.result is not None:
            names.add(ins.result)
    return names


def _fresh_name(taken: set[str], base: str) -> str:
    """``base``, or ``base`` plus the smallest free counter; the result is
    added to ``taken``.  Serves value names and block labels alike."""
    name = base
    n = 0
    while name in taken:
        name = f"{base}{n}"
        n += 1
    taken.add(name)
    return name


def _labels(func: Function) -> set[str]:
    return {b.label for b in func.blocks}


def _subst_everywhere(func: Function, mapping: dict[str, object]) -> None:
    for block in func.blocks:
        for ins in block.instrs:
            ins.operands = substitute(ins, mapping)


def _uses(func: Function) -> dict[str, list[Instruction]]:
    out: dict[str, list[Instruction]] = {}
    for ins in func.instructions():
        for op in value_operands(ins):
            if isinstance(op, str):
                out.setdefault(op, []).append(ins)
    return out


def _known01(func: Function, op: object,
             defs: dict[str, Instruction] | None = None) -> bool:
    """True when the value is provably 0 or 1: an icmp result, a u1
    parameter, a literal 0/1, or a masking `and x, 1`."""
    if isinstance(op, int):
        return op in (0, 1)
    param = func.param(op)
    if param is not None:
        return getattr(param.type, "width", 0) == 1
    defs = defs if defs is not None else func.defs()
    ins = defs.get(op)
    if ins is None:
        return False
    if ins.opcode == "icmp":
        return True
    if ins.opcode == "const":
        return ins.operands[0] in (0, 1)
    if ins.opcode == "and" and 1 in ins.operands:
        return True
    if ins.opcode == "select":
        return all(_known01(func, a, defs) for a in ins.operands[1:])
    return False


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


def _relabel(ins: Instruction, old: str, new: str) -> None:
    ins.labels = tuple(new if l == old else l for l in ins.labels)


def _fix_phi_arm_labels(func: Function, renames: dict[str, str]) -> None:
    """Rename phi arm labels: each key of ``renames`` becomes its value."""
    for block in func.blocks:
        for ins in block.phis():
            ins.labels = tuple(renames.get(l, l) for l in ins.labels)


def _defined_in(func: Function, labels) -> set[str]:
    out = set()
    for l in labels:
        for ins in func.block(l).instrs:
            if ins.result is not None:
                out.add(ins.result)
    return out


def _loop_values_escape(func: Function, blocks: set[str]) -> bool:
    inside = _defined_in(func, blocks)
    for b in func.blocks:
        if b.label in blocks:
            continue
        for ins in b.instrs:
            if any(isinstance(op, str) and op in inside
                   for op in value_operands(ins)):
                return True
    return False


def _loops_inner_first(func: Function):
    return sorted(natural_loops(func),
                  key=lambda l: (len(l.blocks), func.block_index(l.header)))


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
                block.instrs[idx] = replace(ins, opcode="const", pred=None,
                                            operands=(evaluate(ins, *ops),))
                changed = True
            elif ins.opcode == "condbr" and isinstance(ops[0], int):
                target = ins.labels[0] if ops[0] else ins.labels[1]
                block.instrs[idx] = replace(ins, opcode="br", operands=(),
                                            labels=(target,))
                changed = True
    return changed


def _apply_copies(func: Function) -> bool:
    """Forward const-condition selects, trivial phis, and identities whose
    forwarded operand already fits the instruction's width."""
    defs = func.defs()

    def const_of(op):
        if isinstance(op, int):
            return op
        d = defs.get(op)
        return d.operands[0] if d is not None and d.opcode == "const" else None

    def fits(op, width):
        if isinstance(op, int):
            return op < (1 << width)
        if op in defs:
            return defs[op].width <= width
        param = func.param(op)
        return param is not None and isinstance(param.type, ScalarType) \
            and param.type.width <= width

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
        elif ins.opcode in ("add", "or", "xor"):
            if ops[1] == 0:
                tgt = ops[0]
            elif ops[0] == 0:
                tgt = ops[1]
        elif ins.opcode in ("sub", "shl", "lshr") and ops[1] == 0:
            tgt = ops[0]
        elif ins.opcode == "and":
            mask = (1 << ins.width) - 1
            if ops[1] == mask:
                tgt = ops[0]
            elif ops[0] == mask:
                tgt = ops[1]
            elif 0 in ops:
                tgt = 0
        elif ins.opcode == "mul":
            if ops[1] == 1:
                tgt = ops[0]
            elif ops[0] == 1:
                tgt = ops[1]
            elif 0 in ops:
                tgt = 0
        if tgt is None or tgt == ins.result:
            continue
        if ins.opcode in BINARY_OPS and not fits(tgt, ins.width):
            continue            # the identity still wraps tgt to the width
        copies[ins.result] = tgt
    if not copies:
        return False
    for name in list(copies):
        seen = {name}
        val = copies[name]
        while isinstance(val, str) and val in copies and val not in seen:
            seen.add(val)
            val = copies[val]
        copies[name] = val
    _subst_everywhere(func, copies)
    for block in func.blocks:
        block.instrs = [i for i in block.instrs if i.result not in copies]
    return True


def _remove_dead_code(func: Function) -> bool:
    used: set[str] = set()
    for ins in func.instructions():
        for op in value_operands(ins):
            if isinstance(op, str):
                used.add(op)
    changed = False
    keep_always = {"store", "vstore", "br", "condbr", "ret"}
    for block in func.blocks:
        kept = [i for i in block.instrs
                if i.opcode in keep_always or i.result in used]
        if len(kept) != len(block.instrs):
            block.instrs = kept
            changed = True
    return changed


def _tidy_cfg(func: Function) -> bool:
    """Drop unreachable blocks and phi arms from vanished predecessors."""
    changed = False
    reach = reachable(func)
    if len(reach) != len(func.blocks):
        func.blocks = [b for b in func.blocks if b.label in reach]
        changed = True
    preds = predecessors(func)
    for block in func.blocks:
        here = set(preds.get(block.label, []))
        for idx, ins in enumerate(block.instrs):
            if ins.opcode != "phi":
                break
            if not set(ins.labels) <= here:
                pairs = [(l, v) for l, v in zip(ins.labels, ins.operands)
                         if l in here]
                block.instrs[idx] = replace(
                    ins, labels=tuple(l for l, _ in pairs),
                    operands=tuple(v for _, v in pairs))
                changed = True
    return changed


def _remove_redundant_stores(func: Function) -> bool:
    """Drop `store g, i, v` when v was loaded from g[i] earlier in the same
    block with no intervening store to g."""
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
                    if prev.opcode == "load" and prev.operands[0] == g \
                            and prev.operands[1] == off:
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
            b.instrs = b.instrs[:-1] + tblock.instrs
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
    _fix_phi_arm_labels(func, merged)
    return True


# Sweeps after which cleanup gives up.  Each sweep merges every block chain,
# so the corpus settles within a handful; a function still changing here
# cycles between its subpasses.
_CLEANUP_SWEEPS = 200


def cleanup(func: Function) -> Function:
    """Folding, copy propagation, DCE, and CFG tidying, to a fixpoint.
    Raises InternalPassError when the fixpoint is not reached within
    ``_CLEANUP_SWEEPS`` sweeps."""
    f = copy_function(func)
    for _ in range(_CLEANUP_SWEEPS):
        changed = (_fold_constants(f) | _apply_copies(f) | _remove_dead_code(f)
                   | _tidy_cfg(f) | _remove_redundant_stores(f)
                   | _merge_blocks(f))
        if not changed:
            return f
    raise InternalPassError(
        f"cleanup of {func.name} did not reach a fixpoint in "
        f"{_CLEANUP_SWEEPS} sweeps", [])


# ======================================================================
# instcombine
# ======================================================================

def instcombine_lite(func: Function) -> Function:
    """Rewrite bit-mask selection arithmetic into selects.

    (i)  b ^ ((0 - c) & (a ^ b))  ->  select c, a, b
    (ii) (0 - c) & a              ->  select c, a, 0

    with c provably 0/1.  The select takes the root instruction's place,
    keeping its result name and source location under a fresh id.
    """
    f = copy_function(func)
    defs = f.defs()
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
                if c is None or not _known01(f, c, defs):
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
        if root.opcode != "xor":
            continue
        m = match_masked_blend(root)
        if m is not None:
            rewrites.append((root.iid, m[0]))
            consumed.add(m[1])

    for root in f.instructions():
        if root.opcode != "and" or root.iid in consumed:
            continue
        for m_op, a_op in ((root.operands[0], root.operands[1]),
                           (root.operands[1], root.operands[0])):
            c = _match_neg(defs, m_op)
            if c is not None and _known01(f, c, defs):
                rewrites.append((root.iid, (c, a_op, 0)))
                break

    table = dict(rewrites)
    for block in f.blocks:
        for idx, ins in enumerate(block.instrs):
            if ins.iid in table:
                block.instrs[idx] = Instruction(
                    f.fresh_id(), "select", ins.result, table[ins.iid],
                    ins.loc, ins.width)
    return f


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


def jump_thread(func: Function) -> Function:
    """Thread correlated conditions through a pair of selects.

    When a block computes `r1 = select c1, A1, B1` and later
    `r2 = select c2, A2, r1`, with c1 and c2 comparing the same value
    against constants whose true-ranges cannot both hold, the block is
    rewritten into explicit branches where the c1-true path skips the c2
    test entirely.
    """
    f = copy_function(func)
    for _ in range(4):
        if not _thread_once(f):
            break
    return f


def _cmp_against_const(defs, op):
    if not isinstance(op, str) or op not in defs:
        return None
    ins = defs[op]
    if ins.opcode == "icmp" and isinstance(ins.operands[0], str) \
            and isinstance(ins.operands[1], int):
        return ins
    return None


def _thread_once(f: Function) -> bool:
    defs = f.defs()
    uses = _uses(f)
    for block in f.blocks:
        sel_idx = [i for i, ins in enumerate(block.instrs)
                   if ins.opcode == "select"]
        for i1 in sel_idx:
            for i2 in sel_idx:
                if i2 > i1 and _thread_pair(f, block, i1, i2, defs, uses):
                    return True
    return False


def _thread_pair(f: Function, block: BasicBlock, i1: int, i2: int,
                 defs, uses) -> bool:
    s1, s2 = block.instrs[i1], block.instrs[i2]
    c1 = _cmp_against_const(defs, s1.operands[0])
    c2 = _cmp_against_const(defs, s2.operands[0])
    if c1 is None or c2 is None or c1.operands[0] != c2.operands[0]:
        return False
    if not _ranges_disjoint(_true_range(c1), _true_range(c2)):
        return False

    r1 = s1.result
    b1 = s1.operands[2]
    a2, b2 = s2.operands[1], s2.operands[2]
    segment = block.instrs[i1 + 1:i2]
    mids = [ins for ins in segment if ins is not c2]
    if any(ins.opcode not in _PURE_OPS for ins in mids):
        return False
    before_s1 = {ins.result for ins in block.instrs[:i1] if ins.result}

    def available_early(op) -> bool:
        return not isinstance(op, str) or op in before_s1 \
            or f.param(op) is not None

    # c2 is evaluated up front on the false path, so its compared value
    # must already exist there.
    if c2 in segment and not available_early(c2.operands[0]):
        return False

    mid_names = {m.result for m in mids if m.result}
    for name in mid_names | {r1}:
        for user in uses.get(name, []):
            if user is s2 or user.result in mid_names:
                continue
            return False
    # The c1-true arm never computes the mids, so s2's false side must be
    # r1 or available before the split; the true side may also be a mid.
    if b2 != r1 and not available_early(b2):
        return False
    if a2 != r1 and a2 not in mid_names and not available_early(a2):
        return False

    labels = _labels(f)
    bt = _fresh_name(labels, f"{block.label}.t")
    bf = _fresh_name(labels, f"{block.label}.f")
    bft = _fresh_name(labels, f"{block.label}.ft")
    bff = _fresh_name(labels, f"{block.label}.ff")
    bj = _fresh_name(labels, f"{block.label}.join")
    names = _all_names(f)

    # False path recomputes the mids with r1 bound to its false value.
    fmap: dict[str, object] = {r1: b1}
    f_instrs: list[Instruction] = []
    for m in mids:
        nm = _fresh_name(names, f"{m.result}.jt") if m.result else None
        f_instrs.append(clone_instruction(m, f.fresh_id(), fmap, None,
                                          result=nm))
        if m.result:
            fmap[m.result] = nm
    mid_map = {k: v for k, v in fmap.items() if k != r1}

    def resolved(op, r1_val, mapping):
        if op == r1:
            return r1_val
        if isinstance(op, str) and op in mapping:
            return mapping[op]
        return op

    arm_t = resolved(b2, s1.operands[1], {})
    arm_ft = resolved(a2, b1, mid_map)
    arm_ff = resolved(b2, b1, mid_map)

    head = [ins for ins in block.instrs[:i1]]
    if c2 in segment:
        head.append(c2)
    post = block.instrs[i2 + 1:]

    head.append(Instruction(f.fresh_id(), "condbr", None,
                            (s1.operands[0],), s1.loc, labels=(bt, bf)))
    f_instrs.append(Instruction(f.fresh_id(), "condbr", None,
                                (s2.operands[0],), s2.loc, labels=(bft, bff)))
    join = [Instruction(f.fresh_id(), "phi", s2.result,
                        (arm_t, arm_ft, arm_ff), s2.loc, s2.width,
                        labels=(bt, bft, bff))] + post

    _fix_phi_arm_labels(f, {block.label: bj})
    at = f.block_index(block.label)
    block.instrs = head
    f.blocks[at + 1:at + 1] = [
        BasicBlock(bt, [Instruction(f.fresh_id(), "br", None, (), s1.loc,
                                    labels=(bj,))]),
        BasicBlock(bf, f_instrs),
        BasicBlock(bft, [Instruction(f.fresh_id(), "br", None, (), s2.loc,
                                     labels=(bj,))]),
        BasicBlock(bff, [Instruction(f.fresh_id(), "br", None, (), s2.loc,
                                     labels=(bj,))]),
        BasicBlock(bj, join),
    ]
    return True


# ======================================================================
# path splitting
# ======================================================================

def path_split(func: Function) -> Function:
    """Duplicate a loop latch tail below a select into two explicit paths.

    A latch `...; r = select c, a, b; tail...; br header` becomes a
    conditional branch into two tail copies, one with r bound to a and one
    with r bound to b, both branching back to the header.
    """
    f = copy_function(func)
    for _ in range(4):
        if not _split_once(f):
            break
    return f


def _split_once(f: Function) -> bool:
    uses = _uses(f)
    for loop in _loops_inner_first(f):
        if len(loop.latches) != 1:
            continue
        latch_label = loop.latches[0]
        latch = f.block(latch_label)
        term = latch.terminator
        if term is None or term.opcode != "br" \
                or term.labels != (loop.header,):
            continue
        sel_at = next((i for i, ins in enumerate(latch.instrs)
                       if ins.opcode == "select"), None)
        if sel_at is None:
            continue
        sel = latch.instrs[sel_at]
        tail = latch.instrs[sel_at + 1:]
        tail_set = {id(t) for t in tail}
        if any(ins.opcode == "phi" for ins in tail):
            continue
        header_phis = f.block(loop.header).phis()

        def used_locally(name: str) -> bool:
            for user in uses.get(name, []):
                if id(user) in tail_set or user in header_phis:
                    continue
                return False
            return True

        tail_names = {ins.result for ins in tail if ins.result}
        if not all(used_locally(n) for n in tail_names | {sel.result}):
            continue

        labels = _labels(f)
        lt = _fresh_name(labels, f"{latch_label}.t")
        lf = _fresh_name(labels, f"{latch_label}.f")
        names = _all_names(f)

        def clone_tail(suffix: str, r_val):
            vmap: dict[str, object] = {sel.result: r_val}
            out = []
            for ins in tail:
                nm = _fresh_name(names, f"{ins.result}{suffix}") \
                    if ins.result else None
                out.append(clone_instruction(ins, f.fresh_id(), vmap, None,
                                             result=nm))
                if ins.result:
                    vmap[ins.result] = nm
            return out, vmap

        t_instrs, t_map = clone_tail(".t", sel.operands[1])
        f_instrs, f_map = clone_tail(".f", sel.operands[2])

        latch.instrs = latch.instrs[:sel_at] + [Instruction(
            f.fresh_id(), "condbr", None, (sel.operands[0],), sel.loc,
            labels=(lt, lf))]
        at = f.block_index(latch_label)
        f.blocks[at + 1:at + 1] = [BasicBlock(lt, t_instrs),
                                   BasicBlock(lf, f_instrs)]

        for phi in header_phis:
            if latch_label not in phi.labels:
                continue
            new_arms = []
            for l, v in zip(phi.labels, phi.operands):
                if l != latch_label:
                    new_arms.append((l, v))
                    continue
                vt = t_map.get(v, v) if isinstance(v, str) else v
                vf = f_map.get(v, v) if isinstance(v, str) else v
                new_arms.append((lt, vt))
                new_arms.append((lf, vf))
            phi.labels = tuple(l for l, _ in new_arms)
            phi.operands = tuple(v for _, v in new_arms)
        return True
    return False


# ======================================================================
# loop unswitching
# ======================================================================

def loop_unswitch(func: Function, threshold: int = 32) -> Function:
    """Hoist loop-invariant conditions out of loops by duplication.

    The loop is cloned under a new guard branch on the invariant condition;
    in each copy the select (or loop-internal condbr) collapses to one
    side.  Loops whose instruction count exceeds `threshold` are left
    alone.
    """
    f = copy_function(func)
    for _ in range(8):
        if not _unswitch_once(f, threshold):
            break
    return f


def _unswitch_once(f: Function, threshold: int) -> bool:
    preds = predecessors(f)
    for loop in _loops_inner_first(f):
        outside = [p for p in preds[loop.header] if p not in loop.blocks]
        if len(outside) != 1:
            continue
        if sum(len(f.block(l).instrs) for l in loop.blocks) > threshold:
            continue
        if _loop_values_escape(f, loop.blocks):
            continue
        exits = {s for l in loop.blocks for s in successors(f.block(l))
                 if s not in loop.blocks}
        if any(f.block(e).phis() for e in exits):
            continue

        loop_defs = _defined_in(f, loop.blocks)

        def invariant(op) -> bool:
            return isinstance(op, str) and op not in loop_defs

        ordered = [b.label for b in f.blocks if b.label in loop.blocks]
        candidate = None
        for l in ordered:
            for ins in f.block(l).instrs:
                if ins.opcode == "select" and invariant(ins.operands[0]):
                    candidate = ("select", l, ins)
                    break
            if candidate:
                break
        if candidate is None:
            for l in ordered:
                term = f.block(l).terminator
                if term is not None and term.opcode == "condbr" \
                        and invariant(term.operands[0]) \
                        and all(t in loop.blocks for t in term.labels):
                    candidate = ("condbr", l, term)
                    break
        if candidate is None:
            continue

        kind, cand_label, cand = candidate
        cond = cand.operands[0]
        pre = outside[0]
        names = _all_names(f)
        labels = _labels(f)
        label_map = {l: _fresh_name(labels, f"{l}.us") for l in ordered}
        value_map: dict[str, str] = {}
        for l in ordered:
            for ins in f.block(l).instrs:
                if ins.result is not None:
                    value_map[ins.result] = _fresh_name(names,
                                                        f"{ins.result}.us")
        clones = []
        for l in ordered:
            nb = BasicBlock(label_map[l])
            for ins in f.block(l).instrs:
                nb.instrs.append(clone_instruction(
                    ins, f.fresh_id(), value_map, label_map,
                    result=value_map.get(ins.result) if ins.result else None))
            clones.append(nb)

        # Original copy takes the condition-true side, the clone the false.
        if kind == "select":
            block = f.block(cand_label)
            block.instrs.remove(cand)
            for l in ordered:
                for ins in f.block(l).instrs:
                    ins.operands = substitute(
                        ins, {cand.result: cand.operands[1]})
            cblock = next(b for b in clones
                          if b.label == label_map[cand_label])
            csel = next(i for i in cblock.instrs
                        if i.result == value_map[cand.result])
            cblock.instrs.remove(csel)
            for cb in clones:
                for ins in cb.instrs:
                    ins.operands = substitute(
                        ins, {csel.result: csel.operands[2]})
        else:
            block = f.block(cand_label)
            idx = block.instrs.index(cand)
            block.instrs[idx] = replace(cand, opcode="br", operands=(),
                                        labels=(cand.labels[0],))
            cblock = next(b for b in clones
                          if b.label == label_map[cand_label])
            cterm = cblock.instrs[-1]
            cblock.instrs[-1] = replace(cterm, opcode="br", operands=(),
                                        labels=(cterm.labels[1],))

        guard_label = _fresh_name(labels, "unsw.guard")
        guard = BasicBlock(guard_label, [Instruction(
            f.fresh_id(), "condbr", None, (cond,), cand.loc,
            labels=(loop.header, label_map[loop.header]))])

        _relabel(f.block(pre).terminator, loop.header, guard_label)
        for b in [f.block(loop.header)] + clones:
            for ins in b.phis():
                _relabel(ins, pre, guard_label)

        at = f.block_index(loop.header)
        f.blocks[at:at] = [guard]
        f.blocks.extend(clones)
        return True
    return False


# ======================================================================
# loop unrolling
# ======================================================================

def loop_unroll(func: Function, full_limit: int = 16) -> Function:
    """Fully unroll counted loops whose trip count is a known constant at
    most `full_limit`.  Innermost loops first; duplicated instructions keep
    their source locations under fresh ids.  Runtime-bound loops are left
    alone.
    """
    f = copy_function(func)
    for _ in range(16):
        if not _unroll_once(f, full_limit):
            break
    return f


def _unroll_once(f: Function, full_limit: int) -> bool:
    preds = predecessors(f)
    for loop in _loops_inner_first(f):
        info = counted_loop_info(f, loop)
        if info is None:
            continue
        trip = info.trip_count
        if trip is None or trip > full_limit:
            continue
        outside = [p for p in preds[loop.header] if p not in loop.blocks]
        if len(outside) != 1:
            continue
        if _unroll_full(f, loop, info, trip, outside[0]):
            return True
    return False


def _unroll_full(f: Function, loop, info, trip: int, pre: str) -> bool:
    header_label = loop.header
    header = f.block(header_label)
    phis = header.phis()
    header_rest = [i for i in header.instrs
                   if i.opcode != "phi" and not i.is_terminator]
    body_labels = [b.label for b in f.blocks
                   if b.label in loop.blocks and b.label != header_label]
    body_entry = info.cond_br.labels[0]

    # The only way out must be the header exit, and no body phi may draw
    # a value from the header directly.
    for l in body_labels:
        if any(s not in loop.blocks for s in successors(f.block(l))):
            return False
        if any(header_label in phi.labels for phi in f.block(l).phis()):
            return False

    names = _all_names(f)
    labels = _labels(f)
    h_labels = [_fresh_name(labels, f"{header_label}.it{k}")
                for k in range(trip + 1)]
    b_label_maps = [
        {l: _fresh_name(labels, f"{l}.it{k}") for l in body_labels}
        for k in range(trip)
    ]

    entry_val: dict[str, object] = {}
    latch_val: dict[str, object] = {}
    for phi in phis:
        for l, v in zip(phi.labels, phi.operands):
            if l == info.latch:
                latch_val[phi.result] = v
            elif l == pre:
                entry_val[phi.result] = v
    iv = info.iv_phi.result

    cur = dict(entry_val)
    cur[iv] = info.init
    new_blocks: list[BasicBlock] = []
    final_map: dict[str, object] = {}
    for k in range(trip + 1):
        last = k == trip
        vmap: dict[str, object] = dict(cur)
        src_labels = [header_label] + ([] if last else body_labels)
        for l in src_labels:
            for ins in f.block(l).instrs:
                if ins.result is None:
                    continue
                # Header phis become the tracked per-peel values; phis of
                # nested loop headers are ordinary defs and need fresh names.
                if ins.opcode == "phi" and l == header_label:
                    continue
                vmap[ins.result] = _fresh_name(names, f"{ins.result}.it{k}")

        hb = BasicBlock(h_labels[k])
        for ins in header_rest:
            hb.instrs.append(clone_instruction(
                ins, f.fresh_id(), vmap, None,
                result=vmap.get(ins.result) if ins.result else None))
        if last:
            hb.instrs.append(Instruction(f.fresh_id(), "br", None, (),
                                         info.cond_br.loc,
                                         labels=(info.exit,)))
            new_blocks.append(hb)
            final_map = vmap
            break

        lmap = dict(b_label_maps[k])
        lmap[header_label] = h_labels[k + 1]
        hb.instrs.append(Instruction(f.fresh_id(), "br", None, (),
                                     info.cond_br.loc,
                                     labels=(lmap[body_entry],)))
        new_blocks.append(hb)
        for l in body_labels:
            nb = BasicBlock(lmap[l])
            for ins in f.block(l).instrs:
                nb.instrs.append(clone_instruction(
                    ins, f.fresh_id(), vmap, lmap,
                    result=vmap.get(ins.result) if ins.result else None))
            new_blocks.append(nb)

        nxt: dict[str, object] = {}
        for phi in phis:
            op = latch_val[phi.result]
            nxt[phi.result] = vmap.get(op, op) if isinstance(op, str) else op
        nxt[iv] = evaluate(info.step_instr, cur[iv], 1)
        cur = nxt

    _relabel(f.block(pre).terminator, header_label, h_labels[0])

    loop_defined = _defined_in(f, loop.blocks)
    at = f.block_index(header_label)
    insert_at = sum(1 for b in f.blocks[:at] if b.label not in loop.blocks)
    f.blocks = [b for b in f.blocks if b.label not in loop.blocks]
    f.blocks[insert_at:insert_at] = new_blocks
    _fix_phi_arm_labels(f, {header_label: h_labels[trip]})

    mapping = {}
    for name in loop_defined:
        if name in final_map and final_map[name] != name:
            mapping[name] = final_map[name]
    new_set = {b.label for b in new_blocks}
    for b in f.blocks:
        if b.label in new_set:
            continue
        for ins in b.instrs:
            ins.operands = substitute(ins, mapping)
    return True


# ======================================================================
# loop vectorization
# ======================================================================

def loop_vectorize(func: Function, width: int = 4) -> Function:
    """Turn simple counted loops into a vector loop plus scalar epilogue.

    Fires on two-block loops whose body is iv-affine loads/stores and
    lanewise arithmetic; selects on loop-invariant conditions become
    vselects on a splatted mask.  The original loop remains as the
    remainder epilogue and keeps its instruction ids.
    """
    f = copy_function(func)
    done: set[str] = set()
    for _ in range(8):
        if not _vectorize_once(f, width, done):
            break
    return f


def _vectorize_once(f: Function, width: int, done: set[str]) -> bool:
    loops = _loops_inner_first(f)
    for loop in loops:
        if loop.header in done:
            continue
        if any(o is not loop and o.header in loop.blocks for o in loops):
            continue
        plan = _vector_plan(f, loop, width)
        if plan is not None:
            _apply_vector_plan(f, plan)
            done.add(loop.header)
            return True
    return False


@dataclass
class _VecPlan:
    loop: object
    info: object
    width: int
    body: list[Instruction]
    offadds: set[str]
    invariants: list[object]


def _vector_plan(f: Function, loop, width: int) -> _VecPlan | None:
    info = counted_loop_info(f, loop)
    if info is None or len(loop.blocks) != 2:
        return None
    header = f.block(loop.header)
    latch = f.block(info.latch)
    if len(header.phis()) != 1 or len(header.instrs) != 3:
        return None
    if _loop_values_escape(f, loop.blocks):
        return None
    preds = predecessors(f)
    if len([p for p in preds[loop.header] if p not in loop.blocks]) != 1:
        return None
    iv = info.iv_phi.result
    loop_defs = _defined_in(f, loop.blocks)
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
    uses = _uses(f)
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

    def need_splat(op):
        if op not in invariants:
            invariants.append(op)

    def data_operand_ok(op) -> bool:
        if op == iv or (isinstance(op, str) and op in offadds):
            return False
        if invariant(op):
            need_splat(op)
            return True
        # Loop-defined scalars (step, compare) have no vector counterpart.
        return op in vec_results

    access_keys: dict[str, set] = {}
    stored: set[str] = set()
    for ins in body:
        if ins.result in offadds:
            continue
        if ins.opcode == "load":
            key = off_key(ins.operands[1])
            if key is None:
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
            if not invariant(cond):
                return None
            need_splat(cond)
            if not all(data_operand_ok(op) for op in ins.operands[1:]):
                return None
        else:
            return None

    # Lanes of one iteration must not touch lanes of another: all accesses
    # to a stored region have to share one offset expression.
    for g in stored:
        if len(access_keys[g]) != 1:
            return None
    return _VecPlan(loop, info, width, body, set(offadds), invariants)


def _apply_vector_plan(f: Function, plan: _VecPlan) -> None:
    loop, info, width = plan.loop, plan.info, plan.width
    iv = info.iv_phi.result
    names = _all_names(f)
    labels = _labels(f)
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
        Instruction(f.fresh_id(), "sub", vlimit, (bound, width - 1),
                    info.cmp_instr.loc, w),
        Instruction(f.fresh_id(), "icmp", vguard, (width - 1, bound),
                    info.cmp_instr.loc, w, pred="lt"),
    ])
    splats: dict[object, str] = {}
    for op in plan.invariants:
        base = f"vs.{op}" if isinstance(op, str) else f"vs.c{op}"
        sname = _fresh_name(names, base)
        vpre.instrs.append(Instruction(f.fresh_id(), "splat", sname, (op,),
                                       info.cond_br.loc, width))
        splats[op] = sname
    vpre.instrs.append(Instruction(f.fresh_id(), "condbr", None, (vguard,),
                                   info.cond_br.loc,
                                   labels=(vh_l, loop.header)))

    vh = BasicBlock(vh_l, [
        Instruction(f.fresh_id(), "phi", viv, (info.init, vnext),
                    info.iv_phi.loc, w, labels=(vpre_l, vb_l)),
        Instruction(f.fresh_id(), "icmp", vcmp, (viv, vlimit),
                    info.cmp_instr.loc, w, pred="lt"),
        Instruction(f.fresh_id(), "condbr", None, (vcmp,), info.cond_br.loc,
                    labels=(vb_l, loop.header)),
    ])

    vecname: dict[str, str] = {}

    def vec_operand(op):
        if isinstance(op, str) and op in vecname:
            return vecname[op]
        return splats[op]

    vb = BasicBlock(vb_l)
    for ins in plan.body:
        if ins.result in plan.offadds:
            nm = _fresh_name(names, f"{ins.result}.v")
            vb.instrs.append(clone_instruction(ins, f.fresh_id(), {iv: viv},
                                               None, result=nm))
            vecname[ins.result] = nm
        elif ins.opcode == "load":
            nm = _fresh_name(names, f"{ins.result}.v")
            off = viv if ins.operands[1] == iv else vecname[ins.operands[1]]
            vb.instrs.append(Instruction(f.fresh_id(), "vload", nm,
                                         (ins.operands[0], off), ins.loc,
                                         width))
            vecname[ins.result] = nm
        elif ins.opcode == "store":
            off = viv if ins.operands[1] == iv else vecname[ins.operands[1]]
            vb.instrs.append(Instruction(f.fresh_id(), "vstore", None,
                                         (ins.operands[0], off,
                                          vec_operand(ins.operands[2])),
                                         ins.loc, width))
        elif ins.opcode == "select":
            nm = _fresh_name(names, f"{ins.result}.v")
            vb.instrs.append(Instruction(
                f.fresh_id(), "vselect", nm,
                (splats[ins.operands[0]], vec_operand(ins.operands[1]),
                 vec_operand(ins.operands[2])), ins.loc, width))
            vecname[ins.result] = nm
        else:
            nm = _fresh_name(names, f"{ins.result}.v")
            vb.instrs.append(Instruction(
                f.fresh_id(), _VECTOR_FORM[ins.opcode], nm,
                (vec_operand(ins.operands[0]), vec_operand(ins.operands[1])),
                ins.loc, width))
            vecname[ins.result] = nm
    vb.instrs.append(Instruction(f.fresh_id(), "add", vnext, (viv, width),
                                 info.step_instr.loc, w))
    vb.instrs.append(Instruction(f.fresh_id(), "br", None, (),
                                 info.cond_br.loc, labels=(vh_l,)))

    # Route the preheader through the new blocks; the original loop becomes
    # the remainder, entered straight from vpre when the trip count is too
    # small or after the vector loop with the iv advanced to viv.
    preds = predecessors(f)
    outside = [p for p in preds[loop.header] if p not in loop.blocks]
    pre = outside[0]
    _relabel(f.block(pre).terminator, loop.header, vpre_l)
    phi = info.iv_phi
    arms = [(vpre_l if l == pre else l, v)
            for l, v in zip(phi.labels, phi.operands)]
    arms.append((vh_l, viv))
    phi.labels = tuple(l for l, _ in arms)
    phi.operands = tuple(v for _, v in arms)

    at = f.block_index(loop.header)
    f.blocks[at:at] = [vpre, vh, vb]


# ======================================================================
# superword-level parallelism
# ======================================================================

def slp_lite(func: Function, width: int = 4) -> Function:
    """Pack runs of adjacent stores fed by isomorphic trees into vectors.

    A run of `width` stores to consecutive constant offsets whose values
    are same-shaped trees of lanewise arithmetic over adjacent loads is
    replaced by vloads, vector ops, and one vstore.  Selects sharing one
    0/1 condition become branchless mask blends.
    """
    f = copy_function(func)
    for _ in range(32):
        if not _slp_once(f, width):
            break
    return f


class _SlpSplat:
    def __init__(self, value):
        self.value = value


class _SlpLeaf:
    def __init__(self, instrs):
        self.instrs = instrs


class _SlpNode:
    def __init__(self, opcode, instrs, children):
        self.opcode = opcode
        self.instrs = instrs
        self.children = children


class _SlpBlend:
    def __init__(self, cond, instrs, children):
        self.cond = cond
        self.instrs = instrs
        self.children = children


def _slp_once(f: Function, width: int) -> bool:
    for block in f.blocks:
        stores_by_global: dict[str, list[int]] = {}
        for idx, ins in enumerate(block.instrs):
            if ins.opcode == "store" and isinstance(ins.operands[1], int):
                stores_by_global.setdefault(ins.operands[0], []).append(idx)
        for g, idxs in sorted(stores_by_global.items()):
            for w0 in range(len(idxs) - width + 1):
                window = idxs[w0:w0 + width]
                offs = [block.instrs[i].operands[1] for i in window]
                if offs != list(range(offs[0], offs[0] + width)):
                    continue
                if _slp_try_group(f, block, g, window, width):
                    return True
    return False


def _slp_try_group(f: Function, block: BasicBlock, g: str,
                   store_idx: list[int], width: int) -> bool:
    stores = [block.instrs[i] for i in store_idx]
    offs = [s.operands[1] for s in stores]
    defs_in_block = {ins.result: ins for ins in block.instrs
                     if ins.result is not None}
    members: list[Instruction] = list(stores)

    def build(ops: list[object]):
        if all(isinstance(o, int) for o in ops) and len(set(ops)) == 1:
            return _SlpSplat(ops[0])
        if len(set(ops)) == 1 and isinstance(ops[0], str):
            return _SlpSplat(ops[0])
        if not all(isinstance(o, str) and o in defs_in_block for o in ops):
            return None
        ins = [defs_in_block[o] for o in ops]
        if len({i.iid for i in ins}) != width:
            return None
        ocs = {i.opcode for i in ins}
        if len(ocs) != 1:
            return None
        oc = ocs.pop()
        if oc == "load":
            if len({i.operands[0] for i in ins}) != 1:
                return None
            loffs = [i.operands[1] for i in ins]
            if not all(isinstance(o, int) for o in loffs):
                return None
            if loffs != list(range(loffs[0], loffs[0] + width)):
                return None
            if ins[0].operands[0] == g and loffs != offs:
                return None
            members.extend(ins)
            return _SlpLeaf(ins)
        if oc in _VECTOR_FORM:
            if any(i.width != 32 for i in ins):
                return None
            kids = []
            for pos in range(2):
                kid = build([i.operands[pos] for i in ins])
                if kid is None:
                    return None
                kids.append(kid)
            members.extend(ins)
            return _SlpNode(oc, ins, kids)
        if oc == "select":
            conds = {i.operands[0] for i in ins}
            if len(conds) != 1:
                return None
            cond = conds.pop()
            if not _known01(f, cond):
                return None
            kids = []
            for pos in (1, 2):
                kid = build([i.operands[pos] for i in ins])
                if kid is None:
                    return None
                kids.append(kid)
            members.extend(ins)
            return _SlpBlend(cond, ins, kids)
        return None

    roots = [s.operands[2] for s in stores]
    if len(set(roots)) != width:
        return False
    tree = build(roots)
    if tree is None or isinstance(tree, _SlpSplat):
        return False

    member_ids = {m.iid for m in members}
    uses = _uses(f)
    for m in members:
        if m.result is None:
            continue
        for user in uses.get(m.result, []):
            if user.iid not in member_ids:
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

    def emit(node) -> str:
        if isinstance(node, _SlpSplat):
            if node.value not in splat_cache:
                nm = _fresh_name(names, "slp.s")
                emitted.append(Instruction(f.fresh_id(), "splat", nm,
                                           (node.value,), stores[-1].loc,
                                           width))
                splat_cache[node.value] = nm
            return splat_cache[node.value]
        if isinstance(node, _SlpLeaf):
            nm = _fresh_name(names, "slp.l")
            first = node.instrs[0]
            emitted.append(Instruction(f.fresh_id(), "vload", nm,
                                       (first.operands[0], first.operands[1]),
                                       first.loc, width))
            return nm
        if isinstance(node, _SlpNode):
            a = emit(node.children[0])
            b = emit(node.children[1])
            nm = _fresh_name(names, "slp.v")
            emitted.append(Instruction(f.fresh_id(),
                                       _VECTOR_FORM[node.opcode], nm, (a, b),
                                       node.instrs[0].loc, width))
            return nm
        # Blend: b ^ (splat(0 - c) & (a ^ b)), all lanes at once.
        a = emit(node.children[0])
        b = emit(node.children[1])
        loc = node.instrs[0].loc
        ws = _fresh_name(names, "slp.m")
        wv = _fresh_name(names, "slp.mv")
        x1 = _fresh_name(names, "slp.x")
        x2 = _fresh_name(names, "slp.y")
        nm = _fresh_name(names, "slp.b")
        emitted.extend([
            Instruction(f.fresh_id(), "neg", ws, (node.cond,), loc),
            Instruction(f.fresh_id(), "splat", wv, (ws,), loc, width),
            Instruction(f.fresh_id(), "vxor", x1, (a, b), loc, width),
            Instruction(f.fresh_id(), "vand", x2, (wv, x1), loc, width),
            Instruction(f.fresh_id(), "vxor", nm, (b, x2), loc, width),
        ])
        return nm

    root_vec = emit(tree)
    emitted.append(Instruction(f.fresh_id(), "vstore", None,
                               (g, offs[0], root_vec), stores[-1].loc, width))

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

def if_convert(func: Function) -> Function:
    """Collapse branchy diamonds into straight-line selects.

    Both arms must be single side-effect-free blocks (no loads either;
    speculated loads could fault) joining at a block whose only
    predecessors they are.  Arm instructions are hoisted and each join phi
    becomes a select on the diamond's condition.
    """
    f = copy_function(func)
    for _ in range(len(f.blocks) + 8):
        if not _if_convert_once(f):
            break
    return f


def _if_convert_once(f: Function) -> bool:
    preds = predecessors(f)
    for block in f.blocks:
        term = block.terminator
        if term is None or term.opcode != "condbr":
            continue
        t_l, f_l = term.labels
        if t_l == f_l:
            continue
        tb, fb = f.block(t_l), f.block(f_l)
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
        jb = f.block(join)
        if any(set(p.labels) != {t_l, f_l} for p in jb.phis()):
            continue

        cond = term.operands[0]
        block.instrs = block.instrs[:-1] + arms + [
            replace(term, iid=f.fresh_id(), opcode="br", operands=(),
                    labels=(join,))]
        for idx, phi in enumerate(jb.instrs):
            if phi.opcode != "phi":
                break
            by_label = dict(zip(phi.labels, phi.operands))
            jb.instrs[idx] = Instruction(
                f.fresh_id(), "select", phi.result,
                (cond, by_label[t_l], by_label[f_l]), phi.loc, phi.width)
        f.blocks = [b for b in f.blocks if b.label not in (t_l, f_l)]
        return True
    return False


# ======================================================================
# Pipeline runner
# ======================================================================

def run_pipeline(prog: Program,
                 spec: PipelineSpec) -> tuple[Program, list[PassLogEntry]]:
    """Apply the enabled passes in their fixed order, cleaning up and
    validating after each.  With every toggle off the program comes back
    unchanged (modulo copying).  Raises IRError when the input program is
    malformed, and InternalPassError when a pass leaves it malformed or its
    cleanup does not settle, carrying the log of passes applied so far.
    """
    if prog.stage != "midend":
        raise InternalPassError("pipeline requires a midend-stage program", [])
    errors = validate(prog)
    if errors:
        raise IRError(f"invalid input program: {errors[0]}")
    out = copy_program(prog)
    log: list[PassLogEntry] = []
    for name in spec.order:
        for fname in list(out.functions):
            func = out.functions[fname]
            before = {i.iid for i in func.instructions()}
            try:
                new = cleanup(_PASSES[name](func, spec))
            except InternalPassError as e:
                raise InternalPassError(f"pass {name}: {e}", log) from e
            after = {i.iid for i in new.instructions()}
            created = tuple(sorted(after - before))
            deleted = tuple(sorted(before - after))
            summary = ("no change" if new == func else
                       f"+{len(created)}/-{len(deleted)} instructions")
            out.functions[fname] = new
            log.append(PassLogEntry(name, fname, summary, created, deleted))
        errors = validate(out)
        if errors:
            raise InternalPassError(
                f"pass {name} broke the program: {errors[0]}", log)
    return out, log
