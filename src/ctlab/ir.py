"""SSA intermediate representation: types, parsing, printing, validation.

Programs are small pre-inlined functions over fixed-width unsigned integers
plus named global arrays.  There are no calls, floats, or raw pointers; memory
is addressed as (global, element offset).  The textual format is line based,
one instruction per line:

    func demo(secret sec: u1, public n: u32 = 8) {
    bb0:
      c = icmp.eq sec, 1        !loc demo.c:2
      condbr c, bbT, bbF        !loc demo.c:2
    bbT:
      a = add n, 3              !loc demo.c:3
      br bbJ                    !loc demo.c:3
    bbF:
      b = xor n, 7              !loc demo.c:5
      br bbJ                    !loc demo.c:5
    bbJ:
      r = phi [bbT: a], [bbF: b]  !loc demo.c:2
      ret r                     !loc demo.c:6
    }
    global table: arr<u32,16> = counting

Conventions:

* Parameters carry a secrecy tag (``secret``/``public``); public parameters
  may declare a default value used by the input generator.  Scalar parameter
  widths come from {1, 2, 4, 8, 16, 32, 64}; instruction widths from
  {8, 16, 32, 64} (default 32).
* Scalar opcodes take an optional width suffix (``add.16``); ``icmp`` takes a
  predicate suffix (``icmp.lt``); vector opcodes take a lane-count suffix
  (``vload.4``).
* This module is where opcode semantics are defined: one expression each
  for the binary ops (``BINARY_EXPRS``), ``neg`` and the ``icmp``
  predicates, and one table for the lanewise vector ops
  (``LANEWISE_OPS``).  Every constant folder computes through functions
  made from those expressions, and the tracer's generated code is written
  from them, so folding and execution cannot disagree.  Arithmetic
  operands are read at the instruction's width: the result wraps to it,
  shift amounts are masked by width-1, and ``lshr`` masks its left operand
  before shifting (``lshr.8 300, 1`` is 22).
  ``icmp`` compares its operand values as given.  A vector op applies its
  scalar op to each pair of 32-bit lanes.
* Memory ops name their region (a global or an array parameter) in their
  first operand; ``value_operands`` gives the operands that are values.
* Every value has a type, which ``validate`` checks against each operand
  role: a scalar, an n-lane vector, or an array region.  An array
  parameter is only ever a region.  Lanewise ops and ``vselect`` take
  vectors of their own lane count, ``vstore`` stores one; every other
  value operand (arithmetic, ``select``/``cmov``, offsets, ``splat``,
  ``condbr``, ``ret``) is a scalar, and so is every immediate.  A ``phi``
  has its arms' type, and the arms must agree.  Every name used, even in
  an unreachable block, is defined.
* Width rule (``value_bits``): an arithmetic result or a ``load`` wraps to
  the instruction width (so a load narrower than its region's elements
  changes the value, and only a 32-bit load matches a ``vload`` lane); an
  ``and`` is as narrow as its narrowest operand; an ``icmp`` is 1 bit and a
  ``const`` as wide as its immediate; ``select``/``cmov``/``phi`` pass an
  arm through, so they are as wide as their widest arm.  A value on a cycle
  takes the least width that satisfies every rule.
* ``!loc file:line`` attaches the originating source line.  If omitted the
  parser falls back to the textual line number, but every instruction always
  carries a location.
* Instruction ids are assigned in textual order by the parser and printed
  back as ``# id N`` comments, so print -> parse round-trips preserve ids.
* Global initializers: ``zeros``, ``counting`` (element i holds i, wrapped),
  or an explicit ``[1, 2, 3]`` list.
* A leading ``stage lowered`` line marks backend output; ``cmov`` may only
  appear in lowered programs, ``select``/``vselect`` only before lowering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

SECRET = "secret"
PUBLIC = "public"

# Opcode semantics, written once as Python expressions over the operands
# ``{a}`` and ``{b}``, the width mask ``{m}`` (``(1 << width) - 1``) and the
# shift-amount mask ``{k}`` (``width - 1``).  The functions below are these
# expressions; ``tracer`` writes them into the code it generates.
BINARY_EXPRS = {
    "add": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "mul": "({a} * {b}) & {m}",
    "and": "{a} & {b} & {m}",
    "or": "({a} | {b}) & {m}",
    "xor": "({a} ^ {b}) & {m}",
    "shl": "({a} << ({b} & {k})) & {m}",
    "lshr": "({a} & {m}) >> ({b} & {k})",
}
NEG_EXPR = "-{a} & {m}"
COMPARE_EXPRS = {"eq": "{a} == {b}", "ne": "{a} != {b}", "lt": "{a} < {b}",
                 "gt": "{a} > {b}"}


def _op_function(params: str, expr: str):
    return eval(f"lambda {params}: " + expr.format(
        a="a", b="b", m="((1 << w) - 1)", k="(w - 1)"))


# A binary op maps (a, b, width) to its result at that width; so does
# ``neg`` with (a, width).
BINARY_OPS = {op: _op_function("a, b, w", e) for op, e in BINARY_EXPRS.items()}
_UNARY_OPS = {"neg": _op_function("a, w", NEG_EXPR)}
_COMPARISONS = {p: _op_function("a, b", e) for p, e in COMPARE_EXPRS.items()}
# Vector op -> the scalar op it applies to each pair of 32-bit lanes.
LANEWISE_OPS = {"vadd": "add", "vand": "and", "vxor": "xor", "vor": "or"}
LANE_WIDTH = 32
# Opcodes whose result ``evaluate`` computes from their operand values.
EVAL_OPS = set(BINARY_OPS) | set(_UNARY_OPS) | {"icmp"}

SCALAR_OPS = EVAL_OPS | {"const", "select", "cmov"}
VECTOR_OPS = set(LANEWISE_OPS) | {"vselect", "splat", "vload", "vstore"}
MEMORY_OPS = {"load", "store", "vload", "vstore"}
TERMINATOR_OPS = {"br", "condbr", "ret"}
ALL_OPS = SCALAR_OPS | VECTOR_OPS | MEMORY_OPS | TERMINATOR_OPS | {"phi"}

CMP_PREDS = tuple(_COMPARISONS)
INSTR_WIDTHS = (8, 16, 32, 64)
PARAM_WIDTHS = (1, 2, 4, 8, 16, 32, 64)
LANE_COUNTS = (2, 4, 8)
DEFAULT_WIDTH = 32

# Opcodes without a result name on the left-hand side.
NO_RESULT_OPS = {"store", "vstore", "br", "condbr", "ret"}


class IRError(Exception):
    """Base class for IR construction/parsing problems."""


class IRParseError(IRError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class SourceLoc:
    file: str
    line: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass(frozen=True)
class ScalarType:
    width: int

    def __str__(self) -> str:
        return f"u{self.width}"


@dataclass(frozen=True)
class ArrayType:
    elem_width: int
    length: int

    def __str__(self) -> str:
        return f"arr<u{self.elem_width},{self.length}>"


@dataclass
class Param:
    name: str
    type: ScalarType | ArrayType
    secrecy: str
    default: int | tuple[int, ...] | None = None

    @property
    def is_secret(self) -> bool:
        return self.secrecy == SECRET

    @property
    def bits(self) -> int:
        if isinstance(self.type, ScalarType):
            return self.type.width
        return self.type.elem_width * self.type.length


@dataclass
class Instruction:
    """One SSA instruction.

    ``operands`` holds value names (str) or immediates (int); ``labels`` holds
    block labels for br/condbr and the incoming-block labels for phi (paired
    positionally with operands).  ``width`` is the scalar bit width, or the
    lane count for vector opcodes.
    """

    iid: int
    opcode: str
    result: str | None
    operands: tuple[object, ...]
    loc: SourceLoc
    width: int = DEFAULT_WIDTH
    pred: str | None = None         # icmp predicate
    labels: tuple[str, ...] = ()

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPS

    def __str__(self) -> str:
        return print_instruction(self)


@dataclass
class BasicBlock:
    label: str
    instrs: list[Instruction] = field(default_factory=list)

    @property
    def terminator(self) -> Instruction | None:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None

    def phis(self) -> list[Instruction]:
        out = []
        for ins in self.instrs:
            if ins.opcode != "phi":
                break
            out.append(ins)
        return out


@dataclass
class Function:
    name: str
    params: list[Param]
    blocks: list[BasicBlock]
    next_id: int = field(default=0, compare=False)

    @property
    def entry(self) -> str:
        return self.blocks[0].label

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(f"no block {label!r} in {self.name}")

    def block_index(self, label: str) -> int:
        for i, b in enumerate(self.blocks):
            if b.label == label:
                return i
        raise KeyError(label)

    def instructions(self):
        for b in self.blocks:
            yield from b.instrs

    def fresh_id(self) -> int:
        iid = self.next_id
        self.next_id += 1
        return iid

    def defs(self) -> dict[str, Instruction]:
        out = {}
        for ins in self.instructions():
            if ins.result is not None:
                out[ins.result] = ins
        return out

    def id_to_loc(self) -> dict[int, SourceLoc]:
        return {ins.iid: ins.loc for ins in self.instructions()}

    def param(self, name: str) -> Param | None:
        for p in self.params:
            if p.name == name:
                return p
        return None


@dataclass
class GlobalArray:
    name: str
    elem_width: int
    length: int
    init: tuple[int, ...]
    init_kind: str = field(default="explicit", compare=False)

    @staticmethod
    def zeros(name: str, elem_width: int, length: int) -> "GlobalArray":
        return GlobalArray(name, elem_width, length, (0,) * length, "zeros")

    @staticmethod
    def counting(name: str, elem_width: int, length: int) -> "GlobalArray":
        mask = (1 << elem_width) - 1
        return GlobalArray(name, elem_width, length,
                           tuple(i & mask for i in range(length)), "counting")


@dataclass
class Program:
    functions: dict[str, Function] = field(default_factory=dict)
    globals: dict[str, GlobalArray] = field(default_factory=dict)
    stage: str = "midend"           # "midend" or "lowered"

    def function(self, name: str | None = None) -> Function:
        if name is None:
            if len(self.functions) != 1:
                raise IRError("program has multiple functions; name one")
            return next(iter(self.functions.values()))
        return self.functions[name]


# ======================================================================
# Parsing
# ======================================================================

_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_RE_FUNC = re.compile(rf"^func\s+({_NAME})\s*\((.*)\)\s*\{{$")
_RE_LABEL = re.compile(rf"^({_NAME}):$")
_RE_GLOBAL = re.compile(
    rf"^global\s+({_NAME})\s*:\s*arr<u(\d+)\s*,\s*(\d+)>\s*=\s*(.+)$")
_RE_LOC = re.compile(r"!loc\s+(\S+):(\d+)\s*$")
_RE_ID_COMMENT = re.compile(r"#\s*id\s+(\d+)\s*$")
_RE_PHI_ARM = re.compile(rf"\[\s*({_NAME})\s*:\s*([^\]]+?)\s*\]")
_RE_PARAM = re.compile(
    rf"^(secret|public)\s+({_NAME})\s*:\s*(u\d+|arr<u\d+\s*,\s*\d+>)"
    r"(?:\s*=\s*(.+))?$")
_RE_INT = re.compile(r"^-?\d+$")


def _parse_type(text: str, lineno: int) -> ScalarType | ArrayType:
    text = text.strip()
    m = re.match(r"^arr<u(\d+)\s*,\s*(\d+)>$", text)
    if m:
        return ArrayType(int(m.group(1)), int(m.group(2)))
    m = re.match(r"^u(\d+)$", text)
    if m:
        width = int(m.group(1))
        if width not in PARAM_WIDTHS:
            raise IRParseError(f"unsupported scalar width u{width}", lineno)
        return ScalarType(width)
    raise IRParseError(f"bad type {text!r}", lineno)


def _parse_operand(tok: str, lineno: int):
    tok = tok.strip()
    if _RE_INT.match(tok):
        return int(tok)
    if re.match(rf"^{_NAME}$", tok):
        return tok
    raise IRParseError(f"bad operand {tok!r}", lineno)


def _split_opcode(tok: str, lineno: int) -> tuple[str, str | None, int]:
    """Return (opcode, icmp predicate, width-or-lanes)."""
    parts = tok.split(".")
    base = parts[0]
    if base not in ALL_OPS:
        raise IRParseError(f"unknown opcode {tok!r}", lineno)
    pred = None
    width = DEFAULT_WIDTH
    rest = parts[1:]
    if base == "icmp":
        if not rest or rest[0] not in CMP_PREDS:
            raise IRParseError("icmp needs a predicate: icmp.eq/.ne/.lt/.gt", lineno)
        pred = rest[0]
        rest = rest[1:]
    if rest:
        if len(rest) > 1 or not rest[0].isdigit():
            raise IRParseError(f"bad opcode suffix on {tok!r}", lineno)
        width = int(rest[0])
        if base in VECTOR_OPS:
            if width not in LANE_COUNTS:
                raise IRParseError(f"bad lane count {width}", lineno)
        elif width not in INSTR_WIDTHS:
            raise IRParseError(f"bad width {width}", lineno)
    elif base in VECTOR_OPS:
        raise IRParseError(f"vector opcode {base} needs a lane suffix (e.g. {base}.4)",
                           lineno)
    return base, pred, width


# Operand arity by opcode (phi/ret handled specially).
_ARITY = {
    **dict.fromkeys(BINARY_OPS, 2), **dict.fromkeys(LANEWISE_OPS, 2),
    "const": 1, "neg": 1, "splat": 1, "icmp": 2,
    "select": 3, "cmov": 3, "vselect": 3,
    "load": 2, "vload": 2, "store": 3, "vstore": 3,
}


def parse_ir(text: str, source_name: str = "<ir>") -> Program:
    """Parse the textual format into a Program.

    Errors carry the 1-based source line.  Instruction ids restart at 0 for
    every function and follow textual order unless an explicit ``# id N``
    comment pins them (the printer emits those).
    """
    prog = Program()
    func: Function | None = None
    block: BasicBlock | None = None
    seen_explicit_id = False
    count = 0                   # instructions of ``func`` parsed so far

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        explicit_id = None
        m = _RE_ID_COMMENT.search(line)
        if m:
            explicit_id = int(m.group(1))
            line = line[: m.start()].strip()
        elif "#" in line:
            line = line.split("#", 1)[0].strip()
        if not line:
            continue

        if line == "stage lowered":
            prog.stage = "lowered"
            continue

        m = _RE_GLOBAL.match(line)
        if m:
            name, ew, length, init = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4).strip()
            if ew not in INSTR_WIDTHS:
                raise IRParseError(f"bad element width u{ew}", lineno)
            if name in prog.globals:
                raise IRParseError(f"duplicate global {name!r}", lineno)
            if init == "zeros":
                g = GlobalArray.zeros(name, ew, length)
            elif init == "counting":
                g = GlobalArray.counting(name, ew, length)
            elif init.startswith("[") and init.endswith("]"):
                mask = (1 << ew) - 1
                items = [t for t in init[1:-1].split(",") if t.strip()]
                vals = tuple(int(t) & mask for t in items)
                if len(vals) != length:
                    raise IRParseError(
                        f"global {name}: {len(vals)} initializers for length {length}",
                        lineno)
                g = GlobalArray(name, ew, length, vals)
            else:
                raise IRParseError(f"bad global initializer {init!r}", lineno)
            prog.globals[name] = g
            continue

        m = _RE_FUNC.match(line)
        if m:
            if func is not None:
                raise IRParseError("nested func", lineno)
            fname, params_text = m.group(1), m.group(2).strip()
            params = []
            if params_text:
                # Split on commas outside arr<...> brackets.
                pieces = re.split(r",(?![^<]*>)", params_text)
                for ptext in pieces:
                    pm = _RE_PARAM.match(ptext.strip())
                    if not pm:
                        raise IRParseError(f"bad parameter {ptext.strip()!r}", lineno)
                    secrecy, pname, ptype, pdefault = pm.groups()
                    ty = _parse_type(ptype, lineno)
                    default = None
                    if pdefault is not None:
                        if secrecy == SECRET:
                            raise IRParseError(
                                f"secret parameter {pname!r} takes no default", lineno)
                        if not isinstance(ty, ScalarType):
                            raise IRParseError(
                                "array parameter defaults are not supported", lineno)
                        default = int(pdefault) & ((1 << ty.width) - 1)
                    params.append(Param(pname, ty, secrecy, default))
            func = Function(fname, params, [])
            block = None
            seen_explicit_id = False
            count = 0
            continue

        if line == "}":
            if func is None:
                raise IRParseError("stray '}'", lineno)
            if not func.blocks:
                raise IRParseError(f"function {func.name} has no blocks", lineno)
            if func.name in prog.functions:
                raise IRParseError(f"duplicate function {func.name!r}", lineno)
            ids = [ins.iid for ins in func.instructions()]
            func.next_id = max(ids, default=-1) + 1
            prog.functions[func.name] = func
            func = None
            continue

        if func is None:
            raise IRParseError(f"unexpected line outside func: {line!r}", lineno)

        m = _RE_LABEL.match(line)
        if m:
            block = BasicBlock(m.group(1))
            func.blocks.append(block)
            continue

        if block is None:
            raise IRParseError("instruction before first block label", lineno)

        # instruction line
        loc = SourceLoc(source_name, lineno)
        lm = _RE_LOC.search(line)
        if lm:
            loc = SourceLoc(lm.group(1), int(lm.group(2)))
            line = line[: lm.start()].strip()

        result = None
        if "=" in line and line.split(None, 1)[0].split(".")[0] \
                not in NO_RESULT_OPS:
            lhs, line = line.split("=", 1)
            result = lhs.strip()
            line = line.strip()
            if not re.match(rf"^{_NAME}$", result):
                raise IRParseError(f"bad result name {result!r}", lineno)

        toks = line.split(None, 1)
        opname = toks[0]
        rest = toks[1].strip() if len(toks) > 1 else ""
        base, pred, width = _split_opcode(opname, lineno)

        if base in NO_RESULT_OPS and result is not None:
            raise IRParseError(f"{base} takes no result", lineno)
        if base not in NO_RESULT_OPS and result is None:
            raise IRParseError(f"{base} needs a result name", lineno)

        operands: tuple = ()
        labels: tuple = ()
        if base == "phi":
            arms = _RE_PHI_ARM.findall(rest)
            if not arms or _RE_PHI_ARM.sub("", rest).replace(",", "").strip():
                raise IRParseError("bad phi arms", lineno)
            labels = tuple(a[0] for a in arms)
            operands = tuple(_parse_operand(a[1], lineno) for a in arms)
        elif base == "br":
            labels = (rest,)
            if not re.match(rf"^{_NAME}$", rest):
                raise IRParseError("br needs one target label", lineno)
        elif base == "condbr":
            parts = [t.strip() for t in rest.split(",")]
            if len(parts) != 3:
                raise IRParseError("condbr needs: cond, taken, fallthrough", lineno)
            operands = (_parse_operand(parts[0], lineno),)
            labels = (parts[1], parts[2])
        elif base == "ret":
            operands = (_parse_operand(rest, lineno),) if rest else ()
        else:
            parts = [t for t in (p.strip() for p in rest.split(",")) if t]
            if len(parts) != _ARITY[base]:
                raise IRParseError(
                    f"{base} takes {_ARITY[base]} operand(s), got {len(parts)}", lineno)
            operands = tuple(_parse_operand(t, lineno) for t in parts)
            if base in MEMORY_OPS and not isinstance(operands[0], str):
                raise IRParseError(f"{base} needs a global name first", lineno)
            if base == "const":
                if not isinstance(operands[0], int):
                    raise IRParseError("const takes an immediate", lineno)
                operands = (operands[0] & ((1 << width) - 1),)

        # Canonicalize negative immediates at instruction width (vector ops
        # at lane width).
        mask = (1 << (width if base not in VECTOR_OPS else LANE_WIDTH)) - 1
        operands = tuple(op & mask if isinstance(op, int) and op < 0 else op
                         for op in operands)

        if explicit_id is not None:
            iid = explicit_id
            seen_explicit_id = True
        else:
            if seen_explicit_id:
                raise IRParseError("mixing explicit # id comments with implicit ids",
                                   lineno)
            iid = count
        block.instrs.append(Instruction(iid, base, result, operands, loc,
                                        width, pred, labels))
        count += 1

    if func is not None:
        raise IRParseError(f"unterminated func {func.name}", len(text.splitlines()))
    return prog


# ======================================================================
# Printing
# ======================================================================

def print_instruction(ins: Instruction, with_id: bool = False) -> str:
    op = ins.opcode
    if ins.pred:
        op += f".{ins.pred}"
    if ins.opcode in VECTOR_OPS or (ins.opcode not in TERMINATOR_OPS
                                    and ins.opcode != "phi"
                                    and ins.width != DEFAULT_WIDTH):
        op += f".{ins.width}"

    if ins.opcode == "phi":
        body = ", ".join(f"[{l}: {v}]"
                         for l, v in zip(ins.labels, ins.operands))
    elif ins.opcode == "br":
        body = ins.labels[0]
    elif ins.opcode == "condbr":
        body = f"{ins.operands[0]}, {ins.labels[0]}, {ins.labels[1]}"
    elif ins.opcode == "ret":
        body = str(ins.operands[0]) if ins.operands else ""
    else:
        body = ", ".join(map(str, ins.operands))

    text = f"{op} {body}".rstrip()
    if ins.result is not None:
        text = f"{ins.result} = {text}"
    text += f"  !loc {ins.loc}"
    if with_id:
        text += f"  # id {ins.iid}"
    return text


def print_ir(prog: Program) -> str:
    """Print a valid program; output round-trips through parse_ir (ids kept)."""
    lines: list[str] = []
    if prog.stage == "lowered":
        lines.append("stage lowered")
        lines.append("")
    for func in prog.functions.values():
        params = ", ".join(
            f"{p.secrecy} {p.name}: {p.type}"
            + (f" = {p.default}" if p.default is not None else "")
            for p in func.params)
        lines.append(f"func {func.name}({params}) {{")
        for block in func.blocks:
            lines.append(f"{block.label}:")
            for ins in block.instrs:
                lines.append(f"  {print_instruction(ins, with_id=True)}")
        lines.append("}")
        lines.append("")
    for g in prog.globals.values():
        if g.init_kind in ("zeros", "counting"):
            init = g.init_kind
        else:
            init = "[" + ", ".join(str(v) for v in g.init) + "]"
        lines.append(f"global {g.name}: arr<u{g.elem_width},{g.length}> = {init}")
    return "\n".join(lines).rstrip() + "\n"


# ======================================================================
# CFG helpers and validation
# ======================================================================

def successors(block: BasicBlock) -> tuple[str, ...]:
    term = block.terminator
    if term is None:
        return ()
    return term.labels


def predecessors(func: Function) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in func.blocks}
    for b in func.blocks:
        for s in successors(b):
            if s in preds:
                preds[s].append(b.label)
    return preds


def reachable(func: Function) -> set[str]:
    seen: set[str] = set()
    stack = [func.entry]
    by_label = {b.label: b for b in func.blocks}
    while stack:
        l = stack.pop()
        if l in seen or l not in by_label:
            continue
        seen.add(l)
        stack.extend(successors(by_label[l]))
    return seen


def dominators(func: Function) -> dict[str, set[str]]:
    """The set of blocks dominating each reachable block, itself included.

    Immediate dominators come from Cooper, Harvey & Kennedy's "A Simple,
    Fast Dominance Algorithm" (2001): iterate over the reachable blocks in
    reverse postorder, intersecting the dominator-tree paths of each
    block's processed predecessors, until nothing changes.  Each set is
    then the block's chain of immediate dominators.  An unreachable block
    has no entry, and as a predecessor it is ignored.
    """
    by_label = {b.label: b for b in func.blocks}
    postorder: list[str] = []
    seen = {func.entry}
    stack = [(func.entry, iter(successors(by_label[func.entry])))]
    while stack:
        label, succs = stack[-1]
        for s in succs:
            if s not in seen and s in by_label:
                seen.add(s)
                stack.append((s, iter(successors(by_label[s]))))
                break
        else:
            stack.pop()
            postorder.append(label)
    # Blocks are numbered in reverse postorder, where every dominator comes
    # before the blocks it dominates.
    order = postorder[::-1]
    index = {l: i for i, l in enumerate(order)}
    preds = predecessors(func)
    pred_index = [[index[p] for p in preds[l] if p in index] for l in order]
    idom: list[int | None] = [None] * len(order)
    idom[0] = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, len(order)):
            new = None
            for p in pred_index[i]:
                if idom[p] is None:
                    continue
                if new is None:
                    new = p
                    continue
                while p != new:         # up to the nearest common one
                    while p > new:
                        p = idom[p]
                    while new > p:
                        new = idom[new]
            if idom[i] != new:
                idom[i] = new
                changed = True
    dom = {order[0]: {order[0]}}
    for i in range(1, len(order)):
        dom[order[i]] = dom[order[idom[i]]] | {order[i]}
    return dom


def settle(roots, inputs, rule, bottom) -> dict:
    """The least fixpoint of ``rule`` over every value that ``roots`` reach.

    ``rule(v, value)`` reads the values ``inputs(v)`` lists from ``value``,
    where each starts at ``bottom``; it runs again when one of them changes,
    until none does, so it must be monotone over a lattice of finite height.
    Inputs go first, so an acyclic graph costs one rule call per value.
    """
    readers: dict = {}          # value -> the values that read it, in order
    order = []                  # inputs before readers
    for root in roots:
        stack = [] if root in readers else [(root, iter(inputs(root)))]
        readers.setdefault(root, {})
        while stack:
            v, reads = stack[-1]
            for u in reads:
                if u not in readers:
                    readers[u] = {v: None}
                    stack.append((u, iter(inputs(u))))
                    break
                readers[u][v] = None
            else:
                stack.pop()
                order.append(v)
    value = dict.fromkeys(order, bottom)
    work, queued = order[::-1], set(order)
    while work:
        v = work.pop()
        queued.discard(v)
        new = rule(v, value)
        if new != value[v]:
            value[v] = new
            stale = [r for r in readers[v] if r not in queued]
            queued.update(stale)
            work += stale
    return value


_SCALAR = "a scalar"
_REGION = "an array region"


def _vector(lanes: int) -> str:
    return f"a {lanes}-lane vector"


def validate(prog: Program) -> list[str]:
    """Return violation strings; empty means the program is well formed.

    Checks structure, dominance and the type of every value operand (see
    the module conventions).  Each violation names the function, block,
    and instruction id involved.  A phi takes its arms' type, counting
    through the phis among them; with several, it takes the type of its
    first arm with just one, else the least by name, and reports the rest.
    """
    errs: list[str] = []

    def err(func, block, ins, msg):
        where = func.name
        if block is not None:
            where += f"/{block.label}"
        if ins is not None:
            where += f"/id{ins.iid}"
        errs.append(f"{where}: {msg}")

    for func in prog.functions.values():
        labels = [b.label for b in func.blocks]
        if len(set(labels)) != len(labels):
            err(func, None, None, "duplicate block labels")
            continue
        label_set = set(labels)

        seen_ids: set[int] = set()
        defs: dict[str, tuple[str, int]] = {}  # name -> (block, index)
        types: dict[str, object] = {
            p.name: _REGION if isinstance(p.type, ArrayType) else _SCALAR
            for p in func.params}
        for block in func.blocks:
            for idx, ins in enumerate(block.instrs):
                if ins.iid in seen_ids:
                    err(func, block, ins, "duplicate instruction id")
                seen_ids.add(ins.iid)
                if ins.result is not None:
                    if ins.result in types:
                        err(func, block, ins, f"redefinition of {ins.result!r}")
                    defs[ins.result] = (block.label, idx)
                    types[ins.result] = (
                        ins.operands if ins.opcode == "phi"
                        else _vector(ins.width) if ins.opcode in VECTOR_OPS
                        else _SCALAR)
        phis = {n: t for n, t in types.items() if isinstance(t, tuple)}
        if phis:
            def arm(a, reach):          # the types that arm `a` can have
                return reach[a] if a in phis else {
                    _SCALAR if isinstance(a, int) else types.get(a)} - {None}

            reach = settle(phis, lambda p: [a for a in phis[p] if a in phis],
                           lambda p, reach: set().union(
                               *(arm(a, reach) for a in phis[p])), set())
            for p, ts in reach.items():
                one = [t for a in phis[p] if len(t := arm(a, reach)) == 1]
                types[p] = min(one[0] if one else ts, default=None)

        for block in func.blocks:
            term = block.terminator
            if term is None:
                err(func, block, None, "block lacks a terminator")
            for idx, ins in enumerate(block.instrs):
                if ins.opcode not in ALL_OPS:
                    err(func, block, ins, f"unknown opcode {ins.opcode!r}")
                    continue
                if ins.is_terminator and idx != len(block.instrs) - 1:
                    err(func, block, ins, "terminator not at block end")
                if ins.opcode == "phi" and block is func.blocks[0]:
                    err(func, block, ins, "phi in the entry block")
                if ins.opcode == "phi" and any(
                        prev.opcode != "phi" for prev in block.instrs[:idx]):
                    err(func, block, ins, "phi after non-phi instruction")
                want = (types[ins.result] if ins.opcode == "phi"
                        else _vector(ins.width) if ins.opcode in LANEWISE_OPS
                        or ins.opcode == "vselect" else _SCALAR)
                for k, op in enumerate(value_operands(ins)):
                    need = _vector(ins.width) if ins.opcode == "vstore" \
                        and k == 1 else want
                    got = _SCALAR if isinstance(op, int) else types.get(op)
                    if op not in types and not isinstance(op, int):
                        err(func, block, ins, f"use of undefined {op!r}")
                    elif got is not None and got != need:
                        err(func, block, ins,
                            f"operand {op!r} is {got}; {ins.opcode} needs {need}")
                for l in ins.labels:
                    if l not in label_set:
                        err(func, block, ins, f"unknown target block {l!r}")
                if ins.opcode in MEMORY_OPS and ins.operands[0] not in \
                        prog.globals and types.get(ins.operands[0]) != _REGION:
                    err(func, block, ins,
                        f"unknown memory name {ins.operands[0]!r}")
                if prog.stage == "lowered" and ins.opcode in ("select", "vselect"):
                    err(func, block, ins, f"{ins.opcode} present in lowered program")
                if prog.stage == "midend" and ins.opcode == "cmov":
                    err(func, block, ins, "cmov before backend lowering")

        # Dominance: every use of a definition (params and undefined names
        # were settled above) is dominated by it.
        dom = dominators(func)
        preds = predecessors(func)
        for block in func.blocks:
            if block.label not in dom:
                continue  # unreachable; skip dominance checks
            for idx, ins in enumerate(block.instrs):
                if ins.opcode == "phi":
                    for label, op in zip(ins.labels, ins.operands):
                        if label not in preds.get(block.label, []):
                            err(func, block, ins,
                                f"phi arm from non-predecessor {label!r}")
                        if op in defs and label in dom \
                                and defs[op][0] not in dom[label]:
                            err(func, block, ins,
                                f"phi value {op!r} does not dominate edge {label}")
                    arm_labels = set(ins.labels)
                    if arm_labels != set(p for p in preds.get(block.label, [])
                                         if p in dom):
                        err(func, block, ins, "phi arms do not match predecessors")
                    continue
                for op in value_operands(ins):
                    if op not in defs:
                        continue
                    dblock, didx = defs[op]
                    if dblock == block.label:
                        if didx >= idx:
                            err(func, block, ins, f"use of {op!r} before definition")
                    elif dblock not in dom[block.label]:
                        err(func, block, ins,
                            f"definition of {op!r} does not dominate use")

    return errs


# ======================================================================
# Semantics and operand roles
# ======================================================================

def evaluate(ins: Instruction, *args: int) -> int:
    """The result of ``ins`` (an opcode in ``EVAL_OPS``) on operand values
    ``args``: arithmetic at the instruction's width, an ``icmp`` as 0 or 1."""
    if ins.opcode == "icmp":
        return int(_COMPARISONS[ins.pred](*args))
    op = BINARY_OPS.get(ins.opcode) or _UNARY_OPS[ins.opcode]
    return op(*args, ins.width)


def value_bits(func: Function, op: object,
               defs: dict[str, Instruction]) -> int:
    """The most bits the scalar value ``op`` of a valid ``func``, whose
    ``defs()`` is ``defs``, can occupy, by the module's width rule."""
    def reads(v):
        ins = defs.get(v)
        oc = ins.opcode if ins else None
        return ins.operands[1:] if oc in ("select", "cmov") \
            else ins.operands if oc in ("phi", "and") else ()

    def bits(v, width):
        ins = defs.get(v)
        if ins is None:
            return v.bit_length() if isinstance(v, int) \
                else func.param(v).type.width
        if ins.opcode in ("select", "cmov", "phi"):
            return max(width[a] for a in reads(v))
        if ins.opcode == "and":
            return min(ins.width, *(width[a] for a in ins.operands))
        if ins.opcode == "const":
            return ins.operands[0].bit_length()
        return 1 if ins.opcode == "icmp" else ins.width

    return settle((op,), reads, bits, 0)[op]


def value_operands(ins: Instruction) -> tuple[object, ...]:
    """The operands that are values; a memory op's first names its region."""
    if ins.opcode in MEMORY_OPS:
        return ins.operands[1:]
    return ins.operands


def substitute(ins: Instruction, mapping: dict[str, object]) -> tuple[object, ...]:
    """``ins.operands`` with every value name in ``mapping`` replaced."""
    values = value_operands(ins)
    region = ins.operands[:len(ins.operands) - len(values)]
    return region + tuple([mapping.get(op, op) for op in values])


# ======================================================================
# Structural cloning
# ======================================================================

def clone_instruction(ins: Instruction, new_id: int,
                      value_map: dict[str, object] | None = None,
                      label_map: dict[str, str] | None = None,
                      result: str | None = None) -> Instruction:
    operands = substitute(ins, value_map) if value_map else ins.operands
    labels = ins.labels
    if label_map:
        labels = tuple(label_map.get(l, l) for l in labels)
    return Instruction(new_id, ins.opcode,
                       result if result is not None else ins.result,
                       operands, ins.loc, ins.width, ins.pred, labels)


def copy_function(func: Function) -> Function:
    blocks = [BasicBlock(b.label, [
        Instruction(i.iid, i.opcode, i.result, i.operands, i.loc, i.width,
                    i.pred, i.labels) for i in b.instrs]) for b in func.blocks]
    return Function(func.name, [replace(p) for p in func.params], blocks,
                    next_id=func.next_id)


def copy_program(prog: Program) -> Program:
    return Program({n: copy_function(f) for n, f in prog.functions.items()},
                   {n: replace(g) for n, g in prog.globals.items()},
                   prog.stage)
