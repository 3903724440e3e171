"""SSA intermediate representation: types, parsing, printing, validation.

A program is one small pre-inlined function over fixed-width unsigned
integers plus named global arrays: the parser rejects a second ``func`` at
its line.  There are no calls, floats, or raw pointers; memory is addressed
as (global, element offset).  The textual format is line based, one
instruction per line:

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
  widths come from {1, 2, 4, 8, 16, 32, 64}; instruction widths, and the
  element widths of array parameters and globals, from {8, 16, 32, 64}
  (default 32).
* Scalar opcodes take an optional width suffix (``add.16``); ``icmp`` takes a
  predicate suffix (``icmp.lt``); vector opcodes take a lane-count suffix
  (``vload.4``).
* This module is where opcode semantics are defined: one expression each
  for the binary ops (``BINARY_EXPRS``), ``neg`` and the ``icmp``
  predicates, and one table for the lanewise vector ops
  (``LANEWISE_OPS``).  Every constant folder computes through functions
  made from those expressions, and the tracer's generated code is written
  from them, so folding and execution cannot disagree.  Each wrap to the
  width is a term `` & {m}`` and each shift-amount mask a term `` & {k}``,
  so a code generator can leave out one that it proves does nothing.
  Arithmetic operands are read at the instruction's width: the result
  wraps to it, shift amounts are masked by width-1, and ``lshr`` masks its
  left operand before shifting (``lshr.8 300, 1`` is 22).
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
* Width rule (``width_rule``, answered by ``value_bits``): an arithmetic
  result or a ``load`` wraps to the instruction width (so a load narrower
  than its region's elements changes the value, and only a 32-bit load
  matches a ``vload`` lane); an ``and`` is as narrow as its narrowest
  operand; an ``icmp`` is 1 bit and a ``const`` as wide as its immediate;
  ``select``/``cmov``/``phi`` pass an arm through, so they are as wide as
  their widest arm; a vector's lanes are 32 bits.  A negative immediate
  is wider than any instruction.  A value on a cycle takes the least width
  that satisfies every rule.
* ``!loc file:line`` attaches the originating source line.  If omitted the
  parser falls back to the textual line number, but every instruction always
  carries a location.
* Instruction ids are assigned in textual order by the parser and printed
  back as ``# id N`` comments, so print -> parse round-trips preserve ids.
* Instructions are immutable values, equal by their fields.  A pass
  rewrites a function by rewriting its block lists: it puts a new
  instruction, often ``ins._replace(...)``, where the old one stood.  So
  ``copy_function`` copies the lists and shares the instructions.
* Global initializers: ``zeros``, ``counting`` (element i holds i, wrapped),
  or an explicit ``[1, 2, 3]`` list of integers, wrapped to the element
  width, with no empty item (``[]`` has none).  Every
  element of a valid program's global fits its element width.
* A leading ``stage lowered`` line marks backend output; ``cmov`` may only
  appear in lowered programs, ``select``/``vselect`` only before lowering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, islice
from operator import attrgetter

SECRET = "secret"

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


@dataclass(slots=True, init=False)
class Instruction:
    """One SSA instruction: an immutable value, equal by its fields.

    ``operands`` holds value names (str) or immediates (int); ``labels`` holds
    block labels for br/condbr and the incoming-block labels for phi (paired
    positionally with operands).  ``width`` is the scalar bit width, or the
    lane count for vector opcodes.  Assigning a field raises: a rewrite
    builds a new instruction (``_replace``) and puts it in its block's list.

    Each slot is set once, in ``__init__``, through its descriptor.  The
    passes read these fields more than anything else, and on CPython 3.11
    a slot reads about 3 times faster than a ``NamedTuple`` field, while a
    frozen dataclass's ``object.__setattr__`` per field makes construction
    about twice as slow as this.
    """

    iid: int
    opcode: str
    result: str | None
    operands: tuple[object, ...]
    loc: SourceLoc
    width: int = DEFAULT_WIDTH
    pred: str | None = None         # icmp predicate
    labels: tuple[str, ...] = ()

    def __init__(self, iid, opcode, result, operands, loc,
                 width=DEFAULT_WIDTH, pred=None, labels=()):
        _PUT_IID(self, iid)
        _PUT_OPCODE(self, opcode)
        _PUT_RESULT(self, result)
        _PUT_OPERANDS(self, operands)
        _PUT_LOC(self, loc)
        _PUT_WIDTH(self, width)
        _PUT_PRED(self, pred)
        _PUT_LABELS(self, labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"instruction field {name!r} is read-only")

    def __reduce__(self):               # copy and pickle, past __setattr__
        return Instruction, _ALL_FIELDS(self)

    def _replace(self, **changes) -> "Instruction":
        """A new instruction with the fields in ``changes`` replaced."""
        new = Instruction(*map(changes.pop, _FIELDS, _ALL_FIELDS(self)))
        if changes:
            raise TypeError(f"no instruction fields {sorted(changes)}")
        return new

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPS

    def __str__(self) -> str:
        return print_instruction(self)


_FIELDS = Instruction.__slots__
_ALL_FIELDS = attrgetter(*_FIELDS)
(_PUT_IID, _PUT_OPCODE, _PUT_RESULT, _PUT_OPERANDS, _PUT_LOC, _PUT_WIDTH,
 _PUT_PRED, _PUT_LABELS) = (getattr(Instruction, f).__set__ for f in _FIELDS)

# The instruction fields that ``validate`` and the tracer's translation
# read: every field but ``loc``.
KEY_FIELDS = ("iid", "opcode", "result", "operands", "width", "pred",
              "labels")
_KEY_ROW = attrgetter(*KEY_FIELDS)
_LABEL, _INSTRS = attrgetter("label"), attrgetter("instrs")


def content_key(blocks: list[BasicBlock]) -> tuple:
    """The content of ``blocks`` as a key: the block labels, the block
    sizes, then one column per field of ``KEY_FIELDS`` over every
    instruction in order (no columns when there are no instructions).

    Columns keep no tuple per instruction, so a kept key is about half the
    size of rows of fields.  Every tuple here is allocated at its final
    size: one made from an iterator of unknown length, such as
    ``tuple(map(...))``, grows by resizing, and the resized tuples pile up
    in CPython's per-size free lists until the next full collection."""
    rows = [*map(_KEY_ROW, chain.from_iterable(map(_INSTRS, blocks)))]
    return ((*map(_LABEL, blocks),), (*map(len, map(_INSTRS, blocks)),),
            *zip(*rows))


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
    functions: dict[str, Function] = field(default_factory=dict)  # one entry
    globals: dict[str, GlobalArray] = field(default_factory=dict)
    stage: str = "midend"           # "midend" or "lowered"

    def function(self) -> Function:
        """The program's one function."""
        if len(self.functions) != 1:
            raise IRError(f"program has {len(self.functions)} functions; "
                          "a program is one function")
        return next(iter(self.functions.values()))


_GLOBAL_ROW = attrgetter("name", "elem_width", "length", "init")
_PARAM_ROW = attrgetter("name", "type", "secrecy", "default")


def program_key(prog: Program) -> tuple:
    """The content of ``prog`` as a key: the function name; each global's
    dict key, name, element width, length and elements; each parameter's
    name, type, secrecy and default; then ``content_key`` of the blocks.
    It holds no stage.  ``keyed_program`` rebuilds a program from it, and
    the memos of ``validate`` and the tracer's translations each keep a
    pure function of it.  Raises ``IRError`` for a program of other than
    one function."""
    func = prog.function()
    return (func.name,
            (*[(k, *_GLOBAL_ROW(g)) for k, g in prog.globals.items()],),
            (*map(_PARAM_ROW, func.params),), *content_key(func.blocks))


def keyed_program(key: tuple, stage: str) -> Program:
    """The program at ``stage`` whose ``program_key`` is ``key``.  Its
    instructions carry no source location, and its globals the default
    ``init_kind``: the key holds neither."""
    name, globals_, params, labels, sizes, *columns = key
    rows = zip(*columns)
    blocks = [BasicBlock(label, [Instruction(i, op, r, ops, None, w, p, ls)
                                 for i, op, r, ops, w, p, ls
                                 in islice(rows, size)])
              for label, size in zip(labels, sizes)]
    func = Function(name, [Param(*p) for p in params], blocks)
    return Program({name: func},
                   {k: GlobalArray(*g) for k, *g in globals_}, stage)


# The size of each memo keyed by content: ``validate``'s messages, the
# tracer's translations, ``control_flow``'s graph facts and the pipeline
# states of ``passes.run_pipeline``.  A study of every corpus program under
# every preset, checked against its sources, checks 67 distinct programs,
# translates 37, meets 40 graphs and reaches 200 pipeline states; each
# memo holds its working set with room to spare, so a repeated study
# computes nothing again, where a smaller memo would evict in a cycle.  A
# translation with its event tables retains 3-540 KB for a corpus program
# (tracemalloc, CPython 3.11); a pipeline state has its own block lists
# and shares its instructions with the states around it, and the study's
# 200 states hold about 1.1 MB.
MEMO_SIZE = 256


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


def _element_width(digits: str, lineno: int) -> int:
    """An array's element width: one an instruction can load."""
    width = int(digits)
    if width not in INSTR_WIDTHS:
        raise IRParseError(f"bad element width u{width}", lineno)
    return width


def _parse_type(text: str, lineno: int) -> ScalarType | ArrayType:
    """A parameter's type, which ``_RE_PARAM`` has matched: ``u<width>``
    or ``arr<u<width>,<length>>``."""
    m = re.match(r"^arr<u(\d+)\s*,\s*(\d+)>$", text)
    if m:
        return ArrayType(_element_width(m.group(1), lineno), int(m.group(2)))
    width = int(text[1:])
    if width not in PARAM_WIDTHS:
        raise IRParseError(f"unsupported scalar width u{width}", lineno)
    return ScalarType(width)


def _parse_operand(tok: str, lineno: int):
    tok = tok.strip()
    if not tok:
        raise IRParseError("empty operand", lineno)
    if _RE_INT.match(tok):
        return int(tok)
    if re.match(rf"^{_NAME}$", tok):
        return tok
    raise IRParseError(f"bad operand {tok!r}", lineno)


def _initializer(tok: str, width: int, lineno: int) -> int:
    """One item of a global's initializer list, wrapped to ``width``."""
    tok = tok.strip()
    if not tok:
        raise IRParseError("empty initializer element", lineno)
    if not _RE_INT.match(tok):
        raise IRParseError(f"bad initializer element {tok!r}", lineno)
    return int(tok) & ((1 << width) - 1)


def _split_opcode(tok: str, lineno: int) -> tuple[str, str | None, int]:
    """Return (opcode, icmp predicate, width-or-lanes)."""
    parts = tok.split(".")
    base = parts[0]
    if base not in ALL_OPS:
        raise IRParseError(f"unknown opcode {tok!r}", lineno)
    pred = None
    width = DEFAULT_WIDTH
    rest = parts[1:]
    if base == "icmp" and rest:         # _shape_error checks it
        pred, rest = rest[0], rest[1:]
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


# Operand count by opcode; phi and the terminators have none fixed.
_ARITY = {
    **dict.fromkeys(BINARY_OPS, 2), **dict.fromkeys(LANEWISE_OPS, 2),
    "const": 1, "neg": 1, "splat": 1, "icmp": 2,
    "select": 3, "cmov": 3, "vselect": 3,
    "load": 2, "vload": 2, "store": 3, "vstore": 3,
}


def _shape_error(ins: Instruction) -> str | None:
    """What is wrong with the shape of ``ins``, or None: its result,
    operand count, width or lane count, ``icmp`` predicate, a memory op's
    region, or a ``const`` of a name.  ``parse_ir`` and ``validate`` both
    check it."""
    oc = ins.opcode
    if (ins.result is None) is not (oc in NO_RESULT_OPS):
        return f"{oc} needs a result name" if ins.result is None \
            else f"{oc} takes no result"
    arity = _ARITY.get(oc)
    if arity is None:                   # phi and the terminators
        return None
    if len(ins.operands) != arity:
        return f"{oc} takes {arity} operand(s), got {len(ins.operands)}"
    if oc in VECTOR_OPS:
        if ins.width not in LANE_COUNTS:
            return f"bad lane count {ins.width}"
    elif ins.width not in INSTR_WIDTHS:
        return f"bad width {ins.width}"
    if oc == "icmp" and ins.pred not in CMP_PREDS:
        return "icmp needs a predicate: icmp.eq/.ne/.lt/.gt"
    if oc in MEMORY_OPS and not isinstance(ins.operands[0], str):
        return f"{oc} needs a global name first"
    if oc == "const" and not isinstance(ins.operands[0], int):
        return "const takes an immediate"
    return None


def parse_ir(text: str) -> Program:
    """Parse the textual format into a Program of one function.

    Errors carry the 1-based source line; a second ``func`` is an error at
    its line.  Instruction ids start at 0 and follow textual order unless
    an explicit ``# id N`` comment pins them (the printer emits those).
    """
    prog = Program()
    func: Function | None = None
    block: BasicBlock | None = None
    seen_explicit_id = False
    count = 0                   # instructions parsed so far

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
            name, length, init = m.group(1), int(m.group(3)), m.group(4).strip()
            ew = _element_width(m.group(2), lineno)
            if name in prog.globals:
                raise IRParseError(f"duplicate global {name!r}", lineno)
            if init == "zeros":
                g = GlobalArray.zeros(name, ew, length)
            elif init == "counting":
                g = GlobalArray.counting(name, ew, length)
            elif init.startswith("[") and init.endswith("]"):
                items = init[1:-1].split(",") if init[1:-1].strip() else []
                vals = tuple(_initializer(t, ew, lineno) for t in items)
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
            if prog.functions:
                raise IRParseError(
                    f"second func {fname!r}: a program is one function",
                    lineno)
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
            continue

        if line == "}":
            if func is None:
                raise IRParseError("stray '}'", lineno)
            if not func.blocks:
                raise IRParseError(f"function {func.name} has no blocks", lineno)
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
        loc = SourceLoc("<ir>", lineno)
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
            operands = tuple(_parse_operand(t, lineno)
                             for t in rest.split(",")) if rest else ()

        # Canonicalize a const's immediate and every negative one at the
        # instruction width (vector ops at lane width).
        mask = (1 << (width if base not in VECTOR_OPS else LANE_WIDTH)) - 1
        operands = tuple(op & mask if isinstance(op, int)
                         and (op < 0 or base == "const") else op
                         for op in operands)

        if explicit_id is not None:
            iid = explicit_id
            seen_explicit_id = True
        else:
            if seen_explicit_id:
                raise IRParseError("mixing explicit # id comments with implicit ids",
                                   lineno)
            iid = count
        ins = Instruction(iid, base, result, operands, loc, width, pred, labels)
        problem = _shape_error(ins)
        if problem is not None:
            raise IRParseError(problem, lineno)
        block.instrs.append(ins)
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
    func = prog.function()
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
    instrs = block.instrs
    if instrs and instrs[-1].opcode in TERMINATOR_OPS:
        return instrs[-1].labels
    return ()


def predecessors(func: Function) -> dict[str, list[str]]:
    preds: dict[str, list[str]] = {b.label: [] for b in func.blocks}
    for b in func.blocks:
        for s in successors(b):
            if s in preds:
                preds[s].append(b.label)
    return preds


class ControlFlow:
    """What a function's control-flow graph alone decides.

    The graph's shape is its block labels in order, each with its
    terminator's target labels (``labels`` and ``successors``).
    ``control_flow`` builds one of these per shape and hands the same one
    to every function of that shape, so nothing in it changes.
    ``reachable`` holds the labels of the blocks reachable from the entry;
    the methods answer for those blocks only.  The dominator tree comes
    from Cooper, Harvey & Kennedy's "A Simple, Fast Dominance Algorithm"
    (2001): iterate over the reachable blocks in reverse postorder,
    intersecting the tree paths of each block's processed predecessors,
    until nothing changes.  An unreachable block is in no tree, and as a
    predecessor it is ignored.  ``loops`` holds ``cfg.natural_loops``'s
    loops, which it sets the first time it is asked for them; it is None
    until then.

    The facts are kept in tuples indexed by a block's entry number in a
    depth-first walk of the dominator tree, so a cached graph costs a few
    words per block: a block's subtree takes the numbers from its own up
    to its ``_end``, and ``a`` dominates ``b`` exactly when ``b``'s number
    falls in ``a``'s range.
    """

    __slots__ = ("labels", "successors", "reachable", "_enter", "_end",
                 "_idom", "_position", "_pred_start", "_preds", "loops")

    def __init__(self, labels: tuple[str, ...],
                 successors: tuple[tuple[str, ...], ...]):
        self.labels, self.successors = labels, successors
        preds: dict[str, list[str]] = {l: [] for l in labels}
        for l, targets in zip(labels, successors):
            for s in targets:
                if s in preds:
                    preds[s].append(l)
        order = _reverse_postorder(labels, successors)
        idom = _immediate_dominators(order, preds)
        # A dominator comes before the blocks it dominates in ``order``, so
        # children are sized before their parents and numbered after them.
        n = len(order)
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[idom[i]] += size[i]
        enter = [0] * n
        free = [1] * n                  # the next number a child may take
        for i in range(1, n):
            enter[i] = free[idom[i]]
            free[idom[i]] += size[i]
            free[i] = enter[i] + 1
        by_number = [0] * n
        for i, e in enumerate(enter):
            by_number[e] = i
        position = {l: i for i, l in enumerate(labels)}
        self._enter = dict(zip(order, enter))
        self.reachable = self._enter.keys()
        self._end = tuple(enter[i] + size[i] for i in by_number)
        self._idom = tuple(order[idom[i]] if i else None for i in by_number)
        self._position = tuple(position[order[i]] for i in by_number)
        starts = [0]
        for i in by_number:
            starts.append(starts[-1] + len(preds[order[i]]))
        self._pred_start = tuple(starts)
        self._preds = tuple(p for i in by_number for p in preds[order[i]])
        self.loops = None

    def dominates(self, a: str, b: str) -> bool:
        """Does block ``a`` dominate block ``b``?  A block dominates
        itself; an unreachable block dominates nothing and is dominated by
        nothing."""
        i = self._enter.get(a)
        return i is not None and i <= self._enter.get(b, -1) < self._end[i]

    def idom(self, label: str) -> str | None:
        """The immediate dominator of ``label``; None for the entry."""
        return self._idom[self._enter[label]]

    def position(self, label: str) -> int:
        """The index of ``label`` in the function's blocks."""
        return self._position[self._enter[label]]

    def preds(self, label: str) -> tuple[str, ...]:
        """The predecessors of ``label``, one per edge, in block order;
        unreachable ones included."""
        i = self._enter[label]
        return self._preds[self._pred_start[i]:self._pred_start[i + 1]]


def _reverse_postorder(labels, successors) -> list[str]:
    """The labels reachable from the first in reverse postorder of a
    depth-first walk; empty when there are none."""
    if not labels:
        return []
    succ = dict(zip(labels, successors))
    postorder: list[str] = []
    seen = {labels[0]}
    stack = [(labels[0], iter(succ[labels[0]]))]
    while stack:
        label, targets = stack[-1]
        for s in targets:
            if s not in seen and s in succ:
                seen.add(s)
                stack.append((s, iter(succ[s])))
                break
        else:
            stack.pop()
            postorder.append(label)
    return postorder[::-1]


def _immediate_dominators(order: list[str], preds) -> list[int]:
    """Each block's immediate dominator as an index into ``order``, the
    reverse postorder; the entry (index 0) is its own."""
    index = {l: i for i, l in enumerate(order)}
    pred_index = [[index[p] for p in preds[l] if p in index] for l in order]
    idom: list[int | None] = [None] * len(order)
    if order:
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
    return idom


def control_flow(func: Function) -> ControlFlow:
    """The ``ControlFlow`` of ``func``'s current shape, from a memo of the
    last ``MEMO_SIZE`` shapes: a function whose blocks or branch
    targets change gets the facts of its new shape."""
    blocks = func.blocks
    return _control_flow(tuple([b.label for b in blocks]),
                         tuple([successors(b) for b in blocks]))


@lru_cache(maxsize=MEMO_SIZE)
def _control_flow(labels, successors) -> ControlFlow:
    return ControlFlow(labels, successors)


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


def validate(prog: Program, key: tuple | None = None) -> list[str]:
    """Return violation strings; empty means the program is well formed.

    Checks that every global has as many elements as its length and that
    they fit its element width, and structure, dominance and the type of
    every value operand (see the module conventions).  Each violation
    names the global and element, or the function, block, and instruction
    id involved; a program of other than one function, a function with no
    blocks or duplicate labels, or an instruction of a shape the parser
    rejects, is checked no further.  A phi takes its arms' type, counting
    through the phis among them; with several, it takes the type of its
    first arm with just one, else the least by name, and reports the rest.

    The messages of the last ``MEMO_SIZE`` programs checked are kept by
    stage and ``memo_key``, and the check walks the program that
    ``keyed_program`` rebuilds from the key, so what is kept is what a walk
    gives.  A program without a ``memo_key``, or whose key cannot be
    hashed, is walked without the memo.  A caller that has computed
    ``memo_key(prog)`` passes it as ``key``.
    """
    if key is None:
        key = memo_key(prog)
    if key is not None:
        try:
            return list(_errors(prog.stage, key))
        except TypeError:               # contents that cannot be hashed
            pass
    return _check(prog)


def memo_key(prog: Program) -> tuple | None:
    """``program_key(prog)`` when a memo may stand in for work on ``prog``,
    else None: for a program of other than one function, and for one with
    an instruction id, operand, width, global element width, length or
    element that is not an ``int`` (or a name, for an operand).  Python
    counts ``1.0`` equal to ``1``, but the check, its messages and the
    passes do not.  The key may still hold contents that cannot be
    hashed."""
    try:
        key = program_key(prog)
    except IRError:
        return None
    return key if _plain(key) else None


@lru_cache(maxsize=MEMO_SIZE)
def _errors(stage: str, key: tuple) -> tuple[str, ...]:
    """``_check``'s messages for the program of ``key`` at ``stage``."""
    return (*_check(keyed_program(key, stage)),)


_PLAIN = {int, str}


def _plain(key: tuple) -> bool:
    """Is every number in ``key`` that the check reads or prints an
    ``int``?"""
    _, globals_, _, _, _, *columns = key
    kinds = set()
    for _, _, width, length, init in globals_:
        kinds.update(map(type, init), (type(width), type(length)))
    if columns:                         # some instruction
        fields = dict(zip(KEY_FIELDS, columns))
        kinds.update(map(type, fields["iid"]), map(type, fields["width"]),
                     map(type, chain.from_iterable(fields["operands"])))
    return kinds <= _PLAIN


def _check(prog: Program) -> list[str]:
    """``validate``'s walk, without its memo."""
    errs: list[str] = []
    for g in prog.globals.values():
        if len(g.init) != g.length:     # the parser's wording
            errs.append(f"global {g.name}: {len(g.init)} initializers for "
                        f"length {g.length}")
        for i, x in enumerate(g.init):
            if not 0 <= x < 1 << g.elem_width:
                errs.append(f"global {g.name}: element {i} is {x}, which "
                            f"does not fit u{g.elem_width}")
                break

    try:
        func = prog.function()
    except IRError as e:
        return errs + [str(e)]

    def err(block, ins, msg):
        where = func.name
        if block is not None:
            where += f"/{block.label}"
        if ins is not None:
            where += f"/id{ins.iid}"
        errs.append(f"{where}: {msg}")

    labels = [b.label for b in func.blocks]
    if not labels:                      # the parser's wording
        err(None, None, f"function {func.name} has no blocks")
        return errs
    if len(set(labels)) != len(labels):
        err(None, None, "duplicate block labels")
        return errs
    label_set = set(labels)

    seen_ids: set[int] = set()
    defs: dict[str, tuple[str, int]] = {}  # name -> (block, index)
    types: dict[str, object] = {
        p.name: _REGION if isinstance(p.type, ArrayType) else _SCALAR
        for p in func.params}
    for block in func.blocks:
        for idx, ins in enumerate(block.instrs):
            if ins.iid in seen_ids:
                err(block, ins, "duplicate instruction id")
            seen_ids.add(ins.iid)
            if ins.result is not None:
                if ins.result in types:
                    err(block, ins, f"redefinition of {ins.result!r}")
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

    malformed: set[int] = set()         # id() of each, checked no further
    for block in func.blocks:
        term = block.terminator
        if term is None:
            err(block, None, "block lacks a terminator")
        for idx, ins in enumerate(block.instrs):
            shape = f"unknown opcode {ins.opcode!r}" \
                if ins.opcode not in ALL_OPS else _shape_error(ins)
            if shape is not None:
                err(block, ins, shape)
                malformed.add(id(ins))
                continue
            if ins.is_terminator and idx != len(block.instrs) - 1:
                err(block, ins, "terminator not at block end")
            if ins.opcode == "phi" and block is func.blocks[0]:
                err(block, ins, "phi in the entry block")
            if ins.opcode == "phi" and any(
                    prev.opcode != "phi" for prev in block.instrs[:idx]):
                err(block, ins, "phi after non-phi instruction")
            want = (types[ins.result] if ins.opcode == "phi"
                    else _vector(ins.width) if ins.opcode in LANEWISE_OPS
                    or ins.opcode == "vselect" else _SCALAR)
            for k, op in enumerate(value_operands(ins)):
                need = _vector(ins.width) if ins.opcode == "vstore" \
                    and k == 1 else want
                got = _SCALAR if isinstance(op, int) else types.get(op)
                if op not in types and not isinstance(op, int):
                    err(block, ins, f"use of undefined {op!r}")
                elif got is not None and got != need:
                    err(block, ins,
                        f"operand {op!r} is {got}; {ins.opcode} needs {need}")
            for l in ins.labels:
                if l not in label_set:
                    err(block, ins, f"unknown target block {l!r}")
            if ins.opcode in MEMORY_OPS and ins.operands[0] not in \
                    prog.globals and types.get(ins.operands[0]) != _REGION:
                err(block, ins,
                    f"unknown memory name {ins.operands[0]!r}")
            if prog.stage == "lowered" and ins.opcode in ("select", "vselect"):
                err(block, ins, f"{ins.opcode} present in lowered program")
            if prog.stage == "midend" and ins.opcode == "cmov":
                err(block, ins, "cmov before backend lowering")

    # Dominance: every use of a definition (params and undefined names
    # were settled above) is dominated by it.
    flow = control_flow(func)
    reach = flow.reachable
    for block in func.blocks:
        if block.label not in reach:
            continue  # unreachable; skip dominance checks
        for idx, ins in enumerate(block.instrs):
            if id(ins) in malformed:
                continue
            if ins.opcode == "phi":
                preds = flow.preds(block.label)
                for label, op in zip(ins.labels, ins.operands):
                    if label not in preds:
                        err(block, ins,
                            f"phi arm from non-predecessor {label!r}")
                    if op in defs and label in reach \
                            and not flow.dominates(defs[op][0], label):
                        err(block, ins,
                            f"phi value {op!r} does not dominate edge {label}")
                arm_labels = set(ins.labels)
                if arm_labels != set(p for p in preds if p in reach):
                    err(block, ins, "phi arms do not match predecessors")
                continue
            for op in value_operands(ins):
                if op not in defs:
                    continue
                dblock, didx = defs[op]
                if dblock == block.label:
                    if didx >= idx:
                        err(block, ins, f"use of {op!r} before definition")
                elif not flow.dominates(dblock, block.label):
                    err(block, ins,
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


# The width of a negative immediate, which a program built in Python can
# hold (the parser masks them): wider than any instruction, so it never
# counts as fitting one.
_NEGATIVE_BITS = max(INSTR_WIDTHS) + 1


def _immediate_bits(v: int) -> int:
    return v.bit_length() if v >= 0 else _NEGATIVE_BITS


def width_rule(defs: dict[str, Instruction], param_width):
    """The module's width rule as ``settle``'s ``(inputs, rule)``, over
    the values of a valid function whose ``defs()`` is ``defs``;
    ``param_width(name)`` is a scalar parameter's width.  The width of a
    vector value is that of its lanes."""
    def inputs(v):
        ins = defs.get(v)
        oc = ins.opcode if ins else None
        return ins.operands[1:] if oc in ("select", "cmov") \
            else ins.operands if oc in ("phi", "and") else ()

    def rule(v, width):
        ins = defs.get(v)
        if ins is None:
            return _immediate_bits(v) if isinstance(v, int) \
                else param_width(v)
        oc = ins.opcode
        if oc in ("select", "cmov", "phi"):
            return max(width[a] for a in inputs(v))
        if oc == "and":
            return min(ins.width, *(width[a] for a in ins.operands))
        if oc == "const":
            return _immediate_bits(ins.operands[0])
        if oc in VECTOR_OPS:
            return LANE_WIDTH
        return 1 if oc == "icmp" else ins.width

    return inputs, rule


def value_bits(func: Function, op: object,
               defs: dict[str, Instruction]) -> int:
    """The most bits the scalar value ``op`` of a valid ``func``, whose
    ``defs()`` is ``defs``, can occupy, by the module's width rule."""
    inputs, rule = width_rule(defs, lambda p: func.param(p).type.width)
    if not inputs(op):              # nothing to settle
        return rule(op, {})
    return settle((op,), inputs, rule, 0)[op]


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
    """A copy with its own block lists, sharing the (immutable)
    instructions."""
    blocks = [BasicBlock(b.label, b.instrs[:]) for b in func.blocks]
    return Function(func.name, [replace(p) for p in func.params], blocks,
                    next_id=func.next_id)


def copy_program(prog: Program) -> Program:
    return Program({n: copy_function(f) for n, f in prog.functions.items()},
                   {n: replace(g) for n, g in prog.globals.items()},
                   prog.stage)
