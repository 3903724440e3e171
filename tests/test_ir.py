"""Parser, printer, and validator behavior."""

from __future__ import annotations

import copy
import random
from dataclasses import fields

import pytest

from ctlab.ir import (
    INSTR_WIDTHS,
    PARAM_WIDTHS,
    ArrayType,
    BasicBlock,
    Function,
    GlobalArray,
    Instruction,
    IRError,
    IRParseError,
    Param,
    Program,
    ScalarType,
    SourceLoc,
    copy_program,
    parse_ir,
    print_ir,
    validate,
    value_bits,
)
from ctlab.passes import PipelineSpec, run_pipeline

BASIC = """
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
"""


def test_parse_basic_shape():
    prog = parse_ir(BASIC)
    func = prog.function()
    assert func.name == "demo"
    assert [b.label for b in func.blocks] == ["bb0", "bbT", "bbF", "bbJ"]
    assert prog.stage == "midend"
    assert validate(prog) == []


def test_params_and_types():
    prog = parse_ir(BASIC)
    func = prog.function()
    sec, n = func.params
    assert sec.is_secret and sec.type == ScalarType(1)
    assert not n.is_secret and n.default == 8
    arr = parse_ir("func f(secret m: arr<u8,4>) {\nbb0:\n  ret 0\n}")
    p = arr.function().params[0]
    assert p.type == ArrayType(8, 4)
    assert p.bits == 32


def test_ids_assigned_in_textual_order():
    func = parse_ir(BASIC).function()
    ids = [ins.iid for ins in func.instructions()]
    assert ids == list(range(len(ids)))


MIXED_IDS = """
func first(secret s: u8) {
bb0:
  c = icmp.lt s, 4
  condbr c, small, big
small:
  v = load t, s
  br join
big:
  store t, 0, s
  br join
join:
  r = phi [small: v], [big: 0]
  x = add r, 1   # id 40
  ret x          # id 41
}
global t: arr<u32,4> = counting
"""


def test_implicit_ids_count_the_instructions_before_them():
    # Across blocks, implicit ids number the instructions so far; explicit
    # ids may follow them.
    first = parse_ir(MIXED_IDS).function()
    assert [[i.iid for i in b.instrs] for b in first.blocks] == \
        [[0, 1], [2, 3], [4, 5], [6, 40, 41]]
    assert first.next_id == 42


def test_a_program_is_one_function():
    second = "func second(secret s: u8) {\nentry:\n  ret s\n}\n"
    lines = MIXED_IDS.count("\n")
    with pytest.raises(IRParseError,
                       match=f"line {lines}: second func 'second': a "
                             "program is one function"):
        parse_ir(MIXED_IDS.replace("global t", second + "global t"))
    prog = parse_ir(MIXED_IDS)
    func = prog.function()
    for functions in ({}, {"a": func, "b": func}):
        prog.functions = functions
        want = f"program has {len(functions)} functions; a program is " \
            "one function"
        assert validate(prog) == [want]
        with pytest.raises(IRError, match=want):
            prog.function()


def test_print_parse_round_trip_preserves_ids_and_text():
    prog = parse_ir(BASIC)
    text = print_ir(prog)
    again = parse_ir(text)
    assert print_ir(again) == text
    assert [i.iid for i in again.function().instructions()] == \
        [i.iid for i in prog.function().instructions()]


def test_width_suffix_printing():
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n"
                    "  a = add.16 n, 1\n  b = add n, 2\n  ret b\n}")
    text = print_ir(prog)
    assert "add.16 n, 1" in text
    assert "add n, 2" in text          # default width stays bare
    assert "add.32" not in text


def test_vector_lane_suffix_required_and_printed():
    src = ("func f(public n: u32 = 1) {\nbb0:\n"
           "  s = splat.4 n\n  t = vadd.4 s, s\n  ret n\n}")
    text = print_ir(parse_ir(src))
    assert "splat.4" in text and "vadd.4" in text
    with pytest.raises(IRParseError):
        parse_ir("func f(public n: u32 = 1) {\nbb0:\n  s = splat n\n  ret n\n}")


def test_loc_explicit_and_fallback():
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n"
                    "  a = add n, 1 !loc x.c:9\n  ret a\n}")
    a, ret = prog.function().instructions()
    assert (a.loc.file, a.loc.line) == ("x.c", 9)
    assert ret.loc.line == 4           # textual fallback


def test_global_initializers():
    prog = parse_ir(BASIC)
    table = prog.globals["table"]
    assert table.init == tuple(range(16))
    listed = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  ret n\n}\n"
                      "global g: arr<u8,3> = [1, 2, 300]")
    assert listed.globals["g"].init == (1, 2, 300 & 0xFF)  # masked to u8
    empty = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  ret n\n}\n"
                     "global g: arr<u8,0> = [ ]")
    assert empty.globals["g"].init == () and validate(empty) == []


def test_validate_rejects_a_global_element_that_does_not_fit():
    # The parser wraps initializers to the element width; a program built
    # in Python may not, and the tracer reads every cell as fitting.
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  ret n\n}\n"
                    "global g: arr<u8,3> = [1, 2, 255]")
    assert validate(prog) == []
    prog.globals["g"] = GlobalArray("g", 8, 3, (1, 2 ** 40, -1))
    prog.globals["h"] = GlobalArray("h", 16, 2, (65535, -1))
    assert validate(prog) == [
        "global g: element 1 is 1099511627776, which does not fit u8",
        "global h: element 1 is -1, which does not fit u16"]


def test_validate_rejects_a_global_whose_initializers_miss_its_length():
    # The tracer sizes a region by its initializers, and the printed
    # program would not parse back.
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  ret n\n}")
    prog.globals["g"] = GlobalArray("g", 8, 4, (1, 2))
    assert validate(prog) == ["global g: 2 initializers for length 4"]
    with pytest.raises(IRParseError,
                       match="global g: 2 initializers for length 4"):
        parse_ir(print_ir(prog))


def test_instructions_are_immutable_values():
    ins = parse_ir(BASIC).function().blocks[0].instrs[0]
    for f in fields(Instruction):
        with pytest.raises(AttributeError):
            setattr(ins, f.name, getattr(ins, f.name))
    narrow = ins._replace(width=8)
    assert narrow != ins and narrow.iid == ins.iid and ins.width == 32
    assert copy.deepcopy(ins) == ins


def test_a_program_copy_shares_instructions_but_not_lists():
    prog = parse_ir(BASIC)
    text = print_ir(prog)
    copy = copy_program(prog)
    f, g = prog.function(), copy.function()
    assert all(a is b for a, b in zip(f.instructions(), g.instructions()))
    assert all(a.instrs is not b.instrs for a, b in zip(f.blocks, g.blocks))
    g.blocks[1].instrs[0] = g.blocks[1].instrs[0]._replace(operands=("n", 4))
    g.blocks[3].instrs.pop(0)
    g.blocks.pop(2)
    assert print_ir(prog) == text


def test_parse_errors():
    with pytest.raises(IRParseError):
        parse_ir("func f(secret s: u1 = 1) {\nbb0:\n  ret 0\n}")  # secret default
    with pytest.raises(IRParseError):
        parse_ir("func f(public n: u3 = 1) {\nbb0:\n  ret n\n}")  # bad width
    with pytest.raises(IRParseError):
        parse_ir("func f(public n: u32 = 1) {\nbb0:\n  a = frob n\n  ret a\n}")
    with pytest.raises(IRParseError):
        parse_ir("func f(public n: u32 = 1) {\nbb0:\n  c = icmp.ge n, 1\n  ret c\n}")


@pytest.mark.parametrize("line", ["a = add k, , 1", "a = add k, 1,",
                                  "a = select k, k, , k"])
def test_an_empty_operand_is_a_located_error(line):
    # Dropping it would check a different instruction.
    with pytest.raises(IRParseError, match="^line 3: empty operand$"):
        parse_ir(f"func f(secret k: u1) {{\nbb0:\n  {line}\n  ret a\n}}")


def _in_func(body: str) -> str:
    """``body`` as line 3 on, in a function whose parameter is ``k``."""
    return f"func f(secret k: u8) {{\nbb0:\n{body}\n  ret k\n}}"


def _built(*blocks) -> Program:
    """A program of ``f(secret k: u8)`` built without the parser: each
    block is its label and its instructions' (id, opcode, result,
    operands, labels) fields."""
    loc = SourceLoc("t.c", 1)
    return Program({"f": Function(
        "f", [Param("k", ScalarType(8), "secret")],
        [BasicBlock(label, [Instruction(iid, op, result, operands, loc,
                                        labels=labels)
                            for iid, op, result, operands, labels in instrs])
         for label, instrs in blocks])})


_RET_K = (9, "ret", None, ("k",), ())

# Each error message of the parser and the validator, with an input that
# gets it: a parse error names its line, a validate error its place.
ERRORS = [
    ("}", "line 1: stray '}'"),
    ("func f(secret k: u8) {\nfunc g(secret k: u8) {", "line 2: nested func"),
    ("func f(secret k: u8) {\nbb0:\n  ret k", "line 3: unterminated func f"),
    ("func f(secret k: u8) {\n}", "line 2: function f has no blocks"),
    ("ret 0", "line 1: unexpected line outside func: 'ret 0'"),
    ("func f(secret k: u8) {\n  ret k\n}",
     "line 2: instruction before first block label"),
    ("func f(k) {", "line 1: bad parameter 'k'"),
    ("func f(public p: arr<u8,4> = 1) {",
     "line 1: array parameter defaults are not supported"),
    ("func f(secret p: arr<u3,4>) {", "line 1: bad element width u3"),
    ("func f(secret p: arr<u0,4>) {", "line 1: bad element width u0"),
    ("global g: arr<u3,1> = zeros", "line 1: bad element width u3"),
    ("global g: arr<u8,1> = zeros\nglobal g: arr<u8,1> = zeros",
     "line 2: duplicate global 'g'"),
    ("global g: arr<u8,1> = ones", "line 1: bad global initializer 'ones'"),
    ("global g: arr<u8,3> = [1, , 2, 3]",
     "line 1: empty initializer element"),
    ("global g: arr<u8,3> = [1, 2, 3,]", "line 1: empty initializer element"),
    ("global g: arr<u8,3> = [1, x, 3]",
     "line 1: bad initializer element 'x'"),
    (_in_func("  1x = add k, 1"), "line 3: bad result name '1x'"),
    (_in_func("  a = add k, $"), "line 3: bad operand '$'"),
    (_in_func("  a = phi k"), "line 3: bad phi arms"),
    (_in_func("  br bb1, bb2"), "line 3: br needs one target label"),
    (_in_func("  condbr k, bb1"),
     "line 3: condbr needs: cond, taken, fallthrough"),
    (_in_func("  a = add k, 1  # id 4"),
     "line 4: mixing explicit # id comments with implicit ids"),
    (_in_func("  a = add.x k, 1"), "line 3: bad opcode suffix on 'add.x'"),
    (_in_func("  a = add.7 k, 1"), "line 3: bad width 7"),
    (_in_func("  a = splat.3 k"), "line 3: bad lane count 3"),
    (_built(("b", [_RET_K]), ("b", [_RET_K])), "f: duplicate block labels"),
    (_built(("b", [(0, "add", "a", ("k", 1), ()), (0, "ret", None, ("a",),
                                                   ())])),
     "f/b/id0: duplicate instruction id"),
    (_built(("b", [(0, "add", "a", ("k", 1), ()),
                   (1, "add", "a", ("k", 2), ()), _RET_K])),
     "f/b/id1: redefinition of 'a'"),
    (_built(("b", [(0, "add", "a", ("k", 1), ())])),
     "f/b: block lacks a terminator"),
    (_built(("b", [_RET_K, (1, "add", "a", ("k", 1), ()),
                   (2, "ret", None, ("a",), ())])),
     "f/b/id9: terminator not at block end"),
    (_built(("b", [(0, "br", None, (), ("c",))]),
            ("c", [(1, "add", "a", ("k", 1), ()),
                   (2, "phi", "p", ("k",), ("b",)), _RET_K])),
     "f/c/id2: phi after non-phi instruction"),
    (_built(("b", [(0, "load", "a", ("nope", 0), ()), _RET_K])),
     "f/b/id0: unknown memory name 'nope'"),
]


@pytest.mark.parametrize("source, message", ERRORS)
def test_every_error_message_is_reachable(source, message):
    if isinstance(source, str):
        with pytest.raises(IRParseError) as caught:
            parse_ir(source)
        assert str(caught.value) == message
    else:
        assert validate(source) == [message]


def test_result_names_may_begin_with_an_opcode():
    # Only the opcode word decides whether a line has no result.
    func = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  retval = add n, 1\n"
                    "  brk = add retval, 1\n  stored = add brk, 1\n"
                    "  ret stored\n}").function()
    assert [i.result for i in func.instructions()] == \
        ["retval", "brk", "stored", None]
    with pytest.raises(IRParseError, match="store takes no result"):
        parse_ir("func f(public n: u32 = 1) {\nbb0:\n  x = store g, 0, n\n"
                 "  ret n\n}\nglobal g: arr<u32,1> = zeros")


def test_validate_catches_broken_programs():
    # unknown branch target
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  br nowhere\n}")
    assert any("unknown target" in e for e in validate(prog))
    # use before definition
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  a = add b, 1\n"
                    "  b = add n, 1\n  ret a\n}")
    assert any("before definition" in e for e in validate(prog))
    # cmov is backend-only
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n"
                    "  r = cmov n, n, n\n  ret r\n}")
    assert any("cmov before backend" in e for e in validate(prog))
    # select may not appear in lowered programs
    prog = parse_ir("stage lowered\nfunc f(public n: u32 = 1) {\nbb0:\n"
                    "  r = select n, n, n\n  ret r\n}")
    assert any("lowered" in e for e in validate(prog))
    # the entry block is first entered from no predecessor
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  i = phi [bb1: n]\n"
                    "  br bb1\nbb1:\n  br bb0\n}")
    assert validate(prog) == ["f/bb0/id0: phi in the entry block"]
    # an opcode the parser would not have produced
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  a = add n, 1\n"
                    "  ret a\n}")
    instrs = prog.function().blocks[0].instrs
    instrs[0] = instrs[0]._replace(opcode="frob")
    assert validate(prog) == ["f/bb0/id0: unknown opcode 'frob'"]
    # an undefined name, even in an unreachable block
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  ret n\ndead:\n"
                    "  m = sub 0, zz\n  r = and m, n\n  ret r\n}")
    assert validate(prog) == ["f/dead/id1: use of undefined 'zz'"]
    # no blocks at all: nothing to enter
    prog.function().blocks.clear()
    assert validate(prog) == ["f: function f has no blocks"]


def test_validate_checks_the_shapes_the_parser_checks():
    # Each would pass the other checks and then crash execute.
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  a = icmp.eq n, 1\n"
                    "  b = add n, 1\n  c = add n, 1\n  d = const 5\n"
                    "  e = add n, 1\n  ret n\n}")
    instrs = prog.function().blocks[0].instrs
    instrs[0] = instrs[0]._replace(pred="le")
    instrs[1] = instrs[1]._replace(operands=("n",))
    instrs[2] = instrs[2]._replace(operands=("n", 1, 2))
    instrs[3] = instrs[3]._replace(operands=("n",))
    instrs[4] = instrs[4]._replace(width=7)
    instrs[5] = instrs[5]._replace(result="r")
    assert validate(prog) == [
        "f/bb0/id0: icmp needs a predicate: icmp.eq/.ne/.lt/.gt",
        "f/bb0/id1: add takes 2 operand(s), got 1",
        "f/bb0/id2: add takes 2 operand(s), got 3",
        "f/bb0/id3: const takes an immediate",
        "f/bb0/id4: bad width 7",
        "f/bb0/id5: ret takes no result",
    ]
    with pytest.raises(IRError, match="invalid input program: f/bb0/id0: "
                                      "icmp needs a predicate"):
        run_pipeline(prog, PipelineSpec())


def test_validate_phi_arms_match_predecessors():
    src = """
func f(public n: u32 = 1) {
bb0:
  c = icmp.eq n, 1
  condbr c, bbJ, bbX
bbX:
  br bbJ
bbJ:
  r = phi [bb0: n], [bbX: n]
  ret r
}
"""
    assert validate(parse_ir(src)) == []
    bad = src.replace("[bbX: n]", "[bb0: n]")
    assert any("phi arms" in e for e in validate(parse_ir(bad)))


TYPED = """
func f(secret m: arr<u32,8>, public n: u32 = 1) {{
bb0:
  v = vload.4 m, 0
  s = splat.4 n
{body}
}}
"""

TYPE_ERRORS = {
    "vector as scalar": (
        "  r = add v, 1\n  ret r",
        "f/bb0/id2: operand 'v' is a 4-lane vector; add needs a scalar"),
    "vector as offset": (
        "  r = load m, v\n  ret r",
        "f/bb0/id2: operand 'v' is a 4-lane vector; load needs a scalar"),
    "immediate in lanewise op": (
        "  w = vadd.4 v, 1\n  ret n",
        "f/bb0/id2: operand 1 is a scalar; vadd needs a 4-lane vector"),
    "scalar in lanewise op": (
        "  w = vxor.4 n, s\n  ret n",
        "f/bb0/id2: operand 'n' is a scalar; vxor needs a 4-lane vector"),
    "lane count mismatch": (
        "  x = vload.2 m, 4\n  w = vadd.4 v, x\n  ret n",
        "f/bb0/id3: operand 'x' is a 2-lane vector; vadd needs a 4-lane "
        "vector"),
    "vstore lane mismatch": (
        "  vstore.2 m, 0, v\n  ret n",
        "f/bb0/id2: operand 'v' is a 4-lane vector; vstore needs a 2-lane "
        "vector"),
    "array parameter as value": (
        "  r = add m, 1\n  ret r",
        "f/bb0/id2: operand 'm' is an array region; add needs a scalar"),
    "ret of a vector": (
        "  ret v",
        "f/bb0/id2: operand 'v' is a 4-lane vector; ret needs a scalar"),
    "condbr on a vector": (
        "  condbr v, bb1, bb1\nbb1:\n  ret n",
        "f/bb0/id2: operand 'v' is a 4-lane vector; condbr needs a scalar"),
    "phi arms of mixed type": (
        "  condbr n, bbA, bbB\nbbA:\n  br bbJ\nbbB:\n  br bbJ\nbbJ:\n"
        "  r = phi [bbA: v], [bbB: n]\n  ret n",
        "f/bbJ/id5: operand 'n' is a scalar; phi needs a 4-lane vector"),
    # Through q, r's arms have both types: q takes its first arm with one
    # type (v), and so does r, skipping q.
    "phi cycle of mixed type": (
        "  br bbH\nbbH:\n  r = phi [bbH: q], [bb0: v], [bbL: n]\n"
        "  q = phi [bbH: r], [bb0: v], [bbL: v]\n  condbr n, bbH, bbL\n"
        "bbL:\n  condbr n, bbH, bbX\nbbX:\n  ret n",
        "f/bbH/id3: operand 'n' is a scalar; phi needs a 4-lane vector"),
}


@pytest.mark.parametrize("case", TYPE_ERRORS)
def test_validate_checks_operand_types(case):
    body, message = TYPE_ERRORS[case]
    assert validate(parse_ir(TYPED.format(body=body))) == [message]


def test_validate_accepts_vector_phis():
    # Lowering joins the arms of a vselect with a phi.
    body = ("  condbr n, bbA, bbB\nbbA:\n  br bbJ\nbbB:\n  br bbJ\nbbJ:\n"
            "  r = phi [bbA: v], [bbB: s]\n  w = vadd.4 r, s\n"
            "  vstore.4 m, 4, w\n  ret n")
    assert validate(parse_ir(TYPED.format(body=body))) == []


@pytest.mark.parametrize("order", [("r", "q"), ("q", "r")])
def test_each_phi_of_an_ill_typed_cycle_is_blamed_by_its_own_arms(order):
    # r and q both reach a vector and a scalar; each takes the type of its
    # one arm from outside the cycle, wherever the cycle is entered.
    phis = {"r": "  r = phi [bbH: q], [bb0: v]\n",
            "q": "  q = phi [bbH: r], [bb0: n]\n"}
    body = ("  br bbH\nbbH:\n" + "".join(phis[p] for p in order)
            + "  condbr n, bbH, bbX\nbbX:\n  ret n")
    iid = {p: 3 + k for k, p in enumerate(order)}
    assert sorted(validate(parse_ir(TYPED.format(body=body)))) == sorted([
        f"f/bbH/id{iid['r']}: operand 'q' is a scalar; phi needs a 4-lane "
        "vector",
        f"f/bbH/id{iid['q']}: operand 'r' is a 4-lane vector; phi needs a "
        "scalar"])


LOOP_MASK = """
func f(public p: u32 = 1) {
a:
  c8 = const 200
  br b
b:
  x = phi [a: c8], [b: y]
  y = and x, p
  c = icmp.lt y, p
  condbr c, b, e
e:
  ret y
}
"""


def test_a_loop_carried_mask_is_as_wide_as_its_entry_value():
    prog = parse_ir(LOOP_MASK)
    assert validate(prog) == []
    f = prog.function()
    defs = f.defs()
    assert [value_bits(f, v, defs) for v in ("c8", "x", "y", "c")] == \
        [8, 8, 8, 1]


def widths_by_rounds(func):
    """Every value's width by whole-function rounds in program order, each
    starting at 0, until a round changes nothing: the least fixpoint of the
    width rule."""
    width = {ins.result: 0 for ins in func.instructions()}

    def of(a):
        if isinstance(a, int):
            return a.bit_length()
        return width[a] if a in width else func.param(a).type.width

    changed = True
    while changed:
        changed = False
        for ins in func.instructions():
            if ins.opcode in ("select", "cmov"):
                new = max(map(of, ins.operands[1:]))
            elif ins.opcode == "phi":
                new = max(map(of, ins.operands))
            elif ins.opcode == "and":
                new = min(ins.width, *map(of, ins.operands))
            elif ins.opcode == "icmp":
                new = 1
            elif ins.opcode == "const":
                new = ins.operands[0].bit_length()
            else:
                new = ins.width
            changed |= new != width[ins.result]
            width[ins.result] = new
    return {**{p.name: p.type.width for p in func.params}, **width}


def random_definitions(rng):
    """Definitions shaped like SSA: only a phi reads a later value, so
    every cycle runs through a phi, and many through selects and ands."""
    params = [Param(f"p{i}", ScalarType(rng.choice(PARAM_WIDTHS)), "secret")
              for i in range(rng.randint(1, 3))]
    names = [p.name for p in params]
    n = rng.randint(1, 10)
    instrs = []
    for i in range(n):
        opcode = rng.choice(["phi", "phi", "select", "cmov", "and", "and",
                             "icmp", "const", "add", "load"])
        pool = names + [f"x{j}" for j in range(n)] if opcode == "phi" \
            else names

        arity = {"phi": rng.randint(1, 3), "select": 3, "cmov": 3,
                 "load": 1}.get(opcode, 2)
        operands = [rng.choice(pool) if rng.random() < 0.8 else
                    rng.choice([0, 1, 5, 255, 65535, 2 ** 40])
                    for _ in range(arity)]
        if opcode == "const":
            operands = [rng.choice([0, 3, 300, 2 ** 33])]
        elif opcode == "load":
            operands = ["g", *operands]
        instrs.append(Instruction(i, opcode, f"x{i}", tuple(operands),
                                  SourceLoc("t", 1), rng.choice(INSTR_WIDTHS),
                                  "eq" if opcode == "icmp" else None))
        names.append(f"x{i}")
    return Function("f", params, [BasicBlock("bb0", instrs)])


def test_value_bits_is_the_least_fixpoint_of_the_width_rule():
    rng = random.Random(11)
    for _ in range(3000):
        f = random_definitions(rng)
        defs = f.defs()
        want = widths_by_rounds(f)
        assert {v: value_bits(f, v, defs) for v in want} == want, \
            [str(i) for i in f.instructions()]
