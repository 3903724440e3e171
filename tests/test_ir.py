"""Parser, printer, and validator behavior."""

from __future__ import annotations

import copy
import pickle
import random
import signal
from dataclasses import fields, replace

import pytest

from ctlab import backend, ir, passes, tracer
from ctlab.analysis import analyze
from ctlab.backend import PROFILES, LoweringError, lower
from ctlab.corpus import load_program, names
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
    freeze,
    parse_ir,
    print_ir,
    validate,
    value_bits,
)
from ctlab.leaks import LeakError
from ctlab.mitigations import PRESETS
from ctlab.passes import InternalPassError, PipelineSpec, run_pipeline
from ctlab.tracer import TraceError, execute, gen_inputs
from conftest import count_walks, start_cold

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
    for g, message in [
            (GlobalArray("g", 8, 3, (1, 2 ** 40, 255)),
             "global g: element 1 is 1099511627776, which does not fit u8"),
            (GlobalArray("h", 16, 2, (65535, -1)),
             "global h: element 1 is -1, which does not fit u16")]:
        prog.globals = {g.name: g}
        assert validate(prog) == [message]


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


def _built(*blocks, next_id=10, param="k") -> Program:
    """A program of ``f(secret k: u8)`` (``k`` named ``param``) built
    without the parser: each block is its label and its instructions'
    (id, opcode, result, operands, labels) fields; ids stay below
    ``next_id``."""
    loc = SourceLoc("t.c", 1)
    return Program({"f": Function(
        "f", [Param(param, ScalarType(8), "secret")],
        [BasicBlock(label, [Instruction(iid, op, result, operands, loc,
                                        labels=labels)
                            for iid, op, result, operands, labels in instrs])
         for label, instrs in blocks], next_id=next_id)})


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
    (_built(("b", [_RET_K]), next_id=9),
     "f: next id is 9; it must be an int above instruction id 9"),
    # A list where a name stands: the walk checks each name before it
    # first hashes it.
    (_built(("b", [(0, "add", ["a"], ("k", 1), ()), _RET_K])),
     "f/b/id0: result is ['a'], not a name"),
    (_built(("b", [(0, ["ret"], None, ("k",), ())])),
     "f/b/id0: opcode is ['ret'], not a name"),
    (_built(("b", [(0, "br", None, (), (["b"],))])),
     "f/b/id0: label is ['b'], not a name"),
    (_built((["b"], [_RET_K])), "f: block label is ['b'], not a name"),
    (_built(("b", [_RET_K]), param=["k"]),
     "f: parameter name is ['k'], not a name"),
]


@pytest.mark.parametrize("source, message", ERRORS)
def test_every_error_message_is_reachable(source, message):
    if isinstance(source, str):
        with pytest.raises(IRParseError) as caught:
            parse_ir(source)
        assert str(caught.value) == message
    else:
        assert validate(source) == [message]
        with pytest.raises(IRError) as caught:
            freeze(source)
        assert str(caught.value) == message


def test_a_stale_next_id_is_blamed_on_the_input():
    # A pass takes fresh ids from ``next_id``; below an id in use it would
    # make a duplicate and be blamed for it.
    prog = copy_program(load_program("loop_unswitch_toy"))
    prog.function().next_id = 0
    message = ("loop_unswitch_toy: next id is 0; it must be an int above "
               "instruction id 13")
    assert validate(prog) == [message]
    with pytest.raises(IRError) as err:
        run_pipeline(prog, PRESETS["gcc13-O3"].spec)
    assert str(err.value) == f"invalid input program: {message}"


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
    for k, change, message in [
            (0, {"pred": "le"},
             "f/bb0/id0: icmp needs a predicate: icmp.eq/.ne/.lt/.gt"),
            (1, {"operands": ("n",)}, "f/bb0/id1: add takes 2 operand(s), got 1"),
            (2, {"operands": ("n", 1, 2)},
             "f/bb0/id2: add takes 2 operand(s), got 3"),
            (3, {"operands": ("n",)}, "f/bb0/id3: const takes an immediate"),
            (4, {"width": 7}, "f/bb0/id4: bad width 7"),
            (5, {"result": "r"}, "f/bb0/id5: ret takes no result")]:
        prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n"
                        "  a = icmp.eq n, 1\n  b = add n, 1\n  c = add n, 1\n"
                        "  d = const 5\n  e = add n, 1\n  ret n\n}")
        instrs = prog.function().blocks[0].instrs
        instrs[k] = instrs[k]._replace(**change)
        assert validate(prog) == [message]
        with pytest.raises(IRError) as err:
            run_pipeline(prog, PipelineSpec())
        assert str(err.value) == f"invalid input program: {message}"


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
    # one arm from outside the cycle, wherever the cycle is entered, so
    # the walk blames the first of them by the arm from the other.
    phis = {"r": "  r = phi [bbH: q], [bb0: v]\n",
            "q": "  q = phi [bbH: r], [bb0: n]\n"}
    body = ("  br bbH\nbbH:\n" + "".join(phis[p] for p in order)
            + "  condbr n, bbH, bbX\nbbX:\n  ret n")
    blame = {"r": "operand 'q' is a scalar; phi needs a 4-lane vector",
             "q": "operand 'r' is a 4-lane vector; phi needs a scalar"}
    assert validate(parse_ir(TYPED.format(body=body))) == [
        f"f/bbH/id3: {blame[order[0]]}"]


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


# ----------------------------------------------------------------------
# The pipeline's kept inputs stand for checked ones


def pipeline_error(prog) -> str | None:
    """What ``run_pipeline`` raises for ``prog`` under no passes, less its
    ``invalid input program: `` prefix; None when it raises nothing."""
    try:
        run_pipeline(prog, PipelineSpec())
    except IRError as e:
        return str(e).removeprefix("invalid input program: ")
    return None


MEMO_BASE = """
func f(secret s: u8, public n: u32 = 2, public a: arr<u32,2>) {
bb0:
  c = icmp.lt s, n
  condbr c, bb1, bb2
bb1:
  x = load g, 0
  br bb2
bb2:
  p = phi [bb0: 1], [bb1: x]
  y = add.16 p, 3
  v = select c, y, n
  store a, 1, v
  ret v
}
global g: arr<u32,2> = [300, 1]
"""


def _put(prog, label, k, **changes):
    instrs = prog.function().block(label).instrs
    instrs[k] = instrs[k]._replace(**changes)


def _move_terminator(prog):
    # The same instructions in the same order, with bb0's condbr first in
    # bb1: only the block sizes change.
    b0, b1 = prog.function().blocks[:2]
    b1.instrs.insert(0, b0.instrs.pop())


def _retype(prog):
    prog.function().params[0].type = ArrayType(8, 2)


def _rekey(prog):
    prog.globals = {"h": prog.globals["g"]}


def _set_global(**changes):
    def change(prog):
        for k, v in changes.items():
            setattr(prog.globals["g"], k, v)
    return change


def _set(what, **changes):
    def change(prog):
        for k, v in changes.items():
            setattr(what(prog), k, v)
    return change


# Each field the key holds, and the stage, changed in a valid program:
# the error the change makes, or None where the field only names things
# in messages, so the program stays valid.
MEMO_CHANGES = {
    "iid": (lambda p: _put(p, "bb2", 1, iid=4), "duplicate instruction id"),
    "opcode": (lambda p: _put(p, "bb2", 1, opcode="bogus"),
               "unknown opcode 'bogus'"),
    "result": (lambda p: _put(p, "bb1", 0, result="x2"),
               "use of undefined 'x'"),
    "operands": (lambda p: _put(p, "bb2", 1, operands=("p", "q")),
                 "use of undefined 'q'"),
    "width": (lambda p: _put(p, "bb2", 1, width=7), "bad width 7"),
    "pred": (lambda p: _put(p, "bb0", 0, pred="le"),
             "icmp needs a predicate"),
    "labels": (lambda p: _put(p, "bb0", 1, labels=("bb1", "bb9")),
               "unknown target block 'bb9'"),
    "block label": (_set(lambda p: p.function().blocks[1], label="bbX"),
                    "unknown target block 'bb1'"),
    "block boundary": (_move_terminator, "block lacks a terminator"),
    "param name": (_set(lambda p: p.function().params[1], name="m"),
                   "use of undefined 'n'"),
    "param type": (_retype, "operand 's' is an array region"),
    "global key": (_rekey, "unknown memory name 'g'"),
    "global name": (_set_global(name="h"), None),
    "global width": (_set_global(elem_width=8),
                     "global g: element 0 is 300, which does not fit u8"),
    "global length": (_set_global(length=3),
                      "global g: 2 initializers for length 3"),
    "global element": (_set_global(init=(300, 1 << 32)),
                       "global g: element 1 is 4294967296"),
    "stage": (_set(lambda p: p, stage="lowered"),
              "select present in lowered program"),
    "function name": (_set(lambda p: p.function(), name="g"), None),
}


@pytest.mark.parametrize("change, error", MEMO_CHANGES.values(),
                         ids=list(MEMO_CHANGES))
def test_a_change_to_any_field_of_the_key_is_checked(change, error,
                                                     monkeypatch):
    # A frozen program is a checked one, so a change to any field of the
    # key gives a program that freezing walks: the pipeline answers as
    # the walk does, and a valid change gets a key of its own.  The key
    # holds no stage: the pipeline takes only mid-end programs, and says
    # so before it freezes one.
    walks = count_walks(monkeypatch)
    prog = freeze(parse_ir(MEMO_BASE))
    for same in (prog, freeze(copy_program(prog))):
        assert pipeline_error(same) is None
    assert len(walks) == 2              # each freeze, not each run
    changed = copy_program(prog)
    change(changed)
    errs = validate(changed)
    if error is None:
        assert errs == []
    else:
        assert any(error in e for e in errs), errs
    if changed.stage != "midend":
        with pytest.raises(InternalPassError, match="midend-stage"):
            run_pipeline(changed, PipelineSpec())
        return
    assert pipeline_error(changed) == (errs[0] if errs else None)
    assert len(walks) == 3
    if errs:
        with pytest.raises(IRError) as err:
            freeze(changed)
        assert str(err.value) == errs[0]
    else:
        assert freeze(changed).key != prog.key


def test_a_failed_check_keeps_nothing_and_gives_the_same_message(
        monkeypatch):
    # An input that fails the check keeps no state, so each run walks it
    # and raises the same message.
    walks = count_walks(monkeypatch)
    prog = parse_ir(MEMO_BASE.replace("ret v", "ret q"))
    first = validate(prog)
    assert first == ["f/bb2/id8: use of undefined 'q'"]
    first.append("a caller's own line")     # each call gets its own list
    assert validate(prog) == ["f/bb2/id8: use of undefined 'q'"]
    for _ in range(2):
        assert pipeline_error(prog) == "f/bb2/id8: use of undefined 'q'"
    assert len(walks) == 2 and len(passes._states) == 0


def test_two_frozen_copies_of_a_program_share_one_key_object():
    # Equal keys are one object, so a memo hashes and compares a key by
    # identity, in C.
    prog = parse_ir(MEMO_BASE)
    first, second = freeze(copy_program(prog)), freeze(copy_program(prog))
    assert first is not second and first.key is second.key
    assert type(first.key).__hash__ is object.__hash__
    assert type(first.key).__eq__ is object.__eq__


def test_a_list_initializer_is_frozen_as_a_tuple():
    # A global built in Python with a list initializer is valid: the
    # frozen copy holds a tuple, so it has a key and keeps its state.
    prog = parse_ir("func f(public n: u32 = 1) {\nbb0:\n  c = const 1\n"
                    "  ret c\n}")
    prog.globals["g"] = GlobalArray("g", 8, 2, [1, 2])
    frozen = freeze(prog)
    assert frozen.globals["g"].init == (1, 2)
    assert prog.globals["g"].init == [1, 2]
    again = freeze(copy_program(frozen))    # a tuple is shared, not copied
    assert again.globals["g"].init is frozen.globals["g"].init
    start_cold()
    for _ in range(2):
        assert pipeline_error(frozen) is None
    assert [*passes._states] == [(frozen.key, ())]


def test_each_memo_keeps_its_last_memo_size_results():
    for memo in (ir._control_flow, tracer._translations, tracer._inputs,
                 passes._states, backend._lowered):
        assert isinstance(memo, ir.Memo)
    memo = ir.Memo()
    for k in range(ir.MEMO_SIZE + 1):
        assert memo.get_or(k, lambda k=k: -k) == -k
    assert len(memo) == ir.MEMO_SIZE and 0 not in memo
    assert memo.get_or(1, pytest.fail) == -1    # a hit, now the newest
    memo.get_or("new", lambda: 0)               # evicts 2, not 1
    assert 1 in memo and 2 not in memo
    with pytest.raises(ZeroDivisionError):      # a raise keeps nothing
        memo.get_or("x", lambda: 1 / 0)
    assert "x" not in memo


# A number the check reads, in a program built in Python, that is another
# type than int: the message ``validate`` gives.  Python counts ``8.0``
# and ``True`` equal to ``8`` and ``1``, and most of these changes keep
# the numbers of MEMO_BASE.
NOT_INTS = {
    "instruction id": (lambda p: _put(p, "bb2", 4, iid=8.0),
                       "f/bb2/id8.0: id is 8.0, not an int"),
    "instruction width": (lambda p: _put(p, "bb2", 1, width=16.0),
                          "f/bb2/id5: width is 16.0, not an int"),
    "source line": (lambda p: _put(p, "bb2", 1, loc=SourceLoc("f.c", 8.0)),
                    "f/bb2/id5: source line is 8.0, not an int"),
    "operand": (lambda p: _put(p, "bb2", 1, operands=("p", 3.0)),
                "f/bb2/id5: operand 3.0 is not a name or an int"),
    "bool operand": (lambda p: _put(p, "bb2", 1, operands=("p", True)),
                     "f/bb2/id5: operand True is not a name or an int"),
    "phi arm": (lambda p: _put(p, "bb2", 0, operands=(1.0, "x")),
                "f/bb2/id4: operand 1.0 is not a name or an int"),
    "const immediate": (
        lambda p: _put(p, "bb2", 1, opcode="const", operands=(3.0,)),
        "f/bb2/id5: const takes an immediate"),
    "parameter width": (
        _set(lambda p: p.function().params[0], type=ScalarType(8.0)),
        "f: parameter s: width is 8.0, not an int"),
    "array parameter element width": (
        _set(lambda p: p.function().params[2], type=ArrayType(32.0, 2)),
        "f: parameter a: elem_width is 32.0, not an int"),
    "array parameter length": (
        _set(lambda p: p.function().params[2], type=ArrayType(32, 2.0)),
        "f: parameter a: length is 2.0, not an int"),
    "global element width": (_set_global(elem_width=32.0),
                             "global g: element width is 32.0, not an int"),
    "global length": (_set_global(length=2.0),
                      "global g: length is 2.0, not an int"),
    "global element": (_set_global(init=(300, 1.0)),
                       "global g: element 1 is 1.0, not an int"),
}

# A part the check reads that is not of the type or in the range it
# takes: a list, which cannot be hashed, where a name, an int or a tuple
# stands, a location that is not a ``SourceLoc``, and a width that the
# parser would not take.
NOT_PARTS = {
    "list operand": (lambda p: _put(p, "bb2", 1, operands=(["p"], 3)),
                     "f/bb2/id5: operand ['p'] is not a name or an int"),
    "list phi arm": (lambda p: _put(p, "bb2", 0, operands=([1], "x")),
                     "f/bb2/id4: operand [1] is not a name or an int"),
    "list immediate": (
        lambda p: _put(p, "bb2", 1, opcode="const", operands=([3],)),
        "f/bb2/id5: const takes an immediate"),
    "location": (lambda p: _put(p, "bb2", 1, loc=None),
                 "f/bb2/id5: location is None, not a SourceLoc"),
    "operand list": (lambda p: _put(p, "bb2", 1, operands=["p", 3]),
                     "f/bb2/id5: operands are ['p', 3], not a tuple"),
    "label list": (lambda p: _put(p, "bb0", 1, labels=["bb1", "bb2"]),
                   "f/bb0/id1: labels are ['bb1', 'bb2'], not a tuple"),
    "source file": (lambda p: _put(p, "bb2", 1, loc=SourceLoc(["f.c"], 8)),
                    "f/bb2/id5: source file is ['f.c'], not a string"),
    "list predicate": (lambda p: _put(p, "bb0", 0, pred=["lt"]),
                       "f/bb0/id0: icmp needs a predicate: "
                       "icmp.eq/.ne/.lt/.gt"),
    "predicate off icmp": (lambda p: _put(p, "bb2", 1, pred="eq"),
                           "f/bb2/id5: add takes no predicate"),
    "phi width": (lambda p: _put(p, "bb2", 0, width=-1),
                  "f/bb2/id4: bad width -1"),
    "terminator width": (lambda p: _put(p, "bb2", 4, width=-1),
                         "f/bb2/id8: bad width -1"),
    "entry label": (_set(lambda p: p.function().blocks[0], label=None),
                    "f: block label is None, not a name"),
    "function name": (_set(lambda p: p.function(), name=["f"]),
                      "function name is ['f'], not a name"),
    "parameter type": (_set(lambda p: p.function().params[0], type=None),
                       "f: parameter s: type is None, not a ScalarType or "
                       "an ArrayType"),
    "scalar parameter width": (
        _set(lambda p: p.function().params[0], type=ScalarType(-3)),
        "f: parameter s: unsupported scalar width u-3"),
    "array parameter element width": (
        _set(lambda p: p.function().params[2], type=ArrayType(-1, 2)),
        "f: parameter a: bad element width u-1"),
    "secrecy": (_set(lambda p: p.function().params[0], secrecy=["secret"]),
                "f: parameter s: secrecy is ['secret'], not secret or public"),
    "default": (_set(lambda p: p.function().params[1], default=[2]),
                "f: parameter n: default is [2], not an int"),
    "global name": (_set_global(name=["g"]),
                    "global g: name is ['g'], not a name"),
    "initializer kind": (_set_global(init_kind=["zeros"]),
                         "global g: initializer kind is ['zeros'], not "
                         "zeros, counting or explicit"),
    "initializer": (_set_global(init=5),
                    "global g: initializers are 5, not a tuple or a list"),
    "global element width": (_set_global(elem_width=-1),
                             "global g: bad element width u-1"),
}


def located_error(change, message):
    # The check, not a bare TypeError from deep in the analysis, reports
    # the part where it stands; freezing raises it, so does tracing, which
    # freezes first, and the pipeline raises it as an invalid input even
    # where the kept states of MEMO_BASE hold a program that Python counts
    # equal, and keeps no state for it.
    prog = parse_ir(MEMO_BASE)
    change(prog)
    assert validate(prog) == [message]
    for freezes in (freeze, lambda p: execute(p, {})):
        with pytest.raises(IRError) as err:
            freezes(prog)
        assert str(err.value) == message
    start_cold()
    spec = PRESETS["llvm18-O3"].spec
    run_pipeline(parse_ir(MEMO_BASE), spec)
    kept = [*passes._states]
    with pytest.raises(IRError) as err:
        analyze(prog, spec)
    assert str(err.value) == f"invalid input program: {message}"
    assert [*passes._states] == kept


@pytest.mark.parametrize("change, message", NOT_INTS.values(),
                         ids=list(NOT_INTS))
def test_a_number_that_is_not_an_int_is_a_located_error(change, message):
    located_error(change, message)


@pytest.mark.parametrize("change, message", NOT_PARTS.values(),
                         ids=list(NOT_PARTS))
def test_a_part_of_another_type_is_a_located_error(change, message):
    located_error(change, message)


# Parts the text cannot say: print_ir would write what parse_ir rejects or
# reads back as another program.  A default on a secret or an array
# parameter is refused in the parser's words.
UNPRINTABLE = {
    "secret default": (_set(lambda p: p.function().params[0], default=3),
                       "f: secret parameter 's' takes no default"),
    "array default": (_set(lambda p: p.function().params[2], default=0),
                      "f: array parameter defaults are not supported"),
    "wide default": (_set(lambda p: p.function().params[1], default=1 << 32),
                     "f: parameter n: default is 4294967296, which does not "
                     "fit u32"),
    "negative default": (_set(lambda p: p.function().params[1], default=-1),
                         "f: parameter n: default is -1, which does not fit "
                         "u32"),
    "negative length": (_set(lambda p: p.function().params[2],
                             type=ArrayType(32, -1)),
                        "f: parameter a: length is -1, which is negative"),
    "negative id": (lambda p: _put(p, "bb2", 1, iid=-1),
                    "f/bb2/id-1: negative instruction id"),
    "negative source line": (
        lambda p: _put(p, "bb2", 1, loc=SourceLoc("f.c", -1)),
        "f/bb2/id5: source line is -1, which is negative"),
}


@pytest.mark.parametrize("change, message", UNPRINTABLE.values(),
                         ids=list(UNPRINTABLE))
def test_a_part_the_text_cannot_say_is_a_located_error(change, message):
    located_error(change, message)


def field_setters(prog):
    """``(field, put)`` for each field of each part of ``prog``:
    ``put(p, value)`` sets that field of ``p``, a mutable copy of ``prog``,
    to ``value``."""
    def attr(part, name):
        return lambda p, v: setattr(part(p), name, v)

    def typed(i, name):                 # a field of parameter i's type
        def put(p, v):
            param = p.function().params[i]
            param.type = replace(param.type, **{name: v})
        return put

    def field(j, k, name, loc=False):   # a field of instruction k of block j
        def put(p, v):
            instrs = p.function().blocks[j].instrs
            instrs[k] = instrs[k]._replace(
                **{"loc": replace(instrs[k].loc, **{name: v})} if loc
                else {name: v})
        return put

    func = prog.function()
    yield "stage", attr(lambda p: p, "stage")
    for key in prog.globals:
        for name in ("name", "elem_width", "length", "init", "init_kind"):
            yield f"global {key} {name}", attr(lambda p, key=key:
                                               p.globals[key], name)
    for name in ("name", "next_id"):
        yield f"function {name}", attr(Program.function, name)
    for i, param in enumerate(func.params):
        for name in ("name", "type", "secrecy", "default"):
            yield f"parameter {i} {name}", attr(lambda p, i=i:
                                                p.function().params[i], name)
        for name in vars(param.type):
            yield f"parameter {i} type {name}", typed(i, name)
    for j, block in enumerate(func.blocks):
        yield f"block {j} label", attr(lambda p, j=j: p.function().blocks[j],
                                       "label")
        for k in range(len(block.instrs)):
            for f in fields(Instruction):
                yield f"instruction {j}.{k} {f.name}", field(j, k, f.name)
            for name in ("file", "line"):
                yield f"instruction {j}.{k} loc {name}", field(j, k, name, True)


def _hang(signum, frame):
    raise TimeoutError("the analysis ran past its alarm")


def corrupted_programs():
    """``(what, prog)``: each field of each part of four programs, set in
    turn to each of a few values, in a mutable copy."""
    values = (None, 1.5, ["x"], -1, True, "zz", 0)
    bases = [load_program(n) for n in ("fig1b_load", "fig1d_ctlookup",
                                       "loop_unswitch_toy")]
    bases.append(freeze(parse_ir(MEMO_BASE)))
    for base in bases:
        for what, put in field_setters(base):
            for value in values:
                prog = copy_program(base)
                put(prog, value)
                yield f"{base.function().name}: {what} = {value!r}", prog


def test_one_corrupted_field_ends_in_ctlab_s_own_error():
    # Freezing and analysing each corrupted program completes or raises
    # one of ctlab's own errors, never a bare Python error, and never hangs.
    ours = (IRError, TraceError, LeakError, LoweringError, InternalPassError)
    spec = PRESETS["baseline-off"].spec
    old = signal.signal(signal.SIGALRM, _hang)
    try:
        for what, prog in corrupted_programs():
            signal.alarm(5)
            try:
                analyze(freeze(prog), spec, inputs=4)
            except ours:
                pass
            except Exception as e:
                pytest.fail(f"{what}: {e!r}")
            finally:
                signal.alarm(0)
    finally:
        signal.signal(signal.SIGALRM, old)


def test_every_corrupted_program_that_freezes_prints_as_text_that_parses_back():
    # What validate lets pass, the text can say: each corrupted program
    # fails to freeze, or prints as text that parses and freezes back to a
    # program that prints the same text.  Among them: a global named apart
    # from its key, a default on a secret parameter, a negative id.
    frozen = 0
    for what, prog in corrupted_programs():
        try:
            text = print_ir(freeze(prog))
        except IRError:
            continue
        frozen += 1
        assert print_ir(freeze(parse_ir(text))) == text, what
    assert frozen > 100


def memo_programs():
    """Mid-end programs to check the pipeline's kept inputs against: every
    corpus program under every preset, the tracer tests' random graphs,
    and every change of ``MEMO_CHANGES``."""
    from test_tracer import random_cfg
    for name in names():
        for p in PRESETS.values():
            yield run_pipeline(load_program(name), p.spec)[0]
    rng = random.Random(7)
    for _ in range(100):
        yield parse_ir(random_cfg(rng))
    for change, _ in MEMO_CHANGES.values():
        prog = parse_ir(MEMO_BASE)
        change(prog)
        yield prog


def test_the_memo_gives_what_a_walk_gives(monkeypatch):
    # The soundness oracle: on a cold memo and a warm one, the pipeline
    # raises what a walk of the program itself says.  Each freeze walks:
    # an invalid program keeps nothing, and a valid one keeps its input,
    # which an equal frozen copy meets.
    walks = count_walks(monkeypatch)
    for prog in memo_programs():
        if prog.stage != "midend":
            continue
        errors = validate(prog)
        thawed = copy_program(prog)
        start_cold()
        walks.clear()
        for same in (thawed, thawed):
            assert pipeline_error(same) == (errors[0] if errors else None)
        assert len(walks) == 2 and len(passes._states) == (not errors)
        if not errors:
            frozen = freeze(thawed)
            assert pipeline_error(frozen) is None
            assert len(walks) == 3 and len(passes._states) == 1


def test_every_write_into_a_frozen_program_raises():
    prog = load_program("rsa_bearssl_lookup")
    func = prog.function()
    block, param = func.blocks[0], func.params[0]
    g = prog.globals["base"]
    text = print_ir(prog)
    writes = [
        lambda: func.blocks.append(block), lambda: func.blocks.pop(),
        lambda: block.instrs.append(block.instrs[0]),
        lambda: block.instrs.__setitem__(0, block.instrs[-1]),
        lambda: block.instrs.clear(), lambda: func.params.append(param),
        lambda: func.params.__delitem__(0),
        lambda: prog.globals.__setitem__("h", g),
        lambda: prog.globals.clear(), lambda: prog.functions.clear(),
        lambda: setattr(prog, "stage", "lowered"),
        lambda: setattr(prog, "globals", {}), lambda: delattr(prog, "stage"),
        lambda: setattr(func, "next_id", 0), func.fresh_id,
        lambda: setattr(func, "blocks", []),
        lambda: setattr(func, "name", "g"),
        lambda: setattr(block, "instrs", []),
        lambda: setattr(block, "label", "x"),
        lambda: setattr(param, "name", "m"),
        lambda: setattr(param, "type", ScalarType(8)),
        lambda: setattr(g, "init", ()), lambda: setattr(g, "length", 0)]
    for write in writes:
        with pytest.raises((AttributeError, TypeError)):
            write()
    assert print_ir(prog) == text
    assert freeze(prog) is prog
    for twin in (copy.deepcopy(prog), pickle.loads(pickle.dumps(prog))):
        assert print_ir(twin) == text and freeze(twin) is twin


def test_editing_a_copy_leaves_the_frozen_program_and_its_memos_alone():
    # validate, execute and lower answer a frozen program from memos kept
    # by its key; a copy edited in every part changes none of them.
    prog = load_program("loop_unswitch_toy")
    args = gen_inputs(prog).arg_dicts()

    def seen():
        low, log = lower(prog, PROFILES["i386"])
        return (print_ir(prog), validate(prog),
                [execute(prog, a) for a in args], print_ir(low), log)

    want = seen()
    copy = copy_program(prog)
    func = copy.function()
    body = func.block("loopB").instrs
    sel = body[4]
    assert sel.opcode == "select"
    body[4] = sel._replace(operands=sel.operands[::-1])
    func.blocks[-1].instrs.pop(0)
    func.params[0].name = "v"
    func.fresh_id()
    copy.globals["y"].init = (7,) * 8
    assert print_ir(copy) != want[0] and validate(copy) != []
    with pytest.raises(IRError) as err:
        freeze(copy)
    assert str(err.value) == validate(copy)[0]
    assert seen() == want
