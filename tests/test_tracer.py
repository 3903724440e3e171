"""Interpreter semantics, leakage events, and input generation."""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter

import pytest

from ctlab import ir, tracer
from ctlab.backend import PROFILES, lower
from ctlab.corpus import load_program, names
from ctlab.ir import (BINARY_OPS, EVAL_OPS, LANE_WIDTH, LANEWISE_OPS,
                      MEMORY_OPS, ArrayType, ScalarType, control_flow,
                      copy_program, evaluate, freeze, parse_ir,
                      predecessors, program_key, validate, value_operands)
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline
from ctlab.tracer import BranchDir, MemAccess, TraceError, execute, gen_inputs
from conftest import count_draws, start_cold


def run(src: str, **args):
    return execute(parse_ir(src), args)


def expr(body: str, **args):
    """Evaluate a tiny single-block function returning `r`."""
    src = f"func f(public a: u32 = 0, public b: u32 = 0) {{\nbb0:\n{body}\n  ret r\n}}"
    return run(src, a=args.get("a", 0), b=args.get("b", 0)).result


def test_arithmetic_wraps_to_width():
    assert expr("  r = add a, 1", a=0xFFFFFFFF) == 0
    assert expr("  r = sub a, 1", a=0) == 0xFFFFFFFF
    assert expr("  r = mul a, a", a=0x10000) == 0
    assert expr("  r = add.8 a, 1", a=255) == 0
    assert expr("  r = neg a", a=1) == 0xFFFFFFFF


def test_shifts_mask_amount_by_width():
    assert expr("  r = shl a, 33", a=1) == 2          # 33 & 31 == 1
    assert expr("  r = lshr a, 32", a=8) == 8         # 32 & 31 == 0
    assert expr("  r = lshr.8 a, 9", a=0x80) == 0x40


def test_icmp_and_select():
    assert expr("  c = icmp.lt a, b\n  r = add c, 0", a=1, b=2) == 1
    assert expr("  c = icmp.ne a, b\n  r = add c, 0", a=3, b=3) == 0
    assert expr("  c = icmp.gt a, b\n  r = select c, 10, 20", a=5, b=1) == 10
    assert expr("  c = icmp.eq a, 0\n  r = select c, 10, 20", a=7) == 20


SELECT_TRACE = """
func f(secret s: u1) {
bb0:
  r = select s, 3, 4
  ret r
}
"""


def test_select_emits_no_events():
    t = run(SELECT_TRACE, s=1)
    assert t.result == 3
    assert t.events == []
    assert run(SELECT_TRACE, s=0).result == 4


def test_cmov_needs_lowered_stage_and_is_silent():
    src = "stage lowered\n" + SELECT_TRACE.replace("select", "cmov")
    t = run(src, s=0)
    assert t.result == 4 and t.events == []


def test_select_rejected_in_lowered_stage():
    # execute takes a validated program; validate is what rejects it.
    assert validate(parse_ir("stage lowered\n" + SELECT_TRACE)) == [
        "f/bb0/id0: select present in lowered program"]


BRANCHY = """
func f(secret s: u1) {
bb0:
  condbr s, bbT, bbF   !loc a.c:1
bbT:
  ret 1
bbF:
  ret 0
}
"""


def test_condbr_records_direction():
    taken = run(BRANCHY, s=1)
    assert taken.events == [BranchDir(instr=0, taken=True)]
    assert taken.result == 1
    untaken = run(BRANCHY, s=0)
    assert untaken.events == [BranchDir(instr=0, taken=False)]


MEMORY = """
func f(secret s: u8) {
bb0:
  v = load table, s
  store scratch, 2, v
  ret v
}
global table: arr<u32,256> = counting
global scratch: arr<u32,4> = zeros
"""


def test_memory_events_and_final_memory():
    t = run(MEMORY, s=9)
    assert t.events == [
        MemAccess(instr=0, kind="load", region="table", offset=9),
        MemAccess(instr=1, kind="store", region="scratch", offset=2),
    ]
    assert t.result == 9
    assert t.memory["scratch"] == (0, 0, 9, 0)
    assert t.memory["table"] == tuple(range(256))


def test_events_are_hashable_value_tuples():
    b = BranchDir(instr=3, taken=True)
    m = MemAccess(instr=3, kind="load", region="table", offset=0)
    assert b == BranchDir(3, True) and hash(b) == hash(BranchDir(3, True))
    assert b != BranchDir(instr=3, taken=False)
    assert (m.instr, m.kind, m.region, m.offset) == (3, "load", "table", 0)
    with pytest.raises(AttributeError):
        b.taken = False
    branches = [BranchDir(i, t) for i in range(2) for t in (False, True)]
    accesses = [MemAccess(i, k, "table", o) for i in range(2)
                for k in ("load", "store") for o in range(2)]
    assert all(x != y and y != x for x in branches for y in accesses)
    assert len(set(branches) | set(accesses)) == len(branches) + len(accesses)

    seen = {tuple(run(MEMORY, s=9).events): "s=9"}
    assert seen[tuple(run(MEMORY, s=9).events)] == "s=9"
    assert tuple(run(MEMORY, s=8).events) not in seen


def test_vector_ops_emit_per_lane_events():
    src = """
func f(secret s: u1) {
bb0:
  v = vload.4 table, 4
  w = splat.4 s
  x = vadd.4 v, w
  vstore.4 out, 0, x
  ret 0
}
global table: arr<u32,16> = counting
global out: arr<u32,4> = zeros
"""
    t = run(src, s=1)
    loads = [e for e in t.events if e.kind == "load"]
    stores = [e for e in t.events if e.kind == "store"]
    assert [e.offset for e in loads] == [4, 5, 6, 7]
    assert [e.offset for e in stores] == [0, 1, 2, 3]
    assert t.memory["out"] == (5, 6, 7, 8)


def test_array_parameters_are_memory_regions():
    src = """
func f(secret m: arr<u8,4>) {
bb0:
  v = load m, 1
  ret v
}
"""
    t = execute(parse_ir(src), {"m": (9, 8, 7, 6)})
    assert t.result == 8
    assert t.events == [MemAccess(instr=0, kind="load", region="m", offset=1)]


def test_out_of_bounds_and_missing_args_raise():
    with pytest.raises(TraceError):
        run(MEMORY.replace("load table, s", "load table, 999"), s=0)
    with pytest.raises(TraceError):
        run(MEMORY)  # no binding for s


def test_branch_to_unknown_block_raises():
    src = """
func f(secret s: u1) {
bb0:
  condbr s, bb1, bbX
bb1:
  ret 0
}
"""
    # execute takes a validated program; validate is what rejects it.
    assert validate(parse_ir(src)) == [
        "f/bb0/id0: unknown target block 'bbX'"]


def test_fuel_limit():
    src = """
func f(secret s: u1) {
bb0:
  br bb0
}
"""
    with pytest.raises(TraceError):
        execute(parse_ir(src), {"s": 0}, fuel=100)


# A loop whose body is longer than a generated chunk: the load after the
# N adds of the body reads t[4] in the fifth iteration, at step
# 1 + 4 * (3 + N + 3) + 3 + N + 1 = 5N + 29.
N_ADDS = tracer._CHUNK + 2
LONG_BODY = "\n".join(f"  p{k} = add i, {k}" for k in range(N_ADDS))
LOAD_OOB = f"""
func f(public n: u32 = 6) {{
bb0:
  br loop
loop:
  i = phi [bb0: 0], [body: i1]
  c = icmp.lt i, n
  condbr c, body, done
body:
{LONG_BODY}
  v = load t, i
  i1 = add i, 1
  br loop
done:
  ret i
}}
global t: arr<u32,4> = counting
"""
VLOAD_OOB = """
func f(public o: u32 = 2) {
bb0:
  a = add o, 1
  w = vload.4 t, OFF
  b = add a, 1
  ret b
}
global t: arr<u32,4> = counting
"""


def outcome(prog, args, fuel):
    try:
        return execute(prog, args, fuel=fuel).steps
    except TraceError as e:
        return str(e)


@pytest.mark.parametrize("src, args, step, error", [
    (LOAD_OOB, {"n": 6}, 5 * N_ADDS + 29,
     f"id {N_ADDS + 4}: t[4] out of bounds (length 4)"),
    # lanes t[2], t[3], t[4], t[5]: the third is the first out of bounds
    (VLOAD_OOB.replace("OFF", "o"), {"o": 2}, 2,
     "id 1: t[4] out of bounds (length 4)"),
    (VLOAD_OOB.replace("OFF", "2"), {"o": 2}, 2,
     "id 1: t[4] out of bounds (length 4)"),
    (VLOAD_OOB.replace("OFF", "o"), {"o": 5}, 2,
     "id 1: t[5] out of bounds (length 4)"),
], ids=["load", "vload-lane-2", "vload-lane-2-imm", "vload-lane-0"])
def test_fuel_and_bounds_errors_switch_at_the_failing_step(src, args, step,
                                                           error):
    # Counting step by step, the access at `step` raises its bounds error
    # only when the fuel reaches it; with less, fuel runs out first.
    prog = parse_ir(src)
    for fuel in range(step + 2):
        want = error if fuel >= step else f"fuel exhausted after {fuel} steps"
        assert outcome(prog, args, fuel) == want, fuel


def test_fuel_bounds_every_step():
    # Four iterations of 3 + N + 3 steps, the entry's and the exit's.
    prog = parse_ir(LOAD_OOB)
    last = 4 * N_ADDS + 29
    assert execute(prog, {"n": 4}).steps == last
    for fuel in range(last + 1):
        want = last if fuel == last else f"fuel exhausted after {fuel} steps"
        assert outcome(prog, {"n": 4}, fuel) == want


# Names that the generated code also uses, or that are not identifiers:
# parameters, values, labels and regions named like its locals, its
# helpers and its chunks.  The m0/a.b phis swap on every iteration, and
# the loop body reads neither, so only a parallel copy swaps them.
NAME_CLASHES = """
func f(secret s: u4, public env: u32 = 3, public fuel: u32 = 2) {
env:
  br M
M:
  x = phi [env: 0], [c1: v0]
  m0 = phi [env: s], [c1: a.b]
  a.b = phi [env: env], [c1: m0]
  E = icmp.lt x, fuel
  condbr E, c1, K3
c1:
  v0 = add x, 1
  _oob = load m0, x
  env.1 = add _oob, x
  store a.b, x, env.1
  br M
K3:
  r = xor m0, a.b
  w = vload.2 m0, 1
  vstore.2 a.b, 2, w
  ret r
}
global m0: arr<u32,4> = [7, 8, 9, 10]
global a.b: arr<u32,4> = zeros
"""


def test_names_cannot_clash_with_generated_code():
    prog = parse_ir(NAME_CLASHES)
    assert validate(prog) == []
    t = execute(prog, {"s": 5, "env": 3, "fuel": 2})
    load, store = (lambda i, o: MemAccess(i, "load", "m0", o),
                   lambda i, o: MemAccess(i, "store", "a.b", o))
    assert t.events == [
        BranchDir(5, True), load(7, 0), store(9, 0),
        BranchDir(5, True), load(7, 1), store(9, 1),
        BranchDir(5, False), load(12, 1), load(12, 2), store(13, 2),
        store(13, 3)]
    assert (t.result, t.steps) == (6, 30)
    assert t.memory == {"m0": (7, 8, 9, 10), "a.b": (7, 9, 8, 9)}
    assert execute(prog, {"s": 12, "env": 3, "fuel": 2}).result == 15


def corpus_trace_digest(name: str) -> str:
    """sha256 over (events, result, steps, memory) of the program as
    written, after run_pipeline and lowered, under every preset, on the
    16 inputs of seed 0."""
    h = hashlib.sha256()
    source = load_program(name)
    args = gen_inputs(source, seed=0).arg_dicts()
    progs = [source]
    for p in PRESETS.values():
        mid, _ = run_pipeline(source, p.spec)
        low, _ = lower(mid, PROFILES[p.spec.backend], p.spec.cmov_conversion)
        progs += [mid, low]
    for prog in progs:
        for a in args:
            t = execute(prog, a)
            h.update(repr((t.events, t.result, t.steps,
                           list(t.memory.items()))).encode())
    return h.hexdigest()


# Taken with the step-by-step interpreter that the translation replaced.
CORPUS_TRACE_DIGESTS = {
    "fig1a_branch": "d67f040c1c190f5ee26bc5b88f4e5f08126ef2ef8bb7f43198567f93d32b66aa",
    "fig1b_load": "051bffeb1d11fed547c7b3f612562b8d1c4986179e529af62124e7824a1e1bcb",
    "fig1c_ctselect": "974ff5f0107281f9360e258b303b80004e956e9ef69a010a8f5aa66e25da27b5",
    "fig1d_ctlookup": "74d00899d69666647b41330f3bf5bb0db2ef8a1937baaae01860071dbe18addc",
    "rsa_bearssl_lookup": "a870b3c4bb854c3e8ca8d9056f0c225251cafaf4cf07e6cd8068a65e27ebe6a8",
    "ecdsa_bearssl_lookup": "3bb6745b76a060fddb7760c0ae8d43f68720d6401ef0961c8c8658b4b4b743c2",
    "poly_frommsg": "a4e48b1c17134c5e55f6f51657183c10b6728af2bf80f03cc21ee081501521bc",
    "loop_unswitch_toy": "5951298ce698f510f8282546103a5636eabe5eef9ef95f462b8b0d8186eddd8d",
    "jump_threading_toy": "31c06888afd3dd1f44e7c8bf13871a849411c61d6d9add22c88f3196c9a5a4ea",
    "path_splitting_toy": "dd27886f0d0ed5b7cfefca4e8a923f802f6037ef7070949bdf844db2900dfef6",
}


def test_corpus_traces_match_the_step_by_step_interpreter():
    assert sorted(CORPUS_TRACE_DIGESTS) == sorted(names())
    for name, digest in CORPUS_TRACE_DIGESTS.items():
        assert corpus_trace_digest(name) == digest, name


def test_gen_inputs_deterministic_and_distinct():
    prog = parse_ir(SELECT_TRACE)
    a = gen_inputs(prog, count=2, seed=5)
    b = gen_inputs(prog, count=2, seed=5)
    assert a.secret_values == b.secret_values
    assert a.seed == 5
    rows = [tuple(sorted(r.items())) for r in a.secret_values]
    assert len(set(rows)) == len(rows)


def test_gen_inputs_caps_at_secret_domain():
    prog = parse_ir(SELECT_TRACE)           # 1-bit secret: domain size 2
    iset = gen_inputs(prog, count=16, seed=0)
    assert len(iset) == 2
    assert sorted(r["s"] for r in iset.secret_values) == [0, 1]


def test_gen_inputs_publics_take_defaults():
    src = """
func f(secret s: u2, public n: u32 = 7) {
bb0:
  r = add n, s
  ret r
}
"""
    iset = gen_inputs(parse_ir(src), count=4, seed=1)
    assert iset.public_values == {"n": 7}
    args = iset.arg_dicts()
    assert len(args) == 4
    assert all(d["n"] == 7 and 0 <= d["s"] <= 3 for d in args)
    missing = src.replace(" = 7", "")
    with pytest.raises(TraceError):
        gen_inputs(parse_ir(missing))


def test_gen_inputs_array_secret():
    src = """
func f(secret m: arr<u8,2>) {
bb0:
  v = load m, 0
  ret v
}
"""
    iset = gen_inputs(parse_ir(src), count=3, seed=2)
    for row in iset.secret_values:
        m = row["m"]
        assert isinstance(m, tuple) and len(m) == 2
        assert all(0 <= x <= 255 for x in m)


DRAWN = "func f(secret s: TYPE, public n: u32 = 7) {\nbb0:\n  ret n\n}"


@pytest.mark.parametrize("kind, count, rows", [
    ("u8", 4, [237, 137, 1, 207]),
    ("arr<u8,4>", 3, [(237, 137, 1, 207), (150, 7, 184, 22),
                      (122, 114, 204, 127)]),
    # capped at the domain of 4; repeats are drawn again, in first-drawn
    # order (237, 137 and 1 are all 1 in two bits)
    ("u2", 16, [1, 3, 2, 0]),
])
def test_gen_inputs_draws_the_same_rows(kind, count, rows):
    iset = gen_inputs(parse_ir(DRAWN.replace("TYPE", kind)), count=count,
                      seed=3)
    assert iset.secret_values == [{"s": r} for r in rows]
    assert iset.public_values == {"n": 7} and iset.seed == 3


def test_each_call_gets_an_input_set_of_its_own(monkeypatch):
    draws = count_draws(monkeypatch)
    prog = parse_ir(DRAWN.replace("TYPE", "arr<u8,2>"))
    first = gen_inputs(prog, count=4, seed=3)
    want = repr(first)
    assert repr(gen_inputs(prog, count=4, seed=3)) == want
    assert len(draws) == 1
    first.secret_values[0]["s"] = (0, 0)
    first.secret_values.append({"s": (1, 1)})
    first.public_values["n"] = 8
    assert repr(gen_inputs(prog, count=4, seed=3)) == want
    assert len(draws) == 1 and len(tracer._inputs) == 1


def _public(**fields):
    """A change that sets ``fields`` of the public parameter."""
    def change(prog):
        vars(prog.function().params[1]).update(fields)
    return change


@pytest.mark.parametrize("text, change, count, seed", [
    (("s:", "t:"), None, 4, 3),
    (("n:", "m:"), None, 4, 3),
    (("u8", "u16"), None, 4, 3),
    (("u32 = 7", "u16 = 7"), None, 4, 3),
    (None, _public(secrecy="secret"), 4, 3),    # its default unread
    (("= 7", "= 8"), None, 4, 3),
    (None, _public(default=7.0), 4, 3),     # 7.0 == 7, but is no int
    (None, None, 5, 3),
    (None, None, 4, 4),
], ids=["secret-name", "public-name", "secret-width", "public-width",
        "secrecy", "default", "float-default", "count", "seed"])
def test_a_change_to_what_the_draw_reads_gets_its_own_draw(
        text, change, count, seed, monkeypatch):
    base = DRAWN.replace("TYPE", "u8")
    prog = parse_ir(base if text is None else base.replace(*text))
    if change is not None:
        change(prog)
    start_cold()
    want = gen_inputs(prog, count=count, seed=seed)     # a cold draw
    draws = count_draws(monkeypatch)
    gen_inputs(parse_ir(base), count=4, seed=3)
    got = gen_inputs(prog, count=count, seed=seed)
    assert got == want and len(draws) == 2
    assert [type(v) for v in got.public_values.values()] == \
        [type(v) for v in want.public_values.values()]


def test_a_failed_draw_raises_every_time_and_keeps_nothing(monkeypatch):
    draws = count_draws(monkeypatch)
    prog = parse_ir("func f(public n: u32 = 7) {\nbb0:\n  ret n\n}")
    for _ in range(2):
        with pytest.raises(TraceError, match="^f has no secret parameters$"):
            gen_inputs(prog)
    assert len(draws) == 2 and len(tracer._inputs) == 0


# ----------------------------------------------------------------------
# The memo of translations
# ----------------------------------------------------------------------

def lowered(name, preset):
    spec = PRESETS[preset].spec
    mid, _ = run_pipeline(load_program(name), spec)
    return lower(mid, PROFILES[spec.backend], spec.cmov_conversion)[0]


def test_an_analysis_builds_its_translation_key_once(monkeypatch):
    low = lowered("rsa_bearssl_lookup", "llvm18-O3")
    args = gen_inputs(low, count=16, seed=0).arg_dicts()
    fresh = []
    for x in args:                  # each from a translation of its own
        start_cold()
        fresh.append(execute(low, x))
    keys = []
    real = ir.program_key
    monkeypatch.setattr(ir, "program_key",
                        lambda prog: keys.append(prog) or real(prog))
    start_cold()
    copy = freeze(copy_program(low))    # its key is not built yet
    assert [execute(copy, x) for x in args] == fresh
    assert len(keys) == 1 and keys[0] is copy


def test_an_instruction_replaced_between_calls_is_translated_anew(
        monkeypatch):
    prog = parse_ir("func f(secret s: u8) {\nbb0:\n  r = add s, 1\n"
                    "  ret r\n}")
    translated = []
    real = tracer._Translator
    monkeypatch.setattr(tracer, "_Translator",
                        lambda prog: translated.append(prog) or real(prog))
    start_cold()
    assert [execute(prog, {"s": 5}).result for _ in range(2)] == [6, 6]
    assert len(translated) == 1
    instrs = prog.function().blocks[0].instrs
    instrs[0] = instrs[0]._replace(operands=("s", 2))    # the same id
    assert execute(prog, {"s": 5}).result == 7
    assert len(translated) == 2
    assert translated[1].key != translated[0].key


REGIONS = """
func f(secret s: u8, secret m: arr<u8,4>, public k: arr<u8,2>) {
bb0:
  i = and s, 3
  v = load t, i
  store out, i, v
  store m, i, s
  w = load k, 1
  ret w
}
global t: arr<u8,4> = [5, 6, 7, 8]
global out: arr<u8,4> = zeros
"""


def test_a_traces_memory_is_its_own():
    # A trace keeps its run's region lists and builds ``memory`` from them
    # on first read; a global that no store writes is read from its shared
    # initializer.  A later run of the same translation changes neither.
    prog = freeze(parse_ir(REGIONS))
    args = [{"s": s, "m": (1, 2, 3, 4), "k": (9, 0x1FF)} for s in (1, 6)]
    first = execute(prog, args[0])
    second = execute(prog, args[1])
    assert first.memory == reference(prog, args[0])[0][3]
    assert second.memory == reference(prog, args[1])[0][3]
    assert first.memory["out"] == (0, 6, 0, 0)
    assert first.memory["m"] == (1, 1, 3, 4) and first.memory["k"] == (9, 255)
    # Equal by value, as a dataclass was.
    again = [execute(prog, x) for x in args]
    assert again == [first, second] and first != second
    assert repr(tracer.Trace("f", [], None, 0)) == \
        "Trace(function='f', events=[], result=None, steps=0, memory={})"


def test_a_warm_run_reads_nothing_of_the_program(monkeypatch):
    # The translation keeps an argument plan, so a call binds its
    # arguments without the function, and a trace builds its memory dict
    # only when it is read.
    low = lowered("poly_frommsg", "llvm18-O3")
    args = gen_inputs(low, count=16, seed=0).arg_dicts()
    want = [execute(low, x) for x in args]
    calls = []
    real = ir.Program.function
    monkeypatch.setattr(ir.Program, "function",
                        lambda self: calls.append(self) or real(self))
    traces = [execute(low, x) for x in args]
    assert calls == []
    assert all(t._names is not None for t in traces)     # nothing built
    assert traces == want
    assert all(t._names is None for t in traces)


# ----------------------------------------------------------------------
# Events at dynamic offsets
# ----------------------------------------------------------------------

def event_objects(prog):
    """The ``_Events`` of ``prog``'s translation, by instruction id, and
    the namespace that its generated code reads them from."""
    regions, _ = tracer._translate(freeze(prog))
    namespace = regions[0].__globals__
    return {f.__self__.iid: f.__self__ for f in namespace.values()
            if isinstance(getattr(f, "__self__", None), tracer._Events)}, \
        namespace


def event_tables(prog):
    """The events built in each event table of ``prog``'s translation, by
    instruction id: a dict by element offset of the entries filled."""
    return {iid: {o: e for o, e in enumerate(events.table) if e is not None}
            for iid, events in event_objects(prog)[0].items()}


def test_inputs_that_load_at_one_offset_share_its_event():
    prog = parse_ir(MEMORY)
    a, b, c = (execute(prog, {"s": s}) for s in (9, 9, 8))
    assert a.events == b.events and a.events[0] is b.events[0]
    assert c.events[0] == MemAccess(0, "load", "table", 8)
    assert c.events[0] is not a.events[0]
    # The store's offset is a constant: its event is built once, when the
    # function is translated.
    assert a.events[1] is b.events[1] is c.events[1]


def test_an_event_table_holds_only_the_offsets_executed():
    start_cold()
    prog = parse_ir(MEMORY)
    assert event_tables(prog) == {0: {}}
    for s in (200, 3, 200):
        execute(prog, {"s": s})
    table = event_tables(prog)[0]
    assert table == {200: MemAccess(0, "load", "table", 200),
                     3: MemAccess(0, "load", "table", 3)}


DYNAMIC_LANES = """
func f(secret s: u2, public o: u32 = 1) {
bb0:
  v = vload.4 table, s
  w = splat.4 o
  x = vadd.4 v, w
  vstore.4 out, o, x
  ret 0
}
global table: arr<u32,8> = counting
global out: arr<u32,5> = zeros
"""


def test_vector_ops_at_dynamic_offsets_emit_per_lane_events():
    start_cold()
    prog = parse_ir(DYNAMIC_LANES)
    t = execute(prog, {"s": 3, "o": 1})
    assert t.events == [MemAccess(0, "load", "table", o) for o in (3, 4, 5, 6)] \
        + [MemAccess(3, "store", "out", o) for o in (1, 2, 3, 4)]
    assert t.memory["out"] == (0, 4, 5, 6, 7)
    # Lane i of each access is the event of offset + i in the one table of
    # its instruction, shared with every trace that reaches that offset.
    u = execute(prog, {"s": 2, "o": 0})
    assert [e.offset for e in u.events] == [2, 3, 4, 5, 0, 1, 2, 3]
    assert all(x is y for x, y in zip(t.events[:3], u.events[1:4]))
    assert sorted(event_tables(prog)[3]) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("o, step, error", [
    (2, 4, "id 3: out[5] out of bounds (length 5)"),
    (7, 4, "id 3: out[7] out of bounds (length 5)"),
])
def test_bounds_errors_at_dynamic_offsets_name_the_first_bad_lane(o, step,
                                                                  error):
    prog = parse_ir(DYNAMIC_LANES)
    for fuel in range(step + 2):
        want = error if fuel >= step else f"fuel exhausted after {fuel} steps"
        assert outcome(prog, {"s": 0, "o": o}, fuel) == want, fuel
    assert 5 not in event_tables(prog)[3]


class Watched(list):
    """An event table that records every index the generated code reads."""

    def __init__(self, table):
        super().__init__(table)
        self.reads = []

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


# o is -1 for c = 1 once its select takes the negative immediate that a
# program built in Python may hold.
SELECTED_OFFSET = """
func f(secret c: u1) {
bb0:
  o = select c, 1, 2
  v = load t, o
  ret v
}
global t: arr<u32,4> = counting
"""


def selected_offset():
    prog = parse_ir(SELECTED_OFFSET)
    instrs = prog.function().blocks[0].instrs
    instrs[0] = instrs[0]._replace(operands=("c", -1, 2))
    assert validate(prog) == []
    return freeze(prog)


@pytest.mark.parametrize("make, args, iid, error", [
    (selected_offset, {"c": 1}, 1, "id 1: t[-1] out of bounds (length 4)"),
    (lambda: freeze(parse_ir(DYNAMIC_LANES)), {"s": 3, "o": 2}, 3,
     "id 3: out[5] out of bounds (length 5)"),
], ids=["offset-below-zero", "lane-past-the-end"])
def test_an_offset_out_of_bounds_reads_no_event_table(make, args, iid, error):
    # The bounds check runs before the table is indexed, so a negative
    # offset never reads a table from its end, and a lane past the end
    # never indexes past it: both raise the located bounds error.
    start_cold()
    prog = make()
    objects, namespace = event_objects(prog)
    events = objects[iid]
    name = next(k for k, v in namespace.items() if v is events.table)
    watched = namespace[name] = Watched(events.table)
    with pytest.raises(TraceError) as e:
        execute(prog, args)
    assert str(e.value) == error
    assert all(0 <= i < len(watched) for i in watched.reads), watched.reads
    assert events.table == [None] * len(events.table)
    start_cold()                        # drop the watched translation


def test_the_translation_key_tells_every_field_and_block_apart():
    # Changing one field of one instruction, a parameter's width, or
    # moving an instruction to the next block, gives another key, so the
    # function translates anew.
    prog = parse_ir(LOOP_DIAMOND)
    params, blocks = prog.function().params, prog.function().blocks
    base = program_key(prog)
    ins = blocks[1].instrs[2]
    assert ins.opcode == "icmp"
    for field, value in [("iid", 99), ("opcode", "add"), ("result", "c2"),
                         ("operands", ("n", "i")), ("width", 16),
                         ("pred", "le"), ("labels", ("body",))]:
        assert getattr(ins, field) != value
        blocks[1].instrs[2] = ins._replace(**{field: value})
        assert program_key(prog) != base, field
        blocks[1].instrs[2] = ins
    assert program_key(prog) == base
    params[0].type = ScalarType(64)
    assert program_key(prog) != base
    params[0].type = ScalarType(8)
    assert program_key(prog) == base
    blocks[2].instrs.insert(0, blocks[1].instrs.pop())
    assert program_key(prog) != base


# ----------------------------------------------------------------------
# Arguments
# ----------------------------------------------------------------------

ARGS = """
func f(secret s: u8, secret m: arr<u8,2>) {
bb0:
  v = load m, 1
  r = add v, s
  ret r
}
"""


@pytest.mark.parametrize("args, error", [
    ({"s": 1, "m": 5}, "argument 'm': need a tuple of 2 integers"),
    ({"s": 1, "m": (1, 2, 3)}, "argument 'm': need a tuple of 2 integers"),
    ({"s": 1, "m": (1, "2")}, "argument 'm': need a tuple of 2 integers"),
    ({"s": 1, "m": (1, 2.0)}, "argument 'm': need a tuple of 2 integers"),
    ({"s": (1,), "m": (1, 2)}, "argument 's': need an integer"),
    ({"s": "7", "m": (1, 2)}, "argument 's': need an integer"),
    ({"s": 1.9, "m": (1, 2)}, "argument 's': need an integer"),
], ids=["scalar-for-array", "wrong-length", "str-element", "float-element",
        "tuple-for-scalar", "str-scalar", "float-scalar"])
def test_wrong_kind_arguments_raise_trace_error(args, error):
    with pytest.raises(TraceError) as e:
        execute(parse_ir(ARGS), args)
    assert str(e.value) == error


def test_well_formed_arguments_are_masked():
    t = execute(parse_ir(ARGS), {"s": 0x101, "m": [7, 0x1FF]})
    assert t.result == 0xFF + 1 and t.memory["m"] == (7, 0xFF)


def test_a_bool_element_is_an_integer():
    t = execute(parse_ir(ARGS), {"s": 1, "m": (True, False)})
    assert t.memory["m"] == (1, 0) and t.result == 1
    assert [type(x) for x in t.memory["m"]] == [int, int]


# ----------------------------------------------------------------------
# A step-by-step reference, and random control-flow graphs to check the
# translation against it
# ----------------------------------------------------------------------

def reference(prog, args, fuel=tracer.DEFAULT_FUEL, watch=None):
    """Run ``prog``'s function one instruction at a time, as ``execute``
    documents it.  Returns ``(outcome, steps)``: the outcome is
    ``(events, result, steps, memory)`` or the ``TraceError`` message, and
    ``steps`` counts the instructions started, the failing one included.
    ``watch(label, ins, env)``, when given, sees each instruction but a
    phi before it runs, with the values set so far."""
    func = prog.function()
    memory = {g.name: list(g.init) for g in prog.globals.values()}
    elem = {g.name: g.elem_width for g in prog.globals.values()}
    env = {}
    for p in func.params:
        if isinstance(p.type, ArrayType):
            memory[p.name] = [x & mask(p.type.elem_width) for x in args[p.name]]
            elem[p.name] = p.type.elem_width
        else:
            env[p.name] = args[p.name] & mask(p.type.width)
    blocks = {b.label: b for b in func.blocks}
    events, steps, prev, block = [], 0, None, func.blocks[0]

    def v(op):
        return op if isinstance(op, int) else env[op]

    while True:
        env.update([(phi.result, v(phi.operands[phi.labels.index(prev)]))
                    for phi in block.phis()])
        for ins in block.instrs:
            steps += 1
            if steps > fuel:
                return f"fuel exhausted after {fuel} steps", steps
            op, w, ops = ins.opcode, ins.width, ins.operands
            if watch and op != "phi":
                watch(block.label, ins, env)
            if op in MEMORY_OPS:
                name, off = ops[0], v(ops[1])
                cells = memory[name]
                lanes = w if op in ("vload", "vstore") else 1
                kind = "load" if op in ("load", "vload") else "store"
                for i in range(lanes):
                    if not 0 <= off + i < len(cells):
                        return (f"id {ins.iid}: {name}[{off + i}] out of bounds"
                                f" (length {len(cells)})"), steps
                    events.append(MemAccess(ins.iid, kind, name, off + i))
                if op == "load":
                    env[ins.result] = cells[off] & mask(w)
                elif op == "vload":
                    env[ins.result] = tuple(cells[off + i] & mask(LANE_WIDTH)
                                            for i in range(lanes))
                else:
                    x = v(ops[2])
                    for i in range(lanes):
                        cells[off + i] = (x[i] if op == "vstore"
                                          else x) & mask(elem[name])
            elif op in EVAL_OPS:
                env[ins.result] = evaluate(ins, *map(v, ops))
            elif op == "const":
                env[ins.result] = ops[0] & mask(w)
            elif op in ("select", "cmov"):
                env[ins.result] = v(ops[1]) if v(ops[0]) else v(ops[2])
            elif op == "vselect":
                c, a, b = map(v, ops)
                env[ins.result] = tuple(a[i] if c[i] else b[i]
                                        for i in range(w))
            elif op == "splat":
                env[ins.result] = (v(ops[0]) & mask(LANE_WIDTH),) * w
            elif op in LANEWISE_OPS:
                a, b = map(v, ops)
                f = BINARY_OPS[LANEWISE_OPS[op]]
                env[ins.result] = tuple(f(a[i], b[i], LANE_WIDTH)
                                        for i in range(w))
            elif op == "br":
                prev, block = block.label, blocks[ins.labels[0]]
            elif op == "condbr":
                taken = bool(v(ops[0]))
                events.append(BranchDir(ins.iid, taken))
                prev, block = block.label, blocks[ins.labels[not taken]]
            elif op == "ret":
                result = v(ops[0]) if ops else None
                return (events, result, steps,
                        {n: tuple(c) for n, c in memory.items()}), steps


def mask(width):
    return (1 << width) - 1


def observe(prog, args, fuel=tracer.DEFAULT_FUEL):
    """``execute``'s outcome in the shape of ``reference``'s."""
    try:
        t = execute(prog, args, fuel=fuel)
    except TraceError as e:
        return str(e)
    return t.events, t.result, t.steps, t.memory


def random_cfg(rng):
    """IR text of a random function over blocks b0..b{n-1}.

    Arms go anywhere, so loops may be irreducible (some are made so), a
    condbr's two arms may be one block and a join may also be entered from
    outside its ``if``.  Every block counts its visits in ``ctr[0]``; once
    the count reaches the limit, every branch takes its forward arm, so
    every run ends.  A block reads the parameters, its own values and
    those of the blocks that dominate it; a phi's arms come from exactly
    the reachable predecessors, each reading a value that dominates its
    edge.  A secret-indexed load may leave its region, and some blocks are
    longer than a region.  Some chains of single-use values run from a
    load, past a store to the load's region, into a store.

    Values of every width meet ops of every width, so a mask that the
    translation drops or keeps is tested both ways: a u64 parameter feeds
    32-bit ops, shift amounts reach past the width, loads and ``vload``s
    read elements wider and narrower than themselves, stores write values
    wider than their elements.  An access may reuse an offset checked by
    a dominating block or by an earlier access in its own, so a region
    meets offsets checked in only one arm of an ``if``.

    A branch whose arms both go forward may test a compare of two values,
    or of a value and a bound one below, at or one above a region's
    length, instead of the count.  An arm that only that branch enters
    reads the compared values as offsets and through an ``add``, ``shl``
    or ``mul``, so the bounds that the compare proves there leave out
    checks and wraps."""
    n = rng.randint(1, 12)
    limit = rng.randint(0, 12)

    def ahead(i):                   # mostly a near block, for diamonds
        return min(n - 1, i + rng.choice([1, 1, 2, 2, 3, rng.randint(1, n)]))

    flip = [rng.random() < 0.5 for _ in range(n)]
    terms = []                      # per block: () or its arms' targets
    for i in range(n):
        r = rng.random()
        if i == n - 1 or r < 0.08:
            terms.append(())
        elif r < 0.3:
            terms.append((ahead(i),))
        else:                       # the other arm, then the forward one
            terms.append((rng.choice([i + 1, ahead(i), ahead(i),
                                      rng.randrange(n),
                                      max(0, i - rng.randint(0, 2))]),
                          ahead(i)))
    if n > 3 and rng.random() < 0.3:
        # An irreducible loop: j enters both j + 1 and j + 2, which branch
        # to each other.
        j = rng.randrange(n - 3)
        terms[j:j + 3] = [(j + 1, j + 2), (j + 2, ahead(j + 1)),
                          (j + 1, ahead(j + 2))]
    skeleton = parse_ir("func f(secret c: u1) {\n" + "\n".join(
        f"b{i}:\n  " + ("ret 0" if not t else f"br b{t[0]}" if len(t) == 1
                        else f"condbr c, b{t[0]}, b{t[1]}")
        for i, t in enumerate(terms)) + "\n}").function()
    flow = control_flow(skeleton)
    dom = {}                        # each reachable block's dominators
    for l in flow.reachable:
        dom[l] = {l}
        d = l
        while flow.idom(d) is not None:
            d = flow.idom(d)
            dom[l].add(d)
    preds = predecessors(skeleton)
    pools, offsets, phis, bodies = {}, {}, {}, {}
    compared = {}                   # block -> the values its branch compares
    # Dominators first, so that a block extends the values of its own.
    for i in sorted(range(n), key=lambda i: len(dom.get(f"b{i}", ()))):
        up = [int(d[1:]) for d in dom.get(f"b{i}", ()) if d != f"b{i}"]
        idom = max(up, key=lambda d: len(dom[f"b{d}"])) if up else None
        pool = list(pools[idom] if up else ["s", "p", "q"])
        offs = list(offsets[idom] if up else [])
        arms = sorted({p for p in preds[f"b{i}"] if p in dom})
        phis[i] = [] if not (i and arms) else [
            (f"b{i}_phi{k}", arms) for k in range(rng.randint(0, 2))]
        pool += [name for name, _ in phis[i]]
        lines = [f"  b{i}_k = load ctr, 0", f"  b{i}_k1 = add b{i}_k, 1",
                 f"  store ctr, 0, b{i}_k1",
                 f"  b{i}_o = and {rng.choice(pool)}, 7"]
        pool.append(f"b{i}_k")
        offs.append(f"b{i}_o")          # defined with no access of its own
        if up and preds[f"b{i}"] == [f"b{idom}"]:
            for j, x in enumerate(compared.get(idom, ())):
                op = rng.choice(["add", "shl", "mul"]) + ".8"
                lines += [f"  b{i}_y{j} = {op} {x}, {rng.choice([0, 1, 2])}",
                          f"  b{i}_z{j} = load {rng.choice(['tbl', 'a'])}, "
                          f"{x}",
                          f"  store {rng.choice(['out', 'wide'])}, "
                          f"b{i}_y{j}, {x}"]
                pool.append(f"b{i}_z{j}")
                offs += [x, f"b{i}_y{j}"]
        t = terms[i]
        forward = len(t) == 2 and min(t) > i and rng.random() < 0.8
        if forward:
            # A compare of data: either outcome may run, and the bound it
            # proves in each arm is one below, at or one above a length.
            x = rng.choice(offs + offs + pool)
            y = rng.choice([rng.choice(offs + pool),
                            rng.choice([4, 5, 6]) + rng.choice([-1, 0, 1])])
            x, y = (x, y) if rng.random() < 0.7 else (y, x)
            lines.append(f"  b{i}_g = icmp."
                         + rng.choice(["lt", "gt", "eq", "ne"]) + f" {x}, {y}")
            compared[i] = [v for v in (x, y) if isinstance(v, str)]
        elif len(t) == 2:
            # The branch condition, written first: in a long block its
            # compare and the condbr fall in different regions.
            lines.append(f"  b{i}_d = and {rng.choice(pool)}, 1")
            if rng.random() < 0.5:      # branch on a compare directly
                lines += [f"  b{i}_m = add b{i}_k, b{i}_d",
                          f"  b{i}_g = icmp.lt b{i}_m, {limit}"]
            else:
                lines += [f"  b{i}_go = icmp.lt b{i}_k, {limit}",
                          f"  b{i}_g = and b{i}_go, b{i}_d"]
            if rng.random() < 0.3:      # a condition read by others too
                pool.append(f"b{i}_g")
        long = rng.random() < 0.2
        for k in range(rng.randint(tracer._CHUNK + 2, tracer._CHUNK + 12)
                       if long else rng.randint(0, 4)):
            op = rng.choice(
                ["add", "xor", "mul", "lshr", "and", "sub.8", "icmp.lt", "or",
                 "shl", "lshr.8", "and.16", "or.8", "xor.64", "lshr.64",
                 "add.8", "mul.16", "const", "const.8", "select"]
                + ["load", "store", "vector", "chain"] * 3 * (not long))
            a, b = rng.choice(pool), rng.choice(pool)
            if rng.random() < 0.25:     # an immediate, some too wide
                b = rng.choice([0, 1, 7, 8, 31, 32, 33, 63, 64, 65, 255,
                                1 << 40])
            name = f"b{i}_x{k}"
            if op in ("load", "store", "vector", "chain"):
                if offs and rng.random() < 0.6:
                    off = rng.choice(offs)
                else:
                    off = f"{name}i"
                    lines.append(f"  {off} = and {a}, 7")
                    offs.append(off)
            if op == "load":
                lines.append(f"  {name} = " + rng.choice(
                    ["load", "load.8", "load.16", "load.64"]) + " "
                    + rng.choice(["tbl", "a", "wide"]) + f", {off}")
                pool.append(name)
            elif op == "store":
                region = rng.choice(["out", "wide", "a"])
                lines.append(f"  store {region}, {off}, {b}")
            elif op == "vector":
                src_, dst = (rng.choice(["tbl", "a", "wide"]),
                             rng.choice(["out", "wide"]))
                lines += [f"  {name}v = vload.2 {src_}, {off}",
                          f"  {name}s = splat.2 {b}",
                          f"  {name}w = " + rng.choice(["vxor", "vor", "vand",
                                                        "vadd"])
                          + f".2 {name}v, {name}s",
                          f"  vstore.2 {dst}, {off}, {name}w"]
            elif op == "chain":
                # A single-use chain from a load to a store that ends after
                # a store to the load's region: the load is read before it.
                region = rng.choice(["a", "wide"])
                chain = [f"  {name}l = load {region}, {off}",
                         f"  {name}u = {rng.choice(['add', 'xor'])} "
                         f"{name}l, {a}", f"  store out, {off}, {name}u"]
                chain.insert(rng.choice([1, 2]),
                             f"  store {region}, {rng.choice(offs)}, {b}")
                lines += chain
            elif op.startswith("const"):
                imm = rng.choice([5, 300, 1 << 40])
                lines.append(f"  {name} = {op} {imm}")
                pool.append(name)
            elif op == "select":
                lines.append(f"  {name} = select {rng.choice(pool)}, {a}, {b}")
                pool.append(name)
            else:
                lines.append(f"  {name} = {op} {a}, {b}")
                pool.append(name)
        if not t:
            lines.append(f"  ret {rng.choice(pool)}")
        elif len(t) == 1:
            lines.append(f"  br b{t[0]}")
        else:
            if flip[i] and not forward:
                lines += [f"  b{i}_ng = xor b{i}_g, 1",
                          f"  condbr b{i}_ng, b{t[1]}, b{t[0]}"]
            else:
                lines.append(f"  condbr b{i}_g, b{t[0]}, b{t[1]}")
        pools[i], offsets[i], bodies[i] = pool, offs, lines
    blocks = []
    for i in range(n):
        heads = [f"  {name} = phi " + ", ".join(
                     f"[{a}: {rng.choice(pools[int(a[1:])] + [rng.randrange(9)])}]"
                     for a in arms) for name, arms in phis[i]]
        blocks.append(f"b{i}:\n" + "\n".join(heads + bodies[i]))
    return ("func f(secret s: u8, secret a: arr<u8,5>, secret q: u64, "
            f"public p: u32 = {rng.randrange(1 << 32)}) {{\n"
            + "\n".join(blocks) + "\n}\n"
            "global ctr: arr<u32,1> = zeros\n"
            "global tbl: arr<u32,6> = counting\n"
            "global out: arr<u16,4> = zeros\n"
            "global wide: arr<u64,6> = [" + ", ".join(
                str(rng.randrange(1 << 64)) for _ in range(6)) + "]\n")


def test_random_cfgs_match_the_reference():
    rng = random.Random(7)
    for case in range(200):
        src = random_cfg(rng)
        prog = parse_ir(src)
        assert validate(prog) == [], src
        args = {"s": rng.randrange(256), "p": prog.function().param("p").default,
                "a": tuple(rng.randrange(256) for _ in range(5)),
                "q": rng.randrange(1 << 64)}
        _, steps = reference(prog, args)
        fuels = {0, rng.randint(0, steps), steps - 1, steps}
        for fuel in sorted(f for f in fuels if f >= 0):
            want = reference(prog, args, fuel)[0]
            assert observe(prog, args, fuel) == want, (case, fuel, src)


def bounds_hold(prog, args):
    """Run ``prog`` by the reference, asserting that every value an
    instruction reads is within the bound that translation gives it in the
    reader's block: at most the bound, and not negative when the bound is
    at most 64 bits."""
    t = tracer._Translator(prog)

    def watch(label, ins, env):
        t.scope = t.facts[label]
        for op in value_operands(ins):
            if isinstance(op, str) and op in env:
                bound = t.bound(op)
                lanes = env[op] if isinstance(env[op], tuple) else (env[op],)
                assert all((0 <= x or bound > mask(64)) and x <= bound
                           for x in lanes), (ins, op, env[op], bound)

    return reference(prog, args, watch=watch)


def test_every_value_stays_within_its_bound():
    # The bounds themselves, checked where each value is read, over the
    # random graphs and the corpus as written and lowered.
    rng = random.Random(11)
    for case in range(150):
        prog = parse_ir(random_cfg(rng))
        p = prog.function().param("p").default
        for _ in range(3):
            bounds_hold(prog, {"s": rng.randrange(256), "p": p,
                               "q": rng.randrange(1 << 64),
                               "a": tuple(rng.randrange(256)
                                          for _ in range(5))})
    for name in names():
        source = load_program(name)
        inputs = gen_inputs(source, count=2, seed=5).arg_dicts()
        for prog in [source] + [lowered(name, preset) for preset in PRESETS]:
            for args in inputs:
                bounds_hold(prog, args)


def test_corpus_matches_the_reference():
    # Every corpus program as written and lowered under every preset: the
    # corpus holds the vector ops, cmovs and long blocks the random graphs
    # lack.
    for name in names():
        source = load_program(name)
        progs = [source]
        for p in PRESETS.values():
            mid, _ = run_pipeline(source, p.spec)
            progs.append(lower(mid, PROFILES[p.spec.backend],
                               p.spec.cmov_conversion)[0])
        for args in gen_inputs(source, count=2, seed=3).arg_dicts():
            for prog in progs:
                assert observe(prog, args) == reference(prog, args)[0], name


# ----------------------------------------------------------------------
# The regions' structure
# ----------------------------------------------------------------------

# A counted loop whose body holds a secret diamond with arms of 3 and 1
# instructions; t[i] is out of bounds from i = 4 on.
LOOP_DIAMOND = """
func f(secret s: u8, public n: u32 = 4) {
bb0:
  br loop
loop:
  i = phi [bb0: 0], [join: i1]
  acc = phi [bb0: 0], [join: acc1]
  c = icmp.lt i, n
  condbr c, body, done
body:
  b = lshr s, i
  bit = and b, 1
  condbr bit, long, short
long:
  x = add acc, 3
  y = mul x, 5
  br join
short:
  br join
join:
  v = phi [long: y], [short: acc]
  w = load t, i
  acc1 = add v, w
  i1 = add i, 1
  br loop
done:
  ret acc
}
global t: arr<u32,4> = counting
"""


def regions_and_calls(monkeypatch, prog, args):
    """The number of generated functions in ``prog``'s translation, and
    how many calls to them ``execute`` makes on ``args``."""
    calls = []
    real = tracer._translate

    def counted(prog):
        regions, plan = real(prog)
        return tuple((lambda r: lambda *a: calls.append(r) or r(*a))(r)
                     for r in regions), plan

    monkeypatch.setattr(tracer, "_translate", counted)
    execute(prog, args)
    return len(real(freeze(prog))[0]), len(calls)


def test_a_loop_with_a_diamond_is_one_generated_function(monkeypatch):
    # The entry block nests the loop as a ``while True:``: its body, both
    # arms, the join and the exit all sit under the loop header.
    prog, args = parse_ir(LOOP_DIAMOND), {"s": 5, "n": 4}
    assert regions_and_calls(monkeypatch, prog, args) == (1, 1)
    assert observe(prog, args) == reference(prog, args)[0]


def test_fuel_bounds_every_step_through_a_diamond():
    # Each iteration takes 4 + 3 + 5 steps and 3 or 1 in the arm, and s = 5
    # takes the long arm at i = 0 and 2; with n = 6, t[4] is read at step
    # 1 + 56 + 4 + 3 + 1 + 2 = 67.
    prog = parse_ir(LOOP_DIAMOND)
    ok = {"s": 5, "n": 4}
    assert execute(prog, ok).steps == 1 + 15 + 13 + 15 + 13 + 4 + 1 == 62
    oob = {"s": 5, "n": 6}
    assert reference(prog, oob)[1] == 67
    for args, last in ((ok, 62), (oob, 67)):
        for fuel in range(last + 2):
            assert observe(prog, args, fuel) == \
                reference(prog, args, fuel)[0], (args, fuel)
    assert observe(prog, oob, 67) == "id 13: t[4] out of bounds (length 4)"
    assert observe(prog, oob, 66) == "fuel exhausted after 66 steps"


def nested_conditionals(depth):
    """``if s > 0 { if s > 1 { ... } }`` to ``depth`` levels: the result
    is min(s, depth), each level's join picking its own depth."""
    lines = ["func f(secret s: u32) {"]
    for i in range(depth):
        lines += [f"b{i}:", f"  c{i} = icmp.gt s, {i}",
                  f"  condbr c{i}, b{i + 1}, j{i}"]
    lines += [f"b{depth}:", f"  br j{depth - 1}"]
    for i in reversed(range(depth)):
        inner, r = ((f"b{depth}", depth) if i == depth - 1
                    else (f"j{i + 1}", f"r{i + 1}"))
        lines += [f"j{i}:", f"  r{i} = phi [b{i}: {i}], [{inner}: {r}]",
                  f"  br j{i - 1}" if i else "  ret r0"]
    return parse_ir("\n".join(lines + ["}"]))


def test_a_400_deep_chain_of_conditionals():
    prog = nested_conditionals(400)
    for s in (0, 7, 399, 400, 1000):
        t = execute(prog, {"s": s})
        level = min(s, 400)
        assert t.result == level
        assert t.steps == (4 * (s + 1) if s < 400 else 4 * 400 + 1)
        assert t.events == [BranchDir(2 * i + 1, i < s)
                            for i in range(level + (s < 400))]
    assert observe(prog, {"s": 7}) == reference(prog, {"s": 7})[0]


# ----------------------------------------------------------------------
# Loop nests
# ----------------------------------------------------------------------

# Two counted loops, one in the other, that read t[i * m + j] for i < n
# and j < m; t holds 12 cells, so n * m > 12 leaves it.
NEST = """
func f(secret s: u8, public n: u32 = 3, public m: u32 = 4) {
bb0:
  br outer
outer:
  i = phi [bb0: 0], [latch: i1]
  acc = phi [bb0: 0], [latch: a]
  c = icmp.lt i, n
  condbr c, pre, done
pre:
  base = mul i, m
  br inner
inner:
  j = phi [pre: 0], [body: j1]
  a = phi [pre: acc], [body: a1]
  d = icmp.lt j, m
  condbr d, body, latch
body:
  o = add base, j
  w = load t, o
  x = xor w, s
  a1 = add a, x
  j1 = add j, 1
  br inner
latch:
  i1 = add i, 1
  br outer
done:
  ret acc
}
global t: arr<u32,12> = counting
"""


def test_a_loop_nest_is_one_generated_function(monkeypatch):
    # The inner loop is a ``while True:`` in the outer one, which is one
    # in the entry's region: one call per run, where a region per loop
    # head took 3 functions and a call per loop entry.
    prog = parse_ir(NEST)
    assert regions_and_calls(monkeypatch, prog,
                             {"s": 9, "n": 3, "m": 4}) == (1, 1)
    poly = lowered("poly_frommsg", "baseline-off")      # 3 and 66 before
    args = gen_inputs(poly, count=1, seed=0).arg_dicts()[0]
    assert regions_and_calls(monkeypatch, poly, args) == (1, 1)
    assert observe(poly, args) == reference(poly, args)[0]


@pytest.mark.parametrize("n, m", [(3, 4), (4, 4), (2, 7), (0, 4), (3, 0)])
def test_a_loop_nest_counts_steps_and_fuel_exactly(n, m):
    # (4, 4) and (2, 7) read t[12] in the inner loop.  Each outer iteration
    # leaves the inner loop by a break, whose tail checks the fuel.
    prog = parse_ir(NEST)
    for s in (0, 0x5A):
        matches_the_reference_at_every_fuel(prog, {"s": s, "n": n, "m": m})
    assert observe(prog, {"s": 0, "n": 4, "m": 4}) == \
        "id 12: t[12] out of bounds (length 12)"


def test_fuel_ends_an_outer_loop_that_goes_round_by_breaks():
    # With m = 0 the inner loop ends at once, so the outer loop goes round
    # only by the break out of it, 2**32 - 1 times: the fuel check after
    # the inner ``while`` is all that ends the run early.
    prog = parse_ir(NEST)
    args = {"s": 0, "n": 2 ** 32 - 1, "m": 0}
    for fuel in range(60):
        assert observe(prog, args, fuel) == reference(prog, args, fuel)[0]


# NEST with an inner body longer than a region, and t of 2 cells.
LONG_INNER_BODY = NEST.replace("  o = add base, j",
                               LONG_BODY + "\n  o = add base, j") \
    .replace("arr<u32,12>", "arr<u32,2>")


# The inner loop's body branches on two bits of s to one of two blocks,
# `both` and `z`, that the arms of both branches enter: `both` is the
# join, so `z`, the latch, is neither nested nor a join.
UNNESTED_LATCH = """
func f(secret s: u8, public n: u32 = 2, public m: u32 = 3) {
bb0:
  br outer
outer:
  i = phi [bb0: 0], [latch: i1]
  c = icmp.lt i, n
  condbr c, pre, done
pre:
  br inner
inner:
  j = phi [pre: 0], [z: j1]
  d = icmp.lt j, m
  condbr d, body, latch
body:
  x = lshr s, j
  b = and x, 1
  condbr b, p, q
p:
  b2 = and x, 2
  condbr b2, both, z
q:
  b3 = and x, 4
  condbr b3, both, z
both:
  w = load t, j
  br z
z:
  j1 = add j, 1
  br inner
latch:
  i1 = add i, 1
  br outer
done:
  ret i
}
global t: arr<u32,3> = counting
"""

# The outer loop's body enters x or y, which branch to each other while
# their count is below m: a loop with two ways in and no head.
IRREDUCIBLE_INNER = """
func f(secret s: u8, public n: u32 = 2, public m: u32 = 3) {
bb0:
  br outer
outer:
  i = phi [bb0: 0], [latch: i1]
  c = icmp.lt i, n
  condbr c, pre, done
pre:
  g = lshr s, i
  h = and g, 1
  condbr h, x, y
x:
  k = phi [pre: 0], [y: ky]
  kx = add k, 1
  w = load t, kx
  ex = icmp.lt kx, m
  condbr ex, y, latch
y:
  k2 = phi [pre: 0], [x: kx]
  ky = add k2, 1
  ey = icmp.lt ky, m
  condbr ey, x, latch
latch:
  i1 = add i, 1
  br outer
done:
  ret i
}
global t: arr<u32,4> = counting
"""


def loop_nest(depth):
    """``depth`` counted loops, each the whole body of the one around it;
    loop k runs while its counter is below n, the innermost while below
    m, and the innermost body reads t at its counter."""
    last = depth - 1
    lines = ["func f(secret s: u8, public n: u32 = 1, public m: u32 = 3) {",
             "bb0:", "  br h0"]
    for k in range(depth):
        lines += [f"h{k}:",
                  f"  i{k} = phi [{f'h{k - 1}' if k else 'bb0'}: 0], "
                  f"[l{k}: j{k}]",
                  f"  c{k} = icmp.lt i{k}, {'m' if k == last else 'n'}",
                  f"  condbr c{k}, {f'h{k + 1}' if k < last else 'body'}, "
                  f"{f'l{k - 1}' if k else 'done'}",
                  f"l{k}:", f"  j{k} = add i{k}, 1", f"  br h{k}"]
    lines += ["body:", f"  x = load t, i{last}", "  y = xor x, s",
              f"  store t, i{last}, y", f"  br l{last}",
              "done:", "  ret i0", "}", "global t: arr<u32,3> = counting"]
    return parse_ir("\n".join(lines))


def deep_levels(loops, ifs):
    """``loops`` one-block loops, each branching back to itself while its
    own secret bit c{k} is set, one in the other: between two loops,
    ``ifs`` branches on the secret bit b nest the next loop under their
    taken arms, and each other arm returns.  Each loop costs two levels of
    indentation, its ``while`` and its ``if``, for one instruction."""
    params = ", ".join(f"secret c{k}: u1" for k in range(loops))
    lines = [f"func f(secret b: u1, {params}) {{", "bb0:", "  br h0"]
    for k in range(loops):
        after = [f"a{k}_{f}" for f in range(ifs)] + \
            [f"h{k + 1}" if k < loops - 1 else "fin"]
        lines += [f"h{k}:", f"  condbr c{k}, h{k}, {after[0]}"]
        for f in range(ifs):
            lines += [f"{after[f]}:", f"  condbr b, {after[f + 1]}, done"]
    lines += ["fin:", "  ret 1", "done:", "  ret 0", "}"]
    return parse_ir("\n".join(lines))


def test_an_inner_loop_longer_than_a_region_matches_the_reference():
    prog = parse_ir(LONG_INNER_BODY)
    for n, m in ((2, 1), (1, 3)):           # (1, 3) reads t[2]
        matches_the_reference_at_every_fuel(prog, {"s": 7, "n": n, "m": m})


def test_an_inner_loop_with_an_unnested_latch_matches_the_reference():
    prog = parse_ir(UNNESTED_LATCH)
    for s in (0, 0b011, 0b101, 0b110, 0xFF):
        for m in (3, 4):                    # m = 4 reads t[3]
            matches_the_reference_at_every_fuel(prog, {"s": s, "n": 2,
                                                       "m": m})


def test_an_irreducible_inner_loop_matches_the_reference():
    prog = parse_ir(IRREDUCIBLE_INNER)
    for s in (0, 1, 2, 3):
        for m in (3, 5):                    # m = 5 reads t[4]
            matches_the_reference_at_every_fuel(prog, {"s": s, "n": 2,
                                                       "m": m})


@pytest.mark.parametrize("depth, counted, one_block", [
    (3, 1, 1), (19, 3, 1), (20, 4, 2), (25, 9, 2)])
def test_a_deep_loop_nest_matches_the_reference(depth, counted, one_block):
    # A counted loop takes 5 instructions, so a region has room for the
    # innermost 17 and each loop around them heads a region.  A
    # one-block loop takes 1, and CPython refuses a 21st statically
    # nested loop: past 19 loops nested in a region (and its own
    # ``while``), a loop heads a region of its own.
    prog = loop_nest(depth)
    assert len(tracer._translate(freeze(prog))[0]) == counted
    for m in (3, 4):                        # m = 4 reads t[3]
        matches_the_reference_at_every_fuel(prog, {"s": 5, "n": 1, "m": m})
    prog = deep_levels(depth, 0)
    assert len(tracer._translate(freeze(prog))[0]) == one_block
    args = {"b": 0, **{f"c{k}": 0 for k in range(depth)}}
    matches_the_reference_at_every_fuel(prog, args)
    for k in (0, depth - 1):                # a loop that never ends
        spin = {**args, f"c{k}": 1}
        for fuel in range(2 * depth + 9):
            assert observe(prog, spin, fuel) == \
                reference(prog, spin, fuel)[0], (k, fuel)


def test_a_nest_deeper_than_100_levels_matches_the_reference(monkeypatch):
    # 10 loops with 9 branches between each two, at 11 levels and 10
    # instructions a loop: loop k's head sits at level 3 + 11k.  Loop 8's
    # last branches would pass CPython's 100 levels of indentation, so the
    # block each enters, which nothing else enters, follows its ``if`` as
    # a join; loop 9's head, two of whose edges enter it, heads a region.
    prog = deep_levels(10, 9)
    source = translated_source(monkeypatch, prog)
    assert max(len(line) - len(line.lstrip()) for line in source) <= 4 * 99
    assert len(tracer._translate(freeze(prog))[0]) == 3
    args = {"b": 1, **{f"c{k}": 0 for k in range(10)}}
    for b in (0, 1):
        matches_the_reference_at_every_fuel(prog, {**args, "b": b})
    # A loop that never ends: fuel runs out on its branch back.
    for k in (0, 8, 9):
        spin = {**args, f"c{k}": 1}
        for fuel in range(150):
            assert observe(prog, spin, fuel) == \
                reference(prog, spin, fuel)[0], (k, fuel)


def random_nest(rng):
    """IR text of a random function of counted loop nests.

    A body is a few statements, each one of: straight-line ops, with loads
    at an offset that may leave ``tbl`` and stores; an if/else on a value
    whose arms are bodies and whose join picks a value from each arm; a
    loop of 1-3 trips (or n) whose body is a body, so loops nest and
    follow one another, and which may start with a select on a compare
    made before the loop; and, in a loop, a branch whose taken arm leaves
    the loop's body: back to the head of the loop, or of the loop one or
    two out, with that loop's counter stepped, to the block after the
    loop or after the one around it, or out of the function.  Every
    branch back to a head steps its counter, so every run ends."""
    blocks: dict[str, list[str]] = {}
    count = iter(range(1 << 30))

    def fresh(prefix):
        return f"{prefix}{next(count)}"

    def start(label):
        blocks[label] = []
        return label

    def cond(label, pool):
        g = fresh("g")
        blocks[label].append(f"  {g} = " + rng.choice(
            [f"and {rng.choice(pool)}, 1",
             f"icmp.lt {rng.choice(pool)}, {rng.choice(pool + [2, 9])}"]))
        return g

    def straight(label, pool):
        for _ in range(rng.randint(1, 3)):
            a, v = rng.choice(pool), fresh("v")
            op = rng.choice(["add", "xor", "mul", "lshr", "load", "store"])
            if op in ("load", "store"):
                o = fresh("o")
                blocks[label].append(f"  {o} = and {a}, "
                                     f"{rng.choice([3, 7])}")
                blocks[label].append(f"  {v} = load tbl, {o}" if op == "load"
                                     else f"  store tbl, {o}, "
                                          f"{rng.choice(pool)}")
                pool = pool + [v] * (op == "load")
            else:
                blocks[label].append(
                    f"  {v} = {op} {a}, {rng.choice(pool + [1, 3])}")
                pool = pool + [v]
        return label, pool

    def diamond(label, pool, loops, depth):
        g = cond(label, pool)
        then, other, join = fresh("t"), fresh("e"), fresh("j")
        blocks[label].append(f"  condbr {g}, {then}, {other}")
        ends = [body(start(arm), pool, loops, depth + 1)
                for arm in (then, other)]
        start(join)
        v = fresh("v")
        blocks[join].append(f"  {v} = phi " + ", ".join(
            f"[{end}: {rng.choice(p)}]" for end, p in ends))
        for end, _ in ends:
            blocks[end].append(f"  br {join}")
        return join, pool + [v]

    def loop(label, pool, loops, depth):
        head, first, after = fresh("h"), fresh("b"), fresh("x")
        here = {"head": head, "i": fresh("i"), "acc": fresh("acc"),
                "after": after, "into": [(label, 0, rng.choice(pool))]}
        i, acc = here["i"], here["acc"]
        inside = pool + [i, acc]
        start(head)
        start(first)
        if rng.random() < 0.5:
            # A compare before the loop that only a select in it tests.
            k, v = fresh("k"), fresh("v")
            blocks[label].append(f"  {k} = icmp.lt {rng.choice(pool)}, "
                                 f"{rng.choice(pool + [5])}")
            blocks[first].append(f"  {v} = select {k}, {rng.choice(inside)}"
                                 f", {rng.choice(inside)}")
            inside.append(v)
        blocks[label].append(f"  br {head}")
        end, p = body(first, inside, loops + [here], depth + 1)
        step = fresh("i")
        blocks[end] += [f"  {step} = add {i}, 1", f"  br {head}"]
        here["into"].append((end, step, rng.choice(p)))
        blocks[head] += [
            f"  {i} = phi " + ", ".join(f"[{e}: {v}]"
                                        for e, v, _ in here["into"]),
            f"  {acc} = phi " + ", ".join(f"[{e}: {a}]"
                                          for e, _, a in here["into"]),
            f"  {head}c = icmp.lt {i}, {rng.choice([1, 2, 3, 'n'])}",
            f"  condbr {head}c, {first}, {after}"]
        start(after)
        return after, pool + [i, acc]

    def leave(label, pool, loops):
        g = cond(label, pool)
        out, on = fresh("y"), fresh("n")
        blocks[label].append(f"  condbr {g}, {out}, {on}")
        start(out)
        where = rng.choice(["back", "back", "after", "ret"]
                           + ["break", "break", "after2"] * (len(loops) > 1)
                           + ["out2"] * (len(loops) > 2))
        if where == "ret":
            blocks[out].append(f"  ret {rng.choice(pool)}")
        elif where.startswith("after"):
            target = loops[-1 - (where == "after2")]["after"]
            blocks[out].append(f"  br {target}")
        else:
            to = loops[-1 - {"back": 0, "break": 1, "out2": 2}[where]]
            step = fresh("i")
            blocks[out] += [f"  {step} = add {to['i']}, 1",
                            f"  br {to['head']}"]
            to["into"].append((out, step, rng.choice(pool)))
        start(on)
        return on, pool

    def body(label, pool, loops, depth):
        for _ in range(rng.randint(1, 2)):
            kinds = ["straight"] + ["diamond"] * (depth < 3) \
                + ["loop", "loop"] * (len(loops) < 3) \
                + ["leave", "leave"] * bool(loops)
            kind = rng.choice(kinds)
            if kind == "straight":
                label, pool = straight(label, pool)
            elif kind == "diamond":
                label, pool = diamond(label, pool, loops, depth)
            elif kind == "loop":
                label, pool = loop(label, pool, loops, depth)
            else:
                label, pool = leave(label, pool, loops)
        return label, pool

    end, pool = body(start("bb0"), ["s", "q", "n"], [], 0)
    blocks[end].append(f"  ret {rng.choice(pool)}")
    return ("func f(secret s: u8, secret q: u32, public n: u32 = 2) {\n"
            + "\n".join(f"{label}:\n" + "\n".join(lines)
                        for label, lines in blocks.items())
            + "\n}\nglobal tbl: arr<u32,7> = counting\n")


def test_random_loop_nests_match_the_reference():
    rng = random.Random(29)
    kinds = Counter()
    for case in range(150):
        src = random_nest(rng)
        prog = parse_ir(src)
        assert validate(prog) == [], src
        plan = tracer._Translator(freeze(prog))
        plan.plan()
        kinds.update(plan.kind.values())
        args = {"s": rng.randrange(256), "q": rng.randrange(1 << 32), "n": 2}
        _, steps = reference(prog, args)
        fuels = {0, rng.randint(0, steps), steps // 2, steps - 1, steps}
        for fuel in sorted(f for f in fuels if f >= 0):
            want = reference(prog, args, fuel)[0]
            assert observe(prog, args, fuel) == want, (case, fuel, src)
    # 257 breaks out of 525 nested loops; a planner that stops nesting
    # loops fails here.
    assert kinds["break"] >= 150 and kinds["loop"] >= 300, kinds


# ----------------------------------------------------------------------
# What translation leaves out
# ----------------------------------------------------------------------

# Two u8 loads at one offset, or'ed together, and a branch on a compare
# that nothing else reads.  i is out of bounds for s & 7 >= 4.
TWO_LOADS = """
func f(secret s: u8, secret m: arr<u8,4>) {
bb0:
  i = and s, 7
  x = load m, i
  y = load m, i
  r = or x, y
  c = icmp.lt r, 9
  condbr c, small, big
small:
  ret r
big:
  ret 9
}
"""


def translated_source(monkeypatch, prog):
    """The source that ``execute`` compiles for ``prog``."""
    start_cold()
    lines = []
    real = tracer._Translator.compile
    monkeypatch.setattr(tracer._Translator, "compile",
                        lambda self, batch: lines.extend(batch)
                        or real(self, batch))
    execute(prog, {p.name: 0 if isinstance(p.type, ScalarType)
                   else (0,) * p.type.length for p in prog.function().params})
    return lines


def test_fitting_operands_and_a_checked_offset_need_no_second_look(
        monkeypatch):
    prog = parse_ir(TWO_LOADS)
    source = translated_source(monkeypatch, prog)
    # The loads of u8 cells and the `or` of the two carry no mask, and the
    # first load's bounds check covers the second.
    ors = [line for line in source if "|" in line]
    assert len(ors) == 1 and "&" not in ors[0], source
    assert not [line for line in source if "= m" in line and "&" in line]
    assert len([line for line in source if "if not 0 <=" in line]) == 1
    # The branch tests the compare itself.
    assert any(line.strip().startswith("if") and " < 9:" in line
               for line in source), source
    for s in (3, 6, 0x85):
        matches_the_reference_at_every_fuel(prog, {"s": s,
                                                   "m": (1, 8, 0xFF, 4)})


def test_a_compare_only_a_select_or_cmov_tests_is_never_built(monkeypatch):
    # path_splitting_toy's loop picks its step with a select on a compare;
    # baseline-off lowers the select to a cmov.
    source = load_program("path_splitting_toy")
    for prog in (source, lowered("path_splitting_toy", "baseline-off")):
        lines = translated_source(monkeypatch, prog)
        assert not [line for line in lines if line.endswith(" else 0")], lines
        # The select sits in the sum, its one reader.
        assert [line for line in lines if re.search(
            r"= \(v\d+ \+ \(1 if .+ == 0 else 4294967295\)\) & ", line)]
        for args in gen_inputs(source, count=8, seed=1).arg_dicts():
            assert observe(prog, args) == reference(prog, args)[0], args


def assignments(lines):
    """The lines of translated source that assign a value its own local."""
    return [line for line in lines if re.match(r"\s*v\d+ = ", line)]


def test_single_use_values_are_written_into_their_readers(monkeypatch):
    # Translating every corpus program under every preset wrote 4,238
    # value assignments when every value had its own; the gate pins what
    # writing each single-use value into its reader leaves.
    lines = []
    real = tracer._Translator.compile
    monkeypatch.setattr(tracer._Translator, "compile",
                        lambda self, batch: lines.extend(batch)
                        or real(self, batch))
    for name in names():
        for preset in PRESETS:
            tracer._Translator(lowered(name, preset)).translate()
    assert len(assignments(lines)) <= 2362


# u reads the load w and is the value of the store to a, after the store to
# l that w's load must come before; y reads x, which no store follows.
LOAD_STORE = """
func f(secret s: u8, public k: u8 = 2) {
bb0:
  v = add s, 1
  w = load l, 0
  u = add w, k
  store l, 0, v
  store a, 0, u
  x = load l, 0
  y = add x, k
  store a, 1, y
  ret 0
}
global l: arr<u8,1> = [7]
global a: arr<u8,2> = zeros
"""


def test_a_load_is_read_before_a_store_to_its_region(monkeypatch):
    prog = parse_ir(LOAD_STORE)
    lines = translated_source(monkeypatch, prog)
    # w is read into a local before the store to l; x is read in the
    # store to a, and v in the store to l.
    assert [line.strip() for line in assignments(lines)
            if "= env[" not in line] == ["v3 = m0[0]"], lines
    assert [line.strip() for line in lines if line.strip().startswith("m")
            and "] = " in line] == ["m0[0] = (v0 + 1) & 255",
                                    "m1[0] = (v3 + v1) & 255",
                                    "m1[1] = (m0[0] + v1) & 255"], lines
    for s in (0, 6, 255):
        matches_the_reference_at_every_fuel(prog, {"s": s, "k": 2})
        assert execute(prog, {"s": s, "k": 2}).memory["a"] == \
            (9, (s + 3) & 255)


# The compare c is tested in b1, a node after its own, past a store to l.
FAR_TEST = """
func f(secret s: u8) {
bb0:
  w = load l, 0
  c = icmp.eq w, 7
  br b1
b1:
  store l, 0, s
  condbr c, b2, b3
b2:
  ret 1
b3:
  ret 2
}
global l: arr<u8,1> = [7]
"""


def test_a_compare_tested_in_a_later_node_takes_no_inlined_operand(
        monkeypatch):
    prog = parse_ir(FAR_TEST)
    lines = translated_source(monkeypatch, prog)
    assert "    v1 = m0[0]" in lines and "    if v1 == 7:" in lines, lines
    for s in (0, 7):
        matches_the_reference_at_every_fuel(prog, {"s": s})
        assert execute(prog, {"s": s}).result == 1


def chain_source(length):
    """One block of ``length`` instructions: a load, then values that each
    read the one before and nothing else, every other one as the amount
    of a shift, then a ``ret`` of the last."""
    reads = ["add {}, s", "select {}, s, 3", "icmp.lt {}, s", "lshr s, {}",
             "neg {}", "xor {}, 5", "mul {}, s"]
    lines = ["  x0 = load t, 1"] + [
        f"  x{k} = " + ("shl s, {}" if k % 2 else reads[k // 2 % len(reads)])
        .format(f"x{k - 1}") for k in range(1, length - 1)]
    return ("func f(secret s: u8) {\nbb0:\n" + "\n".join(lines)
            + f"\n  ret x{length - 2}\n}}\n"
            "global t: arr<u32,2> = [3, 4]\n")


def test_a_region_of_single_use_values_compiles(monkeypatch):
    # The chain fills a region; through a shift's amount each value nests
    # 3 parentheses deep in its reader, so unbounded nesting would pass
    # CPython's limit of 200.
    prog = parse_ir(chain_source(tracer._CHUNK))
    lines = translated_source(monkeypatch, prog)
    # Every value but the parameter's is inlined, less one per _NEST + 1.
    assert len(assignments(lines)) == \
        1 + (tracer._CHUNK - 1) // (tracer._NEST + 1)
    for s in (0, 1, 7, 200):
        matches_the_reference_at_every_fuel(prog, {"s": s})


SELECTS = """
func f(secret s: u8, public k: u8 = 9) {
bb0:
  c = icmp.lt s, k
  a = add s, 1
  i = and s, 3
  b = load t, i
  r = select c, a, b
  d = and s, 1
  e = const 7
  m = mul s, 3
  q = select d, e, m
  x = xor r, q
  ret x
}
global t: arr<u8,4> = [5, 6, 7, 8]
"""


def test_a_select_whose_condition_and_arms_are_read_once_is_one_line(
        monkeypatch):
    for text in (SELECTS, "stage lowered\n" + SELECTS.replace("select",
                                                              "cmov")):
        prog = parse_ir(text)
        lines = translated_source(monkeypatch, prog)
        # Only the offset i has a local of its own, beside the parameters.
        assert [line.strip() for line in assignments(lines)
                if "= env[" not in line] == ["v4 = v0 & 3"], lines
        assert [line.strip() for line in lines if "return" in line] == [
            "return ((((v0 + 1) if v0 < v1 else m0[v4]) ^ "
            "(7 if (v0 & 1) else (v0 * 3))),), s + 11"], lines
        for s in (0, 3, 8, 9, 200):
            matches_the_reference_at_every_fuel(prog, {"s": s, "k": 9})


PHI_READ = """
func f(secret s: u8) {
bb0:
  x = add s, 1
  c = and s, 1
  condbr c, b1, b2
b1:
  y = mul s, 3
  br b2
b2:
  p = phi [bb0: x], [b1: y]
  ret p
}
"""


def test_a_value_a_phi_reads_once_keeps_its_local(monkeypatch):
    # A phi's operand is copied on its edge, so it is never inlined; the
    # condition, read once by the condbr, is.
    prog = parse_ir(PHI_READ)
    lines = translated_source(monkeypatch, prog)
    assert [line.strip() for line in assignments(lines)] == [
        "v0 = env['s']", "v1 = (v0 + 1)", "v3 = (v0 * 3)", "v4 = v3",
        "v4 = v1"], lines
    assert "    if (v0 & 1):" in lines
    for s in (0, 1, 254, 255):
        matches_the_reference_at_every_fuel(prog, {"s": s})


NEGATIVE = """
func f(secret s: u8, secret c: u1) {
bb0:
  x = select c, 0, s
  y = or x, 1
  z = xor s, 1
  w = and.16 s, 1
  store g, 0, z
  ret y
}
global g: arr<u8,1> = zeros
"""


def test_a_negative_immediate_never_counts_as_fitting():
    # The parser masks negative immediates; a program built in Python may
    # hold them, and they stand for every bit of the width.
    prog = parse_ir(NEGATIVE)
    instrs = prog.function().blocks[0].instrs
    for k, operands in enumerate([("c", -3, "s"), ("x", -2), ("s", -1),
                                  ("s", -1), ("g", 0, -5)]):
        instrs[k] = instrs[k]._replace(operands=operands)
    assert validate(prog) == []
    for s, c in ((0x81, 0), (0x81, 1), (0, 1)):
        args = {"s": s, "c": c}
        assert observe(prog, args) == reference(prog, args)[0], args


# x is -3 for c = 1 once its select takes the negative immediate that a
# program built in Python may hold; x < 4 then holds, and t[x] must fail.
NEGATIVE_OFFSET = """
func f(secret s: u8, secret c: u1) {
bb0:
  x = select c, 0, s
  k = icmp.lt x, 4
  condbr k, small, big
small:
  y = load t, x
  z = add x, 1
  ret z
big:
  ret 0
}
global t: arr<u32,4> = counting
"""


def test_a_compare_never_bounds_a_value_that_may_be_negative():
    prog = parse_ir(NEGATIVE_OFFSET)
    instrs = prog.function().blocks[0].instrs
    instrs[0] = instrs[0]._replace(operands=("c", -3, "s"))
    assert validate(prog) == []
    assert observe(prog, {"s": 2, "c": 1}) == \
        "id 3: t[-3] out of bounds (length 4)"
    for s, c in ((2, 0), (9, 0), (2, 1)):
        matches_the_reference_at_every_fuel(prog, {"s": s, "c": c})


def every_mask_rule():
    """One function that stores, at its own cell of a u64 region, each
    bitwise op and shift at each width over operands that fit and do not,
    each load and lane of a vload at each element width, and that stores
    a u64 value into each narrower element."""
    widths = (8, 16, 32, 64)
    operands = ("q", "s", 1, 255, 300, 1 << 40)
    lines, k = [], 0

    def keep(value):
        nonlocal k
        lines.append(f"  store out, {k}, {value}")
        k += 1

    for op in ("or", "xor", "and", "lshr", "shl"):
        for w in widths:
            for a in ("q", "s"):
                for b in operands:
                    lines.append(f"  r{k} = {op}.{w} {a}, {b}")
                    keep(f"r{k}")
    for g in ("g8", "g16", "g32", "g64"):
        for w in widths:
            lines.append(f"  r{k} = load.{w} {g}, 1")
            keep(f"r{k}")
        lines += [f"  v{g} = vload.2 {g}, 0", f"  vstore.2 wide, {k}, v{g}",
                  f"  vstore.2 {g}, 2, v{g}", f"  store {g}, 0, q"]
        k += 2
    return "\n".join(
        ["func f(secret q: u64, secret s: u8) {", "bb0:", *lines, "  ret 0",
         "}", f"global out: arr<u64,{k}> = zeros",
         f"global wide: arr<u64,{k + 2}> = zeros"]
        + [f"global g{w}: arr<u{w},4> = [{', '.join([str((1 << w) - 3)] * 4)}]"
           for w in widths])


def test_every_mask_rule_matches_the_reference():
    prog = parse_ir(every_mask_rule())
    assert validate(prog) == []
    for q, s in ((2 ** 64 - 1, 0xFF), (0x8000_0001_8000_0081, 0x81),
                 (0x1_0000_0005, 3), (0, 0)):
        args = {"q": q, "s": s}
        assert observe(prog, args) == reference(prog, args)[0], args


def every_clearing_and():
    """One function that stores, at its own cell of a u64 region: an
    ``and`` of each op with a trailing wrap at each width, over an
    operand that fits that width and one that does not (``q`` at 8 and
    32 bits); an ``and`` of two ``neg``s; shifts by ``s & 7``, ``s & 8``,
    ``s & 32`` and ``s & 63``, whose amounts' bounds fall each side of
    ``w - 1``; and an ``and``, either way round, of a ``neg`` of a u1,
    of a compare and of a value bounded by 3.  Each store ends a block,
    so no node is cut between a value and its reader."""
    lines, k = [], 0

    def keep(value):
        nonlocal k
        lines.extend([f"  store out, {k}, {value}", f"  br b{k}", f"b{k}:"])
        k += 1

    for w in (8, 32, 64):
        for y in ("s", "q", 200):
            for op, operands in [
                    *((op, ab) for op in ("add", "sub", "mul", "or", "xor",
                                          "shl", "and")
                      for ab in ("q, s", "s, q")),
                    ("neg", "q"), ("lshr", "q, 1"), ("load", "g, 1")]:
                lines += [f"  x{k} = {op}.{w} {operands}",
                          f"  r{k} = and.{w} x{k}, {y}"]
                keep(f"r{k}")
            for bit in ("c", "icmp.lt s, 9", "and s, 3"):
                for order in ("x{k}, {y}", "{y}, x{k}"):
                    c = bit
                    if bit != "c":
                        lines.append(f"  c{k} = {bit}")
                        c = f"c{k}"
                    lines += [f"  x{k} = neg.{w} {c}",
                              f"  r{k} = and.8 " + order.format(k=k, y=y)]
                    keep(f"r{k}")
        lines += [f"  x{k} = neg.{w} q", f"  y{k} = neg.{w} s",
                  f"  r{k} = and.{w} x{k}, y{k}"]
        keep(f"r{k}")
        for amount in (7, 8, 32, 63):
            for op in ("shl", "lshr"):
                for a in ("q", "s"):
                    lines += [f"  n{k} = and s, {amount}",
                              f"  r{k} = {op}.{w} {a}, n{k}"]
                    keep(f"r{k}")
    return "\n".join(
        ["func f(secret q: u64, secret s: u8, secret c: u1) {", "bb0:",
         *lines, "  ret 0", "}", f"global out: arr<u64,{k}> = zeros",
         f"global g: arr<u64,2> = [{2 ** 64 - 3}, {2 ** 64 - 3}]"])


def test_every_clearing_and_matches_the_reference(monkeypatch):
    prog = parse_ir(every_clearing_and())
    assert validate(prog) == []
    # A neg of the u1 or of the compare is a select under an `and` whose
    # other operand fits the neg's width: s and 200 at every width, q at
    # 64 bits only.
    source = translated_source(monkeypatch, prog)
    assert sum(len(re.findall(r"\((?:v\d+|200) if ", line))
               for line in source) == 2 * 2 * 7, source
    for q, s, c in ((2 ** 64 - 1, 0xFF, 1), (2 ** 64 - 1, 3, 0),
                    (0x8000_0001_8000_0081, 0x81, 1), (0x1_0000_0005, 8, 1),
                    (0, 0, 0)):
        args = {"q": q, "s": s, "c": c}
        assert observe(prog, args) == reference(prog, args)[0], args


# A secret diamond whose then-arm checks offset o against a tighter bound
# than the check before the `if`; the join reads m at o too.
ARM_CHECKS = """
func f(secret s: u8, secret c: u1, secret m: arr<u8,4>) {
bb0:
  o = and s, 7
  x = load t, o
  condbr c, then, else
then:
  y = load m, o
  br join
else:
  z = load t, o
  br join
join:
  v = phi [then: y], [else: z]
  w = load m, o
  ret w
}
global t: arr<u32,8> = counting
"""


def matches_the_reference_at_every_fuel(prog, args):
    _, steps = reference(prog, args)
    for fuel in range(steps + 2):
        assert observe(prog, args, fuel) == reference(prog, args, fuel)[0], \
            (args, fuel)


def checks(source):
    return len([line for line in source if "if not 0 <=" in line])


def test_a_check_in_one_arm_covers_nothing_outside_it(monkeypatch):
    prog = parse_ir(ARM_CHECKS)
    source = translated_source(monkeypatch, prog)
    # o = s & 7 is at most 7, which proves t's accesses without a check.
    # The then-arm's check of m covers nothing after the `if`, so the join
    # checks m again.
    assert checks(source) == 2
    for s in (2, 5):
        for c in (0, 1):
            matches_the_reference_at_every_fuel(
                prog, {"s": s, "c": c, "m": (1, 2, 3, 4)})


def test_a_check_that_no_bound_proves_covers_its_arm_alone(monkeypatch):
    # o = s & 15 may leave t, so t is checked before the `if`; that check
    # covers the else-arm's load, and the then-arm's check of m covers
    # nothing after the `if`, so the join checks m again.
    prog = parse_ir(ARM_CHECKS.replace("and s, 7", "and s, 15"))
    assert checks(translated_source(monkeypatch, prog)) == 3
    for s in (2, 5, 12):
        for c in (0, 1):
            matches_the_reference_at_every_fuel(
                prog, {"s": s, "c": c, "m": (1, 2, 3, 4)})


# A load of m at o before a loop, and in its body at o and at the
# loop's counter j.
CHECK_BEFORE_LOOP = """
func f(secret s: u8, secret m: arr<u8,4>, public n: u32 = 3) {
bb0:
  o = and s, 7
  x = load m, o
  br loop
loop:
  j = phi [bb0: 0], [body: j1]
  acc = phi [bb0: x], [body: a1]
  d = icmp.lt j, n
  condbr d, body, done
body:
  y = load m, o
  z = load m, j
  a1 = add acc, z
  j1 = add j, 1
  br loop
done:
  ret acc
}
"""


def test_a_check_before_a_nested_loop_covers_its_body(monkeypatch):
    # The loop is nested in the entry's region, so the check of o before
    # it covers the body's load at o; j is checked in the body.
    prog = parse_ir(CHECK_BEFORE_LOOP)
    assert checks(translated_source(monkeypatch, prog)) == 2
    for s in (2, 5):                        # o = 5 is out of bounds
        for n in (3, 5):                    # j = 4 is out of bounds
            matches_the_reference_at_every_fuel(
                prog, {"s": s, "m": (1, 2, 3, 4), "n": n})


# A load of t at o in the arm that only `o < {limit}` enters, an `add.8`
# of o there, and the same load after the join, where no compare bounds o.
COMPARE_BOUND = """
func f(secret s: u8) {{
bb0:
  o = lshr s, 5
  c = icmp.lt o, {limit}
  condbr c, small, big
small:
  x = load t, o
  y = add.8 o, 252
  br join
big:
  br join
join:
  r = phi [small: x], [big: 9]
  z = load t, o
  ret r
}}
global t: arr<u32,4> = counting
"""


@pytest.mark.parametrize("limit, arm_checks", [(4, 0), (5, 1)])
def test_a_compare_on_the_only_edge_into_an_arm_bounds_it(monkeypatch, limit,
                                                          arm_checks):
    # o < 4 proves o at most 3 in the arm: its load needs no check and
    # o + 252 fits 8 bits.  o < 5 is one too loose: the arm's check stays,
    # and s = 128 (o = 4) fails it at step 4.  The join's check stays in
    # both.
    prog = parse_ir(COMPARE_BOUND.format(limit=limit))
    source = translated_source(monkeypatch, prog)
    assert checks(source) == arm_checks + 1, source
    wraps = [line for line in source if "+ 252" in line]
    assert len(wraps) == 1 and ("& 255" in wraps[0]) == (limit == 5), wraps
    for s in range(0, 256, 16):
        matches_the_reference_at_every_fuel(prog, {"s": s})
    if limit == 5:
        assert reference(prog, {"s": 128}) == \
            ("id 3: t[4] out of bounds (length 4)", 4)


# Bounds checks and wrapped sums, products and shifts (``(a + b) & m``) in
# the code generated for each corpus program lowered under llvm18-O3.
LLVM18_O3_CHECKS_AND_WRAPS = {
    "fig1a_branch": (0, 0),
    "fig1b_load": (0, 0),
    "fig1c_ctselect": (0, 0),
    "fig1d_ctlookup": (0, 0),
    "rsa_bearssl_lookup": (60, 56),     # its loops run to the public mwlen
    "ecdsa_bearssl_lookup": (0, 0),
    "poly_frommsg": (0, 0),
    "loop_unswitch_toy": (0, 16),       # sums of two 32-bit cells
    "jump_threading_toy": (0, 0),
    "path_splitting_toy": (1, 1),
}
WRAPPED = re.compile(r"\((?:[^()]|\([^()]*\))* (?:\+|\*|<<) "
                     r"(?:[^()]|\([^()]*\))*\) & \d+")


def test_the_corpus_needs_few_checks_and_wraps(monkeypatch):
    # What the bounds leave out of the corpus's code; a bound that stops
    # proving shows here before it shows in a benchmark.
    got = {}
    for name in names():
        source = translated_source(monkeypatch, lowered(name, "llvm18-O3"))
        got[name] = (checks(source),
                     sum(len(WRAPPED.findall(line)) for line in source))
    assert got == LLVM18_O3_CHECKS_AND_WRAPS


# Wraps to a width and masks of shift amounts (`x << (b & 31)`) in the code
# generated for the programs that select with `-bit & y`, lowered under
# baseline-off and under gcc13-O3.  ecdsa's mask is read by every
# iteration of its inner loop, so it keeps its wrap, as do its offsets.
MASKS_LEFT = {
    "poly_frommsg": ((0, 0), (0, 0)),
    "fig1c_ctselect": ((0, 0), (0, 0)),
    "fig1d_ctlookup": ((0, 0), (0, 0)),
    "ecdsa_bearssl_lookup": ((3, 0), (3, 0)),
}
WIDTH_WRAP = re.compile(r" & (?:255|65535|4294967295|18446744073709551615)\b")
AMOUNT_MASK = re.compile(r"(?:<<|>>) \((?:[^()]|\([^()]*\))* & (?:7|15|31|63)\)")


def test_an_and_clears_the_wraps_of_its_selects(monkeypatch):
    # A rule that stops firing shows here before it shows in a benchmark.
    got = {}
    for name in MASKS_LEFT:
        got[name] = tuple(
            (sum(len(WIDTH_WRAP.findall(line)) for line in source),
             sum(len(AMOUNT_MASK.findall(line)) for line in source))
            for source in (translated_source(monkeypatch, lowered(name, p))
                           for p in ("baseline-off", "gcc13-O3")))
    assert got == MASKS_LEFT
    source = translated_source(monkeypatch, lowered("poly_frommsg",
                                                    "gcc13-O3"))
    assert [line.strip() for line in source if "1665" in line] == [
        "m0[v9] = (1665 if ((m1[v0] >> v3) & 1) else 0)"], source


# Generated functions of each corpus program lowered under llvm18-O3 and
# under baseline-off.  A loop nest is one function; the unrolled loops of
# rsa and ecdsa under llvm18-O3 fill several regions of _CHUNK
# instructions.
CORPUS_REGIONS = {
    "fig1a_branch": (1, 1),
    "fig1b_load": (1, 1),
    "fig1c_ctselect": (1, 1),
    "fig1d_ctlookup": (1, 1),
    "rsa_bearssl_lookup": (31, 1),
    "ecdsa_bearssl_lookup": (4, 1),
    "poly_frommsg": (1, 1),
    "loop_unswitch_toy": (1, 1),
    "jump_threading_toy": (1, 1),
    "path_splitting_toy": (1, 1),
}


def test_the_corpus_translates_into_few_functions():
    # A planner change that splits regions again shows here before it
    # shows in a benchmark.
    got = {name: tuple(len(tracer._translate(freeze(lowered(name, p)))[0])
                       for p in ("llvm18-O3", "baseline-off"))
           for name in names()}
    assert got == CORPUS_REGIONS
