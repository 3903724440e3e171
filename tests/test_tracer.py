"""Interpreter semantics, leakage events, and input generation."""

from __future__ import annotations

import hashlib

import pytest

from ctlab import tracer
from ctlab.backend import PROFILES, lower
from ctlab.corpus import load_program, names
from ctlab.ir import parse_ir, validate
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline
from ctlab.tracer import BranchDir, MemAccess, TraceError, execute, gen_inputs


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


# A loop whose body is longer than a generated chunk: the load at
# position 50 of the body reads t[4] in the fifth iteration, at step
# 1 + 4 * (3 + 53) + 3 + 51 = 279.
LONG_BODY = "\n".join(f"  p{k} = add i, {k}" for k in range(50))
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
    (LOAD_OOB, {"n": 6}, 279, "id 54: t[4] out of bounds (length 4)"),
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
    prog = parse_ir(LOAD_OOB)
    assert execute(prog, {"n": 4}).steps == 229
    for fuel in range(230):
        want = 229 if fuel == 229 else f"fuel exhausted after {fuel} steps"
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


def test_a_corpus_by_presets_study_fits_the_translation_cache():
    # A study meets every corpus program lowered under every preset, and
    # checking the results meets each source program.  Run it twice: the
    # second round must translate nothing, or a study that outgrew the
    # cache would re-translate on every round.
    def study():
        for name in names():
            source = load_program(name)
            args = gen_inputs(source, count=1, seed=0).arg_dicts()[0]
            execute(source, args)
            for p in PRESETS.values():
                mid, _ = run_pipeline(source, p.spec)
                low, _ = lower(mid, PROFILES[p.spec.backend],
                               p.spec.cmov_conversion)
                execute(low, args)

    study()
    misses = tracer._translate.cache_info().misses
    study()
    assert tracer._translate.cache_info().misses == misses
