"""Seeded mutation fuzz: a corpus program changed in one place ends in a
verdict or a located error (exit 0, 1 or 2), never a traceback."""

from __future__ import annotations

import random

from ctlab.cli import main
from ctlab.corpus import load_program, names
from ctlab.ir import (LANE_COUNTS, VECTOR_OPS, Function, parse_ir, print_ir,
                      value_operands)
from ctlab.mitigations import PRESETS
from ctlab.passes import run_pipeline

KINDS = ("operand", "label", "lanes")


def bases() -> list[str]:
    """Every corpus program as written and after ``llvm18-O3``, whose
    vectorizer and SLP give the corpus its only vector code."""
    out = []
    for name in names():
        prog = load_program(name)
        out.append(print_ir(prog))
        out.append(print_ir(run_pipeline(prog, PRESETS["llvm18-O3"].spec)[0]))
    return out


def sites(func: Function) -> dict[str, list]:
    """The instructions each kind of mutation can change."""
    instrs = list(func.instructions())
    return {"operand": [i for i in instrs if value_operands(i)],
            "label": [i for i in instrs if i.labels],
            "lanes": [i for i in instrs if i.opcode in VECTOR_OPS]}


def mutate(text: str, kind: str, rng: random.Random) -> str:
    """``text`` with one change of ``kind``: a value operand swapped for
    another name (a scalar, a vector, an array parameter or an undefined
    name), a label retargeted (possibly to a missing block), or a lane
    suffix changed."""
    prog = parse_ir(text)
    func = prog.function()
    ins = rng.choice(sites(func)[kind])
    if kind == "lanes":
        ins.width = rng.choice([n for n in LANE_COUNTS if n != ins.width])
        return print_ir(prog)
    if kind == "operand":
        field, pool = "operands", [p.name for p in func.params] + [
            i.result for i in func.instructions() if i.result is not None] + [
            "undefined"]
        # A memory op's first operand names its region, not a value.
        k = rng.randrange(len(ins.operands) - len(value_operands(ins)),
                          len(ins.operands))
    else:
        field, pool = "labels", [b.label for b in func.blocks] + ["nowhere"]
        k = rng.randrange(len(ins.labels))
    old = getattr(ins, field)
    new = rng.choice([x for x in pool if x != old[k]])
    setattr(ins, field, old[:k] + (new,) + old[k + 1:])
    return print_ir(prog)


def test_mutants_end_in_an_exit_code(tmp_path):
    rng = random.Random(0)
    texts = bases()
    pools = {kind: [t for t in texts if sites(parse_ir(t).function())[kind]]
             for kind in KINDS}
    path = tmp_path / "mutant.ir"
    for k in range(24):
        kind = KINDS[k % len(KINDS)]
        path.write_text(mutate(rng.choice(pools[kind]), kind, rng),
                        encoding="utf-8")
        preset = rng.choice(list(PRESETS))
        assert main(["analyze", str(path), "--preset", preset,
                     "--inputs", "4"]) in (0, 1, 2)
