"""Bundled programs: integrity, ground-truth labels, and the loader."""

from __future__ import annotations

import pytest

from ctlab import corpus
from ctlab.cli import main
from ctlab.corpus import CorpusError, entries, get, load_program, names
from ctlab.ir import IRError, copy_program, parse_ir, print_ir, validate
from ctlab.tracer import gen_inputs

EXPECTED = {
    "fig1a_branch": False,
    "fig1b_load": False,
    "fig1c_ctselect": True,
    "fig1d_ctlookup": True,
    "rsa_bearssl_lookup": True,
    "ecdsa_bearssl_lookup": True,
    "poly_frommsg": True,
    "loop_unswitch_toy": True,
    "jump_threading_toy": True,
    "path_splitting_toy": True,
}


def test_registry_names_and_labels():
    assert names() == list(EXPECTED)
    for e in entries():
        assert e.ct_expected == EXPECTED[e.name]
        assert e.description


def test_every_entry_parses_validates_and_self_checks():
    for name in names():
        entry = get(name)                 # get() runs the baseline check
        prog = entry.load()
        assert validate(prog) == [], name
        assert prog.stage == "midend"
        func = prog.function()
        assert any(p.is_secret for p in func.params), name
        gen_inputs(prog, count=4, seed=0)  # publics all have defaults


def test_load_program_accepts_paths(tmp_path):
    src = get("fig1a_branch").source
    path = tmp_path / "copy.ir"
    path.write_text(src, encoding="utf-8")
    prog = load_program(str(path))
    assert prog.function().name == "fig1a_branch"


def broken(name, read=corpus._read_ir):
    """Entry ``name``'s source with its return reading an undefined name:
    it parses but does not validate."""
    return read(name).replace("ret r ", "ret q ")


def test_a_malformed_entry_fails_on_load_before_its_self_check(monkeypatch):
    monkeypatch.setattr(corpus, "_read_ir", broken)
    monkeypatch.setattr(corpus, "_CHECKED", set())
    monkeypatch.setattr(corpus, "analyze",
                        lambda *a, **k: pytest.fail("self-checked it"))
    corpus._parsed.cache_clear()        # parse the broken source
    with pytest.raises(CorpusError, match=r"^corpus entry 'fig1a_branch': "
                       r"invalid input program: fig1a_branch/bbJ/id6: use "
                       r"of undefined 'q'$"):
        get("fig1a_branch")


def test_load_program_refuses_an_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.ir"
    path.write_text(broken("fig1a_branch"), encoding="utf-8")
    message = "invalid input program: fig1a_branch/bbJ/id6: use of " \
              "undefined 'q'"
    with pytest.raises(IRError) as e:
        load_program(str(path))
    assert str(e.value) == message
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


LOWERED = """stage lowered
func f(secret s: u1) {
bb0:
  r = cmov s, 3, 4
  ret r
}
"""


def test_a_lowered_file_is_checked_without_the_pipeline(tmp_path):
    # The pipeline takes only mid-end programs; a lowered file is checked
    # by validate alone, so it gets no stage error, and a malformed one
    # gets the message of a mid-end file.
    path = tmp_path / "low.ir"
    path.write_text(LOWERED, encoding="utf-8")
    prog = load_program(str(path))
    assert prog.stage == "lowered" and print_ir(prog) == \
        print_ir(parse_ir(LOWERED))
    path.write_text(LOWERED.replace("cmov", "select"), encoding="utf-8")
    with pytest.raises(IRError) as e:
        load_program(str(path))
    assert str(e.value) == "invalid input program: f/bb0/id0: select " \
                           "present in lowered program"


def test_unknown_entry_errors():
    with pytest.raises(CorpusError):
        get("no_such_entry")
    with pytest.raises(CorpusError):
        load_program("also/not/a/file.ir")


def test_entries_returns_copies():
    entries().clear()
    assert len(entries()) == len(EXPECTED)


def test_each_load_is_the_one_frozen_parse():
    for name in names():
        fresh = parse_ir(get(name).source)
        first = load_program(name)
        assert load_program(name) is first
        for prog in (first, copy_program(first)):
            assert print_ir(prog) == print_ir(fresh), name
            assert prog.stage == fresh.stage
            assert [f.next_id for f in prog.functions.values()] == \
                [f.next_id for f in fresh.functions.values()]
            assert [g.init_kind for g in prog.globals.values()] == \
                [g.init_kind for g in fresh.globals.values()]
        # Mutating a copy leaves the next load as parsed.
        copy = copy_program(first)
        func = copy.function()
        func.blocks[0].instrs.clear()
        func.params.clear()
        func.fresh_id()
        for g in copy.globals.values():
            g.init = ()
        assert print_ir(load_program(name)) == print_ir(fresh), name
        assert load_program(name).function().next_id == \
            fresh.function().next_id
