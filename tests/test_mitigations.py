"""Flag presets and the real-compiler flag emitter."""

from __future__ import annotations

import pytest

from ctlab.mitigations import PRESETS, emit_real_flags, preset


def test_llvm_flags_exact():
    assert emit_real_flags("llvm") == [
        "-mllvm", "--x86-cmov-converter=false",
        "-mllvm", "--disable-cgp-select2branch=true",
        "-mllvm", "--unswitch-threshold=1",
        "-fno-vectorize",
    ]
    assert emit_real_flags("llvm", keep_vectorize=True) == [
        "-mllvm", "--x86-cmov-converter=false",
        "-mllvm", "--disable-cgp-select2branch=true",
        "-mllvm", "--unswitch-threshold=1",
    ]


def test_gcc_flags_exact():
    assert emit_real_flags("gcc") == [
        "-fno-unswitch-loops",
        "-fno-thread-jumps",
        "-fno-split-paths",
    ]
    # keep_vectorize is an LLVM-only knob; gcc output is unaffected
    assert emit_real_flags("gcc", keep_vectorize=True) == emit_real_flags("gcc")


def test_no_mitig_is_empty():
    assert emit_real_flags("llvm", mitig=False) == []
    assert emit_real_flags("gcc", mitig=False) == []


def test_unknown_compiler():
    with pytest.raises(ValueError):
        emit_real_flags("msvc")


def test_preset_registry():
    assert set(PRESETS) == {
        "llvm18-O3", "llvm18-Os", "llvm18-O3-mitig", "llvm18-O3-mitig+vect",
        "gcc13-O3", "gcc13-Os", "gcc13-O3-mitig", "baseline-off",
        "i386-O3", "toy-novec-nounroll",
    }
    with pytest.raises(ValueError):
        preset("llvm18-O4")


def test_preset_pass_selections():
    def on(name):
        spec = preset(name).spec
        return {k for k, v in spec.toggles.items() if v}

    assert on("llvm18-O3") == {"instcombine", "loop_unswitch", "loop_unroll",
                               "loop_vectorize", "slp"}
    assert on("llvm18-Os") == on("llvm18-O3") - {"loop_unswitch"}
    assert on("llvm18-O3-mitig") == on("llvm18-O3") - {"loop_vectorize"}
    assert on("llvm18-O3-mitig+vect") == on("llvm18-O3")
    assert on("gcc13-O3") == {"jump_thread", "path_split", "loop_unswitch",
                              "if_convert"}
    assert on("gcc13-Os") == {"jump_thread", "if_convert"}
    assert on("gcc13-O3-mitig") == {"if_convert"}
    assert on("baseline-off") == set()
    assert on("i386-O3") == on("llvm18-O3")
    assert on("toy-novec-nounroll") == {"instcombine", "loop_unswitch", "slp"}


def test_preset_backend_and_conversion():
    assert preset("llvm18-O3").spec.cmov_conversion
    assert preset("i386-O3").spec.backend == "i386"
    assert not preset("llvm18-O3-mitig").spec.cmov_conversion
    assert not preset("gcc13-O3").spec.cmov_conversion
    assert preset("baseline-off").spec.backend == "x86-64"
    # mitigation presets pin unswitching to the minimum threshold instead
    # of dropping the pass outright, matching the real flag's behavior
    assert preset("llvm18-O3-mitig").spec.unswitch_threshold == 1
    assert preset("llvm18-O3-mitig+vect").spec.unswitch_threshold == 1
    assert preset("llvm18-O3").spec.unswitch_threshold == 32


def test_preset_real_flags_match_emitter():
    assert preset("llvm18-O3-mitig").real_flags == \
        ("-O3",) + tuple(emit_real_flags("llvm"))
    assert preset("llvm18-O3-mitig+vect").real_flags == \
        ("-O3",) + tuple(emit_real_flags("llvm", keep_vectorize=True))
    assert preset("gcc13-O3-mitig").real_flags == \
        ("-O3",) + tuple(emit_real_flags("gcc"))
    assert preset("llvm18-O3").real_flags == ("-O3",)
    assert preset("i386-O3").real_flags == ("-O3", "-m32")
