"""Named pipeline presets and the compiler flags they correspond to.

A preset bundles a mid-end pass selection, a backend profile, and the
cmov-conversion setting, together with the command-line flags that set up
the equivalent real-compiler build.  The ``*-mitig`` presets keep the
optimizer on but pin down the specific transforms that introduce secret-
dependent branches; ``emit_real_flags`` produces just that flag set for a
build system to append.
"""

from __future__ import annotations

from dataclasses import dataclass

from .passes import PipelineSpec

__all__ = ["FlagPreset", "PRESETS", "emit_real_flags", "preset"]


# Flags that neutralize the branch-introducing transforms, per compiler.
_LLVM_MITIG_FLAGS = (
    "-mllvm", "--x86-cmov-converter=false",
    "-mllvm", "--disable-cgp-select2branch=true",
    "-mllvm", "--unswitch-threshold=1",
)
_LLVM_NOVEC = ("-fno-vectorize",)
_GCC_MITIG_FLAGS = (
    "-fno-unswitch-loops",
    "-fno-thread-jumps",
    "-fno-split-paths",
)


def emit_real_flags(compiler: str, mitig: bool = True,
                    keep_vectorize: bool = False) -> list[str]:
    """Mitigation flags for a real build of ``compiler`` ("llvm" or "gcc").

    With ``mitig`` off the list is empty.  ``keep_vectorize`` drops the
    LLVM loop-vectorizer opt-out for code that needs the vector loops and
    accepts the residual risk.
    """
    if compiler not in ("llvm", "gcc"):
        raise ValueError(f"unknown compiler {compiler!r} (use llvm or gcc)")
    if not mitig:
        return []
    if compiler == "llvm":
        flags = list(_LLVM_MITIG_FLAGS)
        if not keep_vectorize:
            flags += list(_LLVM_NOVEC)
        return flags
    return list(_GCC_MITIG_FLAGS)


@dataclass(frozen=True)
class FlagPreset:
    name: str
    compiler: str                # illustrative driver binary
    real_flags: tuple[str, ...]  # flags for the equivalent real build
    spec: PipelineSpec
    description: str


def _spec(passes: tuple[str, ...], backend: str = "x86-64",
          cmov_conversion: bool = False, unswitch_threshold: int = 32,
          ) -> PipelineSpec:
    return PipelineSpec(toggles={p: True for p in passes},
                        backend=backend,
                        cmov_conversion=cmov_conversion,
                        unswitch_threshold=unswitch_threshold)


_LLVM_O3 = ("instcombine", "loop_unswitch", "loop_unroll",
            "loop_vectorize", "slp")
_LLVM_OS = ("instcombine", "loop_unroll", "loop_vectorize", "slp")
_LLVM_MITIG = ("instcombine", "loop_unswitch", "loop_unroll", "slp")
_LLVM_MITIG_VECT = ("instcombine", "loop_unswitch", "loop_unroll",
                    "loop_vectorize", "slp")
_GCC_O3 = ("jump_thread", "path_split", "loop_unswitch", "if_convert")
_GCC_OS = ("jump_thread", "if_convert")
_TOY = ("instcombine", "loop_unswitch", "slp")

_PRESET_LIST = [
    FlagPreset(
        "llvm18-O3", "clang-18", ("-O3",),
        _spec(_LLVM_O3, cmov_conversion=True),
        "Full optimizer: unswitching, unrolling, both vectorizers, and the "
        "cmov-to-branch converter in the backend."),
    FlagPreset(
        "llvm18-Os", "clang-18", ("-Os",),
        _spec(_LLVM_OS, cmov_conversion=True),
        "Size-tuned variant: like llvm18-O3 but without loop unswitching."),
    FlagPreset(
        "llvm18-O3-mitig", "clang-18",
        ("-O3",) + _LLVM_MITIG_FLAGS + _LLVM_NOVEC,
        _spec(_LLVM_MITIG, unswitch_threshold=1),
        "llvm18-O3 with the branch-introducing transforms pinned off: no "
        "cmov conversion, unswitch threshold 1, no loop vectorizer."),
    FlagPreset(
        "llvm18-O3-mitig+vect", "clang-18",
        ("-O3",) + _LLVM_MITIG_FLAGS,
        _spec(_LLVM_MITIG_VECT, unswitch_threshold=1),
        "The mitigation set but keeping the loop vectorizer; vector "
        "selects on runtime-bound loops can still branch."),
    FlagPreset(
        "gcc13-O3", "gcc-13", ("-O3",),
        _spec(_GCC_O3),
        "GCC-style optimizer: jump threading, path splitting, unswitching, "
        "if-conversion; no masked-arithmetic recognition."),
    FlagPreset(
        "gcc13-Os", "gcc-13", ("-Os",),
        _spec(_GCC_OS),
        "Size-tuned GCC set: jump threading and if-conversion only."),
    FlagPreset(
        "gcc13-O3-mitig", "gcc-13",
        ("-O3",) + _GCC_MITIG_FLAGS,
        _spec(("if_convert",)),
        "gcc13-O3 with unswitching, jump threading, and path splitting "
        "disabled by flag."),
    FlagPreset(
        "baseline-off", "clang-18", ("-O0",),
        _spec(()),
        "No mid-end passes at all; branchless lowering only.  The ground-"
        "truth pipeline for the corpus."),
    FlagPreset(
        "i386-O3", "clang-18", ("-O3", "-m32"),
        _spec(_LLVM_O3, backend="i386", cmov_conversion=True),
        "The llvm18-O3 pass set on a target without cmov: every select "
        "lowers to a branch."),
    FlagPreset(
        "toy-novec-nounroll", "clang-18",
        ("-O3", "-fno-vectorize", "-fno-unroll-loops"),
        _spec(_TOY, cmov_conversion=True),
        "Reduced pipeline for single-pass studies: no vectorizers' loop "
        "form and no unrolling, but conversion stays on."),
]

PRESETS: dict[str, FlagPreset] = {p.name: p for p in _PRESET_LIST}


def preset(name: str) -> FlagPreset:
    p = PRESETS.get(name)
    if p is None:
        known = ", ".join(PRESETS)
        raise ValueError(f"unknown preset {name!r} (have: {known})")
    return p
