"""Bundled benchmark programs with constant-time ground truth.

Each entry ships as an ``.ir`` file under ``corpus_ir/`` plus a flag saying
whether the source is constant-time as written.  Each entry is parsed and
validated once; ``CorpusEntry.load`` and ``load_program`` return that
parse, frozen (see ``ir.freeze``), on every call, and ``copy_program``
makes a copy to edit.  An entry that does not parse or validate raises
``CorpusError`` naming it.  The first access to an entry also self-checks
the ground truth: with every pass disabled and branchless lowering, the
leak checker must agree with the stored flag, otherwise the corpus itself
is broken and ``CorpusError`` is raised.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .analysis import analyze
from .ir import IRError, Program, parse_ir
from .passes import PipelineSpec, _checked_input

__all__ = ["CorpusEntry", "CorpusError", "entries", "get", "load_program",
           "names"]


class CorpusError(Exception):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    ct_expected: bool            # constant-time as written?
    description: str

    @property
    def source(self) -> str:
        return _read_ir(self.name)

    def load(self) -> Program:
        return _parsed(self.name)


_ENTRIES: list[CorpusEntry] = [
    CorpusEntry(
        "fig1a_branch", False,
        "Secret-dependent branch writing one of two public values; the "
        "textbook non-constant-time pattern."),
    CorpusEntry(
        "fig1b_load", False,
        "Table lookup indexed directly by the secret; leaks through the "
        "access address."),
    CorpusEntry(
        "fig1c_ctselect", True,
        "Branchless select built from xor/neg/and masking, as used in "
        "constant-time crypto code."),
    CorpusEntry(
        "fig1d_ctlookup", True,
        "Constant-time table scan: every entry is read and the wanted one "
        "is masked in."),
    CorpusEntry(
        "rsa_bearssl_lookup", True,
        "Masked window lookup in the style of BearSSL's br_i31_modpow: "
        "scans all window entries, masking in the selected one; the word "
        "count per entry is a runtime value."),
    CorpusEntry(
        "ecdsa_bearssl_lookup", True,
        "The same masked window scan with a compile-time-constant word "
        "count, as in fixed-width ECDSA point tables."),
    CorpusEntry(
        "poly_frommsg", True,
        "Kyber-style poly_frommsg: expands each message bit into a "
        "coefficient through mask arithmetic (pq-crystals reference code)."),
    CorpusEntry(
        "loop_unswitch_toy", True,
        "Loop-invariant secret select inside a loop; bait for unswitching."),
    CorpusEntry(
        "jump_threading_toy", True,
        "Two selects on mutually exclusive range checks of the secret; "
        "bait for jump threading."),
    CorpusEntry(
        "path_splitting_toy", True,
        "Secret-dependent select at a loop latch; bait for path splitting "
        "(cf. GCC bug 112402)."),
]

_BY_NAME = {e.name: e for e in _ENTRIES}
_CHECKED: set[str] = set()


def _read_ir(name: str) -> str:
    path = resources.files(__package__) / "corpus_ir" / f"{name}.ir"
    return path.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _parsed(name: str) -> Program:
    """The one parse of an entry, frozen and validated."""
    try:
        return _checked_input(parse_ir(_read_ir(name)))
    except IRError as e:
        raise CorpusError(f"corpus entry {name!r}: {e}") from e


def _baseline_check(entry: CorpusEntry) -> None:
    """With all passes off, the checker verdict must match ct_expected."""
    report = analyze(entry.load(), PipelineSpec()).report
    if report.is_clean != entry.ct_expected:
        verdict = "clean" if report.is_clean else "leaky"
        raise CorpusError(
            f"corpus entry {entry.name!r} is {verdict} under the do-nothing "
            f"pipeline but is registered ct_expected={entry.ct_expected}")


def entries() -> list[CorpusEntry]:
    return list(_ENTRIES)


def names() -> list[str]:
    return [e.name for e in _ENTRIES]


def get(name: str) -> CorpusEntry:
    entry = _BY_NAME.get(name)
    if entry is None:
        known = ", ".join(names())
        raise CorpusError(f"unknown corpus entry {name!r} (have: {known})")
    if name not in _CHECKED:
        _baseline_check(entry)
        _CHECKED.add(name)
    return entry


def load_program(name_or_path: str) -> Program:
    """A corpus entry by name, or any ``.ir`` file by path, frozen; a file
    that does not parse or validate raises ``IRError``."""
    if name_or_path in _BY_NAME:
        return get(name_or_path).load()
    if os.path.exists(name_or_path):
        with open(name_or_path, encoding="utf-8") as fh:
            return _checked_input(parse_ir(fh.read()))
    raise CorpusError(
        f"{name_or_path!r} is neither a corpus entry nor an existing file")
