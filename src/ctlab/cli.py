"""Command-line front end.

Subcommands:

* ``analyze``  - run one program through a preset and report leaks
* ``matrix``   - re-run an analysis over pass-toggle combinations
* ``diff``     - compare the leak reports of two presets on one program
* ``corpus``   - list the bundled benchmark programs
* ``flags``    - print the real-compiler mitigation flags

Exit codes: 0 when clean (or no change / informational), 2 when leaks or
differences were found, 1 on usage or internal errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass

from .analysis import analyze
from .backend import LoweringError
from .corpus import CorpusError, entries, load_program
from .ir import IRError, Program
from .leaks import LeakError, LeakReport, diff_reports
from .mitigations import emit_real_flags, preset
from .passes import InternalPassError, PipelineSpec
from .tracer import TraceError

__all__ = ["main"]

# Table order for the canonical four-toggle study: unswitching first, then
# progressively weaker pipelines down to everything off.
_CANONICAL_VARY = ("loop_unswitch", "loop_unroll", "loop_vectorize",
                   "cmov_conversion")
_CANONICAL_ROWS = [
    (True, True, True, True),
    (False, True, True, True),
    (False, False, True, True),
    (False, False, False, True),
    (False, True, False, True),
    (False, True, False, False),
    (False, False, False, False),
]


@dataclass
class MatrixRow:
    toggles: dict[str, bool]
    report: LeakReport


def _analyze(prog: Program, spec: PipelineSpec, preset_name: str,
             inputs: int, seed: int) -> LeakReport:
    report = analyze(prog, spec, inputs, seed).report
    report.preset = preset_name
    return report


def _report_json(report: LeakReport) -> dict:
    return {
        "program": report.program,
        "preset": report.preset,
        "seed": report.seed,
        "inputs": report.inputs,
        "findings": [
            {"instr": f.instr, "kind": f.kind,
             "file": f.loc.file, "line": f.loc.line}
            for f in report.findings
        ],
        "counts": {
            "instructions": report.vulnerable_instructions,
            "lines": report.vulnerable_lines,
        },
    }


def _report_text(report: LeakReport) -> str:
    lines = [
        f"program {report.program}",
        f"preset  {report.preset}",
        f"inputs  {report.inputs} (seed {report.seed})",
    ]
    if report.is_clean:
        lines.append("result  constant-time: no divergence found")
    else:
        lines.append(
            f"result  NOT constant-time: "
            f"{report.vulnerable_instructions} instructions over "
            f"{report.vulnerable_lines} source lines")
        for f in report.findings:
            lines.append(f"  {f.kind:14s} id {f.instr:<5d} {f.loc}")
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_analyze(args) -> int:
    spec = preset(args.preset).spec
    report = _analyze(load_program(args.program), spec, args.preset,
                      args.inputs, args.seed)
    if args.json:
        _emit(json.dumps(_report_json(report), indent=2), args.out)
    else:
        _emit(_report_text(report), args.out)
    return 0 if report.is_clean else 2


def _cmd_matrix(args) -> int:
    base = preset(args.preset).spec
    vary = [v.strip() for v in args.vary.split(",") if v.strip()]
    if not vary:
        raise ValueError("--vary needs at least one toggle name")
    repeated = next((v for i, v in enumerate(vary) if v in vary[:i]), None)
    if repeated is not None:
        raise ValueError(f"--vary names {repeated!r} more than once")
    canonical = set(vary) == set(_CANONICAL_VARY)
    order = list(_CANONICAL_VARY) if canonical else vary
    rows = (_CANONICAL_ROWS if canonical
            else itertools.product((True, False), repeat=len(vary)))

    prog = load_program(args.program)
    results = []
    for values in rows:
        toggles = dict(zip(order, values))
        report = _analyze(prog, base.with_toggles(**toggles),
                          args.preset, args.inputs, args.seed)
        results.append(MatrixRow(toggles, report))

    if args.json:
        payload = {
            "program": results[0].report.program,
            "preset": args.preset,
            "vary": order,
            "rows": [
                {"toggles": r.toggles,
                 "clean": r.report.is_clean,
                 "instructions": r.report.vulnerable_instructions,
                 "lines": r.report.vulnerable_lines}
                for r in results
            ],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        head = "  ".join(f"{n:>16s}" for n in order)
        out = [f"{head}    ct  instrs  lines"]
        for r in results:
            vals = "  ".join(f"{'on' if r.toggles[n] else 'off':>16s}"
                             for n in order)
            ct = "yes" if r.report.is_clean else "NO"
            out.append(f"{vals}  {ct:>4s}  {r.report.vulnerable_instructions:>6d}"
                       f"  {r.report.vulnerable_lines:>5d}")
        _emit("\n".join(out), args.out)
    return 0 if all(r.report.is_clean for r in results) else 2


def _cmd_diff(args) -> int:
    spec_a = preset(args.preset_a).spec
    spec_b = preset(args.preset_b).spec
    prog = load_program(args.program)
    rep_a = _analyze(prog, spec_a, args.preset_a, args.inputs, args.seed)
    rep_b = _analyze(prog, spec_b, args.preset_b, args.inputs, args.seed)
    diff = diff_reports(rep_a, rep_b)
    if args.json:
        payload = {
            "program": rep_a.program,
            "from": args.preset_a,
            "to": args.preset_b,
            "added_lines": sorted(f"{f}:{l}" for f, l in diff.added_lines),
            "removed_lines": sorted(f"{f}:{l}" for f, l in diff.removed_lines),
            "unchanged_lines": sorted(f"{f}:{l}" for f, l in diff.unchanged),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        lines = [f"{rep_a.program}: {args.preset_a} -> {args.preset_b}"]
        if diff.is_empty:
            lines.append("no change")
        else:
            lines.append(f"▲ {len(diff.added_lines)} vulnerable "
                         f"line(s) added")
            for f, l in sorted(diff.added_lines):
                lines.append(f"    {f}:{l}")
            lines.append(f"▼ {len(diff.removed_lines)} vulnerable "
                         f"line(s) removed")
            for f, l in sorted(diff.removed_lines):
                lines.append(f"    {f}:{l}")
        _emit("\n".join(lines), args.out)
    return 0 if diff.is_empty else 2


def _cmd_corpus(args) -> int:
    rows = []
    for e in entries():
        ct = "ct" if e.ct_expected else "not-ct"
        rows.append(f"{e.name:24s} {ct:7s} {e.description}")
    _emit("\n".join(rows), args.out)
    return 0


def _cmd_flags(args) -> int:
    flags = emit_real_flags(args.compiler, mitig=not args.no_mitig,
                            keep_vectorize=args.keep_vectorize)
    if args.json:
        _emit(json.dumps(flags), args.out)
    else:
        _emit(" ".join(flags), args.out)
    return 0


def _add_common(sub, with_inputs: bool = True) -> None:
    if with_inputs:
        sub.add_argument("--inputs", type=int, default=16,
                         help="number of secret assignments (default 16)")
        sub.add_argument("--seed", type=int, default=0,
                         help="input generator seed (default 0)")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="write output to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlab",
        description="Trace-diffing constant-time checker for a small SSA IR "
                    "with compiler-style optimization presets.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze",
                        help="check one program under a preset")
    p.add_argument("program", help="corpus entry name or path to an .ir file")
    p.add_argument("--preset", default="llvm18-O3",
                   help="pipeline preset (default llvm18-O3)")
    _add_common(p)
    p.set_defaults(fn=_cmd_analyze)

    p = subs.add_parser("matrix",
                        help="analyze under every combination of toggles")
    p.add_argument("program")
    p.add_argument("--preset", default="llvm18-O3")
    p.add_argument("--vary", default=",".join(_CANONICAL_VARY),
                   help="comma-separated pass toggles to sweep "
                        "(default: the four-toggle study)")
    _add_common(p)
    p.set_defaults(fn=_cmd_matrix)

    p = subs.add_parser("diff",
                        help="diff the reports of two presets")
    p.add_argument("program")
    p.add_argument("preset_a", help="first preset name")
    p.add_argument("preset_b", help="second preset name")
    _add_common(p)
    p.set_defaults(fn=_cmd_diff)

    p = subs.add_parser("corpus", help="corpus operations")
    p.add_argument("action", choices=["list"])
    _add_common(p, with_inputs=False)
    p.set_defaults(fn=_cmd_corpus)

    p = subs.add_parser("flags",
                        help="print real-compiler mitigation flags")
    p.add_argument("--compiler", required=True, choices=["llvm", "gcc"])
    p.add_argument("--no-mitig", action="store_true",
                   help="print the (empty) unmitigated flag set")
    p.add_argument("--keep-vectorize", action="store_true",
                   help="keep the LLVM loop vectorizer enabled")
    _add_common(p, with_inputs=False)
    p.set_defaults(fn=_cmd_flags)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold usage
        # errors into the generic error code.
        return 0 if exc.code == 0 else 1
    try:
        return args.fn(args)
    except (CorpusError, IRError, TraceError, LeakError, InternalPassError,
            LoweringError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
