"""The benchmark's workloads, the analysis they time, and the checks on
every verdict.

An *analysis* is what ``ctlab analyze`` does for one program under one
pipeline: parse -> passes + cleanup -> validate -> lower -> gen_inputs ->
execute x N -> compare_traces.  The in-process workloads run analyses
through the library; the ``cli`` workload runs ``python -m ctlab.cli``
processes.  Every call into ctlab goes through a module attribute
(``passes.run_pipeline``), so the traced run sees it.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from ctlab import backend, corpus, leaks, passes, tracer
from ctlab.ir import print_ir
from ctlab.leaks import CONTROL_FLOW
from ctlab.mitigations import preset

HERE = Path(__file__).resolve().parent

PROGRAMS = (
    "fig1a_branch", "fig1b_load", "fig1c_ctselect", "fig1d_ctlookup",
    "rsa_bearssl_lookup", "ecdsa_bearssl_lookup", "poly_frommsg",
    "loop_unswitch_toy", "jump_threading_toy", "path_splitting_toy",
)
PRESETS = (
    "llvm18-O3", "llvm18-Os", "llvm18-O3-mitig", "llvm18-O3-mitig+vect",
    "gcc13-O3", "gcc13-Os", "gcc13-O3-mitig", "baseline-off", "i386-O3",
    "toy-novec-nounroll",
)


# ----------------------------------------------------------------------
# Known answers
# ----------------------------------------------------------------------

def load_known_answers():
    """``({(program, spec digest): (answer, source)}, matrix table)``.

    Entries are keyed by the pipeline they describe, so a canonical-matrix
    row with every toggle on and the llvm18-O3 preset are one key.  Two
    sources that disagree on one key are an error.
    """
    data = json.loads((HERE / "known_answers.json").read_text(encoding="utf-8"))
    answers: dict[tuple[str, str], tuple[str, str]] = {}

    def put(program, spec, answer, source):
        key = (program, spec.digest())
        if key in answers and answers[key][0] != answer:
            raise ValueError(f"known answers disagree on {program} under "
                             f"{source!r} and {answers[key][1]!r}")
        answers[key] = (answer, source)

    for block in data["verdicts"]:
        spec = preset(block["preset"]).spec
        for program, answer in block["answers"].items():
            put(program, spec, answer, block["source"])
    matrix = data["matrix"]
    base = preset(matrix["preset"]).spec
    for program, verdicts in matrix["clean"].items():
        for row, clean in zip(matrix["rows"], verdicts):
            spec = base.with_toggles(**dict(zip(matrix["vary"], row)))
            put(program, spec, "clean" if clean else "leaky", matrix["source"])
    return answers, matrix


KNOWN, MATRIX = load_known_answers()


def verdict_ok(answer: str, kinds: list[str]) -> bool:
    """Does a report with findings of these kinds match the answer?"""
    if answer == "clean":
        return not kinds
    if answer == "leaky":
        return bool(kinds)
    if answer == "cf-leak":
        return CONTROL_FLOW in kinds
    if answer == "no-cf-leak":
        return CONTROL_FLOW not in kinds
    raise ValueError(f"unknown answer {answer!r}")


# ----------------------------------------------------------------------
# In-process analyses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Analysis:
    program: str
    preset: str
    inputs: int
    toggles: tuple[tuple[str, bool], ...] = ()   # over the preset's spec

    def spec(self):
        spec = preset(self.preset).spec
        return spec.with_toggles(**dict(self.toggles)) if self.toggles else spec

    @property
    def label(self) -> str:
        flips = ",".join(f"{k}={int(v)}" for k, v in self.toggles)
        return (f"{self.program}@{self.preset}" + (f"[{flips}]" if flips else "")
                + f"x{self.inputs}")

    def known_answer(self) -> str | None:
        hit = KNOWN.get((self.program, self.spec().digest()))
        return hit[0] if hit else None


def run_analysis(a: Analysis, seed: int):
    """One analysis from source to verdict; returns the report, the lowered
    program, the argument dicts and the traces."""
    spec = a.spec()
    prog = corpus.load_program(a.program)
    mid, _ = passes.run_pipeline(prog, spec)
    low, _ = backend.lower(mid, backend.PROFILES[spec.backend],
                           spec.cmov_conversion)
    args = tracer.gen_inputs(low, count=a.inputs, seed=seed).arg_dicts()
    traces = [tracer.execute(low, x) for x in args]
    report = leaks.compare_traces(traces, low.function().id_to_loc(),
                                  spec.digest())
    return report, low, args, traces


def check_analysis(a: Analysis, report, low, args, traces) -> str | None:
    """A known answer the verdict contradicts, or a lowered program whose
    result or memory differs from the unoptimized source on the same
    inputs; None when neither."""
    answer = a.known_answer()
    if answer is not None and not verdict_ok(answer,
                                             [f.kind for f in report.findings]):
        return f"{a.label}: verdict contradicts known answer {answer!r}"
    source = corpus.load_program(a.program)
    for x, got in zip(args, traces):
        want = tracer.execute(source, x)
        if got.result != want.result or got.memory != want.memory:
            return f"{a.label}: lowered program differs from source on {x}"
    return None


def analysis_digest(a: Analysis, seed: int, report, low) -> str:
    findings = [(f.instr, f.kind, f.loc.file, f.loc.line, f.witness)
                for f in report.findings]
    text = repr((a.label, seed, report.program, report.pipeline, findings))
    return hashlib.sha256((text + "\n" + print_ir(low)).encode()).hexdigest()


@dataclass
class Pass:
    samples: list[float | None]  # seconds per analysis; None when it raised
    digests: list[str | None]    # per analysis; None when it raised
    failures: dict[int, str]     # analysis index -> what went wrong

    @property
    def wall(self) -> float:
        """Seconds for the pass: its analyses back to back."""
        return sum(s for s in self.samples if s is not None)


def run_pass(analyses, seed: int, check: bool = False,
             between=lambda: None) -> Pass:
    """Run every analysis once, calling ``between`` before each, outside
    its timer.  With ``check`` each verdict is checked against its known answer
    and each lowered program against its source, also untimed; digests are
    taken after the pass."""
    samples, kept, failures = [], [], {}
    for i, a in enumerate(analyses):
        between()
        t0 = time.perf_counter()
        try:
            report, low, args, traces = run_analysis(a, seed)
        except Exception as exc:  # one failed analysis must not end the run
            failures[i] = f"{a.label}: {type(exc).__name__}: {exc}"
            samples.append(None)
            kept.append(None)
            continue
        samples.append(time.perf_counter() - t0)
        kept.append((report, low))
        if check:
            problem = check_analysis(a, report, low, args, traces)
            if problem:
                failures[i] = problem
        del args, traces
    digests = [analysis_digest(a, seed, *k) if k else None
               for a, k in zip(analyses, kept)]
    return Pass(samples, digests, failures)


def _matrix_rows(program: str, indices, inputs: int) -> list[Analysis]:
    return [Analysis(program, MATRIX["preset"], inputs,
                     tuple(zip(MATRIX["vary"], MATRIX["rows"][i])))
            for i in indices]


# Every corpus program under every preset: the everyday study.
SWEEP = [Analysis(p, s, 16) for s in PRESETS for p in PROGRAMS]

# Constant-time configurations at wide input counts: every trace is equal,
# so compare_traces scans every pair to the end.
WIDE_CLEAN = [
    Analysis("poly_frommsg", "baseline-off", 64),
    Analysis("poly_frommsg", "gcc13-O3", 64),
    Analysis("poly_frommsg", "llvm18-O3-mitig", 64),
    Analysis("path_splitting_toy", "baseline-off", 256),
    *_matrix_rows("rsa_bearssl_lookup", (5, 6), 16),
    *_matrix_rows("ecdsa_bearssl_lookup", (1, 4, 5, 6), 16),
]

# Leaky configurations at wide input counts: traces are distinct and part
# early, so execute dominates and compare_traces stops soon in each pair.
WIDE_LEAKY = [
    Analysis("poly_frommsg", "llvm18-O3", 128),
    Analysis("poly_frommsg", "i386-O3", 128),
    Analysis("poly_frommsg", "toy-novec-nounroll", 128),
    Analysis("path_splitting_toy", "gcc13-O3", 256),
    Analysis("fig1b_load", "baseline-off", 256),
]

IN_PROCESS = {"sweep": SWEEP, "wide-clean": WIDE_CLEAN, "wide-leaky": WIDE_LEAKY}


# ----------------------------------------------------------------------
# The cli workload: one ``python -m ctlab.cli`` process per call
# ----------------------------------------------------------------------

# analyze runs each corpus entry under a preset whose verdict is known.
_CLI_ANALYZE = (
    ("fig1a_branch", "baseline-off"), ("fig1b_load", "baseline-off"),
    ("fig1c_ctselect", "baseline-off"), ("fig1d_ctlookup", "baseline-off"),
    ("rsa_bearssl_lookup", "llvm18-O3"), ("ecdsa_bearssl_lookup", "llvm18-O3"),
    ("poly_frommsg", "baseline-off"), ("loop_unswitch_toy", "gcc13-O3"),
    ("jump_threading_toy", "gcc13-O3"), ("path_splitting_toy", "gcc13-O3"),
)
_CLI_MATRIX = ("rsa_bearssl_lookup", "ecdsa_bearssl_lookup")
_CLI_DIFF = ("loop_unswitch_toy", "baseline-off", "gcc13-O3")


def _answer(program: str, preset_name: str) -> str:
    return KNOWN[(program, preset(preset_name).spec.digest())][0]


def cli_calls(seed: int) -> list[tuple[list[str], object]]:
    """``(argv, check)`` per invocation; ``check(rc, stdout)`` returns a
    problem or None."""
    common = ["--json", "--seed", str(seed)]
    calls = []
    for program, preset_name in _CLI_ANALYZE:
        calls.append((["analyze", program, "--preset", preset_name, *common],
                      _check_analyze(_answer(program, preset_name))))
    for program in _CLI_MATRIX:
        calls.append((["matrix", program, *common],
                      _check_matrix(MATRIX["clean"][program])))
    program, a, b = _CLI_DIFF
    calls.append((["diff", program, a, b, *common],
                  _check_diff(_answer(program, a), _answer(program, b))))
    return calls


def _check_analyze(answer: str):
    def check(rc, out):
        kinds = [f["kind"] for f in json.loads(out)["findings"]]
        if rc != (2 if kinds else 0) or not verdict_ok(answer, kinds):
            return f"exit {rc}, findings {kinds}, known answer {answer!r}"
        return None
    return check


def _check_matrix(clean: list[bool]):
    want = [dict(zip(MATRIX["vary"], row)) for row in MATRIX["rows"]]

    def check(rc, out):
        rows = json.loads(out)["rows"]
        got = [r["toggles"] for r in rows]
        verdicts = [r["clean"] for r in rows]
        if got != want or verdicts != clean or rc != (0 if all(clean) else 2):
            return f"exit {rc}, rows {verdicts}, known answer {clean}"
        return None
    return check


def _check_diff(answer_a: str, answer_b: str):
    def check(rc, out):
        diff = json.loads(out)
        problems = []
        if answer_a == "clean" and diff["removed_lines"]:
            problems.append("lines removed from a clean report")
        if answer_b == "clean" and diff["added_lines"]:
            problems.append("lines added to a clean report")
        if (answer_a == "clean" and answer_b in ("leaky", "cf-leak")
                and not diff["added_lines"]):
            problems.append("no lines added by a leaky pipeline")
        changed = bool(diff["added_lines"] or diff["removed_lines"])
        if rc != (2 if changed else 0):
            problems.append(f"exit {rc}")
        return "; ".join(problems) or None
    return check


def entries_used(workload: str) -> list[str]:
    """Corpus entries a workload touches, which set-up self-checks."""
    if workload == "cli":
        return list(PROGRAMS)
    return sorted({a.program for a in IN_PROCESS[workload]})
