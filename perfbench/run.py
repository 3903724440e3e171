"""ctlab's benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout; nothing needs installing.  It
puts ``src`` first on its own path and on PYTHONPATH of every child, and
exits with code 2 and no result when the checkout has no ``src/ctlab``.

With ``--trace 0`` the run measures set-up (fresh interpreters that import
ctlab and self-check the workload's corpus entries), checks one pass of
the workload against the known answers, then times passes for
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
times one untraced and one traced copy of the CLI start-up probe, the
set-up and a pass, and reports per-layer metrics from the traced copy.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, the sample
counts and the digest of the workload's reports and lowered IR.
README.md next to this file explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "wide-clean", "wide-leaky", "cli")
SETUP_STARTS = 7        # fresh interpreters per run; set-up is their median
MIN_PASSES = 3          # timed passes per run, even past --seconds
CHILD_TIMEOUT = 150


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion; returns its wall time and the result."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    return time.perf_counter() - start, proc


def spawn_ok(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    wall, proc = spawn(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return wall, proc


def setup_cmd(entries: list[str], trace: bool) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), "setup",
            *(["--trace"] if trace else []), *entries]


def cli_cmd(argv: list[str], trace: bool) -> list[str]:
    if trace:
        return [sys.executable, str(HERE / "child.py"), "cli", *argv]
    return [sys.executable, "-m", "ctlab.cli", *argv]


# The cheapest CLI command: a fresh import of ctlab.cli with no self-check.
PROBE = ["corpus", "list"]


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def cli_pass(seed: int, trace: bool, between=lambda: None):
    """One pass of the cli workload; every output is checked.  Returns the
    pass and, when traced, ``(trace, wall)`` and import time per child."""
    from workloads import Pass, cli_calls

    samples, digests, failures, traced, imports = [], [], {}, [], []
    for i, (argv, check) in enumerate(cli_calls(seed)):
        between()
        wall, proc = spawn(cli_cmd(argv, trace))
        samples.append(wall)
        rc, out = proc.returncode, proc.stdout
        if trace and rc == 0:
            payload = json.loads(out)
            rc, out = payload["rc"], payload["stdout"]
            traced.append((payload["trace"], wall))
            imports.append(payload["import_s"])
        try:
            problem = check(rc, out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output ({exc}); stderr {proc.stderr[-500:]!r}"
        if problem:
            failures[i] = f"ctlab {' '.join(argv)}: {problem}"
        digests.append(hashlib.sha256(
            repr((argv, rc, out)).encode()).hexdigest())
    return Pass(samples, digests, failures), traced, imports


def digest(digests) -> str:
    """One digest for a workload's reports and lowered IR."""
    return hashlib.sha256("".join(map(str, digests)).encode()).hexdigest()


def pass_failures(p, ref, label: str) -> list[str]:
    """One problem per failed analysis of pass ``p``: its own, or a report
    or lowered IR that differs from the reference pass's."""
    problems = {i: f"{label}: analysis {i} gave a different report or "
                   f"lowered IR" for i, (a, b) in enumerate(zip(ref, p.digests))
                if b is not None and a != b}
    problems.update(p.failures)
    return list(problems.values())


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------

def untraced_run(workload: str, seed: int, seconds: float):
    import workloads
    from speed import Speed

    speed = Speed()
    between_children = lambda: [speed.sample(force=True)  # noqa: E731
                                for _ in range(2)]
    entries = workloads.entries_used(workload)
    mark = speed.mark()
    setup = []
    for _ in range(SETUP_STARTS):
        between_children()
        setup.append(spawn_ok(setup_cmd(entries, False))[0])
    between_children()
    setup_factor = speed.factor(mark)

    failures: list[str] = []
    if workload == "cli":
        ref = None
        run_one = lambda: cli_pass(seed, False, between_children)[0]  # noqa: E731
        size = len(workloads.cli_calls(seed))
        attempted = 0
    else:
        analyses = workloads.IN_PROCESS[workload]
        first = workloads.run_pass(analyses, seed, check=True)
        failures += first.failures.values()
        ref = first.digests
        run_one = lambda: workloads.run_pass(  # noqa: E731
            analyses, seed, between=speed.sample)
        size = len(analyses)
        attempted = size

    passes = []         # (pass, speed factor while it ran)
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        mark = speed.mark()
        p = run_one()
        ref = ref or p.digests
        failures += pass_failures(p, ref, f"pass {len(passes) + 1}")
        passes.append((p, speed.factor(mark)))
    attempted += size * len(passes)

    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    # Each analysis's time to a verdict is its median over the timed passes.
    raw = per_analysis(passes, corrected=False)
    samples = per_analysis(passes, corrected=True)
    metrics = {
        "setup_s": (statistics.median(setup) * setup_factor, "s"),
        "wall_s": (statistics.median(p.wall * f for p, f in passes), "s"),
        "analysis_p50_ms": (1000 * statistics.median(samples), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    info = {
        "samples": {"setup_s": len(setup), "wall_s": len(passes),
                    "analysis_p50_ms": len(samples),
                    "speed_slices": len(speed.slices)},
        "raw": {"setup_s": statistics.median(setup),
                "wall_s": statistics.median(p.wall for p, _ in passes),
                "analysis_p50_ms": 1000 * statistics.median(raw)},
        "speed_factors": {"setup": setup_factor,
                          "passes": [f for _, f in passes]},
        "digest": digest(ref),
    }
    if len(samples) >= 100:
        # The 90th percentile has at least ten samples beyond it.
        info["analysis_p90_ms"] = 1000 * statistics.quantiles(samples, n=10)[-1]
    return metrics, attempted, failures, info


def per_analysis(passes, corrected: bool) -> list[float]:
    """Each analysis's median time over the passes, sorted; ``corrected``
    applies each pass's speed factor."""
    out = []
    for i in range(len(passes[0][0].samples)):
        col = [p.samples[i] * (f if corrected else 1.0) for p, f in passes
               if p.samples[i] is not None]
        if col:
            out.append(statistics.median(col))
    return sorted(out)


def traced_run(workload: str, seed: int):
    import spans
    import workloads
    from speed import Speed

    speed = Speed()
    between_children = lambda: [speed.sample(force=True)  # noqa: E731
                                for _ in range(2)]
    entries = workloads.entries_used(workload)
    failures: list[str] = []
    if workload != "cli":
        analyses = workloads.IN_PROCESS[workload]
        ref = workloads.run_pass(analyses, seed, check=True)
        failures += ref.failures.values()

    # Untraced copies of everything traced below, for the overhead.
    mark = speed.mark()
    between_children()
    untraced_wall = spawn_ok(cli_cmd(PROBE, False))[0]
    between_children()
    untraced_wall += spawn_ok(setup_cmd(entries, False))[0]
    if workload == "cli":
        ref = untraced = cli_pass(seed, False, between_children)[0]
        failures += ref.failures.values()
        attempted = 2 * len(ref.digests)
    else:
        untraced = workloads.run_pass(analyses, seed, between=speed.sample)
        failures += pass_failures(untraced, ref.digests, "untraced pass")
        attempted = 3 * len(ref.digests)
    untraced_wall = (untraced_wall + untraced.wall) * speed.factor(mark)

    mark = speed.mark()
    processes = []      # (trace, wall) per traced process or pass
    between_children()
    wall, proc = spawn_ok(cli_cmd(PROBE, True))
    probe = json.loads(proc.stdout)
    processes.append((probe["trace"], wall))
    imports = [probe["import_s"]]
    between_children()
    wall, proc = spawn_ok(setup_cmd(entries, True))
    processes.append((json.loads(proc.stdout)["trace"], wall))
    if workload == "cli":
        traced, children, child_imports = cli_pass(seed, True, between_children)
        processes += children
        imports += child_imports
    else:
        rec = spans.Recorder()
        undo = spans.install(rec)
        try:
            traced = workloads.run_pass(analyses, seed, between=speed.sample)
        finally:
            spans.uninstall(undo)
        processes.append((rec.export(), traced.wall))
    failures += pass_failures(traced, ref.digests, "traced pass")
    metrics = layer_metrics(processes, imports, untraced_wall,
                            speed.factor(mark))
    return metrics, attempted, failures, {"samples": {"traced_passes": 1},
                                          "digest": digest(ref.digests)}


def layer_metrics(processes, imports, untraced_wall: float,
                  factor: float) -> dict:
    """Per-layer metrics from the spans of every traced process; every
    time is multiplied by the speed ``factor`` of the traced copy."""
    import spans

    own, groups, counts, calls = {}, {}, {}, {}
    covered = wall = 0.0
    for trace, process_wall in processes:
        summary = spans.account(trace)
        for into, add, scale in ((own, summary["self"], factor),
                                 (groups, summary["groups"], factor),
                                 (counts, trace["counts"], 1),
                                 (calls, trace["calls"], 1)):
            for k, v in add.items():
                into[k] = into.get(k, 0) + v * scale
        covered += summary["covered"] * factor
        wall += process_wall * factor

    def g(name):
        return groups.get(name, 0.0)

    m = {f"{layer}.self_s": (own.get(layer, 0.0), "s") for layer in spans.LAYERS}
    import ctlab.passes
    for p in ctlab.passes.PASS_ORDER:
        m[f"passes.{p}_s"] = (g(f"passes.{p}"), "s")
    execute_s, compare_s = g("tracer.execute"), g("leaks.compare")
    c = counts.get
    m.update({
        "passes.cleanup_s": (g("passes.cleanup"), "s"),
        "passes.cleanup_calls": (calls.get("passes.cleanup", 0), "count"),
        "passes.applications": (c("passes.applications", 0), "count"),
        "passes.changed": (c("passes.changed", 0), "count"),
        "passes.instrs_out": (c("passes.instrs_out", 0), "count"),
        "ir.parse_s": (g("ir.parse"), "s"),
        "ir.validate_s": (g("ir.validate"), "s"),
        "ir.copy_s": (g("ir.copy"), "s"),
        "cfg.natural_loops_s": (g("cfg.natural_loops"), "s"),
        "cfg.counted_loop_s": (g("cfg.counted_loop"), "s"),
        "cfg.calls": (calls.get("cfg.natural_loops", 0)
                      + calls.get("cfg.counted_loop", 0), "count"),
        "backend.lower_s": (g("backend.lower"), "s"),
        "backend.selects_branched": (c("backend.selects_branched", 0), "count"),
        "backend.cmovs": (c("backend.cmovs", 0), "count"),
        "tracer.gen_inputs_s": (g("tracer.gen_inputs"), "s"),
        "tracer.execute_s": (execute_s, "s"),
        "tracer.traces": (c("tracer.traces", 0), "count"),
        "tracer.steps": (c("tracer.steps", 0), "count"),
        "tracer.events": (c("tracer.events", 0), "count"),
        "tracer.steps_per_s": (c("tracer.steps", 0) / execute_s
                               if execute_s else 0.0, "1/s"),
        "leaks.compare_s": (compare_s, "s"),
        "leaks.pairs": (c("leaks.pairs", 0), "count"),
        "leaks.pairs_per_s": (c("leaks.pairs", 0) / compare_s
                              if compare_s else 0.0, "1/s"),
        "leaks.distinct_frac": (c("leaks.distinct", 0) / c("leaks.traces", 1),
                                "ratio"),
        "leaks.findings": (c("leaks.findings", 0), "count"),
        "corpus.selfcheck_s": (g("corpus.selfcheck"), "s"),
        "corpus.selfchecks": (calls.get("corpus.selfcheck", 0), "count"),
        "cli.startup_s": (statistics.median(imports) * factor, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": ((wall - untraced_wall) / untraced_wall, "ratio"),
        "trace.uncovered_s": (wall - covered, "s"),
        "trace.hooks_s": (own.get("hooks", 0.0), "s"),
    })
    return m


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:     # no git on this machine
            pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "commit": commit, "seed": seed,
            "cpu": sorted(os.sched_getaffinity(0))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctlab" / "__init__.py").is_file():
        print(f"error: no ctlab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every child, so the calibration slices
    # time the CPU the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import ctlab.cli  # compiles the package once, before any child starts
    if Path(ctlab.__file__).resolve().parent != SRC / "ctlab":
        print(f"error: imported ctlab from {ctlab.__file__}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failures, info = traced_run(args.workload, args.seed)
    else:
        metrics, attempted, failures, info = untraced_run(
            args.workload, args.seed, args.seconds)
    info.update({"workload": args.workload, "seconds": args.seconds,
                 "trace": args.trace, "env": environment(args.seed),
                 "failed_frac": len(failures) / attempted,
                 "failures": failures[:20]})
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
