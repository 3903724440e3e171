"""One analysis: mid-end passes, lowering, differential tracing, trace diff.

``analyze`` is the one path from a parsed program and a pipeline spec to a
leak report; the CLI, the corpus self-check and the demos all go through
it.  The layer functions it calls stay public for callers that need one
stage on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import PROFILES, lower
from .ir import Program
from .leaks import LeakReport, compare_traces
from .passes import PassLogEntry, PipelineSpec, run_pipeline
from .tracer import execute, gen_inputs

__all__ = ["Analysis", "analyze"]


@dataclass
class Analysis:
    """What each stage of one analysis produced."""

    midend: Program                  # after the mid-end passes
    pass_log: list[PassLogEntry]
    lowered: Program                 # after instruction selection
    lower_log: list[PassLogEntry]
    report: LeakReport


def analyze(prog: Program, spec: PipelineSpec, inputs: int = 16,
            seed: int = 0) -> Analysis:
    """Run ``prog`` through ``spec``, lower it for ``spec.backend``, and
    diff its traces over ``inputs`` secret assignments drawn with ``seed``
    (fewer when the secret domain is smaller).  ``prog`` is not modified.
    """
    midend, pass_log = run_pipeline(prog, spec)
    lowered, lower_log = lower(midend, PROFILES[spec.backend],
                               spec.cmov_conversion)
    iset = gen_inputs(lowered, count=inputs, seed=seed)
    traces = [execute(lowered, args) for args in iset.arg_dicts()]
    report = compare_traces(traces, lowered.function().id_to_loc(),
                            spec.digest())
    report.seed = seed
    report.inputs = len(iset)
    return Analysis(midend, pass_log, lowered, lower_log, report)
