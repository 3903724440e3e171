"""Constant-time compiler laboratory.

A small SSA IR, a tracer that runs a program as generated Python
written from the IR's opcode expressions and whose traces expose branch
directions and memory addresses, a set of optimization passes modeled
after the ones that break constant-time code, two backend profiles, a leak
checker that diffs traces across secret inputs, a benchmark corpus, and
named presets tying it all to real compiler flag sets.  ``analyze`` runs
one program through one pipeline end to end.
"""

from .analysis import Analysis, analyze
from .backend import PROFILES, BackendProfile, LoweringError, lower
from .cfg import CountedLoop, Loop, counted_loop_info, natural_loops
from .corpus import CorpusEntry, CorpusError, entries, get, load_program
from .ir import (
    Function,
    GlobalArray,
    Instruction,
    IRError,
    Param,
    Program,
    SourceLoc,
    copy_program,
    parse_ir,
    print_ir,
    validate,
)
from .leaks import (
    CONTROL_FLOW,
    MEMORY_ACCESS,
    LeakFinding,
    LeakReport,
    ReportDiff,
    compare_traces,
    diff_reports,
)
from .mitigations import FlagPreset, PRESETS, emit_real_flags, preset
from .passes import (
    InternalPassError,
    PassLogEntry,
    PipelineSpec,
    run_pipeline,
)
from .tracer import InputSet, Trace, TraceError, execute, gen_inputs

__version__ = "0.1.0"

__all__ = [
    "Analysis", "BackendProfile", "CONTROL_FLOW", "CorpusEntry",
    "CorpusError", "CountedLoop", "FlagPreset", "Function", "GlobalArray",
    "IRError", "InputSet", "Instruction", "InternalPassError", "LeakFinding",
    "LeakReport", "Loop", "LoweringError", "MEMORY_ACCESS", "PROFILES",
    "PRESETS", "Param", "PassLogEntry", "PipelineSpec", "Program",
    "ReportDiff", "SourceLoc", "Trace", "TraceError", "analyze",
    "compare_traces", "copy_program", "counted_loop_info", "diff_reports",
    "emit_real_flags", "entries", "execute", "gen_inputs", "get",
    "load_program", "lower", "natural_loops", "parse_ir", "preset",
    "print_ir", "run_pipeline", "validate", "__version__",
]
