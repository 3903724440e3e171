"""Helpers shared by the test modules."""

from ctlab import backend, ir, passes, tracer


def start_cold() -> None:
    """Empty every memo of the process: ``validate``'s messages, the
    control-flow facts, the tracer's translations, the pipeline states and
    the lowerings.  What a test counts after this runs in full."""
    for memo in (ir._errors, ir._control_flow, tracer._translations,
                 passes._states, backend._lowered):
        memo.clear()
