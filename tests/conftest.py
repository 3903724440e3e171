"""Helpers shared by the test modules."""

import gc
import time

from ctlab import backend, ir, passes, tracer


def start_cold() -> None:
    """Empty every memo of the process: the control-flow facts, the
    tracer's translations and input sets, the pipeline states and the
    lowerings.  What a test counts after this runs in full."""
    for memo in (ir._control_flow, tracer._translations, tracer._inputs,
                 passes._states, backend._lowered):
        memo.clear()


def count_walks(monkeypatch) -> list:
    """Start cold; the list gets each program that ``validate`` walks from
    then on: each program that ``ir.freeze`` checks."""
    walks = []
    real = ir.validate
    monkeypatch.setattr(ir, "validate",
                        lambda prog: walks.append(prog) or real(prog))
    start_cold()
    return walks


def count_draws(monkeypatch) -> list:
    """Start cold; the list gets the arguments of each input set that
    ``gen_inputs`` draws from then on."""
    draws = []
    real = tracer._draw
    monkeypatch.setattr(tracer, "_draw",
                        lambda *a: draws.append(a) or real(*a))
    start_cold()
    return draws


def best_times(prepare, small: int, large: int) -> list[tuple]:
    """``(best time, last result)`` of a call at ``small`` and at ``large``.

    ``prepare(n)`` sets up one call at size ``n`` and returns it, untimed.
    The two sizes run alternately, five calls each, so that a slow spell of
    the machine falls on both; each call runs with the collector off,
    after a collection, so that none is timed."""
    best, last = {small: float("inf"), large: float("inf")}, {}
    for _ in range(5):
        for n in (small, large):
            call = prepare(n)
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                last[n] = call()
                best[n] = min(best[n], time.perf_counter() - start)
            finally:
                gc.enable()
    return [(best[n], last[n]) for n in (small, large)]
