"""Span tracer for the benchmark's traced pass.

The tracer wraps library functions from the outside: no file of the
package changes.  `channel`, `floquet`, `propagate` and `scan` bind names
with ``from .x import f``, so a call like ``single_period_propagator(...)``
inside `channel` goes through `channel`'s own module global, not through
`propagate`'s.  `instrument` therefore rebinds every module-level alias of
a wrapped function in every loaded ``freezegate`` module, and restores
them all on exit.

Spans are (name, start, end, parent) tuples kept in memory; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

#: The functions the traced pass wraps, by module.  These are the layers'
#: public entry points named by the per-layer metrics, plus the roots the
#: workloads call (`fidelity_report`, `avg_fidelity_haar`), plus
#: `auto_bracket` and `off_ratio` so that their time is not charged to the
#: self time of their callers (`solve_omega_d_on`, `evaluate_point`,
#: `fidelity_report`).
TRACED = {
    "pauli": ("lab_static",),
    "dressed": (
        "solve_omega_d_on",
        "auto_bracket",
        "signed_detuning",
        "effective_model",
        "off_ratio",
    ),
    "propagate": (
        "interval_propagator",
        "single_period_propagator",
        "total_propagator",
        "export_trajectory",
    ),
    "floquet": ("floquet_spectrum", "principal_quasienergies", "dressed_product_basis"),
    "channel": (
        "extract_channel",
        "compensation_gates",
        "haar_average_fidelity",
        "avg_fidelity_haar",
        "modulator_return",
        "fidelity_report",
    ),
    "scan": ("evaluate_point", "run_scan"),
}

PACKAGE = "freezegate"


class Tracer:
    """In-memory span recorder with a call stack for parent links."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn recording one span per call; `count(tracer, args)` adds counters."""
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)

        return traced


def _count_steps(tracer: Tracer, args: dict) -> None:
    """Step exponentials requested by interval_propagator; magnus4 takes two per step."""
    if args["t1"] == args["t0"]:
        return
    tracer.counters["propagate.steps"] += args["nsteps"] * (2 if args["method"] == "magnus4" else 1)


COUNTERS = {"propagate.interval_propagator": _count_steps}


@contextlib.contextmanager
def instrument(tracer: Tracer, traced: dict = TRACED):
    """Rebind every alias of the traced functions in all loaded package modules."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }
    wrappers = {}
    for short, names in traced.items():
        mod = modules[f"{PACKAGE}.{short}"]
        for fname in names:
            original = getattr(mod, fname)
            qual = f"{short}.{fname}"
            wrappers[id(original)] = (original, tracer.wrap(qual, original, COUNTERS.get(qual)))
    patched = []
    try:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        yield tracer
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def layer_stats(spans: list[tuple[str, float, float, int]]) -> dict[str, dict[str, float]]:
    """Per-function calls, total_ms and self_ms from one list of spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    )
    for i, (name, start, end, parent) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        # A recursive call would be counted twice in total_ms; none of the
        # traced functions recurse, so the sum over calls is the busy time.
        s["total_ms"] += 1e3 * (end - start)
        s["self_ms"] += 1e3 * (end - start - child[i])
    return dict(stats)
