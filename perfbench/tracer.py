"""Span tracing from outside the library, by wrapping its public functions.

A wrapper replaces a function at every module attribute the solver calls it
through (``setgames.equilibrium.attacker_oracle``,
``setgames.oracles.partition_support``, ``setgames.compact.moebius``, ...),
records a span ``(name, start, end, parent)`` in memory, and updates counts
taken at the same boundary. :func:`traced` installs the wrappers and always
restores the original functions.

A span's self time is its duration minus the time its child spans cover.
Calls are single-threaded and nest, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.widest_component = 0
        self._stack: list[int] = []

    def parent_name(self, parent: int) -> str | None:
        return self.spans[parent][0] if parent >= 0 else None

    def wrap(self, name, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[2] = perf_counter()
                self._stack.pop()
                if on_error is not None:
                    on_error(self)
                raise
            span[2] = perf_counter()
            self._stack.pop()
            if on_result is not None:
                on_result(self, parent, args, result)
            return result

        return wrapper

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: total self time in seconds and the number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[name][0] += end - start - inner
            out[name][1] += 1
        return {name: (s, calls) for name, (s, calls) in out.items()}

    def dump(self, path) -> None:
        """Write spans and counts as JSON, start times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


# --- counts taken at span boundaries -----------------------------------------


def _lp_cells(tracer, parent, args, result):
    game = args[0]
    shape = np.shape(getattr(game, "matrix", game))
    tracer.counts["lp.cells"] += int(shape[0]) * int(shape[1])


def _lp_failure(tracer):
    tracer.counts["lp.failures"] += 1


def _oracle_call(tracer, parent, args, result):
    if tracer.parent_name(parent) == "equilibrium.solve_compact":
        tracer.counts["equilibrium.oracle_calls"] += 1


def _masks(tracer, parent, args, result):
    if tracer.parent_name(parent) == "oracles.attacker_oracle":
        tracer.counts["oracles.attacker_oracle.candidates"] += len(result)


def _support(tracer, parent, args, result):
    if tracer.parent_name(parent) == "equilibrium.solve_compact":
        tracer.counts["compact.support_size"] += result.support.size


def _components(tracer, parent, args, result):
    tracer.counts["network.components"] += len(result.components)
    for component in result.components:
        union = 0
        for mask in component:
            union |= mask
        tracer.widest_component = max(tracer.widest_component, union.bit_count())


# (span name, defining module, attribute, modules whose binding is wrapped or
#  None for every setgames module that binds the function, result hook,
#  error hook)
LAYERS = (
    ("network.induce_benefit", "setgames.network", "induce_benefit", None, None, None),
    ("network.separable_approximation", "setgames.network", "separable_approximation",
     None, _components, None),
    ("setfunctions.moebius", "setgames.setfunctions", "moebius", None, None, None),
    ("setfunctions.zeta", "setgames.setfunctions", "zeta", None, None, None),
    ("compact.build_compact_game", "setgames.compact", "build_compact_game", None,
     _support, None),
    ("compact.compact_value", "setgames.compact", "compact_value", None, None, None),
    ("equilibrium.caratheodory", "setgames.compact", "caratheodory_decompose", None,
     None, None),
    ("lp.solve_matrix_game", "setgames.lp", "solve_matrix_game", None, _lp_cells,
     _lp_failure),
    ("oracles.attacker_oracle", "setgames.oracles", "attacker_oracle", None,
     _oracle_call, None),
    ("oracles.defender_oracle", "setgames.oracles", "defender_oracle", None,
     _oracle_call, None),
    ("oracles.partition_support", "setgames.oracles", "partition_support", None,
     None, None),
    ("oracles.solve_separable", "setgames.oracles", "solve_separable", None, None, None),
    # Only the oracle's own binding: the transforms and benefit induction call
    # the same helper for other work.
    ("oracles.masks_up_to_size", "setgames.bits", "masks_up_to_size",
     ("setgames.oracles",), _masks, None),
    ("equilibrium.solve_compact", "setgames.equilibrium", "solve_compact", None, None,
     None),
    ("equilibrium.best_response_gap", "setgames.equilibrium", "best_response_gap", None,
     None, None),
)


def _bindings(fn, modules):
    names = modules or [m for m in sys.modules if m == "setgames" or m.startswith("setgames.")]
    for module_name in names:
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if value is fn:
                yield module, attr


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers of :data:`LAYERS` for the duration of the block."""
    saved = []
    try:
        for name, home, attr, modules, on_result, on_error in LAYERS:
            fn = getattr(sys.modules[home], attr)
            wrapper = tracer.wrap(name, fn, on_result, on_error)
            for module, binding in list(_bindings(fn, modules)):
                saved.append((module, binding, fn))
                setattr(module, binding, wrapper)
        yield tracer
    finally:
        for module, binding, fn in reversed(saved):
            setattr(module, binding, fn)
