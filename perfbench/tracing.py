"""Span tracer that wraps cachegame's public functions from outside the package.

A function imported by name (``from .rate import legit_rate``) is a separate
reference in the importing module, so patching only the defining module would
miss internal calls.  `Tracer.patch` therefore replaces every reference to a
wrapped function in every cachegame module namespace and in module-level dicts
(the CLI dispatches through ``COMMANDS``), and restores them all on exit.

Spans are kept in memory as (name, start, end, parent, op, note) records.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("model", "geometry", "rate", "game", "simulator", "cli")


def _instance_key(args, kwargs, result):
    """Identity of one equilibrium instance: alpha, M, popularity, gamma, tol."""
    cfg = args[0] if args else kwargs["cfg"]
    tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-7)
    return (cfg.alpha, cfg.cache_size, cfg.popularity.probs.tobytes(),
            cfg.coverage.gamma.tobytes(), tol)


# per-span notes: work done, read from the call's arguments or result
NOTES = {
    "game.equilibrium_placement": _instance_key,
    "geometry.coverage_areas_unit_cell": lambda args, kwargs, result: result.samples,
    "simulator.simulate": lambda args, kwargs, result: result.requests,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    note: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around cachegame's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> None:
        """Start a new user request; its spans share the op number."""
        self.op += 1

    def _wrap(self, name, func):
        note = NOTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Wrap every public function of every layer while the block runs."""
        modules = [sys.modules["cachegame"]] + [
            sys.modules[f"cachegame.{layer}"] for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cachegame.{layer}"]
            for attr, func in vars(module).items():
                if (inspect.isfunction(func) and not attr.startswith("_")
                        and func.__module__ == module.__name__):
                    wrappers[func] = self._wrap(f"{layer}.{attr}", func)
        undo = []
        for module in modules:
            namespaces = [vars(module)] + [
                value for value in vars(module).values() if isinstance(value, dict)]
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        undo.append((namespace, key, value))
                        namespace[key] = wrappers[value]
        try:
            yield self
        finally:
            for namespace, key, value in reversed(undo):
                namespace[key] = value


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_entries(spans: list[Span], layer: str) -> list[Span]:
    """Spans of a layer whose caller is outside that layer."""
    return [span for span in spans if span.layer == layer
            and (span.parent is None or spans[span.parent].layer != layer)]
