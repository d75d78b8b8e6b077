"""Span recorder for the traced benchmark run (standard library only).

A span is one call into a layer: name, start, end, parent span, optional
attributes taken from the call's result, and, when memory tracing is on,
the tracemalloc peak reached inside it.  Spans are recorded from the
benchmark's side only: ``instrument`` swaps the public functions and
methods of each rotwalk module for recording wrappers and restores the
originals afterwards.  The program itself is never edited.

A span's self time is its duration minus the time its direct children
cover.  Calls are single-threaded and strictly nested, so the children's
durations add up without overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# The layers are the modules of src/rotwalk/.
LAYERS = ("cli", "graphs", "rotmap", "operators", "walk", "solvers")


def _check_attrs(report) -> dict:
    return {"consistent": report.consistent, "violations": len(report.violations)}


def _outcome_attrs(outcome) -> dict:
    return {
        "method": outcome.method,
        "status": outcome.status,
        "iterations": outcome.stats.iterations,
        "best_conflicts": outcome.stats.best_conflicts,
    }


# Counters read off a call's result at the layer boundary, by span name.
RESULT_ATTRS = {
    "rotmap.check_permutation_consistent": _check_attrs,
    "operators.unitarity_defect": lambda report: {"defect": report.defect},
    "solvers.solve": _outcome_attrs,
    "solvers.solve_permutation": _outcome_attrs,
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def peak_mb(self) -> float:
        """Peak traced memory above the span's starting level, in MB."""
        return (self.peak_bytes - self.base_bytes) / 1e6


class Tracer:
    """Keeps spans in memory; ``memory=True`` adds per-span tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, 0.0, parent)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent].peak_bytes = max(self.spans[parent].peak_bytes, peak)
            tracemalloc.reset_peak()
            record.base_bytes = record.peak_bytes = current
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                record.peak_bytes = max(record.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            if parent is not None:
                owner = self.spans[parent]
                owner.child_s += record.duration
                owner.peak_bytes = max(owner.peak_bytes, record.peak_bytes)

    def wrap(self, fn, name: str):
        hook = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if hook is not None:
                    record.attrs.update(hook(result))
                return result

        return wrapper

    # -- queries ---------------------------------------------------------

    def named(self, name: str, under: str | None = None, **attrs) -> list[Span]:
        """Spans called ``name`` (optionally below an ancestor named
        ``under``) whose attributes match ``attrs``."""
        found = []
        for s in self.spans:
            if s.name != name or any(s.attrs.get(k) != v for k, v in attrs.items()):
                continue
            if under is not None and under not in self.ancestors(s):
                continue
            found.append(s)
        return found

    def ancestors(self, s: Span) -> list[str]:
        names = []
        while s.parent is not None:
            s = self.spans[s.parent]
            names.append(s.name)
        return names

    def total(self, name: str, under: str | None = None, **attrs) -> float:
        return sum(s.duration for s in self.named(name, under, **attrs))

    def self_by_layer(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            if s.layer in totals:
                totals[s.layer] += s.self_s
        return totals

    def peak_mb(self, *names: str) -> float:
        return max((s.peak_mb for s in self.spans if s.name in names), default=0.0)


def _layer_targets(module, layer: str):
    """(owner, attribute, original, span name) for each public function and
    method the module defines.  Constructors count as methods: graph and
    map validation happens in them."""
    targets = []
    for attr, value in vars(module).items():
        if attr.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            targets.append((module, attr, value, f"{layer}.{attr}"))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for meth, raw in vars(value).items():
                if meth.startswith("_") and meth != "__init__":
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    targets.append((value, meth, raw, f"{layer}.{attr}.{meth}"))
    return targets


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer's public functions and methods, then restore them.

    A function that another module imported by name (``rotwalk.cli``
    imports ``parse_graph``, ``walk.run`` as ``run_walk`` and so on) is
    replaced in that module's namespace too, so calls made through the
    imported name are recorded.
    """
    modules = {layer: importlib.import_module(f"rotwalk.{layer}") for layer in LAYERS}
    package = [m for name, m in sys.modules.items() if name == "rotwalk" or name.startswith("rotwalk.")]
    saved = []
    by_identity = {}
    for layer, module in modules.items():
        for owner, attr, raw, name in _layer_targets(module, layer):
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(tracer.wrap(raw.__func__, name))
            else:
                replacement = tracer.wrap(raw, name)
                by_identity[id(raw)] = (raw, replacement)
            saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)
    for module in package:
        for attr, value in list(vars(module).items()):
            hit = by_identity.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


@contextmanager
def traced_memory():
    """Run the body under tracemalloc, leaving it as it was found."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        yield
    finally:
        if started:
            tracemalloc.stop()
