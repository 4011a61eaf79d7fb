"""Spans around the public entry points of each layer of the program.

The traced run wraps the functions and methods below from outside the
program: each call records a span (layer name, start and end in
monotonic nanoseconds, the enclosing span) and, for some layers, a few
counters read from the call's arguments or result.  A span's *self*
time is its duration minus the time of the spans nested in it, so the
layer table adds up without double counting.

``perf_counter_ns`` reads ``CLOCK_MONOTONIC`` on Linux, which is shared
by all processes, so spans recorded in the server process can be placed
on the client's time line.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

class Span:
    __slots__ = ("name", "start", "end", "parent", "child_ns", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0
        self.end = 0
        self.child_ns = 0
        self.attrs: dict = {}

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """In-memory spans and counters, written out when the run ends."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    def wrap(self, name, fn, *, before=None, after=None):
        """``fn`` recording a ``name`` span per call.

        ``before(args)`` runs ahead of the call and its value is passed
        on; ``after(tracer, span, args, result, value)`` records counters
        and span attributes once the call returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, stack[-1] if stack else None)
            value = before(args) if before is not None else None
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
                with tracer._lock:
                    tracer.spans.append(span)
            if after is not None:
                after(tracer, span, args, result, value)
            return result

        return traced

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def rows(self) -> list:
        """``[name, start_ns, end_ns, self_ns, top_level, attrs]`` per span."""
        return [
            [s.name, s.start, s.end, s.self_ns, s.parent is None, s.attrs]
            for s in self.spans
        ]

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"spans": self.rows(), "counters": dict(self.counters)})
        )


class SpanLog:
    """Finished spans (from a live tracer or a dump) and their counters."""

    def __init__(self, rows: list, counters: dict):
        self.rows = rows
        self.counters = Counter(counters)

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanLog":
        return cls(tracer.rows(), tracer.counters)

    @classmethod
    def load(cls, path: Path) -> "SpanLog":
        doc = json.loads(path.read_text())
        return cls(doc["spans"], doc["counters"])

    def select(self, name: str, since: int = 0, until: int | None = None):
        return [row for row in self.select_all(since, until) if row[0] == name]

    def total_s(self, name: str, since: int = 0, until: int | None = None) -> float:
        """Time inside ``name`` calls, nested layers included."""
        return sum(row[2] - row[1] for row in self.select(name, since, until)) / 1e9

    def self_s(self, name: str, since: int = 0, until: int | None = None) -> float:
        """Time inside ``name`` calls, nested layers excluded."""
        return sum(row[3] for row in self.select(name, since, until)) / 1e9

    def table(self, since: int = 0, until: int | None = None) -> str:
        """The layer table: calls, total and self seconds per layer."""
        names = sorted({row[0] for row in self.select_all(since, until)})
        lines = [f"{'layer':<24}{'calls':>8}{'total_s':>12}{'self_s':>12}"]
        for name in names:
            rows = self.select(name, since, until)
            lines.append(
                f"{name:<24}{len(rows):>8}"
                f"{self.total_s(name, since, until):>12.4f}"
                f"{self.self_s(name, since, until):>12.4f}"
            )
        return "\n".join(lines)

    def select_all(self, since: int = 0, until: int | None = None):
        return [
            row
            for row in self.rows
            if row[1] >= since and (until is None or row[1] <= until)
        ]

    def covered_s(self, since: int, until: int) -> float:
        """Time the top-level spans inside ``[since, until]`` account for."""
        return (
            sum(
                row[2] - row[1]
                for row in self.rows
                if row[4] and row[1] >= since and row[2] <= until
            )
            / 1e9
        )


# -- the wrapped entry points -------------------------------------------------


def _census(tracer, span, args, ruleset, value) -> None:
    for compiled in ruleset:
        tracer.count(f"compiler.units.{compiled.mode.value.lower()}")
    tracer.count("compiler.rejected", len(ruleset.rejected))


def _arrays(tracer, span, args, mapping, value) -> None:
    tracer.count("mapping.arrays", len(mapping.arrays))


def _native_target_exists(args) -> bool:
    from repro.core.native import source_key
    from repro.engine.cache import default_cache_dir

    return (default_cache_dir() / "native" / f"{source_key(args[0])}.so").exists()


def _native_built(tracer, span, args, lib, existed) -> None:
    if not existed:
        tracer.count("core.native_builds")


def _checkpoint(tracer, span, args, path, value) -> None:
    tracer.count("engine.checkpoints")
    span.attrs["bytes"] = path.stat().st_size


def _cache_lookup(tracer, span, args, ruleset, value) -> None:
    tracer.count("engine.cache_hits" if ruleset is not None else "engine.cache_misses")


def _session(tracer, span, args, result, value) -> None:
    span.attrs["session"] = args[0].id


# (module, attribute or Class.method, span name, hooks)
ENTRY_POINTS = (
    ("repro.regex.parser", "parse_anchored", "regex.parse", {}),
    ("repro.compiler.pipeline", "compile_ruleset", "compiler.compile", {"after": _census}),
    ("repro.simulators.rap", "RAPSimulator.build_mapping", "mapping.map", {"after": _arrays}),
    (
        "repro.core.native",
        "load_source",
        "core.native_build",
        {"before": _native_target_exists, "after": _native_built},
    ),
    ("repro.simulators.rap", "RAPSimulator.collect_activities", "simulators.scan", {}),
    ("repro.simulators.rap", "RAPSimulator.run_from_activity", "simulators.price", {}),
    ("repro.engine.checkpoint", "DurableScan.feed", "engine.durable_feed", {}),
    ("repro.engine.checkpoint", "CheckpointStore.write", "engine.checkpoint_write", {"after": _checkpoint}),
    ("repro.engine.cache", "CompileCache.get", "engine.cache_get", {"after": _cache_lookup}),
    ("repro.serve.session", "ScanSession.feed", "serve.session_feed", {}),
    ("repro.serve.session", "ScanSession.end", "serve.session_feed", {}),
    ("repro.serve.session", "ScanSession.total_energy_uj", "serve.price", {"after": _session}),
    ("repro.serve.protocol", "encode_frame", "serve.frame", {}),
    ("repro.serve.protocol", "decode_frame", "serve.frame", {}),
)


def install(tracer: Tracer) -> None:
    """Wrap every entry point, wherever the program has bound it.

    A function imported by name into another module (``from x import
    f``) is rebound there too, so calls through either name are traced.
    """
    importlib.import_module("repro.cli")
    importlib.import_module("repro.serve.server")
    for module_name, attr, span_name, hooks in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(span_name, getattr(cls, method), **hooks))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span_name, original, **hooks)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
