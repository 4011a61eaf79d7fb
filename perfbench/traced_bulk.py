"""The traced bulk run: per-layer numbers of one cold set-up and the
warm scans, plus each unit kind scanned as a ruleset of its own."""

from __future__ import annotations

import sys
import time
from statistics import median

import bulk
from tracer import SpanLog, Tracer, install

KINDS = ("nbva", "nfa", "lnfa")


def measure(patterns: list[str], data: bytes, seconds: float) -> dict:
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter_ns()
    ruleset, sim, mapping = bulk.cold_setup(patterns, data)
    setup_end = time.perf_counter_ns()
    setup_counters = dict(tracer.counters)
    times, outputs = bulk.warm_scans(ruleset, sim, mapping, data, seconds)
    scans_end = time.perf_counter_ns()

    log = SpanLog.of(tracer)
    metrics = {
        "regex.parse_s": log.total_s("regex.parse", until=setup_end),
        "compiler.compile_s": log.total_s("compiler.compile", until=setup_end),
        "mapping.map_s": log.total_s("mapping.map", until=setup_end),
        "core.native_build_s": log.total_s("core.native_build", until=setup_end),
        "simulators.scan_s": _median_call(log, "simulators.scan", setup_end),
        "simulators.price_s": _median_call(log, "simulators.price", setup_end),
        "trace.coverage": log.covered_s(start, scans_end) * 1e9 / (scans_end - start),
        "trace.latency_p50_ms": median(times) * 1e3,
    }
    metrics.update(setup_counters)
    print("layers of the cold set-up:", file=sys.stderr)
    print(log.table(until=setup_end), file=sys.stderr)
    print(f"layers of {len(times)} warm scans:", file=sys.stderr)
    print(log.table(since=setup_end), file=sys.stderr)
    for kind in KINDS:
        metrics[f"simulators.scan_s.{kind}"] = _kind_scan_s(tracer, ruleset, kind, data)

    tracer.enabled = False
    failed = bulk.reference_failures(ruleset, sim, mapping, data, outputs)
    return {"attempted": len(outputs), "failed": failed, "metrics": metrics}


def _median_call(log: SpanLog, name: str, since: int) -> float:
    return median([row[2] - row[1] for row in log.select(name, since)]) / 1e9


def _kind_scan_s(tracer: Tracer, ruleset, kind: str, data: bytes) -> float:
    """One warm scan of the workload's ``kind`` units, as their own ruleset.

    0 when the workload compiles no unit of that kind.
    """
    subset = [c.pattern for c in ruleset if c.mode.value.lower() == kind]
    if not subset:
        return 0.0
    tracer.enabled = False
    part, sim, mapping = bulk.cold_setup(subset, data)
    tracer.enabled = True
    since = time.perf_counter_ns()
    sim.collect_activities(part, data, mapping)
    return SpanLog.of(tracer).total_s("simulators.scan", since)
