"""``rap serve`` with the benchmark's spans, and the serve layer table.

Run as ``python3 perfbench/traced_serve.py SPANS serve [options]``: it
wraps the program's entry points (tracer.py), runs the ``rap serve``
command line unchanged, and writes the spans to ``SPANS`` when the
server exits (SIGTERM drains it).
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from tracer import SpanLog, Tracer, install

SETUP_LAYERS = ("regex.parse", "compiler.compile", "mapping.map", "core.native_build")
LOOP_LAYERS = (
    "serve.session_feed",
    "engine.durable_feed",
    "serve.price",
    "simulators.price",
    "serve.frame",
    "engine.checkpoint_write",
)


def layer_metrics(spans: Path, rounds, turnarounds_ms, *, segments: int, events: int) -> dict:
    """Per-layer metrics of a traced serve run.

    Set-up layers count over the server's life (sessions open before
    the first data frame); loop layers count inside the measured window,
    first ``data`` frame to last ``result`` frame.
    """
    from serve import Stream

    log = SpanLog.load(spans)
    done = [s for streams in rounds for s in streams if isinstance(s, Stream)]
    since = min(s.first_ns for s in done)
    until = max(s.last_ns for s in done)
    busy_s = log.covered_s(since, until)
    metrics = {f"{name}_s": log.total_s(name) for name in SETUP_LAYERS}
    metrics.update({f"{name}_s": log.total_s(name, since, until) for name in LOOP_LAYERS})
    writes = log.select("engine.checkpoint_write", since, until)
    lookups = log.counters["engine.cache_hits"] + log.counters["engine.cache_misses"]
    metrics.update(
        {
            "engine.checkpoints": len(writes),
            "engine.checkpoint_bytes": writes[-1][5]["bytes"] if writes else 0,
            "engine.cache_hit_ratio": (
                log.counters["engine.cache_hits"] / lookups if lookups else 0.0
            ),
            "serve.price_growth": _price_growth(log.select("serve.price", since, until)),
            "serve.wait_s": sum(turnarounds_ms) / 1e3 - busy_s,
            "serve.segments": segments,
            "serve.events": events,
            "trace.coverage": busy_s * 1e9 / (until - since),
            "trace.latency_p50_ms": median(turnarounds_ms),
        }
    )
    metrics.update(log.counters)
    print("server layers before the first data frame:", file=sys.stderr)
    print(log.table(0, since), file=sys.stderr)
    print("server layers in the measured window:", file=sys.stderr)
    print(log.table(since, until), file=sys.stderr)
    return metrics


def _price_growth(rows) -> float:
    """Mean pricing time in the last tenth of each stream ÷ the first tenth."""
    per_session = defaultdict(list)
    for row in rows:
        per_session[row[5]["session"]].append(row[2] - row[1])
    first = last = 0
    for durations in per_session.values():
        tenth = max(1, len(durations) // 10)
        first += sum(durations[:tenth])
        last += sum(durations[-tenth:])
    return last / first if first else 0.0


if __name__ == "__main__":
    tracer = Tracer()
    install(tracer)
    from repro.cli import main

    try:
        code = main(sys.argv[2:])
    finally:
        tracer.dump(Path(sys.argv[1]))
    raise SystemExit(code)
