"""Bulk workloads: one whole input through the simulator's public API.

The driver side (:func:`run`) generates the inputs and starts fresh
child processes, each with an empty compile/native cache:

* ``setup`` children time one cold set-up: ``compile_ruleset``,
  ``RAPSimulator.build_mapping`` and the first ``collect_activities``
  call, which builds the native kernels (on the first 64 input bytes);
* the ``measure`` child does the same cold set-up, then repeats warm
  ``collect_activities`` + ``run_from_activity`` scans for the run's
  seconds, and finally checks every scan against a python-backend
  reference computed once, untimed, after the timed scans.

With tracing on, the ``measure`` child wraps the program's entry points
(see tracer.py) and also scans the workload's units of each kind as a
ruleset of their own.

Run as a child: ``python3 perfbench/bulk.py setup|measure WORK CACHE
[SECONDS TRACE]``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    HERE,
    child_env,
    last_json_line,
    prepare,
    require_native,
)

MIN_SCANS = 3
PROBE_BYTES = 64
SETUP_SAMPLES = 3  # cold set-ups per run, the measure child's included
CHILD_TIMEOUT = 170


# -- driver side --------------------------------------------------------------


def run(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    patterns, (data,) = workload.generate(seed)
    (work / "patterns.json").write_text(json.dumps(patterns))
    (work / "input.bin").write_bytes(data)
    setups = []
    if not trace:
        for index in range(SETUP_SAMPLES - 1):
            setups.append(_child(work, f"setup-{index}", "setup")["setup_s"])
    measured = _child(work, "measure", "measure", str(seconds), str(int(trace)))
    if trace:
        return measured
    times = measured["scan_s"]
    setups.append(measured["setup_s"])
    return {
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            "setup_s": median(setups),
            "throughput_MBps": len(data) * len(times) / sum(times) / 1e6,
            "latency_p50_ms": median(times) * 1e3,
            "peak_rss_mb": measured["peak_rss_mb"],
        },
        "notes": {
            "input_bytes": len(data),
            "scans": len(times),
            "setup_samples": len(setups),
        },
    }


def _child(work: Path, cache_name: str, mode: str, *extra: str) -> dict:
    """Run one child with its own, empty cache; its JSON result."""
    cache = work / cache_name
    cache.mkdir()
    proc = subprocess.run(
        [sys.executable, str(HERE / "bulk.py"), mode, str(work), str(cache), *extra],
        env=dict(os.environ, **child_env(cache)),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bulk {mode} child failed:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return last_json_line(proc.stdout)


# -- child side ---------------------------------------------------------------


def cold_setup(patterns: list[str], data: bytes):
    """Compile, map and build the native kernels; returns the pieces."""
    from repro.compiler import compile_ruleset
    from repro.simulators.rap import RAPSimulator

    ruleset = compile_ruleset(patterns)
    sim = RAPSimulator()
    mapping = sim.build_mapping(ruleset)
    sim.collect_activities(ruleset, data[:PROBE_BYTES], mapping)
    return ruleset, sim, mapping


def warm_scans(ruleset, sim, mapping, data: bytes, seconds: float):
    """Timed scans for ``seconds`` (at least MIN_SCANS); their outputs."""
    times, outputs = [], []
    start = time.perf_counter()
    while len(times) < MIN_SCANS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        activity = sim.collect_activities(ruleset, data, mapping)
        result = sim.run_from_activity(ruleset, activity, mapping)
        times.append(time.perf_counter() - t0)
        outputs.append((result.matches, result.energy_uj))
    return times, outputs


def reference_failures(ruleset, sim, mapping, data: bytes, outputs) -> int:
    """Scans whose matches or float energy differ from the python backend."""
    from repro.core.registry import use_backend

    with use_backend("python"):
        reference = sim.run(ruleset, data, mapping)
    expected = (reference.matches, reference.energy_uj)
    return sum(1 for output in outputs if output != expected)


def child_main(argv: list[str]) -> None:
    mode, work, cache = argv[0], Path(argv[1]), Path(argv[2])
    prepare(cache)
    require_native()
    patterns = json.loads((work / "patterns.json").read_text())
    data = (work / "input.bin").read_bytes()
    if mode == "setup":
        t0 = time.perf_counter()
        cold_setup(patterns, data)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return
    seconds, trace = float(argv[3]), argv[4] == "1"
    if trace:
        import traced_bulk

        print(json.dumps(traced_bulk.measure(patterns, data, seconds)))
        return
    import resource

    t0 = time.perf_counter()
    ruleset, sim, mapping = cold_setup(patterns, data)
    setup_s = time.perf_counter() - t0
    times, outputs = warm_scans(ruleset, sim, mapping, data, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = reference_failures(ruleset, sim, mapping, data, outputs)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "scan_s": times,
                "peak_rss_mb": peak_rss_mb,
                "attempted": len(outputs),
                "failed": failed,
            }
        )
    )


if __name__ == "__main__":
    child_main(sys.argv[1:])
