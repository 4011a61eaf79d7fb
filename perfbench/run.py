"""End-to-end benchmark of the RAP reproduction on paper-shaped rulesets.

One run::

    python3 perfbench/run.py --workload bulk-snort --seed 0 --seconds 16 --trace 0

measures one workload (see workloads.py and README.md) and prints, as
the last line of standard output, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
a separate, traced run gives the per-layer metrics.  Notes (sample
counts, unit census, layer tables) go to standard error.

The report::

    python3 perfbench/run.py --report [--seed N] [--seconds S]

runs every workload of BENCHMARK.json (or the one ``--workload``
names) untraced and traced, and prints every end-to-end
metric by name and unit, the error rate, the per-layer table, the share
of wall time the spans cover and the tracing overhead.

The program runs from ``src/`` on the native backend; the benchmark
refuses to run when that tier is unavailable.  Everything it writes goes
under ``.perfbench/`` in the checkout and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK_ROOT, last_json_line, prepare, require_native  # noqa: E402
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

RUN_TIMEOUT = 180


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run of one workload: the result object the driver reads."""
    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    prepare(work / "driver")
    require_native()
    try:
        if workload.kind == "bulk":
            import bulk as runner
        else:
            import serve as runner
        outcome = runner.run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = outcome["metrics"]
    metrics = {}
    for metric in spec()["per_layer" if trace else "end_to_end"]:
        # A layer the workload's traffic never reaches reads 0.
        value = measured.get(metric["name"], 0) if trace else measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if outcome.get("notes"):
        print(f"{name}: {json.dumps(outcome['notes'])}", file=sys.stderr)
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def report(seed: int, seconds: int, names: list[str]) -> None:
    """Every workload untraced, then traced; the tables on stdout."""
    runs = {}
    for name in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [
                    sys.executable,
                    __file__,
                    "--workload",
                    name,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(seconds),
                    "--trace",
                    str(trace),
                ],
                capture_output=True,
                text=True,
                timeout=RUN_TIMEOUT * 2,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{name} --trace {trace} failed:\n{proc.stderr}")
            runs[name, trace] = (last_json_line(proc.stdout), proc.stderr)

    print(f"# end-to-end metrics (seed {seed}, {seconds} s per run)")
    for name in names:
        result, notes = runs[name, 0]
        print(f"\n## {name}")
        for metric, entry in result["metrics"].items():
            print(f"{metric:<20}{entry['value']:>14.4f} {entry['unit']}")
        rate = result["failed"] / result["attempted"]
        print(f"{'error_rate':<20}{rate:>14.4f} ({result['failed']}/{result['attempted']} failed)")
        print(notes.strip())

    print("\n# per-layer metrics (traced runs)")
    print(f"{'metric':<30}{'unit':<8}" + "".join(f"{n:>15}" for n in names))
    for metric in spec()["per_layer"]:
        cells = "".join(
            f"{runs[n, 1][0]['metrics'][metric['name']]['value']:>15.4f}" for n in names
        )
        print(f"{metric['name']:<30}{metric['unit']:<8}{cells}")
    print("\n# tracing overhead: traced minus untraced median latency (ms)")
    for name in names:
        traced = runs[name, 1][0]["metrics"]["trace.latency_p50_ms"]["value"]
        plain = runs[name, 0][0]["metrics"]["latency_p50_ms"]["value"]
        print(f"{name:<16}{traced - plain:>12.4f} ({traced:.4f} vs {plain:.4f})")
    for name in names:
        print(f"\n# layer self times, {name} (traced run)")
        print(runs[name, 1][1].strip())


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
        "for checking later claims)",
    )
    parser.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", action="store_true", help="run every workload and print the tables"
    )
    args = parser.parse_args(argv)
    if args.report:
        names = [args.workload] if args.workload else [w["name"] for w in spec()["workloads"]]
        report(args.seed, args.seconds, names)
        return
    if args.workload is None:
        parser.error("--workload is required without --report")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))


if __name__ == "__main__":
    main()
