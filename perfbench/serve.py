"""Serve workloads: a real ``rap serve`` process and a closed-loop load.

Each session is one :class:`~repro.serve.client.ScanClient` connection
with one segment outstanding: the next segment is sent only after the
``events`` frame of the previous one arrived.  All sessions of a round
stream concurrently; rounds repeat, with fresh sessions, until the run's
seconds are used (at least one round).

Set-up time is server spawn to the first ``welcome``, measured on
several freshly spawned servers with empty caches.  On the last server a
one-segment warm-up session then builds the native kernels, so the
first measured segment does not pay for ``cc``.

Outputs are checked against the program's serial golden: the totals of
every round must equal ``serial_totals`` exactly, and each session's
event set must equal the match set of the same serial scan.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from common import HERE, child_env, percentile

TENANT = "bench"
SETUP_SAMPLES = 3
SEGMENT_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0


class _Arrivals(list):
    """``ScanClient.latencies_ms`` that also signals each ``events`` frame.

    The client's frame pump appends one turnaround per ``events`` frame;
    the closed loop waits on ``ready`` before sending the next segment.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ready = asyncio.Event()

    def append(self, value: float) -> None:
        super().append(value)
        self.ready.set()


@dataclass
class Stream:
    turnarounds_ms: list
    events: set
    result: dict
    first_ns: int
    last_ns: int


class Server:
    """One ``rap serve`` process on an ephemeral loopback port."""

    def __init__(self, work: Path, checkpoint_every: int, spans: Path | None):
        cache = work / "cache"
        cache.mkdir(parents=True)
        serve_args = [
            "serve",
            "--port",
            "0",
            "--checkpoint-dir",
            str(work / "checkpoints"),
            "--checkpoint-every",
            str(checkpoint_every),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [sys.executable, str(HERE / "traced_serve.py"), str(spans), *serve_args]
        self.log = open(work / "server.log", "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=dict(os.environ, **child_env(cache)),
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"server did not come up: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then wait for it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


async def stream(port: int, patterns, session: str, payload: bytes, segment: int) -> Stream:
    """Stream ``payload`` closed-loop on one connection; its outcome."""
    from repro.serve.client import ScanClient

    client = ScanClient("127.0.0.1", port, TENANT, session, patterns)
    arrivals = _Arrivals()
    client.latencies_ms = arrivals
    await client.connect()
    first = time.perf_counter_ns()
    try:
        for offset in range(0, len(payload), segment):
            arrivals.ready.clear()
            await client.send(payload[offset : offset + segment])
            await asyncio.wait_for(arrivals.ready.wait(), SEGMENT_TIMEOUT)
        result = await client.end()
    finally:
        await client.close()
    return Stream(list(arrivals), client.events, result, first, time.perf_counter_ns())


def serial_reference(patterns, payloads) -> tuple[tuple[int, float], list[set]]:
    """``serial_totals`` and the match set of each payload's serial scan.

    The match sets are read from the very scans ``serial_totals`` runs,
    by watching the ``DurableScan.match_lists`` calls it makes.
    """
    from repro.engine.checkpoint import DurableScan
    from repro.serve.client import serial_totals

    captured = []
    original = DurableScan.match_lists

    def watched(scan):
        lists = original(scan)
        captured.append(lists)
        return lists

    DurableScan.match_lists = watched
    try:
        totals = serial_totals(patterns, payloads)
    finally:
        DurableScan.match_lists = original
    if len(captured) != len(payloads):
        raise RuntimeError("serial_totals scanned an unexpected number of payloads")
    sets = [{(end, rid) for rid, ends in lists.items() for end in ends} for lists in captured]
    return totals, sets


async def _open(server: Server, patterns, warmup: bytes | None) -> float:
    """Spawn-to-welcome seconds of ``server``; ``warmup`` is then streamed
    on the same session, to build the native kernels before measuring."""
    from repro.serve.client import ScanClient

    client = ScanClient("127.0.0.1", server.port, TENANT, "warmup", patterns)
    arrivals = _Arrivals()
    client.latencies_ms = arrivals
    welcome = await client.connect()
    setup_s = time.perf_counter() - server.spawned
    try:
        if welcome.get("backend") != "native":
            raise RuntimeError(
                f"server runs on {welcome.get('backend')!r}: {welcome.get('backend_reason')}"
            )
        if warmup is not None:
            await client.send(warmup)
            await asyncio.wait_for(arrivals.ready.wait(), SEGMENT_TIMEOUT)
            await client.end()
    finally:
        await client.close()
    return setup_s


async def _serve(workload, patterns, payloads, seconds: float, work: Path, spans):
    """Set-up samples, the rounds of streams, and the server's peak RSS."""
    setups, rounds, rss = [], [], 0.0
    samples = 1 if spans is not None else SETUP_SAMPLES
    for index in range(samples):
        server = Server(work / f"server-{index}", workload.checkpoint_every, spans)
        try:
            last = index == samples - 1
            warmup = payloads[0][: workload.segment_bytes] if last else None
            setups.append(await _open(server, patterns, warmup))
            if not last:
                continue
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                tag = f"r{len(rounds)}"
                rounds.append(
                    await asyncio.gather(
                        *(
                            stream(server.port, patterns, f"{tag}-s{i}", payload, workload.segment_bytes)
                            for i, payload in enumerate(payloads)
                        ),
                        return_exceptions=True,
                    )
                )
            rss = server.peak_rss_mb()
        finally:
            server.stop()
    return setups, rounds, rss


def run(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    patterns, payloads = workload.generate(seed)
    spans = work / "spans.json" if trace else None
    setups, rounds, rss = asyncio.run(_serve(workload, patterns, payloads, seconds, work, spans))
    (ref_matches, ref_energy), ref_sets = serial_reference(patterns, payloads)

    attempted = failed = 0
    turnarounds, walls, acked, events = [], [], 0, 0
    for streams in rounds:
        done = [s for s in streams if isinstance(s, Stream)]
        totals_ok = len(done) == len(payloads) and (
            sum(s.result["matches"] for s in done) == ref_matches
            and sum((s.result["energy_uj"] for s in done), 0.0) == ref_energy
        )
        for index, outcome in enumerate(streams):
            segments = -(-len(payloads[index]) // workload.segment_bytes)
            attempted += segments
            if not isinstance(outcome, Stream):
                print(f"perfbench: session failed: {outcome!r}", file=sys.stderr)
                failed += segments
                continue
            if not totals_ok or outcome.events != ref_sets[index]:
                failed += segments
            turnarounds += outcome.turnarounds_ms
            acked += outcome.result["offset"]
            events += outcome.result["matches"]
        if done:
            walls.append((max(s.last_ns for s in done) - min(s.first_ns for s in done)) / 1e9)

    result = {"attempted": attempted, "failed": failed}
    if trace:
        from traced_serve import layer_metrics

        result["metrics"] = layer_metrics(
            spans, rounds, turnarounds, segments=attempted, events=events
        )
        return result
    result["metrics"] = {
        "setup_s": median(setups),
        "throughput_MBps": acked / sum(walls) / 1e6,
        "latency_p50_ms": median(turnarounds),
        "peak_rss_mb": rss,
    }
    result["notes"] = {
        "rounds": len(rounds),
        "segments": len(turnarounds),
        "latency_p99_ms": percentile(turnarounds, 99),
        "setup_samples": len(setups),
        "events": events,
    }
    return result
