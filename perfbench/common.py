"""Shared plumbing of the benchmark: paths, environment, statistics.

Every process the benchmark starts (the driver, its set-up and measure
children, the traced server) calls :func:`prepare` first, so all of them
run the program from ``src/`` on the ``native`` backend and keep every
file they write (compile cache, native objects, checkpoints, temporary
files) under the checkout's ``.perfbench/`` directory.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

# Exit codes for runs that produce no result line.
EXIT_NO_PROGRAM = 2  # the checkout has no program to measure
EXIT_NOT_NATIVE = 3  # the native tier is unavailable; never measure a fallback


def fail(code: int, message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def prepare(cache_dir: Path) -> None:
    """Point this process at ``src/``, the native backend and ``cache_dir``.

    Must run before anything from ``repro`` is imported: the backend and
    cache locations are read from the environment.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(EXIT_NO_PROGRAM, f"no program under {SRC.name}/ in {ROOT}")
    tmp = cache_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(child_env(cache_dir))
    import tempfile

    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(cache_dir: Path) -> dict[str, str]:
    """Environment overrides for a process that runs the program."""
    return {
        "RAP_BACKEND": "native",
        "RAP_CACHE_DIR": str(cache_dir),
        "TMPDIR": str(cache_dir / "tmp"),
        "PYTHONPATH": str(SRC),
    }


def require_native() -> None:
    """Refuse to measure unless the native tier really resolves."""
    from repro.core.registry import resolve_backend_with_reason

    backend, reason = resolve_backend_with_reason()
    if backend != "native":
        fail(EXIT_NOT_NATIVE, f"backend resolved to {backend!r}: {reason}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def last_json_line(text: str) -> dict:
    """The JSON object a child printed as its last stdout line."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])
