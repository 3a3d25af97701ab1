"""Shared pieces of the benchmark: paths, summaries, child processes, host facts.

Nothing here imports :mod:`repro`: ``bench/run.py`` uses this module in the
parent process, which only launches the measuring child processes.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / "results" / "bench"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"

DEFAULT_SEED = 1

#: candidate tail percentiles, in permille; a summary reports the highest
#: one that still has MIN_BEYOND samples above it (none below 100 samples)
TAIL_PERMILLE = (900, 990, 999)
MIN_BEYOND = 10


class MissingSource(RuntimeError):
    """The program's source tree is not next to the benchmark."""


def load_benchmark() -> dict[str, Any]:
    """``BENCHMARK.json``: workloads, metrics, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_source() -> None:
    """Import the program from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no program source at {SRC / 'repro'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def tail(sorted_values: list[float], permille: int) -> float | None:
    """Nearest-rank percentile, or None with fewer than MIN_BEYOND samples above it.

    With fewer samples beyond it, a tail value would rest on a handful of
    samples, so it is left out instead of reported.
    """
    n = len(sorted_values)
    rank = -(-permille * n // 1000)  # ceil without floats
    return sorted_values[rank - 1] if n - rank >= MIN_BEYOND else None


def summarize(values: Iterable[float]) -> dict[str, float]:
    """Median, quartiles, extremes, count, and the highest well-supported tail."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("cannot summarize an empty sample")
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) >= 2 else (xs[0], xs[0], xs[0])
    out = {
        "count": len(xs),
        "median": statistics.median(xs),
        "q1": q1,
        "q3": q3,
        "min": xs[0],
        "max": xs[-1],
    }
    for permille in reversed(TAIL_PERMILLE):
        value = tail(xs, permille)
        if value is not None:
            out[f"p{permille / 10:g}"] = value
            break
    return out


def run_child(command: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(command, proc.returncode, out, None)


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_facts() -> dict[str, Any]:
    """Host and checkout facts recorded in every result file.

    ``src_dirty`` looks at ``src/`` only, so uncommitted benchmark files do
    not mark a measurement of committed program code as dirty.  Both git
    fields are None outside a git checkout.
    """
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src") if sha else None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_dirty": None if status is None else bool(status),
    }
