"""Sweep-throughput benchmark: the sweep's own drains vs external queue workers.

As a script (``python benchmarks/bench_sweep.py``) it measures cells/sec
for the same cell workload in three ways of draining the store's work
queue and appends one ``sweep_throughput`` row per way to
``BENCH_substrate.json``:

* ``local-P1`` — ``SweepRunner(jobs=1)``, the serial in-process drain;
* ``local-P4`` — ``SweepRunner(jobs=4)``, four drains forked from the
  sweep process;
* ``queue-2`` — two real ``python -m repro worker`` processes pulling
  claims from a shared store (workers are pre-started against an empty
  queue with ``--linger`` so the measured window covers *draining*, not
  interpreter start-up).

The distributed path must reach ``--min-ratio`` (default 1.8) times the
serial cells/sec — enforced only when the host has at least 2 CPU cores;
a single-core runner cannot exhibit a multiprocessing speedup, so there
the ratio is measured and reported but does not fail the run (the same
honesty rule as ``bench_substrate.py``'s compiled gate, which enforces its
ratio only under real numba).  Queue-path
integrity is always asserted: every queue row terminal ``done``, every
cell claimed exactly once, and result rows identical in number to the
local baseline's.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.api import RunSpec
from repro.harness.benchlog import DEFAULT_BENCH_FILE, append_bench_rows
from repro.orchestration import ResultStore, SweepRunner, cells_from_run_specs

REPO_ROOT = Path(__file__).resolve().parents[1]

#: rows accumulated by the measurements, flushed to BENCH_substrate.json
BENCH_ROWS: list[dict] = []


def record(variant: str, *, n: int, cells: int, wall_s: float) -> None:
    BENCH_ROWS.append(
        {
            "bench": "sweep_throughput",
            "protocol": "drr-gossip",
            "n": int(n),
            "backend": variant,
            "wall_s": float(wall_s),
            "messages": None,
            "rounds": int(cells),  # cells drained in the measured window
        }
    )


def make_cells(count: int, n: int):
    """``count`` distinct engine-backend drr-gossip cells (~0.1-0.4 s each)."""
    specs = [
        RunSpec(protocol="drr-gossip", params={"n": n}, backend="engine", seed=1000 + i)
        for i in range(count)
    ]
    return cells_from_run_specs(specs)


def run_local(cells, store_path: Path, jobs: int) -> float:
    with ResultStore(store_path) as store:
        start = time.perf_counter()
        report = SweepRunner(store, jobs=jobs).run_cells(cells, name="bench")
        wall = time.perf_counter() - start
        if report.failed or report.executed != len(cells):
            raise RuntimeError(f"local jobs={jobs} run went wrong: {report.summary()}")
    return wall


def run_queue(cells, store_path: Path, workers: int) -> float:
    """Pre-start ``workers`` processes, then time enqueue-to-drained."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    ResultStore(store_path).close()  # workers refuse to start on a missing store
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--store", str(store_path), "--worker-id", f"bench-w{i}",
                "--poll", "0.02", "--linger", "60",
            ],
            env=env, cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for i in range(workers)
    ]
    try:
        time.sleep(2.0)  # let the interpreters boot against the empty queue
        with ResultStore(store_path) as store:
            start = time.perf_counter()
            store.enqueue_cells(
                (c.experiment, c.param_hash, c.seed, c.spec_json()) for c in cells
            )
            deadline = start + 600
            while time.perf_counter() < deadline:
                depth = store.queue_depth()
                if depth["pending"] == 0 and depth["claimed"] == 0:
                    break
                time.sleep(0.02)
            else:
                raise RuntimeError("queue never drained inside 600 s")
            wall = time.perf_counter() - start
            rows = store.queue_cells()
            if not all(row.state == "done" for row in rows):
                raise RuntimeError("queue drain left non-done rows behind")
            if not all(row.attempt == 1 for row in rows):
                raise RuntimeError("a cell was claimed more than once (duplicate execution)")
            completed = store.completed_cells()
            missing = [c for c in cells if c.key not in completed]
            if missing:
                raise RuntimeError(f"{len(missing)} cell(s) have no result row")
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=30)
    return wall


def smoke_throughput(cell_count: int, cell_n: int, workers: int,
                     min_ratio: float, workdir: Path) -> bool:
    cells = make_cells(cell_count, cell_n)

    serial_s = run_local(cells, workdir / "local-p1.sqlite", jobs=1)
    serial_rate = cell_count / serial_s
    record("local-P1", n=cell_n, cells=cell_count, wall_s=serial_s)
    print(f"local-P1: {cell_count} cells in {serial_s:.2f}s -> {serial_rate:.2f} cells/s")

    forked_s = run_local(cells, workdir / "local-p4.sqlite", jobs=4)
    record("local-P4", n=cell_n, cells=cell_count, wall_s=forked_s)
    print(f"local-P4: {cell_count} cells in {forked_s:.2f}s -> {cell_count / forked_s:.2f} cells/s")

    queue_s = run_queue(cells, workdir / "queue.sqlite", workers=workers)
    queue_rate = cell_count / queue_s
    record(f"queue-{workers}", n=cell_n, cells=cell_count, wall_s=queue_s)
    ratio = queue_rate / serial_rate
    print(
        f"queue-{workers}: {cell_count} cells in {queue_s:.2f}s -> "
        f"{queue_rate:.2f} cells/s ({ratio:.2f}x the serial baseline)"
    )

    cores = os.cpu_count() or 1
    if cores >= 2:
        if ratio < min_ratio:
            print(f"FAIL: queue-{workers} throughput {ratio:.2f}x below the required {min_ratio:g}x")
            return False
        print(f"OK: {workers} queue workers drain >= {min_ratio:g}x faster than serial")
    else:
        print(
            f"NOTE: host has {cores} CPU core(s); the {min_ratio:g}x queue ratio "
            "is reported, not enforced (no parallel hardware to win on)"
        )
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=8, help="sweep cells per variant")
    parser.add_argument(
        "--cell-n", type=int, default=1024,
        help="nodes per engine-backend drr-gossip cell (sets per-cell cost)",
    )
    parser.add_argument("--workers", type=int, default=2, help="queue worker processes")
    parser.add_argument(
        "--min-ratio", type=float, default=1.8,
        help="required queue-vs-serial cells/sec ratio (enforced on >= 2 cores)",
    )
    parser.add_argument(
        "--workdir", type=str, default="results/bench-sweep",
        help="scratch directory for the per-variant stores",
    )
    parser.add_argument(
        "--json", type=str, default=DEFAULT_BENCH_FILE,
        help="benchmark trajectory file to append to",
    )
    parser.add_argument("--no-json", action="store_true", help="do not write the trajectory file")
    args = parser.parse_args(argv)

    if args.cells < 1 or args.workers < 1:
        parser.error("--cells and --workers must be >= 1")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.glob("*.sqlite"):
        stale.unlink()

    ok = smoke_throughput(args.cells, args.cell_n, args.workers, args.min_ratio, workdir)
    if not args.no_json and BENCH_ROWS:
        path = append_bench_rows(BENCH_ROWS, args.json)
        print(f"recorded {len(BENCH_ROWS)} benchmark row(s) in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
