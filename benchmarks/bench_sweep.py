"""Sweep-throughput benchmark: serial drain vs forked drains.

As a script (``python benchmarks/bench_sweep.py``) it measures cells/sec
for the same cell workload in three ways of draining the store's work
queue and appends one ``sweep_throughput`` row per way to
``BENCH_substrate.json``:

* ``local-P1`` — ``SweepRunner(jobs=1)``, the serial in-process drain;
* ``local-P4`` — ``SweepRunner(jobs=4)``, four drains forked from the
  sweep process;
* ``local-P<jobs>`` — ``SweepRunner(jobs=--jobs)``, the gated variant
  (``local-P2`` by default).

The ``--jobs`` forked drains must reach ``--min-ratio`` (default 1.8)
times the serial cells/sec — enforced only when the host has at least 2
CPU cores; a single-core runner cannot exhibit a multiprocessing speedup,
so there the ratio is measured and reported but does not fail the run.
Queue integrity is always
asserted: every queue row terminal ``done`` and claimed exactly once, and
every cell with a result row.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.api import RunSpec
from repro.harness.benchlog import DEFAULT_BENCH_FILE, append_bench_rows
from repro.orchestration import ResultStore, SweepRunner, cells_from_run_specs

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
        rows = store.queue_cells()
        if not all((row.state, row.attempt) == ("done", 1) for row in rows):
            raise RuntimeError(f"local jobs={jobs}: a cell was not done on its one claim")
        completed = store.completed_cells()
        missing = [c for c in cells if c.key not in completed]
        if missing:
            raise RuntimeError(f"local jobs={jobs}: {len(missing)} cell(s) have no result row")
    return wall


def smoke_throughput(cell_count: int, cell_n: int, jobs: int,
                     min_ratio: float, workdir: Path) -> bool:
    cells = make_cells(cell_count, cell_n)

    serial_s = run_local(cells, workdir / "local-p1.sqlite", jobs=1)
    serial_rate = cell_count / serial_s
    record("local-P1", n=cell_n, cells=cell_count, wall_s=serial_s)
    print(f"local-P1: {cell_count} cells in {serial_s:.2f}s -> {serial_rate:.2f} cells/s")

    forked_s = run_local(cells, workdir / "local-p4.sqlite", jobs=4)
    record("local-P4", n=cell_n, cells=cell_count, wall_s=forked_s)
    print(f"local-P4: {cell_count} cells in {forked_s:.2f}s -> {cell_count / forked_s:.2f} cells/s")

    gated_s = run_local(cells, workdir / f"local-p{jobs}.sqlite", jobs=jobs)
    gated_rate = cell_count / gated_s
    record(f"local-P{jobs}", n=cell_n, cells=cell_count, wall_s=gated_s)
    ratio = gated_rate / serial_rate
    print(
        f"local-P{jobs}: {cell_count} cells in {gated_s:.2f}s -> "
        f"{gated_rate:.2f} cells/s ({ratio:.2f}x the serial baseline)"
    )

    cores = os.cpu_count() or 1
    if cores >= 2:
        if ratio < min_ratio:
            print(f"FAIL: local-P{jobs} throughput {ratio:.2f}x below the required {min_ratio:g}x")
            return False
        print(f"OK: {jobs} forked drains drain >= {min_ratio:g}x faster than serial")
    else:
        print(
            f"NOTE: host has {cores} CPU core(s); the {min_ratio:g}x forked-drain ratio "
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
    parser.add_argument("--jobs", type=int, default=2, help="forked drains of the gated variant")
    parser.add_argument(
        "--min-ratio", type=float, default=1.8,
        help="required forked-vs-serial cells/sec ratio (enforced on >= 2 cores)",
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

    if args.cells < 1 or args.jobs < 1:
        parser.error("--cells and --jobs must be >= 1")
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.glob("*.sqlite"):
        stale.unlink()

    ok = smoke_throughput(args.cells, args.cell_n, args.jobs, args.min_ratio, workdir)
    if not args.no_json and BENCH_ROWS:
        path = append_bench_rows(BENCH_ROWS, args.json)
        print(f"recorded {len(BENCH_ROWS)} benchmark row(s) in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
