"""The benchmark's four workloads, measured in a child process of ``bench/run.py``.

Every input is generated here from ``--seed``; the program receives only
the resulting ``RunSpec`` values.  All workloads are closed-loop from one
caller on the default ``vectorized`` backend.

    python3 bench/workloads.py --mode run --workload avg-1e6 --seed 1 \\
        --seconds 30 --trace 0 --workdir results/bench/work

prints one JSON document as its last stdout line.  ``--mode setup`` does
only the set-up that ``setup_s`` measures and prints nothing; the ``run``
mode times it in fresh interpreters between its timed repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchlib import (
    DEFAULT_SEED,
    FINGERPRINTS,
    RESULTS_DIR,
    MissingSource,
    run_child,
    summarize,
    tail,
    use_source,
)

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 21
PROBE_TIMEOUT_S = 30.0

#: the ROADMAP's reference size
N_LARGE = 10**6
#: push-sum's default budget at n = 10^6 (2 log n + log 1/eps + 4), pinned
PUSH_SUM_ROUNDS = 64
LOSSY = {"loss_probability": 0.05, "crash_fraction": 0.01}
SWEEP_PROTOCOLS = ("drr-gossip", "push-sum")
SWEEP_NS = (256, 1024, 4096)
#: small enough for about ten passes in a run, so that their median rides
#: out the seconds-long slow stretches of a shared host
SWEEP_SEEDS = 50
#: every TWIN_EVERY-th cell is submitted twice, to exercise dedup
TWIN_EVERY = 10
SWEEP_JOBS = 2
#: accuracy bound of a sweep cell, times n.  Push-sum's default budget aims
#: at error 1/n but only w.h.p.: over 4500 small cells its error reached 2/n
#: (n = 256), so the bound catches broken aggregation, not unlucky seeds.
SWEEP_ERROR_TIMES_N = 32


def spec_seed(seed: int, *labels: Any) -> int:
    """A spec seed derived from the benchmark seed with a stable hash.

    Derived here rather than with the program's own seed helpers, so a
    change to those cannot silently change the benchmark's inputs.
    """
    text = "/".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


def estimates_sha256(estimates) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(estimates, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class Outcome:
    """One repetition: its wall time, work, fingerprint, and what was wrong."""

    wall_s: float
    #: runs or cells completed (executed + served from dedup)
    cells: int
    fingerprint: dict[str, Any]
    problems: list[str]
    #: sum of n, messages, and mean rounds / coverage over executed runs
    nodes: int
    messages: int
    rounds: float
    coverage: float
    #: the RunResult, kept only for the reference repetition (single runs)
    result: Any = None
    cell_durations: list[float] = field(default_factory=list)
    cached: int = 0
    jobs: int = 1

    def matches(self, other: "Outcome") -> bool:
        if self.fingerprint != other.fingerprint:
            return False
        if self.result is None or other.result is None:
            return True
        return bool(self.result.same_outcome(other.result))


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SingleRun:
    """One ``repro.api.run`` call per repetition at n = 10^6."""

    name: str
    protocol: str
    params: dict[str, Any]
    failures: dict[str, float]
    #: accuracy bound every repetition must meet
    max_rel_error: float
    min_coverage: float
    #: the run span: the workload's entry into the program
    root = "api.run"
    min_reps = 3
    trace_needs_serial_reference = False

    def inputs(self, seed: int):
        from repro.api import RunSpec

        # One spec seed for all three n = 10^6 workloads: identical input
        # values, and the lossy run draws the reliable run's protocol
        # randomness (common random numbers).
        return RunSpec(
            protocol=self.protocol,
            params=self.params,
            failures=self.failures,
            seed=spec_seed(seed, "n=1e6"),
        )

    def units(self, inputs) -> int:
        return 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.inputs(seed)

    def execute(self, spec, workdir: Path, serial: bool = False) -> Outcome:
        import numpy as np
        import repro.api

        start = time.perf_counter()
        result = repro.api.run(spec)
        wall = time.perf_counter() - start
        estimates = np.asarray(result.estimates, dtype=float)
        summary = result.summary
        coverage = summary.get("coverage", float(np.isfinite(estimates).mean()))
        error = summary["max_rel_error"]
        problems = []
        if not error <= self.max_rel_error:
            problems.append(f"max_rel_error {error:.3g} > {self.max_rel_error:g}")
        if coverage < self.min_coverage:
            problems.append(f"coverage {coverage:.4f} < {self.min_coverage:g}")
        result.raw = None  # the protocol-level object is not needed, only its memory
        return Outcome(
            wall_s=wall,
            cells=1,
            fingerprint={
                "rounds": result.rounds,
                "messages": result.messages,
                "messages_lost": result.messages_lost,
                "estimates_sha256": estimates_sha256(estimates),
            },
            problems=problems,
            nodes=int(spec.params["n"]),
            messages=result.messages,
            rounds=float(result.rounds),
            coverage=float(coverage),
            result=result,
        )


@dataclass(frozen=True)
class SweepMixed:
    """Many small cells through ``SweepRunner`` into a fresh SQLite store."""

    name: str
    root = "orchestration.run_cells"
    min_reps = 2
    #: traced passes run with jobs=1 so every span lands in this process,
    #: so trace overhead is taken against an untraced jobs=1 pass
    trace_needs_serial_reference = True

    def inputs(self, seed: int):
        from repro.api import RunSpec
        from repro.orchestration import cells_from_run_specs

        specs = [
            RunSpec(
                protocol=protocol, params={"n": n}, seed=spec_seed(seed, "sweep", protocol, n, i)
            )
            for protocol in SWEEP_PROTOCOLS
            for n in SWEEP_NS
            for i in range(SWEEP_SEEDS)
        ]
        cells = cells_from_run_specs(specs)
        return cells + cells[::TWIN_EVERY]

    def units(self, cells) -> int:
        return len(cells)

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.orchestration import ResultStore

        self.inputs(seed)
        path = workdir / "setup.sqlite"
        with ResultStore(path):
            pass
        _remove_store(path)

    def execute(self, cells, workdir: Path, serial: bool = False) -> Outcome:
        from repro.orchestration import ResultStore, SweepRunner, cell_spec_hash

        jobs = 1 if serial else SWEEP_JOBS
        path = workdir / f"pass-{time.monotonic_ns()}.sqlite"
        addresses = sorted({cell_spec_hash(cell.spec_json()) for cell in cells})
        try:
            with ResultStore(path) as store:
                start = time.perf_counter()
                report = SweepRunner(store, jobs=jobs).run_cells(cells, name=self.name)
                wall = time.perf_counter() - start
                # one row at a time, so checking a pass does not grow this
                # process (the next pass's workers are forked from it)
                stored = [self._check(address, store.get_by_spec_hash(address))
                          for address in addresses]
        finally:
            _remove_store(path)
        problems = [problem for _, problem, _ in stored if problem]
        unique = len(addresses)
        if report.failed or report.executed != unique or report.cached != len(cells) - unique:
            problems.append(
                f"{report.executed} executed, {report.cached} cached, {report.failed} failed; "
                f"expected {unique} executed and {len(cells) - unique} cached"
            )
        rows = [row for _, _, row in stored if row is not None]
        return Outcome(
            wall_s=wall,
            cells=report.executed + report.cached,
            fingerprint={
                "cells": len(cells),
                "rows": len(rows),
                "digest": hashlib.sha256(
                    "\n".join(line for line, _, _ in stored).encode()
                ).hexdigest(),
            },
            problems=problems,
            nodes=sum(row["n"] for row in rows),
            messages=sum(row["messages"] for row in rows),
            rounds=sum(row["rounds"] for row in rows) / max(1, len(rows)),
            coverage=sum(row["coverage"] for row in rows) / max(1, len(rows)),
            cell_durations=[o.duration_s for o in report.outcomes if o.status == "ok"],
            cached=report.cached,
            jobs=jobs,
        )

    @staticmethod
    def _check(address: str, run) -> tuple[str, str | None, dict[str, Any] | None]:
        """A stored cell's fingerprint line, what is wrong with it, and its counts."""
        import numpy as np

        if run is None or not run.ok:
            return f"{address} missing", f"cell {address}: no successful row", None
        envelope = json.loads(run.result_json)
        n = int(envelope["spec"]["params"]["n"])
        summary = envelope["summary"]
        estimates = np.asarray(envelope["estimates"], dtype=float)
        coverage = summary.get("coverage", float(np.isfinite(estimates).mean()))
        problem = None
        if not summary["max_rel_error"] <= SWEEP_ERROR_TIMES_N / n or coverage < 1.0:
            problem = (
                f"cell {address}: max_rel_error {summary['max_rel_error']:.3g} "
                f"(bound {SWEEP_ERROR_TIMES_N}/n), coverage {coverage:.4f}"
            )
        line = (
            f"{address} {envelope['rounds']} {envelope['messages']} "
            f"{envelope['messages_lost']} {estimates_sha256(estimates)}"
        )
        counts = {
            "n": n,
            "messages": int(envelope["messages"]),
            "rounds": int(envelope["rounds"]),
            "coverage": coverage,
        }
        return line, problem, counts


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        Path(str(path) + suffix).unlink(missing_ok=True)


WORKLOADS: dict[str, SingleRun | SweepMixed] = {
    w.name: w
    for w in (
        SingleRun(
            name="avg-1e6",
            protocol="drr-gossip",
            params={"n": N_LARGE, "aggregate": "average", "workload": "uniform"},
            failures={},
            max_rel_error=1e-6,
            min_coverage=1.0,
        ),
        SingleRun(
            name="avg-lossy-1e6",
            protocol="drr-gossip",
            params={"n": N_LARGE, "aggregate": "average", "workload": "uniform"},
            failures=LOSSY,
            max_rel_error=1e-2,
            min_coverage=0.5,
        ),
        SingleRun(
            name="pushsum-1e6",
            protocol="push-sum",
            params={"n": N_LARGE, "workload": "uniform", "rounds": PUSH_SUM_ROUNDS},
            failures={},
            max_rel_error=1e-6,
            min_coverage=1.0,
        ),
        SweepMixed(name="sweep-mixed"),
    )
}


# --------------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------------- #
class Attempts:
    """Counts attempted and failed units and checks every repetition.

    A repetition fails when it raises, breaks its accuracy bound, differs
    from the first repetition, or misses the pinned fingerprint.
    """

    def __init__(self, units: int, pinned: dict[str, Any] | None) -> None:
        self.units = units
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: Outcome | None = None

    def run(self, label: str, execute: Callable[[], Outcome]) -> Outcome | None:
        self.attempted += self.units
        try:
            outcome = execute()
        except Exception:
            self.fail(label, [traceback.format_exc()])
            return None
        problems = list(outcome.problems)
        if self.reference is None:
            self.reference = outcome
        elif not outcome.matches(self.reference):
            problems.append("outcome differs from the first repetition")
        if self.pinned is not None and outcome.fingerprint != self.pinned:
            problems.append(f"fingerprint {outcome.fingerprint} misses the pinned {self.pinned}")
        if outcome is not self.reference:
            outcome.result = None
        if problems:
            self.fail(label, problems)
        return outcome

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += self.units
        self.problems.extend(f"{label}: {p}" for p in problems)


def pinned_fingerprint(name: str, seed: int) -> dict[str, Any] | None:
    pins = json.loads(FINGERPRINTS.read_text())
    return pins["workloads"][name] if seed == pins["seed"] else None


def setup_probe(name: str, seed: int, workdir: Path) -> float:
    """Wall time of one fresh interpreter doing only the workload's set-up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--mode", "setup",
        "--workload", name, "--seed", str(seed), "--workdir", str(workdir / "setup"),
    ]
    start = time.perf_counter()
    proc = run_child(command, PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: set-up probe exited with {proc.returncode}")
    return elapsed


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict[str, Any]:
    """Warm up, then time repetitions and set-up probes for ``seconds`` in all."""
    from spans import Tracer, installed, layer_metrics

    workload = WORKLOADS[name]
    start = time.perf_counter()
    inputs = workload.inputs(seed)
    pinned = pinned_fingerprint(workload.name, seed)
    attempts = Attempts(workload.units(inputs), pinned)

    def repetition(label: str, serial: bool = False) -> Outcome | None:
        return attempts.run(label, lambda: workload.execute(inputs, workdir, serial))

    # One untimed warm-up: lazy imports, allocator growth, page cache.  It
    # runs serially, so its peak resident set is the program's own: with
    # jobs=2 the sweep process also holds however many finished cells its
    # workers got ahead by, which made that peak swing from 57 to 91 MB.
    repetition("warm-up", serial=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Timed repetitions until the next one would end past the budget.  The
    # set-up probes are spread evenly between them, so that a stretch of
    # host contention reaches the probes and the repetitions alike.
    timed: list[Outcome] = []
    setup: list[float] = []
    last = 0.0
    for rep in itertools.count():
        if rep >= workload.min_reps and time.perf_counter() - start + last > seconds:
            break
        began = time.perf_counter()
        outcome = repetition(f"rep {rep}")
        if outcome is not None:
            timed.append(outcome)
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setup) < math.ceil(SETUP_PROBES * share):
            setup.append(setup_probe(workload.name, seed, workdir))
        last = time.perf_counter() - began
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload.name, seed, workdir))
    if not timed:
        raise RuntimeError("every repetition failed:\n" + "\n".join(attempts.problems))

    runs = [o.wall_s for o in timed]
    first = timed[0]
    doc: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "metrics": {
            "run_s": statistics.median(runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
            "msgs_per_node": first.messages / first.nodes,
            "rounds": first.rounds,
            "coverage": first.coverage,
        },
        "samples": {"run_s": summarize(runs), "setup_s": summarize(setup)},
        "fingerprint": first.fingerprint,
        "fingerprint_check": "skipped" if pinned is None else (
            "match" if all(o.fingerprint == pinned for o in timed) else "mismatch"
        ),
    }
    durations = sorted(d for o in timed for d in o.cell_durations)
    if durations:
        doc["samples"]["cell_s"] = summarize(durations)

    if trace:
        baseline = statistics.median(runs)
        if workload.trace_needs_serial_reference:
            serial = repetition("serial reference", serial=True)
            baseline = serial.wall_s if serial else float("nan")
        tracer = Tracer()
        with installed(tracer):
            traced = repetition("traced", serial=True)
        layers = layer_metrics(tracer, workload.root)
        # cell latency and worker idleness come from the untraced jobs=2 passes
        layers["orchestration.cell_s_p50"] = statistics.median(durations) if durations else 0.0
        layers["orchestration.cell_s_p99"] = tail(durations, 990) or 0.0
        layers["orchestration.worker_idle_frac"] = statistics.median(
            1.0 - sum(o.cell_durations) / (o.jobs * o.wall_s) for o in timed
        ) if durations else 0.0
        layers["orchestration.dedup_frac"] = first.cached / first.cells
        layers["trace.overhead_frac"] = traced.wall_s / baseline - 1.0 if traced else float("nan")
        trace_file = RESULTS_DIR / f"trace-{workload.name}.json"
        tracer.write(trace_file, workload=workload.name, seed=seed)
        doc["per_layer"] = layers
        doc["trace_file"] = str(trace_file.relative_to(RESULTS_DIR.parents[1]))

    doc.update(
        correct=attempts.failed == 0,
        attempted=attempts.attempted,
        failed=attempts.failed,
        problems=attempts.problems,
        host=program_facts(),
    )
    return doc


def program_facts() -> dict[str, Any]:
    import importlib.util

    import numpy

    from repro.substrate import available_backends

    return {
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "backends": list(available_backends()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("run", "setup"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        use_source()
    except MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        WORKLOADS[args.workload].setup(args.seed, args.workdir)
        return 0
    doc = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
