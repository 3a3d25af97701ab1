"""CI gates: the speed, scale and overhead bars of the vectorized reproduction.

Usage::

    PYTHONPATH=src python benchmarks/gates.py GATE [GATE ...]

The gate names are the only input; each gate's sizes and bounds are the
module constants above its function.  CI runs one job per gate (the
``gates`` matrix in ``.github/workflows/ci.yml``, which
``tests/test_ci.py`` checks against :data:`GATES`).  The exit status is 1
when any named gate misses a bar.

Timed comparisons run their sides in turn (A B A B ...) and compare each
side's best time, so a host that drifts slows every side alike.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro import RunSpec
from repro.baselines import push_sum
from repro.core import DRRGossipConfig, drr_gossip_average, run_drr, run_local_drr
from repro.observability import Telemetry, use_telemetry
from repro.orchestration import ResultStore, SweepRunner, cells_from_run_specs
from repro.substrate import BACKENDS, delivery, run_chord_lookups
from repro.substrate.kernel import VectorizedKernel
from repro.topology import ChordNetwork, random_regular_graph


def timed(fn):
    """``fn()``'s wall time in seconds, and its return value."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def alternate(*sides, turns: int):
    """Call ``sides`` in turn, ``turns`` times over.

    Returns each side's best wall time and each side's last return value.
    """
    best = [math.inf] * len(sides)
    last = [None] * len(sides)
    for _ in range(turns):
        for index, side in enumerate(sides):
            seconds, last[index] = timed(side)
            best[index] = min(best[index], seconds)
    return best, last


#: instrumented substrate primitives, and the kernel attribute each is bound to
_PRIMITIVES = {"deliver_batch": "deliver", "probe_exchange": "probe_exchange",
               "relay_to_roots": "relay_to_roots"}


@contextlib.contextmanager
def hook_free():
    """Run with the instrumented primitives patched back to their ``__wrapped__`` originals.

    The kernel binds the primitives as staticmethods at class creation, and
    ``probe_exchange``/``relay_to_roots`` call the module-level
    ``deliver_batch``, so both the module and the kernel are patched.
    """
    saved = {name: getattr(delivery, name) for name in _PRIMITIVES}
    try:
        for name, attribute in _PRIMITIVES.items():
            setattr(delivery, name, saved[name].__wrapped__)
            setattr(VectorizedKernel, attribute, staticmethod(saved[name].__wrapped__))
        yield
    finally:
        for name, attribute in _PRIMITIVES.items():
            setattr(delivery, name, saved[name])
            setattr(VectorizedKernel, attribute, staticmethod(saved[name]))


def _uniform(n: int) -> np.ndarray:
    return np.random.default_rng(0).uniform(0.0, 100.0, size=n)


def _average(values: np.ndarray):
    return drr_gossip_average(values, rng=1, config=DRRGossipConfig(backend="vectorized"))


def _same_outcome(a, b) -> bool:
    return (a.messages == b.messages and a.rounds == b.rounds
            and np.array_equal(a.estimates, b.estimates))


def _converged(result) -> bool:
    return result.coverage == 1.0 and result.max_relative_error < 1e-3


def _verdict(failures: list[str], ok_line: str) -> bool:
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(f"OK: {ok_line}")
    return not failures


SPEEDUP_N = 100_000
SPEEDUP_ROUNDS = 5
MIN_SPEEDUP = 5.0


def gate_speedup() -> bool:
    """vectorized >= 5x engine at n = 10^5: push-sum, and Local-DRR on a random 4-regular graph."""
    values = _uniform(SPEEDUP_N)
    topo = random_regular_graph(SPEEDUP_N, 4, np.random.default_rng(0))
    cases = {
        f"push-sum, {SPEEDUP_ROUNDS} rounds": lambda backend: push_sum(
            values, rng=1, rounds=SPEEDUP_ROUNDS, backend=backend),
        "local-drr, random 4-regular": lambda backend: run_local_drr(topo, rng=1, backend=backend),
    }
    failures = []
    for case, fn in cases.items():
        (vectorized_s, engine_s), _ = alternate(
            lambda: fn("vectorized"), lambda: fn("engine"), turns=1)
        speedup = engine_s / vectorized_s
        print(f"{case}, n={SPEEDUP_N}: vectorized {vectorized_s:.3f}s, "
              f"engine {engine_s:.3f}s -> {speedup:.1f}x")
        if speedup < MIN_SPEEDUP:
            failures.append(f"{case}: speedup {speedup:.1f}x below {MIN_SPEEDUP:g}x")
    return _verdict(failures, f"vectorized wins by >= {MIN_SPEEDUP:g}x")


CHORD_N = 4096
#: a run that counts replies may take REPLY_FACTOR x the plain run's time + REPLY_SLOP_S
REPLY_FACTOR = 2.0
REPLY_SLOP_S = 0.5


def gate_chord() -> bool:
    """4096 Chord lookups are identical on both backends; counting replies stays batched."""
    rng = np.random.default_rng(0)
    chord = ChordNetwork(CHORD_N, rng)
    sources = rng.integers(0, CHORD_N, size=CHORD_N)
    targets = rng.integers(0, chord.ring_size, size=CHORD_N)

    def lookups(**options):
        return run_chord_lookups(chord, sources, targets, rng=1, **options)

    engine = lookups(backend="engine")
    lookups()  # warm-up outside every timed region
    (plain_s, reply_s), (plain, replied) = alternate(
        lookups, lambda: lookups(count_reply=True), turns=1)
    replies = int(replied.delivered.sum())
    print(f"chord lookups, n={CHORD_N}: {plain.rounds} rounds, {plain.messages} messages, "
          f"completion={plain.completion_fraction:.3f}; replies +{replies} messages "
          f"in {reply_s:.3f}s vs {plain_s:.3f}s plain")
    failures = []
    if plain.completion_fraction != 1.0:
        failures.append("the lookups did not complete on a reliable network")
    if not (np.array_equal(plain.owners, engine.owners) and plain.rounds == engine.rounds):
        failures.append("the backends disagree")
    # one extra message per delivered route and one trailing round, no per-route loop
    if replied.messages != plain.messages + replies or replied.rounds != plain.rounds + 1:
        failures.append("count_reply diverged from the hops + 1 cost model")
    if reply_s > REPLY_FACTOR * plain_s + REPLY_SLOP_S:
        failures.append("count_reply regressed into per-route work")
    return _verdict(failures, "the lookups complete identically on both backends")


OVERHEAD_N = 100_000
MAX_OVERHEAD_PCT = 2.0
OVERHEAD_SLOP_S = 0.02
OVERHEAD_TURNS = 5


def gate_overhead() -> bool:
    """Disabled telemetry and churn-off cost < 2% (+0.02 s) over the hook-free path, bit-identically.

    The shipped path (telemetry off, no churn configured) is timed against
    :func:`hook_free`, the hot path without telemetry hooks; specs without
    churn take the ``alive=None`` fast paths and hash no churn fate.  A
    telemetry-enabled run must reproduce the shipped run; its cost is
    reported only.
    """
    values = _uniform(OVERHEAD_N)

    def bare():
        with hook_free():
            return _average(values)

    def traced():
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            result = _average(values)
        telemetry.finish()
        return result, telemetry.as_dict()

    _average(values)  # warm-up outside every timed region
    (bare_s, shipped_s), (bare_run, shipped_run) = alternate(
        bare, lambda: _average(values), turns=OVERHEAD_TURNS)
    (traced_s,), ((traced_run, doc),) = alternate(traced, turns=OVERHEAD_TURNS)
    overhead_pct = 100.0 * (shipped_s - bare_s) / bare_s
    print(f"drr_gossip_average, n={OVERHEAD_N}: hook-free {bare_s * 1e3:.1f} ms, "
          f"shipped {shipped_s * 1e3:.1f} ms ({overhead_pct:+.2f}%), "
          f"telemetry on {traced_s * 1e3:.1f} ms "
          f"({100.0 * (traced_s - bare_s) / bare_s:+.2f}%, reported only)")
    failures = []
    if shipped_s > bare_s * (1.0 + MAX_OVERHEAD_PCT / 100.0) + OVERHEAD_SLOP_S:
        failures.append(f"the shipped path costs {overhead_pct:.2f}% "
                        f"(bar: < {MAX_OVERHEAD_PCT:g}% + {OVERHEAD_SLOP_S:g}s)")
    if not _same_outcome(shipped_run, bare_run):
        failures.append("the shipped run diverged from the hook-free run")
    if not _same_outcome(traced_run, shipped_run):
        failures.append("enabled telemetry changed the run outcome")
    if not (doc.get("phases") and doc.get("spans")):
        failures.append("enabled telemetry recorded no phases or spans")
    return _verdict(failures, "telemetry off and churn off are free, and telemetry on is neutral")


SCALE_N = 1_000_000
LOCAL_DRR_BUDGET_S = 9.0
#: Local-DRR's tree count may sit this far (relative) from Theorem 13's
TREE_TOLERANCE = 0.2


def gate_scale() -> bool:
    """drr_gossip_average converges at n = 10^6; Local-DRR there takes <= 9 s, Theorem 13's tree count."""
    values = _uniform(SCALE_N)
    elapsed, result = timed(lambda: _average(values))
    print(f"drr_gossip_average, n={SCALE_N}: {elapsed:.1f}s, rounds={result.rounds}, "
          f"messages={result.messages}, max_rel_error={result.max_relative_error:.2e}, "
          f"coverage={result.coverage:.3f}")
    failures = [] if _converged(result) else ["drr_gossip_average did not converge"]

    topo = random_regular_graph(SCALE_N, 4, np.random.default_rng(0))
    elapsed, local = timed(lambda: run_local_drr(topo, rng=1))
    trees = local.forest.root_count
    expected = topo.expected_local_drr_trees()
    print(f"local-drr, n={SCALE_N} (random 4-regular): {elapsed:.2f}s, trees={trees} "
          f"(theory {expected:.0f}), messages={local.metrics.total_messages}")
    if elapsed > LOCAL_DRR_BUDGET_S:
        failures.append(f"local-drr took {elapsed:.1f}s (> {LOCAL_DRR_BUDGET_S:g}s)")
    if abs(trees - expected) >= TREE_TOLERANCE * expected:
        failures.append("the tree count is far from Theorem 13's expectation")
    return _verdict(failures, "both complete at scale on the vectorized backend")


LARGE_N = 10_000_000
LARGE_BUDGET_S = 540.0


def gate_scale_large() -> bool:
    """drr_gossip_average at n = 10^7 converges within 540 s."""
    values = _uniform(LARGE_N)
    elapsed, result = timed(lambda: _average(values))
    print(f"drr_gossip_average, n={LARGE_N}: {elapsed:.1f}s, rounds={result.rounds}, "
          f"messages={result.messages}, max_rel_error={result.max_relative_error:.2e}")
    failures = [] if _converged(result) else ["the run did not converge"]
    if elapsed > LARGE_BUDGET_S:
        failures.append(f"the run took {elapsed:.1f}s (> {LARGE_BUDGET_S:g}s)")
    return _verdict(failures, f"n={LARGE_N} completes within {LARGE_BUDGET_S:g}s")


CHURN_N = 10_000
CHURN_FAILURES = {
    "loss_probability": 0.05,
    "churn_rate": 0.002,
    "join_rate": 0.001,
    "churn_schedule": [[3, [2, 7, 11], "crash"], [9, [2], "join"]],
}


def gate_churn() -> bool:
    """Loss, rate churn and a scheduled crash/join give the same outcome on every backend at n = 10^4."""
    failures = []
    for protocol, params in (
        ("push-sum", {"n": CHURN_N, "workload": "uniform"}),
        ("epoch-gossip-ave", {"n": CHURN_N, "workload": "uniform", "epochs": 3}),
    ):
        results = {
            backend: repro.run(RunSpec(protocol=protocol, params=params, seed=7,
                                       backend=backend, failures=CHURN_FAILURES))
            for backend in sorted(BACKENDS)
        }
        print(f"{protocol}, n={CHURN_N}: " + ", ".join(
            f"{backend}={result.rounds}r/{result.messages}m" for backend, result in results.items()))
        reference = results["vectorized"]
        failures += [f"{protocol} on {backend} diverged from vectorized"
                     for backend, result in results.items() if not result.same_outcome(reference)]
        if reference.degradation is None:
            failures.append(f"{protocol} carried no degradation section")
        elif not reference.degradation.get("messages_to_dead"):
            failures.append(f"{protocol} charged no messages to dead recipients")
    return _verdict(failures, f"the churn scenario is identical on {', '.join(sorted(BACKENDS))}")


API_N = 100_000
MAX_DISPATCH_OVERHEAD_PCT = 5.0
API_TURNS = 11


def gate_api() -> bool:
    """repro.run(RunSpec) adds < 5% over run_drr at n = 10^5; JSON replays and telemetry are exact."""
    spec = RunSpec(protocol="drr", params={"n": API_N}, seed=1)
    traced_spec = spec.with_telemetry()
    run_drr(API_N, rng=1)  # warm-up (imports, allocator, registries) outside every timed region
    repro.run(spec)
    (direct_s, spec_s), (_, result) = alternate(
        lambda: run_drr(API_N, rng=1), lambda: repro.run(spec), turns=API_TURNS)
    (traced_s,), (traced,) = alternate(lambda: repro.run(traced_spec), turns=API_TURNS)
    overhead_pct = 100.0 * (spec_s - direct_s) / direct_s
    print(f"drr, n={API_N}: run_drr {direct_s * 1e3:.2f} ms, repro.run {spec_s * 1e3:.2f} ms "
          f"({overhead_pct:+.2f}%), with telemetry {traced_s * 1e3:.2f} ms "
          f"({100.0 * (traced_s - direct_s) / direct_s:+.2f}%, reported only)")
    failures = []
    if overhead_pct >= MAX_DISPATCH_OVERHEAD_PCT:
        failures.append(f"spec dispatch costs {overhead_pct:.2f}% (bar: < {MAX_DISPATCH_OVERHEAD_PCT:g}%)")
    if not repro.run(RunSpec.from_json(spec.to_json())).same_outcome(result):
        failures.append("a JSON round-trip of the spec does not replay the run")
    if not (traced.same_outcome(result) and traced.telemetry is not None):
        failures.append("enabled telemetry changed the outcome")
    if (traced_spec.spec_hash(), traced_spec.param_hash()) != (spec.spec_hash(), spec.param_hash()):
        failures.append("the telemetry toggle moved the spec hashes")
    return _verdict(failures, "spec dispatch is cheap, replays exactly and ignores telemetry")


SWEEP_CELLS = 8
SWEEP_CELL_N = 1024
SWEEP_JOBS = 2
MIN_SWEEP_RATIO = 1.8
SWEEP_TURNS = 3


def gate_sweep() -> bool:
    """2 forked drains clear 8 engine cells >= 1.8x as fast as one (on >= 2 cores); the queue stays intact."""
    cells = cells_from_run_specs([
        RunSpec(protocol="drr-gossip", params={"n": SWEEP_CELL_N}, backend="engine", seed=1000 + i)
        for i in range(SWEEP_CELLS)
    ])
    failures = []
    with tempfile.TemporaryDirectory() as workdir:
        stores = (Path(workdir) / f"{i}.sqlite" for i in range(2 * SWEEP_TURNS))

        def drain(jobs: int) -> None:
            with ResultStore(next(stores)) as store:
                report = SweepRunner(store, jobs=jobs).run_cells(cells, name="gate")
                queue = store.queue_cells()
                completed = store.completed_cells()
            if report.failed or report.executed != len(cells):
                failures.append(f"jobs={jobs}: {report.summary()}")
            if not all((row.state, row.attempt) == ("done", 1) for row in queue):
                failures.append(f"jobs={jobs}: a cell was not done on its one claim")
            if any(cell.key not in completed for cell in cells):
                failures.append(f"jobs={jobs}: a cell has no result row")

        (serial_s, forked_s), _ = alternate(
            lambda: drain(1), lambda: drain(SWEEP_JOBS), turns=SWEEP_TURNS)
    ratio = serial_s / forked_s
    print(f"{SWEEP_CELLS} engine drr-gossip cells, n={SWEEP_CELL_N}: one drain {serial_s:.2f}s, "
          f"{SWEEP_JOBS} drains {forked_s:.2f}s -> {ratio:.2f}x")
    cores = os.cpu_count() or 1
    if cores < 2:
        print(f"NOTE: {cores} CPU core; the {MIN_SWEEP_RATIO:g}x ratio is reported, not enforced")
    elif ratio < MIN_SWEEP_RATIO:
        failures.append(f"{SWEEP_JOBS} drains reach {ratio:.2f}x, below {MIN_SWEEP_RATIO:g}x")
    return _verdict(failures, "forked drains scale, and every cell ran once")


#: gate name -> gate; the CI matrix lists exactly these names
GATES = {
    "speedup": gate_speedup,
    "chord": gate_chord,
    "overhead": gate_overhead,
    "scale": gate_scale,
    "scale-large": gate_scale_large,
    "churn": gate_churn,
    "api": gate_api,
    "sweep": gate_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gates", nargs="+", choices=GATES, metavar="GATE",
                        help=f"gates to run: {', '.join(GATES)}")
    failed = []
    for name in parser.parse_args(argv).gates:
        print(f"== {name}: {GATES[name].__doc__.splitlines()[0]}", flush=True)
        if not GATES[name]():
            failed.append(name)
    print(f"failed: {', '.join(failed)}" if failed else "all gates passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
