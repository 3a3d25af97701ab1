"""CI smoke checks of the execution substrate.

``python benchmarks/bench_substrate.py`` runs the smoke comparison: the
vectorized kernel must beat the message-level engine by at least
``--min-speedup`` (default 5x) on uniform gossip *and* on Local-DRR over a
random regular graph at ``--n`` (default 10^5) nodes; a batch of Chord
lookups must complete on both backends with identical owners; with
``--scale`` a full ``drr_gossip_average`` run at 10^6 nodes plus a
vectorized Local-DRR over a 10^6-node sparse random graph must finish; and
with ``--scale-large`` a 10^7-node ``drr_gossip_average`` run on
``vectorized`` must complete within ``--large-budget`` seconds.

``--churn-only`` (the ``churn-smoke`` CI job) runs the mid-run churn
scenario on both backends and the churn-off overhead gate.

The telemetry overhead gate (``smoke_telemetry_overhead``) patches the
instrumented substrate primitives back to their ``__wrapped__``
originals, times the hook-free hot path against the shipped path with
telemetry disabled, and fails when the disabled residue exceeds
``--max-telemetry-overhead`` percent (default 2); the enabled cost is
measured and reported, and an enabled run must reproduce the disabled
run bit-for-bit.

Every measured run appends a machine-readable row (protocol, n,
backend, wall time, git SHA) to ``BENCH_substrate.json`` — the
persisted perf trajectory that ``drr-gossip results --bench`` prints —
unless ``--no-json`` is given.  Exit status is non-zero when any
enforced bar is missed.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.baselines import push_sum
from repro.core import DRRGossipConfig, drr_gossip_average, run_local_drr
from repro.harness.benchlog import DEFAULT_BENCH_FILE, append_bench_rows
from repro.substrate import run_chord_lookups
from repro.topology import ChordNetwork, random_regular_graph

#: rows accumulated by the smoke checks, flushed to BENCH_substrate.json
BENCH_ROWS: list[dict] = []


def record(bench: str, *, protocol: str, n: int, backend: str, wall_s: float,
           messages: int | None = None, rounds: int | None = None) -> None:
    BENCH_ROWS.append(
        {
            "bench": bench,
            "protocol": protocol,
            "n": int(n),
            "backend": backend,
            "wall_s": float(wall_s),
            "messages": messages,
            "rounds": rounds,
        }
    )


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def smoke_speedup(n: int, rounds: int, min_speedup: float) -> bool:
    """Vectorized vs engine on uniform gossip (push-sum), same seed and rounds."""
    values = np.random.default_rng(0).uniform(0.0, 100.0, size=n)
    vectorized_s = _time(lambda: push_sum(values, rng=1, rounds=rounds))
    engine_s = _time(lambda: push_sum(values, rng=1, rounds=rounds, backend="engine"))
    record("uniform-gossip-speedup", protocol="push-sum", n=n, backend="vectorized", wall_s=vectorized_s)
    record("uniform-gossip-speedup", protocol="push-sum", n=n, backend="engine", wall_s=engine_s)
    speedup = engine_s / max(vectorized_s, 1e-9)
    print(
        f"uniform gossip, n={n}, rounds={rounds}: "
        f"vectorized {vectorized_s:.3f}s, engine {engine_s:.3f}s -> {speedup:.1f}x"
    )
    if speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below the required {min_speedup:g}x")
        return False
    print(f"OK: vectorized backend wins by >= {min_speedup:g}x")
    return True


def smoke_local_drr_speedup(n: int, min_speedup: float) -> bool:
    """Vectorized vs engine Local-DRR on a random 4-regular graph."""
    topo = random_regular_graph(n, 4, np.random.default_rng(0))
    vectorized_s = _time(lambda: run_local_drr(topo, rng=1))
    engine_s = _time(lambda: run_local_drr(topo, rng=1, backend="engine"))
    record("local-drr-speedup", protocol="local-drr", n=n, backend="vectorized", wall_s=vectorized_s)
    record("local-drr-speedup", protocol="local-drr", n=n, backend="engine", wall_s=engine_s)
    speedup = engine_s / max(vectorized_s, 1e-9)
    print(
        f"local-drr, n={n} (random 4-regular): "
        f"vectorized {vectorized_s:.3f}s, engine {engine_s:.3f}s -> {speedup:.1f}x"
    )
    if speedup < min_speedup:
        print(f"FAIL: local-drr speedup {speedup:.1f}x below the required {min_speedup:g}x")
        return False
    print(f"OK: vectorized local-drr wins by >= {min_speedup:g}x")
    return True


def smoke_chord_batch(n: int) -> bool:
    """A batch of n Chord lookups completes, identically on both backends."""
    rng = np.random.default_rng(0)
    chord = ChordNetwork(n, rng)
    sources = rng.integers(0, n, size=n)
    targets = rng.integers(0, chord.ring_size, size=n)
    fast = run_chord_lookups(chord, sources, targets, rng=1, backend="vectorized")
    engine = run_chord_lookups(chord, sources, targets, rng=1, backend="engine")
    print(
        f"chord lookup batch, n={n}: {fast.rounds} rounds, "
        f"{fast.messages} messages, completion={fast.completion_fraction:.3f}"
    )
    if fast.completion_fraction != 1.0:
        print("FAIL: chord lookup batch did not complete on a reliable network")
        return False
    if not (np.array_equal(fast.owners, engine.owners) and fast.rounds == engine.rounds):
        print("FAIL: chord lookup backends disagree")
        return False
    # Reply batching (count_reply) must ride the same cursor arrays: one
    # extra message per delivered route, one extra round, no per-route loop.
    plain_s = _time(lambda: run_chord_lookups(chord, sources, targets, rng=1))
    reply_start = time.perf_counter()
    replied = run_chord_lookups(chord, sources, targets, rng=1, count_reply=True)
    reply_s = time.perf_counter() - reply_start
    if replied.messages != fast.messages + int(replied.delivered.sum()):
        print("FAIL: count_reply accounting diverged from the hops+1 cost model")
        return False
    if replied.rounds != fast.rounds + 1:
        print("FAIL: reply batching should add exactly one trailing round")
        return False
    if reply_s > 2.0 * plain_s + 0.5:
        print(
            f"FAIL: count_reply batch took {reply_s:.3f}s vs {plain_s:.3f}s plain "
            "(reply batching regressed into per-route work)"
        )
        return False
    print(
        f"OK: chord lookup batch completes identically on both backends "
        f"(replies: +{int(replied.delivered.sum())} msgs, {reply_s:.3f}s vs {plain_s:.3f}s plain)"
    )
    return True


def smoke_telemetry_overhead(
    n: int, max_overhead_pct: float = 2.0, repeats: int = 5
) -> bool:
    """Disabled telemetry must cost < ``max_overhead_pct`` of the hot path.

    The instrumented substrate primitives keep their undecorated originals
    reachable via ``__wrapped__``; patching them back in gives an honest
    hook-free baseline (the PR 5 hot path) in the same process.  The gate
    compares that baseline against the shipped path with telemetry *off*
    (best-of-``repeats`` each, plus a small absolute slop so sub-20 ms
    timer jitter cannot flake CI); the *enabled* cost is measured and
    reported, and the enabled run must reproduce the disabled run exactly.
    """
    from repro.observability import Telemetry, use_telemetry
    from repro.substrate import delivery
    from repro.substrate.kernel import VectorizedKernel

    values = np.random.default_rng(0).uniform(0.0, 100.0, size=n)

    def run():
        return drr_gossip_average(values, rng=1, config=DRRGossipConfig(backend="vectorized"))

    def best_of(fn):
        return min(_time(fn) for _ in range(repeats))

    run()  # warm-up outside every timed region

    # Hook-free baseline: unwrap the instrumented primitives on both the
    # kernel (bound as staticmethods at class creation) and the delivery
    # module (probe_exchange/relay call module-level deliver_batch).
    primitives = ("deliver_batch", "probe_exchange", "relay_to_roots")
    kernel_names = {"deliver_batch": "deliver"}
    saved_module = {name: getattr(delivery, name) for name in primitives}
    saved_kernel = {
        kernel_names.get(name, name): getattr(VectorizedKernel, kernel_names.get(name, name))
        for name in primitives
    }
    try:
        for name in primitives:
            setattr(delivery, name, saved_module[name].__wrapped__)
            kernel_name = kernel_names.get(name, name)
            setattr(VectorizedKernel, kernel_name, staticmethod(saved_module[name].__wrapped__))
        baseline_s = best_of(run)
    finally:
        for name in primitives:
            setattr(delivery, name, saved_module[name])
        for kernel_name, fn in saved_kernel.items():
            setattr(VectorizedKernel, kernel_name, staticmethod(fn))

    disabled_s = best_of(run)
    reference = run()

    tel = Telemetry()
    with use_telemetry(tel):
        start = time.perf_counter()
        enabled_result = run()
        enabled_s = time.perf_counter() - start
    tel.finish()

    record("telemetry-overhead", protocol="drr-gossip-average", n=n,
           backend="vectorized", wall_s=disabled_s)
    record("telemetry-overhead", protocol="drr-gossip-average", n=n,
           backend="vectorized+telemetry", wall_s=enabled_s)

    overhead_pct = 100.0 * (disabled_s - baseline_s) / max(baseline_s, 1e-9)
    enabled_pct = 100.0 * (enabled_s - baseline_s) / max(baseline_s, 1e-9)
    print(
        f"telemetry overhead, n={n}: hook-free {baseline_s * 1e3:.1f} ms, "
        f"disabled {disabled_s * 1e3:.1f} ms ({overhead_pct:+.2f}%), "
        f"enabled {enabled_s * 1e3:.1f} ms ({enabled_pct:+.2f}%, reported only)"
    )
    ok = True
    if disabled_s > baseline_s * (1.0 + max_overhead_pct / 100.0) + 0.02:
        print(
            f"FAIL: disabled telemetry costs {overhead_pct:.2f}% "
            f"(bar: < {max_overhead_pct:g}% of the hook-free hot path)"
        )
        ok = False
    if (
        enabled_result.messages != reference.messages
        or enabled_result.rounds != reference.rounds
        or not np.array_equal(enabled_result.estimates, reference.estimates)
    ):
        print("FAIL: enabled telemetry changed the run outcome")
        ok = False
    doc = tel.as_dict()
    if not doc.get("phases") or not doc.get("spans"):
        print("FAIL: enabled telemetry recorded no phases/spans")
        ok = False
    if ok:
        print(f"OK: disabled telemetry is free (< {max_overhead_pct:g}%) and enabled is neutral")
    return ok


def smoke_local_drr_scale(n: int, budget_s: float = 9.0) -> bool:
    """Vectorized Local-DRR on an n-node sparse graph in single-digit seconds."""
    topo = random_regular_graph(n, 4, np.random.default_rng(0))
    start = time.perf_counter()
    result = run_local_drr(topo, rng=1)
    elapsed = time.perf_counter() - start
    record("local-drr-scale", protocol="local-drr", n=n, backend="vectorized",
           wall_s=elapsed, messages=result.metrics.total_messages)
    trees = result.forest.root_count
    expected = topo.expected_local_drr_trees()
    print(
        f"local-drr, n={n} (random 4-regular): {elapsed:.2f}s, "
        f"trees={trees} (theory {expected:.0f}), messages={result.metrics.total_messages}"
    )
    if elapsed > budget_s:
        print(f"FAIL: local-drr at n={n} took {elapsed:.1f}s (> {budget_s:g}s)")
        return False
    if not (0.8 * expected < trees < 1.2 * expected):
        print("FAIL: tree count far from the Theorem 13 expectation")
        return False
    print("OK: vectorized local-drr handles sparse graphs at scale")
    return True


def smoke_scale(n: int) -> bool:
    """A full DRR-gossip-average run must complete at scale, vectorized."""
    values = np.random.default_rng(0).uniform(0.0, 100.0, size=n)
    start = time.perf_counter()
    result = drr_gossip_average(values, rng=1, config=DRRGossipConfig(backend="vectorized"))
    elapsed = time.perf_counter() - start
    record("pipeline-scale", protocol="drr-gossip-average", n=n, backend="vectorized",
           wall_s=elapsed, messages=result.messages, rounds=result.rounds)
    print(
        f"drr_gossip_average, n={n}: {elapsed:.1f}s, rounds={result.rounds}, "
        f"messages={result.messages}, max_rel_error={result.max_relative_error:.2e}, "
        f"coverage={result.coverage:.3f}"
    )
    if not (result.coverage == 1.0 and result.max_relative_error < 1e-3):
        print("FAIL: scale run did not converge")
        return False
    print("OK: full pipeline completes at scale under the vectorized backend")
    return True


def smoke_scale_large(n: int, vectorized_budget_s: float) -> bool:
    """The n=10^7 tier: vectorized completes inside its budget and converges."""
    values = np.random.default_rng(0).uniform(0.0, 100.0, size=n)
    start = time.perf_counter()
    reference = drr_gossip_average(values, rng=1, config=DRRGossipConfig(backend="vectorized"))
    vectorized_s = time.perf_counter() - start
    record("pipeline-scale-large", protocol="drr-gossip-average", n=n, backend="vectorized",
           wall_s=vectorized_s, messages=reference.messages, rounds=reference.rounds)
    print(
        f"drr_gossip_average, n={n}: vectorized {vectorized_s:.1f}s, "
        f"rounds={reference.rounds}, messages={reference.messages}, "
        f"max_rel_error={reference.max_relative_error:.2e}"
    )
    ok = True
    if vectorized_s > vectorized_budget_s:
        print(f"FAIL: vectorized n={n} took {vectorized_s:.1f}s (> {vectorized_budget_s:g}s)")
        ok = False
    if not (reference.coverage == 1.0 and reference.max_relative_error < 1e-3):
        print("FAIL: large-scale vectorized run did not converge")
        ok = False
    if ok:
        print(f"OK: vectorized completes n={n} in {vectorized_s:.1f}s (< {vectorized_budget_s:g}s)")
    return ok


def smoke_churn_equivalence(n: int) -> bool:
    """A mid-run churn scenario is identical on every available backend.

    Runs push-sum and epoch-gossip-ave at ``n`` under loss + rate churn +
    a scheduled crash/join on every registered backend, and asserts the
    full equivalence contract: ``same_outcome`` (rounds, message
    counters, estimates and the degradation section, NaN equal to NaN).
    """
    from repro.api import RunSpec, run
    from repro.substrate import BACKENDS

    failures = {
        "loss_probability": 0.05,
        "churn_rate": 0.002,
        "join_rate": 0.001,
        "churn_schedule": [[3, [2, 7, 11], "crash"], [9, [2], "join"]],
    }
    ok = True
    for protocol, params in (
        ("push-sum", {"n": n, "workload": "uniform"}),
        ("epoch-gossip-ave", {"n": n, "workload": "uniform", "epochs": 3}),
    ):
        results = {}
        for backend in sorted(BACKENDS):
            spec = RunSpec(
                protocol=protocol, params=params, seed=7,
                backend=backend, failures=failures,
            )
            start = time.perf_counter()
            results[backend] = run(spec)
            elapsed = time.perf_counter() - start
            record("churn-equivalence", protocol=protocol, n=n, backend=backend,
                   wall_s=elapsed, messages=results[backend].messages,
                   rounds=results[backend].rounds)
        reference = results["vectorized"]
        print(
            f"churn equivalence, {protocol}, n={n}: " + ", ".join(
                f"{b}={r.rounds}r/{r.messages}m" for b, r in sorted(results.items())
            )
        )
        for backend, result in sorted(results.items()):
            if not result.same_outcome(reference):
                print(f"FAIL: {protocol} on {backend} diverged from vectorized under churn")
                ok = False
        if reference.degradation is None:
            print(f"FAIL: {protocol} churn run carried no degradation section")
            ok = False
        elif not reference.degradation.get("messages_to_dead", 0):
            print(f"FAIL: {protocol} churn run charged no messages to dead recipients")
            ok = False
    if ok:
        print(
            f"OK: churn scenario identical across {len(BACKENDS)} backend(s) "
            f"({', '.join(sorted(BACKENDS))})"
        )
    return ok


def smoke_churn_overhead(n: int, max_overhead_pct: float = 2.0, repeats: int = 5) -> bool:
    """A churn-off run must stay within ``max_overhead_pct`` of the hot path.

    Same honesty trick as the telemetry gate: the instrumented substrate
    primitives are patched back to their ``__wrapped__`` originals, giving
    the hook-free hot path (the bar every PR since 5 has been measured
    against) in the same process.  The shipped path — churn support
    built in but no churn configured — must cost < ``max_overhead_pct``
    over that baseline, and must reproduce its outcome bit-for-bit: specs
    without churn keys take the ``alive=None`` fast paths and never hash a
    single churn fate.
    """
    from repro.substrate import delivery
    from repro.substrate.kernel import VectorizedKernel

    values = np.random.default_rng(0).uniform(0.0, 100.0, size=n)

    def run_once():
        return drr_gossip_average(values, rng=1, config=DRRGossipConfig(backend="vectorized"))

    def best_of(fn):
        return min(_time(fn) for _ in range(repeats))

    run_once()  # warm-up outside every timed region

    primitives = ("deliver_batch", "probe_exchange", "relay_to_roots")
    kernel_names = {"deliver_batch": "deliver"}
    saved_module = {name: getattr(delivery, name) for name in primitives}
    saved_kernel = {
        kernel_names.get(name, name): getattr(VectorizedKernel, kernel_names.get(name, name))
        for name in primitives
    }
    try:
        for name in primitives:
            setattr(delivery, name, saved_module[name].__wrapped__)
            kernel_name = kernel_names.get(name, name)
            setattr(VectorizedKernel, kernel_name, staticmethod(saved_module[name].__wrapped__))
        baseline_s = best_of(run_once)
        baseline = run_once()
    finally:
        for name in primitives:
            setattr(delivery, name, saved_module[name])
        for kernel_name, fn in saved_kernel.items():
            setattr(VectorizedKernel, kernel_name, staticmethod(fn))

    shipped_s = best_of(run_once)
    shipped = run_once()

    record("churn-off-overhead", protocol="drr-gossip-average", n=n,
           backend="vectorized[hook-free]", wall_s=baseline_s)
    record("churn-off-overhead", protocol="drr-gossip-average", n=n,
           backend="vectorized", wall_s=shipped_s)
    overhead_pct = 100.0 * (shipped_s - baseline_s) / max(baseline_s, 1e-9)
    print(
        f"churn-off overhead, n={n}: hook-free {baseline_s * 1e3:.1f} ms, "
        f"shipped churn-off {shipped_s * 1e3:.1f} ms ({overhead_pct:+.2f}%)"
    )
    ok = True
    if shipped_s > baseline_s * (1.0 + max_overhead_pct / 100.0) + 0.02:
        print(
            f"FAIL: churn-off path costs {overhead_pct:.2f}% "
            f"(bar: < {max_overhead_pct:g}% of the hook-free hot path)"
        )
        ok = False
    if (
        shipped.messages != baseline.messages
        or shipped.rounds != baseline.rounds
        or not np.array_equal(shipped.estimates, baseline.estimates)
    ):
        print("FAIL: churn-off run diverged from the pre-churn hot path outcome")
        ok = False
    if ok:
        print(f"OK: churn-off path is free (< {max_overhead_pct:g}%) and bit-identical")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=100_000, help="nodes for the speedup comparison")
    parser.add_argument("--rounds", type=int, default=5, help="gossip rounds for the comparison")
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument(
        "--scale", action="store_true",
        help="also run the 10^6-node drr_gossip_average completion check",
    )
    parser.add_argument("--scale-n", type=int, default=1_000_000)
    parser.add_argument(
        "--scale-large", action="store_true",
        help="also run the 10^7-node vectorized completion check",
    )
    parser.add_argument("--scale-large-n", type=int, default=10_000_000)
    parser.add_argument(
        "--large-budget", type=float, default=540.0,
        help="vectorized wall-clock budget (s) for the 10^7 run (single-digit minutes)",
    )
    parser.add_argument("--chord-n", type=int, default=4096, help="nodes/lookups for the Chord batch check")
    parser.add_argument(
        "--telemetry-n", type=int, default=None,
        help="nodes for the disabled-telemetry overhead gate (default: --n)",
    )
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=2.0,
        help="maximum disabled-telemetry overhead over the hook-free hot path, in percent",
    )
    parser.add_argument(
        "--skip-telemetry", action="store_true", help="skip the telemetry overhead gate",
    )
    parser.add_argument(
        "--churn-only", action="store_true",
        help="run only the churn equivalence + churn-off overhead gates (the churn-smoke CI job)",
    )
    parser.add_argument(
        "--churn-n", type=int, default=10_000,
        help="nodes for the cross-backend churn equivalence smoke",
    )
    parser.add_argument(
        "--churn-overhead-n", type=int, default=100_000,
        help="nodes for the churn-off overhead gate",
    )
    parser.add_argument(
        "--max-churn-overhead", type=float, default=2.0,
        help="maximum churn-off overhead over the hook-free hot path, in percent",
    )
    parser.add_argument(
        "--json", type=str, default=DEFAULT_BENCH_FILE, metavar="PATH",
        help="append measured rows to this trajectory file",
    )
    parser.add_argument("--no-json", action="store_true", help="do not write the trajectory file")
    args = parser.parse_args(argv)

    if args.churn_only:
        ok = smoke_churn_equivalence(args.churn_n)
        ok = smoke_churn_overhead(args.churn_overhead_n, args.max_churn_overhead) and ok
        if not args.no_json and BENCH_ROWS:
            path = append_bench_rows(BENCH_ROWS, args.json)
            print(f"recorded {len(BENCH_ROWS)} benchmark row(s) in {path}")
        return 0 if ok else 1
    ok = smoke_speedup(args.n, args.rounds, args.min_speedup)
    ok = smoke_local_drr_speedup(args.n, args.min_speedup) and ok
    ok = smoke_chord_batch(args.chord_n) and ok
    if not args.skip_telemetry:
        ok = smoke_telemetry_overhead(
            args.telemetry_n if args.telemetry_n is not None else args.n,
            args.max_telemetry_overhead,
        ) and ok
    if args.scale:
        ok = smoke_scale(args.scale_n) and ok
        ok = smoke_local_drr_scale(args.scale_n) and ok
    if args.scale_large:
        ok = smoke_scale_large(args.scale_large_n, args.large_budget) and ok
    if not args.no_json and BENCH_ROWS:
        path = append_bench_rows(BENCH_ROWS, args.json)
        print(f"recorded {len(BENCH_ROWS)} benchmark row(s) in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
