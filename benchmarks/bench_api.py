"""CI smoke check of the declarative run API.

``python benchmarks/bench_api.py``: dispatching DRR through
``repro.run(RunSpec(...))`` at ``--n`` (default 10^5) nodes must add less
than ``--max-overhead`` percent (default 5) over calling ``run_drr``
directly, and a serialise → deserialise → re-run cycle must reproduce the
direct dispatch exactly.  A telemetry-enabled dispatch must reproduce the
plain dispatch exactly (``same_outcome``, which ignores the telemetry
section) with unchanged spec/param hashes, and its wall cost is reported.
Exit status is non-zero when any bar is missed.
"""

from __future__ import annotations

import argparse
import sys
import time

import repro
from repro import RunSpec
from repro.core import run_drr


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="DRR network size")
    parser.add_argument("--repeats", type=int, default=5, help="timing repetitions (best-of)")
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=5.0,
        help="maximum allowed spec-dispatch overhead over direct run_drr, in percent",
    )
    args = parser.parse_args(argv)

    seed = 1
    spec = RunSpec(protocol="drr", params={"n": args.n}, seed=seed)

    # warm-up (imports, allocator, registries) outside the timed region
    run_drr(args.n, rng=seed)
    repro.run(spec)

    direct_s = _best_of(lambda: run_drr(args.n, rng=seed), args.repeats)
    spec_s = _best_of(lambda: repro.run(spec), args.repeats)
    overhead_pct = 100.0 * (spec_s - direct_s) / direct_s
    print(f"direct run_drr(n={args.n}):   best {direct_s * 1e3:8.2f} ms")
    print(f"repro.run(RunSpec(drr)):      best {spec_s * 1e3:8.2f} ms")
    print(f"spec-dispatch overhead:       {overhead_pct:+.2f}% (bar: < {args.max_overhead:.1f}%)")

    ok = overhead_pct < args.max_overhead

    # correctness smoke: serialise -> deserialise -> re-run must be exact
    result = repro.run(spec)
    replay = repro.run(RunSpec.from_json(spec.to_json()))
    exact = replay.same_outcome(result)
    print(f"json round-trip reproduces:   {'yes' if exact else 'NO'}")
    ok = ok and exact

    # telemetry neutrality: an enabled run reproduces the plain run exactly,
    # identity hashes ignore the toggle, and the enabled cost is reported.
    telemetry_spec = spec.with_telemetry()
    telemetry_s = _best_of(lambda: repro.run(telemetry_spec), args.repeats)
    telemetry_pct = 100.0 * (telemetry_s - direct_s) / direct_s
    traced = repro.run(telemetry_spec)
    neutral = traced.same_outcome(result) and traced.telemetry is not None
    hashes_stable = (
        telemetry_spec.spec_hash() == spec.spec_hash()
        and telemetry_spec.param_hash() == spec.param_hash()
    )
    print(f"repro.run(+telemetry):        best {telemetry_s * 1e3:8.2f} ms ({telemetry_pct:+.2f}%, reported only)")
    print(f"telemetry-neutral outcome:    {'yes' if neutral else 'NO'}")
    print(f"hashes ignore telemetry:      {'yes' if hashes_stable else 'NO'}")
    ok = ok and neutral and hashes_stable

    if not ok:
        print("bench_api: FAILED", file=sys.stderr)
        return 1
    print("bench_api: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
