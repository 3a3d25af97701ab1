"""Benchmark and CI gate for the simulation service's result cache.

As a script (``python benchmarks/bench_service.py``) it measures the two
costs that justify the service's content-addressed design at ``--n``
(default 10^4, engine backend so the execution is honestly expensive):

* **submit -> result latency**: POST a novel spec, drain it with a real
  queue worker, poll until the result envelope comes back — the full
  price of a cache miss, split into execution time and service overhead;
* **cached-hit cost**: re-POST the identical spec ``--cached-requests``
  times over one keep-alive connection — each is a 200 with
  ``cached: true`` served straight from the store's spec-hash index.

The enforced bar (``--min-cache-ratio``, default 50) is that a cached
hit is at least that many times cheaper than the execution it avoids —
the whole point of content addressing is that duplicate submissions cost
an indexed SELECT, not a simulation.  Both measurements append rows to
``BENCH_substrate.json`` (the perf trajectory ``drr-gossip results
--bench`` prints) unless ``--no-json`` is given.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.harness.benchlog import DEFAULT_BENCH_FILE, append_bench_rows
from repro.orchestration import QueueWorker, ResultStore
from repro.service import ServiceClient, ServiceServer

#: rows accumulated by the gate, flushed to BENCH_substrate.json
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


def smoke_service_cache(n: int, cached_requests: int, min_ratio: float) -> bool:
    spec = {"protocol": "drr-gossip", "params": {"n": n}, "backend": "engine", "seed": 1}
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        store_path = Path(tmp) / "svc.sqlite"
        with ServiceServer(store_path, port=0) as server, ServiceClient(server.url) as client:
            # -- cache miss: submit -> execute -> result ---------------- #
            submitted = client.submit(spec)
            assert submitted["cached"] is False, "fresh store must not have this spec"
            run_id = submitted["run_id"]

            def drain() -> None:
                with ResultStore(store_path) as store:
                    QueueWorker(store, worker_id="bench", poll_interval_s=0.05).drain()

            start = time.perf_counter()
            worker = threading.Thread(target=drain)
            worker.start()
            status = client.wait_for(run_id, timeout_s=600, poll_s=0.1)
            envelope = client.result(run_id)
            miss_s = time.perf_counter() - start
            worker.join(timeout=60)
            execution_s = float(status["duration_s"])
            result = envelope["result"]
            record("service-miss", protocol="drr-gossip", n=n, backend="engine",
                   wall_s=miss_s, messages=result["messages"], rounds=result["rounds"])

            # -- cached hits: identical spec re-POSTed ------------------ #
            # one warm-up so connection setup is not billed to the cache
            assert client.submit(spec)["cached"] is True
            start = time.perf_counter()
            for _ in range(cached_requests):
                hit = client.submit(spec)
                assert hit["cached"] is True and hit["state"] == "done"
            cached_total_s = time.perf_counter() - start
            cached_s = cached_total_s / cached_requests
            record("service-cached-hit", protocol="drr-gossip", n=n, backend="engine",
                   wall_s=cached_s, rounds=result["rounds"])

    ratio = execution_s / cached_s if cached_s > 0 else float("inf")
    print(f"service @ n={n} (engine backend):")
    print(f"  submit->result miss : {miss_s:.2f}s total "
          f"({execution_s:.2f}s execution, {miss_s - execution_s:.2f}s service+poll)")
    print(f"  cached hit          : {cached_s * 1000:.2f}ms/request "
          f"({cached_requests / cached_total_s:.0f} req/s over {cached_requests} requests)")
    print(f"  cache advantage     : {ratio:.0f}x cheaper than execution "
          f"(bar: >= {min_ratio:.0f}x)")
    if ratio < min_ratio:
        print(f"FAIL: cached hits only {ratio:.1f}x cheaper than execution "
              f"(need >= {min_ratio:.0f}x)", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=10_000,
                        help="nodes for the executed spec (engine backend)")
    parser.add_argument("--cached-requests", type=int, default=100,
                        help="identical re-submissions to time the cache with")
    parser.add_argument("--min-cache-ratio", type=float, default=50.0,
                        help="required execution-cost / cached-hit-cost ratio")
    parser.add_argument("--json", default=DEFAULT_BENCH_FILE,
                        help="bench trajectory file to append rows to")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing BENCH_substrate.json rows")
    args = parser.parse_args(argv)

    ok = smoke_service_cache(args.n, args.cached_requests, args.min_cache_ratio)
    if not args.no_json and BENCH_ROWS:
        path = append_bench_rows(BENCH_ROWS, args.json)
        print(f"recorded {len(BENCH_ROWS)} benchmark row(s) in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
