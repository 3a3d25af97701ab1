"""The repository's benchmark: one command, every metric, checked outputs.

    python3 bench/run.py                      # all four workloads, traced
    python3 bench/run.py --workload avg-1e6 --seed 1 --seconds 30 --trace 0

Each workload runs in its own fresh child process (``bench/workloads.py``),
which also times the ``setup_s`` probes.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one extra, traced repetition; the metric names and
units are those of ``BENCHMARK.json``.  The full record (sample summaries,
fingerprints, host facts) goes to a result file under ``results/bench/``
that ``bench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any

from benchlib import (
    BENCH_DIR,
    DEFAULT_SEED,
    RESULTS_DIR,
    MissingSource,
    host_facts,
    load_benchmark,
    run_child,
    use_source,
)

#: a child that runs longer than this is killed with its process group
CHILD_TIMEOUT_S = 150.0


def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any]:
    workdir = RESULTS_DIR / f"work-{os.getpid()}-{name}"
    command = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--mode", "run", "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    try:
        proc = run_child(command, CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: measuring child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _with_units(values: dict[str, float], specs: list[dict[str, Any]]) -> dict[str, Any]:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def _print_report(doc: dict[str, Any], bench: dict[str, Any]) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}): "
          f"{doc['attempted'] - doc['failed']}/{doc['attempted']} ok, "
          f"fingerprint {doc['fingerprint_check']}")
    for metric in bench["end_to_end"]:
        print(f"  {metric['name']:<40} {doc['metrics'][metric['name']]:>14.6g} {metric['unit']}")
    for name, s in doc["samples"].items():
        print(f"  samples {name:<14} median {s['median']:.4g}, q1 {s['q1']:.4g}, "
              f"q3 {s['q3']:.4g}, min {s['min']:.4g}, max {s['max']:.4g}, n={s['count']}"
              + "".join(f", {k} {v:.4g}" for k, v in s.items() if k.startswith("p")))
    for metric in bench["per_layer"] if "per_layer" in doc else ():
        print(f"  {metric['name']:<40} {doc['per_layer'][metric['name']]:>14.6g} {metric['unit']}")
    for problem in doc["problems"]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="add one traced repetition and report per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="result file (default: results/bench/<workload>-seed<seed>.json)")
    args = parser.parse_args(argv)
    try:
        use_source()
    except MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    selected = names if args.workload == "all" else [args.workload]
    results = {}
    for name in selected:
        doc = run_workload(name, args)
        results[name] = doc
        _print_report(doc, bench)
    host = host_facts()
    host.update(next(iter(results.values()))["host"])
    out = args.out or RESULTS_DIR / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "command": ["python3", "bench/run.py", *(argv if argv is not None else sys.argv[1:])],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "workloads": {
            name: {
                **doc,
                "metrics": _with_units(doc["metrics"], bench["end_to_end"]),
                **({"per_layer": _with_units(doc["per_layer"], bench["per_layer"])}
                   if "per_layer" in doc else {}),
            }
            for name, doc in results.items()
        },
    }, indent=1))
    print(f"result file: {out}")

    final_metrics: dict[str, Any] = {}
    if len(selected) == 1:
        doc = results[selected[0]]
        final_metrics = (_with_units(doc["per_layer"], bench["per_layer"]) if args.trace
                         else _with_units(doc["metrics"], bench["end_to_end"]))
    print(json.dumps({
        "correct": all(doc["correct"] for doc in results.values()),
        "attempted": sum(doc["attempted"] for doc in results.values()),
        "failed": sum(doc["failed"] for doc in results.values()),
        "metrics": final_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
