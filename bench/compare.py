"""Compare two benchmark result files metric by metric.

    python3 bench/compare.py A.json B.json

For every (workload, end-to-end metric) pair present in both files, prints
A's median, B's median, the relative delta (B - A) / A and the allowed
delta.  That is the metric's bound from ``BENCHMARK.json``, except for the
counts the seed alone decides (``EXACT``): when both files ran the same
seed, those must be equal.  Exits 1 when any pair differs by more than it
may, in either direction, or when either file recorded a failed
repetition; exits 0 when the two agree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchlib import load_benchmark

#: identical between runs of one seed; their bounds in BENCHMARK.json only
#: absorb the differences between seeds
EXACT = frozenset({"msgs_per_node", "rounds", "coverage"})


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines, and whether every pair agrees within what it may differ."""
    same_seed = a["seed"] == b["seed"]
    lines = [f"{'workload':<14} {'metric':<14} {'A':>12} {'B':>12} {'delta':>9} {'allowed':>8}"]
    agree = True
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for side, doc in (("A", wa), ("B", wb)):
            if not doc["correct"]:
                agree = False
                lines.append(f"{workload:<14} {side} failed {doc['failed']} of {doc['attempted']}")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            exact = same_seed and name in EXACT
            va, vb = wa["metrics"][name]["value"], wb["metrics"][name]["value"]
            delta = (vb - va) / va if va else (0.0 if vb == va else float("inf"))
            worse = delta > 0 if metric["better"] == "lower" else delta < 0
            flag = ""
            if (vb != va) if exact else abs(delta) > metric["bound"]:
                agree = False
                flag = "  DIFFERS (B worse)" if worse else "  DIFFERS (B better)"
            allowed = "exact" if exact else f"{metric['bound']:.1%}"
            lines.append(
                f"{workload:<14} {name:<14} {va:>12.5g} {vb:>12.5g} "
                f"{delta:>+9.2%} {allowed:>8}{flag}"
            )
    return lines, agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    lines, agree = compare(a, b, load_benchmark())
    print("\n".join(lines))
    print("agree: every pair is within its bound" if agree else "DIFFER: see the flagged rows")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
