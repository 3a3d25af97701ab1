#!/usr/bin/env python3
"""Quickstart: compute network-wide aggregates with DRR-gossip.

This example mirrors the motivating use case of the paper's introduction: a
large distributed system in which every node holds one number and everyone
wants to know the global Max / Average / Count without any coordinator,
using only randomized gossip.

Run it with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DRRGossipConfig,
    FailureModel,
    drr_gossip_average,
    drr_gossip_count,
    drr_gossip_max,
)


def main() -> None:
    n = 4096
    rng = np.random.default_rng(7)
    # every node holds one value (say, its current load in requests/second)
    values = rng.gamma(shape=2.0, scale=30.0, size=n)

    print(f"network of {n} nodes; true max={values.max():.2f}, true mean={values.mean():.2f}\n")

    # --- Max: exact at every node ----------------------------------------- #
    result = drr_gossip_max(values, rng=1)
    print("DRR-gossip-max")
    print(f"  every node learned {result.estimates[0]:.2f} (exact: {result.all_correct})")
    print(f"  rounds={result.rounds}, messages={result.messages} ({result.messages / n:.1f} per node)")
    print(f"  per-phase messages: {dict((k, v) for k, v in result.messages_by_phase().items() if v)}\n")

    # --- Average: converges to tiny relative error ------------------------ #
    result = drr_gossip_average(values, rng=2)
    print("DRR-gossip-ave")
    print(f"  worst relative error over all nodes: {result.max_relative_error:.2e}")
    print(f"  rounds={result.rounds}, messages={result.messages / n:.1f} per node\n")

    # --- Count: exact without failures, far off with them ------------------ #
    result = drr_gossip_count(values, rng=3)
    print("DRR-gossip-count on a reliable network")
    print(f"  every node learned {result.estimates[0]:.0f} (exact: {result.all_correct})\n")
    lossy = DRRGossipConfig(failure_model=FailureModel(loss_probability=0.05, crash_fraction=0.1))
    result = drr_gossip_count(values, rng=3, config=lossy)
    print("DRR-gossip-count on a faulty network (10% initial crashes, 5% message loss)")
    print(f"  surviving nodes: {int(result.exact)}")
    print(f"  fraction of nodes that learned an estimate: {result.coverage:.2f}")
    learned = result.estimates[result.learned]
    print(f"  their estimates: {learned.min():.0f} to {learned.max():.0f}, "
          f"worst relative error {result.max_relative_error:.0%}")
    print("  (Count, Sum and Rank are exact only on a failure-free network)")


if __name__ == "__main__":
    main()
