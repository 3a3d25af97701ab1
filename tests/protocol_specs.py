"""One representative run spec per registered protocol, shared by the tests.

``tests/test_api.py`` round-trips every entry through JSON and
``tests/test_substrate.py`` builds its backend-equivalence matrix on them.
Every protocol in the registry must appear here (both files enforce it),
so a newly registered protocol fails the suite until it gets coverage.
"""

from __future__ import annotations

from repro import RunSpec
from repro.simulator import FailureModel

#: protocol -> ``RunSpec`` fields (``params`` / ``topology``), sized for test speed
PROTOCOL_SPECS: dict[str, dict] = {
    "drr": {"params": {"n": 96}},
    "drr-gossip": {"params": {"n": 64, "aggregate": "average", "workload": "uniform"}},
    "local-drr": {"topology": {"family": "ring", "n": 64}},
    "push-sum": {"params": {"n": 64, "workload": "normal"}},
    "push-max": {"params": {"n": 64, "workload": "uniform"}},
    "efficient-gossip": {"params": {"n": 64, "aggregate": "max", "workload": "uniform"}},
    "epoch-gossip-ave": {"params": {"n": 64, "workload": "uniform", "epochs": 2}},
    "push-rumor": {"params": {"n": 64}},
    "push-pull-rumor": {"params": {"n": 64}},
    "flood-max": {"topology": {"family": "grid", "n": 64}, "params": {"workload": "uniform"}},
    "chord-lookups": {"topology": {"family": "chord", "n": 48}, "params": {"lookups": 24}},
}


def spec_for(
    protocol: str,
    backend: str = "vectorized",
    failures: FailureModel | None = None,
    seed: int = 5,
) -> RunSpec:
    """The table's spec for ``protocol`` on ``backend`` under ``failures``."""
    base = PROTOCOL_SPECS[protocol]
    return RunSpec(
        protocol=protocol,
        params=base.get("params", {}),
        topology=base.get("topology"),
        failures=failures if failures is not None else FailureModel(),
        backend=backend,
        seed=seed,
    )
