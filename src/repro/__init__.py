"""repro -- reproduction of "Optimal Gossip-Based Aggregate Computation".

Chen & Pandurangan, SPAA 2010 (arXiv:1001.3242).

The package implements the paper's DRR-gossip protocols, the baselines they
are compared against, a round-based simulator of the random phone-call model,
the sparse-network (Chord) machinery of Section 4, the address-oblivious
lower-bound experiment of Section 5, and the benchmark harness that
regenerates Table 1 and the per-theorem measurements.

Quickstart
----------
>>> import numpy as np
>>> from repro import drr_gossip_average
>>> values = np.random.default_rng(0).normal(size=1024)
>>> result = drr_gossip_average(values, rng=0)
>>> result.max_relative_error <= 0.05
True

Or, through the declarative run API (serializable specs, one entry point
for every protocol — see :mod:`repro.api`):

>>> import repro
>>> spec = repro.RunSpec(protocol="drr-gossip", params={"n": 1024}, seed=0)
>>> repro.run(spec).summary["max_rel_error"] <= 0.05
True
"""

from .core import (
    Aggregate,
    DRRGossipConfig,
    DRRGossipResult,
    DRRResult,
    Forest,
    drr_gossip,
    drr_gossip_average,
    drr_gossip_count,
    drr_gossip_max,
    drr_gossip_min,
    drr_gossip_rank,
    drr_gossip_sum,
    exact_aggregate,
    run_drr,
    run_local_drr,
)
from .simulator import FailureModel, MetricsCollector, make_rng
from .substrate import available_backends, get_kernel
from .api import (
    RunResult,
    RunSpec,
    SpecValidationError,
    TopologySpec,
    load_spec,
    load_specs,
    protocol_names,
    run,
)

__version__ = "1.1.0"

__all__ = [
    "Aggregate",
    "DRRGossipConfig",
    "DRRGossipResult",
    "DRRResult",
    "Forest",
    "drr_gossip",
    "drr_gossip_average",
    "drr_gossip_count",
    "drr_gossip_max",
    "drr_gossip_min",
    "drr_gossip_rank",
    "drr_gossip_sum",
    "exact_aggregate",
    "run_drr",
    "run_local_drr",
    "FailureModel",
    "MetricsCollector",
    "make_rng",
    "available_backends",
    "get_kernel",
    "RunResult",
    "RunSpec",
    "SpecValidationError",
    "TopologySpec",
    "load_spec",
    "load_specs",
    "protocol_names",
    "run",
    "__version__",
]
