"""The paper's contribution: DRR, Local-DRR, convergecast, gossip, DRR-gossip."""

from .aggregates import (
    AGGREGATE_SPECS,
    Aggregate,
    AggregateSpec,
    exact_aggregate,
    relative_error,
)
from .convergecast import (
    BroadcastResult,
    ConvergecastResult,
    run_broadcast,
    run_convergecast,
)
from .data_spread import run_data_spread
from .drr import DRRNode, DRRResult, default_probe_budget, run_drr
from .drr_gossip import (
    DRRGossipConfig,
    DRRGossipResult,
    broadcast_root_addresses,
    drr_gossip,
    drr_gossip_average,
    drr_gossip_count,
    drr_gossip_max,
    drr_gossip_min,
    drr_gossip_rank,
    drr_gossip_sum,
)
from .forest import Forest, ForestInvariantError
from .gossip_ave import GossipAveResult, default_ave_rounds, run_gossip_ave
from .gossip_max import (
    GossipMaxResult,
    default_gossip_rounds,
    default_sampling_rounds,
    run_gossip_max,
)
from .local_drr import run_local_drr

__all__ = [
    "AGGREGATE_SPECS",
    "Aggregate",
    "AggregateSpec",
    "exact_aggregate",
    "relative_error",
    "BroadcastResult",
    "ConvergecastResult",
    "run_broadcast",
    "run_convergecast",
    "run_data_spread",
    "DRRNode",
    "DRRResult",
    "default_probe_budget",
    "run_drr",
    "DRRGossipConfig",
    "DRRGossipResult",
    "broadcast_root_addresses",
    "drr_gossip",
    "drr_gossip_average",
    "drr_gossip_count",
    "drr_gossip_max",
    "drr_gossip_min",
    "drr_gossip_rank",
    "drr_gossip_sum",
    "Forest",
    "ForestInvariantError",
    "GossipAveResult",
    "default_ave_rounds",
    "run_gossip_ave",
    "GossipMaxResult",
    "default_gossip_rounds",
    "default_sampling_rounds",
    "run_gossip_max",
    "run_local_drr",
]
