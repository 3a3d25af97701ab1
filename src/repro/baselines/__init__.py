"""Baseline protocols the paper compares DRR-gossip against.

Every baseline runs on the backend-selectable execution substrate: pass
``backend="vectorized"`` (default, columnar batches) or ``backend="engine"``
(message-level simulation) to any of the entry points.
"""

from .efficient_gossip import EfficientGossipResult, efficient_gossip
from .epoch_gossip import (
    EpochGossipNode,
    EpochGossipResult,
    default_epoch_rounds,
    epoch_gossip_ave,
)
from .flooding import FloodingResult, FloodNode, flood_max
from .rumor_spreading import (
    PushPullRumorNode,
    PushRumorNode,
    RumorResult,
    push_pull_rumor,
    push_rumor,
)
from .uniform_gossip import (
    PushMaxNode,
    PushSumNode,
    UniformGossipResult,
    default_push_rounds,
    push_max,
    push_sum,
)

__all__ = [
    "EfficientGossipResult",
    "efficient_gossip",
    "EpochGossipNode",
    "EpochGossipResult",
    "default_epoch_rounds",
    "epoch_gossip_ave",
    "FloodingResult",
    "FloodNode",
    "flood_max",
    "RumorResult",
    "PushPullRumorNode",
    "PushRumorNode",
    "push_pull_rumor",
    "push_rumor",
    "PushMaxNode",
    "PushSumNode",
    "UniformGossipResult",
    "default_push_rounds",
    "push_max",
    "push_sum",
]
