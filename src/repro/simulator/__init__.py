"""Round-based synchronous simulator for the random phone-call model.

This package is the substrate every protocol in the reproduction runs on:

* :mod:`~repro.simulator.message` -- messages with word-level size accounting;
* :mod:`~repro.simulator.node` -- the per-node protocol interface;
* :mod:`~repro.simulator.network` -- node population, topology view, delivery;
* :mod:`~repro.simulator.failures` -- the paper's crash + lossy-link model;
* :mod:`~repro.simulator.engine` -- the synchronous round loop;
* :mod:`~repro.simulator.metrics` -- message/round/word counters per phase;
* :mod:`~repro.simulator.rng` -- reproducible randomness.
"""

from .engine import EngineConfig, EngineResult, SynchronousEngine, default_round_limit
from .errors import (
    ConfigurationError,
    ProtocolViolation,
    RoundLimitExceeded,
    SimulationError,
    UnknownNodeError,
)
from .failures import FailureModel, paper_delta_range
from .message import Message, MessageKind, Send
from .metrics import MetricsCollector, PhaseMetrics
from .network import Network
from .node import PassiveNode, ProtocolNode, RoundContext
from .rng import RngStream, derive_seed, make_rng

__all__ = [
    "EngineConfig",
    "EngineResult",
    "SynchronousEngine",
    "default_round_limit",
    "ConfigurationError",
    "ProtocolViolation",
    "RoundLimitExceeded",
    "SimulationError",
    "UnknownNodeError",
    "FailureModel",
    "paper_delta_range",
    "Message",
    "MessageKind",
    "Send",
    "MetricsCollector",
    "PhaseMetrics",
    "Network",
    "PassiveNode",
    "ProtocolNode",
    "RoundContext",
    "RngStream",
    "derive_seed",
    "make_rng",
]
