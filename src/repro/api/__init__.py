"""Declarative run API: serializable specs, one dispatch entry point.

The three-line flow::

    import repro
    spec = repro.RunSpec(protocol="drr-gossip", params={"n": 4096}, seed=7)
    result = repro.run(spec)

A :class:`RunSpec` carries everything a run needs — protocol name and
parameters, an optional :class:`TopologySpec`, the
:class:`~repro.simulator.failures.FailureModel` (the spec-level
``FailureSpec``), the substrate backend, and the seed — and round-trips
through JSON/TOML, so the same value that configures a local call can be
stored in the result database or shipped to a worker on another host.
:func:`run` validates the spec against the protocol registry and returns
the uniform :class:`RunResult` envelope.
"""

from ..simulator.failures import FailureModel as FailureSpec  # spec-level alias
from .dispatch import run
from .errors import SpecValidationError
from .protocols import (
    PROTOCOLS,
    ProtocolOutput,
    ProtocolParam,
    ProtocolSpec,
    RunContext,
    get_protocol,
    protocol_names,
    register_protocol,
)
from .result import RunResult
from .spec import (
    TOPOLOGY_FAMILIES,
    RunSpec,
    TopologySpec,
    load_spec,
    load_specs,
    parse_spec_document,
    read_spec_document,
)

__all__ = [
    "FailureSpec",
    "PROTOCOLS",
    "ProtocolOutput",
    "ProtocolParam",
    "ProtocolSpec",
    "RunContext",
    "RunResult",
    "RunSpec",
    "SpecValidationError",
    "TOPOLOGY_FAMILIES",
    "TopologySpec",
    "get_protocol",
    "load_spec",
    "load_specs",
    "parse_spec_document",
    "protocol_names",
    "read_spec_document",
    "register_protocol",
    "run",
]
