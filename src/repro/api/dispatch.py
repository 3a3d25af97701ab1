"""The single entry point: ``repro.run(spec) -> RunResult``.

Dispatch order is a fixed, documented contract (it is what makes a spec's
seed reproduce a run exactly):

1. ``rng = make_rng(spec.seed)`` — one generator for the whole run.
2. The topology (if any) is built from that generator, consuming draws.
3. Value-carrying protocols draw their workload values next (adapters do
   this through :meth:`RunContext.resolve_values`), unless the spec ships
   explicit ``values``.
4. The protocol runs on the requested substrate backend under the spec's
   failure model.

This mirrors the call sequence the experiment drivers always used
(`topo = make_graph(...); values = make_values(...); run_X(..., rng=rng)`
with one shared generator), so driver results are preserved bit-for-bit
when they are expressed as specs.
"""

from __future__ import annotations

import time
from typing import Mapping

from ..observability.telemetry import NullTelemetry, Telemetry, use_telemetry
from ..simulator.rng import make_rng
from .protocols import RunContext, get_protocol
from .result import RunResult
from .spec import RunSpec

__all__ = ["run"]


def run(spec: RunSpec | Mapping, *, telemetry: NullTelemetry | None = None) -> RunResult:
    """Execute one fully-described run and return the uniform envelope.

    ``spec`` may be a :class:`RunSpec` or a plain mapping (e.g. a parsed
    JSON document), which is validated on the way in.

    ``telemetry`` optionally supplies the recorder to use (the CLI passes
    one so it can also stream a heartbeat from it); by default a fresh
    :class:`~repro.observability.Telemetry` is created when
    ``spec.telemetry`` is set and nothing is recorded otherwise.  The
    result carries the document as ``RunResult.telemetry``.
    """
    if not isinstance(spec, RunSpec):
        spec = RunSpec.from_dict(spec)
    protocol = get_protocol(spec.protocol)
    tel = telemetry if telemetry is not None else (Telemetry() if spec.telemetry else None)
    start = time.perf_counter()
    rng = make_rng(spec.seed)
    topology = spec.topology.build(rng) if spec.topology is not None else None
    ctx = RunContext(
        rng=rng,
        failure_model=spec.failures,
        backend=spec.backend,
        topology=topology,
    )
    if tel is not None and tel.enabled:
        with use_telemetry(tel):
            output = protocol.run(ctx, spec.params)
        tel.finish()
    else:
        output = protocol.run(ctx, spec.params)
    wall_time = time.perf_counter() - start
    metrics = output.metrics
    return RunResult(
        spec=spec,
        rounds=metrics.total_rounds,
        messages=metrics.total_messages,
        messages_lost=metrics.total_messages_lost,
        words=metrics.total_words,
        messages_by_kind={str(k): int(v) for k, v in metrics.messages_by_kind().items()},
        messages_by_phase=metrics.messages_by_phase(),
        rounds_by_phase=metrics.rounds_by_phase(),
        estimates=output.estimates,
        summary=output.summary,
        wall_time_s=wall_time,
        raw=output.raw,
        telemetry=tel.as_dict() if tel is not None and tel.enabled else None,
        degradation=output.degradation,
    )

