"""Protocol registry: name -> adapter behind :func:`repro.run`.

Every protocol the package implements — complete-graph DRR, the DRR-gossip
pipelines, the four baselines, and the topology workloads (Local-DRR,
flooding, batched Chord lookups) — registers an *adapter* here.  An adapter
is a thin callable that translates a validated parameter binding plus the
run-scoped context (generator, failure model, backend, built topology) into
a call to the existing ``run_X`` protocol function, and normalises the
outcome into the uniform envelope fields of
:class:`~repro.api.result.RunResult`.

The per-protocol parameter schema is derived from the adapter's own
signature (the same technique the experiment registry uses for sweep
grids), so "what can go in ``RunSpec.params``" is never maintained by hand:
adding a keyword to an adapter is all it takes to make it spec-addressable,
and unknown or extra parameters fail validation with the list of valid
names.

Value-carrying protocols accept either an explicit ``values`` list (JSON
serialisable, and what keeps comparison experiments on *identical* inputs
across algorithms) or a ``workload`` name whose values are drawn from the
run's generator before the protocol starts — the same draw order the
experiment drivers always used, which is why spec-driven runs reproduce
them bit-for-bit.
"""

from __future__ import annotations

import enum
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..serialization import canonical_value
from ..simulator.failures import FailureModel
from ..simulator.metrics import MetricsCollector
from .errors import SpecValidationError

__all__ = [
    "ProtocolParam",
    "ProtocolSpec",
    "RunContext",
    "ProtocolOutput",
    "register_protocol",
    "get_protocol",
    "protocol_names",
    "PROTOCOLS",
]


def _as_int(value: Any, what: str) -> int:
    """``int()`` with spec-shaped error reporting for adapter parameters."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"{what} must be an integer, got {value!r}") from exc


@dataclass(frozen=True)
class RunContext:
    """Run-scoped state the dispatcher hands every adapter."""

    rng: np.random.Generator
    failure_model: FailureModel
    backend: str
    #: the built topology (Topology or ChordNetwork) when the spec named one
    topology: Any = None

    def resolve_values(self, n: int | None, workload: str, values: Any) -> np.ndarray:
        """Materialise the protocol's input vector.

        Explicit ``values`` win (and consume no randomness); otherwise
        ``n`` values of ``workload`` are drawn from the run's generator.
        """
        from ..harness.workloads import make_values

        if values is not None:
            try:
                arr = np.asarray(values, dtype=float)
            except (TypeError, ValueError) as exc:
                raise SpecValidationError(f"'values' must be a flat list of numbers: {exc}") from exc
            if arr.ndim != 1 or arr.size == 0:
                raise SpecValidationError("'values' must be a non-empty flat list of numbers")
            if n is not None and _as_int(n, "'n'") != arr.size:
                raise SpecValidationError(
                    f"'n' ({n}) contradicts the length of 'values' ({arr.size}); drop one"
                )
            return arr
        if n is None:
            raise SpecValidationError("specify either 'n' (+ optional 'workload') or 'values'")
        try:
            return make_values(workload, _as_int(n, "'n'"), self.rng)
        except ValueError as exc:
            raise SpecValidationError(str(exc)) from exc


@dataclass(frozen=True)
class ProtocolOutput:
    """What an adapter returns: metrics plus the protocol-shaped outcome.

    ``estimates`` and ``summary`` may be zero-argument callables: the
    envelope evaluates them lazily on first access, so adapters whose
    statistics require extra passes over the run (forest depth/size
    reductions) charge nothing to callers that only read the counters.
    """

    metrics: MetricsCollector
    #: per-node (or per-route) estimate vector; the exact-reproducibility
    #: guarantee of the API covers this array element-wise
    estimates: np.ndarray | Callable[[], np.ndarray] | None
    #: scalar outcome summary (exact value, error, coverage, ...)
    summary: dict[str, float] | Callable[[], dict[str, float]] = field(default_factory=dict)
    #: the underlying protocol result object (not serialised)
    raw: Any = None
    #: fault-degradation section (survivor counts, per-epoch error curve,
    #: ...); populated by churn-capable adapters on churn runs, else None
    degradation: dict[str, Any] | None = None


@dataclass(frozen=True)
class ProtocolParam:
    """One spec-settable parameter of a protocol adapter."""

    name: str
    default: Any

    def coerce(self, value: Any) -> Any:
        """Normalise one candidate value to a serialisation-stable form."""
        value = canonical_value(value)
        if isinstance(self.default, bool):
            return bool(value)
        if isinstance(self.default, int) and not isinstance(self.default, bool) and isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(self.default, float) and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value


@dataclass(frozen=True)
class ProtocolSpec:
    """A registered protocol: adapter callable plus its parameter schema."""

    name: str
    runner: Callable[..., ProtocolOutput]
    description: str
    #: 'forbidden' (complete-graph protocol), 'optional-graph' (complete
    #: graph by default, sparse graph when one is supplied), 'graph', or
    #: 'chord'
    topology: str
    params: tuple[ProtocolParam, ...] = ()
    #: 'none' (static membership only), 'crashes' (mid-run crashes but no
    #: joins), or 'full' (crashes and joins).  Dispatch rejects churn specs
    #: that exceed the protocol's capability instead of silently ignoring
    #: the churn model.
    churn: str = "none"

    @classmethod
    def from_callable(
        cls,
        name: str,
        runner: Callable[..., ProtocolOutput],
        topology: str,
        description: str | None = None,
        churn: str = "none",
    ) -> "ProtocolSpec":
        """Derive the parameter schema from the adapter's signature.

        Every parameter after the leading ``ctx`` must have a default, so a
        protocol is always runnable from its name alone (plus a topology
        where required).
        """
        params: list[ProtocolParam] = []
        signature = inspect.signature(runner)
        for index, param in enumerate(signature.parameters.values()):
            if index == 0:  # the RunContext
                continue
            if param.default is inspect.Parameter.empty:
                raise TypeError(
                    f"protocol adapter {runner.__qualname__} for {name!r} has a "
                    f"parameter without default ({param.name!r})"
                )
            params.append(ProtocolParam(name=param.name, default=param.default))
        if description is None:
            doc = inspect.getdoc(runner) or name
            description = doc.splitlines()[0]
        return cls(
            name=name, runner=runner, description=description,
            topology=topology, params=tuple(params), churn=churn,
        )

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Reject unknown names, coerce values, and normalise enums/NumPy."""
        if not isinstance(params, Mapping):
            raise SpecValidationError(
                f"protocol {self.name!r}: params must be a table/object, got {params!r}"
            )
        by_name = {p.name: p for p in self.params}
        validated: dict[str, Any] = {}
        for key, value in params.items():
            key = str(key)
            if key not in by_name:
                raise SpecValidationError(
                    f"protocol {self.name!r} has no parameter {key!r} "
                    f"(valid: {', '.join(self.param_names) or 'none'})"
                )
            if isinstance(value, enum.Enum):
                value = value.value
            validated[key] = by_name[key].coerce(value)
        return validated

    def validate_topology(self, topology) -> None:
        if self.topology == "forbidden":
            if topology is not None:
                raise SpecValidationError(
                    f"protocol {self.name!r} runs on the complete graph and takes no topology"
                )
            return
        if self.topology == "optional-graph":
            if topology is not None and topology.family == "chord":
                raise SpecValidationError(
                    f"protocol {self.name!r} runs on the complete graph or a "
                    f"graph topology, not chord"
                )
            return
        if topology is None:
            raise SpecValidationError(
                f"protocol {self.name!r} needs a topology ({self.topology})"
            )
        if self.topology == "chord" and topology.family != "chord":
            raise SpecValidationError(
                f"protocol {self.name!r} needs a chord topology, got {topology.family!r}"
            )
        if self.topology == "graph" and topology.family == "chord":
            raise SpecValidationError(
                f"protocol {self.name!r} runs on a graph topology, not chord"
            )

    def validate_failures(self, failure_model: FailureModel) -> None:
        """Reject churn the protocol cannot honour (loss/crashes always ok)."""
        if not failure_model.has_churn or self.churn == "full":
            return
        if self.churn == "none":
            raise SpecValidationError(
                f"protocol {self.name!r} assumes static membership and does "
                f"not support mid-run churn (churn-capable protocols: "
                f"{', '.join(churn_capable_protocols()) or 'none'})"
            )
        if failure_model.has_joins:
            raise SpecValidationError(
                f"protocol {self.name!r} is crash-only under churn: a node "
                f"cannot rejoin a structure built before it returned (set "
                f"join_rate=0 and use no 'join' schedule events, or use the "
                f"'epoch-gossip-ave' protocol, which restarts every epoch)"
            )

    def run(self, ctx: RunContext, params: Mapping[str, Any]) -> ProtocolOutput:
        return self.runner(ctx, **dict(params))


#: The process-wide protocol registry behind :func:`repro.run`.
PROTOCOLS: dict[str, ProtocolSpec] = {}


def register_protocol(
    name: str,
    *,
    topology: str = "forbidden",
    description: str | None = None,
    churn: str = "none",
):
    """Register a protocol adapter (decorator)."""
    if topology not in ("forbidden", "optional-graph", "graph", "chord"):
        raise ValueError(
            f"topology must be 'forbidden', 'optional-graph', 'graph', or "
            f"'chord', got {topology!r}"
        )
    if churn not in ("none", "crashes", "full"):
        raise ValueError(f"churn must be 'none', 'crashes', or 'full', got {churn!r}")

    def _register(fn: Callable[..., ProtocolOutput]) -> Callable[..., ProtocolOutput]:
        if name in PROTOCOLS and PROTOCOLS[name].runner is not fn:
            raise ValueError(f"protocol {name!r} is already registered")
        PROTOCOLS[name] = ProtocolSpec.from_callable(name, fn, topology, description, churn)
        return fn

    return _register


def get_protocol(name: str) -> ProtocolSpec:
    try:
        return PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(PROTOCOLS)) or "none registered"
        raise SpecValidationError(f"unknown protocol {name!r} (known: {known})") from None


def protocol_names() -> list[str]:
    return sorted(PROTOCOLS)


def churn_capable_protocols() -> list[str]:
    return sorted(name for name, spec in PROTOCOLS.items() if spec.churn != "none")


# --------------------------------------------------------------------------- #
# adapters: repro.core
# --------------------------------------------------------------------------- #
def _error_summary(estimates: np.ndarray, exact: float) -> dict[str, float]:
    finite = np.isfinite(estimates)
    if not finite.any():
        return {"exact": float(exact), "max_rel_error": float("inf")}
    diffs = np.abs(estimates[finite] - exact)
    err = float(np.max(diffs)) if exact == 0.0 else float(np.max(diffs) / abs(exact))
    return {"exact": float(exact), "max_rel_error": err}


def _churn_degradation(
    ctx: RunContext, metrics: MetricsCollector, estimates: np.ndarray, exact: float
) -> dict[str, Any] | None:
    """Shared degradation section for churn runs (None when churn is off).

    ``survivor_mass_rel_error`` is the worst relative error of a surviving
    node's estimate against the exact aggregate *of the survivors* -- the
    honest success measure once the founding membership no longer exists.
    """
    if not ctx.failure_model.has_churn:
        return None
    finite = np.isfinite(np.asarray(estimates, dtype=float))
    section: dict[str, Any] = {
        "population": float(estimates.size),
        "survivors": float(np.count_nonzero(finite)),
        "survivor_exact": float(exact),
        "survivor_mass_rel_error": _error_summary(estimates, exact)["max_rel_error"],
        "messages_to_dead": float(metrics.total_messages_to_dead),
    }
    return section


@register_protocol("drr", description="Phase I: Distributed Random Ranking forest construction")
def _run_drr_spec(ctx: RunContext, n: int | None = None, probe_budget: int | None = None) -> ProtocolOutput:
    from ..core import run_drr

    if n is None:
        raise SpecValidationError("protocol 'drr' needs 'n'")
    result = run_drr(
        _as_int(n, "'n'"),
        rng=ctx.rng,
        probe_budget=probe_budget,
        failure_model=ctx.failure_model,
        backend=ctx.backend,
    )
    forest = result.forest
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=lambda: forest.depth.astype(float),
        summary=lambda: {
            "trees": float(forest.root_count),
            "max_tree_size": float(forest.max_tree_size),
            "max_tree_height": float(forest.max_tree_height),
        },
        raw=result,
    )


@register_protocol(
    "drr-gossip",
    description="Full DRR-gossip pipeline (Algorithms 7/8) for any supported aggregate",
    churn="crashes",
)
def _run_drr_gossip_spec(
    ctx: RunContext,
    n: int | None = None,
    aggregate: str = "average",
    workload: str = "uniform",
    values: list | None = None,
    query: float | None = None,
    probe_budget: int | None = None,
    gossip_rounds: int | None = None,
    sampling_rounds: int | None = None,
    ave_rounds: int | None = None,
    epsilon: float | None = None,
) -> ProtocolOutput:
    from ..core import Aggregate, DRRGossipConfig, drr_gossip

    vals = ctx.resolve_values(n, workload, values)
    try:
        agg = Aggregate(aggregate)
    except ValueError as exc:
        raise SpecValidationError(
            f"unknown aggregate {aggregate!r} (valid: {', '.join(a.value for a in Aggregate)})"
        ) from exc
    config = DRRGossipConfig(
        probe_budget=probe_budget,
        gossip_rounds=gossip_rounds,
        sampling_rounds=sampling_rounds,
        ave_rounds=ave_rounds,
        epsilon=epsilon,
        failure_model=ctx.failure_model,
        backend=ctx.backend,
    )
    result = drr_gossip(vals, agg, rng=ctx.rng, config=config, query=query)
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.estimates,
        summary={
            "exact": float(result.exact),
            "max_rel_error": float(result.max_relative_error),
            "coverage": float(result.coverage),
            "all_correct": float(result.all_correct),
            "trees": float(result.drr.forest.root_count),
        },
        raw=result,
        degradation=_churn_degradation(ctx, result.metrics, result.estimates, result.exact),
    )


@register_protocol("local-drr", topology="graph", description="Local-DRR forest construction on a sparse graph")
def _run_local_drr_spec(ctx: RunContext) -> ProtocolOutput:
    from ..core import run_local_drr

    result = run_local_drr(
        ctx.topology,
        rng=ctx.rng,
        failure_model=ctx.failure_model,
        backend=ctx.backend,
    )
    forest = result.forest
    topology = ctx.topology
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=lambda: forest.depth.astype(float),
        summary=lambda: {
            "trees": float(forest.root_count),
            "max_tree_size": float(forest.max_tree_size),
            "max_tree_height": float(forest.max_tree_height),
            "expected_trees": float(topology.expected_local_drr_trees()),
        },
        raw=result,
    )


# --------------------------------------------------------------------------- #
# adapters: repro.baselines
# --------------------------------------------------------------------------- #
@register_protocol(
    "push-sum",
    description="Kempe et al. push-sum (uniform gossip Average)",
    churn="full",
)
def _run_push_sum_spec(
    ctx: RunContext,
    n: int | None = None,
    workload: str = "uniform",
    values: list | None = None,
    rounds: int | None = None,
    epsilon: float | None = None,
) -> ProtocolOutput:
    from ..baselines import push_sum

    vals = ctx.resolve_values(n, workload, values)
    result = push_sum(
        vals, rng=ctx.rng, rounds=rounds, epsilon=epsilon,
        failure_model=ctx.failure_model, backend=ctx.backend,
    )
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.estimates,
        summary=_error_summary(result.estimates, result.exact),
        raw=result,
        degradation=_churn_degradation(ctx, result.metrics, result.estimates, result.exact),
    )


@register_protocol(
    "push-max",
    description="Address-oblivious push-max (uniform gossip Max)",
    churn="full",
)
def _run_push_max_spec(
    ctx: RunContext,
    n: int | None = None,
    workload: str = "uniform",
    values: list | None = None,
    rounds: int | None = None,
    stop_when_converged: bool = False,
) -> ProtocolOutput:
    from ..baselines import push_max

    vals = ctx.resolve_values(n, workload, values)
    result = push_max(
        vals, rng=ctx.rng, rounds=rounds, failure_model=ctx.failure_model,
        stop_when_converged=stop_when_converged, backend=ctx.backend,
    )
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.estimates,
        summary=_error_summary(result.estimates, result.exact),
        raw=result,
        degradation=_churn_degradation(ctx, result.metrics, result.estimates, result.exact),
    )


@register_protocol(
    "epoch-gossip-ave",
    topology="optional-graph",
    description="Epoch-restarted push-pull averaging for dynamic membership",
    churn="full",
)
def _run_epoch_gossip_spec(
    ctx: RunContext,
    n: int | None = None,
    workload: str = "uniform",
    values: list | None = None,
    epochs: int = 3,
    epoch_rounds: int | None = None,
) -> ProtocolOutput:
    from ..baselines import epoch_gossip_ave

    size = ctx.topology.n if ctx.topology is not None else n
    vals = ctx.resolve_values(size, workload, values)
    try:
        result = epoch_gossip_ave(
            vals, rng=ctx.rng, epochs=_as_int(epochs, "'epochs'"),
            epoch_rounds=None if epoch_rounds is None else _as_int(epoch_rounds, "'epoch_rounds'"),
            failure_model=ctx.failure_model, topology=ctx.topology,
            backend=ctx.backend,
        )
    except ValueError as exc:
        raise SpecValidationError(str(exc)) from exc
    summary = _error_summary(result.estimates, result.exact)
    summary["epochs"] = float(result.epochs)
    summary["epoch_rounds"] = float(result.epoch_rounds)
    degradation = _churn_degradation(ctx, result.metrics, result.estimates, result.exact)
    if degradation is not None:
        degradation["epoch_errors"] = [float(e) for e in result.epoch_errors]
        degradation["epoch_survivors"] = [float(s) for s in result.epoch_survivors]
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.estimates,
        summary=summary,
        raw=result,
        degradation=degradation,
    )


@register_protocol("efficient-gossip", description="Kashyap-style cluster-then-gossip baseline")
def _run_efficient_gossip_spec(
    ctx: RunContext,
    n: int | None = None,
    aggregate: str = "average",
    workload: str = "uniform",
    values: list | None = None,
    leader_probability: float | None = None,
) -> ProtocolOutput:
    from ..baselines import efficient_gossip
    from ..core import Aggregate

    vals = ctx.resolve_values(n, workload, values)
    try:
        agg = Aggregate(aggregate)
    except ValueError as exc:
        raise SpecValidationError(f"unknown aggregate {aggregate!r}") from exc
    result = efficient_gossip(
        vals, agg, rng=ctx.rng, failure_model=ctx.failure_model,
        leader_probability=leader_probability, backend=ctx.backend,
    )
    summary = _error_summary(result.estimates, result.exact)
    summary["groups"] = float(result.group_count)
    return ProtocolOutput(
        metrics=result.metrics, estimates=result.estimates, summary=summary, raw=result
    )


@register_protocol("push-rumor", description="Plain push rumor spreading")
def _run_push_rumor_spec(
    ctx: RunContext, n: int | None = None, source: int = 0, rounds: int | None = None
) -> ProtocolOutput:
    from ..baselines import push_rumor

    if n is None:
        raise SpecValidationError("protocol 'push-rumor' needs 'n'")
    result = push_rumor(
        _as_int(n, "'n'"), source=source, rng=ctx.rng, rounds=rounds,
        failure_model=ctx.failure_model, backend=ctx.backend,
    )
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.informed.astype(float),
        summary={"informed_fraction": float(result.informed_fraction)},
        raw=result,
    )


@register_protocol("push-pull-rumor", description="Karp et al. push-pull rumor spreading with cooldown")
def _run_push_pull_rumor_spec(
    ctx: RunContext,
    n: int | None = None,
    source: int = 0,
    cooldown: int | None = None,
    max_rounds: int | None = None,
) -> ProtocolOutput:
    from ..baselines import push_pull_rumor

    if n is None:
        raise SpecValidationError("protocol 'push-pull-rumor' needs 'n'")
    result = push_pull_rumor(
        _as_int(n, "'n'"), source=source, rng=ctx.rng, cooldown=cooldown,
        max_rounds=max_rounds, failure_model=ctx.failure_model, backend=ctx.backend,
    )
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.informed.astype(float),
        summary={"informed_fraction": float(result.informed_fraction)},
        raw=result,
    )


@register_protocol("flood-max", topology="graph", description="Max by repeated neighbourhood flooding")
def _run_flood_max_spec(
    ctx: RunContext,
    workload: str = "uniform",
    values: list | None = None,
    max_rounds: int | None = None,
) -> ProtocolOutput:
    from ..baselines import flood_max

    vals = ctx.resolve_values(ctx.topology.n, workload, values)
    result = flood_max(
        ctx.topology, vals, rng=ctx.rng, failure_model=ctx.failure_model,
        max_rounds=max_rounds, backend=ctx.backend,
    )
    return ProtocolOutput(
        metrics=result.metrics,
        estimates=result.estimates,
        summary=_error_summary(result.estimates, result.exact),
        raw=result,
    )


# --------------------------------------------------------------------------- #
# adapters: topology workloads
# --------------------------------------------------------------------------- #
@register_protocol("chord-lookups", topology="chord", description="Batched Chord identifier lookups (one hop per round)")
def _run_chord_lookups_spec(ctx: RunContext, lookups: int | None = None) -> ProtocolOutput:
    from ..substrate import run_chord_lookups

    chord = ctx.topology
    count = _as_int(lookups, "'lookups'") if lookups is not None else chord.n
    if count < 1:
        raise SpecValidationError("'lookups' must be positive")
    sources = ctx.rng.integers(0, chord.n, size=count)
    identifiers = ctx.rng.integers(0, chord.ring_size, size=count)
    batch = run_chord_lookups(
        chord, sources, identifiers,
        failure_model=ctx.failure_model, rng=ctx.rng, backend=ctx.backend,
    )
    return ProtocolOutput(
        metrics=batch.metrics,
        estimates=batch.owners.astype(float),
        summary={
            "completion_fraction": float(batch.completion_fraction),
            "mean_hops": float(batch.hops.mean()) if batch.hops.size else 0.0,
        },
        raw=batch,
    )
