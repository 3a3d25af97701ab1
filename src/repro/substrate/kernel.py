"""The execution kernels behind every protocol in the repository.

A *kernel* is an execution strategy for the random phone-call model.  Every
protocol (the DRR-gossip phases under :mod:`repro.core` and the baselines
under :mod:`repro.baselines`) is exposed through a single public function
with a ``backend`` parameter; the function body dispatches through
:func:`run_on` to one of the registered kernels:

``vectorized`` (:class:`VectorizedKernel`)
    The columnar kernel.  An entire round's calls and replies are NumPy
    arrays: one batch of targets, one batch of loss samples, one batched
    metrics charge.  This is the single-process hot path and scales to
    ``n`` in the millions.

``engine`` (:class:`EngineKernel`)
    The message-level kernel.  Protocols run as per-node
    :class:`~repro.simulator.node.ProtocolNode` state machines driven by
    :class:`~repro.simulator.engine.SynchronousEngine`; every transmission
    is an individual :class:`~repro.simulator.message.Message`.  This is
    the fidelity reference the paper semantics are validated against.

The kernels are engineered to be *equivalent*, not merely similar: they
consume the shared RNG stream in the same order (a NumPy generator produces
identical variates for one ``size=k`` batch draw and ``k`` sequential scalar
draws), decide per-message loss through the identity-keyed
:class:`~repro.simulator.failures.LossOracle` (so fates are independent of
batching order), and charge messages through the same accounting
conventions.  They therefore
produce identical round counts, message counts (total, per kind, per phase,
lost), and estimates for the same seed — on reliable *and* lossy networks.
``tests/test_substrate.py`` asserts this for every protocol.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

import numpy as np

from ..simulator.engine import EngineConfig, EngineResult, SynchronousEngine
from ..simulator.errors import ConfigurationError
from ..simulator.failures import ChurnOracle, FailureModel, LossOracle
from ..simulator.metrics import MetricsCollector
from ..simulator.network import Network
from ..simulator.node import ProtocolNode
from .delivery import (
    deliver_batch,
    fold_pushes,
    probe_exchange,
    relay_to_roots,
    sample_uniform,
)

__all__ = [
    "Kernel",
    "VectorizedKernel",
    "EngineKernel",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "UNAVAILABLE_BACKENDS",
    "available_backends",
    "get_kernel",
    "normalize_backend",
    "run_on",
]

T = TypeVar("T")


class Kernel:
    """Base class of the execution kernels (see module docstring)."""

    #: backend name used in configs, CLI flags, and the result store
    name: str = "abstract"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class VectorizedKernel(Kernel):
    """Columnar execution: one NumPy batch per round per message kind.

    The kernel itself is stateless; it exposes the shared delivery / relay /
    sampling primitives so protocol implementations never hand-roll failure
    injection or metrics charging (that used to be duplicated in every
    module, with subtly different lost-message accounting).
    """

    name = "vectorized"

    #: one shared code path for loss sampling + message charging
    deliver = staticmethod(deliver_batch)
    #: the fused PROBE -> RANK exchange of one DRR probing round
    probe_exchange = staticmethod(probe_exchange)
    #: the two-hop push-to-root relay of the Phase III procedures
    relay_to_roots = staticmethod(relay_to_roots)
    #: uniform target sampling, draw-order compatible with RoundContext.random_node
    sample_uniform = staticmethod(sample_uniform)
    #: fused scatter-add folding a gossip round's pushes into the accumulators
    fold_pushes = staticmethod(fold_pushes)


class EngineKernel(Kernel):
    """Message-level execution on the :class:`SynchronousEngine`."""

    name = "engine"

    def run(
        self,
        nodes: Sequence[ProtocolNode],
        *,
        rng: np.random.Generator,
        metrics: MetricsCollector,
        failure_model: FailureModel | None = None,
        alive: np.ndarray | None = None,
        neighbor_fn: Callable[[int], Sequence[int]] | None = None,
        loss_oracle: LossOracle | None = None,
        loss_base_round: int = 0,
        churn_oracle: ChurnOracle | None = None,
        churn_base_round: int = 0,
        max_substeps: int = 2,
        max_rounds: int | None = None,
        strict: bool = True,
        enforce_call_budget: bool = True,
        stop_condition: Callable[[Sequence[ProtocolNode], int], bool] | None = None,
        tracer=None,
    ) -> EngineResult:
        """Drive ``nodes`` to completion, wiring up network and config.

        This replaces the per-protocol boilerplate that used to build a
        :class:`Network` and :class:`EngineConfig` by hand.  Passing
        ``alive`` injects a crash mask sampled by the caller, and
        ``loss_oracle`` the caller's run-scoped loss oracle — crash sampling
        and oracle-key derivation each happen exactly once per protocol run,
        in the shared entry point, for both backends.  ``loss_base_round``
        offsets this execution's round counter in the oracle's identity
        space (multi-stage protocols run several engine executions under
        one oracle).  ``churn_oracle`` / ``churn_base_round`` are the same
        pattern for mid-run churn; the evolved mask comes back on
        :attr:`EngineResult.final_alive`.
        """
        network = Network(
            len(nodes),
            failure_model=failure_model or FailureModel(),
            neighbor_fn=neighbor_fn,
            rng=rng,
            alive=alive,
            loss_oracle=loss_oracle,
            loss_base_round=loss_base_round,
            churn_oracle=churn_oracle,
            churn_base_round=churn_base_round,
        )
        engine = SynchronousEngine(
            network=network,
            nodes=list(nodes),
            rng=rng,
            metrics=metrics,
            tracer=tracer,
            config=EngineConfig(
                max_rounds=max_rounds,
                max_substeps=max_substeps,
                strict=strict,
                enforce_call_budget=enforce_call_budget,
                stop_condition=stop_condition,
            ),
        )
        return engine.run()


#: the kernel registry; ``Kernel`` instances are stateless singletons
BACKENDS: dict[str, Kernel] = {
    VectorizedKernel.name: VectorizedKernel(),
    EngineKernel.name: EngineKernel(),
}

DEFAULT_BACKEND = VectorizedKernel.name

#: removed backends that stored specs may still name, mapped to the
#: human-readable reason.  :func:`normalize_backend` turns the reason into the
#: error message, so a user selecting one learns what to pick instead rather
#: than being told it does not exist.
UNAVAILABLE_BACKENDS: dict[str, str] = {
    "sharded": (
        "it was removed because it never ran faster than 'vectorized' when "
        "measured; use 'vectorized'"
    ),
    "compiled": (
        "it was removed because its numba-jitted primitives never won a "
        "measurement on a host without numba; use 'vectorized'"
    ),
}


def available_backends() -> tuple[str, ...]:
    """Names of the registered backends (stable order: default first)."""
    names = sorted(BACKENDS, key=lambda name: (name != DEFAULT_BACKEND, name))
    return tuple(names)


def normalize_backend(backend: str | Kernel | None) -> str:
    """Validate a backend selector and return its canonical name."""
    if backend is None:
        return DEFAULT_BACKEND
    if isinstance(backend, Kernel):
        return backend.name
    name = str(backend).strip().lower()
    if name not in BACKENDS:
        reason = UNAVAILABLE_BACKENDS.get(name)
        if reason is not None:
            raise ConfigurationError(
                f"substrate backend {name!r} is not available: {reason} "
                f"(available: {', '.join(available_backends())})"
            )
        raise ConfigurationError(
            f"unknown substrate backend {backend!r} "
            f"(available: {', '.join(available_backends())})"
        )
    return name


def get_kernel(backend: str | Kernel | None = None) -> Kernel:
    """Resolve a backend selector to its kernel instance."""
    return BACKENDS[normalize_backend(backend)]


def run_on(
    backend: str | Kernel | None,
    *,
    vectorized: Callable[[VectorizedKernel], T],
    engine: Callable[[EngineKernel], T],
    tracer=None,
) -> T:
    """Dispatch one protocol run to the selected kernel.

    ``vectorized`` and ``engine`` are the two executions of the *same*
    protocol; the pair is this repository's concrete form of the
    protocol-over-kernel interface.  Both callables receive their kernel so
    all delivery / engine plumbing goes through the shared primitives.

    ``tracer`` (a :class:`~repro.simulator.trace.Tracer`) records
    per-message events and only exists on the message-level engine;
    requesting it on a columnar kernel is rejected here rather than
    silently recording nothing (which is what used to happen).
    """
    kernel = get_kernel(backend)
    if isinstance(kernel, EngineKernel):
        return engine(kernel)
    if tracer is not None and getattr(tracer, "enabled", False):
        raise ConfigurationError(
            f"tracing is engine-only: backend {kernel.name!r} executes rounds "
            "columnarly and never materialises per-message events. "
            "Run with backend='engine' for a message trace, or use telemetry "
            "(RunSpec.telemetry / repro.observability) for per-phase and "
            "per-primitive timing on the columnar backends."
        )
    return vectorized(kernel)
