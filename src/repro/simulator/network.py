"""The network: node population, failures, and message delivery.

``Network`` owns the things that exist independently of any one protocol:
which nodes exist, which of them crashed before round 1, and the failure
model applied to every transmission.  Who may contact whom is the nodes'
own business: a node on a sparse topology receives its neighbours when it
is built.  The :class:`~repro.simulator.engine.SynchronousEngine` drives
protocols on top of it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, UnknownNodeError
from .failures import ChurnOracle, FailureModel, LossOracle
from .message import Message
from .metrics import MetricsCollector

__all__ = ["Network"]


class Network:
    """A population of ``n`` nodes with a failure model.

    Parameters
    ----------
    n:
        Number of nodes.  Node ids are ``0 .. n-1``.
    failure_model:
        The :class:`FailureModel` applied to every transmission; defaults to
        a perfectly reliable network.
    rng:
        Generator used to sample initial crashes and message losses.
    alive:
        Optional precomputed liveness mask.  When given, the network adopts
        it instead of sampling crashes itself; protocol entry points use
        this so crash injection happens exactly once per run, through the
        same :meth:`FailureModel.sample_crashes` call, whichever substrate
        backend executes the protocol.
    loss_oracle:
        The run-scoped :class:`LossOracle` deciding per-transmission fates.
        Protocol entry points derive it once in their shared preamble and
        pass it to both backends; when omitted the network derives its own
        from the failure model and ``rng`` (convenient for direct engine
        use in tests).
    loss_base_round:
        Offset added to every message's ``round_sent`` before consulting
        the oracle.  Multi-stage protocols that run several engine
        executions under one oracle (each restarting its round counter at
        zero) use it to keep round identities unique across stages.
    churn_oracle:
        Optional run-scoped :class:`ChurnOracle`.  When attached, the engine
        applies :meth:`apply_churn` at the top of every round (mutating
        ``alive`` in place) and :meth:`deliver` additionally charges
        transmissions addressed to dead nodes as ``messages_to_dead``.
    churn_base_round:
        Like ``loss_base_round`` but for churn identities across the engine
        executions of a multi-stage protocol.
    """

    def __init__(
        self,
        n: int,
        failure_model: FailureModel | None = None,
        rng: np.random.Generator | None = None,
        alive: np.ndarray | None = None,
        loss_oracle: LossOracle | None = None,
        loss_base_round: int = 0,
        churn_oracle: ChurnOracle | None = None,
        churn_base_round: int = 0,
    ) -> None:
        if n <= 0:
            raise ConfigurationError(f"network needs at least one node, got n={n}")
        self.n = int(n)
        self.failure_model = failure_model or FailureModel()
        self._rng = rng if rng is not None else np.random.default_rng()
        if alive is not None:
            alive = np.asarray(alive, dtype=bool)
            if alive.shape != (self.n,):
                raise ConfigurationError(f"alive mask must have shape ({self.n},)")
            self.alive = alive.copy()
        else:
            self.alive = ~self.failure_model.sample_crashes(self.n, self._rng)
        self.loss_oracle = (
            loss_oracle
            if loss_oracle is not None
            else LossOracle.for_run(self.failure_model, self._rng)
        )
        self.loss_base_round = int(loss_base_round)
        self.churn_oracle = churn_oracle
        self.churn_base_round = int(churn_base_round)

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #
    @property
    def alive_ids(self) -> np.ndarray:
        """Ids of nodes that did not crash before round 1."""
        return np.flatnonzero(self.alive)

    @property
    def has_churn(self) -> bool:
        return self.churn_oracle is not None

    def apply_churn(self, round_index: int) -> tuple[np.ndarray, np.ndarray]:
        """Apply mid-run churn for ``round_index``, mutating ``alive`` in place.

        Returns ``(died_ids, joined_ids)``.  No-op (empty arrays) when no
        churn oracle is attached.
        """
        if self.churn_oracle is None:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return self.churn_oracle.step(self.churn_base_round + round_index, self.alive)

    @property
    def alive_count(self) -> int:
        return int(self.alive.sum())

    def is_alive(self, node_id: int) -> bool:
        self._check_id(node_id)
        return bool(self.alive[node_id])

    def crash(self, node_ids: Iterable[int]) -> None:
        """Mark nodes as crashed (used by tests and failure-injection suites).

        The paper's model only allows crashes *before* the algorithm starts;
        the engine therefore refuses to run if this is called mid-execution,
        but exposing it keeps the failure-injection tests honest about what
        the protocols do and do not tolerate.
        """
        for node_id in node_ids:
            self._check_id(node_id)
            self.alive[node_id] = False
        if not self.alive.any():
            raise ConfigurationError("cannot crash every node in the network")

    def _check_id(self, node_id: int) -> None:
        if not (0 <= node_id < self.n):
            raise UnknownNodeError(node_id)

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def deliver(
        self,
        messages: Sequence[Message],
        metrics: MetricsCollector,
    ) -> list[Message]:
        """Apply the failure model to a batch of messages.

        Every attempted transmission is recorded in ``metrics`` (lost or
        not); the returned list contains only the messages that actually
        arrive, and only those addressed to alive nodes.  Messages sent *to*
        crashed nodes are charged to the sender but silently dropped, which
        is exactly what a call to a dead host looks like.

        Loss is decided by the :class:`LossOracle` from the transmission's
        identity (round, kind, sender, recipient, nonce), so the fate of a
        message is independent of its position in the batch -- the property
        that keeps the engine exactly equivalent to the columnar backend on
        lossy networks.

        Fates for the whole batch are hashed in one vectorised
        :meth:`LossOracle.sample_salted` call (one chunk per delivery batch
        rather than one Python-level hash per message); accounting is
        charged per ``(kind, payload_words)`` group with identical totals.
        """
        count = len(messages)
        if count == 0:
            return []
        oracle = self.loss_oracle
        senders = np.fromiter((m.sender for m in messages), dtype=np.int64, count=count)
        recipients = np.fromiter((m.recipient for m in messages), dtype=np.int64, count=count)
        for ids in (senders, recipients):
            if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= self.n):
                bad = ids[(ids < 0) | (ids >= self.n)][0]
                raise UnknownNodeError(int(bad))
        if oracle.reliable:
            lost = np.zeros(count, dtype=bool)
        else:
            from .failures import kind_salt

            rounds = np.fromiter(
                (self.loss_base_round + m.round_sent for m in messages),
                dtype=np.int64,
                count=count,
            )
            salts = np.fromiter(
                (kind_salt(m.kind) for m in messages), dtype=np.uint64, count=count
            )
            nonces = np.fromiter((m.nonce for m in messages), dtype=np.int64, count=count)
            lost = oracle.sample_salted(rounds, salts, senders, recipients, nonces)
        dead_targets = ~self.alive[recipients]
        if self.churn_oracle is not None:
            wasted = int(np.count_nonzero(dead_targets))
            if wasted:
                metrics.record_dead_targets(wasted)
        undeliverable = lost | dead_targets
        # Charge per (kind, payload_words) group -- same totals, same
        # per-kind counters as the old per-message loop.
        groups: dict[tuple[str, int], list[int]] = {}
        for index, message in enumerate(messages):
            key = (message.kind, message.payload_words)
            counters = groups.get(key)
            if counters is None:
                counters = groups[key] = [0, 0]
            counters[0] += 1
            if undeliverable[index]:
                counters[1] += 1
        for (kind, payload_words), (attempts, dropped) in groups.items():
            metrics.record_messages(kind, attempts, payload_words=payload_words, lost=dropped)
        return [m for m, dead in zip(messages, undeliverable) if not dead]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(n={self.n}, alive={self.alive_count}, "
            f"failures={self.failure_model.describe()})"
        )
