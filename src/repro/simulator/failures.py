"""Failure model of Section 2 of the paper.

The paper's model tolerates two kinds of failure:

1. **Initial crashes** -- a fraction of nodes may be down before the protocol
   starts.  Nodes do not crash once the algorithm is running.
2. **Lossy links** -- each transmitted message is lost independently with
   probability ``delta``.  The paper assumes ``1/log n < delta < 1/8`` for its
   analysis (larger deltas only need ``O(1/log(1/delta))`` repetitions,
   smaller ones only help), but the simulator accepts any ``delta`` in
   ``[0, 1)`` so experiments can explore the whole range.

Loss decisions and the substrate
--------------------------------
The execution substrate runs every protocol on two interchangeable backends
(columnar batches vs a message-level engine) which deliver the same
transmissions in *different orders* within a round.  Drawing loss variates
from the shared RNG stream would therefore tie a message's fate to the
backend's internal batching.  Instead, :class:`LossOracle` makes the loss of
a transmission a pure function of its *identity*::

    lost = hash(run_key, round, kind, sender, recipient, nonce) < delta

where ``run_key`` is drawn once per protocol run from the shared generator
(only when ``delta > 0``, so reliable runs consume nothing).  Both backends
compute identical fates for the same seed no matter how they batch, which is
what extends the same-seed backend-equivalence guarantee to lossy networks.
A useful side effect: the protocol's own randomness (targets, ranks) is
identical across different ``delta`` values for a fixed seed -- common
random numbers across the loss axis of a sweep.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "ChurnOracle",
    "FailureModel",
    "LossOracle",
    "kind_salt",
    "paper_delta_range",
]


def paper_delta_range(n: int) -> tuple[float, float]:
    """Return the (open) interval of loss probabilities assumed by the paper.

    Section 2: "Without loss of generality, 1/log n < delta < 1/8".
    """
    if n < 4:
        raise ConfigurationError("paper delta range is only meaningful for n >= 4")
    return (1.0 / math.log2(n), 1.0 / 8.0)


@dataclass(frozen=True)
class FailureModel:
    """Immutable description of the failure behaviour of a network.

    Parameters
    ----------
    loss_probability:
        Probability ``delta`` that any individual message transmission is
        lost.  ``0.0`` gives a perfectly reliable network.
    crash_fraction:
        Fraction of nodes crashed before round 1.  Crashed nodes never send,
        never receive, and are excluded from the "all nodes learn the
        aggregate" success criterion (matching the paper, where crashed
        nodes simply do not participate).
    churn_rate:
        Per-round probability that a currently-alive node crashes at the
        *start* of that round (mid-run churn, beyond the paper's model).  A
        node that dies stops sending, receiving, and contributing.  Fates
        are identity-keyed like message loss (see :class:`ChurnOracle`), so
        they are independent of backend batching.
    join_rate:
        Per-round probability that a currently-dead node (re)joins at the
        start of that round.  Joining nodes restart from their own local
        value; what "restart" means is protocol-specific (push-sum re-seeds
        ``(value, 1)``, epoch gossip re-seeds at the next epoch boundary
        semantics, etc.).
    churn_schedule:
        Explicit churn events ``((round, node_ids, event), ...)`` with
        ``event`` one of ``"crash"`` / ``"join"``, applied *after* the rate
        processes for that round (a scheduled event overrides a rate fate
        for the same node and round).  Rounds are 0-based protocol rounds.
    """

    loss_probability: float = 0.0
    crash_fraction: float = 0.0
    churn_rate: float = 0.0
    join_rate: float = 0.0
    churn_schedule: tuple = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_probability < 1.0):
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )
        if not (0.0 <= self.crash_fraction < 1.0):
            raise ConfigurationError(
                f"crash_fraction must be in [0, 1), got {self.crash_fraction}"
            )
        if not (0.0 <= self.churn_rate < 1.0):
            raise ConfigurationError(
                f"churn_rate must be in [0, 1), got {self.churn_rate}"
            )
        if not (0.0 <= self.join_rate < 1.0):
            raise ConfigurationError(
                f"join_rate must be in [0, 1), got {self.join_rate}"
            )
        object.__setattr__(
            self, "churn_schedule", self._normalize_schedule(self.churn_schedule)
        )

    @staticmethod
    def _normalize_schedule(schedule) -> tuple:
        """Canonicalise a churn schedule to ``((round, ids, event), ...)``.

        Events are sorted by round (stable within a round) so two specs that
        list the same events in different orders are the same model; node ids
        are deduplicated and sorted.
        """
        if schedule is None:
            return ()
        out = []
        for entry in schedule:
            try:
                round_index, node_ids, event = entry
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"churn schedule entries must be (round, node_ids, event), got {entry!r}"
                ) from None
            try:
                round_index = int(round_index)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"churn schedule round must be an integer, got {round_index!r}"
                ) from None
            if round_index < 0:
                raise ConfigurationError(
                    f"churn schedule round must be non-negative, got {round_index}"
                )
            event = str(event)
            if event not in ("crash", "join"):
                raise ConfigurationError(
                    f"churn schedule event must be 'crash' or 'join', got {event!r}"
                )
            if isinstance(node_ids, (int, np.integer)):
                node_ids = (int(node_ids),)
            ids = tuple(sorted({int(i) for i in node_ids}))
            if any(i < 0 for i in ids):
                raise ConfigurationError("churn schedule node ids must be non-negative")
            out.append((round_index, ids, event))
        out.sort(key=lambda e: e[0])
        return tuple(out)

    # ------------------------------------------------------------------ #
    @property
    def reliable(self) -> bool:
        """True when no message can be lost and no node crashes *initially*.

        Mid-run churn is orthogonal: the delivery fast paths key off the
        evolving ``alive`` mask, not off this flag, so ``reliable`` keeps its
        pre-churn meaning (no loss hashing needed).
        """
        return self.loss_probability == 0.0 and self.crash_fraction == 0.0

    @property
    def has_churn(self) -> bool:
        """True when any mid-run churn process is configured."""
        return (
            self.churn_rate != 0.0
            or self.join_rate != 0.0
            or bool(self.churn_schedule)
        )

    @property
    def has_joins(self) -> bool:
        """True when the churn model can revive nodes mid-run."""
        return self.join_rate != 0.0 or any(
            event == "join" for _round, _ids, event in self.churn_schedule
        )

    def sample_crashes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Return a boolean array marking the initially crashed nodes."""
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        crashed = np.zeros(n, dtype=bool)
        count = int(round(self.crash_fraction * n))
        count = min(count, n - 1)  # at least one node must survive
        if count > 0:
            crashed[rng.choice(n, size=count, replace=False)] = True
        return crashed

    def describe(self) -> str:
        churn = ""
        if self.has_churn:
            bits = []
            if self.churn_rate:
                bits.append(f"churn_rate={self.churn_rate:g}")
            if self.join_rate:
                bits.append(f"join_rate={self.join_rate:g}")
            if self.churn_schedule:
                bits.append(f"{len(self.churn_schedule)} scheduled events")
            churn = ", " + ", ".join(bits)
        if self.reliable:
            if not churn:
                return "reliable (delta=0, no crashes)"
            return f"reliable links (delta=0{churn})"
        return (
            f"lossy (delta={self.loss_probability:g}, "
            f"crash_fraction={self.crash_fraction:g}{churn})"
        )

    # ------------------------------------------------------------------ #
    # spec serialisation (the form a RunSpec's ``failures`` takes)
    # ------------------------------------------------------------------ #
    def to_spec(self) -> dict:
        """JSON-representable form used inside :class:`repro.api.RunSpec`.

        Churn keys are omitted when zero/empty so the spec (and therefore
        the spec/param hashes of every pre-churn run) is byte-identical to
        what earlier versions produced.
        """
        spec = {
            "loss_probability": float(self.loss_probability),
            "crash_fraction": float(self.crash_fraction),
        }
        if self.churn_rate:
            spec["churn_rate"] = float(self.churn_rate)
        if self.join_rate:
            spec["join_rate"] = float(self.join_rate)
        if self.churn_schedule:
            spec["churn_schedule"] = [
                [r, list(ids), event] for r, ids, event in self.churn_schedule
            ]
        return spec

    @classmethod
    def from_spec(cls, spec: "Mapping | FailureModel") -> "FailureModel":
        """Rebuild a failure model from its spec dict (identity on instances)."""
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, Mapping):
            raise ConfigurationError(f"failure spec must be a mapping, got {spec!r}")
        unknown = set(spec) - {
            "loss_probability",
            "crash_fraction",
            "churn_rate",
            "join_rate",
            "churn_schedule",
        }
        if unknown:
            raise ConfigurationError(
                f"failure spec has unknown keys {sorted(unknown)} "
                "(valid: loss_probability, crash_fraction, churn_rate, "
                "join_rate, churn_schedule)"
            )
        return cls(
            loss_probability=float(spec.get("loss_probability", 0.0)),
            crash_fraction=float(spec.get("crash_fraction", 0.0)),
            churn_rate=float(spec.get("churn_rate", 0.0)),
            join_rate=float(spec.get("join_rate", 0.0)),
            churn_schedule=tuple(
                tuple(entry) for entry in spec.get("churn_schedule", ())
            ),
        )


# --------------------------------------------------------------------------- #
# identity-keyed loss decisions
# --------------------------------------------------------------------------- #
_KIND_SALTS: dict[str, int] = {}

#: splitmix64 constants (Steele, Lea & Flood 2014) -- the standard 64-bit
#: finaliser; statistical quality is more than sufficient for Bernoulli
#: thinning and it vectorises to a handful of uint64 ops.
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)
_SM64_S27 = np.uint64(27)
_SM64_S30 = np.uint64(30)
_SM64_S31 = np.uint64(31)


def kind_salt(kind: object) -> int:
    """Stable 64-bit salt of a message kind (process- and backend-independent)."""
    key = str(kind)
    salt = _KIND_SALTS.get(key)
    if salt is None:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        salt = int.from_bytes(digest, "big")
        _KIND_SALTS[key] = salt
    return salt


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + _SM64_GAMMA
    x = (x ^ (x >> _SM64_S30)) * _SM64_M1
    x = (x ^ (x >> _SM64_S27)) * _SM64_M2
    return x ^ (x >> _SM64_S31)


def _as_u64(value) -> np.ndarray:
    """Coerce ints / int arrays (possibly negative) to wrapping uint64."""
    return np.asarray(value, dtype=np.int64).astype(np.uint64)


def _splitmix64_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """:func:`_splitmix64` of ``x`` in place, with ``tmp`` as the one temporary."""
    x += _SM64_GAMMA
    np.right_shift(x, _SM64_S30, out=tmp)
    x ^= tmp
    x *= _SM64_M1
    np.right_shift(x, _SM64_S27, out=tmp)
    x ^= tmp
    x *= _SM64_M2
    np.right_shift(x, _SM64_S31, out=tmp)
    x ^= tmp


def _xor_into(x: np.ndarray, value) -> None:
    """``x ^= value`` with ``value`` wrapped to uint64 like :func:`_as_u64`.

    Integer arrays are not copied: 64-bit ones are reinterpreted, narrower
    ones sign-extend inside the ufunc (the same bits as ``_as_u64``).
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        if value.dtype.itemsize == 8:
            np.bitwise_xor(x, value.view(np.uint64), out=x)
        else:
            np.bitwise_xor(x, value, out=x, dtype=np.uint64, casting="unsafe")
    else:
        np.bitwise_xor(x, _as_u64(value), out=x)


class LossOracle:
    """Per-transmission loss decisions keyed by transmission identity.

    One oracle is created per protocol run (see the module docstring); both
    substrate backends consult the same oracle, so a transmission's fate
    depends only on ``(round, kind, sender, recipient, nonce)`` -- never on
    the order a backend happens to batch its deliveries in.

    ``nonce`` disambiguates the rare case of two same-kind transmissions
    between the same pair in the same round (e.g. a Phase III forwarder
    relaying two pushes to its root, or two Chord routes crossing the same
    overlay link); protocols assign it identically on both backends.
    """

    __slots__ = ("loss_probability", "key", "_threshold")

    def __init__(self, loss_probability: float, key: int = 0) -> None:
        if not (0.0 <= loss_probability < 1.0):
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        self.loss_probability = float(loss_probability)
        self.key = int(key) & 0xFFFFFFFFFFFFFFFF
        #: compare the top 53 bits of the hash against delta * 2^53
        self._threshold = np.uint64(int(self.loss_probability * float(1 << 53)))

    @classmethod
    def for_run(cls, failure_model: "FailureModel", rng: np.random.Generator) -> "LossOracle":
        """Derive the run-scoped oracle in a protocol's shared preamble.

        The 64-bit run key is a hash of the shared generator's *state* —
        run-specific (it depends on the seed and on everything drawn so
        far) without consuming a single variate.  Two consequences: both
        backends derive the same key from the same preamble, and a lossy
        run draws exactly the same protocol randomness (targets, ranks) as
        the reliable run with the same seed — common random numbers across
        the ``delta`` axis of a sweep.
        """
        if failure_model.loss_probability == 0.0:
            return cls(0.0, 0)
        digest = hashlib.blake2b(
            repr(rng.bit_generator.state).encode("utf-8"), digest_size=8
        ).digest()
        return cls(failure_model.loss_probability, int.from_bytes(digest, "big"))

    @property
    def reliable(self) -> bool:
        return self.loss_probability == 0.0

    def _mix(self, round_index, kind_value, senders, recipients, nonces):
        if isinstance(kind_value, np.ndarray):
            kind_value = kind_value.astype(np.uint64, copy=False)
        else:
            kind_value = np.uint64(kind_value)
        with np.errstate(over="ignore"):
            head = _splitmix64(np.uint64(self.key) ^ kind_value)
            head = _splitmix64(head ^ _as_u64(round_index))
            if not isinstance(recipients, np.ndarray):
                x = _splitmix64(head ^ _as_u64(senders))
                x = _splitmix64(x ^ _as_u64(recipients))
                return _splitmix64(x ^ _as_u64(nonces if nonces is not None else 0))
        # The per-message links run in place on one owned buffer; a missing
        # nonce is 0, and x ^ 0 == x.
        x = np.empty(recipients.shape, dtype=np.uint64)
        tmp = np.empty_like(x)
        x[...] = head
        for identity in (senders, recipients, nonces):
            if identity is not None:
                _xor_into(x, identity)
            _splitmix64_into(x, tmp)
        return x

    def lost(
        self,
        round_index: int,
        kind: object,
        sender: int,
        recipient: int,
        nonce: int = 0,
    ) -> bool:
        """Fate of a single transmission (message-level engine path)."""
        if self.loss_probability == 0.0:
            return False
        x = self._mix(round_index, kind_salt(kind), sender, recipient, nonce)
        return bool((x >> np.uint64(11)) < self._threshold)

    def sample(
        self,
        round_index: int | np.ndarray,
        kind: object,
        senders: int | np.ndarray,
        recipients: np.ndarray,
        nonces: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fates of a batch of transmissions (columnar path).

        ``round_index`` and ``senders`` may be scalars (a whole batch from
        one sender in one round) or arrays aligned with ``recipients``
        (depth-layer sweeps that charge several rounds' transmissions in one
        call).  Returns the boolean *lost* mask.
        """
        recipients = np.asarray(recipients)
        count = int(recipients.size)
        if count == 0 or self.loss_probability == 0.0:
            return np.zeros(count, dtype=bool)
        x = self._mix(round_index, kind_salt(kind), senders, recipients, nonces)
        return np.broadcast_to((x >> np.uint64(11)) < self._threshold, recipients.shape)

    def sample_salted(
        self,
        round_index: np.ndarray,
        kind_salts: np.ndarray,
        senders: np.ndarray,
        recipients: np.ndarray,
        nonces: np.ndarray | None = None,
    ) -> np.ndarray:
        """Like :meth:`sample`, but for a batch of *mixed* message kinds.

        ``kind_salts`` is a uint64 array of per-message :func:`kind_salt`
        values; everything else is as in :meth:`sample`.  This is the
        engine's chunked path: one vectorised hash per delivery batch
        instead of one Python-level :meth:`lost` call per message.
        """
        recipients = np.asarray(recipients)
        count = int(recipients.size)
        if count == 0 or self.loss_probability == 0.0:
            return np.zeros(count, dtype=bool)
        x = self._mix(round_index, np.asarray(kind_salts, dtype=np.uint64), senders, recipients, nonces)
        return np.broadcast_to((x >> np.uint64(11)) < self._threshold, recipients.shape)


# --------------------------------------------------------------------------- #
# identity-keyed mid-run churn
# --------------------------------------------------------------------------- #

class ChurnOracle:
    """Per-round, per-node churn fates keyed by node identity.

    Like :class:`LossOracle`, churn fates are a pure function of identity —
    ``hash(run_key, round, node) < rate`` — never of the shared RNG stream,
    so every backend (and every batching order) computes the same fates
    for the same seed.  The run key is derived from the generator *state*
    with a ``"churn"`` domain tag, so churn fates are disjoint from loss
    fates even for the same round and node id.

    ``step`` is the single shared implementation all backends call: it
    mutates the ``alive`` mask in place at the top of a round and reports
    who died and who joined.  One guard keeps runs well-defined: if a round's
    fates would kill every remaining node, the lowest-id victim is spared.
    """

    __slots__ = (
        "churn_rate",
        "join_rate",
        "key",
        "_crash_threshold",
        "_join_threshold",
        "_crash_salt",
        "_join_salt",
        "_schedule",
    )

    def __init__(
        self,
        churn_rate: float,
        join_rate: float = 0.0,
        schedule: tuple = (),
        key: int = 0,
    ) -> None:
        if not (0.0 <= churn_rate < 1.0):
            raise ConfigurationError(f"churn_rate must be in [0, 1), got {churn_rate}")
        if not (0.0 <= join_rate < 1.0):
            raise ConfigurationError(f"join_rate must be in [0, 1), got {join_rate}")
        self.churn_rate = float(churn_rate)
        self.join_rate = float(join_rate)
        self.key = int(key) & 0xFFFFFFFFFFFFFFFF
        self._crash_threshold = np.uint64(int(self.churn_rate * float(1 << 53)))
        self._join_threshold = np.uint64(int(self.join_rate * float(1 << 53)))
        self._crash_salt = np.uint64(kind_salt("churn/crash"))
        self._join_salt = np.uint64(kind_salt("churn/join"))
        #: round -> [(ids, event), ...] in schedule order
        by_round: dict[int, list] = {}
        for round_index, ids, event in FailureModel._normalize_schedule(schedule):
            by_round.setdefault(round_index, []).append(
                (np.asarray(ids, dtype=np.int64), event)
            )
        self._schedule = by_round

    @property
    def has_joins(self) -> bool:
        """Whether this oracle can ever revive a node.

        Crash-only protocols (the root-relay Phase III procedures) accept
        churn but reject joins; they test this instead of re-deriving it
        from the spec.
        """
        if self.join_rate > 0.0:
            return True
        return any(
            event == "join"
            for entries in self._schedule.values()
            for _ids, event in entries
        )

    @classmethod
    def for_run(
        cls, failure_model: "FailureModel | None", rng: np.random.Generator
    ) -> "ChurnOracle | None":
        """Derive the run-scoped churn oracle, or ``None`` when churn is off.

        Like :meth:`LossOracle.for_run` this hashes the generator *state*
        and consumes zero variates; the ``"churn"`` domain tag keeps the key
        disjoint from the loss key derived from the same state.
        """
        if failure_model is None or not failure_model.has_churn:
            return None
        digest = hashlib.blake2b(
            repr(rng.bit_generator.state).encode("utf-8") + b"|churn", digest_size=8
        ).digest()
        return cls(
            failure_model.churn_rate,
            failure_model.join_rate,
            failure_model.churn_schedule,
            int.from_bytes(digest, "big"),
        )

    def _fates(self, round_index: int, ids: np.ndarray, salt, threshold) -> np.ndarray:
        """Boolean fate mask for ``ids`` at ``round_index`` under ``threshold``."""
        if ids.size == 0:
            return np.zeros(0, dtype=bool)
        with np.errstate(over="ignore"):
            x = _splitmix64(np.uint64(self.key) ^ salt)
            x = _splitmix64(x ^ _as_u64(round_index))
            x = _splitmix64(x ^ _as_u64(ids))
        return (x >> np.uint64(11)) < threshold

    def step(
        self, round_index: int, alive: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Apply round ``round_index``'s churn to ``alive`` **in place**.

        Returns ``(died_ids, joined_ids)`` (int64 arrays, ascending).  Rate
        fates are evaluated on the mask as it stood at entry; scheduled
        events for this round are applied last and override rate fates for
        the same node.
        """
        n = alive.shape[0]
        die = np.zeros(n, dtype=bool)
        join = np.zeros(n, dtype=bool)
        if self.churn_rate > 0.0:
            alive_ids = np.flatnonzero(alive)
            die[alive_ids] = self._fates(
                round_index, alive_ids, self._crash_salt, self._crash_threshold
            )
        if self.join_rate > 0.0:
            dead_ids = np.flatnonzero(~alive)
            join[dead_ids] = self._fates(
                round_index, dead_ids, self._join_salt, self._join_threshold
            )
        for ids, event in self._schedule.get(int(round_index), ()):
            ids = ids[ids < n]
            if event == "crash":
                die[ids] = True
                join[ids] = False
            else:
                join[ids] = True
                die[ids] = False
        die &= alive
        join &= ~alive
        # Never let a round extinguish the network: spare the lowest-id victim.
        if not join.any() and die.any():
            survivors = int(np.count_nonzero(alive)) - int(np.count_nonzero(die))
            if survivors == 0:
                die[np.flatnonzero(die)[0]] = False
        died = np.flatnonzero(die)
        joined = np.flatnonzero(join)
        alive[died] = False
        alive[joined] = True
        return died, joined
