"""The uniform result envelope returned by :func:`repro.run`.

Whatever the protocol, a run's outcome is reported in one shape: the round
count, the message accounting (total / lost / per kind / per phase), the
per-node estimate vector, a protocol-specific scalar summary, the wall
time, and an echo of the spec that produced it.  The envelope serialises
to JSON (minus the in-memory ``raw`` protocol result), so a worker on
another host can return a :class:`RunResult` as a plain string and the
parent can compare it field-for-field against a local replay.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping

import numpy as np

from .spec import RunSpec

__all__ = ["RunResult"]


def _same_degradation(a: Mapping[str, Any] | None, b: Mapping[str, Any] | None) -> bool:
    """Entry-by-entry equality of two degradation sections, NaN == NaN."""
    if a is None or b is None:
        return a is b
    return a.keys() == b.keys() and all(
        np.array_equal(np.asarray(a[key], dtype=float), np.asarray(b[key], dtype=float),
                       equal_nan=True)
        for key in a
    )


class RunResult:
    """Outcome of one spec-dispatched protocol run.

    Attributes
    ----------
    spec:
        The spec that produced this result (validated, defaults resolved).
    rounds / messages / messages_lost / words / messages_by_kind /
    messages_by_phase / rounds_by_phase:
        The complete round and message accounting of the run (``words`` is
        the total payload width of every transmission).
    estimates:
        Per-node (or per-route) estimates; NaN marks nodes without an
        answer.  May be handed in as a zero-argument callable, which is
        evaluated (once) on first access — derived statistics must not tax
        callers that only read the counters, which is what keeps the
        dispatch layer's overhead over a direct ``run_X`` call negligible.
    summary:
        Protocol-specific scalars (exact value, max_rel_error, coverage,
        ...); same lazy-callable convention as ``estimates``.
    wall_time_s:
        Wall-clock duration of the dispatch (excluded from equality).
    raw:
        The underlying protocol result object; None after deserialisation.
    telemetry:
        The run's telemetry document (phase/primitive timing spans, peak
        RSS, counters), or None when telemetry was disabled.  An
        observation about the execution, not part of the outcome: excluded
        from :meth:`same_outcome` like ``wall_time_s``.
    degradation:
        Fault-degradation section for churn runs (survivor counts, the
        survivor-relative error, messages wasted on dead recipients, and —
        for epoch-restarted protocols — the per-epoch error curve), or
        None when the spec's failure model has no mid-run churn.  Values
        may legitimately be NaN (e.g. the error curve of an epoch whose
        survivors all hold NaN), so :meth:`same_outcome` compares the
        section entry by entry with NaN equal to NaN.
    """

    __slots__ = (
        "spec",
        "rounds",
        "messages",
        "messages_lost",
        "words",
        "messages_by_kind",
        "messages_by_phase",
        "rounds_by_phase",
        "_estimates",
        "_summary",
        "wall_time_s",
        "raw",
        "telemetry",
        "degradation",
    )

    def __init__(
        self,
        spec: RunSpec,
        rounds: int,
        messages: int,
        messages_lost: int,
        words: int,
        messages_by_kind: dict[str, int],
        messages_by_phase: dict[str, int],
        rounds_by_phase: dict[str, int],
        estimates: np.ndarray | Callable[[], np.ndarray] | None,
        summary: dict[str, float] | Callable[[], dict[str, float]],
        wall_time_s: float,
        raw: Any = None,
        telemetry: Mapping[str, Any] | None = None,
        degradation: Mapping[str, Any] | None = None,
    ) -> None:
        self.spec = spec
        self.rounds = int(rounds)
        self.messages = int(messages)
        self.messages_lost = int(messages_lost)
        self.words = int(words)
        self.messages_by_kind = dict(messages_by_kind)
        self.messages_by_phase = dict(messages_by_phase)
        self.rounds_by_phase = dict(rounds_by_phase)
        self._estimates = estimates
        self._summary = summary
        self.wall_time_s = float(wall_time_s)
        self.raw = raw
        self.telemetry = dict(telemetry) if telemetry is not None else None
        self.degradation = dict(degradation) if degradation is not None else None

    @property
    def estimates(self) -> np.ndarray | None:
        if callable(self._estimates):
            self._estimates = np.asarray(self._estimates(), dtype=float)
        return self._estimates

    @property
    def summary(self) -> dict[str, float]:
        if callable(self._summary):
            self._summary = {str(k): float(v) for k, v in self._summary().items()}
        return self._summary

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunResult(protocol={self.protocol!r}, backend={self.backend!r}, "
            f"seed={self.seed}, rounds={self.rounds}, messages={self.messages})"
        )

    @property
    def protocol(self) -> str:
        return self.spec.protocol

    @property
    def backend(self) -> str:
        return self.spec.backend

    @property
    def seed(self) -> int:
        return self.spec.seed

    # ------------------------------------------------------------------ #
    # comparison
    # ------------------------------------------------------------------ #
    def same_outcome(self, other: "RunResult") -> bool:
        """True when two runs produced *identical* results.

        Compares rounds, every message counter (total, lost, words, per
        kind, per phase), the summary scalars, and element-wise (NaN == NaN) the
        degradation section's scalars and lists and the estimate vectors;
        wall time, telemetry and the ``raw`` object are excluded.  This is
        the equality the serialisation round-trip guarantee is stated in, and
        the one check of backend equivalence: same-seed runs on different
        backends satisfy it.
        """
        if (
            self.rounds != other.rounds
            or self.messages != other.messages
            or self.messages_lost != other.messages_lost
            or self.words != other.words
            or dict(self.messages_by_kind) != dict(other.messages_by_kind)
            or dict(self.messages_by_phase) != dict(other.messages_by_phase)
            or dict(self.rounds_by_phase) != dict(other.rounds_by_phase)
            or dict(self.summary) != dict(other.summary)
            or not _same_degradation(self.degradation, other.degradation)
        ):
            return False
        if (self.estimates is None) != (other.estimates is None):
            return False
        if self.estimates is None:
            return True
        return bool(
            np.array_equal(
                np.asarray(self.estimates, dtype=float),
                np.asarray(other.estimates, dtype=float),
                equal_nan=True,
            )
        )

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "rounds": int(self.rounds),
            "messages": int(self.messages),
            "messages_lost": int(self.messages_lost),
            "words": int(self.words),
            "messages_by_kind": {str(k): int(v) for k, v in self.messages_by_kind.items()},
            "messages_by_phase": {str(k): int(v) for k, v in self.messages_by_phase.items()},
            "rounds_by_phase": {str(k): int(v) for k, v in self.rounds_by_phase.items()},
            "estimates": None if self.estimates is None else [float(v) for v in np.asarray(self.estimates)],
            "summary": {str(k): float(v) for k, v in self.summary.items()},
            "wall_time_s": float(self.wall_time_s),
            **({"telemetry": self.telemetry} if self.telemetry is not None else {}),
            **({"degradation": self.degradation} if self.degradation is not None else {}),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunResult":
        estimates = doc.get("estimates")
        return cls(
            spec=RunSpec.from_dict(doc["spec"]),
            rounds=int(doc["rounds"]),
            messages=int(doc["messages"]),
            messages_lost=int(doc.get("messages_lost", 0)),
            words=int(doc.get("words", 0)),
            messages_by_kind=dict(doc.get("messages_by_kind", {})),
            messages_by_phase=dict(doc.get("messages_by_phase", {})),
            rounds_by_phase=dict(doc.get("rounds_by_phase", {})),
            estimates=None if estimates is None else np.asarray(estimates, dtype=float),
            summary={str(k): float(v) for k, v in dict(doc.get("summary", {})).items()},
            wall_time_s=float(doc.get("wall_time_s", 0.0)),
            telemetry=doc.get("telemetry"),
            degradation=doc.get("degradation"),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------ #
    # integration
    # ------------------------------------------------------------------ #
    def to_experiment_result(self):
        """Adapt to the harness/store row shape (one row per run).

        This is what lets protocol specs flow through the same SQLite
        result store and report writers as the registered experiments.
        """
        from ..harness.experiments import ExperimentResult  # lazy: avoid import cycle

        row: dict[str, Any] = {
            "protocol": self.protocol,
            "backend": self.backend,
            "rounds": int(self.rounds),
            "messages": int(self.messages),
            "messages_lost": int(self.messages_lost),
        }
        for key in sorted(self.summary):
            row[key] = float(self.summary[key])
        return ExperimentResult(
            experiment=f"run:{self.protocol}",
            description=f"spec-dispatched run of {self.protocol!r}",
            headers=list(row.keys()),
            rows=[row],
            seed=self.seed,
            parameters=self.spec.to_dict(),
            notes=[],
        )

    def describe(self) -> str:
        parts = [
            f"protocol         : {self.protocol}",
            f"backend          : {self.backend}",
            f"seed             : {self.seed}",
            f"rounds           : {self.rounds}",
            f"messages         : {self.messages} ({self.messages_lost} lost)",
        ]
        by_phase = [(phase, count) for phase, count in self.messages_by_phase.items() if count]
        if by_phase:
            parts.append("messages by phase:")
            parts.extend(f"  {phase:<18} {count}" for phase, count in by_phase)
        for key in sorted(self.summary):
            parts.append(f"{key:<17}: {self.summary[key]:.6g}")
        if self.degradation is not None:
            for key in sorted(self.degradation):
                value = self.degradation[key]
                if isinstance(value, (int, float)):
                    parts.append(f"churn {key:<11}: {float(value):.6g}")
        parts.append(f"wall time        : {self.wall_time_s:.3f}s")
        if self.telemetry is not None:
            from ..observability.telemetry import format_telemetry

            parts.append(format_telemetry(self.telemetry))
        return "\n".join(parts)
