"""Run telemetry: phase/round wall-time spans, counters, and gauges.

:class:`MetricsCollector` measures *counts* — rounds, messages, words — which
is what the paper's complexity claims are stated in.  This module measures
*time*: where a run's wall clock went, phase by phase and primitive by
primitive.  The two are deliberately separate objects: metrics are part of
a run's outcome (bit-identical across backends, hashed, compared),
telemetry is an observation *about* an execution and must never influence
it.

Design rules
------------
* **Zero cost when off.**  The ambient recorder defaults to the
  :data:`NULL_TELEMETRY` singleton (``enabled = False``); every hot-path
  hook guards on ``enabled`` (one global read + attribute test), and the
  instrumented delivery primitives keep their undecorated originals
  reachable via ``__wrapped__`` so the benchmark gate can measure the
  disabled-path overhead honestly.
* **No effect on outcomes.**  A :class:`Telemetry` only ever reads clocks
  and counters — it never touches the RNG stream, the loss oracle, or the
  metrics collector, so same-seed results are bit-identical with telemetry
  on or off (``tests/test_observability.py`` asserts this for every
  protocol on the ``vectorized`` and ``engine`` backends).
* **Bounded memory.**  Per-round duration samples go through a decimating
  reservoir (:class:`RoundSampler`): once ``cap`` samples are held, every
  other one is dropped and the sampling stride doubles, so arbitrarily long
  runs keep at most ``cap`` samples per phase while min/max/mean stay exact.

The ambient recorder is installed with :func:`use_telemetry` (a context
manager) and read with :func:`current_telemetry`; threading a recorder
through every protocol signature would have meant touching each of the ten
protocol entry points and both kernels for a cross-cutting concern.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "NullTelemetry",
    "Telemetry",
    "RoundSampler",
    "NULL_TELEMETRY",
    "current_telemetry",
    "use_telemetry",
    "instrumented",
    "events_from_telemetry",
    "write_events_jsonl",
    "format_telemetry",
]

_perf_counter = time.perf_counter


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process, or None when unavailable."""
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes on Linux.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


class RoundSampler:
    """Decimating reservoir of round durations: bounded memory, exact extrema.

    Holds at most ``cap`` samples: when full, every other stored sample is
    dropped and the stride doubles, so long runs keep an evenly spaced
    subsample.  ``count``/``total``/``min``/``max`` are maintained over every
    observation, not just the retained ones.
    """

    __slots__ = ("cap", "stride", "count", "total", "min", "max", "samples")

    def __init__(self, cap: int = 512) -> None:
        if cap < 2:
            raise ValueError(f"sampler cap must be >= 2, got {cap}")
        self.cap = int(cap)
        self.stride = 1
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.samples: list[float] = []

    def add(self, value: float) -> None:
        value = float(value)
        if self.count % self.stride == 0:
            if len(self.samples) >= self.cap:
                self.samples = self.samples[::2]
                self.stride *= 2
            if self.count % self.stride == 0:
                self.samples.append(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict[str, Any]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_s": self.total / self.count,
            "min_s": self.min,
            "max_s": self.max,
            "stride": self.stride,
            "samples_s": list(self.samples),
        }


class NullTelemetry:
    """The disabled recorder: every hook is a no-op.

    This is the ambient default; hot paths test ``enabled`` before doing any
    work, so the only per-call cost of disabled telemetry is that test.
    """

    enabled = False

    def phase_begin(self, name: str) -> None:
        pass

    def round_tick(self) -> None:
        pass

    def add_span(self, name: str, seconds: float) -> None:
        pass

    def span(self, name: str):
        return _NULL_CONTEXT

    def count(self, name: str, increment: int = 1) -> None:
        pass

    def gauge_max(self, name: str, value: float) -> None:
        pass

    def finish(self) -> None:
        pass

    def as_dict(self) -> dict[str, Any]:
        return {}


_NULL_CONTEXT = contextlib.nullcontext()

#: process-wide disabled recorder (stateless, shared)
NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """One run's time-domain observations.

    Feeds from two kinds of hooks:

    * the :class:`~repro.simulator.metrics.MetricsCollector` phase/round
      hooks (every backend's round loop already reports through the
      collector, so phase wall times and per-round durations come for free
      on every backend);
    * the instrumented substrate primitives (`substrate.deliver`,
      `substrate.probe_exchange`, `substrate.relay`, ...), which record
      per-primitive spans.
    """

    enabled = True

    def __init__(self, round_sample_cap: int = 512) -> None:
        self._start = _perf_counter()
        self._round_sample_cap = int(round_sample_cap)
        self._phase: str | None = None
        self._phase_started: float = self._start
        self._last_tick: float | None = None
        self._phase_wall: dict[str, float] = {}
        self._phase_order: list[str] = []
        self._rounds: dict[str, RoundSampler] = {}
        self._spans: dict[str, list] = {}  # name -> [count, total, min, max]
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._wall: float | None = None
        self._peak_rss: int | None = None

    # ------------------------------------------------------------------ #
    # phases and rounds (driven by MetricsCollector)
    # ------------------------------------------------------------------ #
    def _credit_phase(self, now: float) -> None:
        if self._phase is not None:
            self._phase_wall[self._phase] = (
                self._phase_wall.get(self._phase, 0.0) + now - self._phase_started
            )

    def phase_begin(self, name: str) -> None:
        now = _perf_counter()
        self._credit_phase(now)
        if name not in self._phase_wall:
            self._phase_wall[name] = 0.0
            self._phase_order.append(name)
        self._phase = name
        self._phase_started = now
        # Round boundaries do not cross phases.
        self._last_tick = None

    def round_tick(self) -> None:
        """Called at each round boundary; samples the previous round's duration."""
        if self._phase is None:
            # Round activity before any named phase (mirrors the metrics
            # collector's implicit default phase).
            self.phase_begin("default")
        now = _perf_counter()
        if self._last_tick is not None:
            sampler = self._rounds.get(self._phase)
            if sampler is None:
                sampler = self._rounds[self._phase] = RoundSampler(self._round_sample_cap)
            sampler.add(now - self._last_tick)
        self._last_tick = now

    # ------------------------------------------------------------------ #
    # spans, counters, gauges
    # ------------------------------------------------------------------ #
    def add_span(self, name: str, seconds: float) -> None:
        stats = self._spans.get(name)
        if stats is None:
            self._spans[name] = [1, seconds, seconds, seconds]
            return
        stats[0] += 1
        stats[1] += seconds
        if seconds < stats[2]:
            stats[2] = seconds
        if seconds > stats[3]:
            stats[3] = seconds

    @contextlib.contextmanager
    def span(self, name: str):
        start = _perf_counter()
        try:
            yield self
        finally:
            self.add_span(name, _perf_counter() - start)

    def count(self, name: str, increment: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + int(increment)

    def gauge_max(self, name: str, value: float) -> None:
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    # ------------------------------------------------------------------ #
    # lifecycle / export
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        """Close the open phase and stamp run totals (idempotent)."""
        if self._wall is not None:
            return
        now = _perf_counter()
        self._credit_phase(now)
        self._phase = None
        self._wall = now - self._start
        self._peak_rss = _peak_rss_bytes()

    def snapshot(self) -> dict[str, Any]:
        """Cheap live view for progress/heartbeat lines (no finish needed)."""
        rounds = sum(s.count for s in self._rounds.values())
        return {
            "elapsed_s": _perf_counter() - self._start,
            "phase": self._phase,
            "rounds": rounds,
        }

    def as_dict(self) -> dict[str, Any]:
        """The serialisable telemetry document (``RunResult.telemetry``)."""
        self.finish()
        doc: dict[str, Any] = {
            "wall_s": self._wall,
            "phases": {
                name: {
                    "wall_s": self._phase_wall[name],
                    "rounds": (
                        self._rounds[name].as_dict() if name in self._rounds else {"count": 0}
                    ),
                }
                for name in self._phase_order
            },
        }
        if self._peak_rss is not None:
            doc["peak_rss_bytes"] = self._peak_rss
        if self._spans:
            doc["spans"] = {
                name: {"count": c, "total_s": t, "min_s": lo, "max_s": hi}
                for name, (c, t, lo, hi) in sorted(self._spans.items())
            }
        if self._counters:
            doc["counters"] = dict(sorted(self._counters.items()))
        if self._gauges:
            doc["gauges"] = dict(sorted(self._gauges.items()))
        return doc


# --------------------------------------------------------------------------- #
# the ambient recorder
# --------------------------------------------------------------------------- #
_CURRENT: NullTelemetry = NULL_TELEMETRY


def current_telemetry() -> NullTelemetry:
    """The ambient recorder (the shared :data:`NULL_TELEMETRY` when off)."""
    return _CURRENT


@contextlib.contextmanager
def use_telemetry(telemetry: NullTelemetry):
    """Install ``telemetry`` as the ambient recorder for the enclosed run."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry if telemetry is not None else NULL_TELEMETRY
    try:
        yield _CURRENT
    finally:
        _CURRENT = previous


def instrumented(name: str) -> Callable:
    """Wrap a substrate primitive in a named telemetry span.

    When telemetry is disabled the wrapper is one global read, one attribute
    test, and the delegated call; the undecorated function stays reachable
    as ``__wrapped__`` so ``hook_free()`` in ``benchmarks/gates.py`` can
    measure that residue against a hook-free run and enforce the <2%
    disabled-path gate.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            telemetry = _CURRENT
            if not telemetry.enabled:
                return fn(*args, **kwargs)
            start = _perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                telemetry.add_span(name, _perf_counter() - start)

        return wrapper

    return decorate


# --------------------------------------------------------------------------- #
# JSONL event export
# --------------------------------------------------------------------------- #
def events_from_telemetry(doc: Mapping[str, Any]) -> Iterator[dict[str, Any]]:
    """Flatten a telemetry document into JSONL-ready event records.

    Operates on the serialised document (not the live object) so events can
    be exported from a fresh run, a ``RunResult``, or a stored
    ``telemetry_json`` row alike.  Event types: ``run``, ``phase``,
    ``round_samples``, ``span``, ``counter``, ``gauge``.
    """
    run_event: dict[str, Any] = {"event": "run", "wall_s": doc.get("wall_s")}
    if "peak_rss_bytes" in doc:
        run_event["peak_rss_bytes"] = doc["peak_rss_bytes"]
    yield run_event
    for name, phase in doc.get("phases", {}).items():
        rounds = phase.get("rounds", {})
        yield {
            "event": "phase",
            "name": name,
            "wall_s": phase.get("wall_s"),
            "rounds": rounds.get("count", 0),
        }
        if rounds.get("count"):
            yield {
                "event": "round_samples",
                "phase": name,
                "count": rounds["count"],
                "mean_s": rounds.get("mean_s"),
                "min_s": rounds.get("min_s"),
                "max_s": rounds.get("max_s"),
                "stride": rounds.get("stride", 1),
                "samples_s": rounds.get("samples_s", []),
            }
    for name, span in doc.get("spans", {}).items():
        yield {"event": "span", "name": name, **span}
    for name, value in doc.get("counters", {}).items():
        yield {"event": "counter", "name": name, "value": value}
    for name, value in doc.get("gauges", {}).items():
        yield {"event": "gauge", "name": name, "value": value}


def write_events_jsonl(doc: Mapping[str, Any], path: str | Path, append: bool = False) -> Path:
    """Write a telemetry document as one JSON event per line."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    mode = "a" if append else "w"
    with path.open(mode) as handle:
        for event in events_from_telemetry(doc):
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def format_telemetry(doc: Mapping[str, Any]) -> str:
    """Human-readable summary of a telemetry document (CLI surfaces)."""
    if not doc:
        return "(no telemetry recorded)"
    lines = [f"telemetry        : wall {doc.get('wall_s', 0.0):.3f}s"]
    if "peak_rss_bytes" in doc:
        lines.append(f"peak rss         : {doc['peak_rss_bytes'] / 1e6:.1f} MB")
    for name, phase in doc.get("phases", {}).items():
        rounds = phase.get("rounds", {})
        count = rounds.get("count", 0)
        detail = ""
        if count:
            detail = f" ({count} rounds, mean {rounds.get('mean_s', 0.0) * 1e3:.2f} ms)"
        lines.append(f"  phase {name:<15} {phase.get('wall_s', 0.0):8.3f}s{detail}")
    spans = doc.get("spans", {})
    if spans:
        top = sorted(spans.items(), key=lambda item: -item[1].get("total_s", 0.0))[:8]
        for name, span in top:
            lines.append(
                f"  span  {name:<28} {span.get('total_s', 0.0):8.3f}s x{span.get('count', 0)}"
            )
    for name, value in doc.get("counters", {}).items():
        lines.append(f"  count {name:<28} {value}")
    for name, value in doc.get("gauges", {}).items():
        lines.append(f"  gauge {name:<28} {value:g}")
    return "\n".join(lines)
