"""Span tracing of one benchmark repetition, recorded from outside the program.

:func:`installed` patches the public entry point of every layer (module
functions, class methods, the ``VectorizedKernel`` staticmethods, the
``Forest.depth`` cached property) with a wrapper that records a span, and
puts the original objects back when the block ends.  The program itself is
not modified: an untraced run executes exactly the code a user runs.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of the
enclosing span (-1 for a root) and ``run`` the run id, which is the spec
hash plus the repetition index.  Spans are kept in memory and written out
once the repetition ends.  A span's self time is its duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

#: the seven Algorithm 8 phases, in pipeline order
PHASES = (
    "drr",
    "convergecast",
    "broadcast-root",
    "gossip-max-sizes",
    "gossip-ave",
    "data-spread",
    "broadcast-final",
)

#: the VectorizedKernel primitives that carry per-message work, with the
#: position and name of the argument whose size is their element count
PRIMITIVES = {
    "sample_uniform": (2, "size"),
    "deliver": (3, "targets"),
    "probe_exchange": (2, "targets"),
    "relay_to_roots": (2, "targets"),
    "fold_pushes": (0, "receiver"),
}


class Tracer:
    """In-memory span recorder for one traced repetition (single-threaded)."""

    def __init__(self, run_id: str = "") -> None:
        self.spans: list[list[Any]] = []
        #: work counts taken at the same boundaries as the spans
        self.counts: Counter[str] = Counter()
        self.run_id = run_id
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable,
        span: str | Callable[[tuple, dict], str],
        elements: Callable[[tuple, dict], int] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call, plus its element count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            if elements is not None:
                tracer.counts[name + ".elements"] += elements(args, kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def observe(self, result) -> None:
        """Count a finished run's phase rounds/messages and its losses."""
        for phase, rounds in result.rounds_by_phase.items():
            self.counts[f"phase.{phase}.rounds"] += int(rounds)
        for phase, messages in result.messages_by_phase.items():
            self.counts[f"phase.{phase}.messages"] += int(messages)
        self.counts["run.messages"] += int(result.messages)
        self.counts["run.messages_lost"] += int(result.messages_lost)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls, total self time, total duration."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span, self_s in zip(self.spans, selfs):
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["total_s"] += span[2] - span[1]
        return dict(out)

    def write(self, path: Path, **header: Any) -> None:
        """Write the spans as JSON: one row per span, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        runs = sorted({span[4] for span in self.spans})
        run_index = {run: i for i, run in enumerate(runs)}
        doc = {
            **header,
            "fields": ["name", "start_s", "end_s", "parent", "run"],
            "runs": runs,
            "spans": [
                [name, start - origin, end - origin, parent, run_index[run]]
                for name, start, end, parent, run in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, min(child_end, end))
        out.append(max(0.0, (end - start) - covered))
    return out


# --------------------------------------------------------------------------- #
# what gets patched
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Target:
    """One attribute to patch: ``owner.attr`` becomes a span named ``span``."""

    owner: Any
    attr: str
    span: str | Callable[[tuple, dict], str]
    elements: Callable[[tuple, dict], int] | None = None
    #: builds the wrapper; defaults to :meth:`Tracer.wrap`
    factory: Callable[["Tracer", Callable, "Target"], Callable] | None = None


def _size_of(position: int, keyword: str) -> Callable[[tuple, dict], int]:
    def size(args: tuple, kwargs: dict) -> int:
        value = args[position] if len(args) > position else kwargs[keyword]
        return int(getattr(value, "size", value))

    return size


def _phase(default: str) -> Callable[[tuple, dict], str]:
    return lambda args, kwargs: "core." + kwargs.get("phase_name", default)


def _hashed(position: int, keyword: str) -> Callable[[tuple, dict], int]:
    size = _size_of(position, keyword)
    # ``self`` is args[0]; a reliable oracle returns before hashing anything
    return lambda args, kwargs: size(args, kwargs) if args[0].loss_probability > 0.0 else 0


def _api_run(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    """``repro.api.run``: the run span, keyed by spec hash and repetition."""

    @functools.wraps(fn)
    def traced(spec, *args, **kwargs):
        outer = tracer.run_id
        # a run traces one repetition, so its repetition index is always 0
        tracer.run_id = f"{spec.spec_hash()}:0"
        index = tracer.open(target.span)
        try:
            result = fn(spec, *args, **kwargs)
        finally:
            tracer.close(index)
            tracer.run_id = outer
        tracer.observe(result)
        return result

    return traced


def layer_targets() -> list[Target]:
    """Every layer boundary the traced repetition records, by repo module."""
    import importlib

    import repro.api
    import repro.baselines
    from repro.core.forest import Forest
    from repro.orchestration import ResultStore, SweepRunner
    from repro.simulator.failures import LossOracle
    from repro.simulator.metrics import MetricsCollector
    from repro.substrate import VectorizedKernel

    # import_module, not ``import a.b as c``: the packages re-export
    # functions named like these modules, which shadow them as attributes
    pipeline = importlib.import_module("repro.core.drr_gossip")
    runner = importlib.import_module("repro.orchestration.runner")
    return [
        Target(repro.api, "run", "api.run", factory=_api_run),
        Target(pipeline, "run_drr", "core.drr"),
        Target(pipeline, "run_convergecast", "core.convergecast"),
        Target(pipeline, "run_broadcast", _phase("broadcast")),
        Target(pipeline, "run_gossip_max", _phase("gossip-max")),
        Target(pipeline, "run_gossip_ave", _phase("gossip-ave")),
        Target(pipeline, "run_data_spread", "core.data-spread"),
        Target(repro.baselines, "push_sum", "baselines.push-sum"),
        Target(Forest, "depth", "forest.depth"),
        Target(Forest, "validate", "forest.validate"),
        *(
            Target(VectorizedKernel, prim, f"substrate.{prim}", _size_of(*argument))
            for prim, argument in PRIMITIVES.items()
        ),
        Target(LossOracle, "sample", "failures.loss", _hashed(4, "recipients")),
        Target(LossOracle, "sample_salted", "failures.loss", _hashed(4, "recipients")),
        Target(MetricsCollector, "record_messages", "metrics.record_messages"),
        Target(SweepRunner, "run_cells", "orchestration.run_cells"),
        Target(runner, "_execute_cell", "orchestration.execute_cell"),
        Target(SweepRunner, "_record", "orchestration.record"),
        Target(ResultStore, "record_result", "orchestration.record_result"),
        Target(ResultStore, "mark_heartbeat", "orchestration.mark_heartbeat"),
    ]


def _patched(tracer: Tracer, target: Target, original: Any) -> Any:
    if isinstance(original, staticmethod):
        return staticmethod(tracer.wrap(original.__func__, target.span, target.elements))
    if isinstance(original, functools.cached_property):
        prop = functools.cached_property(tracer.wrap(original.func, target.span, target.elements))
        prop.__set_name__(target.owner, target.attr)
        return prop
    if target.factory is not None:
        return target.factory(tracer, original, target)
    return tracer.wrap(original, target.span, target.elements)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer target for the duration of the block, then restore it.

    The original is read from the owner's own ``__dict__`` (never an
    inherited attribute) and set back as the identical object, so a
    staticmethod or cached property comes back as itself, not as a
    re-wrapped copy.
    """
    originals: list[tuple[Any, str, Any]] = []
    try:
        for target in layer_targets():
            original = vars(target.owner)[target.attr]
            originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, _patched(tracer, target, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
def layer_metrics(tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer numbers of one traced repetition.

    ``root`` names the run span (the workload's entry into the program);
    its self time is the time no layer span accounts for.
    """
    agg = tracer.aggregate()
    counts = tracer.counts

    def calls(name: str) -> float:
        return float(agg.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return float(agg.get(name, {}).get("self_s", 0.0))

    m: dict[str, float] = {}
    for phase in PHASES:
        m[f"core.{phase}.self_s"] = self_s(f"core.{phase}")
        m[f"core.{phase}.rounds"] = float(counts[f"phase.{phase}.rounds"])
        m[f"core.{phase}.messages"] = float(counts[f"phase.{phase}.messages"])
    m["baselines.push-sum.self_s"] = self_s("baselines.push-sum")
    for name in ("forest.depth", "forest.validate"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for prim in PRIMITIVES:
        name = f"substrate.{prim}"
        elements = float(counts[f"{name}.elements"])
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.elements"] = elements
        m[f"{name}.self_s"] = self_s(name)
        m[f"{name}.ns_per_elem"] = self_s(name) * 1e9 / elements if elements else 0.0
    m["failures.loss.calls"] = calls("failures.loss")
    m["failures.loss.hashed"] = float(counts["failures.loss.elements"])
    m["failures.loss.self_s"] = self_s("failures.loss")
    messages = counts["run.messages"]
    m["failures.delivered_frac"] = 1.0 - counts["run.messages_lost"] / messages if messages else 0.0
    for name in ("metrics.record_messages", "api.run", "orchestration.record_result",
                 "orchestration.mark_heartbeat"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("execute_cell", "record", "run_cells"):
        m[f"orchestration.{name}.self_s"] = self_s(f"orchestration.{name}")
    root_total = float(agg.get(root, {}).get("total_s", 0.0))
    m["trace.unattributed_s"] = self_s(root)
    m["trace.unattributed_frac"] = self_s(root) / root_total if root_total else 0.0
    return m
