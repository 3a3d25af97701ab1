"""Sweep execution: every cell goes through the store's work queue.

The runner expands a :class:`~repro.orchestration.config.SweepDefinition`
into independent cells — one ``(experiment, params, seed)`` triple per grid
point and repetition — enqueues them as pending rows in the store's work
queue, and drains the queue: in this process with ``jobs == 1``, in
``jobs`` forked drains otherwise.  Design invariants:

* **Determinism.** Every cell's seed is derived in the parent from the
  sweep's master seed via the existing :class:`~repro.simulator.rng.RngStream`
  (``derive_seed`` under the hood), keyed on the experiment name, the
  canonical parameter hash, and the repetition index.  A cell's output is a
  pure function of its seed and parameters, so ``--jobs 1`` and ``--jobs 4``
  produce bit-identical stores.
* **Isolation.** A crashed cell records a ``failed`` row (with traceback)
  in the store instead of killing the sweep; failed cells are retried on
  the next invocation.  A cell that kills the process running it is
  retried by a fresh drain until its attempt budget runs out, and then
  recorded as failed.
* **Resume.** With ``skip_completed`` (the default), cells whose key
  already has a successful row in the store are skipped without executing,
  so re-running a finished sweep executes zero cells.  The claims a killed
  sweep left behind are orphaned (their drains' owner locks are free), and
  the resumed sweep's drains reclaim and run them at once.

Every cell travels as one *serialised spec string* — either an experiment
cell (``{"experiment", "params", "seed"}``) resolved by name through the
default registry, or a protocol :class:`~repro.api.RunSpec` document
executed through :func:`repro.run`.  Nothing but that string sits in the
queue, so the drains of any sweep running on the same store claim and
execute each other's cells; see :mod:`~repro.orchestration.worker`.

Identical cells are *content-addressed*: cells whose serialised spec
strings are equal collapse onto one execution, and the duplicates are
reported as ``cached``; a claim additionally checks the store for an
already-recorded result before executing, so re-submitted specs are served
from cache across sweeps too.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Mapping, Sequence

from ..observability.logs import get_logger
from ..simulator.rng import RngStream, derive_seed
from .config import SweepDefinition
from .registry import load_builtin_experiments
from .store import (
    DEFAULT_MAX_ATTEMPTS,
    QueuedCell,
    ResultStore,
    cell_spec_hash,
    cell_spec_json,
    param_hash,
)

_logger = get_logger("orchestration.runner")

__all__ = [
    "SweepCell",
    "CellOutcome",
    "SweepReport",
    "SweepRunner",
    "expand_cells",
    "cells_from_run_specs",
]

#: largest estimate vector persisted inside a stored RunResult envelope;
#: beyond this the vector is dropped (marked ``estimates_omitted``) so a
#: single n=10^8 cell cannot bloat the store
MAX_ENVELOPE_ESTIMATES = 65536


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work."""

    experiment: str
    params: Mapping[str, Any]
    param_hash: str
    seed: int
    rep: int
    #: canonical serialised RunSpec when this cell is a protocol-spec cell
    #: (``drr-gossip sweep --spec``); None for registered-experiment cells.
    run_spec: str | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.experiment, self.param_hash, self.seed)

    def spec_json(self) -> str:
        """The cell's transport form: one self-contained serialised spec."""
        if self.run_spec is not None:
            return self.run_spec
        return cell_spec_json(self.experiment, self.params, self.seed)

    def describe(self) -> str:
        binding = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.experiment}({binding}) seed={self.seed}"


@dataclass(frozen=True)
class CellOutcome:
    """What happened to one cell.

    ``cached`` marks a duplicate of an executed cell (identical
    serialised spec) whose result was fanned out instead of recomputed;
    ``skipped`` marks a cell whose result predates this invocation.
    """

    cell: SweepCell
    status: str  # 'ok' | 'failed' | 'skipped' | 'cached'
    duration_s: float = 0.0
    error: str | None = None


@dataclass
class SweepReport:
    """Aggregate outcome of one :meth:`SweepRunner.run` invocation."""

    sweep: str
    outcomes: list[CellOutcome] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def executed(self) -> int:
        return self.count("ok")

    @property
    def failed(self) -> int:
        return self.count("failed")

    @property
    def skipped(self) -> int:
        return self.count("skipped")

    @property
    def cached(self) -> int:
        return self.count("cached")

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def wall_time_s(self) -> float:
        return sum(o.duration_s for o in self.outcomes)

    def summary(self) -> str:
        extra = f", {self.cached} cached" if self.cached else ""
        return (
            f"sweep {self.sweep!r}: {self.total} cells — "
            f"{self.executed} executed, {self.skipped} skipped, {self.failed} failed{extra} "
            f"({self.wall_time_s:.1f}s cell time)"
        )


def expand_cells(definition: SweepDefinition) -> list[SweepCell]:
    """Expand a sweep definition into its full, deterministic cell list.

    Cell seeds depend only on (master seed, experiment, param hash, rep), so
    adding an experiment to a sweep file never changes the seeds — and hence
    the stored results — of the existing ones.
    """
    registry = load_builtin_experiments()
    stream = RngStream(definition.seed)
    cells: list[SweepCell] = []
    for plan in definition.plans:
        spec = registry.get(plan.experiment)
        reps = definition.repetitions_for(plan)
        for params in spec.expand_grid(plan.grid):
            # Pin the execution backend into every cell of a backend-aware
            # experiment so stored rows are never ambiguous about which
            # substrate kernel produced them (even when the sweep relied on
            # the default).
            if "backend" in spec.param_names and "backend" not in params:
                params = {**params, "backend": spec.param("backend").default}
            digest = param_hash(params)
            seeds = stream.seeds(reps, plan.experiment, digest)
            for rep, seed in enumerate(seeds):
                cells.append(
                    SweepCell(
                        experiment=plan.experiment,
                        params=params,
                        param_hash=digest,
                        seed=int(seed),
                        rep=rep,
                    )
                )
    return cells


def cells_from_run_specs(specs: Sequence, repetitions: int = 1) -> list[SweepCell]:
    """Expand protocol :class:`~repro.api.RunSpec` values into sweep cells.

    Each spec is one cell under the experiment name ``run:<protocol>``; with
    ``repetitions > 1`` the extra cells get deterministic seeds derived from
    the spec's own seed, so a spec file plus a repetition count expands the
    same way on every host.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    cells: list[SweepCell] = []
    for spec in specs:
        for rep in range(repetitions):
            cell_spec = spec if rep == 0 else spec.with_seed(derive_seed(spec.seed, "spec-rep", rep))
            # The telemetry toggle is excluded alongside the seed: the cell's
            # param_hash pops it, and the store re-digests these params as the
            # row identity — keeping them aligned is what makes a telemetry
            # re-run resume (skip) instead of duplicating every cell.
            params = {
                k: v for k, v in cell_spec.to_dict().items() if k not in ("seed", "telemetry")
            }
            cells.append(
                SweepCell(
                    experiment=f"run:{spec.protocol}",
                    params=params,
                    param_hash=cell_spec.param_hash(),
                    seed=cell_spec.seed,
                    rep=rep,
                    run_spec=cell_spec.canonical_json(),
                )
            )
    return cells


def _execute_cell(spec_json: str) -> dict[str, Any]:
    """Run one serialised cell; never raises (crashes become a failure payload).

    The single string argument is the whole contract between the queue and
    a drain: a ``{"protocol": ...}`` document dispatches through
    :func:`repro.run`, a ``{"experiment": ...}`` document resolves the
    registered driver by name (parameters re-validated through the registry
    schema, which restores tuples/enums the JSON transport flattened).  The
    run's telemetry document and RunResult envelope come back already
    encoded (``telemetry_json``/``result_json``), ready for the store.
    """
    start = time.perf_counter()
    try:
        payload = json.loads(spec_json)
        telemetry_doc = None
        envelope_doc = None
        if "protocol" in payload:
            from ..api import RunSpec
            from ..api import run as run_spec_fn

            envelope = run_spec_fn(RunSpec.from_dict(payload))
            result = envelope.to_experiment_result()
            telemetry_doc = envelope.telemetry
            # The full RunResult document is carried back alongside the
            # store-row projection so it can be persisted verbatim: a
            # content-addressed cache hit can then be replayed whole.
            envelope_doc = envelope.to_dict()
            estimates = envelope_doc.get("estimates")
            if estimates is not None and len(estimates) > MAX_ENVELOPE_ESTIMATES:
                envelope_doc["estimates"] = None
                envelope_doc["estimates_omitted"] = len(estimates)
        else:
            spec = load_builtin_experiments().get(payload["experiment"])
            params = spec.validate_params(payload.get("params", {}))
            result = spec.driver(seed=int(payload["seed"]), **params)
        out = {"ok": True, "result": result, "duration_s": time.perf_counter() - start}
        if telemetry_doc is not None:
            out["telemetry_json"] = json.dumps(telemetry_doc, sort_keys=True)
        if envelope_doc is not None:
            out["result_json"] = json.dumps(envelope_doc, sort_keys=True)
        return out
    except Exception:  # KeyboardInterrupt/SystemExit propagate: a sweep must stay interruptible
        return {
            "ok": False,
            "error": traceback.format_exc(),
            "duration_s": time.perf_counter() - start,
        }


class SweepRunner:
    """Run a sweep's cells through the store's work queue and report every outcome.

    :meth:`run_cells` skips cells the store already completed, collapses
    content-identical twins, enqueues the rest, and drains the queue: in
    this process with ``jobs == 1``, otherwise in ``jobs`` drains forked
    from it, each on its own store connection.  The parent emits each
    cell's outcome as its row lands, and when a drain dies it hands that
    drain's claims back to the queue and forks a replacement, so a cell
    that keeps killing its drain ends as a ``gave up`` failure once its
    attempt budget is spent.  Another sweep on the same store drains the
    same queue alongside.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        jobs: int = 1,
        skip_completed: bool = True,
        progress: Callable[[CellOutcome, int, int], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.jobs = jobs
        self.skip_completed = skip_completed
        self.progress = progress
        #: duplicate cells (identical serialised spec) keyed by the spec of
        #: their executed representative; rebuilt on every enqueue call
        self._dupes: dict[str, list[SweepCell]] = {}

    def run(self, definition: SweepDefinition) -> SweepReport:
        return self.run_cells(expand_cells(definition), name=definition.name)

    def run_cells(self, cells: Sequence[SweepCell], name: str = "cells") -> SweepReport:
        """Execute an explicit cell list (sweep definitions and spec files both land here)."""
        if self.jobs > 1 and str(self.store.path) == ":memory:":
            raise ValueError(
                "jobs > 1 forks queue drains that open the store by path, so it "
                "needs a file-backed store, not ':memory:'"
            )
        report, todo = self.enqueue(cells, name)
        for index, outcome in enumerate(report.outcomes, start=1):
            self._emit(outcome, index, len(cells))
        if todo:
            self._drain(report, todo, len(cells))
        return report

    def enqueue(
        self, cells: Sequence[SweepCell], name: str = "cells"
    ) -> tuple[SweepReport, list[SweepCell]]:
        """Plan a sweep and put it in the queue, without executing anything.

        Cells the store already completed become ``skipped`` outcomes of
        the returned report; of the rest, one representative per distinct
        serialised spec is enqueued (its twins get its result; rows already
        in flight stay as they are).  Returns the report and the
        representatives.
        """
        report = SweepReport(sweep=name)
        done_keys = self.store.completed_cells() if self.skip_completed else set()
        todo: list[SweepCell] = []
        self._dupes = {}
        for cell in cells:
            if cell.key in done_keys:
                report.outcomes.append(CellOutcome(cell=cell, status="skipped"))
                continue
            # Content-addressed dedup: identical serialised specs collapse
            # onto one execution; the twins get the result fanned out.
            spec = cell.spec_json()
            if spec in self._dupes:
                self._dupes[spec].append(cell)
            else:
                self._dupes[spec] = []
                todo.append(cell)
        self.store.enqueue_cells(
            (cell.experiment, cell.param_hash, cell.seed, cell.spec_json()) for cell in todo
        )
        return report, todo

    def _worker(self, store: ResultStore, progress: Callable, worker_id: str | None = None):
        from .worker import QueueWorker  # local import: worker imports this module

        return QueueWorker(
            store,
            worker_id=worker_id,
            max_attempts=DEFAULT_MAX_ATTEMPTS,
            skip_completed=self.skip_completed,
            progress=progress,
        )

    def _drain(self, report: SweepReport, todo: Sequence[SweepCell], total: int) -> None:
        """Drain the queue, recording each of ``todo``'s outcomes as its row lands."""
        # keyed like the queue rows; cells differing only in their telemetry
        # toggle share one key, hence one row
        waiting: dict[tuple[str, str, int], list[SweepCell]] = {}
        for cell in todo:
            waiting.setdefault(cell.key, []).append(cell)

        def landed(claim: QueuedCell, status: str, duration_s: float) -> None:
            for cell in waiting.pop(claim.key, ()):  # drains also run other submitters' cells
                self._record(report, cell, status, duration_s, total)

        if self.jobs == 1:
            self._worker(self.store, landed).drain()
        else:
            self._drain_forked(min(self.jobs, len(todo)), landed)
        # What is left ran in another sweep's drains, or nowhere.
        for cell in itertools.chain.from_iterable(waiting.values()):
            self._record(report, cell, None, 0.0, total)

    def _drain_forked(self, count: int, landed: Callable[[QueuedCell, str, float], None]) -> None:
        """Fork ``count`` drains and supervise them until every one has exited.

        Each drain reports its claims' outcomes to ``landed`` through its
        own pipe.  A drain that exits non-zero died mid-sweep: its claims
        go back to pending at once and its owner lock file is removed, and
        if it held any claim — the cell it ran may be what killed it — a
        replacement is forked; the attempt budget bounds how often that can
        happen.
        """
        from .worker import default_worker_id, signal_shutdown

        # Load driver registrations before forking so every drain inherits them.
        load_builtin_experiments()
        context = multiprocessing.get_context("fork")
        drains: dict[Connection, tuple[multiprocessing.process.BaseProcess, str]] = {}
        indices = itertools.count()

        def run_drain(worker_id: str, events: Connection) -> None:
            with ResultStore(self.store.path) as store, signal_shutdown():
                self._worker(store, lambda *event: events.send(event), worker_id).drain()

        def fork() -> None:
            worker_id = f"{default_worker_id()}:drain{next(indices)}"
            reader, writer = context.Pipe(duplex=False)
            process = context.Process(target=run_drain, args=(worker_id, writer), daemon=True)
            process.start()
            writer.close()
            drains[reader] = (process, worker_id)

        for _ in range(count):
            fork()
        try:
            while drains:
                for reader in wait(list(drains)):
                    try:
                        landed(*reader.recv())
                        continue
                    except EOFError:  # the drain exited
                        process, worker_id = drains.pop(reader)
                    reader.close()
                    process.join()
                    if process.exitcode != 0:
                        released = self.store.release_claims(worker_id)
                        self.store.release_owner(worker_id)
                        _logger.warning(
                            "queue drain %s died (exit code %s) holding %d claim(s)",
                            worker_id, process.exitcode, len(released),
                        )
                        if released:
                            fork()
        finally:
            # Interrupted: stop the drains; each hands its claim back.
            for process, _ in drains.values():
                process.terminate()
            for reader, (process, _) in drains.items():
                process.join()
                reader.close()

    def _record(
        self, report: SweepReport, cell: SweepCell, status: str | None, duration_s: float, total: int
    ) -> None:
        """Append ``cell``'s outcome (and its twins') to the report and emit it.

        ``status`` is what the drain reported for the claim; anything but
        ``ok`` (and a cell no drain of this runner reported) is read back
        from the row that landed in the store.
        """
        if status == "ok":
            outcome = CellOutcome(cell=cell, status="ok", duration_s=duration_s)
        else:
            run = self.store.get_by_spec_hash(cell_spec_hash(cell.spec_json()))
            if run is None:
                outcome = CellOutcome(
                    cell=cell, status="failed",
                    error="cell never executed: the queue drain ended without a stored "
                    "result (all drains died?); re-run the sweep to retry it",
                )
            elif run.ok:
                outcome = CellOutcome(cell=cell, status="ok", duration_s=run.duration_s or 0.0)
            else:
                outcome = CellOutcome(
                    cell=cell, status="failed", duration_s=run.duration_s or 0.0,
                    error=run.error or "unknown failure",
                )
        report.outcomes.append(outcome)
        self._emit(outcome, len(report.outcomes), total)
        # Fan the executed result out to content-identical duplicates: same
        # spec string means same store row, so nothing else is recorded.
        for twin in self._dupes.get(cell.spec_json(), ()):
            if outcome.status == "ok":
                twin_outcome = CellOutcome(cell=twin, status="cached")
            else:
                twin_outcome = CellOutcome(cell=twin, status="failed", error=outcome.error)
            report.outcomes.append(twin_outcome)
            self._emit(twin_outcome, len(report.outcomes), total)

    def _emit(self, outcome: CellOutcome, index: int, total: int) -> None:
        if self.progress is not None:
            self.progress(outcome, index, total)


def print_progress(outcome: CellOutcome, index: int, total: int) -> None:
    """Default progress reporter: one line per finished/skipped cell."""
    suffixes = {"skipped": "already in store", "cached": "deduplicated"}
    suffix = suffixes.get(outcome.status, f"{outcome.duration_s:.2f}s")
    print(f"[{index}/{total}] {outcome.status:<7} {outcome.cell.describe()} ({suffix})", flush=True)
