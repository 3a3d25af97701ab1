"""The queue drain: claim cells from the store's work queue, run, write back.

A sweep fills the store's queue table with pending cells, and
:class:`QueueWorker` loops drain it: one in the sweep's own process with
``--jobs 1``, or ``--jobs`` drains forked from it.  A drain first takes its
owner lock (:meth:`~repro.orchestration.store.ResultStore.mark_heartbeat`),
which it holds until it exits, and then on each iteration:

1. **claims** the oldest pending cell atomically (exactly one drain wins);
2. **checks the cache**: if the cell's result is already in the store
   (a re-submitted identical spec), finishes it without executing;
3. **executes** the cell's serialised spec via the runner's
   ``_execute_cell``;
4. **writes back** the result/failure row, which moves the queue row to its
   terminal state in the same transaction.

Only when a claim comes back empty does the loop look further: it
reclaims orphaned claims (their owner's lock is free: that drain died)
back to pending, marks cells that exhausted their attempt budget as
failed, and exits once the queue is drained — no pending *and* no
claimed rows.  While other drains still hold claims it polls every
``DRAIN_POLL_S``.  An interrupt anywhere in the loop hands this drain's
claims back to pending.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..observability.logs import get_logger
from . import runner
from .store import DEFAULT_MAX_ATTEMPTS, QueuedCell, ResultStore, cell_spec_hash

_logger = get_logger("orchestration.worker")

__all__ = [
    "QueueWorker",
    "WorkerReport",
    "WorkerShutdown",
    "default_worker_id",
    "row_identity",
    "signal_shutdown",
]

#: idle poll of a drain that has run out of pending cells while other
#: drains still hold claims: it ends soon after their last row lands
DRAIN_POLL_S = 0.02

#: how soon a shutdown is raised again while the drain has not caught it
SHUTDOWN_REDELIVERY_S = 0.5


def default_worker_id() -> str:
    """``pid<N>``: the claim owner name of this process's drain."""
    return f"pid{os.getpid()}"


class WorkerShutdown(BaseException):
    """Raised inside the drain loop when the process is told to stop.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``) so it
    sails through the worker's per-cell ``except Exception`` error
    handling and lands in the claim-requeue path: the in-flight cell goes
    back to ``pending`` with no owner, and any drain can claim it again
    at once.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = int(signum)
        #: set by the code that catches the shutdown; ends its re-delivery
        self.caught = False

    @property
    def signal_name(self) -> str:
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            return f"signal {self.signum}"


@contextlib.contextmanager
def signal_shutdown(signals: tuple[int, ...] = (signal.SIGTERM, signal.SIGINT)) -> Iterator[None]:
    """Convert SIGTERM/SIGINT into :class:`WorkerShutdown` while active.

    Installed by the sweep runner's forked drains around
    :meth:`QueueWorker.drain`, so a terminated drain releases its claim
    instead of dying mid-cell.  Only the main thread of a process may
    install signal handlers, so library callers that embed
    :class:`QueueWorker` elsewhere simply don't use this.

    An exception raised from a signal handler can vanish: C code that is
    running a Python callback when the handler fires may clear it, and the
    cell then runs on.  So every raise arms a ``SIGALRM`` that raises the
    shutdown again after ``SHUTDOWN_REDELIVERY_S``, until it is marked
    ``caught`` (:meth:`QueueWorker.drain` does that before releasing its
    claim) or the block ends.  The block owns ``SIGALRM`` while active.
    """
    raised: list[WorkerShutdown] = []

    def raise_shutdown(signum: int, frame: object) -> None:
        if not raised:
            raised.append(WorkerShutdown(signum))
        shutdown = raised[0]
        # a re-delivery is moot once the shutdown is caught or being handled
        if shutdown.caught or sys.exc_info()[1] is shutdown:
            return
        signal.setitimer(signal.ITIMER_REAL, SHUTDOWN_REDELIVERY_S)
        raise shutdown

    previous = {s: signal.signal(s, raise_shutdown) for s in (*signals, signal.SIGALRM)}
    try:
        yield
    finally:
        if raised:
            signal.setitimer(signal.ITIMER_REAL, 0)
        for s, handler in previous.items():
            signal.signal(s, handler)


def row_identity(spec_json: str) -> tuple[str, dict[str, Any], int]:
    """Decode a cell's transport form into its store-row identity.

    Returns ``(experiment, params, seed)`` such that
    ``param_hash(params)`` reproduces the hash the cell was queued under
    — the exact inverse of how ``SweepCell``/``cells_from_run_specs``
    built the spec string, so a drain's result rows land on the rows
    the sweep's cells are keyed by (an upsert, never a duplicate).
    """
    payload = json.loads(spec_json)
    if "protocol" in payload:
        params = {k: v for k, v in payload.items() if k not in ("seed", "telemetry")}
        return f"run:{payload['protocol']}", params, int(payload["seed"])
    return str(payload["experiment"]), dict(payload.get("params", {})), int(payload["seed"])


@dataclass
class WorkerReport:
    """What one drain loop did: cells executed/failed/served from cache."""

    worker: str
    executed: int = 0
    failed: int = 0
    #: claims finished from an already-stored result without executing
    cached: int = 0
    #: orphaned claims returned to pending by this drain's reclaim passes
    reclaimed: int = 0
    #: cells marked failed because their attempt budget ran out
    exhausted: int = 0
    wall_s: float = 0.0
    #: name of the signal that stopped the drain early (graceful
    #: shutdown); None when the loop ran to a natural drain
    stopped: str | None = None

    def summary(self) -> str:
        extra = f", {self.exhausted} gave up" if self.exhausted else ""
        if self.stopped:
            extra += f", stopped by {self.stopped}"
        return (
            f"worker {self.worker}: {self.executed} executed, {self.failed} failed, "
            f"{self.cached} cached{extra} ({self.wall_s:.1f}s)"
        )


class QueueWorker:
    """Drain a store's work queue: claim, execute, write back, repeat."""

    def __init__(
        self,
        store: ResultStore,
        *,
        worker_id: str | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        skip_completed: bool = True,
        progress: Callable[[QueuedCell, str, float], None] | None = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.max_attempts = int(max_attempts)
        self.skip_completed = skip_completed
        self.progress = progress

    def drain(self) -> WorkerReport:
        """Work the queue until it drains; returns the tally.

        The drain holds its owner lock from before its first claim until it
        returns, and then removes the lock file.  Any exception that escapes
        the loop first hands this drain's claims back to pending, wherever
        it struck, from the claim's commit to its write-back.  A
        :class:`WorkerShutdown` (SIGTERM/SIGINT under
        :func:`signal_shutdown`) then ends the drain gracefully: the report
        comes back with ``stopped`` set instead of the exception
        propagating.
        """
        report = WorkerReport(worker=self.worker_id)
        start = time.perf_counter()
        lock = self.store.mark_heartbeat(self.worker_id)
        try:
            self._drain(report)
        except BaseException as exc:
            if isinstance(exc, WorkerShutdown):
                exc.caught = True
            self.store.release_claims(self.worker_id)
            if not isinstance(exc, WorkerShutdown):
                raise
            report.stopped = exc.signal_name
            _logger.info(
                "worker %s: %s received, claim released, stopping",
                self.worker_id, exc.signal_name,
            )
        finally:
            self.store.release_owner(self.worker_id, lock)
        report.wall_s = time.perf_counter() - start
        _logger.info("%s", report.summary())
        return report

    def _drain(self, report: WorkerReport) -> None:
        while True:
            claim = self.store.claim_cell(self.worker_id, self.max_attempts)
            if claim is not None:
                self._run_claim(claim, report)
                continue
            report.reclaimed += len(self.store.reclaim_orphans())
            depth = self.store.queue_depth()
            if depth["pending"]:
                # reclaimed or newly enqueued cells, or cells out of budget
                for cell in self.store.fail_exhausted(self.max_attempts):
                    self._record_exhausted(cell, report)
                continue
            if depth["claimed"] == 0:
                return
            # Other drains hold the last claims; they may still die and
            # leave them orphaned, so wait on them.
            time.sleep(DRAIN_POLL_S)

    def _record_exhausted(self, cell: QueuedCell, report: WorkerReport) -> None:
        experiment, params, seed = row_identity(cell.spec_json)
        error = (
            f"gave up after {cell.attempt} claim(s) without a recorded result "
            f"(max_attempts={self.max_attempts}; the cell likely kills its drain)"
        )
        self.store.record_failure(experiment, params, seed, error, spec_json=cell.spec_json)
        report.exhausted += 1
        self._emit(cell, "exhausted", 0.0)

    def _run_claim(self, claim: QueuedCell, report: WorkerReport) -> None:
        if self.skip_completed:
            spec_hash = claim.spec_hash or cell_spec_hash(claim.spec_json)
            cached = self.store.get_by_spec_hash(spec_hash)
            if cached is not None and cached.ok:
                # Content-addressed dedup: an identical spec was already
                # computed (this sweep or an earlier one) — serve the cached
                # result instead of burning the cycles again.
                self.store.finish_cell(claim.key, "done")
                report.cached += 1
                self._emit(claim, "cached", 0.0)
                return
        # looked up at call time, so a patched runner._execute_cell runs
        payload = runner._execute_cell(claim.spec_json)
        self._write_back(claim, payload, report)

    def _write_back(self, claim: QueuedCell, payload: Mapping[str, Any], report: WorkerReport) -> None:
        """Record the cell's row; the same transaction ends its claim."""
        experiment, params, seed = row_identity(claim.spec_json)
        duration = float(payload.get("duration_s", 0.0))
        if payload["ok"]:
            self.store.record_result(
                experiment, params, seed, payload["result"], duration,
                spec_json=claim.spec_json,
                telemetry_json=payload.get("telemetry_json"),
                result_json=payload.get("result_json"),
            )
            report.executed += 1
            self._emit(claim, "ok", duration)
        else:
            _logger.warning(
                "cell %s (hash=%s seed=%d) failed:\n%s",
                experiment, claim.param_hash[:12], seed, payload["error"],
            )
            self.store.record_failure(
                experiment, params, seed, payload["error"], duration,
                spec_json=claim.spec_json,
            )
            report.failed += 1
            self._emit(claim, "failed", duration)

    def _emit(self, cell: QueuedCell, status: str, duration_s: float) -> None:
        if self.progress is not None:
            self.progress(cell, status, duration_s)

