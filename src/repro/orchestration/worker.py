"""Pull-based queue worker: claim cells from a shared store, run, write back.

A sweep (or ``drr-gossip sweep --enqueue-only``) fills the store's queue
table with pending cells, and :class:`QueueWorker` loops drain it: the
sweep runner's own drains, and any number of ``drr-gossip worker``
processes on hosts that share the store.  Each iteration:

1. **claim** the oldest pending cell atomically (exactly one worker wins),
   which starts the lease of its queue row;
2. **cache check**: if the cell's result is already in the store
   (a re-submitted identical spec), finish it without executing;
3. **execute** the cell's serialised spec via the runner's
   ``_execute_cell``, while the drain's lease thread renews the claim
   every ``lease_s / LEASE_RENEWALS`` seconds so long cells keep it;
4. **write back** the result/failure row, which moves the queue row to its
   terminal state in the same transaction.

Only when a claim comes back empty does the loop look further: it
reclaims stale claims (a dead worker's lease expired) back to pending,
marks cells that exhausted their attempt budget as failed, and exits once
the queue is drained — no pending *and* no claimed rows — or, with
``linger_s``, after the queue has stayed drained that long (so operators
can start workers before submitting work).  An interrupt anywhere in the
loop hands this worker's claims back to pending.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

from ..observability.logs import get_logger
from ..observability.telemetry import NULL_TELEMETRY, NullTelemetry
from . import runner
from .store import (
    DEFAULT_LEASE_S,
    DEFAULT_MAX_ATTEMPTS,
    LEASE_RENEWALS,
    QueuedCell,
    ResultStore,
    cell_spec_hash,
)

_logger = get_logger("orchestration.worker")

__all__ = [
    "BACKOFF_CAP_FACTOR",
    "QueueWorker",
    "WorkerReport",
    "WorkerShutdown",
    "default_worker_id",
    "print_worker_progress",
    "row_identity",
    "signal_shutdown",
]

#: idle backoff ceiling as a multiple of ``poll_interval_s``
BACKOFF_CAP_FACTOR = 8.0

#: how soon a shutdown is raised again while the drain has not caught it
SHUTDOWN_REDELIVERY_S = 0.5


def default_worker_id() -> str:
    """``host:pid`` — unique across the hosts sharing a store."""
    return f"{socket.gethostname()}:{os.getpid()}"


class WorkerShutdown(BaseException):
    """Raised inside the drain loop when the process is told to stop.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``) so it
    sails through the worker's per-cell ``except Exception`` error
    handling and lands in the claim-requeue path: the in-flight cell goes
    back to ``pending`` with no owner, and another worker can pick it up
    immediately instead of waiting out the lease.
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

    Installed by the ``drr-gossip worker`` CLI and by the sweep runner's
    forked drains around :meth:`QueueWorker.drain`, so a terminated worker
    releases its claim instead of dying mid-cell.  Only the main thread of
    a process may install signal handlers, so library callers that embed
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
    built the spec string, so a worker's result rows land on the rows
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
    #: stale claims returned to pending by this worker's reclaim passes
    reclaimed: int = 0
    #: cells marked failed because their attempt budget ran out
    exhausted: int = 0
    wall_s: float = 0.0
    #: name of the signal that stopped the drain early (graceful
    #: shutdown); None when the loop ran to a natural drain
    stopped: str | None = None

    @property
    def cells(self) -> int:
        return self.executed + self.failed + self.cached

    def summary(self) -> str:
        extra = f", {self.exhausted} gave up" if self.exhausted else ""
        if self.stopped:
            extra += f", stopped by {self.stopped}"
        return (
            f"worker {self.worker}: {self.executed} executed, {self.failed} failed, "
            f"{self.cached} cached{extra} ({self.wall_s:.1f}s)"
        )


class _LeaseHeartbeat:
    """Daemon thread renewing the lease of whichever claim its drain holds.

    One thread per drain: the drain sets :attr:`key` when it claims a cell
    and clears it when the claim ends, and every ``lease_s /
    LEASE_RENEWALS`` seconds the thread renews the current claim on its own
    connection (SQLite connections are not shared across threads).  A
    renewal only refreshes a row its worker still holds, so one that races
    the end of its claim cannot bring the claim back.  In-memory stores get
    no thread — a second connection would see a different database — which
    is fine: they cannot be shared across processes anyway.
    """

    def __init__(self, store_path: str, worker: str, lease_s: float) -> None:
        #: the claim to keep alive; None between claims
        self.key: tuple[str, str, int] | None = None
        self._path = store_path
        self._worker = worker
        self._interval = float(lease_s) / LEASE_RENEWALS
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        store = ResultStore(self._path)
        try:
            while not self._stop.wait(self._interval):
                key = self.key
                if key is not None:
                    store.mark_heartbeat(key, self._worker)
        finally:
            store.close()

    def __enter__(self) -> "_LeaseHeartbeat":
        if self._path != ":memory:":
            self._thread = threading.Thread(
                target=self._run, name="repro-lease-heartbeat", daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self._interval + 5.0)
            self._thread = None


class QueueWorker:
    """Drain a store's work queue: claim, execute, write back, repeat."""

    def __init__(
        self,
        store: ResultStore,
        *,
        worker_id: str | None = None,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        poll_interval_s: float = 0.5,
        linger_s: float = 0.0,
        max_cells: int | None = None,
        skip_completed: bool = True,
        telemetry: NullTelemetry | None = None,
        progress: Callable[[QueuedCell, str, float], None] | None = None,
    ) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if poll_interval_s <= 0:
            raise ValueError(f"poll_interval_s must be positive, got {poll_interval_s}")
        if linger_s < 0:
            raise ValueError(f"linger_s must be >= 0, got {linger_s}")
        if max_cells is not None and max_cells < 1:
            raise ValueError(f"max_cells must be >= 1, got {max_cells}")
        self.store = store
        self.worker_id = worker_id if worker_id is not None else default_worker_id()
        self.lease_s = float(lease_s)
        self.max_attempts = int(max_attempts)
        self.poll_interval_s = float(poll_interval_s)
        self.linger_s = float(linger_s)
        self.max_cells = max_cells
        self.skip_completed = skip_completed
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.progress = progress
        # Idle-poll jitter only — never touches run reproducibility, which
        # is carried entirely by the specs' own seeds.
        self._jitter = random.Random()

    def idle_backoff_s(self, empty_polls: int) -> float:
        """Sleep duration after the ``empty_polls``-th consecutive empty poll.

        Exponential with full jitter: the target doubles from
        ``poll_interval_s`` up to ``BACKOFF_CAP_FACTOR`` times it, and the
        actual sleep is drawn uniformly from ``[target / 2, target]`` so a
        fleet of idle workers sharing one store spreads its polls out
        instead of hammering the SQLite file in lockstep.  A successful
        claim resets the ladder to the base interval.
        """
        cap = self.poll_interval_s * BACKOFF_CAP_FACTOR
        target = min(self.poll_interval_s * (2.0 ** max(0, empty_polls)), cap)
        return target * (0.5 + 0.5 * self._jitter.random())

    def drain(self) -> WorkerReport:
        """Work the queue until it drains (plus ``linger_s``); returns the tally.

        Any exception that escapes the loop first hands this worker's
        claims back to pending, wherever it struck, from the claim's commit
        to its write-back.  A :class:`WorkerShutdown` (SIGTERM/SIGINT under
        :func:`signal_shutdown`) then ends the drain gracefully: the report
        comes back with ``stopped`` set instead of the exception
        propagating.
        """
        report = WorkerReport(worker=self.worker_id)
        start = time.perf_counter()
        try:
            with _LeaseHeartbeat(str(self.store.path), self.worker_id, self.lease_s) as lease:
                self._drain(report, lease)
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
        report.wall_s = time.perf_counter() - start
        _logger.info("%s", report.summary())
        return report

    def _drain(self, report: WorkerReport, lease: _LeaseHeartbeat) -> None:
        telemetry = self.telemetry
        drained_since: float | None = None
        empty_polls = 0
        while self.max_cells is None or report.cells < self.max_cells:
            with telemetry.span("worker.claim"):
                claim = self.store.claim_cell(self.worker_id, self.max_attempts)
            if claim is not None:
                drained_since = None
                empty_polls = 0
                lease.key = claim.key
                self._run_claim(claim, report)
                lease.key = None
                continue
            report.reclaimed += len(self.store.reclaim_stale(self.lease_s))
            for cell in self.store.fail_exhausted(self.max_attempts):
                self._record_exhausted(cell, report)
            depth = self.store.queue_depth()
            telemetry.gauge_max("queue.pending", depth["pending"])
            telemetry.gauge_max("queue.claimed", depth["claimed"])
            if depth["pending"]:
                continue  # reclaimed or newly enqueued cells: claim them now
            # Nothing pending.  Claimed rows owned by others may still fail
            # and come back via reclaim, so wait on those; a fully drained
            # queue ends the loop once any linger grace is up.
            if depth["claimed"] == 0:
                now = time.perf_counter()
                if drained_since is None:
                    drained_since = now
                if now - drained_since >= self.linger_s:
                    return
            time.sleep(self.idle_backoff_s(empty_polls))
            empty_polls += 1

    def _record_exhausted(self, cell: QueuedCell, report: WorkerReport) -> None:
        experiment, params, seed = row_identity(cell.spec_json)
        error = (
            f"gave up after {cell.attempt} claim(s) without a recorded result "
            f"(max_attempts={self.max_attempts}; the cell likely kills its worker)"
        )
        self.store.record_failure(experiment, params, seed, error, spec_json=cell.spec_json)
        report.exhausted += 1
        self._emit(cell, "exhausted", 0.0)

    def _run_claim(self, claim: QueuedCell, report: WorkerReport) -> None:
        telemetry = self.telemetry
        if self.skip_completed:
            spec_hash = claim.spec_hash or cell_spec_hash(claim.spec_json)
            cached = self.store.get_by_spec_hash(spec_hash)
            if cached is not None and cached.ok:
                # Content-addressed dedup: an identical spec was already
                # computed (this sweep or an earlier one) — serve the cached
                # result instead of burning the cycles again.
                self.store.finish_cell(claim.key, "done")
                telemetry.count("worker.cached")
                report.cached += 1
                self._emit(claim, "cached", 0.0)
                return
        with telemetry.span("worker.execute"):
            # looked up at call time, so a patched runner._execute_cell runs
            payload = runner._execute_cell(claim.spec_json)
        self._write_back(claim, payload, report)

    def _write_back(self, claim: QueuedCell, payload: Mapping[str, Any], report: WorkerReport) -> None:
        """Record the cell's row; the same transaction ends its claim."""
        experiment, params, seed = row_identity(claim.spec_json)
        duration = float(payload.get("duration_s", 0.0))
        with self.telemetry.span("worker.write"):
            if payload["ok"]:
                self.store.record_result(
                    experiment, params, seed, payload["result"], duration,
                    spec_json=claim.spec_json,
                    telemetry_json=payload.get("telemetry_json"),
                    result_json=payload.get("result_json"),
                )
            else:
                _logger.warning(
                    "cell %s (hash=%s seed=%d) failed:\n%s",
                    experiment, claim.param_hash[:12], seed, payload["error"],
                )
                self.store.record_failure(
                    experiment, params, seed, payload["error"], duration,
                    spec_json=claim.spec_json,
                )
        self.telemetry.count("worker.cells")
        if payload["ok"]:
            report.executed += 1
            self._emit(claim, "ok", duration)
        else:
            report.failed += 1
            self._emit(claim, "failed", duration)

    def _emit(self, cell: QueuedCell, status: str, duration_s: float) -> None:
        if self.progress is not None:
            self.progress(cell, status, duration_s)


def print_worker_progress(cell: QueuedCell, status: str, duration_s: float) -> None:
    """Default per-claim progress line for the ``drr-gossip worker`` CLI."""
    suffix = "cached" if status == "cached" else f"{duration_s:.2f}s"
    print(
        f"{status:<9} {cell.experiment} hash={cell.param_hash[:12]} "
        f"seed={cell.seed} attempt={cell.attempt} ({suffix})",
        flush=True,
    )
