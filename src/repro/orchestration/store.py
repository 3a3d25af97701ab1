"""SQLite-backed persistence for experiment results, and the sweep work queue.

Every sweep cell — one ``(experiment, canonical parameter hash, seed)``
triple — maps to exactly one row.  Rows, headers, and metadata of the
:class:`~repro.harness.experiments.ExperimentResult` are stored as JSON so
the store needs no schema migration when a driver adds a column; the
UNIQUE key gives the sweep runner its skip-completed resume semantics and
makes re-running a crashed cell an upsert rather than a duplicate.

The store is written concurrently by the queue drains of every sweep
running on it, each on its own connection.  WAL mode plus a configurable
``busy_timeout`` make concurrent writers queue instead of crash, every
write retries on ``SQLITE_BUSY``, and the work-queue claim
(:meth:`ResultStore.claim_cell`) takes the write lock up front with
``BEGIN IMMEDIATE`` so a pending row is handed to exactly one claimant.

Queue lifecycle
---------------
Every queued cell is one row keyed by ``(experiment, param_hash, seed)``
— the same identity the result rows use — and moves through::

    pending --claim--> claimed --record--> done | failed
       ^                  |
       +--reclaim(orphan)-+          (attempt += 1 on every claim)

* **claim** is atomic: exactly one drain wins a pending row and stamps
  its ``owner`` and ``claim_time``.
* **claimed** rows are the only record of a claim.  Its owner is live
  while it holds its *owner lock*: an ``fcntl.flock`` on
  ``<store>.owners/<owner>.lock``, which a drain takes
  (:meth:`ResultStore.mark_heartbeat`) before its first claim and holds
  until it exits.  The kernel drops the lock when the process dies, even
  on SIGKILL, so a claim is *orphaned* exactly when its owner's lock can
  be taken, and :meth:`ResultStore.reclaim_orphans` puts it back to
  pending at once.  A ``:memory:`` store takes no lock: no other process
  can open it.
* **record**: a cell's result or failure row and its queue row's
  terminal state commit in one transaction.
* **fail_exhausted** stops a poison cell that keeps killing its drains:
  once a pending row has been claimed ``max_attempts`` times without a
  recorded result, it is marked failed instead of looping forever.
"""

from __future__ import annotations

import fcntl
import json
import os
import sqlite3
import time
import warnings
from dataclasses import dataclass, fields, replace as dataclass_replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..observability.logs import get_logger
from ..serialization import canonical_json, canonical_value, stable_digest
from ..substrate import DEFAULT_BACKEND

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "QUEUE_STATES",
    "QueuedCell",
    "ResultStore",
    "StoredRun",
    "canonical_params",
    "param_hash",
    "cell_spec_json",
    "cell_spec_hash",
]

#: default time a writer waits for a competing writer's transaction
DEFAULT_BUSY_TIMEOUT_S = 30.0

#: write retries layered on top of the busy timeout (each full wait)
_BUSY_RETRIES = 5

_logger = get_logger("orchestration.store")

#: the four states a queue row moves through
QUEUE_STATES = ("pending", "claimed", "done", "failed")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id             INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment     TEXT NOT NULL,
    param_hash     TEXT NOT NULL,
    seed           INTEGER NOT NULL,
    status         TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    params         TEXT NOT NULL,
    backend        TEXT,
    spec_json      TEXT,
    spec_hash      TEXT,
    description    TEXT NOT NULL DEFAULT '',
    headers        TEXT NOT NULL DEFAULT '[]',
    rows           TEXT NOT NULL DEFAULT '[]',
    notes          TEXT NOT NULL DEFAULT '[]',
    error          TEXT,
    duration_s     REAL,
    telemetry_json TEXT,
    result_json    TEXT,
    created_at     TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE INDEX IF NOT EXISTS idx_runs_experiment ON runs (experiment, status);
CREATE TABLE IF NOT EXISTS queue (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment  TEXT NOT NULL,
    param_hash  TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    spec_json   TEXT NOT NULL,
    spec_hash   TEXT,
    state       TEXT NOT NULL DEFAULT 'pending'
                CHECK (state IN ('pending', 'claimed', 'done', 'failed')),
    owner       TEXT,
    claim_time  TEXT,
    attempt     INTEGER NOT NULL DEFAULT 0,
    enqueued_at TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE INDEX IF NOT EXISTS idx_queue_state ON queue (state, id);
"""

#: created after the column migrations run: on a store older than the
#: spec_hash columns they do not exist until the ALTERs in ``__init__`` add them
_SPEC_HASH_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_runs_spec_hash ON runs (spec_hash);
CREATE INDEX IF NOT EXISTS idx_queue_spec_hash ON queue (spec_hash);
"""

#: claims per cell before it is marked failed instead of reclaimed again
DEFAULT_MAX_ATTEMPTS = 3


def _json_default(value: Any) -> Any:
    """Make NumPy scalars/arrays JSON-serialisable without float-ifying ints."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def canonical_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Normalise a parameter dict so equal bindings canonicalise identically.

    Delegates to the shared canonicaliser (:mod:`repro.serialization`) that
    the run API's :class:`~repro.api.RunSpec` hashes through as well, so a
    parameter binding has exactly one identity no matter which layer
    computes it: tuples and lists are interchangeable, NumPy scalars become
    native numbers, enums serialise as their values, and nested mappings
    are normalised recursively (key order never matters — serialisation
    sorts keys at every depth).
    """
    return {str(k): canonical_value(v) for k, v in params.items()}


def _backend_of(canon: Mapping[str, Any]) -> str | None:
    """Extract the substrate backend recorded in a canonical param binding."""
    backend = canon.get("backend")
    return str(backend) if backend is not None else None


def param_hash(params: Mapping[str, Any]) -> str:
    """Stable hex digest of a parameter binding, independent of dict order."""
    return stable_digest(canonical_params(params))


def cell_spec_json(experiment: str, params: Mapping[str, Any], seed: int) -> str:
    """Canonical serialised form of one sweep cell.

    This string is the *transport* format of a cell: the sweep runner puts
    it in the work queue, any drain on the store executes it, and the
    store persists it alongside the row, so a stored run can be replayed
    from its row alone.
    """
    return canonical_json(
        {"experiment": str(experiment), "params": canonical_params(params), "seed": int(seed)}
    )


def cell_spec_hash(spec_json: str) -> str:
    """Content address of one serialised cell (16 hex chars).

    This is the digest the ``spec_hash`` columns and the content-addressed
    lookups (the drain's pre-execution cache check, the sweep runner's
    read-back of cells its drains did not report) share.  For a
    protocol :class:`~repro.api.RunSpec` document the non-identity
    ``telemetry`` toggle is popped first, so the digest equals
    ``RunSpec.spec_hash()`` exactly; experiment-cell documents digest
    as-is (their canonical form already is the identity).
    """
    doc = json.loads(spec_json)
    if isinstance(doc, Mapping) and "protocol" in doc:
        doc = dict(doc)
        doc.pop("telemetry", None)
    return stable_digest(doc)


@dataclass(frozen=True)
class QueuedCell:
    """One row of the work queue."""

    experiment: str
    param_hash: str
    seed: int
    #: the cell's whole transport form (``SweepCell.spec_json()``) — a
    #: drain needs nothing else to execute it
    spec_json: str
    state: str
    owner: str | None = None
    #: when the claim was taken
    claim_time: str | None = None
    #: how many times this cell has been claimed (capped by the drain's
    #: ``max_attempts``)
    attempt: int = 0
    #: content address of ``spec_json`` (``cell_spec_hash``) — the key the
    #: drain's cache check looks the cell's run up by; None on rows
    #: enqueued before the column existed
    spec_hash: str | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.experiment, self.param_hash, int(self.seed))


@dataclass(frozen=True)
class StoredRun:
    """One persisted sweep cell, decoded from its database row."""

    id: int
    experiment: str
    param_hash: str
    seed: int
    status: str
    params: dict[str, Any]
    #: substrate backend that produced the row (from the cell's params);
    #: None for experiments that do not take a backend (historic NULLs are
    #: backfilled to the default backend on store open).
    backend: str | None
    #: canonical serialised cell spec (replayable transport form); None for
    #: rows written before the unified run API.
    spec_json: str | None
    description: str
    headers: list[str]
    rows: list[dict[str, Any]]
    notes: list[str]
    error: str | None
    duration_s: float | None
    #: the run's telemetry document (decoded from ``telemetry_json``); None
    #: when telemetry was off or the row predates the column.
    telemetry: dict[str, Any] | None
    created_at: str
    #: content address of ``spec_json`` (:func:`cell_spec_hash`) — the
    #: cache key of :meth:`ResultStore.get_by_spec_hash`; None only for
    #: pre-run-API rows without a spec.
    spec_hash: str | None = None
    #: the full serialised :class:`~repro.api.RunResult` envelope for
    #: protocol cells, replayable with ``RunResult.from_dict``; None for
    #: experiment cells and rows written before the column existed.
    result_json: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "param_hash": self.param_hash,
            "seed": self.seed,
            "status": self.status,
            "params": self.params,
            "backend": self.backend,
            "spec_json": self.spec_json,
            "spec_hash": self.spec_hash,
            "description": self.description,
            "headers": self.headers,
            "rows": self.rows,
            "notes": self.notes,
            "error": self.error,
            "duration_s": self.duration_s,
            "telemetry": self.telemetry,
            "created_at": self.created_at,
        }

    def to_result(self):
        """Rebuild the driver-level ExperimentResult for rendering/analysis."""
        from ..harness.experiments import ExperimentResult  # lazy: avoid import cycle

        return ExperimentResult(
            experiment=self.experiment,
            description=self.description,
            headers=list(self.headers),
            rows=[dict(row) for row in self.rows],
            seed=self.seed,
            parameters=dict(self.params),
            notes=list(self.notes),
        )


class ResultStore:
    """SQLite store keyed by ``(experiment, param_hash, seed)``.

    ``busy_timeout_s`` is how long any single statement waits for a
    competing writer before raising ``SQLITE_BUSY``; on top of that every
    write transaction retries a few times, so drains hammering one store
    queue behind each other instead of crashing a sweep.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        busy_timeout_s: float = DEFAULT_BUSY_TIMEOUT_S,
    ) -> None:
        if busy_timeout_s < 0:
            raise ValueError(f"busy_timeout_s must be >= 0, got {busy_timeout_s}")
        self.path = Path(path)
        self.busy_timeout_s = float(busy_timeout_s)
        #: the directory of the drains' owner locks; None for an in-memory store
        self._owners: Path | None = None
        if str(path) != ":memory:":
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._owners = Path(f"{self.path}.owners")
        self._conn = sqlite3.connect(str(path), timeout=self.busy_timeout_s)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(self.busy_timeout_s * 1000)}")
        self._conn.executescript(_SCHEMA)
        # Stores created before the substrate / run-API refactors lack the
        # backend and spec_json columns; add them in place.
        columns = {row["name"] for row in self._conn.execute("PRAGMA table_info(runs)")}
        if "backend" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN backend TEXT")
        legacy_store = "spec_json" not in columns
        if legacy_store:
            self._conn.execute("ALTER TABLE runs ADD COLUMN spec_json TEXT")
        # Rows written before the substrate refactor carry no backend; they
        # were produced by the then-only (default) kernel, so pin them to it
        # rather than letting summaries/plots silently mis-group them.  The
        # rewrite runs only on the one open that migrates a legacy store
        # (pre-spec_json schema): NULL backends written afterwards belong to
        # experiments that genuinely take no backend and must stay NULL.
        if legacy_store:
            backfilled = self._conn.execute(
                "UPDATE runs SET backend = ? WHERE backend IS NULL", (DEFAULT_BACKEND,)
            ).rowcount
            if backfilled:
                warnings.warn(
                    f"result store {path}: backfilled {backfilled} pre-substrate row(s) "
                    f"with backend={DEFAULT_BACKEND!r}",
                    stacklevel=2,
                )
        # The telemetry column came later still; NULL is the correct value
        # for pre-existing rows, so this migration only adds the column
        # (logged, not warned — it is routine, unlike the backend backfill
        # above which rewrites rows).
        if "telemetry_json" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN telemetry_json TEXT")
            _logger.info("result store %s: added telemetry_json column", path)
        # Content-addressing columns (the cache key and the replayable
        # result).  Rows written before the columns existed are backfilled
        # from their stored spec_json so the drain's cache check finds
        # pre-existing results too.
        if "result_json" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN result_json TEXT")
            _logger.info("result store %s: added result_json column", path)
        if "spec_hash" not in columns:
            self._conn.execute("ALTER TABLE runs ADD COLUMN spec_hash TEXT")
            self._backfill_spec_hashes("runs")
        queue_columns = {row["name"] for row in self._conn.execute("PRAGMA table_info(queue)")}
        if "spec_hash" not in queue_columns:
            self._conn.execute("ALTER TABLE queue ADD COLUMN spec_hash TEXT")
            self._backfill_spec_hashes("queue")
        self._conn.executescript(_SPEC_HASH_INDEXES)
        self._conn.commit()

    def _backfill_spec_hashes(self, table: str) -> None:
        """Fill the just-added ``spec_hash`` column from stored spec strings.

        Runs exactly once per store (at the migration that adds the
        column); pre-run-API rows without a spec_json stay NULL, which the
        content-addressed lookups treat as "not addressable".
        """
        assert table in ("runs", "queue")
        rows = self._conn.execute(
            f"SELECT id, spec_json FROM {table} WHERE spec_json IS NOT NULL"
        ).fetchall()
        for row in rows:
            self._conn.execute(
                f"UPDATE {table} SET spec_hash = ? WHERE id = ?",
                (cell_spec_hash(row["spec_json"]), row["id"]),
            )
        _logger.info(
            "result store %s: added %s.spec_hash column (%d row(s) backfilled)",
            self.path, table, len(rows),
        )

    # ------------------------------------------------------------------ #
    # write plumbing: SQLITE_BUSY retries on top of the busy timeout
    # ------------------------------------------------------------------ #
    def _write(self, what: str, body: Callable[[], Any]) -> Any:
        """Run ``body`` as one write transaction, retrying it on SQLITE_BUSY.

        The transaction takes the write lock up front (``BEGIN IMMEDIATE``),
        which is what makes the guarded claim UPDATE race-free across
        processes, and commits when ``body`` returns.  A busy error can
        surface mid-transaction (lock upgrade at commit), so a retry rolls
        back whatever is open and replays the whole body.  A transaction an
        interrupt left open (a store call cut short by a signal) is rolled
        back before the new one starts.  Non-lock errors propagate
        immediately.
        """
        delay = 0.05
        for attempt in range(_BUSY_RETRIES + 1):
            try:
                if self._conn.in_transaction:
                    self._conn.rollback()
                self._begin_immediate()
                result = body()
                self._conn.commit()
                return result
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                try:
                    self._conn.rollback()
                except sqlite3.Error:  # pragma: no cover - rollback best-effort
                    pass
                if attempt == _BUSY_RETRIES:
                    raise
                _logger.debug(
                    "store %s: %s hit SQLITE_BUSY (attempt %d/%d), retrying",
                    self.path, what, attempt + 1, _BUSY_RETRIES,
                )
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _begin_immediate(self) -> None:
        """Open an immediate (write-locked) transaction."""
        self._conn.execute("BEGIN IMMEDIATE")

    # ------------------------------------------------------------------ #
    # writing
    # ------------------------------------------------------------------ #
    def record_result(
        self,
        experiment: str,
        params: Mapping[str, Any],
        seed: int,
        result,
        duration_s: float | None = None,
        spec_json: str | None = None,
        telemetry_json: str | None = None,
        result_json: str | None = None,
    ) -> str:
        """Upsert a successful cell; returns the canonical parameter hash.

        ``spec_json`` is the cell's serialised replay form; when the caller
        does not provide one (direct store writes), the canonical cell spec
        is derived from the arguments.  ``telemetry_json`` is the run's
        serialised telemetry document (None when telemetry was off).
        ``result_json`` is the full serialised RunResult envelope for
        protocol cells, so a stored run can be replayed whole.  The row's
        ``spec_hash`` is the content address derived from ``spec_json``,
        and, in the same transaction, a claimed queue row moves to ``done``.
        """
        canon = canonical_params(params)
        digest = param_hash(canon)
        if spec_json is None:
            spec_json = cell_spec_json(experiment, canon, seed)
        spec_digest = cell_spec_hash(spec_json)

        def body() -> None:
            self._conn.execute(
                """
            INSERT INTO runs (experiment, param_hash, seed, status, params, backend, spec_json,
                              spec_hash, description, headers, rows, notes, error, duration_s,
                              telemetry_json, result_json)
            VALUES (?, ?, ?, 'ok', ?, ?, ?, ?, ?, ?, ?, ?, NULL, ?, ?, ?)
            ON CONFLICT (experiment, param_hash, seed) DO UPDATE SET
                status = 'ok', params = excluded.params, backend = excluded.backend,
                spec_json = excluded.spec_json, spec_hash = excluded.spec_hash,
                description = excluded.description,
                headers = excluded.headers, rows = excluded.rows, notes = excluded.notes,
                error = NULL, duration_s = excluded.duration_s,
                telemetry_json = excluded.telemetry_json,
                result_json = excluded.result_json,
                created_at = datetime('now')
            """,
                (
                    experiment,
                    digest,
                    int(seed),
                    json.dumps(canon, sort_keys=True, default=_json_default),
                    _backend_of(canon),
                    spec_json,
                    spec_digest,
                    result.description,
                    json.dumps(list(result.headers), default=_json_default),
                    json.dumps(list(result.rows), default=_json_default),
                    json.dumps(list(result.notes), default=_json_default),
                    duration_s,
                    telemetry_json,
                    result_json,
                ),
            )
            self._end_claim((experiment, digest, int(seed)), "done")

        self._write("record_result", body)
        return digest

    def record_failure(
        self,
        experiment: str,
        params: Mapping[str, Any],
        seed: int,
        error: str,
        duration_s: float | None = None,
        spec_json: str | None = None,
    ) -> str:
        """Upsert a failed cell (crash traceback in ``error``).

        Like :meth:`record_result`, it ends the cell's claim in the same
        transaction; a claimed queue row moves to ``failed``.
        """
        canon = canonical_params(params)
        digest = param_hash(canon)
        if spec_json is None:
            spec_json = cell_spec_json(experiment, canon, seed)
        spec_digest = cell_spec_hash(spec_json)

        def body() -> None:
            self._conn.execute(
                """
            INSERT INTO runs (experiment, param_hash, seed, status, params, backend, spec_json,
                              spec_hash, error, duration_s)
            VALUES (?, ?, ?, 'failed', ?, ?, ?, ?, ?, ?)
            ON CONFLICT (experiment, param_hash, seed) DO UPDATE SET
                status = 'failed', params = excluded.params, backend = excluded.backend,
                spec_json = excluded.spec_json, spec_hash = excluded.spec_hash,
                error = excluded.error,
                headers = '[]', rows = '[]', notes = '[]', telemetry_json = NULL,
                result_json = NULL,
                duration_s = excluded.duration_s, created_at = datetime('now')
            """,
                (
                    experiment,
                    digest,
                    int(seed),
                    json.dumps(canon, sort_keys=True, default=_json_default),
                    _backend_of(canon),
                    spec_json,
                    spec_digest,
                    error,
                    duration_s,
                ),
            )
            self._end_claim((experiment, digest, int(seed)), "failed")

        self._write("record_failure", body)
        return digest

    # ------------------------------------------------------------------ #
    # work queue (what sweep drains claim from)
    # ------------------------------------------------------------------ #
    def _decode_queue_row(self, row: sqlite3.Row) -> QueuedCell:
        return QueuedCell(**{f.name: row[f.name] for f in fields(QueuedCell)})

    def enqueue_cells(self, entries: Iterable[tuple[str, str, int, str]]) -> int:
        """Insert ``(experiment, param_hash, seed, spec_json)`` rows as pending.

        Rows already queued stay untouched while in flight (pending or
        claimed — another submitter got there first); ``done``/``failed``
        rows are reset to pending with a fresh attempt budget, so failed
        cells retry on the next invocation.  Returns how many rows became
        pending.
        """
        entries = list(entries)

        def body() -> int:
            return sum(
                self._conn.execute(
                    """
                    INSERT INTO queue (experiment, param_hash, seed, spec_json, spec_hash)
                    VALUES (?, ?, ?, ?, ?)
                    ON CONFLICT (experiment, param_hash, seed) DO UPDATE SET
                        spec_json = excluded.spec_json, spec_hash = excluded.spec_hash,
                        state = 'pending',
                        owner = NULL, claim_time = NULL, attempt = 0
                    WHERE queue.state IN ('done', 'failed')
                    """,
                    (experiment, digest, int(seed), str(spec_json), cell_spec_hash(spec_json)),
                ).rowcount
                for experiment, digest, seed, spec_json in entries
            )

        return self._write("enqueue_cells", body)

    def claim_cell(self, owner: str = "", max_attempts: int | None = None) -> QueuedCell | None:
        """Atomically claim the oldest pending row, or None when none is claimable.

        The winning row moves to ``claimed`` with ``owner`` set,
        ``claim_time`` stamped and ``attempt`` incremented.  With
        ``max_attempts``, rows already claimed that many times are passed
        over; :meth:`fail_exhausted` retires them.
        """
        budget = "" if max_attempts is None else f" AND attempt < {int(max_attempts)}"
        claimable = f"SELECT id FROM queue WHERE state = 'pending'{budget} ORDER BY id LIMIT 1"
        if self._conn.execute(claimable).fetchone() is None:
            return None  # an idle drain's poll: no write lock taken

        def body() -> QueuedCell | None:
            # The write lock is held for the whole select-then-update, so
            # the claim can never lose a race: one claimant per row.
            row = self._conn.execute(claimable).fetchone()
            if row is None:
                return None
            self._conn.execute(
                "UPDATE queue SET state = 'claimed', owner = ?, "
                "claim_time = datetime('now'), attempt = attempt + 1 WHERE id = ?",
                (owner, row["id"]),
            )
            return self._decode_queue_row(
                self._conn.execute("SELECT * FROM queue WHERE id = ?", (row["id"],)).fetchone()
            )

        return self._write("claim_cell", body)

    def mark_heartbeat(self, owner: str) -> int | None:
        """Take ``owner``'s lock and return its held descriptor (None in memory).

        A drain calls this before its first claim and holds the lock until
        it exits (:meth:`release_owner`); while it is held, the claims of
        ``owner`` are live.  A second live holder of the name is refused.
        Claims the name still holds were left by a dead drain of that name
        (its lock was free), so they go back to pending.
        """
        if self._owners is None:
            return None
        self._owners.mkdir(exist_ok=True)
        fd = os.open(self._owners / f"{owner}.lock", os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RuntimeError(
                f"claim owner {owner!r} is already draining store {self.path}"
            ) from None
        try:
            self.release_claims(owner)
        except BaseException:
            self.release_owner(owner, fd)
            raise
        return fd

    def release_owner(self, owner: str, fd: int | None = None) -> None:
        """Remove ``owner``'s lock file, then let go of its lock ``fd`` if held."""
        if self._owners is not None:
            (self._owners / f"{owner}.lock").unlink(missing_ok=True)
        if fd is not None:
            os.close(fd)

    def _lock_orphan(self, owner: str) -> tuple[bool, int | None]:
        """Try ``owner``'s lock without blocking: ``(orphaned, held fd or None)``.

        An owner without a lock file never took one (a store written
        before owner locks) or has ended, so its claims are orphaned too.
        """
        try:
            fd = os.open(self._owners / f"{owner}.lock", os.O_RDWR)
        except FileNotFoundError:
            return True, None
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            return False, None
        return True, fd

    def finish_cell(self, key: tuple[str, str, int], state: str) -> None:
        """Move a queue row to its terminal state (``done`` or ``failed``)."""
        if state not in ("done", "failed"):
            raise ValueError(f"terminal queue state must be 'done' or 'failed', got {state!r}")
        self._write("finish_cell", lambda: self._conn.execute(
            "UPDATE queue SET state = ? WHERE experiment = ? AND param_hash = ? AND seed = ?",
            (state, *key),
        ))

    def _end_claim(self, key: tuple[str, str, int], state: str) -> None:
        """Move a cell's claimed queue row to ``state`` (inside a write transaction)."""
        self._conn.execute(
            "UPDATE queue SET state = ? "
            "WHERE experiment = ? AND param_hash = ? AND seed = ? AND state = 'claimed'",
            (state, *key),
        )

    def release_claims(self, owner: str) -> list[tuple[str, str, int]]:
        """Hand every claim ``owner`` holds back to pending; returns their keys.

        Drains call this when they are interrupted, the sweep runner when
        one of its drains dies, and the reclaim pass for a dead owner.
        ``attempt`` is left alone: it counts claims, so a cell that keeps
        killing its drain still runs out of budget.
        """

        def body() -> list[tuple[str, str, int]]:
            rows = self._conn.execute(
                "SELECT id, experiment, param_hash, seed FROM queue "
                "WHERE state = 'claimed' AND owner IS ?",
                (owner,),
            ).fetchall()
            self._conn.executemany(
                "UPDATE queue SET state = 'pending', owner = NULL, claim_time = NULL WHERE id = ?",
                [(row["id"],) for row in rows],
            )
            return [(r["experiment"], r["param_hash"], int(r["seed"])) for r in rows]

        return self._write("release_claims", body)

    def reclaim_orphans(self) -> list[tuple[str, str, int]]:
        """Return the claims of owners whose lock is free to pending; returns their keys.

        Each owner's claims are released while its lock is held here, so a
        drain cannot take the name back in between; then its lock file is
        removed.
        """
        if self._owners is None:
            return []
        owners = self._conn.execute(
            "SELECT DISTINCT owner FROM queue WHERE state = 'claimed'"
        ).fetchall()
        reclaimed: list[tuple[str, str, int]] = []
        for (owner,) in owners:
            orphaned, fd = self._lock_orphan(owner)
            if not orphaned:
                continue
            try:
                reclaimed += self.release_claims(owner)
            finally:
                self.release_owner(owner, fd)
        if reclaimed:
            _logger.info("store %s: reclaimed %d orphaned claim(s)", self.path, len(reclaimed))
        return reclaimed

    def fail_exhausted(self, max_attempts: int) -> list[QueuedCell]:
        """Mark pending rows already claimed ``max_attempts`` times as failed.

        Returns the rows so the caller can record a failure row per cell;
        this is the cap that turns a drain-killing poison cell into a
        recorded failure instead of an infinite reclaim loop.
        """
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")

        def body() -> list[QueuedCell]:
            rows = self._conn.execute(
                "SELECT * FROM queue WHERE state = 'pending' AND attempt >= ? ORDER BY id",
                (int(max_attempts),),
            ).fetchall()
            for row in rows:
                self._conn.execute("UPDATE queue SET state = 'failed' WHERE id = ?", (row["id"],))
            return [self._decode_queue_row(row) for row in rows]

        failed = self._write("fail_exhausted", body)
        return [dataclass_replace(cell, state="failed") for cell in failed]

    def queue_counts(self, experiment: str | None = None) -> list[dict[str, Any]]:
        """Per-experiment ``{experiment, pending, claimed, done, failed}`` rows."""
        sql = (
            "SELECT experiment, "
            "SUM(state = 'pending') AS pending, SUM(state = 'claimed') AS claimed, "
            "SUM(state = 'done') AS done, SUM(state = 'failed') AS failed "
            "FROM queue"
        )
        args: tuple = ()
        if experiment is not None:
            sql += " WHERE experiment = ?"
            args = (experiment,)
        rows = self._conn.execute(sql + " GROUP BY experiment ORDER BY experiment", args).fetchall()
        return [dict(row) for row in rows]

    def queue_depth(self) -> dict[str, int]:
        """Whole-queue state counts ``{pending, claimed, done, failed}``."""
        row = self._conn.execute(
            "SELECT SUM(state = 'pending') AS pending, SUM(state = 'claimed') AS claimed, "
            "SUM(state = 'done') AS done, SUM(state = 'failed') AS failed FROM queue"
        ).fetchone()
        return {state: int(row[state] or 0) for state in QUEUE_STATES}

    def queue_cells(self, state: str | None = None) -> list[QueuedCell]:
        """Queue rows (optionally one state), oldest first."""
        sql = "SELECT * FROM queue"
        args: tuple = ()
        if state is not None:
            sql += " WHERE state = ?"
            args = (state,)
        rows = self._conn.execute(sql + " ORDER BY id", args).fetchall()
        return [self._decode_queue_row(row) for row in rows]

    def claims(self) -> list[dict[str, Any]]:
        """Every in-flight claim, oldest row first, flagged ``orphaned`` when its owner is gone.

        Owner locks are only probed here: nothing is released.
        """
        rows = self._conn.execute(
            "SELECT experiment, param_hash, seed, owner, attempt, claim_time "
            "FROM queue WHERE state = 'claimed' ORDER BY id"
        ).fetchall()
        verdicts: dict[str, bool] = {}
        claims = [dict(row) for row in rows]
        for claim in claims:
            owner = claim["owner"]
            if owner not in verdicts and self._owners is not None:
                verdicts[owner], fd = self._lock_orphan(owner)
                if fd is not None:
                    os.close(fd)
            claim["orphaned"] = verdicts.get(owner, False)
        return claims

    # ------------------------------------------------------------------ #
    # querying
    # ------------------------------------------------------------------ #
    def get_by_spec_hash(self, spec_hash: str) -> StoredRun | None:
        """Content-addressed lookup: the stored run for one spec digest.

        This is the shared cache check: queue drains consult it before
        executing a claim, and the sweep runner reads the outcome of cells
        its own drains did not report from it.  Returns the row whatever its
        status — callers decide whether a ``failed`` row counts as a hit.
        """
        row = self._conn.execute(
            "SELECT * FROM runs WHERE spec_hash = ? ORDER BY id LIMIT 1", (str(spec_hash),)
        ).fetchone()
        return self._decode(row) if row is not None else None

    def completed_cells(self) -> set[tuple[str, str, int]]:
        """All ``(experiment, param_hash, seed)`` keys with a successful row."""
        rows = self._conn.execute(
            "SELECT experiment, param_hash, seed FROM runs WHERE status = 'ok'"
        ).fetchall()
        return {(r["experiment"], r["param_hash"], int(r["seed"])) for r in rows}

    def query(self, experiment: str | None = None, status: str | None = None) -> list[StoredRun]:
        """Fetch stored runs, optionally filtered, in insertion order."""
        clauses, args = [], []
        if experiment is not None:
            clauses.append("experiment = ?")
            args.append(experiment)
        if status is not None:
            clauses.append("status = ?")
            args.append(status)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._conn.execute(
            f"SELECT * FROM runs {where} ORDER BY experiment, param_hash, seed", args
        ).fetchall()
        return [self._decode(row) for row in rows]

    def results(self, experiment: str | None = None) -> list:
        """Successful runs rebuilt as ExperimentResult objects."""
        return [run.to_result() for run in self.query(experiment=experiment, status="ok")]

    def summary(self) -> list[dict[str, Any]]:
        """Per-(experiment, backend) counts of completed/failed cells and runtime."""
        rows = self._conn.execute(
            """
            SELECT experiment,
                   backend,
                   SUM(status = 'ok') AS completed,
                   SUM(status = 'failed') AS failed,
                   SUM(COALESCE(duration_s, 0)) AS total_duration_s
            FROM runs GROUP BY experiment, backend ORDER BY experiment, backend
            """
        ).fetchall()
        return [dict(row) for row in rows]

    def export_json(self, path: str | Path, experiment: str | None = None) -> Path:
        """Dump stored runs (all statuses) to one JSON document."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = [run.as_dict() for run in self.query(experiment=experiment)]
        path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n")
        return path

    def __len__(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def _decode(self, row: sqlite3.Row) -> StoredRun:
        telemetry_json = row["telemetry_json"]
        return StoredRun(
            id=int(row["id"]),
            experiment=row["experiment"],
            param_hash=row["param_hash"],
            seed=int(row["seed"]),
            status=row["status"],
            params=json.loads(row["params"]),
            backend=row["backend"],
            spec_json=row["spec_json"],
            description=row["description"],
            headers=json.loads(row["headers"]),
            rows=json.loads(row["rows"]),
            notes=json.loads(row["notes"]),
            error=row["error"],
            duration_s=row["duration_s"],
            telemetry=json.loads(telemetry_json) if telemetry_json else None,
            created_at=row["created_at"],
            spec_hash=row["spec_hash"],
            result_json=row["result_json"],
        )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r}, runs={len(self)})"
