"""The store's work queue: claim atomicity, owner locks, dedup, drain parity.

Covers the work queue every sweep runs through:

* the store's queue table (enqueue/claim/finish/release/reclaim semantics)
  and the drains' owner locks,
* the store's spec-hash layer (the content-address invariant, replayable
  ``result_json`` rows, and the migration backfill for older stores),
* :class:`~repro.orchestration.worker.QueueWorker` drain loops,
* ``SweepRunner`` draining in-process and in forked drains, including a
  cell that kills the drain running it,
* real ``drr-gossip sweep`` processes on one store — two concurrent sweeps
  with zero duplicate executions, a SIGTERM mid-cell, and a resume right
  after a SIGKILL of the whole sweep or of its parent alone.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import RunResult, RunSpec, run
from repro.harness.cli import main
from repro.orchestration import (
    ExperimentPlan,
    QueuedCell,
    QueueWorker,
    ResultStore,
    SweepDefinition,
    SweepRunner,
    cell_spec_hash,
    cells_from_run_specs,
    expand_cells,
    row_identity,
)
from repro.orchestration import runner as runner_module
from repro.orchestration.worker import WorkerReport, WorkerShutdown

REPO_ROOT = Path(__file__).resolve().parents[1]


def _tiny_definition(reps: int = 2, seed: int = 5) -> SweepDefinition:
    return SweepDefinition(
        name="tiny",
        seed=seed,
        repetitions=reps,
        plans=(
            ExperimentPlan(experiment="table1", grid={"ns": [64, 128], "repetitions": 1}),
            ExperimentPlan(experiment="ablation", grid={"n": 64, "repetitions": 1}),
        ),
    )


def _enqueue(store: ResultStore, cells) -> int:
    return store.enqueue_cells(
        (c.experiment, c.param_hash, c.seed, c.spec_json()) for c in cells
    )


def _owner_locks(store_path) -> list[str]:
    """The owner lock files next to a store."""
    return sorted(path.name for path in Path(f"{store_path}.owners").glob("*.lock"))


def _sweep(store: Path, *argv: str) -> subprocess.Popen:
    """Start ``drr-gossip sweep --store <store> --jobs 2 <argv>`` in its own process group."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "--store", str(store), "--jobs", "2", *argv],
        env=env, cwd=str(REPO_ROOT), start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _spec_file(tmp_path: Path, specs) -> str:
    path = tmp_path / "specs.json"
    path.write_text(json.dumps([spec.to_dict() for spec in specs]))
    return str(path)


def _await(condition, what: str, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(0.05)


def _await_claims(store: Path, count: int) -> None:
    def held() -> bool:
        if not store.exists():
            return False
        with ResultStore(store) as conn:
            return conn.queue_depth()["claimed"] == count

    _await(held, f"the sweep to hold {count} claim(s)")


def _kill(proc: subprocess.Popen) -> None:
    """Make sure nothing a test started outlives it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


#: the schema of stores that mirrored every claim in a ``heartbeats`` row
#: and stamped each run's ``heartbeat_at``; both are left unused now
_MIRRORED_CLAIM_SCHEMA = """
CREATE TABLE runs (
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
    heartbeat_at   TEXT,
    created_at     TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE TABLE heartbeats (
    experiment   TEXT NOT NULL,
    param_hash   TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    worker       TEXT NOT NULL DEFAULT '',
    started_at   TEXT NOT NULL DEFAULT (datetime('now')),
    heartbeat_at TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
CREATE TABLE queue (
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
"""


# --------------------------------------------------------------------------- #
# queue table semantics
# --------------------------------------------------------------------------- #
class TestQueueStore:
    def test_enqueue_claim_finish_lifecycle(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert _enqueue(store, cells) == len(cells)
            assert store.queue_depth()["pending"] == len(cells)
            claim = store.claim_cell("w1")
            assert isinstance(claim, QueuedCell)
            assert claim.state == "claimed"
            assert claim.owner == "w1"
            assert claim.attempt == 1
            assert claim.key == cells[0].key  # oldest pending first
            store.finish_cell(claim.key, "done")
            depth = store.queue_depth()
            assert depth == {
                "pending": len(cells) - 1, "claimed": 0, "done": 1, "failed": 0,
            }

    def test_claim_returns_none_on_empty_queue(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert store.claim_cell("w1") is None

    def test_finish_rejects_non_terminal_state(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError, match="terminal"):
                store.finish_cell(("e", "h", 1), "pending")

    def test_reenqueue_resets_only_terminal_rows(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=2))[:3]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            first = store.claim_cell("w1")
            store.finish_cell(first.key, "done")
            second = store.claim_cell("w1")  # stays claimed
            poison = store.claim_cell("w2")
            store.release_claims("w2")
            (failed,) = store.fail_exhausted(max_attempts=1)  # its budget is spent
            assert failed.key == poison.key
            # re-submitting the sweep resets the done row, and the failed row
            # with a fresh attempt budget, to pending but must not steal the
            # claim another worker is executing
            assert _enqueue(store, cells) == 2
            states = {c.key: c for c in store.queue_cells()}
            assert states[first.key].state == "pending"
            assert states[first.key].attempt == 0
            assert states[poison.key].state == "pending"
            assert states[poison.key].attempt == 0
            assert states[second.key].state == "claimed"
            assert states[second.key].attempt == 1

    def test_reenqueue_keeps_a_pending_rows_attempt_count(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            store.claim_cell("w1")
            store.release_claims("w1")  # back to pending with one claim spent
            # a pending row is in flight: re-submitting it must not grant a
            # fresh budget, or a worker-killing cell would dodge its cap
            assert _enqueue(store, cells) == 0
            (row,) = store.queue_cells()
            assert row.state == "pending"
            assert row.attempt == 1

    def test_reenqueue_refreshes_a_finished_rows_spec(self, tmp_path):
        """A re-run with telemetry on re-queues a finished cell in its new transport form."""
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=2)
        (plain,) = cells_from_run_specs([spec])
        (traced,) = cells_from_run_specs([spec.with_telemetry(True)])
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, [plain])
            store.finish_cell(store.claim_cell("w1").key, "done")
            assert _enqueue(store, [traced]) == 1
            (row,) = store.queue_cells()
            assert row.spec_json == traced.spec_json()
            assert row.spec_hash == spec.spec_hash()
            # an in-flight row keeps the spec it was claimed with
            store.claim_cell("w2")
            assert _enqueue(store, [plain]) == 0
            assert store.queue_cells()[0].spec_json == traced.spec_json()

    def test_requeue_preserves_attempt_count(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("w1")
            assert store.release_claims("w1") == [claim.key]
            (row,) = store.queue_cells()
            assert row.state == "pending"
            assert row.owner is None
            assert row.attempt == 1  # requeue hands back the claim, not the budget
            again = store.claim_cell("w2")
            assert again.attempt == 2

    def test_reclaim_orphans_returns_claims_of_dead_owners(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition(reps=1))[:2]
        with ResultStore(path) as store:
            _enqueue(store, cells)
            live_lock = store.mark_heartbeat("live")
            live = store.claim_cell("live")
            dead_lock = store.mark_heartbeat("dead")
            dead = store.claim_cell("dead")
            os.close(dead_lock)  # what the kernel does when a drain dies
            assert _owner_locks(path) == ["dead.lock", "live.lock"]
            assert store.reclaim_orphans() == [dead.key]
            rows = {row.key: row for row in store.queue_cells()}
            assert (rows[dead.key].state, rows[dead.key].owner, rows[dead.key].attempt) == (
                "pending", None, 1,
            )
            assert (rows[live.key].state, rows[live.key].owner) == ("claimed", "live")
            assert _owner_locks(path) == ["live.lock"]  # the reclaim removed the dead file
            store.release_owner("live", live_lock)
            assert _owner_locks(path) == []

    def test_held_owner_lock_blocks_reclaim(self, tmp_path):
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(path) as store, ResultStore(path) as other:
            _enqueue(store, cells)
            lock = store.mark_heartbeat("w1")
            claim = store.claim_cell("w1")
            # the lock is held, however long the cell runs and whoever looks
            for conn in (store, other, store):
                assert conn.reclaim_orphans() == []
                (row,) = conn.queue_cells()
                assert (row.state, row.owner, row.attempt) == ("claimed", "w1", 1)
            # the drain exits: the lock and its file go, its claim is orphaned
            store.release_owner("w1", lock)
            assert other.reclaim_orphans() == [claim.key]
            assert other.claim_cell("w2").attempt == 2

    def test_claim_stamps_owner_and_ends_with_its_record(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("w1")
            (held,) = store.claims()
            assert (held["experiment"], held["param_hash"], held["seed"]) == claim.key
            assert (held["owner"], held["claim_time"]) == ("w1", claim.claim_time)
            assert claim.claim_time is not None
            experiment, params, seed = row_identity(claim.spec_json)
            store.record_failure(experiment, params, seed, "boom", spec_json=claim.spec_json)
            # the failure row and the queue row's terminal state land together
            assert store.queue_cells()[0].state == "failed"
            assert store.claims() == []
            # the claim is over: neither a release nor a reclaim brings it back
            assert store.release_claims("w1") == []
            assert store.reclaim_orphans() == []
            assert store.queue_cells()[0].state == "failed"

    def test_reused_owner_name_hands_back_a_dead_holders_claims(self, tmp_path):
        """A drain whose name a dead drain held (a reused pid) cannot inherit its claim."""
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(path) as store:
            _enqueue(store, cells)
            first = store.mark_heartbeat("pid7")
            claim = store.claim_cell("pid7")
            os.close(first)  # the first pid7 dies mid-cell
            lock = store.mark_heartbeat("pid7")
            (row,) = store.queue_cells()
            assert (row.state, row.owner, row.attempt) == ("pending", None, 1)
            assert store.claim_cell("pid7").key == claim.key
            store.release_owner("pid7", lock)

    def test_second_live_holder_of_an_owner_name_is_refused(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store, ResultStore(path) as other:
            lock = store.mark_heartbeat("w1")
            with pytest.raises(RuntimeError, match=rf"'w1'.*{path}"):
                other.mark_heartbeat("w1")
            with pytest.raises(RuntimeError, match="'w1'"):
                QueueWorker(other, worker_id="w1").drain()
            assert _owner_locks(path) == ["w1.lock"]  # the refusal left the holder's file
            store.release_owner("w1", lock)
            other.release_owner("w1", other.mark_heartbeat("w1"))
            assert _owner_locks(path) == []

    def test_memory_store_takes_no_owner_lock(self):
        with ResultStore(":memory:") as store:
            assert store.mark_heartbeat("w1") is None
            assert store.mark_heartbeat("w1") is None  # nothing to refuse: no other process
            _enqueue(store, expand_cells(_tiny_definition(reps=1))[:1])
            claim = store.claim_cell("w1")
            assert store.reclaim_orphans() == []
            (held,) = store.claims()
            assert (held["owner"], held["orphaned"]) == ("w1", False)
            store.release_owner("w1")
            (row,) = store.queue_cells()
            assert (row.key, row.state) == (claim.key, "claimed")

    def test_claim_passes_over_rows_whose_budget_is_spent(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:2]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            store.claim_cell("w1")
            store.release_claims("w1")
            claim = store.claim_cell("w1", max_attempts=1)
            assert claim.key == cells[1].key  # the oldest row has had its one claim
            assert store.claim_cell("w1", max_attempts=1) is None

    def test_fail_exhausted_respects_attempt_budget(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            for _ in range(2):  # burn two claims
                store.claim_cell("w1")
                store.release_claims("w1")
            assert store.fail_exhausted(max_attempts=3) == []  # budget not spent yet
            (cell,) = store.fail_exhausted(max_attempts=2)
            assert cell.state == "failed"
            assert cell.attempt == 2
            assert store.queue_cells()[0].state == "failed"

    def test_queue_counts_and_claims_views(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            store.claim_cell("w1")  # an owner that never took a lock
            counts = {row["experiment"]: row for row in store.queue_counts()}
            assert set(counts) == {c.experiment for c in cells}
            assert sum(r["pending"] + r["claimed"] for r in counts.values()) == len(cells)
            (held,) = store.claims()
            assert (held["owner"], held["attempt"], held["orphaned"]) == ("w1", 1, True)
            lock = store.mark_heartbeat("w2")
            store.claim_cell("w2")
            held = {row["owner"]: row["orphaned"] for row in store.claims()}
            assert held == {"w1": True, "w2": False}
            # a probe releases nothing
            assert store.queue_depth()["claimed"] == 2
            store.release_owner("w2", lock)

    def test_queue_counts_filter_by_experiment(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            claim = store.claim_cell("w1")
            store.finish_cell(claim.key, "done")
            (row,) = store.queue_counts(experiment=claim.experiment)
            queued = sum(c.experiment == claim.experiment for c in cells)
            assert row == {
                "experiment": claim.experiment,
                "pending": queued - 1, "claimed": 0, "done": 1, "failed": 0,
            }
            assert store.queue_counts(experiment="nope") == []

    def test_concurrent_claims_cover_queue_exactly_once(self, tmp_path):
        """Racing claimants on separate connections never claim the same cell."""
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition())
        with ResultStore(path) as store:
            _enqueue(store, cells)
        claimed: list[tuple] = []
        lock = threading.Lock()

        def drain_claims(worker: str) -> None:
            with ResultStore(path) as conn:
                while True:
                    claim = conn.claim_cell(worker)
                    if claim is None:
                        return
                    with lock:
                        claimed.append(claim.key)
                    conn.finish_cell(claim.key, "done")

        threads = [
            threading.Thread(target=drain_claims, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(c.key for c in cells)
        assert len(set(claimed)) == len(cells)

    def test_concurrent_duplicate_enqueues_make_one_row(self, tmp_path):
        """Submitters racing one spec on separate connections queue it once."""
        path = tmp_path / "r.sqlite"
        spec = RunSpec(protocol="drr-gossip", params={"n": 96}, seed=11)
        cells = cells_from_run_specs([spec])
        ResultStore(path).close()  # create the schema before the race
        submitters = 6
        barrier = threading.Barrier(submitters)
        added: list[int] = []
        errors: list[BaseException] = []
        lock = threading.Lock()

        def submit() -> None:
            try:
                with ResultStore(path) as conn:
                    barrier.wait(timeout=30)
                    count = _enqueue(conn, cells)
                with lock:
                    added.append(count)
            except BaseException as exc:  # surfaced in the main thread below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(submitters)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert sorted(added) == [0] * (submitters - 1) + [1]
        with ResultStore(path) as store:
            (row,) = store.queue_cells()
            assert row.spec_hash == spec.spec_hash()
            QueueWorker(store, worker_id="drainer").drain()
            (row,) = store.queue_cells()
            assert row.state == "done"
            assert row.attempt == 1  # one execution in total

    def test_record_result_retries_through_held_write_lock(self, tmp_path):
        """A writer blocked by another connection's transaction lands via retry."""
        path = tmp_path / "r.sqlite"
        errors: list[BaseException] = []

        def blocked_writer() -> None:
            # tiny sqlite-level timeout so the application-level retry loop,
            # not the driver, is what carries the write through
            try:
                with ResultStore(path, busy_timeout_s=0.01) as writer:
                    writer.record_failure("other", {"n": 1}, 2, "boom")
            except BaseException as exc:  # surfaced in the main thread below
                errors.append(exc)

        with ResultStore(path) as store:
            store._begin_immediate()
            store._conn.execute(
                "INSERT INTO queue (experiment, param_hash, seed, spec_json) "
                "VALUES ('e', 'h', 1, '{}')"
            )
            writer_thread = threading.Thread(target=blocked_writer)
            writer_thread.start()
            time.sleep(0.3)  # let the writer hit the held lock and start retrying
            store._conn.commit()
            writer_thread.join(timeout=30)
            assert not writer_thread.is_alive()
            assert errors == []
            assert store.query(status="failed")[0].experiment == "other"


# --------------------------------------------------------------------------- #
# store: content-address invariant + legacy migration backfill
# --------------------------------------------------------------------------- #
class TestSpecHashStore:
    def test_cell_spec_hash_equals_public_spec_hash(self):
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=5)
        (cell,) = cells_from_run_specs([spec])
        assert cell_spec_hash(cell.spec_json()) == spec.spec_hash()

    def test_get_by_spec_hash_round_trips_recorded_rows(self, tmp_path):
        (cell,) = cells_from_run_specs([RunSpec(protocol="drr-gossip", params={"n": 64}, seed=3)])
        experiment, params, seed = row_identity(cell.spec_json())
        digest = cell_spec_hash(cell.spec_json())
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.get_by_spec_hash(digest) is None
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
            found = store.get_by_spec_hash(digest)
            assert found is not None
            assert found.spec_hash == digest
            assert found.error == "boom"

    def test_drained_cell_stores_replayable_result_json(self, tmp_path):
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=9)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _enqueue(store, cells_from_run_specs([spec]))
            QueueWorker(store, worker_id="drainer").drain()
            stored = store.get_by_spec_hash(spec.spec_hash())
            assert stored is not None and stored.ok
            envelope = RunResult.from_dict(json.loads(stored.result_json))
            assert envelope.same_outcome(run(spec))

    def test_telemetry_toggle_keeps_the_cell_address(self):
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=5)
        (plain,) = cells_from_run_specs([spec])
        (traced,) = cells_from_run_specs([spec.with_telemetry(True)])
        assert traced.spec_json() != plain.spec_json()  # the transport form keeps the toggle
        assert traced.key == plain.key
        assert cell_spec_hash(traced.spec_json()) == spec.spec_hash()

    def test_enqueued_spec_carries_its_run_spec_hash(self, tmp_path):
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=3)
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.queue_cells() == []
            _enqueue(store, cells_from_run_specs([spec]))
            (row,) = store.queue_cells()
            assert row.spec_hash == spec.spec_hash()
            assert (row.state, row.attempt) == ("pending", 0)
            # nothing has run yet, and an unknown digest misses too
            assert store.get_by_spec_hash(spec.spec_hash()) is None
            assert store.get_by_spec_hash("ab" * 8) is None

    def test_failure_upsert_drops_the_replayable_result(self, tmp_path):
        """A failure recorded over a result leaves no stale envelope behind."""
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=4)
        (cell,) = cells_from_run_specs([spec])
        with ResultStore(tmp_path / "s.sqlite") as store:
            _enqueue(store, [cell])
            QueueWorker(store, worker_id="drainer").drain()
            assert store.get_by_spec_hash(spec.spec_hash()).result_json is not None
            experiment, params, seed = row_identity(cell.spec_json())
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
            failed = store.get_by_spec_hash(spec.spec_hash())
            assert (failed.status, failed.error) == ("failed", "boom")
            assert failed.result_json is None
            assert failed.rows == [] and failed.telemetry is None
            assert len(store) == 1  # an upsert, not a second row

    def test_envelope_keeps_estimates_up_to_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "MAX_ENVELOPE_ESTIMATES", 64)
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=9)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _enqueue(store, cells_from_run_specs([spec]))
            QueueWorker(store, worker_id="drainer").drain()
            doc = json.loads(store.get_by_spec_hash(spec.spec_hash()).result_json)
        assert len(doc["estimates"]) == 64
        assert "estimates_omitted" not in doc
        assert RunResult.from_dict(doc).same_outcome(run(spec))

    def test_envelope_drops_estimates_past_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "MAX_ENVELOPE_ESTIMATES", 63)
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=9)
        with ResultStore(tmp_path / "s.sqlite") as store:
            _enqueue(store, cells_from_run_specs([spec]))
            QueueWorker(store, worker_id="drainer").drain()
            doc = json.loads(store.get_by_spec_hash(spec.spec_hash()).result_json)
        assert doc["estimates"] is None
        assert doc["estimates_omitted"] == 64
        envelope, direct = RunResult.from_dict(doc), run(spec)
        assert envelope.estimates is None
        assert (envelope.rounds, envelope.messages) == (direct.rounds, direct.messages)

    def test_legacy_store_migration_backfills_spec_hashes(self, tmp_path):
        """A store older than the spec_hash columns gains them, backfilled, on reopen."""
        path = tmp_path / "legacy.sqlite"
        (cell,) = cells_from_run_specs([RunSpec(protocol="drr-gossip", params={"n": 64}, seed=3)])
        experiment, params, seed = row_identity(cell.spec_json())
        digest = cell_spec_hash(cell.spec_json())
        with ResultStore(path) as store:
            _enqueue(store, [cell])
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
        # strip the content-addressing columns to reconstruct the old schema
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            DROP INDEX IF EXISTS idx_runs_spec_hash;
            DROP INDEX IF EXISTS idx_queue_spec_hash;
            ALTER TABLE runs DROP COLUMN spec_hash;
            ALTER TABLE runs DROP COLUMN result_json;
            ALTER TABLE queue DROP COLUMN spec_hash;
            """
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:  # reopening migrates and backfills
            found = store.get_by_spec_hash(digest)
            assert found is not None
            assert found.spec_hash == digest
            (row,) = store.queue_cells()
            assert row.spec_hash == digest
            assert row.key == cell.key


# --------------------------------------------------------------------------- #
# worker drain loop (in-process)
# --------------------------------------------------------------------------- #
class TestQueueWorker:
    def test_drain_executes_queue_and_records_results(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            report = QueueWorker(store, worker_id="w1").drain()
            assert isinstance(report, WorkerReport)
            assert report.executed == len(cells)
            assert report.failed == 0
            assert store.queue_depth()["done"] == len(cells)
            assert store.completed_cells() == {cell.key for cell in cells}

    def test_cached_claim_skips_execution(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            SweepRunner(store, jobs=1).run_cells(cells)  # result already stored
            _enqueue(store, cells)
            # enqueue_cells resets done rows, but the runs row survives —
            # the claim is served from cache without re-executing
            report = QueueWorker(store, worker_id="w1").drain()
            assert report.cached == 1
            assert report.executed == 0
            assert store.queue_depth()["done"] == 1

    def test_no_skip_worker_reexecutes_cached_cells(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            SweepRunner(store, jobs=1).run_cells(cells)
            _enqueue(store, cells)
            report = QueueWorker(
                store, worker_id="w1", skip_completed=False
            ).drain()
            assert report.executed == 1
            assert report.cached == 0

    def test_failed_row_is_not_a_cache_hit(self, tmp_path):
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=8)
        (cell,) = cells_from_run_specs([spec])
        experiment, params, seed = row_identity(cell.spec_json())
        with ResultStore(tmp_path / "r.sqlite") as store:
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
            _enqueue(store, [cell])
            report = QueueWorker(store, worker_id="w1").drain()
            assert report.executed == 1
            assert report.cached == 0
            assert store.get_by_spec_hash(spec.spec_hash()).ok

    def test_exhausted_cell_records_gave_up_failure(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            store.claim_cell("crashy")
            store.release_claims("crashy")  # attempt budget now spent for cap=1
            report = QueueWorker(
                store, worker_id="w1", max_attempts=1
            ).drain()
            assert report.exhausted == 1
            assert report.executed == 0
            assert store.queue_cells()[0].state == "failed"
            (failure,) = store.query(status="failed")
            assert "gave up after 1 claim(s)" in failure.error

    def test_shutdown_before_execution_releases_claim(self, tmp_path, monkeypatch):
        """The claim is guarded from its commit on, not from execution on."""
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)

            def interrupted_cache_check(spec_hash):
                raise WorkerShutdown(signal.SIGTERM)

            monkeypatch.setattr(store, "get_by_spec_hash", interrupted_cache_check)
            report = QueueWorker(store, worker_id="w1").drain()
            assert report.stopped == "SIGTERM"
            (row,) = store.queue_cells()
            assert row.state == "pending"
            assert row.owner is None
            assert row.attempt == 1
            assert store.claims() == []
            assert _owner_locks(tmp_path / "r.sqlite") == []

    def test_shutdown_lost_by_a_callback_is_delivered_again(self):
        """C code can clear a signal handler's exception; the signal comes back."""
        from repro.orchestration import signal_shutdown

        start = time.monotonic()
        with pytest.raises(WorkerShutdown) as caught:
            with signal_shutdown():
                try:
                    os.kill(os.getpid(), signal.SIGTERM)
                    time.sleep(5)  # the handler raises in here
                except WorkerShutdown:
                    pass  # what a callback that clears the error does to it
                while time.monotonic() - start < 10:
                    time.sleep(0.01)  # the re-delivered signal raises in here
        assert caught.value.signal_name == "SIGTERM"
        assert time.monotonic() - start < 5

    def test_drain_commits_two_write_transactions_per_cell(self, tmp_path):
        specs = [RunSpec(protocol="drr", params={"n": 32}, seed=seed) for seed in range(8)]
        cells = cells_from_run_specs(specs)
        statements: list[str] = []
        with ResultStore(tmp_path / "r.sqlite") as store:
            store._conn.set_trace_callback(statements.append)
            report = SweepRunner(store, jobs=1).run_cells(cells)
            store._conn.set_trace_callback(None)
        assert report.executed == len(cells)
        commits = [sql for sql in statements if sql.strip().upper().startswith("COMMIT")]
        # per cell: the claim and the write-back; plus the enqueue and the
        # owner lock's hand-back of a dead namesake's claims (the empty
        # claim, reclaim and exhaustion passes that end the drain write
        # only when they find work)
        assert len(commits) <= 2 * len(cells) + 4

    def test_idle_drain_polls_without_the_write_lock(self, tmp_path):
        """A drain waiting on a sibling's last claim only reads, every DRAIN_POLL_S."""
        path = tmp_path / "r.sqlite"
        statements: list[str] = []

        def idle_drain() -> None:
            with ResultStore(path) as idle:
                idle._conn.set_trace_callback(statements.append)
                QueueWorker(idle, worker_id="idle").drain()

        with ResultStore(path) as busy:
            _enqueue(busy, expand_cells(_tiny_definition(reps=1))[:1])
            lock = busy.mark_heartbeat("busy")
            claim = busy.claim_cell("busy")
            drain = threading.Thread(target=idle_drain)
            drain.start()
            time.sleep(0.5)  # ~25 idle polls
            busy.finish_cell(claim.key, "done")
            drain.join(timeout=30)
            busy.release_owner("busy", lock)
        assert not drain.is_alive()
        polls = [sql for sql in statements if sql.startswith("SELECT SUM(state = 'pending')")]
        assert len(polls) > 5
        # the one write: taking the owner lock hands back a dead namesake's claims
        assert sum(sql.strip().upper() == "BEGIN IMMEDIATE" for sql in statements) == 1

    def test_worker_report_summary_mentions_counts(self):
        report = WorkerReport(worker="w1", executed=3, failed=1, cached=2, wall_s=1.0)
        assert "3 executed, 1 failed, 2 cached" in report.summary()
        assert "gave up" not in report.summary()
        assert "1 gave up" in WorkerReport(worker="w", exhausted=1).summary()

    def test_row_identity_round_trips_both_cell_kinds(self):
        exp_cells = expand_cells(_tiny_definition(reps=1))
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=9)
        for cell in exp_cells + cells_from_run_specs([spec]):
            experiment, params, seed = row_identity(cell.spec_json())
            assert experiment == cell.experiment
            assert seed == cell.seed
            # the decoded params must hash to the digest the cell was queued
            # under, or worker result rows would not upsert onto local ones
            from repro.orchestration import param_hash

            assert param_hash(params) == cell.param_hash

    def test_store_with_mirrored_heartbeat_rows_reclaims_and_drains(self, tmp_path):
        """A store from before claims lived in one row opens and recovers a dead claim."""
        path = tmp_path / "mirrored.sqlite"
        dead, done = cells_from_run_specs(
            [RunSpec(protocol="drr", params={"n": 32}, seed=seed) for seed in (4, 5)]
        )
        conn = sqlite3.connect(path)
        conn.executescript(_MIRRORED_CLAIM_SCHEMA)
        # a dead worker's claim, two minutes old (second-truncated stamps),
        # and the heartbeat row that mirrored it
        conn.execute(
            "INSERT INTO queue (experiment, param_hash, seed, spec_json, spec_hash, state, "
            "owner, claim_time, attempt) VALUES (?, ?, ?, ?, ?, 'claimed', 'dead', "
            "datetime('now', '-120 seconds'), 1)",
            (*dead.key, dead.spec_json(), cell_spec_hash(dead.spec_json())),
        )
        conn.execute(
            "INSERT INTO heartbeats (experiment, param_hash, seed, worker, started_at, "
            "heartbeat_at) VALUES (?, ?, ?, 'dead', datetime('now', '-120 seconds'), "
            "datetime('now', '-120 seconds'))",
            dead.key,
        )
        # and a run recorded back then, with its heartbeat_at stamp
        conn.execute(
            "INSERT INTO runs (experiment, param_hash, seed, status, params, spec_json, "
            "spec_hash, heartbeat_at) VALUES (?, ?, ?, 'ok', ?, ?, ?, datetime('now'))",
            (*done.key, json.dumps(done.params), done.spec_json(),
             cell_spec_hash(done.spec_json())),
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            (held,) = store.claims()
            # the dead owner never took a lock, so its claim is orphaned now
            assert (held["owner"], held["orphaned"]) == ("dead", True)
            report = QueueWorker(store, worker_id="rescuer").drain()
            assert (report.reclaimed, report.executed) == (1, 1)
            (row,) = store.queue_cells()
            assert (row.state, row.owner, row.attempt) == ("done", "rescuer", 2)
            assert store.claims() == []
            stored = {run.seed: run for run in store.query()}
            assert stored[dead.seed].ok
            assert stored[done.seed].as_dict()["spec_json"] == done.spec_json()
            assert "heartbeat_at" not in stored[done.seed].as_dict()
            assert _owner_locks(path) == []

    def test_invalid_worker_knobs_rejected(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError, match="max_attempts"):
                QueueWorker(store, max_attempts=0)


# --------------------------------------------------------------------------- #
# SweepRunner queue backend
# --------------------------------------------------------------------------- #
class TestQueueBackendRunner:
    def test_forked_drains_match_in_process_store_bit_for_bit(self, tmp_path):
        definition = _tiny_definition()
        with ResultStore(tmp_path / "serial.sqlite") as store:
            serial_report = SweepRunner(store, jobs=1).run(definition)
            serial = {(r.experiment, r.param_hash, r.seed): r for r in store.query()}
            assert store.queue_depth()["done"] == serial_report.executed
        with ResultStore(tmp_path / "forked.sqlite") as store:
            forked_report = SweepRunner(store, jobs=2).run(definition)
            forked = {(r.experiment, r.param_hash, r.seed): r for r in store.query()}
            assert store.queue_depth()["done"] == forked_report.executed
            assert all(row.attempt == 1 for row in store.queue_cells())
        assert forked_report.failed == 0
        assert forked_report.executed == serial_report.executed
        assert serial.keys() == forked.keys()
        for key, run in serial.items():
            other = forked[key]
            assert run.rows == other.rows, f"rows differ for {key}"
            assert run.headers == other.headers
            assert run.params == other.params
            assert run.notes == other.notes

    def test_resume_report_is_the_same_for_any_jobs(self, tmp_path):
        definition = _tiny_definition()
        with ResultStore(tmp_path / "serial.sqlite") as store:
            SweepRunner(store, jobs=1).run(definition)
            serial_resume = SweepRunner(store, jobs=1).run(definition)
        with ResultStore(tmp_path / "forked.sqlite") as store:
            SweepRunner(store, jobs=2).run(definition)
            forked_resume = SweepRunner(store, jobs=2).run(definition)
        assert forked_resume.skipped == forked_resume.total > 0
        assert forked_resume.summary() == serial_resume.summary()

    def test_forked_drains_report_each_cell_as_its_row_lands(self, tmp_path, monkeypatch):
        """Later cells wait for the parent to report the first: no batch at the end."""
        cells = cells_from_run_specs(
            [RunSpec(protocol="drr", params={"n": 32}, seed=seed) for seed in range(3)]
        )
        first = cells[0].spec_json()
        reported = tmp_path / "first-reported"
        execute = runner_module._execute_cell

        def gated(spec_json):
            deadline = time.monotonic() + 30
            while spec_json != first and not reported.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return execute(spec_json)

        monkeypatch.setattr(runner_module, "_execute_cell", gated)
        seen = []

        def progress(outcome, index, total):
            seen.append(outcome.cell.key)
            reported.touch()

        with ResultStore(tmp_path / "r.sqlite") as store:
            start = time.monotonic()
            report = SweepRunner(store, jobs=2, progress=progress).run_cells(cells)
            elapsed = time.monotonic() - start
        assert report.executed == len(cells)
        assert seen[0] == cells[0].key
        assert elapsed < 20  # no drain sat out the gate's deadline

    def test_cell_that_kills_its_drain_gives_up_after_the_attempt_budget(
        self, tmp_path, monkeypatch
    ):
        cells = cells_from_run_specs(
            [RunSpec(protocol="drr", params={"n": 32}, seed=seed) for seed in range(6)]
        )
        poison = cells[2]
        sweep_pid = os.getpid()
        execute = runner_module._execute_cell

        def poisoned(spec_json):
            if spec_json == poison.spec_json() and os.getpid() != sweep_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            return execute(spec_json)

        monkeypatch.setattr(runner_module, "_execute_cell", poisoned)
        with ResultStore(tmp_path / "r.sqlite") as store:
            start = time.monotonic()
            report = SweepRunner(store, jobs=2).run_cells(cells)
            elapsed = time.monotonic() - start
            outcomes = {outcome.cell.key: outcome for outcome in report.outcomes}
            assert len(outcomes) == len(cells)
            for cell in cells:
                if cell is not poison:
                    assert outcomes[cell.key].status == "ok"
            assert outcomes[poison.key].status == "failed"
            assert "gave up after 3 claim(s)" in outcomes[poison.key].error
            (failure,) = store.query(status="failed")
            assert "gave up after 3 claim(s)" in failure.error
            rows = {row.key: row for row in store.queue_cells()}
            assert (rows[poison.key].state, rows[poison.key].attempt) == ("failed", 3)
            assert all(row.state == "done" for key, row in rows.items() if key != poison.key)
            assert store.claims() == []  # no owner holds a row
        assert _owner_locks(tmp_path / "r.sqlite") == []  # nor the dead drains' files
        assert elapsed < 30

    def test_idle_drain_never_reclaims_a_live_siblings_claim(self, tmp_path, monkeypatch):
        """A long cell keeps its claim through every idle poll of its drain's sibling."""
        cells = cells_from_run_specs(
            [RunSpec(protocol="drr", params={"n": 32}, seed=seed) for seed in range(2)]
        )
        slow = cells[0].spec_json()
        runs = tmp_path / "slow-runs"
        execute = runner_module._execute_cell

        def slowed(spec_json):
            if spec_json == slow:
                with runs.open("a") as log:  # forked drains share the file
                    log.write(f"{os.getpid()}\n")
                time.sleep(1.0)  # dozens of the idle sibling's reclaim passes
            return execute(spec_json)

        monkeypatch.setattr(runner_module, "_execute_cell", slowed)
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=2).run_cells(cells)
            rows = store.queue_cells()
        assert (report.executed, report.failed) == (2, 0)
        assert [(row.state, row.attempt) for row in rows] == [("done", 1), ("done", 1)]
        assert len(runs.read_text().splitlines()) == 1  # the slow cell ran once

    def test_clean_sweep_leaves_no_owner_lock_file(self, tmp_path):
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.sqlite"
            with ResultStore(path) as store:
                report = SweepRunner(store, jobs=jobs).run(_tiny_definition(reps=1))
            assert report.executed == report.total > 0
            assert Path(f"{path}.owners").is_dir()  # the drains took their locks there
            assert _owner_locks(path) == []

    def test_duplicate_specs_collapse_to_one_execution(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))
        doubled = cells + [cells[0]]
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(doubled)
            assert report.executed == len(cells)
            assert report.cached == 1
            assert report.total == len(doubled)
            assert len(store) == len(cells)  # the twin produced no extra row
            assert ", 1 cached" in report.summary()

    def test_dedup_fans_failures_out_to_twins(self, tmp_path):
        definition = SweepDefinition(
            name="crashy",
            seed=3,
            repetitions=1,
            plans=(
                ExperimentPlan(
                    experiment="table1",
                    grid={"ns": [64], "repetitions": 1, "workload": ["nope"]},
                ),
            ),
        )
        cells = expand_cells(definition)
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(cells + [cells[0]])
            assert report.failed == 2  # the representative and its twin
            assert report.cached == 0
            twin = report.outcomes[-1]
            assert twin.error is not None and "ValueError" in twin.error

    def test_overlapping_submissions_execute_each_spec_once(self, tmp_path):
        specs = [RunSpec(protocol="drr-gossip", params={"n": n}, seed=5) for n in (64, 96, 128)]
        with ResultStore(tmp_path / "r.sqlite") as store:
            runner = SweepRunner(store, jobs=1)
            first = runner.run_cells(cells_from_run_specs(specs[:2]))
            second = runner.run_cells(cells_from_run_specs(specs[1:]))
            assert (first.executed, first.skipped) == (2, 0)
            assert (second.executed, second.skipped) == (1, 1)
            rows = store.queue_cells()
            assert len(rows) == len(specs)
            assert all((r.state, r.attempt) == ("done", 1) for r in rows)

    def test_rerunning_a_sweep_retries_a_failed_spec(self, tmp_path):
        """Re-running its sweep retries a failed cell with a fresh attempt budget."""
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=21)
        cells = cells_from_run_specs([spec])
        with ResultStore(tmp_path / "r.sqlite") as store:
            _enqueue(store, cells)
            # fail the row the way a worker does: claim, then record the failure
            claim = store.claim_cell("crasher")
            experiment, params, seed = row_identity(claim.spec_json)
            store.record_failure(experiment, params, seed, "boom", spec_json=claim.spec_json)
            assert [row.state for row in store.queue_cells()] == ["failed"]
            report = SweepRunner(store, jobs=1).run_cells(cells)
            assert (report.executed, report.failed) == (1, 0)
            (row,) = store.queue_cells()
            assert (row.spec_hash, row.state, row.attempt) == (spec.spec_hash(), "done", 1)
            stored = store.get_by_spec_hash(spec.spec_hash())
            assert stored.ok and stored.error is None
            assert RunResult.from_dict(json.loads(stored.result_json)).same_outcome(run(spec))

    def test_twins_dedup_before_enqueueing(self, tmp_path):
        cells = expand_cells(_tiny_definition(reps=1))[:1]
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(cells + [cells[0]])
            assert report.executed == 1
            assert report.cached == 1
            assert store.queue_depth()["done"] == 1

    def test_memory_store_rejected_for_multiprocess_queue(self):
        with ResultStore(":memory:") as store:
            runner = SweepRunner(store, jobs=2)
            with pytest.raises(ValueError, match="file-backed"):
                runner.run(_tiny_definition(reps=1))

    def test_memory_store_fine_for_inprocess_queue(self):
        with ResultStore(":memory:") as store:
            report = SweepRunner(store, jobs=1).run(_tiny_definition(reps=1))
            assert report.executed == report.total > 0

    def test_invalid_queue_knobs_rejected(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError, match="jobs"):
                SweepRunner(store, jobs=0)


# --------------------------------------------------------------------------- #
# real sweep processes on one store
# --------------------------------------------------------------------------- #
#: an ``engine`` cell of ~1.4 s: a window wide enough to kill a sweep into
SLOW_SPEC = RunSpec(protocol="drr-gossip", params={"n": 4096}, backend="engine", seed=7)


class TestSweepProcesses:
    def test_two_concurrent_sweeps_run_each_cell_once(self, tmp_path):
        path = tmp_path / "r.sqlite"
        config = tmp_path / "tiny.json"
        config.write_text(json.dumps({
            "sweep": {"name": "tiny", "seed": 5, "repetitions": 2},
            "experiment": [
                {"name": "table1", "grid": {"ns": [64, 128], "repetitions": 1}},
                {"name": "ablation", "grid": {"n": 64, "repetitions": 1}},
            ],
        }))
        sweeps = [_sweep(path, "--config", str(config)) for _ in range(2)]
        try:
            for proc in sweeps:
                out, err = proc.communicate(timeout=120)
                assert proc.returncode == 0, f"sweep failed:\n{out}\n{err}"
                assert "0 failed" in out
        finally:
            for proc in sweeps:
                _kill(proc)
        cells = expand_cells(_tiny_definition())
        with ResultStore(path) as store:
            rows = store.queue_cells()
            assert len(rows) == len(cells)
            # every cell executed exactly once: terminal state reached on
            # the first (and only) claim, by whichever sweep's drain won it
            assert all((row.state, row.attempt) == ("done", 1) for row in rows)
            assert store.completed_cells() == {cell.key for cell in cells}
        assert _owner_locks(path) == []

    def test_sigterm_mid_cell_hands_the_claim_back(self, tmp_path):
        """A terminated drain releases its claim and its lock file before it exits."""
        path = tmp_path / "r.sqlite"
        # Millions of small DRR runs: hours of work, so the SIGTERM lands
        # mid-cell however late this test sees the claim.
        config = tmp_path / "endless.json"
        config.write_text(json.dumps({
            "sweep": {"name": "endless", "seed": 7, "repetitions": 1},
            "experiment": [{"name": "ablation", "grid": {"n": 64, "repetitions": 10**7}}],
        }))
        victim = _sweep(path, "--config", str(config))
        try:
            _await_claims(path, 1)
            os.killpg(victim.pid, signal.SIGTERM)
            victim.communicate(timeout=30)
            with ResultStore(path) as store:
                _await(lambda: store.queue_depth()["pending"] == 1, "the claim's release")
                (row,) = store.queue_cells()
                assert row.owner is None
                assert row.claim_time is None
                assert row.attempt == 1  # the claim is spent, not the budget
                assert store.query() == []  # nothing half-recorded
            _await(lambda: _owner_locks(path) == [], "the drain's lock file to go")
        finally:
            _kill(victim)

    def _kill_and_resume(self, tmp_path, spec: RunSpec):
        """SIGKILL a sweep's whole process group mid-cell, then resume it in-process."""
        path = tmp_path / "r.sqlite"
        specs = _spec_file(tmp_path, [spec])
        victim = _sweep(path, "--spec", specs)
        try:
            _await_claims(path, 1)
            os.killpg(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            _kill(victim)
        assert _owner_locks(path)  # the dead drain's lock file stayed behind
        start = time.monotonic()
        assert main(["sweep", "--spec", specs, "--store", str(path), "--jobs", "2"]) == 0
        elapsed = time.monotonic() - start
        with ResultStore(path) as store:
            (row,) = store.queue_cells()
            assert row.state == "done"
            assert row.attempt == 2  # the killed claim plus the rerun
            stored = store.get_by_spec_hash(spec.spec_hash())
            assert stored is not None and stored.ok
        assert _owner_locks(path) == []
        assert elapsed < 20  # the orphaned claim ran at once
        return RunResult.from_dict(json.loads(stored.result_json))

    def test_sigkilled_sweep_resumes_its_orphaned_claim_at_once(self, tmp_path):
        assert self._kill_and_resume(tmp_path, SLOW_SPEC).same_outcome(run(SLOW_SPEC))

    def test_sigkilled_churn_sweep_resumes_and_matches_local(self, tmp_path):
        """Fault injection meets fault tolerance: a churn cell survives its killed sweep.

        The sweep is SIGKILLed while executing a run whose *spec* injects
        mid-run node churn; the resume reclaims the orphaned claim and
        reruns the cell, and — because churn fates are identity-keyed, not
        stream-keyed — the rescued result is bit-identical to a local
        execution of the spec.
        """
        spec = RunSpec(
            protocol="drr-gossip",
            params={"n": 4096},
            backend="engine",
            seed=7,
            failures={
                "loss_probability": 0.05,
                "churn_rate": 0.001,
                "churn_schedule": [[3, [2, 7, 11], "crash"]],
            },
        )
        rescued = self._kill_and_resume(tmp_path, spec)
        assert rescued.same_outcome(run(spec))
        assert rescued.degradation is not None  # churn section survived the queue

    def test_killing_only_the_sweep_parent_runs_nothing_twice(self, tmp_path):
        """Orphaned drains finish their cells; the resumed sweep runs none of them again."""
        path = tmp_path / "r.sqlite"
        specs = [SLOW_SPEC.with_seed(seed) for seed in (7, 8)]
        specs.append(RunSpec(protocol="drr", params={"n": 64}, seed=9))
        spec_file = _spec_file(tmp_path, specs)
        parent = _sweep(path, "--spec", spec_file)
        try:
            _await_claims(path, 2)
            parent.kill()  # the parent alone: its forked drains run on
            parent.wait(timeout=30)
            assert main(["sweep", "--spec", spec_file, "--store", str(path), "--jobs", "2"]) == 0
            with ResultStore(path) as store:
                rows = store.queue_cells()
                assert [(row.state, row.attempt) for row in rows] == [("done", 1)] * 3
            _await(lambda: _owner_locks(path) == [], "the orphaned drains to end")
        finally:
            _kill(parent)


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestQueueCLI:
    def test_results_queue_flags_orphaned_claims(self, tmp_path, capsys):
        path = tmp_path / "r.sqlite"
        cells = expand_cells(_tiny_definition(reps=1))
        with ResultStore(path) as store:
            _enqueue(store, cells)
            store.claim_cell("dead-worker")  # its drain is gone: no lock is held
            lock = store.mark_heartbeat("live-worker")
            store.claim_cell("live-worker")
            assert main(["results", "--store", str(path), "--queue"]) == 0
            store.release_owner("live-worker", lock)
        out = capsys.readouterr().out
        assert "2 claim(s) in flight, 1 orphaned" in out
        assert "reclaims them at once" in out
        (dead,) = [line for line in out.splitlines() if "dead-worker" in line]
        (live,) = [line for line in out.splitlines() if "live-worker" in line]
        assert dead.endswith("dead-worker  orphaned")
        assert live.endswith("live-worker")
        assert dead.split()[3] == "1"  # attempt
        with ResultStore(path) as store:
            assert store.queue_depth()["claimed"] == 2  # the view released nothing

    def test_sweep_with_forked_drains(self, tmp_path, capsys):
        store = str(tmp_path / "r.sqlite")
        assert main([
            "sweep", "--experiments", "ablation", "--reps", "2",
            "--seed", "11", "--store", store, "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 skipped, 0 failed" in out
        with ResultStore(store) as s:
            assert s.queue_depth()["done"] == 2
            assert all(row.attempt == 1 for row in s.queue_cells())
