"""Simulation service: HTTP job API + content-addressed result cache.

Covers the whole stack, thin to thick:

* :class:`~repro.service.manager.ServiceManager` — submission dedup
  (cache hit / in-flight attach / enqueue), status and result reads;
* :class:`~repro.service.routers.Router` — URL shapes, status codes,
  telemetry counters, no transport required;
* HTTP end-to-end — :class:`ServiceServer` + :class:`ServiceClient`
  with real queue workers: overlapping clients, concurrent duplicate
  POSTs, and bit-identical parity with direct ``repro.run``;
* the store's spec-hash layer — content-address invariant and the
  migration backfill for stores created before the service existed.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time

import pytest

from repro.api import RunResult, RunSpec, run
from repro.observability.telemetry import Telemetry
from repro.orchestration import QueueWorker, ResultStore, cell_spec_hash, cells_from_run_specs
from repro.orchestration.worker import row_identity
from repro.service import Router, ServiceClient, ServiceError, ServiceManager, ServiceServer


def _spec_doc(n: int = 64, seed: int = 3, protocol: str = "drr-gossip") -> dict:
    return {"protocol": protocol, "params": {"n": n}, "seed": seed}


def _drain(path) -> None:
    """Run one in-process worker over the service's store until empty."""
    with ResultStore(path) as store:
        QueueWorker(store, worker_id="drainer", poll_interval_s=0.05).drain()


@contextlib.contextmanager
def _service(tmp_path):
    path = tmp_path / "svc.sqlite"
    with ServiceServer(path, port=0) as server:
        yield server, path


# --------------------------------------------------------------------------- #
# manager: submission dedup + reads
# --------------------------------------------------------------------------- #
class TestServiceManager:
    def test_submit_content_addresses_by_spec_hash(self, tmp_path):
        doc = _spec_doc()
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            submitted = manager.submit(doc)
            # the public run id IS the spec's canonical hash
            assert submitted["run_id"] == RunSpec(**doc).spec_hash()
            assert submitted["state"] == "pending"
            assert submitted["cached"] is False
            assert manager.queue()["depth"]["pending"] == 1

    def test_inflight_duplicate_attaches_without_second_row(self, tmp_path):
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            first = manager.submit(_spec_doc())
            twin = manager.submit(_spec_doc())
            assert twin["run_id"] == first["run_id"]
            assert twin["state"] == "pending"
            assert twin["cached"] is False  # attached, not served from cache
            assert manager.queue()["depth"]["pending"] == 1

    def test_completed_spec_served_from_cache(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            submitted = manager.submit(_spec_doc())
            _drain(path)
            again = manager.submit(_spec_doc())
            assert again == {"run_id": submitted["run_id"], "state": "done", "cached": True}
            assert manager.queue()["depth"]["pending"] == 0
            status, body = manager.result(submitted["run_id"])
            assert status == 200
            assert body["cached"] is True
            assert body["result"]["rounds"] >= 1

    def test_sweep_fans_out_with_repetitions_and_dedups_twins(self, tmp_path):
        doc = {"runs": [_spec_doc(64), _spec_doc(96), _spec_doc(64)], "repetitions": 2}
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            sweep = manager.submit_sweep(doc)
            # 3 specs x 2 derived-seed repetitions, the twin's pair cached
            assert sweep["count"] == 6
            assert sweep["cached"] == 2
            assert len({r["run_id"] for r in sweep["runs"]}) == 4
            assert manager.queue()["depth"]["pending"] == 4

    def test_submit_rejects_multi_spec_and_bad_repetitions(self, tmp_path):
        from repro.api import SpecValidationError

        with ServiceManager(tmp_path / "s.sqlite") as manager:
            with pytest.raises(SpecValidationError, match="exactly one"):
                manager.submit({"runs": [_spec_doc(64), _spec_doc(96)]})
            for bad in (0, -2, "many"):
                with pytest.raises(SpecValidationError, match="repetitions"):
                    manager.submit_sweep({"runs": [_spec_doc()], "repetitions": bad})

    def test_status_lifecycle_pending_then_done(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            run_id = manager.submit(_spec_doc())["run_id"]
            pending = manager.status(run_id)
            assert pending["state"] == "pending"
            assert pending["attempt"] == 0
            assert pending["has_result"] is False
            _drain(path)
            done = manager.status(run_id)
            assert done["state"] == "done"
            assert done["attempt"] == 1
            assert done["has_result"] is True
            assert done["duration_s"] > 0

    def test_status_unknown_id_is_none(self, tmp_path):
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            assert manager.status("ab" * 8) is None

    def test_result_codes_track_run_state(self, tmp_path):
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            run_id = manager.submit(_spec_doc())["run_id"]
            status, body = manager.result(run_id)
            assert status == 409  # still pending: poll later
            assert body["state"] == "pending"
            status, body = manager.result("ff" * 8)
            assert status == 404

    def test_failed_run_reported_with_error(self, tmp_path):
        path = tmp_path / "s.sqlite"
        (cell,) = cells_from_run_specs([RunSpec(**_spec_doc())])
        experiment, params, seed = row_identity(cell.spec_json())
        with ResultStore(path) as store:
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
        with ServiceManager(path) as manager:
            run_id = cell_spec_hash(cell.spec_json())
            assert manager.status(run_id)["state"] == "failed"
            assert manager.status(run_id)["error"] == "boom"
            status, body = manager.result(run_id)
            assert status == 409
            assert body == {"run_id": run_id, "state": "failed", "error": "boom"}

    def test_retry_resets_failed_row_to_pending(self, tmp_path):
        """The operator path for poison cells: failed → pending, fresh budget."""
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            run_id = manager.submit(_spec_doc(64, seed=21))["run_id"]
            # fail the row the way a worker does: claim, record, finish
            with ResultStore(path) as store:
                cell = store.claim_cell("crasher")
                experiment, params, seed = row_identity(cell.spec_json)
                store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json)
                store.finish_cell(cell.key, "failed")
            assert manager.status(run_id)["state"] == "failed"
            status, body = manager.retry(run_id)
            assert status == 202
            assert body == {"run_id": run_id, "state": "pending", "retried": True}
            with ResultStore(path) as store:
                row = store.queue_cell_by_spec_hash(run_id)
                assert row.state == "pending"
                assert row.attempt == 0  # full fresh attempt budget
                assert row.owner is None
            assert manager.status(run_id)["state"] == "pending"
            # the retried cell executes and overwrites the failure row
            _drain(path)
            assert manager.status(run_id)["state"] == "done"
            assert manager.result(run_id)[0] == 200

    def test_retry_conflicts_on_every_non_failed_state(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            status, body = manager.retry("ff" * 8)
            assert status == 404
            run_id = manager.submit(_spec_doc(64, seed=22))["run_id"]
            status, body = manager.retry(run_id)
            assert status == 409
            assert body["state"] == "pending"
            assert body["retried"] is False
            with ResultStore(path) as store:
                store.claim_cell("w1")
            status, body = manager.retry(run_id)
            assert status == 409
            assert body["state"] == "claimed"
            with ResultStore(path) as store:
                store.release_claims("w1")
            _drain(path)
            status, body = manager.retry(run_id)
            assert status == 409
            assert body["state"] == "done"

    def test_retry_without_queue_row_names_the_gap(self, tmp_path):
        """A failure recorded before the service era has no row to reset."""
        path = tmp_path / "s.sqlite"
        (cell,) = cells_from_run_specs([RunSpec(**_spec_doc())])
        experiment, params, seed = row_identity(cell.spec_json())
        with ResultStore(path) as store:
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
        with ServiceManager(path) as manager:
            status, body = manager.retry(cell_spec_hash(cell.spec_json()))
            assert status == 409
            assert body["state"] == "failed"
            assert "resubmit" in body["error"]

    def test_healthz_reports_store_identity(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            manager.submit(_spec_doc())
            health = manager.healthz()
            assert health["status"] == "ok"
            assert health["store"] == str(path)
            assert health["queue"]["pending"] == 1


# --------------------------------------------------------------------------- #
# router: URL shapes + status codes (no HTTP transport)
# --------------------------------------------------------------------------- #
class TestRouter:
    def test_submit_codes_202_enqueued_200_cached(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            router = Router(manager)
            status, doc = router.route("POST", "/v1/runs", _spec_doc())
            assert status == 202
            assert doc["cached"] is False
            _drain(path)
            status, doc = router.route("POST", "/v1/runs", _spec_doc())
            assert status == 200
            assert doc["cached"] is True

    def test_error_mapping(self, tmp_path):
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            router = Router(manager)
            assert router.route("POST", "/v1/runs", None)[0] == 400
            # flat params are the canonical submission mistake: 400 + message
            status, doc = router.route(
                "POST", "/v1/runs", {"protocol": "drr-gossip", "n": 64}
            )
            assert status == 400
            assert "unknown keys" in doc["error"]
            assert router.route("GET", f"/v1/runs/{'ab' * 8}", None)[0] == 404
            assert router.route("GET", "/v1/nope", None)[0] == 404
            assert router.route("DELETE", "/v1/runs", None)[0] == 405

    def test_run_id_paths_must_look_like_hashes(self, tmp_path):
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            router = Router(manager)
            # non-hex id falls through to the 404 route, never the manager
            assert router.route("GET", "/v1/runs/not-a-hash", None)[0] == 404
            assert router.route("GET", "/v1/runs/ABCDEF12", None)[0] == 404
            assert router.route("POST", "/v1/runs/not-a-hash/retry", None)[0] == 404

    def test_retry_route_maps_manager_codes(self, tmp_path):
        with ServiceManager(tmp_path / "s.sqlite") as manager:
            router = Router(manager)
            assert router.route("POST", f"/v1/runs/{'ff' * 8}/retry", None)[0] == 404
            run_id = manager.submit(_spec_doc())["run_id"]
            status, doc = router.route("POST", f"/v1/runs/{run_id}/retry", None)
            assert status == 409
            assert doc["state"] == "pending"

    def test_requests_counted_and_spans_aggregated(self, tmp_path):
        telemetry = Telemetry()
        path = tmp_path / "s.sqlite"
        with ServiceManager(path, telemetry=telemetry) as manager:
            router = Router(manager)
            router.route("POST", "/v1/runs", _spec_doc())
            run_id = RunSpec(**_spec_doc()).spec_hash()
            router.route("GET", f"/v1/runs/{run_id}", None)
            router.route("POST", "/v1/runs", {"protocol": "drr-gossip", "n": 1})
            doc = telemetry.as_dict()
            assert doc["counters"]["service.requests"] == 3
            assert doc["counters"]["service.rejected"] == 1
            assert doc["counters"]["service.enqueued"] == 1
            # ids are collapsed out of span names so latency aggregates
            assert "service.GET /v1/runs/{id}" in doc["spans"]


# --------------------------------------------------------------------------- #
# HTTP end-to-end: real server, real clients, real workers
# --------------------------------------------------------------------------- #
class TestServiceHTTP:
    def test_two_clients_overlapping_specs_execute_once(self, tmp_path):
        """The PR's acceptance scenario, minus the subprocess worker pool."""
        specs = [_spec_doc(n, seed=5) for n in (64, 96, 128)]
        with _service(tmp_path) as (server, path):
            with ServiceClient(server.url) as alice, ServiceClient(server.url) as bob:
                sub_a = [alice.submit(s) for s in specs[:2]]
                sub_b = [bob.submit(s) for s in specs[1:]]
                # the overlap attached to alice's pending row
                assert sub_b[0]["run_id"] == sub_a[1]["run_id"]
                assert sub_b[0]["cached"] is False
                _drain(path)
                # every spec executed exactly once: one terminal row per
                # spec, each reached on its first (and only) claim
                with ResultStore(path) as store:
                    rows = store.queue_cells()
                    assert len(rows) == len(specs)
                    assert all(r.state == "done" for r in rows)
                    assert all(r.attempt == 1 for r in rows)
                # resubmissions from either client are cache hits now
                for client, subset in ((alice, specs[:2]), (bob, specs[1:])):
                    for spec in subset:
                        again = client.submit(spec)
                        assert again["cached"] is True
                        assert again["state"] == "done"
                        assert again["_status"] == 200
                # served envelopes are bit-identical to direct execution
                for spec in specs:
                    run_id = RunSpec(**spec).spec_hash()
                    served = RunResult.from_dict(alice.result(run_id)["result"])
                    assert served.same_outcome(run(spec))

    def test_concurrent_duplicate_posts_one_row_one_execution(self, tmp_path):
        """N racing clients POST one spec: one queue row, N identical results."""
        workers = 6
        doc = _spec_doc(96, seed=11)
        with _service(tmp_path) as (server, path):
            barrier = threading.Barrier(workers)
            responses: list[dict] = []
            errors: list[BaseException] = []
            lock = threading.Lock()

            def post() -> None:
                try:
                    with ServiceClient(server.url) as client:
                        barrier.wait()
                        submitted = client.submit(doc)
                    with lock:
                        responses.append(submitted)
                except BaseException as exc:
                    with lock:
                        errors.append(exc)

            threads = [threading.Thread(target=post) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert errors == []
            assert len(responses) == workers
            assert len({r["run_id"] for r in responses}) == 1
            with ResultStore(path) as store:
                assert len(store.queue_cells()) == 1  # the race enqueued once
            _drain(path)
            with ResultStore(path) as store:
                (row,) = store.queue_cells()
                assert row.state == "done"
                assert row.attempt == 1  # one execution total
            run_id = responses[0]["run_id"]
            with ServiceClient(server.url) as client:
                results = [client.result(run_id) for _ in range(workers)]
            assert all(r == results[0] for r in results)
            assert results[0]["cached"] is True

    def test_result_409_until_done_then_wait_for(self, tmp_path):
        with _service(tmp_path) as (server, path):
            with ServiceClient(server.url) as client:
                run_id = client.submit(_spec_doc(64, seed=2))["run_id"]
                early = client.result(run_id)
                assert early["_status"] == 409
                assert early["state"] == "pending"
                drainer = threading.Thread(target=_drain, args=(path,))
                drainer.start()
                status = client.wait_for(run_id, timeout_s=60, poll_s=0.05)
                drainer.join(timeout=60)
                assert status["state"] == "done"
                final = client.result(run_id)
                assert final["_status"] == 200
                assert final["result"]["spec"]["seed"] == 2

    def test_retry_endpoint_end_to_end(self, tmp_path):
        with _service(tmp_path) as (server, path):
            with ServiceClient(server.url) as client:
                run_id = client.submit(_spec_doc(64, seed=31))["run_id"]
                conflict = client.retry(run_id)
                assert conflict["_status"] == 409
                assert conflict["retried"] is False
                with ResultStore(path) as store:
                    cell = store.claim_cell("crasher")
                    experiment, params, seed = row_identity(cell.spec_json)
                    store.record_failure(
                        experiment, params, seed, "boom", spec_json=cell.spec_json
                    )
                    store.finish_cell(cell.key, "failed")
                retried = client.retry(run_id)
                assert retried["_status"] == 202
                assert retried["retried"] is True
                _drain(path)
                assert client.status(run_id)["state"] == "done"
                assert client.result(run_id)["_status"] == 200

    def test_http_error_surfaces_as_service_error(self, tmp_path):
        with _service(tmp_path) as (server, _):
            with ServiceClient(server.url) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.submit({"protocol": "drr-gossip", "n": 64})
                assert excinfo.value.status == 400
                assert "unknown keys" in str(excinfo.value)

    def test_sweep_queue_and_healthz_endpoints(self, tmp_path):
        with _service(tmp_path) as (server, path):
            with ServiceClient(server.url) as client:
                sweep = client.submit_sweep([_spec_doc(64), _spec_doc(96)])
                assert sweep["_status"] == 202
                assert sweep["count"] == 2
                assert client.queue()["depth"]["pending"] == 2
                assert client.healthz()["status"] == "ok"
                _drain(path)
                assert client.queue()["depth"]["done"] == 2

    def test_client_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="http"):
            ServiceClient("https://example.com")
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("http://127.0.0.1:1", retries=-1)


# --------------------------------------------------------------------------- #
# store: content-address invariant + legacy migration backfill
# --------------------------------------------------------------------------- #
class TestSpecHashStore:
    def test_cell_spec_hash_equals_public_spec_hash(self):
        spec = RunSpec(protocol="drr-gossip", params={"n": 64}, seed=5)
        (cell,) = cells_from_run_specs([spec])
        assert cell_spec_hash(cell.spec_json()) == spec.spec_hash()

    def test_get_by_spec_hash_round_trips_recorded_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        (cell,) = cells_from_run_specs([RunSpec(**_spec_doc())])
        experiment, params, seed = row_identity(cell.spec_json())
        digest = cell_spec_hash(cell.spec_json())
        with ResultStore(path) as store:
            assert store.get_by_spec_hash(digest) is None
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
            found = store.get_by_spec_hash(digest)
            assert found is not None
            assert found.spec_hash == digest
            assert found.error == "boom"

    def test_drained_cell_stores_replayable_result_json(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ServiceManager(path) as manager:
            run_id = manager.submit(_spec_doc(64, seed=9))["run_id"]
        _drain(path)
        with ResultStore(path) as store:
            stored = store.get_by_spec_hash(run_id)
            assert stored is not None and stored.ok
            envelope = RunResult.from_dict(json.loads(stored.result_json))
            assert envelope.same_outcome(run(_spec_doc(64, seed=9)))

    def test_legacy_store_migration_backfills_spec_hashes(self, tmp_path):
        """A pre-service store gains spec_hash columns + backfill on reopen."""
        path = tmp_path / "legacy.sqlite"
        (cell,) = cells_from_run_specs([RunSpec(**_spec_doc())])
        experiment, params, seed = row_identity(cell.spec_json())
        digest = cell_spec_hash(cell.spec_json())
        with ResultStore(path) as store:
            store.enqueue_cells([(cell.experiment, cell.param_hash, cell.seed, cell.spec_json())])
            store.record_failure(experiment, params, seed, "boom", spec_json=cell.spec_json())
        # strip the service-era columns to reconstruct the old schema
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
            row = store.queue_cell_by_spec_hash(digest)
            assert row is not None
            assert row.key == cell.key
