"""Tests for the observability layer: telemetry, logging, heartbeats.

The headline guarantee under test: telemetry *observes* execution without
influencing it.  Same-seed runs are bit-identical with telemetry on or off
for every registered protocol on the ``vectorized`` and ``engine``
backends, on reliable and lossy networks; spec/param hashes ignore the toggle (so store resume is
untouched); and ``RunResult.same_outcome`` never looks at the telemetry
section.
"""

from __future__ import annotations

import io
import json
import logging
import sqlite3
import time

import pytest

import repro
from repro import RunSpec
from repro.api import RunResult
from repro.core import run_drr
from repro.observability import (
    NULL_TELEMETRY,
    Heartbeat,
    NullTelemetry,
    RoundSampler,
    Telemetry,
    configure_logging,
    current_telemetry,
    events_from_telemetry,
    format_telemetry,
    get_logger,
    instrumented,
    use_telemetry,
    write_events_jsonl,
)
from repro.orchestration import ResultStore, SweepRunner, cells_from_run_specs
from repro.simulator import FailureModel
from repro.simulator.errors import ConfigurationError
from repro.simulator.trace import Tracer

from test_api import FAILURE_MODELS, PROTOCOL_SPECS


def _spec_for(
    protocol: str,
    backend: str,
    failures: FailureModel,
    seed: int = 5,
    telemetry: bool = False,
) -> RunSpec:
    base = PROTOCOL_SPECS[protocol]
    return RunSpec(
        protocol=protocol,
        params=base.get("params", {}),
        topology=base.get("topology"),
        failures=failures,
        backend=backend,
        seed=seed,
        telemetry=telemetry,
    )


# --------------------------------------------------------------------------- #
# RoundSampler
# --------------------------------------------------------------------------- #
class TestRoundSampler:
    def test_small_runs_keep_every_sample(self):
        sampler = RoundSampler(cap=16)
        for value in (0.5, 0.25, 1.5):
            sampler.add(value)
        assert sampler.samples == [0.5, 0.25, 1.5]
        assert sampler.stride == 1

    def test_decimation_bounds_memory_and_keeps_exact_stats(self):
        sampler = RoundSampler(cap=16)
        values = [float(i) for i in range(10_000)]
        for value in values:
            sampler.add(value)
        assert len(sampler.samples) <= 16
        assert sampler.count == 10_000
        assert sampler.total == pytest.approx(sum(values))
        assert sampler.min == 0.0
        assert sampler.max == 9_999.0
        # stride doubles on every decimation
        assert sampler.stride & (sampler.stride - 1) == 0
        assert sampler.stride > 1
        # retained samples are an evenly strided subsample, in order
        assert sampler.samples == sorted(sampler.samples)

    def test_as_dict_shapes(self):
        empty = RoundSampler()
        assert empty.as_dict() == {"count": 0}
        sampler = RoundSampler()
        sampler.add(2.0)
        doc = sampler.as_dict()
        assert doc["count"] == 1
        assert doc["mean_s"] == 2.0
        assert doc["samples_s"] == [2.0]

    def test_tiny_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            RoundSampler(cap=1)


# --------------------------------------------------------------------------- #
# Telemetry object
# --------------------------------------------------------------------------- #
class TestTelemetry:
    def test_null_telemetry_is_free_and_shared(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.as_dict() == {}
        # the null span context is one shared object, not a fresh allocation
        assert NULL_TELEMETRY.span("a") is NULL_TELEMETRY.span("b")
        with NULL_TELEMETRY.span("anything"):
            pass
        NULL_TELEMETRY.count("x")
        NULL_TELEMETRY.round_tick()
        NULL_TELEMETRY.finish()

    def test_phases_rounds_spans_counters_gauges(self):
        tel = Telemetry()
        tel.phase_begin("alpha")
        tel.round_tick()
        tel.round_tick()
        tel.round_tick()
        tel.phase_begin("beta")
        with tel.span("prim"):
            pass
        tel.add_span("prim", 0.5)
        tel.count("widgets")
        tel.count("widgets", 2)
        tel.gauge_max("arena", 10)
        tel.gauge_max("arena", 5)  # lower value must not win
        doc = tel.as_dict()
        assert list(doc["phases"]) == ["alpha", "beta"]
        # 3 ticks in a phase = 2 measured inter-tick durations
        assert doc["phases"]["alpha"]["rounds"]["count"] == 2
        assert doc["phases"]["beta"]["rounds"] == {"count": 0}
        assert doc["spans"]["prim"]["count"] == 2
        assert doc["spans"]["prim"]["max_s"] >= 0.5
        assert doc["counters"] == {"widgets": 3}
        assert doc["gauges"] == {"arena": 10}
        assert doc["wall_s"] > 0.0
        assert doc.get("peak_rss_bytes", 1) > 0

    def test_round_ticks_before_any_phase_open_a_default_phase(self):
        tel = Telemetry()
        tel.round_tick()
        tel.round_tick()
        doc = tel.as_dict()
        assert doc["phases"]["default"]["rounds"]["count"] == 1

    def test_finish_is_idempotent(self):
        tel = Telemetry()
        tel.phase_begin("p")
        tel.finish()
        wall = tel.as_dict()["wall_s"]
        time.sleep(0.01)
        tel.finish()
        assert tel.as_dict()["wall_s"] == wall

    def test_snapshot_is_live(self):
        tel = Telemetry()
        tel.phase_begin("gossip")
        tel.round_tick()
        tel.round_tick()
        snap = tel.snapshot()
        assert snap["phase"] == "gossip"
        assert snap["rounds"] == 1
        assert snap["elapsed_s"] >= 0.0

    def test_use_telemetry_installs_and_restores(self):
        assert current_telemetry() is NULL_TELEMETRY
        tel = Telemetry()
        with use_telemetry(tel):
            assert current_telemetry() is tel
            with use_telemetry(None):
                assert current_telemetry() is NULL_TELEMETRY
            assert current_telemetry() is tel
        assert current_telemetry() is NULL_TELEMETRY

    def test_instrumented_decorator(self):
        calls = []

        @instrumented("unit.op")
        def op(x):
            calls.append(x)
            return x * 2

        assert op.__wrapped__(3) == 6  # undecorated original stays reachable
        assert op(1) == 2  # disabled: no recording
        tel = Telemetry()
        with use_telemetry(tel):
            assert op(2) == 4
        spans = tel.as_dict().get("spans", {})
        assert spans["unit.op"]["count"] == 1
        assert calls == [3, 1, 2]

    def test_format_telemetry_summary(self):
        tel = Telemetry()
        tel.phase_begin("drr")
        tel.count("worker.cells", 4)
        text = format_telemetry(tel.as_dict())
        assert "telemetry" in text
        assert "phase drr" in text
        assert "worker.cells" in text
        assert format_telemetry({}) == "(no telemetry recorded)"

    @pytest.mark.parametrize("aggregate", ["average", "max"])
    def test_tree_schedule_span_once_per_drr_gossip_run(self, aggregate):
        spec = RunSpec(
            protocol="drr-gossip",
            params={"n": 2000, "aggregate": aggregate},
            backend="vectorized",
            seed=3,
            telemetry=True,
        )
        spans = repro.run(spec).telemetry["spans"]
        # the one forest is indexed once, and the convergecast and both
        # broadcasts share one schedule build over that index
        assert spans["forest.tree_index"]["count"] == 1
        assert spans["core.tree_schedule"]["count"] == 1
        assert spans["substrate.convergecast_layers"]["count"] == 1
        assert spans["substrate.broadcast_layers"]["count"] == 2


# --------------------------------------------------------------------------- #
# neutrality: telemetry never changes outcomes or identities
# --------------------------------------------------------------------------- #
class TestTelemetryNeutrality:
    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SPECS))
    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    @pytest.mark.parametrize("failures", FAILURE_MODELS, ids=["reliable", "lossy"])
    def test_same_seed_outcome_identical_with_telemetry_on(self, protocol, backend, failures):
        plain = repro.run(_spec_for(protocol, backend, failures))
        traced = repro.run(_spec_for(protocol, backend, failures, telemetry=True))
        assert traced.same_outcome(plain)
        assert plain.telemetry is None
        assert traced.telemetry is not None
        assert traced.telemetry["wall_s"] > 0.0
        assert traced.telemetry["phases"]

    def test_spec_hashes_ignore_the_toggle(self):
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=9)
        traced = spec.with_telemetry()
        assert traced.telemetry is True
        assert traced.spec_hash() == spec.spec_hash()
        assert traced.param_hash() == spec.param_hash()
        assert spec.to_dict().get("telemetry") is None  # omitted when off
        assert traced.to_dict()["telemetry"] is True  # transport keeps it
        assert RunSpec.from_dict(traced.to_dict()) == traced
        assert traced.describe().endswith("+telemetry")

    def test_result_envelope_round_trips_and_ignores_telemetry(self):
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=9, telemetry=True)
        result = repro.run(spec)
        decoded = RunResult.from_json(result.to_json())
        assert decoded.telemetry == result.telemetry
        assert decoded.same_outcome(result)
        # same_outcome must not look at the telemetry section at all
        plain = repro.run(spec.with_telemetry(False))
        assert plain.to_dict().get("telemetry") is None
        assert plain.same_outcome(result)

        # ...but it does compare the degradation section, NaN equal to NaN
        def with_degradation(**section) -> RunResult:
            return RunResult.from_dict({**plain.to_dict(), "degradation": section})

        nan = float("nan")
        churned = with_degradation(survivor_mass_rel_error=nan, epoch_errors=[0.5, nan])
        assert churned.same_outcome(
            with_degradation(survivor_mass_rel_error=nan, epoch_errors=[0.5, nan])
        )
        assert not churned.same_outcome(plain)
        assert not churned.same_outcome(
            with_degradation(survivor_mass_rel_error=nan, epoch_errors=[0.25, nan])
        )
        assert not churned.same_outcome(
            with_degradation(survivor_mass_rel_error=0.0, epoch_errors=[0.5, nan])
        )
        assert "telemetry" in result.describe()

    def test_explicit_recorder_wins_over_the_spec_toggle(self):
        tel = Telemetry()
        result = repro.run(RunSpec(protocol="drr", params={"n": 64}, seed=9), telemetry=tel)
        assert result.telemetry is not None
        assert result.telemetry == tel.as_dict()


# --------------------------------------------------------------------------- #
# tracing stays engine-only
# --------------------------------------------------------------------------- #
class TestTracerEngineOnly:
    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_columnar_backends_reject_an_enabled_tracer(self, backend):
        with pytest.raises(ConfigurationError, match="tracing is engine-only") as excinfo:
            run_drr(64, rng=1, backend=backend, tracer=Tracer())
        # the error points at telemetry as the columnar alternative
        assert "telemetry" in str(excinfo.value)

    def test_disabled_tracer_is_accepted_everywhere(self):
        from repro.simulator.trace import NullTracer

        result = run_drr(64, rng=1, backend="vectorized", tracer=NullTracer())
        assert result.rounds > 0

    def test_engine_backend_still_traces(self):
        tracer = Tracer()
        run_drr(64, rng=1, backend="engine", tracer=tracer)
        assert len(list(tracer.events())) > 0


# --------------------------------------------------------------------------- #
# JSONL event export
# --------------------------------------------------------------------------- #
EVENT_REQUIRED_KEYS = {
    "run": {"wall_s"},
    "phase": {"name", "wall_s", "rounds"},
    "round_samples": {"phase", "count", "mean_s", "min_s", "max_s", "samples_s"},
    "span": {"name", "count", "total_s"},
    "counter": {"name", "value"},
    "gauge": {"name", "value"},
}


def assert_events_follow_the_schema(events: list[dict]) -> None:
    """Every event carries its kind's required keys; run, phase and span events are present."""
    for event in events:
        assert event["event"] in EVENT_REQUIRED_KEYS
        missing = EVENT_REQUIRED_KEYS[event["event"]] - event.keys()
        assert not missing, f"{event['event']} event missing {missing}"
    assert {"run", "phase", "span"} <= {event["event"] for event in events}


@pytest.mark.parametrize("backend", ["vectorized", "engine"])
class TestJsonlExport:
    def _doc(self, backend):
        tel = Telemetry()
        result = repro.run(
            RunSpec(
                protocol="drr-gossip",
                params={"n": 64, "aggregate": "average"},
                backend=backend,
                seed=2,
            ),
            telemetry=tel,
        )
        assert result.telemetry is not None
        return result.telemetry

    def test_events_cover_the_schema(self, backend):
        events = list(events_from_telemetry(self._doc(backend)))
        assert_events_follow_the_schema(events)
        assert "round_samples" in {event["event"] for event in events}

    def test_write_and_append_jsonl(self, backend, tmp_path):
        doc = self._doc(backend)
        path = tmp_path / "events.jsonl"
        write_events_jsonl(doc, path)
        first = [json.loads(line) for line in path.read_text().splitlines()]
        assert first[0]["event"] == "run"
        assert_events_follow_the_schema(first)
        write_events_jsonl(doc, path, append=True)
        combined = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(combined) == 2 * len(first)
        write_events_jsonl(doc, path)  # overwrite mode truncates
        assert len(path.read_text().splitlines()) == len(first)


# --------------------------------------------------------------------------- #
# heartbeat thread
# --------------------------------------------------------------------------- #
class TestHeartbeat:
    def test_ticks_and_line_format(self):
        stream = io.StringIO()
        tel = Telemetry()
        tel.phase_begin("gossip")
        with Heartbeat(tel, interval_s=0.02, stream=stream, label="avg"):
            time.sleep(0.1)
        output = stream.getvalue()
        assert "[heartbeat] avg: elapsed=" in output
        assert "phase=gossip" in output

    def test_null_telemetry_still_reports_elapsed(self):
        stream = io.StringIO()
        beat = Heartbeat(NullTelemetry(), interval_s=0.02, stream=stream).start()
        time.sleep(0.06)
        beat.stop()
        beat.stop()  # idempotent
        assert beat.ticks >= 1
        assert "elapsed=" in stream.getvalue()
        assert "phase=" not in stream.getvalue()

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            Heartbeat(NullTelemetry(), interval_s=0.0)


# --------------------------------------------------------------------------- #
# logging hierarchy
# --------------------------------------------------------------------------- #
class TestLogging:
    def test_get_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("orchestration.store").name == "repro.orchestration.store"

    def test_configure_is_idempotent(self):
        root = configure_logging(0)
        before = [h for h in root.handlers if getattr(h, "_repro_cli_handler", False)]
        configure_logging(1)
        configure_logging(2)
        after = [h for h in root.handlers if getattr(h, "_repro_cli_handler", False)]
        assert len(before) == len(after) == 1
        assert root.level == logging.DEBUG
        assert root.propagate is False

    def test_verbosity_levels(self):
        assert configure_logging(-1).level == logging.ERROR
        assert configure_logging(0).level == logging.WARNING
        assert configure_logging(1).level == logging.INFO
        assert configure_logging(3).level == logging.DEBUG
        configure_logging(0)  # leave the default behind for other tests

    def test_store_migration_logs_instead_of_printing(self, tmp_path, caplog):
        path = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(_LEGACY_PR5_SCHEMA)
        conn.commit()
        conn.close()
        # configure_logging sets propagate=False on the repro root (its
        # handler is the sink of record); let records through to caplog here.
        root = get_logger()
        previous = root.propagate
        root.propagate = True
        try:
            with caplog.at_level(logging.INFO, logger="repro.orchestration.store"):
                with ResultStore(path):
                    pass
        finally:
            root.propagate = previous
        added = [r.getMessage() for r in caplog.records if "added" in r.getMessage()]
        assert any("telemetry_json" in m for m in added)


# --------------------------------------------------------------------------- #
# result store: telemetry column
# --------------------------------------------------------------------------- #
#: the runs schema before the telemetry column
_LEGACY_PR5_SCHEMA = """
CREATE TABLE runs (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    experiment  TEXT NOT NULL,
    param_hash  TEXT NOT NULL,
    seed        INTEGER NOT NULL,
    status      TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    params      TEXT NOT NULL,
    backend     TEXT,
    spec_json   TEXT,
    description TEXT NOT NULL DEFAULT '',
    headers     TEXT NOT NULL DEFAULT '[]',
    rows        TEXT NOT NULL DEFAULT '[]',
    notes       TEXT NOT NULL DEFAULT '[]',
    error       TEXT,
    duration_s  REAL,
    created_at  TEXT NOT NULL DEFAULT (datetime('now')),
    UNIQUE (experiment, param_hash, seed)
);
"""


class _FakeResult:
    description = "fake"
    headers = ("a",)
    rows = ({"a": 1},)
    notes = ()


class TestStoreTelemetry:
    def test_telemetry_round_trip(self, tmp_path):
        doc = {"wall_s": 1.25, "phases": {"drr": {"wall_s": 1.0, "rounds": {"count": 3}}}}
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_result(
                "exp", {"n": 8}, 1, _FakeResult(), telemetry_json=json.dumps(doc)
            )
            store.record_result("exp", {"n": 16}, 1, _FakeResult())
            runs = {run.params["n"]: run for run in store.query()}
        assert runs[8].telemetry == doc
        assert runs[8].as_dict()["telemetry"] == doc
        assert runs[16].telemetry is None
        assert runs[16].as_dict()["telemetry"] is None

    def test_failure_clears_telemetry(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.record_result(
                "exp", {"n": 8}, 1, _FakeResult(), telemetry_json=json.dumps({"wall_s": 1.0})
            )
            store.record_failure("exp", {"n": 8}, 1, "boom")
            run = store.query()[0]
        assert run.status == "failed"
        assert run.telemetry is None

    def test_legacy_store_migrates_in_place(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        conn = sqlite3.connect(str(path))
        conn.executescript(_LEGACY_PR5_SCHEMA)
        conn.execute(
            "INSERT INTO runs (experiment, param_hash, seed, status, params, backend)"
            " VALUES ('old', 'abc', 1, 'ok', '{}', 'vectorized')"
        )
        conn.commit()
        conn.close()
        with ResultStore(path) as store:
            run = store.query()[0]
            assert run.telemetry is None
            # the migrated store accepts telemetry writes
            store.record_result(
                "old", {}, 1, _FakeResult(), telemetry_json=json.dumps({"wall_s": 2.0})
            )
            assert store.query()[0].telemetry == {"wall_s": 2.0}


# --------------------------------------------------------------------------- #
# sweeps: per-cell telemetry
# --------------------------------------------------------------------------- #
class TestSweepTelemetry:
    def test_sweep_rows_carry_telemetry(self, tmp_path):
        spec = RunSpec(protocol="drr", params={"n": 48}, seed=3, telemetry=True)
        cells = cells_from_run_specs([spec])
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = SweepRunner(store, jobs=1).run_cells(cells, name="tel")
            assert report.executed == 1 and report.failed == 0
            run = store.query()[0]
            assert run.telemetry is not None
            assert run.telemetry["wall_s"] > 0.0
            assert store.claims() == []  # claim ended on record

            # resume is untouched by the toggle: the same spec without
            # telemetry hashes to the same cell and is skipped
            plain_cells = cells_from_run_specs([spec.with_telemetry(False)])
            assert plain_cells[0].param_hash == cells[0].param_hash
            resume = SweepRunner(store, jobs=1).run_cells(plain_cells, name="tel")
            assert resume.skipped == 1 and resume.executed == 0

    def test_sweep_without_telemetry_stores_none(self, tmp_path):
        spec = RunSpec(protocol="drr", params={"n": 48}, seed=3)
        with ResultStore(tmp_path / "s.sqlite") as store:
            SweepRunner(store, jobs=1).run_cells(cells_from_run_specs([spec]))
            assert store.query()[0].telemetry is None


# --------------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------------- #
class TestCli:
    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    def test_run_telemetry_prints_summary_and_writes_jsonl(self, backend, tmp_path, capsys):
        from repro.harness.cli import main

        events = tmp_path / "events.jsonl"
        rc = main(["run", "--n", "500", "--backend", backend, "--telemetry", str(events)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry        : wall" in out
        assert "phase drr" in out
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert lines[0]["event"] == "run"
        assert_events_follow_the_schema(lines)

    def test_run_spec_with_telemetry(self, tmp_path, capsys):
        from repro.harness.cli import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps({"protocol": "drr", "params": {"n": 64}, "seed": 4})
        )
        rc = main(["run", "--spec", str(spec_file), "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "+telemetry" in out
        assert "telemetry        : wall" in out

    def test_results_telemetry_lists_rows(self, tmp_path, capsys):
        from repro.harness.cli import main

        store_path = tmp_path / "s.sqlite"
        with ResultStore(store_path) as store:
            store.record_result(
                "exp", {"n": 8}, 1, _FakeResult(),
                telemetry_json=json.dumps({"wall_s": 0.5, "phases": {}}),
            )
            store.enqueue_cells([("exp", "abc", 2, '{"experiment": "exp"}')])
            store.claim_cell("w0")
        rc = main(["results", "--store", str(store_path), "--telemetry"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry        : wall 0.500s" in out
        assert "w0" not in out  # in-flight claims are the queue view's

    def test_results_queue_lists_in_flight_claims(self, tmp_path, capsys):
        from repro.harness.cli import main

        store_path = tmp_path / "s.sqlite"
        with ResultStore(store_path) as store:
            store.enqueue_cells([
                ("exp", "abc", 2, '{"experiment": "exp", "seed": 2}'),
                ("exp", "def", 3, '{"experiment": "exp", "seed": 3}'),
            ])
            lock = store.mark_heartbeat("w0")  # a live drain holds its owner lock
            store.claim_cell("w0")
            rc = main(["results", "--store", str(store_path), "--queue"])
            store.release_owner("w0", lock)
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 claim(s) in flight, 0 orphaned" in out
        (line,) = [line for line in out.splitlines() if line.endswith("w0")]
        assert line.split()[:4] == ["exp", "abc", "2", "1"]  # experiment, hash, seed, attempt
