"""Tests for the declarative run API: RunSpec/RunResult, dispatch, transport.

The headline guarantee under test: a ``RunSpec`` serialised to JSON,
deserialised, and re-run with the same seed reproduces the original
``RunResult`` *exactly* — rounds, per-kind/per-phase/lost message counts,
words, and estimates — for every registered protocol on both substrate
backends, on reliable and lossy networks.  That backends agree with each
other is ``tests/test_substrate.py``'s matrix, on the same spec table.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import RunSpec, SpecValidationError, TopologySpec
from repro.api import get_protocol, load_specs, protocol_names
from repro.orchestration import ResultStore, cells_from_run_specs
from repro.orchestration.runner import _execute_cell
from repro.orchestration.store import param_hash
from repro.serialization import canonical_json, stable_digest
from repro.simulator import FailureModel
from repro.topology import Topology

from protocol_specs import PROTOCOL_SPECS, spec_for

FAILURE_MODELS = [
    FailureModel(),
    FailureModel(loss_probability=0.08, crash_fraction=0.05),
]


class TestRoundTripProperty:
    def test_every_registered_protocol_is_covered(self):
        assert set(PROTOCOL_SPECS) == set(protocol_names())

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_SPECS))
    @pytest.mark.parametrize("backend", ["vectorized", "engine"])
    @pytest.mark.parametrize("failures", FAILURE_MODELS, ids=["reliable", "lossy"])
    def test_json_round_trip_reproduces_run_exactly(self, protocol, backend, failures):
        spec = spec_for(protocol, backend, failures)
        direct = repro.run(spec)
        revived = RunSpec.from_json(spec.to_json())
        assert revived == spec
        replay = repro.run(revived)
        assert replay.same_outcome(direct)
        # the envelope itself round-trips too (spec echo included)
        decoded = repro.api.RunResult.from_json(direct.to_json())
        assert decoded.same_outcome(direct)
        assert decoded.spec == spec

    def test_degradation_section_round_trips_and_every_entry_is_compared(self):
        spec = RunSpec(
            protocol="epoch-gossip-ave",
            params={"n": 64, "workload": "uniform", "epochs": 2},
            failures=FailureModel(churn_rate=0.02),
            seed=5,
        )
        direct = repro.run(spec)
        doc = direct.to_dict()
        section = doc["degradation"]
        assert section["epoch_errors"]  # churn is on, so the section is filled
        assert repro.api.RunResult.from_json(direct.to_json()).same_outcome(direct)
        for key, value in section.items():
            changed = value[:-1] if isinstance(value, list) else value + 1.0
            altered = {**doc, "degradation": {**section, key: changed}}
            assert not repro.api.RunResult.from_dict(altered).same_outcome(direct), key
        trimmed = {k: v for k, v in section.items() if k != "survivors"}
        assert not repro.api.RunResult.from_dict({**doc, "degradation": trimmed}).same_outcome(
            direct
        )

    def test_words_alone_change_the_outcome(self):
        direct = repro.run(spec_for("drr-gossip"))
        doc = direct.to_dict()
        assert doc["words"] == direct.raw.metrics.total_words > direct.messages
        assert repro.api.RunResult.from_dict(doc).same_outcome(direct)
        altered = repro.api.RunResult.from_dict({**doc, "words": doc["words"] + 1})
        assert not altered.same_outcome(direct)


class TestSpecValidation:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown protocol"):
            RunSpec(protocol="nope", params={"n": 8})

    def test_unknown_param_rejected_with_valid_names(self):
        with pytest.raises(SpecValidationError, match="valid: n, probe_budget"):
            RunSpec(protocol="drr", params={"n": 8, "bogus": 1})

    def test_extra_top_level_key_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown keys"):
            RunSpec.from_dict({"protocol": "drr", "params": {"n": 8}, "wat": 1})

    def test_missing_topology_rejected(self):
        with pytest.raises(SpecValidationError, match="needs a topology"):
            RunSpec(protocol="local-drr")

    def test_forbidden_topology_rejected(self):
        with pytest.raises(SpecValidationError, match="takes no topology"):
            RunSpec(protocol="drr", params={"n": 8}, topology={"family": "ring", "n": 8})

    def test_chord_protocol_needs_chord_topology(self):
        with pytest.raises(SpecValidationError, match="chord topology"):
            RunSpec(protocol="chord-lookups", topology={"family": "ring", "n": 8})

    def test_unknown_topology_family_rejected(self):
        with pytest.raises(SpecValidationError, match="unknown topology family"):
            TopologySpec(family="mobius", n=8)

    def test_values_and_contradicting_n_rejected(self):
        with pytest.raises(SpecValidationError, match="contradicts"):
            repro.run(RunSpec(protocol="push-sum", params={"n": 4, "values": [1.0, 2.0]}))

    def test_missing_n_and_values_rejected(self):
        with pytest.raises(SpecValidationError, match="either 'n'"):
            repro.run(RunSpec(protocol="push-sum"))

    def test_params_are_normalised_for_round_trip_equality(self):
        from repro.core import Aggregate

        spec = RunSpec(
            protocol="drr-gossip",
            params={"n": np.int64(64), "aggregate": Aggregate.MAX, "values": None},
        )
        assert spec.params["n"] == 64 and isinstance(spec.params["n"], int)
        assert spec.params["aggregate"] == "max"
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_spec_rejects_malformed_json(self):
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            RunSpec.from_json("{nope")

    def test_adapter_schema_derived_from_signature(self):
        spec = get_protocol("push-sum")
        assert set(spec.param_names) == {"n", "workload", "values", "rounds", "epsilon"}


class TestSpecEquivalenceWithDirectCalls:
    """repro.run(spec) must equal the kwargs-level run_X call it wraps."""

    def test_drr_matches_run_drr(self):
        from repro.core import run_drr

        result = repro.run(RunSpec(protocol="drr", params={"n": 128}, seed=9))
        direct = run_drr(128, rng=9)
        assert result.rounds == direct.rounds
        assert result.messages == direct.metrics.total_messages
        assert result.summary["trees"] == direct.forest.root_count

    def test_drr_gossip_matches_pipeline_call(self):
        from repro.core import drr_gossip_average
        from repro.harness.workloads import make_values

        seed = 17
        rng = np.random.default_rng(seed)
        values = make_values("uniform", 96, rng)
        direct = drr_gossip_average(values, rng=rng)
        result = repro.run(
            RunSpec(
                protocol="drr-gossip",
                params={"n": 96, "aggregate": "average", "workload": "uniform"},
                seed=seed,
            )
        )
        assert result.rounds == direct.rounds
        assert result.messages == direct.messages
        assert np.array_equal(result.estimates, direct.estimates, equal_nan=True)

    def test_rank_without_a_query_ranks_the_median_on_both_paths(self):
        from repro.core import drr_gossip
        from repro.harness.workloads import make_values

        rng = np.random.default_rng(1)
        direct = drr_gossip(make_values("uniform", 512, rng), "rank", rng=rng)
        result = repro.run(
            RunSpec(protocol="drr-gossip", params={"n": 512, "aggregate": "rank"}, seed=1)
        )
        assert result.summary["exact"] == direct.exact == 256.0
        assert np.array_equal(result.estimates, direct.estimates, equal_nan=True)

    def test_explicit_values_skip_rng_draws(self):
        from repro.baselines import push_sum

        values = [1.0, 5.0, 9.0, 2.0] * 16
        direct = push_sum(np.asarray(values), rng=3)
        result = repro.run(RunSpec(protocol="push-sum", params={"values": values}, seed=3))
        assert result.messages == direct.messages
        assert np.array_equal(result.estimates, direct.estimates)


class TestToFromSpecHelpers:
    def test_failure_model_round_trip(self):
        model = FailureModel(loss_probability=0.1, crash_fraction=0.2)
        assert FailureModel.from_spec(model.to_spec()) == model
        assert FailureModel.from_spec(model) is model

    def test_failure_model_rejects_unknown_keys(self):
        from repro.simulator.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown keys"):
            FailureModel.from_spec({"delta": 0.1})

    def test_topology_explicit_round_trip(self):
        topo = Topology.from_edges("tri", 3, [(0, 1), (1, 2), (2, 0)])
        spec = topo.to_spec()
        rebuilt = Topology.from_spec(spec)
        assert rebuilt.n == topo.n
        assert list(rebuilt.edges()) == list(topo.edges())
        # a pinned explicit topology runs through the spec path
        result = repro.run(
            RunSpec(protocol="flood-max", topology=TopologySpec.from_dict(spec), seed=2)
        )
        assert result.summary["max_rel_error"] == 0.0

    def test_topology_from_spec_rejects_generated_families(self):
        with pytest.raises(ValueError, match="explicit"):
            Topology.from_spec({"family": "ring", "n": 8})


class TestCanonicalHashing:
    """Satellite: one shared canonicaliser for RunSpec and the store."""

    def test_nested_dict_ordering_cannot_collide_or_diverge(self):
        a = {"outer": {"x": 1, "y": {"p": [1, 2], "q": 3.0}}, "n": 64}
        b = {"n": 64, "outer": {"y": {"q": 3.0, "p": (1, 2)}, "x": 1}}
        assert canonical_json(a) == canonical_json(b)
        assert param_hash(a) == param_hash(b)
        c = {"n": 64, "outer": {"y": {"q": 3.0, "p": [2, 1]}, "x": 1}}
        assert param_hash(a) != param_hash(c)

    def test_numpy_and_enum_values_normalise(self):
        from repro.core import Aggregate

        assert canonical_json({"a": np.int64(3), "b": Aggregate.MAX}) == '{"a":3,"b":"max"}'

    def test_spec_hash_matches_store_param_hash_convention(self):
        spec = RunSpec(protocol="drr", params={"n": 32}, seed=4)
        doc = spec.to_dict()
        doc.pop("seed")
        assert spec.param_hash() == stable_digest(doc)
        # two spellings of the same spec agree
        twin = RunSpec.from_dict(json.loads(spec.to_json()))
        assert twin.param_hash() == spec.param_hash()
        assert twin.spec_hash() == spec.spec_hash()

    def test_seed_changes_spec_hash_but_not_param_hash(self):
        spec = RunSpec(protocol="drr", params={"n": 32}, seed=4)
        other = spec.with_seed(5)
        assert other.param_hash() == spec.param_hash()
        assert other.spec_hash() != spec.spec_hash()

    def test_example_spec_hashes_are_pinned(self):
        """Store rows are keyed by these hashes, so editing the ``RunSpec``
        schema must leave the ``(spec_hash, param_hash)`` of every example
        spec exactly as recorded here."""
        pinned = {
            "average.toml": [("0f917ea75e7e67eb", "9ec29a9e72d0255b")],
            "baseline_suite.toml": [
                ("3cab0c01e4afdada", "07f5338786721c5a"),
                ("1d95e53bdd7b6071", "746be1aae0aed26c"),
                ("f954f0719cfaaa64", "3f9e6f75f003457f"),
                ("e0a1ceed422f92c8", "05ec99d25e1d5b8b"),
            ],
            "chord_lookups.json": [("f3c06a4535945411", "813de2389638d6bf")],
            "local_drr_ring.toml": [("04a0c982d80b3910", "e441665a0de2452b")],
        }
        specs_dir = Path(__file__).resolve().parent.parent / "examples" / "specs"
        actual = {
            name: [(spec.spec_hash(), spec.param_hash()) for spec in load_specs(specs_dir / name)]
            for name in pinned
        }
        assert actual == pinned


class TestSpecTransport:
    """Workers receive cells only as serialised specs."""

    def test_execute_cell_takes_one_json_string_for_experiments(self):
        payload = _execute_cell(
            canonical_json({"experiment": "ablation", "params": {"n": 64, "repetitions": 1}, "seed": 3})
        )
        assert payload["ok"], payload.get("error")
        assert payload["result"].experiment == "E12-ablation"

    def test_execute_cell_dispatches_protocol_specs(self):
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=3)
        payload = _execute_cell(spec.canonical_json())
        assert payload["ok"], payload.get("error")
        assert payload["result"].experiment == "run:drr"
        direct = repro.run(spec)
        assert payload["result"].rows[0]["messages"] == direct.messages

    def test_execute_cell_restores_tuples_and_enums_from_json(self):
        cell = canonical_json(
            {
                "experiment": "forest",
                "params": {"ns": [32, 64], "repetitions": 1},
                "seed": 2,
            }
        )
        payload = _execute_cell(cell)
        assert payload["ok"], payload.get("error")
        assert [row["n"] for row in payload["result"].rows] == [32, 64]

    def test_execute_cell_reports_bad_spec_as_failure(self):
        payload = _execute_cell(canonical_json({"protocol": "nope", "seed": 1}))
        assert not payload["ok"]
        assert "unknown protocol" in payload["error"]

    def test_cells_from_run_specs_reps_derive_deterministic_seeds(self):
        spec = RunSpec(protocol="drr", params={"n": 32}, seed=4)
        cells = cells_from_run_specs([spec], repetitions=3)
        assert [c.rep for c in cells] == [0, 1, 2]
        assert cells[0].seed == 4
        assert len({c.seed for c in cells}) == 3
        again = cells_from_run_specs([spec], repetitions=3)
        assert [c.seed for c in again] == [c.seed for c in cells]
        # every cell ships a parseable RunSpec whose seed matches
        for cell in cells:
            revived = RunSpec.from_json(cell.spec_json())
            assert revived.seed == cell.seed
            assert revived.param_hash() == cell.param_hash

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_cells_from_run_specs_rejects_repetitions_below_one(self, repetitions):
        spec = RunSpec(protocol="drr", params={"n": 32}, seed=4)
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            cells_from_run_specs([spec], repetitions=repetitions)

    def test_spec_cells_persist_and_resume(self, tmp_path):
        from repro.orchestration import SweepRunner

        spec = RunSpec(protocol="drr", params={"n": 48}, seed=6)
        with ResultStore(tmp_path / "s.sqlite") as store:
            runner = SweepRunner(store, jobs=1)
            first = runner.run_cells(cells_from_run_specs([spec]), name="specs")
            assert first.executed == 1
            second = runner.run_cells(cells_from_run_specs([spec]), name="specs")
            assert second.executed == 0 and second.skipped == 1
            (row,) = store.query(experiment="run:drr")
            assert row.backend == "vectorized"
            revived = RunSpec.from_json(row.spec_json)
            assert revived == spec


class TestStoreBackfill:
    """Satellite: legacy NULL-backend rows are backfilled to the default."""

    @staticmethod
    def _make_legacy_store(path) -> None:
        """Write a store with the pre-substrate schema (no backend/spec_json)."""
        import sqlite3

        conn = sqlite3.connect(str(path))
        conn.executescript(
            """
            CREATE TABLE runs (
                id          INTEGER PRIMARY KEY AUTOINCREMENT,
                experiment  TEXT NOT NULL,
                param_hash  TEXT NOT NULL,
                seed        INTEGER NOT NULL,
                status      TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
                params      TEXT NOT NULL,
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
        )
        conn.execute(
            "INSERT INTO runs (experiment, param_hash, seed, status, params) "
            "VALUES ('forest', ?, 1, 'ok', '{\"ns\": [64]}')",
            (param_hash({"ns": [64]}),),
        )
        conn.commit()
        conn.close()

    def test_legacy_null_backend_rows_backfilled_with_one_warning(self, tmp_path):
        path = tmp_path / "old.sqlite"
        self._make_legacy_store(path)
        with pytest.warns(UserWarning, match="backfilled 1 pre-substrate row"):
            with ResultStore(path) as store:
                (row,) = store.query()
                assert row.backend == "vectorized"
                summary = store.summary()
                assert summary[0]["backend"] == "vectorized"
        # second open: the store is migrated, nothing to backfill, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ResultStore(path).close()

    def test_fresh_store_rows_without_backend_stay_null(self, tmp_path):
        """Post-migration stores must not relabel genuinely backend-less rows."""
        path = tmp_path / "new.sqlite"
        from repro.harness.experiments import run_ablation

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # never warns on a modern store
            with ResultStore(path) as store:
                result = run_ablation(n=64, repetitions=1, seed=1)
                store.record_result("no-backend-exp", {"x": 1}, 1, result)
            with ResultStore(path) as store:
                (row,) = store.query()
                assert row.backend is None
