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
import re
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_estimates_serialise_as_python_floats(self, dtype):
        values = [np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, 1 / 3, -7.0, 2.0**60 + 1]
        with np.errstate(invalid="ignore", over="ignore"):
            estimates = np.array(values).astype(dtype)
        result = repro.api.RunResult(
            spec=spec_for("push-sum"), rounds=1, messages=0, messages_lost=0, words=0,
            messages_by_kind={}, messages_by_phase={}, rounds_by_phase={},
            estimates=estimates, summary={}, wall_time_s=0.0,
        )
        listed = result.to_dict()["estimates"]
        assert all(type(v) is float for v in listed)
        assert json.dumps(listed) == json.dumps([float(v) for v in estimates])

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

    def test_static_protocol_rejects_churn_naming_the_capable_ones(self):
        with pytest.raises(SpecValidationError, match=re.escape(
            "(churn-capable protocols: drr-gossip, epoch-gossip-ave, push-max, push-sum)"
        )):
            RunSpec(protocol="drr", params={"n": 8}, failures={"churn_rate": 0.01})

    def test_unknown_aggregate_rejected_with_valid_names(self):
        spec = RunSpec(protocol="drr-gossip", params={"n": 8, "aggregate": "median"})
        with pytest.raises(SpecValidationError, match=re.escape(
            "unknown aggregate 'median' (valid: max, min, sum, count, average, rank)"
        )):
            repro.run(spec)

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

    def test_registration_rejects_unknown_topology_and_churn_modes(self):
        from repro.api import register_protocol

        with pytest.raises(ValueError, match="topology must be 'forbidden'"):
            register_protocol("mesh-gossip", topology="mesh")
        with pytest.raises(ValueError, match="churn must be 'none', 'crashes', or 'full'"):
            register_protocol("mesh-gossip", churn="sometimes")
        assert "mesh-gossip" not in protocol_names()

    def test_registration_rejects_an_adapter_parameter_without_default(self):
        from repro.api import register_protocol

        def adapter(ctx, n):
            raise AssertionError("never run")

        with pytest.raises(TypeError, match=re.escape("parameter without default ('n')")):
            register_protocol("no-default")(adapter)
        assert "no-default" not in protocol_names()

    def test_registering_a_second_adapter_under_a_taken_name_rejected(self):
        from repro.api import register_protocol

        def adapter(ctx, n=8):
            raise AssertionError("never run")

        with pytest.raises(ValueError, match="protocol 'push-sum' is already registered"):
            register_protocol("push-sum")(adapter)
        assert get_protocol("push-sum").runner is not adapter


class TestLoadSpec:
    SPECS = Path(__file__).resolve().parent.parent / "examples" / "specs"

    def test_load_spec_runs_what_run_spec_runs(self, monkeypatch):
        """``average.toml``'s comment: ``repro.run(repro.load_spec(...))`` is ``drr-gossip run --spec``."""
        from repro.harness import cli

        path = self.SPECS / "average.toml"
        via_cli = []

        def recording_run(spec, **kwargs):
            via_cli.append(repro.run(spec, **kwargs))
            return via_cli[-1]

        monkeypatch.setattr(cli, "run_spec_fn", recording_run)
        assert cli.main(["run", "--spec", str(path)]) == 0
        (expected,) = via_cli
        assert repro.run(repro.load_spec(path)).same_outcome(expected)

    def test_load_spec_rejects_a_multi_run_file(self):
        with pytest.raises(SpecValidationError, match="expected exactly one run spec, found 4"):
            repro.load_spec(self.SPECS / "baseline_suite.toml")

    def test_malformed_json_file_is_named(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"protocol": "drr",')
        with pytest.raises(SpecValidationError, match=re.escape(f"{path}: invalid JSON")):
            load_specs(path)


class TestMalformedSpecs:
    """Each way a hand-written spec goes wrong is a SpecValidationError naming it."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            pytest.param(["drr"], "a run spec must be a table/object, got ['drr']", id="spec-not-a-table"),
            pytest.param({"params": {"n": 8}}, "a run spec needs a 'protocol' name", id="no-protocol"),
            pytest.param({"protocol": "drr", "params": [8]}, "'params' must be a table/object", id="params-not-a-table"),
            pytest.param({"protocol": "drr", "seed": "abc"}, "'seed' must be an integer, got 'abc'", id="seed-not-an-integer"),
            pytest.param(
                {"protocol": "drr", "failures": {"delta": 0.1}},
                "invalid 'failures' section: failure spec has unknown keys ['delta']",
                id="failures-unknown-key",
            ),
            pytest.param(
                {"protocol": "drr", "failures": "none"},
                "invalid 'failures' section: failure spec must be a mapping, got 'none'",
                id="failures-not-a-table",
            ),
            pytest.param({"protocol": "drr", "backend": "warp"}, "unknown substrate backend 'warp'", id="unknown-backend"),
            pytest.param(
                {"protocol": "local-drr", "topology": "ring"},
                "topology must be a table/object, got 'ring'",
                id="topology-not-a-table",
            ),
            pytest.param(
                {"protocol": "local-drr", "topology": {"family": "ring"}},
                "topology needs 'family' and 'n'",
                id="topology-without-n",
            ),
            pytest.param(
                {"protocol": "local-drr", "topology": {"family": "ring", "n": "eight"}},
                "topology 'n' must be an integer, got 'eight'",
                id="topology-n-not-an-integer",
            ),
            pytest.param(
                {"protocol": "local-drr", "topology": {"family": "ring", "n": 0}},
                "topology n must be positive, got 0",
                id="topology-n-zero",
            ),
            pytest.param(
                {"protocol": "chord-lookups", "topology": {"family": "chord", "n": 1}},
                "a chord topology needs n >= 2",
                id="chord-of-one-node",
            ),
            pytest.param(
                {"protocol": "local-drr", "topology": {"family": "explicit", "n": 3, "edges": [[0, 1]], "weights": [1]}},
                "explicit topology accepts only 'edges'/'name', got 'weights'",
                id="explicit-extra-key",
            ),
            pytest.param(
                {"protocol": "chord-lookups", "topology": {"family": "chord", "n": 8, "k": 3}},
                "chord topology accepts only 'm', got 'k'",
                id="chord-extra-key",
            ),
            pytest.param(
                {"protocol": "local-drr", "topology": {"family": "ring", "n": 8, "m": 3}},
                "topology family 'ring' takes no extra parameters, got 'm'",
                id="generated-family-extra-key",
            ),
            pytest.param(
                {"protocol": "local-drr", "topology": {"family": "explicit", "n": 3}},
                "explicit topology needs an 'edges' list",
                id="explicit-without-edges",
            ),
        ],
    )
    def test_run_spec_document_rejected(self, doc, message):
        with pytest.raises(SpecValidationError, match=re.escape(message)):
            RunSpec.from_dict(doc)

    def test_topology_params_must_be_a_mapping(self):
        with pytest.raises(SpecValidationError, match="topology params must be a mapping"):
            TopologySpec(family="ring", n=8, params=["m"])

    @pytest.mark.parametrize(
        "data, message",
        [
            pytest.param(
                {"run": {"protocol": "drr"}, "name": "x"},
                "f.toml: unknown top-level keys ['name'] next to 'run(s)'",
                id="key-beside-run",
            ),
            pytest.param(42, "f.toml: expected a run spec object or list, got int", id="scalar-document"),
            pytest.param([], "f.toml: spec file defines no runs", id="empty-list"),
            pytest.param({"runs": []}, "f.toml: spec file defines no runs", id="empty-runs"),
            pytest.param(
                [{"protocol": "drr"}, {"params": {}}],
                "f.toml (run #2): a run spec needs a 'protocol' name",
                id="bad-run-is-numbered",
            ),
        ],
    )
    def test_spec_document_shape_rejected(self, data, message):
        from repro.api import parse_spec_document

        with pytest.raises(SpecValidationError, match=re.escape(message)):
            parse_spec_document(data, "f.toml")

    @pytest.mark.parametrize(
        "params, message",
        [
            pytest.param({"values": [[1, 2], [3, 4]]}, "'values' must be a non-empty flat list of numbers", id="nested-values"),
            pytest.param({"values": []}, "'values' must be a non-empty flat list of numbers", id="empty-values"),
            pytest.param({"values": ["a"]}, "'values' must be a flat list of numbers:", id="non-numeric-values"),
            pytest.param({"n": "many"}, "'n' must be an integer, got 'many'", id="n-not-an-integer"),
            pytest.param({"n": 8, "workload": "zipf"}, "unknown workload 'zipf'; known: ['bimodal'", id="unknown-workload"),
        ],
    )
    def test_input_vector_rejected_at_run(self, params, message):
        with pytest.raises(SpecValidationError, match=re.escape(message)):
            repro.run(RunSpec(protocol="push-sum", params=params))


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
