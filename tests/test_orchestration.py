"""Tests for the orchestration subsystem: registry, store, runner, config."""

from __future__ import annotations

import json

import pytest

from repro import harness
from repro.harness.experiments import run_ablation
from repro.orchestration import (
    DEFAULT_REGISTRY,
    ExperimentPlan,
    ExperimentRegistry,
    ExperimentSpec,
    ResultStore,
    SweepDefinition,
    SweepRunner,
    canonical_params,
    cell_spec_hash,
    cell_spec_json,
    expand_cells,
    get_experiment,
    load_builtin_experiments,
    load_sweep,
    param_hash,
)
from repro.simulator.rng import derive_seed


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtin_drivers_all_registered(self):
        """Every driver the harness exports is registered once."""
        exported = {name for name in harness.__all__ if name.startswith("run_")}
        specs = list(load_builtin_experiments())
        assert sorted(spec.driver.__name__ for spec in specs) == sorted(exported)
        for spec in specs:
            assert spec.driver is getattr(harness, spec.driver.__name__)

    def test_unknown_experiment_lists_known_names(self):
        with pytest.raises(KeyError, match="table1"):
            get_experiment("nope")

    def test_spec_from_callable_excludes_seed(self):
        spec = get_experiment("table1")
        assert "seed" not in spec.param_names
        assert "ns" in spec.param_names

    def test_driver_without_defaults_rejected(self):
        registry = ExperimentRegistry()

        def bad_driver(n):  # pragma: no cover - never called
            return n

        with pytest.raises(TypeError, match="without default"):
            registry.register("bad")(bad_driver)

    def test_duplicate_registration_rejected(self):
        registry = ExperimentRegistry()
        registry.register("x")(run_ablation)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x")(lambda seed=1: None)
        # re-registering the same driver is idempotent, not an error
        registry.register("x")(run_ablation)

    def test_grid_expansion_scalar_vs_sequence(self):
        spec = get_experiment("table1")
        cells = spec.expand_grid({"ns": [64, 128], "repetitions": [1, 2]})
        # flat list for the sequence param `ns` = ONE candidate
        assert cells == [
            {"ns": (64, 128), "repetitions": 1},
            {"ns": (64, 128), "repetitions": 2},
        ]
        # list of lists = several candidates
        cells = spec.expand_grid({"ns": [[64], [64, 128]]})
        assert cells == [{"ns": (64,)}, {"ns": (64, 128)}]

    def test_grid_rejects_unknown_parameter(self):
        with pytest.raises(KeyError, match="no parameter"):
            get_experiment("table1").expand_grid({"bogus": [1]})

    def test_empty_grid_yields_single_default_cell(self):
        assert get_experiment("forest").expand_grid({}) == [{}]

    def test_scalar_float_coercion(self):
        spec = get_experiment("forest")
        cells = spec.expand_grid({"delta": [0]})
        assert cells == [{"delta": 0.0}]
        assert isinstance(cells[0]["delta"], float)


# --------------------------------------------------------------------------- #
# store
# --------------------------------------------------------------------------- #
class TestParamHash:
    def test_stable_across_dict_orderings(self):
        a = {"ns": (64, 128), "delta": 0.1, "workload": "uniform"}
        b = {"workload": "uniform", "delta": 0.1, "ns": (64, 128)}
        assert param_hash(a) == param_hash(b)

    def test_tuple_and_list_hash_identically(self):
        assert param_hash({"ns": (64, 128)}) == param_hash({"ns": [64, 128]})

    def test_distinct_params_hash_differently(self):
        assert param_hash({"ns": [64]}) != param_hash({"ns": [128]})
        assert param_hash({}) != param_hash({"ns": [64]})

    def test_canonical_params_normalises_numpy(self):
        import numpy as np

        canon = canonical_params({"n": np.int64(5), "d": np.float64(0.5)})
        assert canon == {"n": 5, "d": 0.5}
        assert json.dumps(canon)  # JSON-serialisable without a default hook


class TestResultStore:
    def test_record_and_fetch_round_trip(self, tmp_path):
        result = run_ablation(n=64, repetitions=1, seed=3)
        with ResultStore(tmp_path / "r.sqlite") as store:
            store.record_result("ablation", {"n": 64, "repetitions": 1}, 3, result, 0.5)
            run = store.get("ablation", {"repetitions": 1, "n": 64}, 3)
            assert run is not None and run.ok
            rebuilt = run.to_result()
            assert rebuilt.rows == result.rows
            assert rebuilt.headers == result.headers
            assert rebuilt.seed == 3

    def test_is_completed_only_for_success(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            store.record_failure("ablation", {"n": 64}, 3, "boom")
            assert not store.is_completed("ablation", {"n": 64}, 3)
            result = run_ablation(n=64, repetitions=1, seed=3)
            store.record_result("ablation", {"n": 64}, 3, result)
            assert store.is_completed("ablation", {"n": 64}, 3)
            assert len(store) == 1  # upsert, not duplicate

    def test_failure_then_success_clears_error(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            store.record_failure("ablation", {"n": 64}, 3, "traceback here")
            run = store.get("ablation", {"n": 64}, 3)
            assert run.status == "failed" and "traceback" in run.error
            store.record_result("ablation", {"n": 64}, 3, run_ablation(n=64, repetitions=1, seed=3))
            run = store.get("ablation", {"n": 64}, 3)
            assert run.ok and run.error is None and run.rows

    def test_export_json_and_summary(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            store.record_result("ablation", {"n": 64}, 3, run_ablation(n=64, repetitions=1, seed=3), 0.1)
            store.record_failure("ablation", {"n": 128}, 4, "boom", 0.2)
            path = store.export_json(tmp_path / "dump.json")
            payload = json.loads(path.read_text())
            assert len(payload) == 2
            assert {p["status"] for p in payload} == {"ok", "failed"}
            (summary,) = store.summary()
            assert summary["completed"] == 1 and summary["failed"] == 1

    def test_persists_across_connections(self, tmp_path):
        path = tmp_path / "r.sqlite"
        with ResultStore(path) as store:
            store.record_result("ablation", {"n": 64}, 3, run_ablation(n=64, repetitions=1, seed=3))
        with ResultStore(path) as store:
            assert store.is_completed("ablation", {"n": 64}, 3)

    def test_completed_cells_lists_only_successful_rows(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            assert store.completed_cells() == set()
            store.record_result("ablation", {"n": 64}, 3, run_ablation(n=64, repetitions=1, seed=3))
            store.record_failure("ablation", {"n": 128}, 4, "boom")
            assert store.completed_cells() == {("ablation", param_hash({"n": 64}), 3)}

    def test_direct_writes_are_content_addressed(self, tmp_path):
        """A row written without a spec is found by its canonical cell spec's digest."""
        address = cell_spec_hash(cell_spec_json("ablation", {"n": 64, "repetitions": 1}, 3))
        with ResultStore(tmp_path / "r.sqlite") as store:
            result = run_ablation(n=64, repetitions=1, seed=3)
            store.record_result("ablation", {"repetitions": 1, "n": 64}, 3, result)
            stored = store.get_by_spec_hash(address)
            assert stored is not None and stored.ok
            assert stored.spec_hash == address
            assert cell_spec_hash(stored.spec_json) == address

    def test_numpy_rows_read_back_as_python_values(self, tmp_path):
        import numpy as np

        from repro.harness.experiments import ExperimentResult

        row = {"count": np.int64(7), "mean": np.float64(0.25), "half": np.float32(0.5),
               "curve": np.array([1, 2, 3])}
        result = ExperimentResult(experiment="np", description="numpy row", headers=list(row),
                                  rows=[row], seed=1)
        with ResultStore(tmp_path / "r.sqlite") as store:
            store.record_result("np", {"n": 1}, 1, result)
            (stored,) = store.query(experiment="np")
        (back,) = stored.rows
        assert back == {"count": 7, "mean": 0.25, "half": 0.5, "curve": [1, 2, 3]}
        assert type(back["count"]) is int and type(back["mean"]) is float
        assert type(back["half"]) is float and type(back["curve"]) is list

    def test_invalid_store_arguments_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="busy_timeout_s"):
            ResultStore(tmp_path / "r.sqlite", busy_timeout_s=-1)
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError, match="max_attempts"):
                store.fail_exhausted(0)


# --------------------------------------------------------------------------- #
# sweep config + cell expansion
# --------------------------------------------------------------------------- #
QUICK_TOML = """
[sweep]
name = "t"
seed = 9
repetitions = 2

[[experiment]]
name = "table1"
[experiment.grid]
ns = [64, 128]

[[experiment]]
name = "ablation"
repetitions = 1
[experiment.grid]
n = [64, 128]
"""


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


class TestSweepConfig:
    def test_load_toml(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text(QUICK_TOML)
        definition = load_sweep(path)
        assert definition.name == "t"
        assert definition.seed == 9
        cells = expand_cells(definition)
        # table1: 1 grid point x 2 reps; ablation: 2 grid points x 1 rep
        assert len(cells) == 4
        assert sum(c.experiment == "ablation" for c in cells) == 2

    def test_load_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "sweep": {"name": "j", "seed": 2},
            "experiment": [{"name": "ablation", "grid": {"n": [64]}}],
        }))
        definition = load_sweep(path)
        assert expand_cells(definition)[0].experiment == "ablation"

    def test_unknown_block_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            SweepDefinition.from_dict({"experiment": [{"name": "ablation", "grdi": {}}]})

    def test_unknown_sweep_meta_key_rejected(self):
        with pytest.raises(ValueError, match=r"\[sweep\] has unknown keys"):
            SweepDefinition.from_dict({
                "sweep": {"repetitons": 5},
                "experiment": [{"name": "ablation"}],
            })
        with pytest.raises(ValueError, match="top-level"):
            SweepDefinition.from_dict({
                "experimnet": [],
                "experiment": [{"name": "ablation"}],
            })

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="no experiments"):
            SweepDefinition(name="empty", plans=())

    def test_cell_seeds_deterministic_and_distinct(self):
        cells_a = expand_cells(_tiny_definition())
        cells_b = expand_cells(_tiny_definition())
        assert [c.seed for c in cells_a] == [c.seed for c in cells_b]
        assert len({c.key for c in cells_a}) == len(cells_a)
        # the seed derivation is the documented RngStream/derive_seed chain
        first = cells_a[0]
        assert first.seed == derive_seed(5, first.experiment, first.param_hash, 0)

    def test_adding_experiment_keeps_existing_seeds(self):
        base = _tiny_definition()
        extended = SweepDefinition(
            name=base.name,
            seed=base.seed,
            repetitions=base.repetitions,
            plans=base.plans + (ExperimentPlan(experiment="forest", grid={"ns": [64], "repetitions": 1}),),
        )
        base_seeds = {c.key for c in expand_cells(base)}
        extended_seeds = {c.key for c in expand_cells(extended)}
        assert base_seeds <= extended_seeds


# --------------------------------------------------------------------------- #
# sweep runner
# --------------------------------------------------------------------------- #
class TestSweepRunner:
    def test_skip_completed_resume_executes_zero_cells(self, tmp_path):
        definition = _tiny_definition()
        with ResultStore(tmp_path / "r.sqlite") as store:
            first = SweepRunner(store, jobs=1).run(definition)
            assert first.executed == first.total > 0
            assert first.failed == 0
            second = SweepRunner(store, jobs=1).run(definition)
            assert second.executed == 0
            assert second.failed == 0
            assert second.skipped == first.total
            assert len(store) == first.total

    def test_no_skip_reexecutes(self, tmp_path):
        definition = _tiny_definition(reps=1)
        with ResultStore(tmp_path / "r.sqlite") as store:
            SweepRunner(store, jobs=1).run(definition)
            again = SweepRunner(store, jobs=1, skip_completed=False).run(definition)
            assert again.executed == again.total
            assert len(store) == again.total  # upserts, no duplicate rows

    def test_crashed_cell_records_failure_row_and_sweep_survives(self, tmp_path):
        # workload="nope" makes run_table1 raise inside the cell
        definition = SweepDefinition(
            name="crashy",
            seed=3,
            repetitions=1,
            plans=(
                ExperimentPlan(
                    experiment="table1",
                    grid={"ns": [64], "repetitions": 1, "workload": ["uniform", "nope"]},
                ),
            ),
        )
        with ResultStore(tmp_path / "r.sqlite") as store:
            report = SweepRunner(store, jobs=2).run(definition)
            assert report.executed == 1
            assert report.failed == 1
            (failure,) = store.query(status="failed")
            assert failure.params["workload"] == "nope"
            assert "ValueError" in failure.error
            # the crashed cell is retried (not skipped) on the next invocation
            retry = SweepRunner(store, jobs=1).run(definition)
            assert retry.skipped == 1 and retry.failed == 1

    def test_parallel_and_serial_sweeps_bit_identical(self, tmp_path):
        definition = _tiny_definition()
        with ResultStore(tmp_path / "serial.sqlite") as serial_store:
            SweepRunner(serial_store, jobs=1).run(definition)
            serial = {(run.experiment, run.param_hash, run.seed): run for run in serial_store.query()}
        with ResultStore(tmp_path / "parallel.sqlite") as parallel_store:
            report = SweepRunner(parallel_store, jobs=4).run(definition)
            assert report.failed == 0
            parallel = {(run.experiment, run.param_hash, run.seed): run for run in parallel_store.query()}
        assert serial.keys() == parallel.keys()

        def stored(run):  # every stored field but the wall-clock ones
            doc = run.as_dict()
            del doc["duration_s"], doc["created_at"]
            return doc

        for key, run in serial.items():
            assert stored(run) == stored(parallel[key]), f"stored rows differ for {key}"

    def test_progress_callback_sees_every_cell(self, tmp_path):
        seen = []
        definition = _tiny_definition(reps=1)
        with ResultStore(tmp_path / "r.sqlite") as store:
            SweepRunner(store, jobs=1, progress=lambda o, i, t: seen.append((o.status, i, t))).run(definition)
        assert len(seen) == 2
        assert sorted(i for _, i, _ in seen) == [1, 2]
        assert all(t == 2 for _, _, t in seen)

    def test_invalid_jobs_rejected(self, tmp_path):
        with ResultStore(tmp_path / "r.sqlite") as store:
            with pytest.raises(ValueError):
                SweepRunner(store, jobs=0)


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestSweepCLI:
    def test_sweep_and_results_commands(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = str(tmp_path / "results.sqlite")
        argv = [
            "sweep", "--experiments", "ablation",
            "--reps", "2", "--seed", "11", "--jobs", "1", "--store", store,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out
        # immediate re-run skips everything
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 skipped" in out
        # results summary + markdown export
        md = tmp_path / "report.md"
        assert main(["results", "--store", store, "--markdown", str(md)]) == 0
        out = capsys.readouterr().out
        assert "ablation" in out
        report_text = md.read_text()
        assert "## ablation" in report_text
        assert "probe budget" in report_text

    def test_sweep_config_file(self, tmp_path, capsys):
        from repro.harness.cli import main

        config = tmp_path / "s.toml"
        config.write_text(QUICK_TOML.replace("ns = [64, 128]", "ns = [64]").replace("n = [64, 128]", "n = [64]"))
        store = str(tmp_path / "results.sqlite")
        assert main(["sweep", "--config", str(config), "--store", store, "--jobs", "2", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep 't'" in out
        # --reps overrides per-experiment repetitions from the file too: the
        # ablation block says repetitions=1 and table1 inherits the sweep
        # default of 2, but --reps 1 forces one seed per grid point each.
        assert "2 cells" in out

    def test_sweep_config_backend_pins_only_backend_aware_plans(self, tmp_path, monkeypatch):
        from repro.harness.cli import main

        def backendless(n: int = 64, repetitions: int = 1, seed: int = 0):
            return run_ablation(n=n, repetitions=repetitions, seed=seed)

        monkeypatch.setitem(
            DEFAULT_REGISTRY._specs, "backendless", ExperimentSpec.from_callable("backendless", backendless)
        )
        config = tmp_path / "s.toml"
        config.write_text(
            '[sweep]\nname = "b"\nseed = 4\n'
            '[[experiment]]\nname = "ablation"\n[experiment.grid]\nn = [64]\n'
            '[[experiment]]\nname = "backendless"\n[experiment.grid]\nn = [64]\n'
        )
        store = tmp_path / "s.sqlite"
        assert main(["sweep", "--config", str(config), "--store", str(store), "--backend", "engine"]) == 0
        with ResultStore(store) as conn:
            (pinned,) = conn.query(experiment="ablation")
            (unpinned,) = conn.query(experiment="backendless")
        assert pinned.params == {"n": 64, "backend": "engine"} and pinned.backend == "engine"
        assert unpinned.params == {"n": 64} and unpinned.backend is None

    def test_sweep_spec_backend_overrides_every_run(self, tmp_path):
        from repro.api import RunSpec
        from repro.harness.cli import main

        specs = tmp_path / "runs.toml"
        specs.write_text(
            '[[run]]\nprotocol = "drr-gossip"\nbackend = "vectorized"\nseed = 1\n[run.params]\nn = 64\n'
            '[[run]]\nprotocol = "push-sum"\nseed = 2\n[run.params]\nn = 64\n'
        )
        store = tmp_path / "s.sqlite"
        argv = ["sweep", "--spec", str(specs), "--store", str(store), "--backend", "engine", "--reps", "2"]
        assert main(argv) == 0
        with ResultStore(store) as conn:
            rows = conn.query()
        assert sorted(row.experiment for row in rows) == ["run:drr-gossip"] * 2 + ["run:push-sum"] * 2
        assert len({(row.experiment, row.seed) for row in rows}) == 4
        for row in rows:
            assert row.backend == "engine" and row.params["backend"] == "engine"
            assert RunSpec.from_json(row.spec_json).backend == "engine"

    def test_sweep_config_reps_override_file_repetitions(self, tmp_path):
        """``--reps`` beats the sweep-level default and each experiment's own count."""
        from repro.harness.cli import main

        config = tmp_path / "s.toml"
        config.write_text(
            '[sweep]\nname = "r"\nseed = 4\nrepetitions = 3\n'
            '[[experiment]]\nname = "ablation"\nrepetitions = 2\n[experiment.grid]\nn = [64, 128]\n'
            '[[experiment]]\nname = "forest"\n[experiment.grid]\nns = [64]\n'
        )
        store = tmp_path / "s.sqlite"
        assert main(["sweep", "--config", str(config), "--store", str(store), "--reps", "1"]) == 0
        with ResultStore(store) as conn:
            ablation = conn.query(experiment="ablation")
            forest = conn.query(experiment="forest")
        assert sorted(row.params["n"] for row in ablation) == [64, 128]
        assert [row.params["ns"] for row in forest] == [[64]]

    def test_sweep_cli_rejects_bad_config_cleanly(self, tmp_path, capsys):
        from repro.harness.cli import main

        config = tmp_path / "bad.toml"
        config.write_text('[sweep]\nname = "x"\n[[experiment]]\nname = "tabel1"\n')
        code = main(["sweep", "--config", str(config), "--store", str(tmp_path / "s.sqlite")])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown experiment 'tabel1'" in captured.err
        assert not (tmp_path / "s.sqlite").exists()

    def test_sweep_cli_rejects_conflicting_and_invalid_flags(self, tmp_path, capsys):
        from repro.harness.cli import main

        config = tmp_path / "s.toml"
        config.write_text('[sweep]\nname = "x"\n[[experiment]]\nname = "ablation"\n')
        store = str(tmp_path / "s.sqlite")
        assert main(["sweep", "--config", str(config), "--ns", "64", "--store", store]) == 2
        assert "--config cannot be combined" in capsys.readouterr().err
        assert main(["sweep", "--experiments", "ablation", "--jobs", "0", "--store", store]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s.sqlite").exists()  # no store created on bad flags

    def test_sweep_ns_that_no_named_experiment_takes_is_rejected(self, tmp_path, capsys):
        from repro.harness.cli import main

        store = tmp_path / "s.sqlite"
        assert main(["sweep", "--experiments", "ablation", "--ns", "64", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert "--ns reaches none of the named experiments" in err
        assert "ablation takes n, repetitions, backend" in err
        assert "--config" in err
        assert not store.exists()
        # one experiment that takes it is enough: the others run at their defaults
        definition = SweepDefinition.from_experiments(["table1", "ablation"], grid={"ns": (64, 128)})
        assert [dict(plan.grid) for plan in definition.plans] == [{"ns": (64, 128)}, {}]

    def test_results_without_store_errors(self, tmp_path, capsys):
        from repro.harness.cli import main

        assert main(["results", "--store", str(tmp_path / "missing.sqlite")]) == 1

    def test_python_dash_m_entry_point(self):
        import subprocess
        import sys as _sys

        proc = subprocess.run(
            [_sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parents[1]),
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout
