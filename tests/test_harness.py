"""Tests for the harness: workloads, tables, experiments, reports, CLI."""

from __future__ import annotations

import json
import logging
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.harness import (
    ExperimentResult,
    format_float,
    format_markdown_table,
    make_values,
    run_ablation,
    run_churn_degradation,
    run_lower_bound_experiment,
    run_table1,
    workload_names,
    write_markdown_report,
)
from repro.harness.cli import build_parser, main
from repro.orchestration import DEFAULT_REGISTRY, ResultStore

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


class TestWorkloads:
    def test_all_workloads_produce_right_shape(self, rng):
        for name in workload_names():
            values = make_values(name, 100, rng)
            assert values.shape == (100,)
            assert np.isfinite(values).all()

    def test_zero_mean_workload_has_zero_mean(self, rng):
        values = make_values("zero-mean", 101, rng)
        assert abs(values.mean()) < 1e-9

    def test_single_spike_has_unique_max(self, rng):
        values = make_values("single-spike", 64, rng)
        assert np.sum(values == values.max()) == 1

    def test_constant_workload(self, rng):
        assert np.unique(make_values("constant", 10, rng)).size == 1

    def test_unknown_workload_rejected(self, rng):
        with pytest.raises(ValueError):
            make_values("nope", 10, rng)
        with pytest.raises(ValueError):
            make_values("uniform", 0, rng)


class TestTables:
    def test_format_float(self):
        assert format_float(3.0) == "3"
        assert format_float(3.14159) == "3.142"
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float("text") == "text"

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_markdown_table(["a"], [[1, 2]])

    def test_markdown_table_shape(self):
        md = format_markdown_table(["x", "y"], [[1, 2]])
        assert md.splitlines()[0] == "| x | y |"
        assert md.splitlines()[1] == "|---|---|"


class TestExperimentDrivers:
    def test_table1_small_run(self):
        result = run_table1(ns=(64, 128), repetitions=1, seed=3)
        assert isinstance(result, ExperimentResult)
        algos = set(result.column("algorithm"))
        assert algos == {"drr-gossip", "uniform-gossip", "efficient-gossip"}
        assert len(result.rows) == 6
        assert result.notes  # shape fits recorded
        assert "drr-gossip" in result.markdown()

    def test_table1_uniform_gossip_uses_more_messages_at_scale(self):
        from repro.core import Aggregate

        result = run_table1(ns=(2048,), repetitions=1, seed=4, aggregate=Aggregate.MAX)
        by_algo = {row["algorithm"]: row for row in result.rows}
        assert by_algo["uniform-gossip"]["messages"] > by_algo["drr-gossip"]["messages"]

    def test_lower_bound_experiment_gap(self):
        result = run_lower_bound_experiment(ns=(64, 256), repetitions=1, seed=6)
        for row in result.rows:
            # the oblivious protocol pays more per node than rumor spreading
            assert row["oblivious_messages_per_node"] > 0.5 * row["rumor_messages_per_node"]
        assert len(result.notes) == 2
        # one size gives its rows, but no growth shape to fit
        single = run_lower_bound_experiment(ns=(256,), repetitions=1, seed=6)
        assert single.rows == result.rows[1:]
        assert single.notes == []

    def test_ablation_rows(self):
        result = run_ablation(n=256, repetitions=1, seed=8)
        variants = result.column("variant")
        assert any("probe budget" in v for v in variants)
        assert any("rank domain" in v for v in variants)
        by_variant = {row["variant"]: row for row in result.rows}
        single = by_variant["probe budget (single probe)"]
        paper = by_variant["probe budget (paper: log2(n)-1)"]
        # fewer probes => more trees and fewer messages
        assert single["trees"] > paper["trees"]
        assert single["messages_per_node"] < paper["messages_per_node"]

    def test_churn_degradation_rows(self):
        n = 64
        result = run_churn_degradation(n=n, churn_rates=(0.0, 0.02), repetitions=1, join_rate=0.01)
        protocols = ("drr-gossip", "push-sum", "epoch-gossip-ave")
        assert [(row["churn_rate"], row["protocol"]) for row in result.rows] == [
            (rate, protocol) for rate in (0.0, 0.02) for protocol in protocols
        ]
        for row in result.rows:
            if row["churn_rate"] == 0.0:
                assert row["survivors_mean"] == n
                assert row["messages_to_dead_frac"] == 0
            else:
                assert row["survivors_mean"] < n
                assert row["messages_to_dead_frac"] > 0

    def test_experiment_result_helpers(self):
        result = run_ablation(n=128, repetitions=1, seed=9)
        assert result.experiment == "E12-ablation"
        assert result.markdown().startswith("|")
        assert len(result.column("trees")) == len(result.rows)


class TestReports:
    def test_markdown_report_has_a_section_per_result(self, tmp_path):
        result = run_ablation(n=128, repetitions=1, seed=10)
        text = write_markdown_report([result], tmp_path / "report.md").read_text()
        assert "## E12-ablation" in text
        assert "| variant |" in text


@pytest.fixture
def repro_log_level():
    """``main`` sets the ``repro`` logger's level; put it back afterwards."""
    logger = logging.getLogger("repro")
    level = logger.level
    yield logger
    logger.setLevel(level)


@pytest.fixture(scope="module")
def mixed_store(tmp_path_factory):
    """A store with one ok ``table1`` cell (run by ``sweep``) and one failed ``ablation`` cell."""
    path = tmp_path_factory.mktemp("store") / "s.sqlite"
    assert main(["sweep", "--experiments", "table1", "--ns", "64", "128", "--store", str(path)]) == 0
    with ResultStore(path) as store:
        store.record_failure("ablation", {"n": 64}, 5, "Traceback (most recent call last):\nRuntimeError: boom")
    return str(path)


class TestCLI:
    def test_experiments_are_not_subcommands(self, capsys):
        """An experiment runs through ``sweep``; its name is no command of its own."""
        names = [spec.name for spec in DEFAULT_REGISTRY]
        assert "table1" in names
        for name in names:
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args([name, "--help"])
            assert exited.value.code == 2
        capsys.readouterr()

    def test_quiet_and_verbose_set_the_repro_log_level(self, tmp_path, repro_log_level):
        missing = str(tmp_path / "missing.sqlite")
        assert main(["-q", "results", "--store", missing]) == 1
        assert repro_log_level.level == logging.ERROR
        assert main(["-v", "results", "--store", missing]) == 1
        assert repro_log_level.level == logging.INFO

    def test_run_command(self, capsys):
        code = main(["run", "--n", "128", "--aggregate", "max", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_rel_error" in out
        assert "messages" in out

    def test_run_flags_run_the_spec_they_describe(self, capsys):
        """The flags are a spec: same outcome as ``repro.run`` of it."""
        from repro import RunSpec
        from repro.simulator import FailureModel

        code = main([
            "run", "--n", "300", "--aggregate", "sum", "--workload", "normal",
            "--delta", "0.1", "--crash", "0.05", "--seed", "4",
        ])
        out = capsys.readouterr().out
        expected = repro.run(
            RunSpec(
                protocol="drr-gossip",
                params={"n": 300, "aggregate": "sum", "workload": "normal"},
                failures=FailureModel(loss_probability=0.1, crash_fraction=0.05),
                seed=4,
            )
        )
        assert code == 0
        lines = out.splitlines()
        for line in expected.describe().splitlines():
            if not line.startswith("wall time"):
                assert line in lines

    def test_run_command_rank(self, capsys):
        code = main(["run", "--n", "64", "--aggregate", "rank", "--query", "50", "--seed", "3"])
        assert code == 0

    def test_run_heartbeat_must_be_positive(self):
        with pytest.raises(SystemExit, match="heartbeat interval must be positive"):
            main(["run", "--n", "64", "--heartbeat", "0"])

    def test_run_heartbeat_thread_ends_with_the_run(self, capsys):
        assert main(["run", "--n", "64", "--heartbeat", "0.01"]) == 0
        assert "repro-heartbeat" not in {thread.name for thread in threading.enumerate()}
        capsys.readouterr()

    def test_spec_show_prints_the_spec_hash(self, capsys):
        path = EXAMPLES / "specs" / "average.toml"
        assert main(["spec", "show", str(path)]) == 0
        (shown,) = re.findall(r"spec_hash=(\w+)", capsys.readouterr().out)
        assert shown == repro.load_spec(path).spec_hash()

    def test_sweep_no_skip_reruns_every_cell(self, tmp_path, capsys):
        store = str(tmp_path / "s.sqlite")
        argv = ["sweep", "--experiments", "table1", "--ns", "64", "--reps", "2", "--store", store]
        assert main(argv) == 0
        assert "2 executed, 0 skipped" in capsys.readouterr().out
        assert main(argv) == 0
        assert "0 executed, 2 skipped" in capsys.readouterr().out
        assert main([*argv, "--no-skip"]) == 0
        assert "2 executed, 0 skipped" in capsys.readouterr().out

    def test_results_markdown_renders_the_swept_table(self, mixed_store, tmp_path, capsys):
        report = tmp_path / "report.md"
        assert main(["results", "--store", mixed_store, "--markdown", str(report)]) == 0
        text = report.read_text()
        assert "## table1" in text
        assert "| drr-gossip |" in text
        capsys.readouterr()

    def test_results_failed_prints_the_traceback(self, mixed_store, capsys):
        assert main(["results", "--store", mixed_store]) == 0
        assert "RuntimeError: boom" not in capsys.readouterr().out
        assert main(["results", "--store", mixed_store, "--failed"]) == 0
        out = capsys.readouterr().out
        assert "FAILED ablation" in out
        assert "RuntimeError: boom" in out

    def test_results_json_holds_every_row(self, mixed_store, tmp_path, capsys):
        path = tmp_path / "runs.json"
        assert main(["results", "--store", mixed_store, "--json", str(path)]) == 0
        rows = json.loads(path.read_text())
        assert sorted((row["experiment"], row["status"]) for row in rows) == [
            ("ablation", "failed"),
            ("table1", "ok"),
        ]
        capsys.readouterr()

    def test_results_experiment_filters_the_summary(self, mixed_store, capsys):
        assert main(["results", "--store", mixed_store, "--experiment", "table1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["table1"]
