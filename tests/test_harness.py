"""Tests for the harness: workloads, tables, experiments, reports, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.harness import (
    ExperimentResult,
    format_float,
    format_markdown_table,
    format_table,
    make_values,
    run_ablation,
    run_churn_degradation,
    run_forest_statistics,
    run_lower_bound_experiment,
    run_table1,
    workload_names,
    write_csv,
    write_json,
    write_markdown_report,
)
from repro.harness import load_json
from repro.harness.cli import EXPERIMENTS, build_parser, main


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

    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2.5], [10, 3]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
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
        assert "drr-gossip" in result.table()

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
        d = result.as_dict()
        assert d["experiment"] == "E12-ablation"
        assert result.markdown().startswith("|")
        assert len(result.column("trees")) == len(result.rows)


class TestReports:
    def test_json_csv_markdown_round_trip(self, tmp_path):
        result = run_ablation(n=128, repetitions=1, seed=10)
        jpath = write_json(result, tmp_path / "out.json")
        cpath = write_csv(result, tmp_path / "out.csv")
        mpath = write_markdown_report([result], tmp_path / "report.md")
        loaded = load_json(jpath)
        assert loaded["experiment"] == "E12-ablation"
        assert cpath.read_text().splitlines()[0].startswith("variant")
        assert "E12-ablation" in mpath.read_text()

    def test_json_is_valid(self, tmp_path):
        result = run_forest_statistics(ns=(128,), repetitions=1, seed=11)
        path = write_json(result, tmp_path / "forest.json")
        json.loads(path.read_text())


class TestCLI:
    def test_parser_lists_all_experiments(self):
        parser = build_parser()
        assert parser is not None
        assert set(EXPERIMENTS) >= {"table1", "forest", "chord", "lower-bound", "ablation"}

    def test_run_command(self, capsys):
        code = main(["run", "--n", "128", "--aggregate", "max", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max_rel_error" in out
        assert "messages" in out

    def test_run_flags_run_the_spec_they_describe(self, capsys):
        """The flags are a spec: same outcome as ``repro.run`` of it."""
        import repro
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

    def test_experiment_command_with_json(self, tmp_path, capsys):
        code = main(["forest", "--ns", "64", "128", "--reps", "1", "--json", str(tmp_path / "f.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "f.json").exists()
        assert "trees_mean" in out

    def test_ablation_command(self, capsys):
        code = main(["ablation", "--ns", "128", "--reps", "1"])
        assert code == 0
        assert "probe budget" in capsys.readouterr().out
