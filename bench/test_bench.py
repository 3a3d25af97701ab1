"""Tests of the benchmark's own machinery (fast; part of the tier-1 suite)."""

from __future__ import annotations

import functools
import json

import pytest

import benchlib

benchlib.use_source()

import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, installed, layer_metrics, layer_targets, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    trace = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["a.inner", 2.0, 3.0, 1, "r"],
        ["b", 5.0, 7.0, 0, "r"],
        ["c", 6.0, 8.0, 0, "r"],  # overlaps b: the shared second counts once
        ["d", 9.5, 12.0, 0, "r"],  # runs past its parent: clipped at 10
    ]
    assert self_times(trace) == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 2.0, 2.5])


def test_tracer_records_parents_and_aggregates_by_name():
    tracer = Tracer(run_id="x:0")
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.close(tracer.open("outer"))
    assert [span[3] for span in tracer.spans] == [-1, 0, -1]
    assert {span[4] for span in tracer.spans} == {"x:0"}
    agg = tracer.aggregate()
    assert agg["outer"]["calls"] == 2 and agg["inner"]["calls"] == 1
    outer_self = agg["outer"]["total_s"] - agg["inner"]["total_s"]
    assert agg["outer"]["self_s"] == pytest.approx(outer_self)


def _attributes():
    return [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in layer_targets()]


def test_installed_patches_then_restores_the_identical_objects():
    before = _attributes()
    kinds = {type(original) for _, _, original in before}
    assert staticmethod in kinds and functools.cached_property in kinds
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            for owner, attr, original in before:
                assert vars(owner)[attr] is not original, attr
                assert type(vars(owner)[attr]) is type(original), attr
            raise RuntimeError("the block fails; originals must still come back")
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, attr


def test_traced_run_matches_the_untraced_run():
    import repro.api
    from repro.api import RunSpec

    spec = RunSpec(protocol="drr-gossip", params={"n": 2**12}, seed=5)
    untraced = repro.api.run(spec)
    tracer = Tracer()
    with installed(tracer):
        traced = repro.api.run(spec)
    assert traced.same_outcome(untraced)
    names = {span[0] for span in tracer.spans}
    assert {f"core.{phase}" for phase in spans.PHASES} <= names
    assert {"api.run", "forest.depth", "forest.validate", "substrate.relay_to_roots"} <= names
    assert {span[4] for span in tracer.spans} == {f"{spec.spec_hash()}:0"}
    m = layer_metrics(tracer, "api.run")
    assert m["core.drr.rounds"] == untraced.rounds_by_phase["drr"]
    assert m["failures.loss.calls"] == 0  # the reliable fast path never hashes
    assert m["trace.unattributed_frac"] < 0.5


def test_metric_names_match_benchmark_json():
    bench = benchlib.load_benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    measured_in_workloads = {
        "orchestration.cell_s_p50",
        "orchestration.cell_s_p99",
        "orchestration.worker_idle_frac",
        "orchestration.dedup_frac",
        "trace.overhead_frac",
    }
    produced = set(layer_metrics(Tracer(), "api.run")) | measured_in_workloads
    assert produced == {m["name"] for m in bench["per_layer"]}


def _outcome(fingerprint, problems=()):
    return workloads.Outcome(
        wall_s=1.0, cells=1, fingerprint=fingerprint, problems=list(problems),
        nodes=1, messages=1, rounds=1.0, coverage=1.0,
    )


def test_attempts_count_every_kind_of_failed_repetition():
    pinned = {"rounds": 3}
    attempts = workloads.Attempts(units=10, pinned=pinned)
    attempts.run("ok", lambda: _outcome(pinned))
    attempts.run("inaccurate", lambda: _outcome(pinned, ["max_rel_error too large"]))
    attempts.run("differs", lambda: _outcome({"rounds": 4}))
    attempts.run("raises", lambda: 1 / 0)
    assert (attempts.attempted, attempts.failed) == (40, 30)
    labels = [problem.split(":")[0] for problem in attempts.problems]
    assert labels == ["inaccurate", "differs", "differs", "raises"]


def test_every_workload_has_a_pinned_fingerprint():
    for name in workloads.WORKLOADS:
        assert workloads.pinned_fingerprint(name, 1) is not None
        assert workloads.pinned_fingerprint(name, 2) is None


@pytest.mark.parametrize(
    "count, tail",
    [(10, None), (99, None), (100, "p90"), (999, "p90"), (1000, "p99"), (10000, "p99.9")],
)
def test_summary_reports_only_tails_with_ten_samples_beyond(count, tail):
    values = list(range(count))
    summary = benchlib.summarize(values)
    tails = [key for key in summary if key.startswith("p")]
    assert tails == ([] if tail is None else [tail])
    if tail is not None:
        assert sum(1 for v in values if v > summary[tail]) >= benchlib.MIN_BEYOND
    assert summary["count"] == count and summary["median"] == pytest.approx((count - 1) / 2)


BENCH = benchlib.load_benchmark()
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}


def _result(metric, value, seed):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCH["end_to_end"]}
    metrics[metric]["value"] = value
    run = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return {"seed": seed, "workloads": {"avg-1e6": run}}


def _result_file(path, metric, value, seed):
    path.write_text(json.dumps(_result(metric, value, seed)))
    return str(path)


@pytest.mark.parametrize("change, agree", [(0.11, False), (0.09, True), (-0.11, False)])
def test_compare_flags_an_11_percent_change_against_a_10_percent_bound(change, agree):
    bench = {"end_to_end": [{**m, "bound": 0.10} for m in BENCH["end_to_end"]]}
    a, b = _result("run_s", 1.0, seed=1), _result("run_s", 1.0 + change, seed=1)
    assert compare.compare(a, b, bench)[1] is agree


@pytest.mark.parametrize("metric", sorted(BOUNDS))
@pytest.mark.parametrize("share_of_bound, code", [(1.1, 1), (0.9, 0), (-1.1, 1)])
def test_compare_flags_only_differences_beyond_the_bound(
    tmp_path, capsys, metric, share_of_bound, code
):
    """Each metric against its own bound in BENCHMARK.json.

    The two files ran different seeds, so the counts are held to their
    bounds rather than compared exactly.
    """
    a = _result_file(tmp_path / "a.json", metric, 1.0, seed=1)
    b = _result_file(tmp_path / "b.json", metric, 1.0 + share_of_bound * BOUNDS[metric], seed=2)
    assert compare.main([a, b]) == code
    assert ("DIFFERS" in capsys.readouterr().out) == bool(code)


@pytest.mark.parametrize("metric", sorted(compare.EXACT))
def test_compare_holds_the_counts_of_one_seed_exact(tmp_path, metric):
    assert compare.EXACT <= set(BOUNDS)
    a = _result_file(tmp_path / "a.json", metric, 1.0, seed=1)
    b = _result_file(tmp_path / "b.json", metric, 1.0 + 0.01 * BOUNDS[metric], seed=1)
    assert compare.main([a, b]) == 1
    assert compare.main([a, a]) == 0
