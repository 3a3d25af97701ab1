"""Experiment drivers: one function per table/figure of the paper.

The paper-scale grid over all of them is ``examples/sweeps/paper.toml``;
``drr-gossip results --markdown`` renders the stored rows as tables.

Every driver returns an :class:`ExperimentResult` holding the raw rows (a
list of plain dicts so they serialise to JSON without ceremony), the table
headers, and enough metadata (seed, parameters) to replay the run.  Each
driver registers itself under its experiment name with
``@register_experiment``; sweeps run it by that name, and the claim tests
(``tests/test_claims.py``) call it directly with an exact seed.

Protocol executions go through the declarative run API: a driver builds a
:class:`~repro.api.RunSpec` per (configuration, repetition) — with a seed
derived exactly the way the old direct calls derived their generators, so
results are preserved bit-for-bit — and reads the uniform
:class:`~repro.api.RunResult` envelope back.  Only the phase-composition
studies (E5/E6 convergence, E9's gossip-over-Chord accounting) still call
phase functions directly: they measure *parts* of a protocol, which is
below the granularity a RunSpec describes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis import best_shape, power_law_exponent, theory
from ..analysis.lower_bound import adversarial_push_max_messages
from ..api import RunSpec, TopologySpec
from ..api import run as dispatch_run
from ..core import (
    Aggregate,
    DRRGossipConfig,
    default_probe_budget,
    run_convergecast,
    run_drr,
    run_gossip_ave,
    run_gossip_max,
    run_local_drr,
)
from ..core.drr_gossip import broadcast_root_addresses  # reused forwarding-table builder
from ..orchestration.registry import register_experiment
from ..simulator import FailureModel, MetricsCollector
from ..simulator.rng import RngStream, derive_seed
from ..substrate import run_chord_lookups
from ..topology import ChordNetwork
from .tables import format_markdown_table
from .workloads import make_values

__all__ = [
    "ExperimentResult",
    "run_table1",
    "run_forest_statistics",
    "run_gossip_max_convergence",
    "run_gossip_ave_convergence",
    "run_end_to_end_accuracy",
    "run_local_drr_statistics",
    "run_chord_comparison",
    "run_lower_bound_experiment",
    "run_phase_breakdown",
    "run_ablation",
    "run_churn_degradation",
    "DEFAULT_NS",
]

#: Default network-size sweep.  Chosen so the full suite runs on a laptop in
#: minutes while spanning enough doublings for the shape fits to be stable.
DEFAULT_NS: tuple[int, ...] = (256, 512, 1024, 2048, 4096)


@dataclass
class ExperimentResult:
    """A finished experiment: rows + headers + metadata."""

    experiment: str
    description: str
    headers: list[str]
    rows: list[dict]
    seed: int
    parameters: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def markdown(self) -> str:
        return format_markdown_table(self.headers, [[row.get(h, "") for h in self.headers] for row in self.rows])

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


# --------------------------------------------------------------------------- #
# E1: Table 1
# --------------------------------------------------------------------------- #
@register_experiment("table1")
def run_table1(
    ns: Sequence[int] = DEFAULT_NS,
    repetitions: int = 3,
    seed: int = 1,
    delta: float = 0.0,
    workload: str = "uniform",
    aggregate: Aggregate = Aggregate.AVERAGE,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Measure rounds and messages of the three Table 1 protocols across n.

    For each algorithm and each ``n`` the driver reports mean rounds, mean
    messages, messages per node, and the normalised ratios against the
    paper's bound shapes; the final rows add the fitted growth shape of
    messages/n so "who wins and why" is explicit.
    """
    stream = RngStream(seed)
    failure_model = FailureModel(loss_probability=delta)
    aggregate = Aggregate(aggregate)
    rows: list[dict] = []
    per_algo_msgs: dict[str, list[float]] = {"drr-gossip": [], "uniform-gossip": [], "efficient-gossip": []}
    per_algo_rounds: dict[str, list[float]] = {k: [] for k in per_algo_msgs}

    for n in ns:
        for rep in range(repetitions):
            # One explicit value vector per repetition, shared by all three
            # algorithms (the comparison is on identical inputs); each
            # algorithm runs from its own spec with its own derived seed.
            values = make_values(workload, n, stream.get("table1", n, rep)).tolist()
            drr_agg, uni_protocol = (
                ("average", "push-sum") if aggregate == Aggregate.AVERAGE else ("max", "push-max")
            )
            drr_run = dispatch_run(
                RunSpec(
                    protocol="drr-gossip",
                    params={"values": values, "aggregate": drr_agg},
                    failures=failure_model,
                    backend=backend,
                    seed=derive_seed(seed, "table1-drr", n, rep),
                )
            )
            uni = dispatch_run(
                RunSpec(
                    protocol=uni_protocol,
                    params={"values": values},
                    failures=failure_model,
                    backend=backend,
                    seed=derive_seed(seed, "table1-uni", n, rep),
                )
            )
            eff = dispatch_run(
                RunSpec(
                    protocol="efficient-gossip",
                    params={"values": values, "aggregate": aggregate.value},
                    failures=failure_model,
                    backend=backend,
                    seed=derive_seed(seed, "table1-eff", n, rep),
                )
            )

            for name, rounds, messages, error in (
                ("drr-gossip", drr_run.rounds, drr_run.messages, drr_run.summary["max_rel_error"]),
                ("uniform-gossip", uni.rounds, uni.messages, uni.summary["max_rel_error"]),
                ("efficient-gossip", eff.rounds, eff.messages, eff.summary["max_rel_error"]),
            ):
                rows.append(
                    {
                        "algorithm": name,
                        "n": n,
                        "rep": rep,
                        "rounds": rounds,
                        "messages": messages,
                        "messages_per_node": messages / n,
                        "max_rel_error": error,
                        "rounds_over_logn": rounds / float(theory.log2n(n)),
                        "messages_over_nloglogn": messages / float(theory.drr_message_bound(n)),
                        "messages_over_nlogn": messages / float(theory.uniform_gossip_message_bound(n)),
                    }
                )
            per_algo_msgs["drr-gossip"].append(drr_run.messages / n)
            per_algo_msgs["uniform-gossip"].append(uni.messages / n)
            per_algo_msgs["efficient-gossip"].append(eff.messages / n)
            per_algo_rounds["drr-gossip"].append(drr_run.rounds)
            per_algo_rounds["uniform-gossip"].append(uni.rounds)
            per_algo_rounds["efficient-gossip"].append(eff.rounds)

    notes = []
    n_expanded = [n for n in ns for _ in range(repetitions)]
    # Shape fits only make sense when the sweep spans more than one size.
    if len(set(ns)) >= 2:
        for name, samples in per_algo_msgs.items():
            fit = best_shape(n_expanded, samples, candidates=["constant", "loglog n", "log n", "log^2 n"])
            notes.append(f"messages/node growth for {name}: best shape = {fit.shape_name} (rms {fit.residual_rms:.3g})")
        for name, samples in per_algo_rounds.items():
            fit = best_shape(n_expanded, samples, candidates=["constant", "loglog n", "log n", "log n * loglog n", "log^2 n"])
            notes.append(f"rounds growth for {name}: best shape = {fit.shape_name} (rms {fit.residual_rms:.3g})")

    headers = [
        "algorithm",
        "n",
        "rep",
        "rounds",
        "messages",
        "messages_per_node",
        "max_rel_error",
        "rounds_over_logn",
        "messages_over_nloglogn",
        "messages_over_nlogn",
    ]
    return ExperimentResult(
        experiment="E1-table1",
        description="Table 1: time and message complexity of DRR-gossip vs uniform gossip vs efficient gossip",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "repetitions": repetitions, "delta": delta, "workload": workload, "aggregate": str(aggregate), "backend": backend},
        notes=notes,
    )


# --------------------------------------------------------------------------- #
# E2-E4: forest statistics and DRR complexity (Theorems 2-4)
# --------------------------------------------------------------------------- #
@register_experiment("forest")
def run_forest_statistics(
    ns: Sequence[int] = DEFAULT_NS,
    repetitions: int = 5,
    seed: int = 2,
    delta: float = 0.0,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Measure #trees, max tree size, DRR messages and rounds across n."""
    failure_model = FailureModel(loss_probability=delta)
    rows: list[dict] = []
    for n in ns:
        tree_counts, max_sizes, messages, rounds = [], [], [], []
        for rep in range(repetitions):
            result = dispatch_run(
                RunSpec(
                    protocol="drr",
                    params={"n": n},
                    failures=failure_model,
                    backend=backend,
                    seed=derive_seed(seed, "forest", n, rep),
                )
            )
            tree_counts.append(result.summary["trees"])
            max_sizes.append(result.summary["max_tree_size"])
            messages.append(result.messages)
            rounds.append(result.rounds)
        rows.append(
            {
                "n": n,
                "trees_mean": float(np.mean(tree_counts)),
                "trees_over_n_div_logn": float(np.mean(tree_counts) / theory.expected_tree_count(n)),
                "max_tree_size_mean": float(np.mean(max_sizes)),
                "max_tree_size_over_logn": float(np.mean(max_sizes) / theory.expected_max_tree_size(n)),
                "messages_mean": float(np.mean(messages)),
                "messages_per_node": float(np.mean(messages) / n),
                "messages_over_nloglogn": float(np.mean(messages) / theory.drr_message_bound(n)),
                "rounds_mean": float(np.mean(rounds)),
                "rounds_over_logn": float(np.mean(rounds) / theory.drr_round_bound(n)),
            }
        )
    notes = []
    if len(set(ns)) >= 2:
        exponent = power_law_exponent([r["n"] for r in rows], [r["messages_mean"] for r in rows])
        notes.append(f"power-law exponent of total DRR messages vs n: {exponent:.3f} (theory: ~1, i.e. quasi-linear)")
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E2-E4-forest",
        description="Theorems 2-4: DRR forest statistics and complexity",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "repetitions": repetitions, "delta": delta, "backend": backend},
        notes=notes,
    )


# --------------------------------------------------------------------------- #
# E5: Gossip-max convergence (Theorems 5-6)
# --------------------------------------------------------------------------- #
@register_experiment("gossip-max")
def run_gossip_max_convergence(
    ns: Sequence[int] = (256, 1024, 4096),
    deltas: Sequence[float] = (0.0, 0.05, 0.1),
    repetitions: int = 5,
    seed: int = 3,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Fraction of roots holding Max after the gossip / sampling procedures."""
    stream = RngStream(seed)
    rows: list[dict] = []
    for n in ns:
        for delta in deltas:
            failure_model = FailureModel(loss_probability=delta)
            frac_after_gossip, frac_after_sampling, msgs = [], [], []
            for rep in range(repetitions):
                rng = stream.get("gmax", n, int(delta * 100), rep)
                values = make_values("uniform", n, rng)
                drr = run_drr(n, rng=rng, failure_model=failure_model, backend=backend)
                roots = drr.forest.roots
                cov = run_convergecast(drr, values, op="max", failure_model=failure_model, rng=rng, backend=backend)
                metrics = MetricsCollector(n=n)
                root_of = broadcast_root_addresses(
                    drr, roots, rng, DRRGossipConfig(failure_model=failure_model, backend=backend), metrics
                )
                gossip = run_gossip_max(
                    roots=roots,
                    root_values=cov.value_vector(roots),
                    root_of=root_of,
                    n=n,
                    failure_model=failure_model,
                    rng=rng,
                    metrics=metrics,
                    backend=backend,
                )
                true_max = float(cov.value_vector(roots).max())
                final = np.array(list(gossip.estimates.values()))
                frac_after_gossip.append(gossip.after_gossip_fraction)
                frac_after_sampling.append(float(np.mean(final >= true_max)))
                msgs.append(metrics.phase("gossip-max").messages)
            rows.append(
                {
                    "n": n,
                    "delta": delta,
                    "roots_with_max_after_gossip": float(np.mean(frac_after_gossip)),
                    "roots_with_max_after_sampling": float(np.mean(frac_after_sampling)),
                    "all_roots_runs_fraction": float(np.mean([f >= 1.0 for f in frac_after_sampling])),
                    "gossip_max_messages_per_node": float(np.mean(msgs) / n),
                }
            )
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E5-gossip-max",
        description="Theorems 5-6: Gossip-max spreads the maximum to all roots",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "deltas": list(deltas), "repetitions": repetitions, "backend": backend},
    )


# --------------------------------------------------------------------------- #
# E6: Gossip-ave convergence (Theorems 7 & 10)
# --------------------------------------------------------------------------- #
@register_experiment("gossip-ave")
def run_gossip_ave_convergence(
    ns: Sequence[int] = (256, 1024, 4096),
    workloads: Sequence[str] = ("uniform", "bimodal", "signed", "zero-mean"),
    repetitions: int = 3,
    seed: int = 4,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Relative error at the largest-tree root vs rounds, per workload."""
    stream = RngStream(seed)
    rows: list[dict] = []
    for n in ns:
        for workload in workloads:
            errors_final, rounds_to_1pct = [], []
            for rep in range(repetitions):
                rng = stream.get("gave", n, workload, rep)
                values = make_values(workload, n, rng)
                drr = run_drr(n, rng=rng, backend=backend)
                roots = drr.forest.roots
                cov = run_convergecast(drr, values, op="sum", rng=rng, backend=backend)
                metrics = MetricsCollector(n=n)
                root_of = broadcast_root_addresses(drr, roots, rng, DRRGossipConfig(backend=backend), metrics)
                largest = drr.forest.largest_root()
                ave = run_gossip_ave(
                    roots=roots,
                    local_sums=cov.value_vector(roots),
                    local_weights=cov.weight_vector(roots),
                    root_of=root_of,
                    n=n,
                    rng=rng,
                    metrics=metrics,
                    trace_root=largest,
                    backend=backend,
                )
                truth = float(values.mean())
                history = np.array(ave.history)
                # The paper's criterion: relative error, switching to the
                # absolute criterion when the true average is (numerically)
                # zero; we normalise the absolute criterion by the value
                # scale so "1%" means the same thing across workloads.
                scale = float(np.abs(values).mean())
                if abs(truth) > 1e-9 * max(1.0, scale):
                    errs = np.abs(history - truth) / abs(truth)
                else:
                    errs = np.abs(history - truth) / max(scale, 1e-300)
                errors_final.append(float(errs[-1]))
                below = np.flatnonzero(errs <= 0.01)
                rounds_to_1pct.append(int(below[0]) + 1 if below.size else ave.rounds)
            rows.append(
                {
                    "n": n,
                    "workload": workload,
                    "final_rel_error_mean": float(np.mean(errors_final)),
                    "rounds_to_1pct_mean": float(np.mean(rounds_to_1pct)),
                    "rounds_to_1pct_over_logn": float(np.mean(rounds_to_1pct) / theory.log2n(n)),
                }
            )
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E6-gossip-ave",
        description="Theorems 7 & 10: Gossip-ave convergence at the largest-tree root",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "workloads": list(workloads), "repetitions": repetitions, "backend": backend},
    )


# --------------------------------------------------------------------------- #
# E7: end-to-end accuracy of every aggregate
# --------------------------------------------------------------------------- #
@register_experiment("end-to-end")
def run_end_to_end_accuracy(
    ns: Sequence[int] = (256, 1024),
    repetitions: int = 3,
    seed: int = 5,
    delta: float = 0.0,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Correctness/accuracy and cost of every DRR-gossip aggregate pipeline."""
    failure_model = FailureModel(loss_probability=delta)
    rows: list[dict] = []
    for n in ns:
        for aggregate in (Aggregate.MAX, Aggregate.MIN, Aggregate.AVERAGE, Aggregate.SUM, Aggregate.COUNT, Aggregate.RANK):
            errors, coverages, rounds, messages = [], [], [], []
            for rep in range(repetitions):
                result = dispatch_run(
                    RunSpec(
                        protocol="drr-gossip",
                        params={"n": n, "aggregate": aggregate.value, "workload": "normal"},
                        failures=failure_model,
                        backend=backend,
                        seed=derive_seed(seed, "e2e", n, str(aggregate), rep),
                    )
                )
                errors.append(result.summary["max_rel_error"])
                coverages.append(result.summary["coverage"])
                rounds.append(result.rounds)
                messages.append(result.messages)
            rows.append(
                {
                    "n": n,
                    "aggregate": str(aggregate),
                    "max_rel_error": float(np.max(errors)),
                    "coverage": float(np.mean(coverages)),
                    "rounds_mean": float(np.mean(rounds)),
                    "messages_per_node": float(np.mean(messages) / n),
                }
            )
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E7-end-to-end",
        description="End-to-end DRR-gossip accuracy and cost for every supported aggregate",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "repetitions": repetitions, "delta": delta, "backend": backend},
    )


# --------------------------------------------------------------------------- #
# E8: Local-DRR on sparse graphs (Theorems 11 & 13)
# --------------------------------------------------------------------------- #
@register_experiment("local-drr")
def run_local_drr_statistics(
    ns: Sequence[int] = (256, 1024, 4096),
    families: Sequence[str] = ("ring", "grid", "regular4", "hypercube", "erdos-renyi"),
    repetitions: int = 3,
    seed: int = 6,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Tree height and tree count of Local-DRR across graph families."""
    rows: list[dict] = []
    for family in families:
        for n in ns:
            heights, counts, predicted = [], [], []
            for rep in range(repetitions):
                result = dispatch_run(
                    RunSpec(
                        protocol="local-drr",
                        topology=TopologySpec(family=family, n=n),
                        backend=backend,
                        seed=derive_seed(seed, "localdrr", family, n, rep),
                    )
                )
                heights.append(result.summary["max_tree_height"])
                counts.append(result.summary["trees"])
                predicted.append(result.summary["expected_trees"])
            rows.append(
                {
                    "family": family,
                    "n": n,
                    "max_tree_height_mean": float(np.mean(heights)),
                    "height_over_logn": float(np.mean(heights) / theory.log2n(n)),
                    "trees_mean": float(np.mean(counts)),
                    "trees_over_predicted": float(np.mean(counts) / np.mean(predicted)),
                }
            )
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E8-local-drr",
        description="Theorems 11 & 13: Local-DRR tree height and tree count on sparse graphs",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "families": list(families), "repetitions": repetitions, "backend": backend},
    )


# --------------------------------------------------------------------------- #
# E9: DRR-gossip vs uniform gossip on Chord (Theorem 14 / Section 4)
# --------------------------------------------------------------------------- #
@register_experiment("chord")
def run_chord_comparison(
    ns: Sequence[int] = (128, 256, 512, 1024),
    repetitions: int = 3,
    seed: int = 7,
    gossip_rounds_factor: float = 2.0,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Compare message/round cost of DRR-gossip and uniform gossip on Chord.

    Both protocols obtain random peers through Chord identifier routing and
    the measured per-sample hop cost is what enters the totals, so this is a
    measurement of Theorem 14's statement rather than a restatement of it.
    Every phase runs on the execution substrate: Local-DRR and convergecast
    under ``backend``, and each gossip round's peer sampling as one batched
    lookup (all routes advancing one overlay hop per round) through
    :func:`repro.substrate.run_chord_lookups`.
    """
    stream = RngStream(seed)
    rows: list[dict] = []
    for n in ns:
        drr_msgs, uni_msgs, drr_rounds, uni_rounds = [], [], [], []
        for rep in range(repetitions):
            rng = stream.get("chord", n, rep)
            chord = ChordNetwork(n, rng)
            topo = chord.to_topology()
            all_nodes = np.arange(n, dtype=np.int64)
            gossip_rounds = int(math.ceil(gossip_rounds_factor * math.log2(n))) + 4

            # ---- DRR-gossip on Chord -------------------------------------- #
            local = run_local_drr(topo, rng=rng, backend=backend)
            forest = local.forest
            roots = forest.roots
            messages = local.metrics.total_messages
            rounds = local.rounds
            # Phase II: convergecast + root broadcast along tree edges.
            values = make_values("uniform", n, rng)
            cov = run_convergecast(local, values, op="max", rng=rng, backend=backend)
            messages += cov.metrics.phase("convergecast").messages
            rounds += cov.rounds
            depth = forest.depth
            # Phase III: every root samples a random identifier per round and
            # routes to its owner (one batched lookup; measured hops), the
            # owner forwards to its root along its tree path (depth hops).
            max_height = forest.max_tree_height
            for _ in range(gossip_rounds):
                identifiers = rng.integers(0, chord.ring_size, size=roots.size)
                batch = run_chord_lookups(chord, roots, identifiers, rng=rng, backend=backend)
                peers = batch.owners[batch.delivered]
                messages += batch.messages + int(depth[peers].sum())
                rounds += batch.rounds + max_height
            drr_msgs.append(messages)
            drr_rounds.append(rounds)

            # ---- uniform gossip on Chord ----------------------------------- #
            messages_u = 0
            rounds_u = 0
            for _ in range(gossip_rounds):
                # every node samples a random peer through routing and pushes
                identifiers = rng.integers(0, chord.ring_size, size=n)
                batch = run_chord_lookups(chord, all_nodes, identifiers, rng=rng, backend=backend)
                messages_u += batch.messages
                rounds_u += batch.rounds
            uni_msgs.append(messages_u)
            uni_rounds.append(rounds_u)
        rows.append(
            {
                "n": n,
                "drr_messages_per_node": float(np.mean(drr_msgs) / n),
                "uniform_messages_per_node": float(np.mean(uni_msgs) / n),
                "message_ratio_uniform_over_drr": float(np.mean(uni_msgs) / np.mean(drr_msgs)),
                "drr_rounds": float(np.mean(drr_rounds)),
                "uniform_rounds": float(np.mean(uni_rounds)),
                "drr_msgs_over_nlogn": float(np.mean(drr_msgs) / theory.chord_drr_gossip_messages(n)),
                "uniform_msgs_over_nlog2n": float(np.mean(uni_msgs) / theory.chord_uniform_gossip_messages(n)),
            }
        )
    notes = [
        "Theory: uniform/DRR message ratio should grow like log n "
        f"(measured ratios: {[round(r['message_ratio_uniform_over_drr'], 2) for r in rows]})"
    ]
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E9-chord",
        description="Section 4: DRR-gossip vs uniform gossip over Chord",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "repetitions": repetitions, "backend": backend},
        notes=notes,
    )


# --------------------------------------------------------------------------- #
# E10: address-oblivious lower bound (Theorem 15)
# --------------------------------------------------------------------------- #
@register_experiment("lower-bound")
def run_lower_bound_experiment(
    ns: Sequence[int] = (128, 256, 512, 1024),
    repetitions: int = 3,
    seed: int = 8,
    target_fraction: float = 0.9,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Messages address-oblivious protocols spend vs the n log n bound."""
    stream = RngStream(seed)
    rows: list[dict] = []
    for n in ns:
        oblivious_msgs, rumor_msgs, drr_msgs = [], [], []
        for rep in range(repetitions):
            rng = stream.get("lb", n, rep)
            adv = adversarial_push_max_messages(n, rng=rng, target_fraction=target_fraction)
            oblivious_msgs.append(adv.messages_to_target)
            rumor = dispatch_run(
                RunSpec(
                    protocol="push-pull-rumor",
                    params={"n": n},
                    backend=backend,
                    seed=derive_seed(seed, "lb-rumor", n, rep),
                )
            )
            rumor_msgs.append(rumor.messages)
            values = make_values("single-spike", n, stream.get("lb-vals", n, rep))
            drr = dispatch_run(
                RunSpec(
                    protocol="drr-gossip",
                    params={"values": values.tolist(), "aggregate": "max"},
                    backend=backend,
                    seed=derive_seed(seed, "lb-drr", n, rep),
                )
            )
            drr_msgs.append(drr.messages)
        rows.append(
            {
                "n": n,
                "oblivious_messages_per_node": float(np.mean(oblivious_msgs) / n),
                "oblivious_over_nlogn": float(np.mean(oblivious_msgs) / theory.address_oblivious_lower_bound(n)),
                "rumor_messages_per_node": float(np.mean(rumor_msgs) / n),
                "rumor_over_nloglogn": float(np.mean(rumor_msgs) / theory.rumor_spreading_message_bound(n)),
                "drr_gossip_messages_per_node": float(np.mean(drr_msgs) / n),
                "drr_over_nloglogn": float(np.mean(drr_msgs) / theory.drr_message_bound(n)),
            }
        )
    notes = []
    if len(set(ns)) >= 2:  # a growth shape needs at least two sizes
        n_list = [r["n"] for r in rows]
        notes = [
            "address-oblivious per-node messages best shape: "
            + best_shape(n_list, [r["oblivious_messages_per_node"] for r in rows], candidates=["constant", "loglog n", "log n"]).shape_name,
            "rumor-spreading per-node messages best shape: "
            + best_shape(n_list, [r["rumor_messages_per_node"] for r in rows], candidates=["constant", "loglog n", "log n"]).shape_name,
        ]
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E10-lower-bound",
        description="Theorem 15: address-oblivious aggregation needs Omega(n log n) messages; rumor spreading does not",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "repetitions": repetitions, "target_fraction": target_fraction, "backend": backend},
        notes=notes,
    )


# --------------------------------------------------------------------------- #
# E11: per-phase message breakdown (Section 3.5 accounting)
# --------------------------------------------------------------------------- #
@register_experiment("phase-breakdown")
def run_phase_breakdown(
    ns: Sequence[int] = (256, 1024, 4096),
    repetitions: int = 3,
    seed: int = 9,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Which phase dominates the message budget of DRR-gossip-ave."""
    rows: list[dict] = []
    for n in ns:
        totals: dict[str, list[float]] = {}
        for rep in range(repetitions):
            result = dispatch_run(
                RunSpec(
                    protocol="drr-gossip",
                    params={"n": n, "aggregate": "average", "workload": "uniform"},
                    backend=backend,
                    seed=derive_seed(seed, "breakdown", n, rep),
                )
            )
            for phase, count in result.messages_by_phase.items():
                totals.setdefault(phase, []).append(count)
        total_messages = sum(float(np.mean(v)) for v in totals.values())
        row = {"n": n, "total_messages_per_node": total_messages / n}
        for phase, samples in sorted(totals.items()):
            row[f"{phase}_share"] = float(np.mean(samples)) / total_messages if total_messages else 0.0
        rows.append(row)
    headers = sorted({key for row in rows for key in row}, key=lambda k: (k != "n", k))
    return ExperimentResult(
        experiment="E11-phase-breakdown",
        description=(
            "Section 3.5 accounting: per-phase share of the DRR-gossip-ave message budget "
            "(the DRR share is the only one that grows with n, like log log n; all other phases are O(n))"
        ),
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"ns": list(ns), "repetitions": repetitions, "backend": backend},
    )


# --------------------------------------------------------------------------- #
# E12: ablations of the design choices
# --------------------------------------------------------------------------- #
@register_experiment("ablation")
def run_ablation(
    n: int = 2048,
    repetitions: int = 3,
    seed: int = 10,
    backend: str = "vectorized",
) -> ExperimentResult:
    """Ablate the probe budget and the rank domain of DRR."""
    stream = RngStream(seed)
    rows: list[dict] = []
    base_budget = default_probe_budget(n)
    for label, budget in (
        ("paper: log2(n)-1", base_budget),
        ("half budget", max(1, base_budget // 2)),
        ("double budget", base_budget * 2),
        ("single probe", 1),
    ):
        counts, sizes, msgs = [], [], []
        for rep in range(repetitions):
            result = dispatch_run(
                RunSpec(
                    protocol="drr",
                    params={"n": n, "probe_budget": budget},
                    backend=backend,
                    seed=derive_seed(seed, "ablate-budget", label, rep),
                )
            )
            counts.append(result.summary["trees"])
            sizes.append(result.summary["max_tree_size"])
            msgs.append(result.messages)
        rows.append(
            {
                "variant": f"probe budget ({label})",
                "trees": float(np.mean(counts)),
                "max_tree_size": float(np.mean(sizes)),
                "messages_per_node": float(np.mean(msgs) / n),
            }
        )
    # rank domain ablation: continuous [0,1] vs integer [1, n^3] (Section 3.1
    # remarks both give the same asymptotics; integers can tie).
    for label, rank_factory in (
        ("ranks in [0,1]", lambda rng: rng.random(n)),
        ("ranks in [1,n^3]", lambda rng: rng.integers(1, n**3, size=n).astype(float)),
    ):
        counts, sizes, msgs = [], [], []
        for rep in range(repetitions):
            rng = stream.get("ablate-rank", label, rep)
            result = run_drr(n, rng=rng, ranks=rank_factory(rng), backend=backend)
            counts.append(result.forest.root_count)
            sizes.append(result.forest.max_tree_size)
            msgs.append(result.metrics.total_messages)
        rows.append(
            {
                "variant": f"rank domain ({label})",
                "trees": float(np.mean(counts)),
                "max_tree_size": float(np.mean(sizes)),
                "messages_per_node": float(np.mean(msgs) / n),
            }
        )
    headers = ["variant", "trees", "max_tree_size", "messages_per_node"]
    return ExperimentResult(
        experiment="E12-ablation",
        description="Ablations: DRR probe budget and rank domain",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={"n": n, "repetitions": repetitions, "backend": backend},
    )


# --------------------------------------------------------------------------- #
# E13: degradation under mid-run churn
# --------------------------------------------------------------------------- #
@register_experiment("churn-degradation")
def run_churn_degradation(
    n: int = 1024,
    churn_rates: Sequence[float] = (0.0, 0.002, 0.005, 0.01, 0.02),
    repetitions: int = 3,
    seed: int = 13,
    delta: float = 0.0,
    join_rate: float = 0.0,
    backend: str = "vectorized",
) -> ExperimentResult:
    """How gracefully each averaging protocol degrades under node churn.

    Sweeps the per-round crash probability and compares the tree-structured
    DRR-gossip pipeline against address-oblivious push-sum and the
    epoch-restarted push-pull protocol.  The success measure is the
    survivor-mass relative error (worst surviving node against the exact
    aggregate of the survivors) plus the fraction of messages wasted on
    dead recipients.  ``join_rate`` only applies to the protocols whose
    churn capability includes joins (DRR-gossip is crash-only: a node
    cannot rejoin a tree built before it returned).
    """
    protocols: tuple[tuple[str, dict, bool], ...] = (
        ("drr-gossip", {"n": n, "aggregate": "average", "workload": "normal"}, False),
        ("push-sum", {"n": n, "workload": "normal"}, True),
        ("epoch-gossip-ave", {"n": n, "workload": "normal"}, True),
    )
    rows: list[dict] = []
    for churn_rate in churn_rates:
        for protocol, params, supports_joins in protocols:
            failure_model = FailureModel(
                loss_probability=delta,
                churn_rate=churn_rate,
                join_rate=join_rate if supports_joins else 0.0,
            )
            errors, survivors, wasted, rounds, messages = [], [], [], [], []
            for rep in range(repetitions):
                result = dispatch_run(
                    RunSpec(
                        protocol=protocol,
                        params=params,
                        failures=failure_model,
                        backend=backend,
                        seed=derive_seed(seed, "churn", protocol, churn_rate, rep),
                    )
                )
                degradation = result.degradation or {}
                errors.append(
                    degradation.get("survivor_mass_rel_error", result.summary["max_rel_error"])
                )
                survivors.append(degradation.get("survivors", float(n)))
                wasted.append(degradation.get("messages_to_dead", 0.0))
                rounds.append(result.rounds)
                messages.append(result.messages)
            rows.append(
                {
                    "churn_rate": float(churn_rate),
                    "protocol": protocol,
                    "survivor_mass_rel_error": float(np.max(errors)),
                    "survivors_mean": float(np.mean(survivors)),
                    "messages_to_dead_frac": float(np.sum(wasted) / max(1, np.sum(messages))),
                    "rounds_mean": float(np.mean(rounds)),
                    "messages_per_node": float(np.mean(messages) / n),
                }
            )
    headers = list(rows[0].keys())
    return ExperimentResult(
        experiment="E13-churn-degradation",
        description="Degradation of DRR-gossip vs push-sum vs epoch-restarted gossip under churn",
        headers=headers,
        rows=rows,
        seed=seed,
        parameters={
            "n": n,
            "churn_rates": list(churn_rates),
            "repetitions": repetitions,
            "delta": delta,
            "join_rate": join_rate,
            "backend": backend,
        },
    )
