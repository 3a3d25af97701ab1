"""Experiment orchestration: registry, result store, sweep runner, sweep files.

This subsystem turns the reproduction harness into an experiment platform:

* :mod:`~repro.orchestration.registry` — the declarative experiment
  registry (drivers register by name; grids validate and expand against
  typed parameter specs).
* :mod:`~repro.orchestration.store` — the SQLite result store, keyed by
  ``(experiment, canonical param hash, seed)`` with resume semantics, and
  the work queue every sweep runs through (a claim is live while its
  drain holds its owner lock).
* :mod:`~repro.orchestration.runner` — the sweep runner (enqueue, then
  drain in-process or in forked drains; per-cell crash capture,
  deterministic seeds).
* :mod:`~repro.orchestration.worker` — the queue drain loop.
* :mod:`~repro.orchestration.config` — TOML/JSON sweep definitions.

Typical use::

    from repro.orchestration import (
        ResultStore, SweepDefinition, SweepRunner, load_sweep,
    )

    definition = load_sweep("examples/sweeps/quick.toml")
    with ResultStore("results/results.sqlite") as store:
        report = SweepRunner(store, jobs=4).run(definition)
    print(report.summary())
"""

from .config import ExperimentPlan, SweepDefinition, load_sweep
from .registry import (
    DEFAULT_REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    ParamSpec,
    get_experiment,
    load_builtin_experiments,
    register_experiment,
)
from .runner import (
    CellOutcome,
    SweepCell,
    SweepReport,
    SweepRunner,
    cells_from_run_specs,
    expand_cells,
    print_progress,
)
from .store import (
    QUEUE_STATES,
    QueuedCell,
    ResultStore,
    StoredRun,
    canonical_params,
    cell_spec_hash,
    cell_spec_json,
    param_hash,
)
from .worker import (
    QueueWorker,
    WorkerReport,
    WorkerShutdown,
    default_worker_id,
    row_identity,
    signal_shutdown,
)

__all__ = [
    "QUEUE_STATES",
    "QueuedCell",
    "QueueWorker",
    "WorkerReport",
    "WorkerShutdown",
    "default_worker_id",
    "row_identity",
    "signal_shutdown",
    "ExperimentPlan",
    "SweepDefinition",
    "load_sweep",
    "DEFAULT_REGISTRY",
    "ExperimentRegistry",
    "ExperimentSpec",
    "ParamSpec",
    "get_experiment",
    "load_builtin_experiments",
    "register_experiment",
    "CellOutcome",
    "SweepCell",
    "SweepReport",
    "SweepRunner",
    "cells_from_run_specs",
    "expand_cells",
    "print_progress",
    "ResultStore",
    "StoredRun",
    "canonical_params",
    "cell_spec_hash",
    "cell_spec_json",
    "param_hash",
]
