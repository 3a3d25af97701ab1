"""Result-store-driven figures: render plots purely from stored SQLite rows.

The ROADMAP item this implements: ``drr-gossip results`` renders markdown
tables from the store; this module adds the plotting path (rounds /
messages vs n per algorithm, convergence curves) generated **purely from
stored rows**, so figures never require recomputation — re-rendering after
a crash, on another machine, or with a different format touches only the
SQLite file.

Matplotlib is an optional dependency: everything except :func:`render_plots`
is pure data shaping (and unit-testable without it); the render step imports
matplotlib lazily and raises a :class:`PlottingUnavailableError` with an
actionable message when it is missing.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PlottingUnavailableError",
    "collect_series",
    "numeric_columns",
    "plan_figures",
    "render_plots",
]

#: Categorical columns used to split an experiment's rows into one line per
#: group, in priority order (first match wins).
GROUP_COLUMNS: tuple[str, ...] = ("algorithm", "family", "workload", "aggregate", "variant", "delta")

#: Columns that are identifiers / bookkeeping rather than measurements.
NON_METRIC_COLUMNS: frozenset = frozenset({"n", "rep", "seed"}) | frozenset(GROUP_COLUMNS)


class PlottingUnavailableError(RuntimeError):
    """Raised when the optional matplotlib dependency is missing."""


def _import_matplotlib():
    try:
        import matplotlib

        matplotlib.use("Agg")  # render headless; the CLI writes files
        import matplotlib.pyplot as plt
    except ImportError as exc:  # pragma: no cover - environment dependent
        raise PlottingUnavailableError(
            "matplotlib is required for `drr-gossip plot`; install it with "
            "`pip install matplotlib` (the result store itself needs no "
            "recomputation — re-run the command once matplotlib is available)"
        ) from exc
    return plt


def numeric_columns(rows: Sequence[dict]) -> list[str]:
    """Metric columns of a row set: numeric in every row they appear in."""
    columns: list[str] = []
    rejected: set[str] = set()
    for row in rows:
        for key, value in row.items():
            if key in NON_METRIC_COLUMNS or key in rejected:
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if key not in columns:
                    columns.append(key)
            else:
                rejected.add(key)
    return [column for column in columns if column not in rejected]


def collect_series(
    rows: Iterable[dict],
    x: str,
    y: str,
    group_by: str | None = None,
) -> dict[str, tuple[list[float], list[float]]]:
    """Shape rows into per-group ``(xs, ys)`` line series.

    Rows sharing a ``(group, x)`` cell — repetitions, multiple stored seeds
    — are averaged; xs come back sorted.  Rows missing ``x`` or ``y`` (or
    holding non-numeric values) are skipped.
    """
    buckets: dict[tuple[str, float], list[float]] = defaultdict(list)
    for row in rows:
        if x not in row or y not in row:
            continue
        try:
            x_value = float(row[x])
            y_value = float(row[y])
        except (TypeError, ValueError):
            continue
        label = str(row.get(group_by, "all")) if group_by else "all"
        buckets[(label, x_value)].append(y_value)
    series: dict[str, tuple[list[float], list[float]]] = {}
    for (label, x_value) in sorted(buckets, key=lambda key: (key[0], key[1])):
        xs, ys = series.setdefault(label, ([], []))
        xs.append(x_value)
        ys.append(float(np.mean(buckets[(label, x_value)])))
    return series


def plan_figures(experiment: str, rows: Sequence[dict]) -> list[dict]:
    """Figure plan for one experiment's stored rows (pure; no matplotlib).

    One figure per metric column, drawn against ``n`` (when present) with
    one line per value of the experiment's categorical column.  Experiments
    without an ``n`` column (ablations) fall back to the categorical column
    on the x axis.
    """
    if not rows:
        return []
    keys = set().union(*(row.keys() for row in rows))
    group_by = next((c for c in GROUP_COLUMNS if c in keys), None)
    plans: list[dict] = []
    if "n" in keys:
        for metric in numeric_columns(rows):
            series = collect_series(rows, "n", metric, group_by)
            if any(len(xs) for xs, _ in series.values()):
                plans.append(
                    {
                        "experiment": experiment,
                        "metric": metric,
                        "xlabel": "n",
                        "series": series,
                        "logx": True,
                    }
                )
    elif group_by is not None:
        for metric in numeric_columns(rows):
            # Labels and values must come from the same rows; repetitions of
            # a label average, like the line-chart path.
            buckets: dict[str, list[float]] = defaultdict(list)
            for row in rows:
                if group_by not in row or metric not in row:
                    continue
                try:
                    buckets[str(row[group_by])].append(float(row[metric]))
                except (TypeError, ValueError):
                    continue
            if buckets:
                labels = list(buckets)
                values = [float(np.mean(buckets[label])) for label in labels]
                plans.append(
                    {
                        "experiment": experiment,
                        "metric": metric,
                        "xlabel": group_by,
                        "bars": (labels, values),
                    }
                )
    return plans


def render_plots(
    store,
    output_dir: str | Path,
    experiment: str | None = None,
    fmt: str = "png",
) -> list[Path]:
    """Render every figure the store's successful rows support.

    ``store`` is a :class:`~repro.orchestration.store.ResultStore`; only
    rows with status ``ok`` contribute.  Returns the written paths.
    """
    plt = _import_matplotlib()
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    rows_by_experiment: dict[str, list[dict]] = defaultdict(list)
    for run in store.query(experiment=experiment, status="ok"):
        rows_by_experiment[run.experiment].extend(run.rows)

    written: list[Path] = []
    for name, rows in sorted(rows_by_experiment.items()):
        for plan in plan_figures(name, rows):
            fig, ax = plt.subplots(figsize=(6.4, 4.2))
            if "series" in plan:
                for label, (xs, ys) in plan["series"].items():
                    ax.plot(xs, ys, marker="o", label=label)
                if plan.get("logx"):
                    ax.set_xscale("log", base=2)
                if len(plan["series"]) > 1:
                    ax.legend(fontsize=8)
            else:
                labels, values = plan["bars"]
                ax.bar(range(len(values)), values)
                ax.set_xticks(range(len(labels)))
                ax.set_xticklabels(labels, rotation=30, ha="right", fontsize=7)
            ax.set_xlabel(plan["xlabel"])
            ax.set_ylabel(plan["metric"])
            ax.set_title(f"{plan['experiment']}: {plan['metric']}", fontsize=10)
            ax.grid(True, alpha=0.3)
            fig.tight_layout()
            path = output_dir / f"{plan['experiment']}__{plan['metric']}.{fmt}"
            fig.savefig(path, dpi=150)
            plt.close(fig)
            written.append(path)
    return written
