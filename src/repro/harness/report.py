"""Markdown reports of experiment results.

The report renders every experiment stored by a sweep, so the paper's
tables regenerate from two commands: ``drr-gossip sweep --config
examples/sweeps/paper.toml``, then ``drr-gossip results --markdown``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .experiments import ExperimentResult

__all__ = ["write_markdown_report", "write_markdown_report_from_store"]


def write_markdown_report(results: Iterable[ExperimentResult], path: str | Path, title: str = "Experiment report") -> Path:
    """Write a single markdown document containing every experiment's table."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sections = [f"# {title}", ""]
    for result in results:
        sections.append(f"## {result.experiment}")
        sections.append("")
        sections.append(result.description)
        sections.append("")
        sections.append(result.markdown())
        sections.append("")
        if result.notes:
            sections.append("Notes:")
            for note in result.notes:
                sections.append(f"- {note}")
            sections.append("")
        sections.append(f"Parameters: `{json.dumps(result.parameters, default=str)}` (seed {result.seed})")
        sections.append("")
    path.write_text("\n".join(sections))
    return path


def write_markdown_report_from_store(store, path: str | Path, experiment: str | None = None, title: str = "Sweep report") -> Path:
    """Render every successful run persisted in a ResultStore as one report.

    This is how ``drr-gossip results --markdown`` regenerates the paper
    tables from the sweep store without recomputing a single cell; failed
    cells are listed (with their parameter binding) but never silently
    dropped.
    """
    results = store.results(experiment)
    path = write_markdown_report(results, path, title=title)
    failed = store.query(experiment=experiment, status="failed")
    if failed:
        sections = ["", "## Failed cells", ""]
        for run in failed:
            sections.append(f"- `{run.experiment}` params=`{json.dumps(run.params, default=str)}` seed={run.seed}")
        with Path(path).open("a") as handle:
            handle.write("\n".join(sections) + "\n")
    return path
