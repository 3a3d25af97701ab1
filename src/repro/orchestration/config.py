"""Declarative sweep definitions (TOML / JSON).

A sweep file names a master seed, a repetition count, and one block per
experiment with an optional parameter grid, so paper-scale grids live in
versioned files instead of one-off argparse invocations::

    # examples/sweeps/quick.toml
    [sweep]
    name = "quick"
    seed = 1
    repetitions = 2

    [[experiment]]
    name = "table1"
    [experiment.grid]
    ns = [64, 128]          # ONE candidate: the sweep vector (64, 128)

    [[experiment]]
    name = "ablation"
    repetitions = 1          # overrides [sweep].repetitions
    [experiment.grid]
    n = [128, 256]           # TWO candidates: scalar parameter swept

Grid semantics follow :meth:`ExperimentSpec.expand_grid`: scalar parameters
treat a list as multiple candidates; sequence parameters (``ns``,
``deltas``, ``workloads``, ...) treat a flat list as a single candidate and
a list of lists as multiple candidates.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["ExperimentPlan", "SweepDefinition", "load_sweep"]

DEFAULT_REPETITIONS = 1
DEFAULT_MASTER_SEED = 1


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment block of a sweep: which driver, which grid, how often."""

    experiment: str
    grid: Mapping[str, Any] = field(default_factory=dict)
    repetitions: int | None = None  #: None = inherit the sweep-level count


@dataclass(frozen=True)
class SweepDefinition:
    """A full sweep: named, seeded, and composed of experiment plans."""

    name: str
    plans: tuple[ExperimentPlan, ...]
    seed: int = DEFAULT_MASTER_SEED
    repetitions: int = DEFAULT_REPETITIONS

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError(f"sweep {self.name!r} defines no experiments")
        if self.repetitions < 1:
            raise ValueError(f"sweep {self.name!r}: repetitions must be >= 1")

    def repetitions_for(self, plan: ExperimentPlan) -> int:
        reps = plan.repetitions if plan.repetitions is not None else self.repetitions
        if reps < 1:
            raise ValueError(f"experiment {plan.experiment!r}: repetitions must be >= 1")
        return reps

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, name: str = "sweep") -> "SweepDefinition":
        """Build a definition from the parsed TOML/JSON document."""
        unknown_top = set(data) - {"sweep", "experiment", "experiments"}
        if unknown_top:
            raise ValueError(f"sweep file has unknown top-level keys {sorted(unknown_top)}")
        meta = data.get("sweep", {})
        if not isinstance(meta, Mapping):
            raise ValueError("[sweep] must be a table/object")
        unknown_meta = set(meta) - {"name", "seed", "repetitions"}
        if unknown_meta:
            raise ValueError(f"[sweep] has unknown keys {sorted(unknown_meta)}")
        blocks = data.get("experiment", data.get("experiments", []))
        if isinstance(blocks, Mapping):
            blocks = [blocks]
        plans = []
        for block in blocks:
            if not isinstance(block, Mapping) or "name" not in block:
                raise ValueError(f"experiment block must be a table with a 'name' key, got {block!r}")
            unknown = set(block) - {"name", "grid", "repetitions"}
            if unknown:
                raise ValueError(
                    f"experiment block {block['name']!r} has unknown keys {sorted(unknown)}"
                )
            grid = block.get("grid", {})
            if not isinstance(grid, Mapping):
                raise ValueError(f"experiment {block['name']!r}: grid must be a table/object")
            reps = block.get("repetitions")
            plans.append(
                ExperimentPlan(
                    experiment=str(block["name"]),
                    grid=dict(grid),
                    repetitions=int(reps) if reps is not None else None,
                )
            )
        return cls(
            name=str(meta.get("name", name)),
            plans=tuple(plans),
            seed=int(meta.get("seed", DEFAULT_MASTER_SEED)),
            repetitions=int(meta.get("repetitions", DEFAULT_REPETITIONS)),
        )

    @classmethod
    def from_experiments(
        cls,
        experiments: Sequence[str],
        *,
        name: str = "cli-sweep",
        grid: Mapping[str, Any] | None = None,
        seed: int = DEFAULT_MASTER_SEED,
        repetitions: int = DEFAULT_REPETITIONS,
    ) -> "SweepDefinition":
        """Ad-hoc definition for CLI invocations without a sweep file.

        ``grid`` (if given) is applied to every experiment, dropping entries
        a given experiment does not accept — this is what lets
        ``drr-gossip sweep --experiments table1 ablation --ns 64 128`` work
        even though ``ablation`` takes ``n`` rather than ``ns``.  An entry
        that no named experiment accepts is an error, not a silent no-op.
        """
        from .registry import get_experiment

        specs = [get_experiment(exp_name) for exp_name in experiments]
        grid = grid or {}
        for key in grid:
            if not any(key in spec.param_names for spec in specs):
                takes = "; ".join(f"{spec.name} takes {', '.join(spec.param_names)}" for spec in specs)
                raise ValueError(
                    f"--{key} reaches none of the named experiments ({takes}); "
                    "put their grid in a --config sweep file (see examples/sweeps/quick.toml)"
                )
        plans = [
            ExperimentPlan(
                experiment=spec.name,
                grid={k: v for k, v in grid.items() if k in spec.param_names},
            )
            for spec in specs
        ]
        return cls(name=name, plans=tuple(plans), seed=seed, repetitions=repetitions)


def load_sweep(path: str | Path) -> SweepDefinition:
    """Load a sweep definition from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if path.suffix.lower() == ".toml":
        with path.open("rb") as handle:
            data = tomllib.load(handle)
    elif path.suffix.lower() == ".json":
        data = json.loads(path.read_text())
    else:
        raise ValueError(f"unsupported sweep file type {path.suffix!r} (use .toml or .json)")
    return SweepDefinition.from_dict(data, name=path.stem)
