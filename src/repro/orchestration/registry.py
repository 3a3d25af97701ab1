"""Declarative experiment registry.

The registry is the one map from experiment names to drivers: sweep
definitions and ``drr-gossip sweep --experiments`` name experiments through
it, and the sweep runner resolves drivers through it (including inside
queue drains, where a cell carries only the experiment's name).

An :class:`ExperimentSpec` couples a name with a driver callable and a
typed parameter specification derived from the driver's signature, so a
sweep definition can be validated and grid-expanded *before* any cell
runs.  Drivers register themselves where they are defined, with
``@register_experiment(name)`` (see :mod:`repro.harness.experiments`);
:func:`load_builtin_experiments` triggers that import lazily so this module
stays dependency-free.
"""

from __future__ import annotations

import enum
import inspect
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "ExperimentRegistry",
    "DEFAULT_REGISTRY",
    "register_experiment",
    "get_experiment",
    "load_builtin_experiments",
]


@dataclass(frozen=True)
class ParamSpec:
    """One sweepable parameter of an experiment driver."""

    name: str
    default: Any
    #: True when the parameter itself is a sequence (e.g. ``ns``); a grid
    #: entry for such a parameter must be a list of sequences, one per cell.
    is_sequence: bool

    def coerce(self, value: Any) -> Any:
        """Coerce one grid candidate to the driver's expected shape/type.

        Sequence parameters are normalised to tuples so cells hash the same
        whether the sweep file spelled them as lists or tuples; scalar
        parameters adopt the default's type when a safe conversion exists
        (TOML/JSON often deliver ints where the driver wants floats).
        """
        if self.is_sequence:
            if not isinstance(value, (list, tuple)):
                raise TypeError(
                    f"parameter {self.name!r} expects a sequence per cell, got {value!r}"
                )
            return tuple(value)
        if isinstance(self.default, enum.Enum) and not isinstance(value, enum.Enum):
            return type(self.default)(value)
        if isinstance(self.default, bool):
            return bool(value)
        if isinstance(self.default, float) and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment: driver callable plus its parameter specification."""

    name: str
    driver: Callable[..., Any]
    params: tuple[ParamSpec, ...] = ()

    @classmethod
    def from_callable(cls, name: str, driver: Callable[..., Any]) -> "ExperimentSpec":
        """Derive the parameter spec from the driver's signature.

        Every keyword parameter with a default (except ``seed``, which the
        orchestration layer owns) becomes sweepable.  Parameters without a
        default are rejected: a registered driver must be runnable from its
        name alone.
        """
        params: list[ParamSpec] = []
        for param in inspect.signature(driver).parameters.values():
            if param.name == "seed":
                continue
            if param.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD):
                continue
            if param.default is inspect.Parameter.empty:
                raise TypeError(
                    f"driver {driver.__qualname__} for experiment {name!r} has a "
                    f"parameter without default ({param.name!r}); registered drivers "
                    "must be callable with only a seed"
                )
            params.append(
                ParamSpec(
                    name=param.name,
                    default=param.default,
                    is_sequence=isinstance(param.default, (list, tuple)),
                )
            )
        return cls(name=name, driver=driver, params=tuple(params))

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> ParamSpec:
        for spec in self.params:
            if spec.name == name:
                return spec
        raise KeyError(
            f"experiment {self.name!r} has no parameter {name!r} "
            f"(valid: {', '.join(self.param_names) or 'none'})"
        )

    def validate_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Check names and coerce values of one concrete parameter binding."""
        return {name: self.param(name).coerce(value) for name, value in params.items()}

    def expand_grid(self, grid: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Expand a parameter grid into concrete per-cell parameter dicts.

        Each grid entry maps a parameter name to a list of candidate values
        (the cartesian product over parameters yields the cells).  Two
        shorthands keep sweep files readable:

        * a scalar entry stands for a single candidate, and
        * for sequence parameters (``ns``, ``deltas``, ...) a flat list of
          scalars is a *single* candidate (the sweep vector itself); use a
          list of lists to sweep over several vectors.
        """
        axes: list[tuple[str, list[Any]]] = []
        for name in sorted(grid):
            spec = self.param(name)
            raw = grid[name]
            if spec.is_sequence:
                if isinstance(raw, (list, tuple)) and raw and all(
                    isinstance(v, (list, tuple)) for v in raw
                ):
                    candidates = list(raw)
                else:
                    candidates = [raw]
            else:
                candidates = list(raw) if isinstance(raw, (list, tuple)) else [raw]
            if not candidates:
                raise ValueError(f"grid entry for {name!r} is empty")
            axes.append((name, [spec.coerce(v) for v in candidates]))
        if not axes:
            return [{}]
        names = [name for name, _ in axes]
        return [dict(zip(names, combo)) for combo in itertools.product(*(vals for _, vals in axes))]


class ExperimentRegistry:
    """Name -> :class:`ExperimentSpec` mapping with decorator registration."""

    def __init__(self) -> None:
        self._specs: dict[str, ExperimentSpec] = {}

    def register(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator: register the decorated driver under ``name``."""

        def _register(fn: Callable[..., Any]) -> Callable[..., Any]:
            if name in self._specs and self._specs[name].driver is not fn:
                raise ValueError(f"experiment {name!r} is already registered")
            self._specs[name] = ExperimentSpec.from_callable(name, fn)
            return fn

        return _register

    def get(self, name: str) -> ExperimentSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs)) or "none registered"
            raise KeyError(f"unknown experiment {name!r} (known: {known})") from None

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self._specs.values())


#: The process-wide registry the CLI and the sweep runner share.
DEFAULT_REGISTRY = ExperimentRegistry()


def register_experiment(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register the decorated driver on the default registry as ``name``."""
    return DEFAULT_REGISTRY.register(name)


def load_builtin_experiments() -> ExperimentRegistry:
    """Import the harness drivers so their registrations run, then return the registry.

    Worker processes of a parallel sweep call this before resolving a driver
    by name; in the parent it is effectively a no-op after the first call.
    """
    from ..harness import experiments  # noqa: F401  (import triggers registration)

    return DEFAULT_REGISTRY


def get_experiment(name: str) -> ExperimentSpec:
    """Resolve ``name`` against the default registry, loading builtins first."""
    return load_builtin_experiments().get(name)
