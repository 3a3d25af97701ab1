"""Serializable run descriptions: :class:`TopologySpec` and :class:`RunSpec`.

A :class:`RunSpec` is the *complete* description of one protocol run:
protocol name, protocol parameters, an optional topology, the failure
model, the substrate backend, and the seed.  It is a frozen value object
that round-trips through JSON (and loads from TOML), so a run can be
stored, diffed, shipped to a worker on another host, and replayed
bit-for-bit — ``repro.run(RunSpec.from_json(spec.to_json()))`` produces
the same rounds, message counts, and estimates as ``repro.run(spec)``.

Validation happens at construction time: protocol names and parameters
are checked against the protocol registry (schemas derived from the
adapter signatures, see :mod:`repro.api.protocols`), so a malformed spec
fails when it is built, not minutes into a sweep.
"""

from __future__ import annotations

import dataclasses
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..serialization import canonical_json, canonical_value, stable_digest
from ..simulator.failures import FailureModel
from ..substrate import DEFAULT_BACKEND, normalize_backend
from .errors import SpecValidationError

__all__ = [
    "TopologySpec",
    "RunSpec",
    "load_spec",
    "load_specs",
    "parse_spec_document",
    "read_spec_document",
    "DEFAULT_SPEC_SEED",
]

#: Seed used when a spec document does not name one (kept distinct from the
#: simulator's DEFAULT_SEED so "forgot the seed" is greppable in stores).
DEFAULT_SPEC_SEED = 1

#: Topology families a spec may name: the graph generators of
#: :data:`repro.topology.GRAPH_FAMILIES`, a Chord overlay, or an explicit
#: edge list (the serialised form of a concrete :class:`Topology`).
_GENERATED_FAMILIES = (
    "complete",
    "ring",
    "grid",
    "hypercube",
    "regular4",
    "regular8",
    "erdos-renyi",
)
TOPOLOGY_FAMILIES = _GENERATED_FAMILIES + ("chord", "explicit")


def _freeze(value: Any) -> Any:
    """Recursively convert mappings/sequences to hashable tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _coerce_int(value: Any, what: str) -> int:
    """``int()`` with spec-shaped error reporting (specs are hand-written)."""
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"{what} must be an integer, got {value!r}") from exc


@dataclass(frozen=True)
class TopologySpec:
    """Declarative description of the network a protocol runs over.

    ``family`` is a generator name (``ring``, ``grid``, ``regular4``, ...),
    ``chord`` for a Chord overlay, or ``explicit`` for a concrete edge
    list (``params["edges"]``, as produced by :meth:`Topology.to_spec`).
    Generated families draw their randomness from the run's generator, in
    order, before the protocol starts — exactly the convention the
    experiment drivers always used (``topo = make_graph(...); run(...)``
    with one shared generator), so spec-driven runs reproduce them.
    """

    family: str
    n: int
    #: family-specific extras (``m`` for chord, ``edges``/``name`` for
    #: explicit), stored as a sorted tuple of pairs so the spec is hashable.
    params: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.family not in TOPOLOGY_FAMILIES:
            raise SpecValidationError(
                f"unknown topology family {self.family!r} "
                f"(valid: {', '.join(TOPOLOGY_FAMILIES)})"
            )
        n = _coerce_int(self.n, "topology 'n'")
        if n < 1:
            raise SpecValidationError(f"topology n must be positive, got {n}")
        if self.family == "chord" and n < 2:
            raise SpecValidationError("a chord topology needs n >= 2")
        object.__setattr__(self, "n", n)
        params = self.params
        if isinstance(params, Mapping):
            params = _freeze(params)
        elif not isinstance(params, tuple):
            raise SpecValidationError("topology params must be a mapping")
        else:
            params = _freeze(dict(params))
        for key, _ in params:
            if self.family == "explicit":
                if key not in ("edges", "name"):
                    raise SpecValidationError(
                        f"explicit topology accepts only 'edges'/'name', got {key!r}"
                    )
            elif self.family == "chord":
                if key != "m":
                    raise SpecValidationError(f"chord topology accepts only 'm', got {key!r}")
            else:
                raise SpecValidationError(
                    f"topology family {self.family!r} takes no extra parameters, got {key!r}"
                )
        if self.family == "explicit" and "edges" not in dict(params):
            raise SpecValidationError("explicit topology needs an 'edges' list")
        object.__setattr__(self, "params", params)

    @property
    def param_dict(self) -> dict[str, Any]:
        return {k: v for k, v in self.params}

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"family": self.family, "n": self.n}
        doc.update(canonical_value(self.param_dict))
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TopologySpec":
        if not isinstance(doc, Mapping):
            raise SpecValidationError(f"topology must be a table/object, got {doc!r}")
        if "family" not in doc or "n" not in doc:
            raise SpecValidationError("topology needs 'family' and 'n'")
        extras = {k: v for k, v in doc.items() if k not in ("family", "n")}
        return cls(
            family=str(doc["family"]),
            n=_coerce_int(doc["n"], "topology 'n'"),
            params=extras,
        )

    # ------------------------------------------------------------------ #
    # instantiation
    # ------------------------------------------------------------------ #
    def build(self, rng):
        """Materialise the topology, drawing any needed randomness from ``rng``.

        Returns a :class:`~repro.topology.Topology` for graph families and a
        :class:`~repro.topology.ChordNetwork` for ``family == "chord"``.
        """
        from ..topology import ChordNetwork, Topology, make_graph

        extras = self.param_dict
        if self.family == "chord":
            m = extras.get("m")
            return ChordNetwork(self.n, rng, m=int(m) if m is not None else None)
        if self.family == "explicit":
            return Topology.from_spec({"family": "explicit", "n": self.n, **extras})
        return make_graph(self.family, self.n, rng)


@dataclass(frozen=True)
class RunSpec:
    """One protocol run, fully described by serialisable values.

    Examples
    --------
    >>> import repro
    >>> spec = repro.RunSpec(protocol="drr", params={"n": 1024}, seed=7)
    >>> result = repro.run(spec)
    >>> repro.run(RunSpec.from_json(spec.to_json())).same_outcome(result)
    True
    """

    protocol: str
    params: Mapping[str, Any] = field(default_factory=dict)
    topology: TopologySpec | None = None
    failures: FailureModel = field(default_factory=FailureModel)
    backend: str = DEFAULT_BACKEND
    seed: int = DEFAULT_SPEC_SEED
    #: Record telemetry for this run (``RunResult.telemetry``).  An
    #: execution knob, not an identity: serialised only when set (so the
    #: toggle travels to sweep workers) but excluded from
    #: :meth:`spec_hash` / :meth:`param_hash` — store rows, resume, and
    #: ``same_outcome`` never see it.
    telemetry: bool = False

    def __post_init__(self) -> None:
        from .protocols import get_protocol  # late: protocols import core/baselines

        try:
            object.__setattr__(self, "backend", normalize_backend(self.backend))
        except Exception as exc:
            raise SpecValidationError(str(exc)) from exc
        object.__setattr__(self, "seed", _coerce_int(self.seed, "'seed'"))
        object.__setattr__(self, "telemetry", bool(self.telemetry))
        if isinstance(self.topology, Mapping):
            object.__setattr__(self, "topology", TopologySpec.from_dict(self.topology))
        if isinstance(self.failures, Mapping):
            try:
                object.__setattr__(self, "failures", FailureModel.from_spec(self.failures))
            except Exception as exc:
                raise SpecValidationError(f"invalid 'failures' section: {exc}") from exc
        spec = get_protocol(self.protocol)  # raises SpecValidationError when unknown
        object.__setattr__(self, "params", spec.validate_params(self.params))
        spec.validate_topology(self.topology)
        spec.validate_failures(self.failures)

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the params dict;
        # hash the frozen view instead so specs work as set/dict keys (equal
        # specs hash equal because validate_params normalises the values).
        return hash(
            (
                self.protocol,
                _freeze(self.params),
                self.topology,
                self.failures,
                self.backend,
                self.seed,
                self.telemetry,
            )
        )

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def with_seed(self, seed: int) -> "RunSpec":
        return self.replace(seed=seed)

    def with_telemetry(self, enabled: bool = True) -> "RunSpec":
        return self.replace(telemetry=bool(enabled))

    def with_backend(self, backend: str) -> "RunSpec":
        return self.replace(backend=backend)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "protocol": self.protocol,
            "params": canonical_value(dict(self.params)),
            "failures": self.failures.to_spec(),
            "backend": self.backend,
            "seed": self.seed,
        }
        if self.telemetry:
            # Serialised so the toggle reaches sweep workers, but popped
            # again by spec_hash/param_hash: telemetry is never identity.
            doc["telemetry"] = True
        if self.topology is not None:
            doc["topology"] = self.topology.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "RunSpec":
        if not isinstance(doc, Mapping):
            raise SpecValidationError(f"a run spec must be a table/object, got {doc!r}")
        if "protocol" not in doc:
            raise SpecValidationError("a run spec needs a 'protocol' name")
        known = {
            "protocol",
            "params",
            "topology",
            "failures",
            "backend",
            "seed",
            "telemetry",
        }
        unknown = set(doc) - known
        if unknown:
            raise SpecValidationError(
                f"run spec has unknown keys {sorted(unknown)} (valid: {sorted(known)})"
            )
        params = doc.get("params", {})
        if not isinstance(params, Mapping):
            raise SpecValidationError("'params' must be a table/object")
        return cls(
            protocol=str(doc["protocol"]),
            params=dict(params),
            topology=doc.get("topology"),
            failures=doc.get("failures", FailureModel()),
            backend=str(doc.get("backend", DEFAULT_BACKEND)),
            seed=doc.get("seed", DEFAULT_SPEC_SEED),
            telemetry=bool(doc.get("telemetry", False)),
        )

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"run spec is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def canonical_json(self) -> str:
        """Canonical serialisation (sorted keys, normalised values).

        The transport form (sweep workers rebuild the spec from it); it
        keeps the non-identity telemetry toggle, which :meth:`spec_hash` /
        :meth:`param_hash` pop before digesting.
        """
        return canonical_json(self.to_dict())

    def spec_hash(self) -> str:
        """Stable 16-hex-char identity of this spec (seed included).

        The telemetry toggle is popped first: recording telemetry does not
        change what a run *is*, so enabling it never forks a store identity.
        """
        doc = self.to_dict()
        doc.pop("telemetry", None)
        return stable_digest(doc)

    def param_hash(self) -> str:
        """Stable hash of everything but the seed (the sweep-cell identity)."""
        doc = self.to_dict()
        doc.pop("seed", None)
        doc.pop("telemetry", None)
        return stable_digest(doc)

    def describe(self) -> str:
        binding = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        topo = f" on {self.topology.family}(n={self.topology.n})" if self.topology else ""
        telemetry = " +telemetry" if self.telemetry else ""
        return (
            f"{self.protocol}({binding}){topo} "
            f"backend={self.backend} seed={self.seed}{telemetry}"
        )


# --------------------------------------------------------------------------- #
# spec files
# --------------------------------------------------------------------------- #
def _parse_spec_document(data: Any, origin: str) -> list[RunSpec]:
    """Extract one or more run specs from a parsed TOML/JSON document.

    Accepted shapes: a bare spec object, ``{"run": {...}}``, a TOML
    ``[[run]]`` array of tables, ``{"runs": [...]}``, or a bare JSON list.
    """
    if isinstance(data, Mapping) and ("run" in data or "runs" in data):
        extra = set(data) - {"run", "runs"}
        if extra:
            raise SpecValidationError(
                f"{origin}: unknown top-level keys {sorted(extra)} next to 'run(s)'"
            )
        data = data.get("run", data.get("runs"))
    if isinstance(data, Mapping):
        entries: list[Any] = [data]
    elif isinstance(data, list):
        entries = data
    else:
        raise SpecValidationError(f"{origin}: expected a run spec object or list, got {type(data).__name__}")
    if not entries:
        raise SpecValidationError(f"{origin}: spec file defines no runs")
    specs = []
    for index, entry in enumerate(entries):
        try:
            specs.append(RunSpec.from_dict(entry))
        except SpecValidationError as exc:
            where = origin if len(entries) == 1 else f"{origin} (run #{index + 1})"
            raise SpecValidationError(f"{where}: {exc}") from exc
    return specs


def read_spec_document(path: str | Path):
    """Parse a ``.toml``/``.json`` file into its raw document.

    Shared by :func:`load_specs` and the CLI's ``spec`` tooling, so every
    consumer sees identical format support and decode errors (and a file is
    never parsed twice to be classified and then validated).
    """
    path = Path(path)
    if path.suffix.lower() == ".toml":
        with path.open("rb") as handle:
            try:
                return tomllib.load(handle)
            except tomllib.TOMLDecodeError as exc:
                raise SpecValidationError(f"{path}: invalid TOML: {exc}") from exc
    if path.suffix.lower() == ".json":
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"{path}: invalid JSON: {exc}") from exc
    raise SpecValidationError(
        f"unsupported spec file type {path.suffix!r} (use .toml or .json)"
    )


def parse_spec_document(data, origin: str) -> list[RunSpec]:
    """Public alias of the document-shape parser (see the module docstring)."""
    return _parse_spec_document(data, origin)


def load_specs(path: str | Path) -> list[RunSpec]:
    """Load every run spec from a ``.toml`` or ``.json`` spec file."""
    return _parse_spec_document(read_spec_document(path), str(path))


def load_spec(path: str | Path) -> RunSpec:
    """Load a spec file that must contain exactly one run spec."""
    specs = load_specs(path)
    if len(specs) != 1:
        raise SpecValidationError(
            f"{path}: expected exactly one run spec, found {len(specs)} "
            "(use load_specs / `drr-gossip sweep --spec` for multi-run files)"
        )
    return specs[0]
