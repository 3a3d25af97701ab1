"""Reproducible randomness for simulations.

Every experiment in the repository draws all of its randomness from a single
:class:`numpy.random.Generator` created here.  Experiments record the seed in
their result objects, so any run can be replayed bit-for-bit.  Independent
streams (one per repetition or cell of a sweep, one per labelled use inside
a run) are derived with :func:`derive_seed`, a process-stable hash of the
seed and the labels, or handed out by :class:`RngStream`.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence

import numpy as np

__all__ = ["make_rng", "derive_seed", "RngStream"]

#: Seed used when the caller does not provide one.  Fixed (rather than
#: entropy-based) so that "I just ran the quickstart" is reproducible.
DEFAULT_SEED = 20100614


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a NumPy generator from a seed, passing generators through.

    Accepting an existing generator makes every public function in the
    library composable: callers can pass either a seed (typically at the
    experiment boundary) or the generator they are already using (inside
    protocol code), and nested calls never reseed accidentally.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = DEFAULT_SEED
    return np.random.default_rng(seed)


def _stable_label_hash(label: str) -> int:
    """A 48-bit hash of a string label that is stable across processes.

    Python's builtin ``hash`` is salted per interpreter process (PEP 456),
    which would make derived seeds differ between runs and between the
    parent and spawned workers of a parallel sweep.  The orchestration
    layer keys its result store on derived seeds, so label hashing must be
    a pure function of the label.
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=6).digest()
    return int.from_bytes(digest, "big")


def derive_seed(seed: int, *labels: int | str) -> int:
    """Deterministically derive a sub-seed from a base seed and labels.

    Used by sweep drivers so that (seed, n, repetition) always maps to the
    same stream regardless of execution order, parallelisation, or which
    interpreter process performs the derivation.
    """
    mix = np.uint64(seed ^ 0x9E3779B97F4A7C15)
    for label in labels:
        if isinstance(label, str):
            label_value = np.uint64(_stable_label_hash(label))
        else:
            label_value = np.uint64(int(label) & 0xFFFFFFFFFFFFFFFF)
        mix = np.uint64((int(mix) * 6364136223846793005 + int(label_value) + 1442695040888963407) % 2**64)
    return int(mix % (2**63 - 1))


class RngStream:
    """A labelled family of generators derived from one experiment seed.

    The stream hands out one generator per ``(label...)`` tuple and caches
    it, so repeated look-ups inside a protocol return the same generator
    (and therefore continue the same stream) while distinct labels are
    independent.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._cache: dict[tuple, np.random.Generator] = {}

    def get(self, *labels: int | str) -> np.random.Generator:
        key = tuple(labels)
        if key not in self._cache:
            self._cache[key] = np.random.default_rng(derive_seed(self.seed, *labels))
        return self._cache[key]

    def seeds(self, count: int, *labels: int | str) -> Sequence[int]:
        """Return ``count`` deterministic sub-seeds for a labelled family."""
        return [derive_seed(self.seed, *labels, i) for i in range(count)]

    def __iter__(self) -> Iterator[np.random.Generator]:  # pragma: no cover
        raise TypeError("RngStream is not iterable; use .get(label) or .seeds(count)")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStream(seed={self.seed}, streams={len(self._cache)})"
