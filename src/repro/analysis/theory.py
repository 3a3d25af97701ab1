"""The paper's theoretical predictions, as executable functions.

Every experiment driver (:mod:`repro.harness.experiments`) compares a
measured quantity against the corresponding asymptotic bound; the
paper-scale grid is ``examples/sweeps/paper.toml``, and ``drr-gossip
results --markdown`` renders its tables.  Because the bounds are stated up
to constants, the comparisons are done through *normalised ratios*
(measured / predicted-shape) whose flatness across the ``n`` sweep is the
reproduction criterion, and through fitted exponents (see
:mod:`repro.analysis.fitting`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log2n",
    "loglog2n",
    "expected_tree_count",
    "expected_tree_size",
    "expected_max_tree_size",
    "drr_message_bound",
    "drr_round_bound",
    "uniform_gossip_message_bound",
    "address_oblivious_lower_bound",
    "rumor_spreading_message_bound",
    "chord_drr_gossip_messages",
    "chord_uniform_gossip_messages",
    "paper_gossip_max_rounds",
]


def log2n(n: int | np.ndarray) -> np.ndarray:
    """``log2(n)`` with the convention that it is at least 1."""
    return np.maximum(1.0, np.log2(np.maximum(2, np.asarray(n, dtype=float))))


def loglog2n(n: int | np.ndarray) -> np.ndarray:
    """``log2(log2(n))`` with the convention that it is at least 1."""
    return np.maximum(1.0, np.log2(log2n(n)))


# --------------------------------------------------------------------------- #
# Phase I structure (Theorems 2-4)
# --------------------------------------------------------------------------- #
def expected_tree_count(n: int | np.ndarray) -> np.ndarray:
    """Theorem 2: ``E[#trees] = Theta(n / log n)``.

    The proof's integral gives ``E[X] = sum_i (i/n)^{log n - 1} ~ n / log n``
    (natural units cancel in the ratio, so we normalise by ``n / log2 n``).
    """
    n = np.asarray(n, dtype=float)
    return n / log2n(n)


def expected_tree_size(n: int, rank: float | np.ndarray) -> np.ndarray:
    """Expected size of the DRR tree rooted at a root of rank ``rank``.

    A node of rank ``x`` probes up to ``k = ceil(log2 n) - 1`` times and
    attaches to the first higher-ranked node it finds, so it attaches to
    one given higher-ranked node with probability
    ``(1 - x^k) / (n (1 - x))``.  A node of rank ``r`` then expects
    ``sum_{j<=k} r^j / j`` children, and the tree below it
    ``S(r) = exp(sum_{j=1..k} r^j / j)`` nodes, at most
    ``e^{H_k} ~ 1.78 k``: ``O(log n)`` in expectation.
    """
    k = max(1, math.ceil(math.log2(max(2, n))) - 1)
    rank = np.asarray(rank, dtype=float)
    return np.exp(sum(rank**j / j for j in range(1, k + 1)))


def expected_max_tree_size(n: int | np.ndarray) -> np.ndarray:
    """Normaliser of the largest tree's size: ``log2 n``.

    Theorem 3 is read as "every tree has ``O(log n)`` nodes whp", and the
    forest experiment reports ``max_tree_size / log2 n`` against it.  The
    measurements contradict that reading: the ratio's mean over seeds 0-3
    climbs from 8.6 to 10.4 to 15.6 at n = 2^12, 2^16 and 2^20
    (``vectorized``).
    Each tree's *expected* size is ``O(log n)`` (:func:`expected_tree_size`),
    but sizes have a scale-free tail, so the largest of the
    ``Theta(n / log n)`` trees has ``Theta(log^2 n)`` nodes:
    ``max_tree_size / log2^2 n`` stays at 0.65-0.78.
    """
    return log2n(n)


def drr_message_bound(n: int | np.ndarray) -> np.ndarray:
    """Theorem 4: DRR uses ``O(n log log n)`` messages."""
    n = np.asarray(n, dtype=float)
    return n * loglog2n(n)


def drr_round_bound(n: int | np.ndarray) -> np.ndarray:
    """Theorem 4: DRR takes ``O(log n)`` rounds."""
    return log2n(n)


# --------------------------------------------------------------------------- #
# full protocols (Table 1)
# --------------------------------------------------------------------------- #
def uniform_gossip_message_bound(n: int | np.ndarray) -> np.ndarray:
    """Kempe et al. uniform gossip: ``O(n log n)`` messages."""
    n = np.asarray(n, dtype=float)
    return n * log2n(n)


# --------------------------------------------------------------------------- #
# lower bounds and rumor spreading (Section 5 context)
# --------------------------------------------------------------------------- #
def address_oblivious_lower_bound(n: int | np.ndarray) -> np.ndarray:
    """Theorem 15: address-oblivious aggregate computation needs ``Omega(n log n)`` messages."""
    return uniform_gossip_message_bound(n)


def rumor_spreading_message_bound(n: int | np.ndarray) -> np.ndarray:
    """Karp et al.: rumor spreading is achievable with ``O(n log log n)`` messages."""
    return drr_message_bound(n)


# --------------------------------------------------------------------------- #
# sparse networks / Chord (Section 4)
# --------------------------------------------------------------------------- #
def chord_drr_gossip_messages(n: int | np.ndarray) -> np.ndarray:
    """Section 4: DRR-gossip on Chord takes ``O(n log n)`` messages whp."""
    return uniform_gossip_message_bound(n)


def chord_uniform_gossip_messages(n: int | np.ndarray) -> np.ndarray:
    """Section 4: uniform gossip on Chord takes ``O(n log^2 n)`` messages whp."""
    n = np.asarray(n, dtype=float)
    return n * log2n(n) ** 2


def paper_gossip_max_rounds(n: int, delta: float = 0.0, c: float = 0.5) -> int:
    """The paper-exact round budget of Theorem 5.

    ``8 log n / (1 - rho) + log_beta n`` where ``rho <= 2 delta`` and
    ``beta = 1 + (1 - c')(1 - rho)/2`` with ``c' = 2c``.  Used by the
    ablation experiment that contrasts the paper's constants with the
    practical defaults in :mod:`repro.core.gossip_max`.
    """
    if not (0.0 < c < 0.5 + 1e-9):
        raise ValueError("c must lie in (0, 0.5]")
    rho = min(0.999, 2.0 * delta)
    c_prime = 2.0 * c
    beta = 1.0 + 0.5 * (1.0 - c_prime) * (1.0 - rho)
    log_n = math.log2(max(2, n))
    first = 8.0 * log_n / max(1e-9, 1.0 - rho)
    second = math.log(max(2, n)) / math.log(beta) if beta > 1.0 else 8.0 * log_n
    return int(math.ceil(first + second))
