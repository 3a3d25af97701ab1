"""Empirical counterpart of the Section 5 lower bound (Theorem 15).

Theorem 15 says: any *address-oblivious* algorithm that computes Max over
``n`` nodes needs ``Omega(n log n)`` messages, no matter how many rounds it
takes or how long its messages are.  The proof is an adversary argument --
the value that too few nodes have heard about is declared the maximum -- so
the natural measurement is:

    run an address-oblivious protocol, charge every transmission, and count
    how many messages are spent before a 1 - o(1) fraction of the nodes has
    (directly or transitively) heard about *every* node's value; in
    particular, before they have heard about the value the adversary will
    pick, which we place by re-running the knowledge analysis afterwards and
    choosing the value that spread slowest.

For push-style protocols "knowing the Max" requires having heard (possibly
transitively) from the true maximum's holder, so we track knowledge sets
implicitly: a node knows value ``j`` iff there is a temporal path of
delivered messages from ``j`` to it.  The adversary picks the value with the
smallest knowledge spread, which is exactly the quantity the proof bounds.

The experiment (E10) contrasts three curves:

* messages spent by uniform push-max until the adversarially chosen value is
  known by 90% of nodes -- grows like ``n log n``;
* the same for push-pull rumor spreading of a *single known* rumor -- grows
  like ``n log log n`` (the gap the paper proves is real);
* messages of DRR-gossip-max (non-address-oblivious) -- ``n log log n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..simulator.rng import make_rng
from ..substrate.delivery import occurrence_index

__all__ = ["AdversarialSpreadResult", "adversarial_push_max_messages", "knowledge_spread_after"]


def _push_round(knowledge: np.ndarray, targets: np.ndarray) -> None:
    """Every node ``i`` ORs its pre-round knowledge row into ``targets[i]``'s.

    Equal to ``np.logical_or.at(knowledge, targets, knowledge.copy())``, but
    each duplicate level of ``targets`` names distinct rows, so it takes one
    vectorised row update per level instead of ufunc.at's per-index loop.
    """
    snapshot = knowledge.copy()
    level = occurrence_index(targets)
    for depth in range(int(level.max()) + 1):
        senders = np.flatnonzero(level == depth)
        knowledge[targets[senders]] |= snapshot[senders]


@dataclass
class AdversarialSpreadResult:
    """Messages an address-oblivious push protocol spends under the adversary."""

    n: int
    #: messages spent until the adversarially chosen value reached the target
    #: fraction of nodes (np.inf if it never did within the round budget)
    messages_to_target: float
    #: total rounds executed
    rounds: int
    #: fraction of nodes that knew the adversarial value at the end
    final_fraction: float
    #: the fraction-of-nodes-knowing curve of the adversarial value per round
    curve: np.ndarray


def adversarial_push_max_messages(
    n: int,
    rng: np.random.Generator | int | None = None,
    target_fraction: float = 0.9,
    max_rounds: int | None = None,
) -> AdversarialSpreadResult:
    """Measure messages an address-oblivious push protocol needs under the adversary.

    The protocol simulated is the natural address-oblivious Max protocol
    (every node pushes everything it knows to a uniformly random node each
    round; message *size* is unlimited, as Theorem 15 allows).  We track, for
    every origin node ``j``, how many nodes have transitively heard from
    ``j``; the adversary's value is the one known by the fewest nodes, and
    the reported message count is the number of transmissions made until
    that value -- i.e. the *worst* value -- reached ``target_fraction`` of
    the nodes.  This is exactly the quantity the Theorem 15 adversary forces
    every correct algorithm to pay for.
    """
    if n <= 1:
        raise ValueError("the lower-bound experiment needs n >= 2")
    rng = make_rng(rng)
    max_rounds = max_rounds if max_rounds is not None else int(math.ceil(4 * math.log2(n) + 16))

    # knowledge[i, j] == True when node i has (transitively) heard about j's value.
    knowledge = np.eye(n, dtype=bool)
    messages_cumulative = 0
    # Track, per round, the minimum over origins j of the fraction of nodes
    # knowing j -- the adversary's best choice at that point in time.
    worst_fraction_curve: list[float] = []
    messages_at_round: list[int] = []

    for _ in range(max_rounds):
        targets = rng.integers(0, n, size=n)
        messages_cumulative += n
        # Every node pushes its entire knowledge set; the recipient's
        # knowledge becomes the union.  (Arbitrarily long messages: this is
        # the strongest address-oblivious protocol the theorem allows.)
        _push_round(knowledge, targets)
        worst_fraction_curve.append(float(knowledge.mean(axis=0).min()))
        messages_at_round.append(messages_cumulative)
        if worst_fraction_curve[-1] >= 1.0:
            break

    curve = np.asarray(worst_fraction_curve)
    reached = np.flatnonzero(curve >= target_fraction)
    if reached.size:
        messages_to_target = float(messages_at_round[int(reached[0])])
    else:
        messages_to_target = float("inf")
    return AdversarialSpreadResult(
        n=n,
        messages_to_target=messages_to_target,
        rounds=len(worst_fraction_curve),
        final_fraction=float(curve[-1]) if curve.size else 0.0,
        curve=curve,
    )


def knowledge_spread_after(
    n: int,
    rounds: int,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Fraction of nodes knowing each origin's value after ``rounds`` of push.

    Helper used by tests of the stage/typical-value machinery: returns the
    per-origin knowledge fractions so one can verify the proof's qualitative
    claim that after ``o(log n)`` rounds (hence ``o(n log n)`` messages) many
    values remain "typical" (known to very few nodes).
    """
    if n <= 1:
        raise ValueError("n must be at least 2")
    rng = make_rng(rng)
    knowledge = np.eye(n, dtype=bool)
    for _ in range(rounds):
        _push_round(knowledge, rng.integers(0, n, size=n))
    return knowledge.mean(axis=0)
