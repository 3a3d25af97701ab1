"""Columnar delivery primitives shared by every vectorized protocol.

These functions are the vectorized counterpart of
:meth:`repro.simulator.network.Network.deliver` and
:meth:`repro.simulator.node.RoundContext.random_node`:

* :func:`deliver_batch` applies the loss oracle to one batch of directed
  transmissions and charges them to the metrics collector — including the
  lost-message accounting that the message-level engine applies, so both
  backends report identical ``messages`` *and* ``messages_lost`` on the
  same seeds.
* :func:`probe_exchange` is the fused PROBE -> RANK exchange of one DRR
  probing round (two deliveries plus the rank comparison behind one call).
* :func:`relay_to_roots` is the two-hop "push to a uniform node, the node
  forwards to its root" relay that Gossip-max, Gossip-ave, and Data-spread
  all use; each procedure builds one :class:`RelayTable` and every relay
  call resolves both hops through one gather of it.
* :func:`sample_uniform` draws uniform targets in the exact order per-node
  engine protocols draw them, which is what makes the two backends
  bit-compatible.

Loss fates come from the run-scoped
:class:`~repro.simulator.failures.LossOracle`: the fate of a transmission is
a pure function of ``(round, kind, sender, recipient, nonce)``, never of the
order a backend batches its deliveries in.  Every call therefore threads the
*identity* of its transmissions (senders and the sending round) alongside the
recipients; the engine derives the same identities from its stamped
:class:`~repro.simulator.message.Message` objects, which is what makes the
two backends agree message-for-message even on lossy networks.

Target sampling still comes from the shared RNG stream: one
``rng.integers(..., size=k)`` batch produces the same variates as ``k``
sequential scalar draws, so a columnar round consumes the stream exactly like
``k`` engine nodes acting in id order.

Fast paths
----------
``alive=None`` declares "nobody crashed" (protocols pass it instead of an
all-True mask so the per-message liveness gather disappears), and a
reliable oracle short-circuits every hashing and masking step: on a
reliable, crash-free network a delivery charges its counters and returns
without touching per-message memory at all.  The fast paths change *no*
accounting and consume *no* RNG — they skip work whose outcome is known.
"""

from __future__ import annotations

import numpy as np

from ..observability.telemetry import instrumented
from ..simulator.failures import LossOracle
from ..simulator.message import MessageKind
from ..simulator.metrics import MetricsCollector

__all__ = [
    "RelayTable",
    "deliver_batch",
    "fold_pushes",
    "occurrence_index",
    "probe_exchange",
    "relay_to_roots",
    "sample_uniform",
]


def sample_uniform(
    rng: np.random.Generator,
    n: int,
    size: int,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Sample ``size`` uniform node ids, optionally excluding per-sender ids.

    With ``exclude`` (an array of sender ids, one per sample) the draw uses
    the same rejection-free shift as
    :meth:`~repro.simulator.node.RoundContext.random_node`: draw from
    ``[0, n-1)`` and shift values at or above the excluded id up by one.
    """
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    if exclude is None:
        return rng.integers(0, n, size=size)
    if n <= 1:
        # A single node has nobody else to call; mirror the legacy behaviour
        # of targeting node 0 (the call finds no higher rank and fizzles).
        return np.zeros(size, dtype=np.int64)
    targets = rng.integers(0, n - 1, size=size)
    exclude = np.asarray(exclude)
    np.add(targets, 1, out=targets, where=targets >= exclude)
    return targets


#: peeling bails to the sort path above this duplicate depth — beyond it the
#: batch is adversarially skewed and the stable sort is the better constant.
_PEEL_MAX_DEPTH = 64


def _occurrence_index_sorted(keys: np.ndarray) -> np.ndarray:
    """Stable-sort fallback for sparse / non-integer / deeply skewed keys."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(keys.size), 0))
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = np.arange(keys.size) - group_start
    return ranks


def _peel(slots: np.ndarray, first: np.ndarray) -> np.ndarray | None:
    """Occurrence ranks of non-negative ``slots``, one duplicate level per pass.

    ``first`` is a table indexed by slot; its contents on entry do not
    matter.  Each pass scatters the indices of the still-unranked elements
    into it and gathers them back, so the earliest remaining occurrence of
    every slot reads its own index and keeps its rank; the others move up
    one level.  Stale entries are never read: a slot is always rewritten in
    the same pass that reads it.  Returns ``None`` when the duplicate depth
    exceeds ``_PEEL_MAX_DEPTH``.
    """
    ranks = np.zeros(slots.size, dtype=np.int64)
    idx = np.arange(slots.size)
    live = slots
    for level in range(1, _PEEL_MAX_DEPTH + 1):
        # Duplicate fancy-index assignment keeps the *last* write; reversing
        # makes the earliest remaining occurrence of each slot win.
        first[live[::-1]] = idx[::-1]
        idx = idx[first[live] != idx]
        if not idx.size:
            return ranks
        ranks[idx] = level
        live = slots[idx]
    return None


def occurrence_index(keys: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element among equal keys, in array order.

    ``occurrence_index([5, 3, 5, 5, 2]) == [0, 0, 1, 2, 0]``.  Used to build
    loss-oracle nonces for batches that may repeat a (sender, recipient)
    pair within a round: the engine assigns the same ranks by counting a
    node's sends in arrival order, which equals batch order here.

    Integer keys whose span (``max - min + 1``) is at most
    ``4 * size + 1024`` and whose duplicate depth is at most
    ``_PEEL_MAX_DEPTH`` run through a linear counting scheme: one
    ``bincount`` over the key range, then :func:`_peel`'s scatter/gather
    passes over a span-sized table.  Every other batch -- sparse,
    non-integer, or deeply skewed keys -- takes the stable sort.  The lossy
    Phase III relay does not come through here: its forwarder ids are
    sparse (at n = 10^6 a median of about 38k ids spread over nearly the
    whole id range), so it peels over the n-sized scratch of its
    :class:`RelayTable` instead, which needs no span limit.
    """
    keys = np.asarray(keys)
    size = int(keys.size)
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    if not np.issubdtype(keys.dtype, np.integer):
        return _occurrence_index_sorted(keys)
    lo = int(keys.min())
    span = int(keys.max()) - lo + 1
    if span > 4 * size + 1024:
        return _occurrence_index_sorted(keys)
    slots = (keys.astype(np.int64, copy=False) - lo) if lo else keys.astype(np.int64, copy=False)
    depth = int(np.bincount(slots, minlength=span).max())
    if depth == 1:
        return np.zeros(size, dtype=np.int64)
    if depth > _PEEL_MAX_DEPTH:
        return _occurrence_index_sorted(keys)
    return _peel(slots, np.empty(span, dtype=np.int64))


class RelayTable:
    """Where a Phase III push addressed to each node lands, for one procedure.

    Built once per procedure from its roots and the Phase II forwarding
    table, then read by every :func:`relay_to_roots` call of that procedure.

    ``landing[v]`` is

    * ``v``'s index in ``roots`` when ``v`` is a root (a direct hit);
    * ``-2 - root_of[v]`` when ``v`` is a non-root that learned its root
      ``root_of[v]`` in Phase II (``v`` forwards; the code holds the root id
      because the FORWARD's loss fate and liveness are keyed by it);
    * ``-1`` when ``v`` never learned its root (``v`` drops the push).

    ``root_of`` entries must be ``-1`` or node ids below ``n``.  Phase II
    only names roots; a FORWARD to a non-root is dropped there, as in the
    engine, and the relay reports that node's negative code for it.

    ``scratch`` is an n-sized table the lossy relay peels the forwarders'
    send ranks over; it is never cleared (see :func:`_peel`).  Both rows
    are one ``(2, n)`` block, int32 unless the codes ``[-(n + 1), n - 1]``
    need int64.
    """

    __slots__ = ("landing", "scratch")

    def __init__(self, roots: np.ndarray, root_of: np.ndarray, n: int) -> None:
        block = np.empty((2, n), dtype=np.int32 if n <= 2**31 - 2 else np.int64)
        self.landing, self.scratch = block
        # -2 - (-1) == -1: a node that never learned its root drops
        np.subtract(-2, root_of, out=self.landing)
        self.landing[roots] = np.arange(roots.size)


@instrumented("substrate.deliver")
def deliver_batch(
    metrics: MetricsCollector,
    oracle: LossOracle,
    kind: str | MessageKind,
    targets: np.ndarray,
    *,
    senders: int | np.ndarray,
    round_index: int | np.ndarray,
    alive: np.ndarray | None = None,
    payload_words: int = 1,
    nonces: np.ndarray | None = None,
    dead_targets: bool = False,
) -> np.ndarray:
    """Deliver one batch of transmissions; returns the delivered mask.

    Exactly mirrors :meth:`Network.deliver`: every attempted transmission is
    charged; a transmission is lost when the link drops it *or* the
    recipient is dead.  Lost transmissions count toward the message
    complexity (the sender spent the call) and toward ``messages_lost``.

    ``senders`` and ``round_index`` identify the transmissions for the loss
    oracle; either may be a scalar shared by the whole batch or an array
    aligned with ``targets``.  ``alive=None`` means every node is alive.
    ``dead_targets=True`` (churn runs only) additionally charges
    transmissions addressed to dead nodes as ``messages_to_dead``, matching
    the engine's per-delivery accounting under an attached churn oracle.
    """
    targets = np.asarray(targets)
    count = int(targets.size)
    if count == 0:
        return np.zeros(0, dtype=bool)
    if dead_targets and alive is not None:
        wasted = count - int(np.count_nonzero(alive[targets]))
        if wasted:
            metrics.record_dead_targets(wasted)
    if oracle.reliable:
        # Reliable link: fate is decided by recipient liveness alone.
        if alive is None:
            metrics.record_messages(kind, count, payload_words=payload_words, lost=0)
            return np.ones(count, dtype=bool)
        delivered = alive[targets]
    else:
        delivered = ~oracle.sample(round_index, kind, senders, targets, nonces)
        if alive is not None:
            delivered &= alive[targets]
    metrics.record_messages(
        kind, count, payload_words=payload_words, lost=count - int(delivered.sum())
    )
    return delivered


@instrumented("substrate.probe_exchange")
def probe_exchange(
    metrics: MetricsCollector,
    oracle: LossOracle,
    targets: np.ndarray,
    *,
    senders: np.ndarray,
    ranks: np.ndarray,
    round_index: int,
    alive: np.ndarray | None = None,
) -> np.ndarray:
    """One fused DRR probing exchange; returns the *found* mask over senders.

    Semantics are exactly the unfused sequence the vectorized DRR loop used
    to spell out: every sender probes its target (PROBE), every delivered
    probe provokes a rank reply (RANK), and a sender *finds* its parent when
    the reply arrives and carries a strictly higher rank.  Charging order —
    the full PROBE batch, then the RANK batch of the arrived probes — is
    preserved, so message accounting is identical to the engine's.  On a
    reliable, crash-free network the round is one rank comparison, with no
    compaction between the two charges.
    """
    targets = np.asarray(targets)
    count = int(targets.size)
    if count == 0:
        return np.zeros(0, dtype=bool)
    if oracle.reliable and alive is None:
        # Everything arrives: k probes, k replies, zero losses.
        metrics.record_messages(MessageKind.PROBE, count, payload_words=1, lost=0)
        metrics.record_messages(MessageKind.RANK, count, payload_words=1, lost=0)
        return ranks[targets] > ranks[senders]
    probe_ok = deliver_batch(
        metrics, oracle, MessageKind.PROBE, targets,
        senders=senders, round_index=round_index, alive=alive,
    )
    probers = senders[probe_ok]
    responders = targets[probe_ok]
    reply_ok = deliver_batch(
        metrics, oracle, MessageKind.RANK, probers,
        senders=responders, round_index=round_index, alive=alive,
    )
    found_sub = reply_ok & (ranks[responders] > ranks[probers])
    found = np.zeros(count, dtype=bool)
    found[np.flatnonzero(probe_ok)[found_sub]] = True
    return found


@instrumented("substrate.relay_to_roots")
def relay_to_roots(
    metrics: MetricsCollector,
    oracle: LossOracle,
    targets: np.ndarray,
    *,
    senders: np.ndarray,
    round_index: int,
    kind: str | MessageKind,
    table: RelayTable,
    alive: np.ndarray | None = None,
    payload_words: int = 1,
    dead_targets: bool = False,
) -> np.ndarray:
    """Resolve uniform push targets to receiving root positions (-1 = dropped).

    The Phase III relay of the paper: a message addressed to a uniform node
    either lands on a root directly or is forwarded by the node to its root
    (one extra FORWARD transmission, charged only when the first hop
    arrived and the node knows its root's address from Phase II).  Accounts
    for first-hop loss, dead targets, unknown roots, second-hop loss, and
    dead roots.  Charges the first-hop batch under ``kind`` (GOSSIP vs
    INQUIRY, depending on the procedure) and the forwarding hop under
    FORWARD, both with engine-identical lost-message accounting.

    Both hops resolve through one gather of ``table.landing`` plus one
    more over the forwarded subset.  A forwarder relaying several
    same-round pushes sends several FORWARD messages to the same root;
    their oracle nonces are the forwarder's send ranks in push order,
    exactly how the engine's forwarder node numbers its sends in arrival
    order.  They are peeled over ``table.scratch`` (no sort, no span-sized
    table), and only on a lossy network: on a reliable, crash-free one
    every fate is known, so that case returns after the two gathers with
    no hashing at all.

    Parameters
    ----------
    senders:
        Originating root node ids, aligned with ``targets``.
    round_index:
        The round in which the pushes (and their forwards) are sent.
    table:
        The procedure's :class:`RelayTable`.
    alive:
        Liveness mask, or ``None`` when nobody crashed.
    """
    targets = np.asarray(targets)
    count = int(targets.size)
    landing = table.landing
    code = landing[targets]
    if oracle.reliable and alive is None:
        metrics.record_messages(kind, count, payload_words=payload_words, lost=0)
        send_idx = np.flatnonzero(code <= -2)
        if send_idx.size:
            metrics.record_messages(
                MessageKind.FORWARD, int(send_idx.size), payload_words=payload_words, lost=0
            )
            code[send_idx] = landing[-2 - code[send_idx]]
        return code
    target_alive = alive[targets] if alive is not None else None
    if dead_targets and target_alive is not None:
        wasted = count - int(np.count_nonzero(target_alive))
        if wasted:
            metrics.record_dead_targets(wasted)
    first_ok = ~oracle.sample(round_index, kind, senders, targets)
    if target_alive is not None:
        first_ok &= target_alive
    metrics.record_messages(
        kind, count, payload_words=payload_words, lost=count - int(np.count_nonzero(first_ok))
    )
    receiver = np.where(first_ok & (code >= 0), code, -1)
    # forwarded hits through a non-root that knows its root (nodes whose
    # Phase II broadcast was lost hold -1 and silently drop)
    send_idx = np.flatnonzero(first_ok & (code <= -2))
    if send_idx.size:
        hop_from = targets[send_idx]
        hop_to = -2 - code[send_idx]
        hop_alive = alive[hop_to] if alive is not None else None
        if dead_targets and hop_alive is not None:
            wasted = int(send_idx.size) - int(np.count_nonzero(hop_alive))
            if wasted:
                metrics.record_dead_targets(wasted)
        if oracle.reliable:
            arrived = hop_alive
        else:
            nonces = _peel(hop_from, table.scratch)
            if nonces is None:
                nonces = _occurrence_index_sorted(hop_from)
            arrived = ~oracle.sample(
                round_index, MessageKind.FORWARD, hop_from, hop_to, nonces=nonces
            )
            if hop_alive is not None:
                arrived &= hop_alive
        metrics.record_messages(
            MessageKind.FORWARD,
            int(send_idx.size),
            payload_words=payload_words,
            lost=int(send_idx.size) - int(np.count_nonzero(arrived)),
        )
        receiver[send_idx[arrived]] = landing[hop_to[arrived]]
    return receiver


@instrumented("substrate.fold_pushes")
def fold_pushes(
    receiver: np.ndarray,
    send_s: np.ndarray,
    send_g: np.ndarray,
    s: np.ndarray,
    g: np.ndarray,
) -> None:
    """Fold one gossip round's delivered pushes into ``s``/``g`` in place.

    ``receiver`` holds the landing position of each push (-1 = dropped).
    bincount is the fused scatter-add (one C pass per round): it pre-sums
    the round's contributions per position *in batch order* before folding
    into the accumulators, and every backend reproduces exactly that
    summation order so fixed-seed estimates stay bit-identical.
    """
    delivered = receiver >= 0
    if not delivered.any():
        return
    landed = receiver[delivered]
    m = s.size
    s += np.bincount(landed, weights=send_s[delivered], minlength=m)
    g += np.bincount(landed, weights=send_g[delivered], minlength=m)
