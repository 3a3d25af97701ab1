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
  probing round (two deliveries plus the rank comparison in one pass, so
  a backend can execute the whole round without materialising the
  intermediate compactions — the "mask then scatter" fusion).
* :func:`relay_to_roots` is the two-hop "push to a uniform node, the node
  forwards to its root" relay that Gossip-max, Gossip-ave, and Data-spread
  all use (it used to be hand-rolled separately in each of them).
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
from .tuning import get_tuning

__all__ = [
    "compact_frontier",
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

    Ids are always *drawn* at full width (so the shared RNG stream is
    identical whatever the storage dtype) and only stored narrow when
    :mod:`repro.substrate.tuning` narrowing is enabled.
    """
    dtype = get_tuning().id_dtype(n)
    if size == 0:
        return np.zeros(0, dtype=dtype)
    if exclude is None:
        targets = rng.integers(0, n, size=size)
        return targets.astype(dtype, copy=False)
    if n <= 1:
        # A single node has nobody else to call; mirror the legacy behaviour
        # of targeting node 0 (the call finds no higher rank and fizzles).
        return np.zeros(size, dtype=dtype)
    targets = rng.integers(0, n - 1, size=size)
    exclude = np.asarray(exclude)
    np.add(targets, 1, out=targets, where=targets >= exclude)
    return targets.astype(dtype, copy=False)


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


def occurrence_index(keys: np.ndarray) -> np.ndarray:
    """Occurrence rank of each element among equal keys, in array order.

    ``occurrence_index([5, 3, 5, 5, 2]) == [0, 0, 1, 2, 0]``.  Used to build
    loss-oracle nonces for batches that may repeat a (sender, recipient)
    pair within a round: the engine assigns the same ranks by counting a
    node's sends in arrival order, which equals batch order here.

    Integer keys whose span (``max - min + 1``) is at most
    ``4 * size + 1024`` and whose duplicate depth is at most
    ``_PEEL_MAX_DEPTH`` run through a linear counting scheme: one
    ``bincount`` over the key range plus one scatter/gather pass per
    duplicate level.  Every other batch -- sparse, non-integer, or deeply
    skewed keys -- takes the stable sort.  That includes the hot-path
    batches, the forwarders of a lossy Phase III relay: each holds one id
    per root push that landed on a non-root, about ``n / log n`` ids drawn
    from the whole id range (at n = 10^6 a median of about 36k ids spanning
    nearly 10^6), far sparser than the linear path accepts.  So at scale the
    lossy relay still pays for a stable sort per round.  (The compiled
    kernel replaces this with a true single-pass counting loop.)
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
    ranks = np.empty(size, dtype=np.int64)
    idx = np.arange(size)
    first = np.empty(span, dtype=np.int64)
    for level in range(depth):
        live = slots[idx]
        # Duplicate fancy-index assignment keeps the *last* write; reversing
        # makes the earliest remaining occurrence of each key win.  Stale
        # entries from earlier levels are never read: a slot is always
        # rewritten in the same pass that reads it.
        first[live[::-1]] = idx[::-1]
        is_first = first[live] == idx
        ranks[idx[is_first]] = level
        idx = idx[~is_first]
        if not idx.size:
            break
    return ranks


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
    preserved, so message accounting is identical to the engine's.

    The fusion exists for the backends' benefit: the whole round is one
    mask-then-compare pass over the batch (no ``senders[mask]``
    compactions between the two deliveries), which the compiled kernel
    runs as one parallel loop because every per-message fate and the rank
    comparison depend only on that message's own identity.
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


@instrumented("substrate.relay")
def relay_to_roots(
    metrics: MetricsCollector,
    oracle: LossOracle,
    targets: np.ndarray,
    *,
    senders: np.ndarray,
    round_index: int,
    kind: str | MessageKind,
    position: np.ndarray,
    root_of: np.ndarray,
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

    A forwarder relaying several same-round pushes sends several FORWARD
    messages to the same root; their oracle nonces are the forwarder's send
    ranks in push order, exactly how the engine's forwarder node numbers
    its sends in arrival order.  (On a reliable network the nonce ranks are
    never computed — fates are known — which removes the sort that used to
    dominate the reliable gossip rounds.)

    Parameters
    ----------
    senders:
        Originating root node ids, aligned with ``targets``.
    round_index:
        The round in which the pushes (and their forwards) are sent.
    position:
        ``position[node]`` is the index of ``node`` in the caller's roots
        array, or ``-1`` for non-roots.
    root_of:
        Phase II forwarding table (-1 when the node never learned its root).
    alive:
        Liveness mask, or ``None`` when nobody crashed.
    """
    targets = np.asarray(targets)
    if oracle.reliable and alive is None:
        return _relay_reliable(
            metrics, kind, targets, position, root_of, payload_words
        )
    if dead_targets and alive is not None:
        wasted = int(targets.size) - int(np.count_nonzero(alive[targets]))
        if wasted:
            metrics.record_dead_targets(wasted)
    receiver = np.full(targets.shape, -1, dtype=np.int64)
    first_lost = oracle.sample(round_index, kind, senders, targets)
    first_hop_ok = ~first_lost if alive is None else ~first_lost & alive[targets]
    metrics.record_messages(
        kind,
        int(targets.size),
        payload_words=payload_words,
        lost=int(targets.size) - int(first_hop_ok.sum()),
    )
    is_root_target = position[targets] >= 0
    # direct hits on a root
    direct = first_hop_ok & is_root_target
    receiver[direct] = position[targets[direct]]
    # forwarded hits through a non-root that knows its root (nodes whose
    # Phase II broadcast was lost silently drop, sending nothing)
    needs_forward = np.flatnonzero(first_hop_ok & ~is_root_target)
    forwarders = targets[needs_forward]
    knows_root = root_of[forwarders] >= 0
    send_idx = needs_forward[knows_root]
    if send_idx.size:
        hop_from = targets[send_idx]
        hop_to = root_of[hop_from]
        if dead_targets and alive is not None:
            wasted = int(send_idx.size) - int(np.count_nonzero(alive[hop_to]))
            if wasted:
                metrics.record_dead_targets(wasted)
        if oracle.reliable:
            arrived = alive[hop_to] if alive is not None else np.ones(send_idx.size, dtype=bool)
        else:
            second_lost = oracle.sample(
                round_index,
                MessageKind.FORWARD,
                hop_from,
                hop_to,
                nonces=occurrence_index(hop_from),
            )
            arrived = ~second_lost if alive is None else ~second_lost & alive[hop_to]
        metrics.record_messages(
            MessageKind.FORWARD,
            int(send_idx.size),
            payload_words=payload_words,
            lost=int(send_idx.size) - int(arrived.sum()),
        )
        receiver[send_idx[arrived]] = position[hop_to[arrived]]
    return receiver


def compact_frontier(active: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Remove the dropped senders from a compacted frontier, keeping order.

    ``active[~drop]`` spelled as a kernel primitive so backends can fuse the
    mask inversion and the gather (the vectorized form materialises ``~drop``
    every DRR round; the compiled kernel writes survivors in one pass).
    """
    return active[~drop]


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
    s += np.bincount(landed, weights=send_s[delivered], minlength=m).astype(
        s.dtype, copy=False
    )
    g += np.bincount(landed, weights=send_g[delivered], minlength=m).astype(
        g.dtype, copy=False
    )


def _relay_reliable(
    metrics: MetricsCollector,
    kind: str | MessageKind,
    targets: np.ndarray,
    position: np.ndarray,
    root_of: np.ndarray,
    payload_words: int,
) -> np.ndarray:
    """The reliable, crash-free relay: pure table lookups, zero hashing.

    Every first hop arrives; a push landing on a non-root is forwarded iff
    the node knows its root, and every forward arrives.  Message accounting
    is exactly the general path's with all fates "delivered".
    """
    receiver = position[targets].astype(np.int64, copy=False)
    metrics.record_messages(kind, int(targets.size), payload_words=payload_words, lost=0)
    nonroot = np.flatnonzero(receiver < 0)
    if nonroot.size:
        hop_root = root_of[targets[nonroot]]
        knows = hop_root >= 0
        send_idx = nonroot[knows]
        if send_idx.size:
            metrics.record_messages(
                MessageKind.FORWARD,
                int(send_idx.size),
                payload_words=payload_words,
                lost=0,
            )
            receiver[send_idx] = position[hop_root[knows]]
    return receiver
