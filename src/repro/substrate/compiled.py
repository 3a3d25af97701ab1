"""The ``compiled`` kernel: numba-jitted hot primitives for n up to 10^8.

A :class:`~repro.substrate.kernel.VectorizedKernel` subclass whose hot
primitives — delivery-fate hashing, the fused PROBE -> RANK exchange,
the two-hop Phase III relay (both hops read from the procedure's
:class:`~repro.substrate.delivery.RelayTable` landing codes),
``occurrence_index``, DRR frontier compaction, and the gossip-ave
scatter-adds — are ``@njit(cache=True, parallel=True)`` kernels over
pre-allocated scratch buffers.  Protocols reach it through the ordinary
``backend="compiled"`` seam with zero call-site changes.

Bit-identity
------------
The jitted kernels compute the *same pure functions* as the NumPy paths:

* Loss fates replicate :meth:`~repro.simulator.failures.LossOracle._mix`
  exactly — the same splitmix64 chain over the same ``(run key, kind salt,
  round, sender, recipient, nonce)`` identity, the same top-53-bit
  threshold compare.  (blake2b only ever derives the run key and the kind
  salts, in Python, before any kernel runs.)
* Float summation order matches the vectorized kernel: the gossip-ave fold
  accumulates per-position partials serially in batch order (bincount's
  order) and only the final fold across positions runs in parallel, so
  fixed-seed estimates are bit-identical, not merely close.

``tests/test_substrate.py`` runs the backend-equivalence matrix on
``compiled`` everywhere: without numba the test fixtures run the loops
below as plain Python (``njit`` is then the identity and ``prange`` is
``range``), so their bodies are checked even where they cannot be jitted.

Optional dependency
-------------------
numba is an optional extra (``pip install .[compiled]``).  Without it the
backend deregisters itself: ``BACKENDS`` has no ``"compiled"`` entry and
:func:`~repro.substrate.kernel.normalize_backend` raises a
``ConfigurationError`` that says how to install it.

First use pays numba's compile cost once per primitive signature;
``cache=True`` persists the machine code on disk, so subsequent processes
start warm.  :meth:`CompiledKernel.sample_uniform` stores the node ids it
draws as ``int32`` (they are still *drawn* at full width, so the RNG
stream and every result are unchanged); accumulators stay ``float64``.
"""

from __future__ import annotations

import numpy as np

from ..observability.telemetry import instrumented
from ..simulator import failures
from ..simulator.failures import kind_salt
from ..simulator.message import MessageKind
from .delivery import (
    deliver_batch,
    occurrence_index,
    probe_exchange,
    relay_to_roots,
    sample_uniform,
)
from .kernel import BACKENDS, UNAVAILABLE_BACKENDS, VectorizedKernel

__all__ = [
    "NUMBA_AVAILABLE",
    "CompiledKernel",
    "deregister",
    "register",
]

try:  # pragma: no cover - exercised in environments with numba installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False
    prange = range

    def njit(*args, **kwargs):
        """Identity decorator standing in for numba.njit when it is absent.

        The loops stay plain, runnable Python because the test suite calls
        them undecorated where numba is missing.
        """
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


NUMBA_REQUIREMENT = (
    "it needs numba, which is not installed — install the optional extra "
    "(pip install .[compiled]) or choose another backend"
)

# splitmix64 constants and shift amounts, typed uint64 so every jitted
# operation stays in wrapping uint64 arithmetic (mixing uint64 with plain
# int literals would promote to float64 under NumPy rules).
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S11 = np.uint64(11)
_S27 = np.uint64(27)
_S30 = np.uint64(30)
_S31 = np.uint64(31)

_EMPTY_ALIVE = np.zeros(0, dtype=np.bool_)

#: largest population whose ids :meth:`CompiledKernel.sample_uniform`
#: stores as int32 (kept below 2**31 so derived quantities like
#: ``size * (n + 1) + id`` stay safe in float64)
_INT32_MAX_N = 2**31 - 2


# --------------------------------------------------------------------------- #
# jitted loops (every one bit-identical to its NumPy counterpart)
# --------------------------------------------------------------------------- #
@njit(cache=True, inline="always")
def _sm64(x):
    x = x + _GAMMA
    x = (x ^ (x >> _S30)) * _M1
    x = (x ^ (x >> _S27)) * _M2
    return x ^ (x >> _S31)


@njit(cache=True, parallel=True)
def _k_hash(key, kinds, kstep, rounds, rstep, senders, sstep, recipients, nonces, nstep, out):
    """The LossOracle._mix chain for one batch of mixed-identity messages."""
    for i in prange(recipients.size):
        x = _sm64(key ^ kinds[i * kstep])
        x = _sm64(x ^ np.uint64(rounds[i * rstep]))
        x = _sm64(x ^ np.uint64(senders[i * sstep]))
        x = _sm64(x ^ np.uint64(recipients[i]))
        x = _sm64(x ^ np.uint64(nonces[i * nstep]))
        out[i] = x


@njit(cache=True, parallel=True)
def _k_deliver(key, salt, rounds, rstep, senders, sstep, targets, nonces, nstep,
               threshold, alive, has_alive, out):
    """Fused lossy delivery fates: hash + threshold + liveness gather."""
    ok = 0
    for i in prange(targets.size):
        t = targets[i]
        x = _sm64(key ^ salt)
        x = _sm64(x ^ np.uint64(rounds[i * rstep]))
        x = _sm64(x ^ np.uint64(senders[i * sstep]))
        x = _sm64(x ^ np.uint64(t))
        x = _sm64(x ^ np.uint64(nonces[i * nstep]))
        delivered = (x >> _S11) >= threshold
        if delivered and has_alive:
            delivered = alive[t]
        out[i] = delivered
        if delivered:
            ok += 1
    return ok


@njit(cache=True, parallel=True)
def _k_probe(key, probe_salt, rank_salt, round_u, senders, targets, ranks,
             threshold, alive, has_alive, reliable, out):
    """One fused DRR probe exchange: PROBE fate, RANK fate, rank compare."""
    probe_ok = 0
    reply_ok = 0
    for i in prange(targets.size):
        s = senders[i]
        t = targets[i]
        if reliable:
            p = alive[t] if has_alive else True
        else:
            x = _sm64(key ^ probe_salt)
            x = _sm64(x ^ round_u)
            x = _sm64(x ^ np.uint64(s))
            x = _sm64(x ^ np.uint64(t))
            x = _sm64(x)
            p = (x >> _S11) >= threshold
            if p and has_alive:
                p = alive[t]
        found = False
        if p:
            probe_ok += 1
            if reliable:
                r_ok = alive[s] if has_alive else True
            else:
                y = _sm64(key ^ rank_salt)
                y = _sm64(y ^ round_u)
                y = _sm64(y ^ np.uint64(t))
                y = _sm64(y ^ np.uint64(s))
                y = _sm64(y)
                r_ok = (y >> _S11) >= threshold
                if r_ok and has_alive:
                    r_ok = alive[s]
            if r_ok:
                reply_ok += 1
                found = ranks[t] > ranks[s]
        out[i] = found
    return probe_ok, reply_ok


@njit(cache=True, parallel=True)
def _k_relay(key, kind_salt_u, fwd_salt_u, round_u, senders, targets, landing,
             alive, has_alive, reliable, threshold, counts,
             receiver, fwd, nonce):
    """The two-hop Phase III relay, fused over one batch.

    ``landing`` is a :class:`~repro.substrate.delivery.RelayTable`'s table:
    a code ``c >= 0`` is a direct hit on root position ``c``, ``c <= -2``
    forwards to root ``h = -2 - c``, and ``-1`` drops.

    Pass 1 (parallel): first-hop fates, direct root hits, forward marking.
    Pass 2 (serial, batch order): single-pass occurrence ranks through the
    pre-allocated ``counts`` scratch — the nonces the engine's forwarders
    assign.  Pass 3 (parallel): FORWARD fates; an arrived forward lands at
    ``landing[h]``.  Pass 4 restores the all-zero ``counts`` invariant by
    resetting only the touched entries.
    """
    m = targets.size
    first_ok = 0
    for i in prange(m):
        t = targets[i]
        if reliable:
            ok = alive[t] if has_alive else True
        else:
            x = _sm64(key ^ kind_salt_u)
            x = _sm64(x ^ round_u)
            x = _sm64(x ^ np.uint64(senders[i]))
            x = _sm64(x ^ np.uint64(t))
            x = _sm64(x)
            ok = (x >> _S11) >= threshold
            if ok and has_alive:
                ok = alive[t]
        r = -1
        f = -1
        if ok:
            first_ok += 1
            c = landing[t]
            if c >= 0:
                r = c
            elif c <= -2:
                f = t
        receiver[i] = r
        fwd[i] = f
    forwards = 0
    for i in range(m):
        f = fwd[i]
        if f >= 0:
            forwards += 1
            nonce[i] = counts[f]
            counts[f] += 1
    arrived = 0
    for i in prange(m):
        f = fwd[i]
        if f >= 0:
            h = -2 - landing[f]
            if reliable:
                ok2 = alive[h] if has_alive else True
            else:
                y = _sm64(key ^ fwd_salt_u)
                y = _sm64(y ^ round_u)
                y = _sm64(y ^ np.uint64(f))
                y = _sm64(y ^ np.uint64(h))
                y = _sm64(y ^ np.uint64(nonce[i]))
                ok2 = (y >> _S11) >= threshold
                if ok2 and has_alive:
                    ok2 = alive[h]
            if ok2:
                receiver[i] = landing[h]
                arrived += 1
    for i in range(m):
        f = fwd[i]
        if f >= 0:
            counts[f] = 0
    return first_ok, forwards, arrived


@njit(cache=True, parallel=True)
def _k_churn_mask(key, salt, round_u, ids, threshold, out):
    """Fused churn-fate mask: the ChurnOracle hash chain + threshold compare."""
    hits = 0
    for i in prange(ids.size):
        x = _sm64(key ^ salt)
        x = _sm64(x ^ round_u)
        x = _sm64(x ^ np.uint64(ids[i]))
        hit = (x >> _S11) < threshold
        out[i] = hit
        if hit:
            hits += 1
    return hits


@njit(cache=True)
def _k_occurrence(keys, base, counts, out):
    """True single-pass occurrence ranks over a pre-allocated counts scratch."""
    for i in range(keys.size):
        k = np.int64(keys[i]) - base
        out[i] = counts[k]
        counts[k] += 1
    for i in range(keys.size):
        counts[np.int64(keys[i]) - base] = 0


@njit(cache=True)
def _k_compact(active, drop):
    """Order-preserving frontier compaction in one pass (no ~drop temp)."""
    out = np.empty_like(active)
    j = 0
    for i in range(active.size):
        if not drop[i]:
            out[j] = active[i]
            j += 1
    return out[:j]


@njit(cache=True, parallel=True)
def _k_fold(receiver, send_s, send_g, s, g, part_s, part_g):
    """Gossip-ave fold: serial per-position partials (bincount's summation
    order), then a parallel fold of the partials into the accumulators."""
    m = s.size
    for j in prange(m):
        part_s[j] = 0.0
        part_g[j] = 0.0
    delivered = 0
    for i in range(receiver.size):
        r = receiver[i]
        if r >= 0:
            delivered += 1
            part_s[r] += send_s[i]
            part_g[r] += send_g[i]
    if delivered > 0:
        for j in prange(m):
            s[j] += part_s[j]
            g[j] += part_g[j]


# --------------------------------------------------------------------------- #
# scalar/array normalisation for the stride-0 broadcast trick
# --------------------------------------------------------------------------- #
def _identity64(value):
    """Return ``(int64-compatible array, stride)`` for a scalar or array."""
    if isinstance(value, np.ndarray) and value.ndim > 0:
        return value, 1
    return np.full(1, int(value), dtype=np.int64), 0


def _salts_u64(value):
    if isinstance(value, np.ndarray) and value.ndim > 0:
        return value.astype(np.uint64, copy=False), 1
    return np.full(1, np.uint64(value), dtype=np.uint64), 0


def _batch_hash(key, kind_value, round_index, senders, recipients, nonces):
    """The accelerated :meth:`LossOracle._mix` installed into ``failures``."""
    recipients = np.asarray(recipients)
    kinds, kstep = _salts_u64(kind_value)
    rounds, rstep = _identity64(round_index)
    sends, sstep = _identity64(senders)
    nons, nstep = _identity64(nonces if nonces is not None else 0)
    out = np.empty(recipients.size, dtype=np.uint64)
    _k_hash(np.uint64(key), kinds, kstep, rounds, rstep, sends, sstep,
            recipients, nons, nstep, out)
    return out


def _churn_mask(key, salt, round_index, ids, threshold):
    """The accelerated :meth:`ChurnOracle._fates` installed into ``failures``."""
    ids = np.asarray(ids)
    out = np.empty(ids.size, dtype=np.bool_)
    _k_churn_mask(
        np.uint64(key), np.uint64(salt), np.uint64(int(round_index)),
        ids, np.uint64(threshold), out,
    )
    return out


# --------------------------------------------------------------------------- #
# the kernel
# --------------------------------------------------------------------------- #
class CompiledKernel(VectorizedKernel):
    """Columnar execution with numba-compiled hot primitives.

    Each override runs its jitted loop (parallel through numba ``prange``)
    and falls back to the NumPy primitive of the vectorized kernel where
    that primitive has a fast path.  Scratch buffers
    (occurrence counts, fold partials) are pre-allocated per kernel and
    grown monotonically.
    """

    name = "compiled"

    def __init__(self) -> None:
        self._scratch: dict[str, np.ndarray] = {}

    # -- scratch management --------------------------------------------- #
    def _scratch_for(self, name: str, size: int, dtype) -> np.ndarray:
        buffer = self._scratch.get(name)
        if buffer is None or buffer.size < size:
            buffer = np.zeros(max(int(size), 1024), dtype=dtype)
            self._scratch[name] = buffer
        return buffer

    # -- primitives ------------------------------------------------------ #
    def sample_uniform(self, rng, n, size, exclude=None):
        targets = sample_uniform(rng, n, size, exclude)
        return targets.astype(np.int32, copy=False) if n <= _INT32_MAX_N else targets

    @instrumented("compiled.deliver")
    def deliver(self, metrics, oracle, kind, targets, *, senders,
                round_index, alive=None, payload_words=1, nonces=None,
                dead_targets=False):
        targets = np.asarray(targets)
        count = int(targets.size)
        if oracle.reliable or count == 0:
            return deliver_batch(
                metrics, oracle, kind, targets,
                senders=senders, round_index=round_index, alive=alive,
                payload_words=payload_words, nonces=nonces,
                dead_targets=dead_targets,
            )
        if dead_targets and alive is not None:
            wasted = count - int(np.count_nonzero(alive[targets]))
            if wasted:
                metrics.record_dead_targets(wasted)
        rounds, rstep = _identity64(round_index)
        sends, sstep = _identity64(senders)
        nons, nstep = _identity64(nonces if nonces is not None else 0)
        out = np.empty(count, dtype=np.bool_)
        ok = _k_deliver(
            np.uint64(oracle.key), np.uint64(kind_salt(kind)),
            rounds, rstep, sends, sstep, targets, nons, nstep,
            oracle._threshold,
            alive if alive is not None else _EMPTY_ALIVE, alive is not None,
            out,
        )
        metrics.record_messages(kind, count, payload_words=payload_words, lost=count - int(ok))
        return out

    @instrumented("compiled.probe_exchange")
    def probe_exchange(self, metrics, oracle, targets, *, senders,
                       ranks, round_index, alive=None):
        targets = np.asarray(targets)
        count = int(targets.size)
        if count == 0:
            return probe_exchange(
                metrics, oracle, targets,
                senders=senders, ranks=ranks, round_index=round_index, alive=alive,
            )
        out = np.empty(count, dtype=np.bool_)
        probe_ok, reply_ok = _k_probe(
            np.uint64(oracle.key),
            np.uint64(kind_salt(MessageKind.PROBE)),
            np.uint64(kind_salt(MessageKind.RANK)),
            np.uint64(int(round_index)),
            np.asarray(senders), targets, ranks,
            oracle._threshold,
            alive if alive is not None else _EMPTY_ALIVE, alive is not None,
            oracle.reliable,
            out,
        )
        probe_ok = int(probe_ok)
        reply_ok = int(reply_ok)
        metrics.record_messages(MessageKind.PROBE, count, payload_words=1, lost=count - probe_ok)
        metrics.record_messages(MessageKind.RANK, probe_ok, payload_words=1, lost=probe_ok - reply_ok)
        return out

    @instrumented("compiled.relay")
    def relay_to_roots(self, metrics, oracle, targets, *, senders,
                       round_index, kind, table,
                       alive=None, payload_words=1, dead_targets=False):
        targets = np.asarray(targets)
        count = int(targets.size)
        if (oracle.reliable and alive is None) or count == 0:
            return relay_to_roots(
                metrics, oracle, targets,
                senders=senders, round_index=round_index, kind=kind,
                table=table, alive=alive,
                payload_words=payload_words, dead_targets=dead_targets,
            )
        if dead_targets and alive is not None:
            wasted = count - int(np.count_nonzero(alive[targets]))
            if wasted:
                metrics.record_dead_targets(wasted)
        landing = table.landing
        # Its own zeroed counts, not ``table.scratch``: the NumPy peel
        # leaves that dirty, and pass 2 reads counts it did not write.
        counts = self._scratch_for("relay_counts", int(landing.size), np.int32)
        fwd = self._scratch_for("relay_fwd", count, np.int64)[:count]
        nonce = self._scratch_for("relay_nonce", count, np.int64)[:count]
        receiver = np.empty(count, dtype=landing.dtype)
        first_ok, forwards, arrived = _k_relay(
            np.uint64(oracle.key), np.uint64(kind_salt(kind)),
            np.uint64(kind_salt(MessageKind.FORWARD)),
            np.uint64(int(round_index)),
            np.asarray(senders), targets, landing,
            alive if alive is not None else _EMPTY_ALIVE, alive is not None,
            oracle.reliable, oracle._threshold, counts,
            receiver, fwd, nonce,
        )
        first_ok = int(first_ok)
        forwards = int(forwards)
        arrived = int(arrived)
        metrics.record_messages(kind, count, payload_words=payload_words, lost=count - first_ok)
        if forwards:
            metrics.record_messages(
                MessageKind.FORWARD, forwards,
                payload_words=payload_words, lost=forwards - arrived,
            )
            if dead_targets and alive is not None:
                # ``fwd`` (still valid scratch) holds each slot's forwarder
                # node id, -1 when no FORWARD was sent.
                hop_from = fwd[fwd >= 0]
                wasted = int(hop_from.size) - int(
                    np.count_nonzero(alive[-2 - landing[hop_from]])
                )
                if wasted:
                    metrics.record_dead_targets(wasted)
        return receiver

    def occurrence_index(self, keys):
        keys = np.asarray(keys)
        size = int(keys.size)
        if size == 0 or not np.issubdtype(keys.dtype, np.integer):
            return occurrence_index(keys)
        base = int(keys.min())
        span = int(keys.max()) - base + 1
        if span > 4 * size + 65_536:
            return occurrence_index(keys)
        counts = self._scratch_for("occurrence_counts", span, np.int32)
        out = np.empty(size, dtype=np.int64)
        _k_occurrence(keys, np.int64(base), counts, out)
        return out

    def compact_frontier(self, active, drop):
        return _k_compact(np.ascontiguousarray(active), drop)

    @instrumented("compiled.fold_pushes")
    def fold_pushes(self, receiver, send_s, send_g, s, g):
        part_s = self._scratch_for("fold_s", int(s.size), np.float64)[: s.size]
        part_g = self._scratch_for("fold_g", int(g.size), np.float64)[: g.size]
        _k_fold(receiver, send_s, send_g, s, g, part_s, part_g)


# --------------------------------------------------------------------------- #
# registration
# --------------------------------------------------------------------------- #
def register() -> bool:
    """(Re-)evaluate registration; True when ``compiled`` is in ``BACKENDS``.

    With numba importable the backend registers and installs the jitted
    batch hasher into :mod:`repro.simulator.failures` (shared by every
    backend — the engine's chunked path hashes through it too).  Without
    numba the backend deregisters and leaves a reason in
    ``UNAVAILABLE_BACKENDS``.
    """
    if NUMBA_AVAILABLE:
        BACKENDS.setdefault(CompiledKernel.name, CompiledKernel())
        UNAVAILABLE_BACKENDS.pop(CompiledKernel.name, None)
        failures.set_batch_hasher(_batch_hash)
        failures.set_churn_hasher(_churn_mask)
        return True
    deregister()
    return False


def deregister() -> None:
    """Remove the backend (import failure, or tests simulating one)."""
    BACKENDS.pop(CompiledKernel.name, None)
    UNAVAILABLE_BACKENDS[CompiledKernel.name] = NUMBA_REQUIREMENT
    failures.set_batch_hasher(None)
    failures.set_churn_hasher(None)


register()
