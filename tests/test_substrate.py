"""Backend-equivalence guarantees of the execution substrate.

The substrate's contract (see ``repro/substrate/kernel.py``): the columnar
``vectorized`` kernel and the message-level ``engine`` kernel consume the
shared RNG stream in the same order, decide per-transmission loss through
the identity-keyed loss oracle, charge messages through the same accounting
conventions, and fold floats in the same order.  For every protocol the
backends must therefore produce **identical** rounds, message counts (total,
per kind, per phase, lost, words), and estimates for the same seed, bit for
bit — on reliable *and* lossy networks (``FailureModel`` with loss
probability > 0), with and without initial crashes, and under mid-run churn
where the protocol supports it.

Whole protocol runs are checked by one predicate, :meth:`RunResult.same_outcome`,
over a spec-driven matrix (:class:`TestProtocolEquivalence`): each row on
``vectorized`` against the engine, the envelope a sweep stores for the row
against the engine, and the row at a second seed on both backends.
Phase-level tests compare their outputs exactly and their accounting with
``MetricsCollector.as_dict()``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import RunSpec
from repro.api import RunResult, get_protocol, protocol_names
from repro.baselines import efficient_gossip, epoch_gossip_ave
from repro.core import (
    Aggregate,
    DRRGossipConfig,
    drr_gossip,
    run_broadcast,
    run_convergecast,
    run_data_spread,
    run_drr,
    run_gossip_ave,
    run_gossip_max,
    run_local_drr,
)
from repro.core.drr_gossip import broadcast_root_addresses
from repro.orchestration import ResultStore
from repro.orchestration.runner import _execute_cell
from repro.orchestration.worker import row_identity
from repro.simulator import FailureModel, MetricsCollector
from repro.simulator.failures import LossOracle, kind_salt
from repro.simulator.network import Network
from repro.simulator.message import Message, MessageKind
from repro.simulator.node import RoundContext
from repro.substrate import (
    BACKENDS,
    RelayTable,
    available_backends,
    deliver_batch,
    fold_pushes,
    get_kernel,
    normalize_backend,
    occurrence_index,
    run_chord_lookups,
    run_on,
    sample_uniform,
)
from repro.substrate.delivery import _PEEL_MAX_DEPTH
from repro.topology import ChordNetwork, grid_graph, make_graph

from protocol_specs import PROTOCOL_SPECS, spec_for

#: The static failure models: reliable, lossy links, and lossy links plus
#: initial crashes.
FAILURE_MODELS = [
    FailureModel(),
    FailureModel(loss_probability=0.15),
    FailureModel(loss_probability=0.1, crash_fraction=0.15),
]
FM_IDS = ["reliable", "lossy", "lossy+crashes"]

#: Crash-only churn, the most the DRR-gossip pipeline accepts (trees cannot
#: re-admit joiners; the API rejects join events for it).
CRASH_ONLY_CHURN = FailureModel(
    loss_probability=0.05,
    crash_fraction=0.02,
    churn_rate=0.004,
    churn_schedule=((5, (3, 9), "crash"),),
)

#: Full churn on top of loss and initial crashes: rate crashes, rate joins,
#: and explicit schedule events.
FULL_CHURN = FailureModel(
    loss_probability=0.05,
    crash_fraction=0.05,
    churn_rate=0.01,
    join_rate=0.005,
    churn_schedule=((3, (2, 7), "crash"), (8, (2,), "join")),
)

#: The backends measured against the ``engine`` fidelity reference.
FAST_BACKENDS = ["vectorized"]
ALL_BACKENDS = ["engine", *FAST_BACKENDS]


def same_by_root(a: dict, b: dict) -> bool:
    """Per-root outputs equal bit for bit, NaN equal to NaN."""
    return a.keys() == b.keys() and np.array_equal(
        [a[root] for root in a], [b[root] for root in a], equal_nan=True
    )


# --------------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_available_backends(self):
        assert available_backends() == ("vectorized", "engine")

    def test_normalize_accepts_names_and_kernels(self):
        assert normalize_backend(None) == "vectorized"
        assert normalize_backend("ENGINE ".strip().upper().lower()) == "engine"
        assert normalize_backend(get_kernel("engine")) == "engine"

    def test_unknown_backend_rejected(self):
        with pytest.raises(Exception, match="unknown substrate backend"):
            normalize_backend("quantum")

    def test_unknown_backend_error_lists_registered_backends(self):
        """The error enumerates BACKENDS dynamically, so it never goes stale."""
        with pytest.raises(Exception) as excinfo:
            normalize_backend("quantum")
        for name in BACKENDS:
            assert name in str(excinfo.value)

    def test_run_on_dispatches(self):
        picked = run_on("engine", vectorized=lambda k: k.name, engine=lambda k: k.name)
        assert picked == "engine"
        picked = run_on(None, vectorized=lambda k: k.name, engine=lambda k: k.name)
        assert picked == "vectorized"

    def test_config_normalises_backend(self):
        assert DRRGossipConfig(backend="engine").backend == "engine"
        with pytest.raises(Exception):
            DRRGossipConfig(backend="nope")


# --------------------------------------------------------------------------- #
# the shared delivery primitive vs the engine's Network.deliver
# --------------------------------------------------------------------------- #
class TestDeliveryParity:
    def test_batch_and_per_message_fates_are_identical(self):
        """deliver_batch and Network.deliver agree message-for-message.

        Fates are identity-keyed, so the engine delivering the same
        transmissions in reversed order still agrees with the batch.
        """
        n, count, delta = 64, 40, 0.3
        fm = FailureModel(loss_probability=delta)
        oracle = LossOracle(delta, key=12345)
        draw = np.random.default_rng(0)
        senders = draw.integers(0, n, size=count)
        targets = draw.integers(0, n, size=count)

        batch_metrics = MetricsCollector(n=n)
        batch = deliver_batch(
            batch_metrics, oracle, "data", targets,
            senders=senders, round_index=3, alive=np.ones(n, dtype=bool),
        )
        assert batch.any() and not batch.all()  # delta=0.3 over 40 messages

        engine_metrics = MetricsCollector(n=n)
        network = Network(
            n, failure_model=fm, rng=np.random.default_rng(123),
            alive=np.ones(n, dtype=bool), loss_oracle=oracle,
        )
        messages = [
            Message(sender=int(s), recipient=int(t), kind="data").stamped(3)
            for s, t in zip(senders, targets)
        ]
        arrived = network.deliver(list(reversed(messages)), engine_metrics)

        arrived_ids = {id(m) for m in arrived}
        delivered_engine = np.array([id(m) in arrived_ids for m in messages])
        assert np.array_equal(batch, delivered_engine)
        assert batch_metrics.total_messages == engine_metrics.total_messages == count
        assert batch_metrics.total_messages_lost == engine_metrics.total_messages_lost

    def test_fate_depends_on_identity_not_position(self):
        oracle = LossOracle(0.4, key=99)
        targets = np.arange(30)
        lost_a = oracle.sample(5, "data", 7, targets)
        lost_b = oracle.sample(5, "data", 7, targets[::-1])[::-1]
        assert np.array_equal(lost_a, lost_b)
        # different round / kind / sender / nonce -> independent fates
        assert not np.array_equal(lost_a, oracle.sample(6, "data", 7, targets))
        assert not np.array_equal(lost_a, oracle.sample(5, "push", 7, targets))
        assert not np.array_equal(lost_a, oracle.sample(5, "data", 8, targets))
        assert not np.array_equal(
            lost_a, oracle.sample(5, "data", 7, targets, nonces=np.ones(30, dtype=np.int64))
        )

    def test_sample_salted_matches_per_kind_sampling(self):
        """The engine's chunked mixed-kind path equals per-kind sampling."""
        oracle = LossOracle(0.35, key=4242)
        rng = np.random.default_rng(8)
        kinds = np.array(["probe", "rank", "gossip"])[rng.integers(0, 3, size=200)]
        senders = rng.integers(0, 50, size=200)
        recipients = rng.integers(0, 50, size=200)
        rounds = rng.integers(0, 10, size=200)
        nonces = rng.integers(0, 3, size=200)
        salts = np.fromiter((kind_salt(k) for k in kinds), dtype=np.uint64, count=200)
        chunked = oracle.sample_salted(rounds, salts, senders, recipients, nonces)
        for i in range(200):
            assert chunked[i] == oracle.lost(
                int(rounds[i]), kinds[i], int(senders[i]), int(recipients[i]), int(nonces[i])
            )

    def test_kind_salt_is_stable_for_str_and_enum(self):
        assert kind_salt(MessageKind.FORWARD) == kind_salt(str(MessageKind.FORWARD))

    def test_reliable_oracle_draws_nothing(self):
        fm = FailureModel()
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        oracle = LossOracle.for_run(fm, rng)
        assert rng.bit_generator.state == before  # no key draw when delta == 0
        assert oracle.reliable
        assert not oracle.sample(0, "data", 0, np.arange(10)).any()

    def test_dead_recipients_charged_as_lost(self):
        oracle = LossOracle(0.0)
        alive = np.array([True, False, True])
        metrics = MetricsCollector(n=3)
        delivered = deliver_batch(
            metrics, oracle, "data", np.array([0, 1, 2]),
            senders=np.array([2, 0, 1]), round_index=0, alive=alive,
        )
        assert delivered.tolist() == [True, False, True]
        assert metrics.total_messages == 3
        assert metrics.total_messages_lost == 1

    def test_reliable_fast_path_charges_identically(self):
        """alive=None + reliable oracle: same counts, all delivered."""
        oracle = LossOracle(0.0)
        metrics = MetricsCollector(n=8)
        delivered = deliver_batch(
            metrics, oracle, "data", np.arange(8), senders=0, round_index=0,
            payload_words=3,
        )
        assert delivered.all()
        assert metrics.total_messages == 8
        assert metrics.total_words == 24
        assert metrics.total_messages_lost == 0

    def test_zero_size_batch_consumes_no_rng(self):
        """The empty-frontier edge case: zero messages, zero draws, zero charge."""
        fm = FailureModel(loss_probability=0.5)
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        assert fm.sample_losses(0, rng).shape == (0,)
        assert rng.bit_generator.state == state
        metrics = MetricsCollector(n=4)
        delivered = deliver_batch(
            metrics, LossOracle(0.5, key=1), "data", np.zeros(0, dtype=np.int64),
            senders=np.zeros(0, dtype=np.int64), round_index=0,
        )
        assert delivered.shape == (0,)
        assert metrics.total_messages == 0

    def test_occurrence_index(self):
        assert occurrence_index(np.array([5, 3, 5, 5, 3])).tolist() == [0, 0, 1, 2, 1]
        assert occurrence_index(np.zeros(0, dtype=np.int64)).tolist() == []


# --------------------------------------------------------------------------- #
# occurrence ranks against a naive reference
# --------------------------------------------------------------------------- #
def naive_occurrence_index(keys) -> np.ndarray:
    """Reference: rank of each element among equal keys, in array order."""
    seen: dict = {}
    out = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        k = key.item() if hasattr(key, "item") else key
        out[i] = seen.get(k, 0)
        seen[k] = out[i] + 1
    return out


class TestOccurrenceIndex:
    @given(
        keys=st.lists(st.integers(min_value=-50, max_value=50), max_size=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_dense_keys(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(occurrence_index(arr), naive_occurrence_index(arr))

    @given(
        keys=st.lists(
            st.integers(min_value=-(2**40), max_value=2**40), max_size=200
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_sparse_keys_hit_the_sorted_fallback(self, keys):
        arr = np.array(keys, dtype=np.int64)
        assert np.array_equal(occurrence_index(arr), naive_occurrence_index(arr))

    def test_all_equal_keys(self):
        # Adversarial depth: every element is a duplicate of one key (the
        # peeling path would need `size` levels; must fall back, not crawl).
        arr = np.full(5000, 7, dtype=np.int64)
        assert np.array_equal(occurrence_index(arr), np.arange(5000))

    def test_all_distinct_fast_path(self):
        arr = np.random.default_rng(0).permutation(10_000)
        assert np.array_equal(occurrence_index(arr), np.zeros(10_000, dtype=np.int64))

    def test_empty_and_float_keys(self):
        assert occurrence_index(np.array([], dtype=np.int64)).size == 0
        floats = np.array([1.5, 1.5, 2.0, 1.5])
        assert np.array_equal(occurrence_index(floats), [0, 1, 0, 2])

    def test_relay_shaped_batch(self):
        # balls-in-bins duplicates, the Phase III forwarder distribution
        rng = np.random.default_rng(1)
        arr = rng.integers(0, 4000, size=20_000)
        assert np.array_equal(occurrence_index(arr), naive_occurrence_index(arr))


# --------------------------------------------------------------------------- #
# the gossip-ave fold
# --------------------------------------------------------------------------- #
class TestFoldPushes:
    def test_fold_pushes_matches_bincount_fold(self):
        rng = np.random.default_rng(4)
        m, batch = 257, 4096
        receiver = rng.integers(-1, m, size=batch)
        send_s = rng.random(batch)
        send_g = rng.random(batch)
        s_ref, g_ref = rng.random(m), rng.random(m)
        s_new, g_new = s_ref.copy(), g_ref.copy()
        delivered = receiver >= 0
        s_ref += np.bincount(receiver[delivered], weights=send_s[delivered], minlength=m)
        g_ref += np.bincount(receiver[delivered], weights=send_g[delivered], minlength=m)
        fold_pushes(receiver, send_s, send_g, s_new, g_new)
        assert np.array_equal(s_new, s_ref)
        assert np.array_equal(g_new, g_ref)

    def test_fold_pushes_all_dropped_is_a_noop(self):
        receiver = np.full(100, -1, dtype=np.int64)
        s = np.random.default_rng(5).random(16)
        g = s.copy()
        before_s, before_g = s.copy(), g.copy()
        fold_pushes(receiver, np.ones(100), np.ones(100), s, g)
        assert np.array_equal(s, before_s) and np.array_equal(g, before_g)


# --------------------------------------------------------------------------- #
# uniform target sampling (the draw every gossip and probing round starts from)
# --------------------------------------------------------------------------- #
class TestSampleUniform:
    @pytest.mark.parametrize("exclude", [False, True], ids=["uniform", "exclude"])
    def test_matches_per_node_random_node_draws(self, exclude):
        """One batched draw consumes the stream exactly like per-node calls."""
        n, size = 50, 200
        senders = np.arange(size) % n
        batch = sample_uniform(np.random.default_rng(3), n, size, senders if exclude else None)
        ctx = RoundContext(
            round_index=0, n=n, rng=np.random.default_rng(3), alive=np.ones(n, dtype=bool)
        )
        one_by_one = [ctx.random_node(int(s) if exclude else None) for s in senders]
        assert batch.tolist() == one_by_one

    @pytest.mark.parametrize("exclude", [False, True], ids=["uniform", "exclude"])
    def test_ids_are_full_width_and_in_range(self, exclude):
        n, size = 1000, 5000
        senders = np.random.default_rng(0).integers(0, n, size) if exclude else None
        targets = sample_uniform(np.random.default_rng(1), n, size, senders)
        assert targets.dtype == np.int64
        assert targets.shape == (size,)
        assert targets.min() >= 0 and targets.max() < n

    def test_exclude_never_targets_the_sender_and_reaches_everyone_else(self):
        n = 6
        senders = np.repeat(np.arange(n), 400)
        targets = sample_uniform(np.random.default_rng(2), n, senders.size, senders)
        assert not np.any(targets == senders)
        for sender in range(n):
            assert set(targets[senders == sender].tolist()) == set(range(n)) - {sender}

    @pytest.mark.parametrize(
        "exclude", [None, np.zeros(0, dtype=np.int64)], ids=["uniform", "exclude"]
    )
    def test_zero_size_draw_consumes_no_rng(self, exclude):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        targets = sample_uniform(rng, 100, 0, exclude)
        assert targets.dtype == np.int64 and targets.size == 0
        assert rng.bit_generator.state == state

    def test_single_node_calls_node_zero_without_drawing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        targets = sample_uniform(rng, 1, 4, np.zeros(4, dtype=np.int64))
        assert targets.dtype == np.int64
        assert targets.tolist() == [0, 0, 0, 0]
        assert rng.bit_generator.state == state


# --------------------------------------------------------------------------- #
# the Phase III relay at the sparse shape of an n = 10^6 run
# --------------------------------------------------------------------------- #
def reference_relay(oracle, round_index, kind, senders, targets, roots, root_of, alive):
    """One push at a time, as the engine's nodes relay it.

    Returns the receiving root positions and the ``(kind, count, lost)`` /
    dead-target charges.  A forwarder numbers its FORWARD sends from 0 in
    arrival order (``RootForwarderNode``), which is the nonce of each.
    """
    position = {int(root): i for i, root in enumerate(roots)}
    sends: dict[int, int] = {}
    receiver = []
    first_lost = forwards = forward_lost = to_dead = 0
    for sender, target in zip(senders.tolist(), targets.tolist()):
        target_alive = alive is None or bool(alive[target])
        to_dead += not target_alive
        if oracle.lost(round_index, kind, sender, target) or not target_alive:
            first_lost += 1
            receiver.append(-1)
        elif target in position:
            receiver.append(position[target])
        elif root_of[target] < 0:
            receiver.append(-1)
        else:
            root = int(root_of[target])
            nonce = sends.get(target, 0)
            sends[target] = nonce + 1
            forwards += 1
            root_alive = alive is None or bool(alive[root])
            to_dead += not root_alive
            lost = oracle.lost(round_index, MessageKind.FORWARD, target, root, nonce)
            if lost or not root_alive:
                forward_lost += 1
                receiver.append(-1)
            else:
                receiver.append(position[root])
    charges = [(kind, len(targets), first_lost)]
    if forwards:
        charges.append((MessageKind.FORWARD, forwards, forward_lost))
    return np.array(receiver), charges, to_dead, max(sends.values(), default=0)


class TestSparseRelay:
    """``relay_to_roots`` against :func:`reference_relay` at n = 2^17.

    About n/16 roots push to uniform nodes, so the forwarders are a few
    thousand ids spread over the whole id range: the sparse shape where the
    FORWARD nonces come from the peel over the table's scratch (or, for one
    forwarder hit more than ``_PEEL_MAX_DEPTH`` times, the sort fallback).
    Two calls share one table, so the second peels over a dirty scratch.
    """

    N = 2**17

    @pytest.mark.parametrize(
        "crashes,dead_targets",
        [(False, False), (True, False), (True, True)],
        ids=["lossy", "lossy+crashes", "lossy+crashes+to-dead"],
    )
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_matches_per_message_reference(self, backend, crashes, dead_targets):
        n = self.N
        draw = np.random.default_rng(17)
        roots = np.sort(draw.choice(n, size=n // 16, replace=False))
        root_of = roots[draw.integers(0, roots.size, size=n)]
        root_of[roots] = roots
        root_of[draw.random(n) < 0.1] = -1  # Phase II broadcast lost: drops
        alive = draw.random(n) > 0.1 if crashes else None
        table = RelayTable(roots, root_of, n)
        oracle = LossOracle(0.3, key=0xF0CA1)
        kernel = get_kernel(backend)

        is_root = np.zeros(n, dtype=bool)
        is_root[roots] = True
        forwarders = np.flatnonzero(~is_root & (root_of >= 0))
        if alive is not None:
            forwarders = forwarders[alive[forwarders]]
        hot = int(forwarders[0])
        uniform = draw.integers(0, n, size=roots.size)
        skewed = uniform.copy()
        # one forwarder takes 150 pushes: ~105 survive the first hop
        skewed[draw.choice(roots.size, size=150, replace=False)] = hot

        depths = []
        for round_index, targets in ((4, uniform), (5, skewed)):
            metrics = MetricsCollector(n=n)
            got = kernel.relay_to_roots(
                metrics, oracle, targets, senders=roots, round_index=round_index,
                kind=MessageKind.GOSSIP, table=table, alive=alive, payload_words=2,
                dead_targets=dead_targets,
            )
            receiver, charges, to_dead, depth = reference_relay(
                oracle, round_index, MessageKind.GOSSIP, roots, targets, roots,
                root_of, alive,
            )
            expected = MetricsCollector(n=n)
            for kind, count, lost in charges:
                expected.record_messages(kind, count, payload_words=2, lost=lost)
            if dead_targets:
                expected.record_dead_targets(to_dead)
            assert np.array_equal(got, receiver)
            assert metrics.as_dict() == expected.as_dict()
            depths.append(depth)
        assert 2 <= depths[0] <= _PEEL_MAX_DEPTH < depths[1]


# --------------------------------------------------------------------------- #
# per-phase equivalence
# --------------------------------------------------------------------------- #
def make_forest_inputs(fm: FailureModel):
    drr = run_drr(256, rng=11, failure_model=fm)
    values = np.random.default_rng(5).normal(10.0, 5.0, size=256)
    root_of = broadcast_root_addresses(
        drr,
        np.array([r for r in drr.forest.roots], dtype=np.int64),
        np.random.default_rng(2),
        DRRGossipConfig(failure_model=fm),
        MetricsCollector(n=256),
    )
    return drr, values, root_of


@pytest.fixture(scope="module", params=FAILURE_MODELS, ids=FM_IDS)
def forest_inputs(request):
    return (request.param, *make_forest_inputs(request.param))


class TestPhaseEquivalence:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("fm", FAILURE_MODELS, ids=FM_IDS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_drr_identical(self, seed, fm, backend):
        fast = run_drr(256, rng=seed, failure_model=fm, backend=backend)
        engine = run_drr(256, rng=seed, failure_model=fm, backend="engine")
        assert np.array_equal(fast.forest.parent, engine.forest.parent)
        assert np.array_equal(fast.forest.alive, engine.forest.alive)
        assert np.array_equal(fast.probes, engine.probes)
        assert np.array_equal(fast.connect_delivered, engine.connect_delivered)
        assert fast.rounds == engine.rounds
        assert fast.metrics.as_dict() == engine.metrics.as_dict()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("op", ["max", "min", "sum"])
    def test_convergecast_identical(self, forest_inputs, op, backend):
        fm, drr, values, _ = forest_inputs
        fast = run_convergecast(drr, values, op=op, failure_model=fm, rng=1, backend=backend)
        engine = run_convergecast(drr, values, op=op, failure_model=fm, rng=1, backend="engine")
        assert same_by_root(fast.local_value, engine.local_value)
        assert fast.local_weight == engine.local_weight
        assert fast.rounds == engine.rounds
        assert fast.metrics.as_dict() == engine.metrics.as_dict()

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_broadcast_identical(self, forest_inputs, backend):
        fm, drr, _, _ = forest_inputs
        alive = drr.forest.alive
        payload = {int(r): float(r) * 3.0 for r in drr.forest.roots if alive[r]}
        fast = run_broadcast(drr, payload, failure_model=fm, rng=4, backend=backend)
        engine = run_broadcast(drr, payload, failure_model=fm, rng=4, backend="engine")
        assert np.array_equal(fast.received, engine.received)
        assert np.array_equal(fast.payload, engine.payload, equal_nan=True)
        assert fast.rounds == engine.rounds
        assert fast.metrics.as_dict() == engine.metrics.as_dict()

    def test_gossip_max_identical(self, forest_inputs):
        fm, drr, values, root_of = forest_inputs
        alive = drr.forest.alive
        roots = np.array([r for r in drr.forest.roots if alive[r]], dtype=np.int64)
        cov = run_convergecast(drr, values, op="max", failure_model=fm, rng=1)
        results, collectors = {}, {}
        for backend in ALL_BACKENDS:
            metrics = MetricsCollector(n=256)
            results[backend] = run_gossip_max(
                roots, cov.value_vector(roots), root_of, 256,
                failure_model=fm, rng=7, metrics=metrics, alive=alive, backend=backend,
            )
            collectors[backend] = metrics
        for backend in FAST_BACKENDS:
            assert same_by_root(results[backend].estimates, results["engine"].estimates)
            assert (
                results[backend].after_gossip_fraction
                == results["engine"].after_gossip_fraction
            )
            assert collectors[backend].as_dict() == collectors["engine"].as_dict()

    def test_gossip_ave_identical(self, forest_inputs):
        fm, drr, values, root_of = forest_inputs
        alive = drr.forest.alive
        roots = np.array([r for r in drr.forest.roots if alive[r]], dtype=np.int64)
        cov = run_convergecast(drr, values, op="sum", failure_model=fm, rng=1)
        largest = drr.forest.largest_root()
        results, collectors = {}, {}
        for backend in ALL_BACKENDS:
            metrics = MetricsCollector(n=256)
            results[backend] = run_gossip_ave(
                roots,
                cov.value_vector(roots),
                cov.weight_vector(roots),
                root_of, 256, failure_model=fm, rng=9, metrics=metrics,
                alive=alive, trace_root=largest, backend=backend,
            )
            collectors[backend] = metrics
        engine = results["engine"]
        for backend in FAST_BACKENDS:
            fast = results[backend]
            assert same_by_root(fast.estimates, engine.estimates)
            assert same_by_root(fast.sums, engine.sums)
            assert same_by_root(fast.weights, engine.weights)
            assert np.array_equal(fast.history, engine.history, equal_nan=True)
            assert collectors[backend].as_dict() == collectors["engine"].as_dict()

    def test_data_spread_identical(self, forest_inputs):
        fm, drr, _, root_of = forest_inputs
        alive = drr.forest.alive
        roots = np.array([r for r in drr.forest.roots if alive[r]], dtype=np.int64)
        spreader = int(drr.forest.largest_root())
        results, collectors = {}, {}
        for backend in ALL_BACKENDS:
            metrics = MetricsCollector(n=256)
            results[backend] = run_data_spread(
                roots, spreader, 42.5, root_of, 256,
                failure_model=fm, rng=13, metrics=metrics, alive=alive, backend=backend,
            )
            collectors[backend] = metrics
        for backend in FAST_BACKENDS:
            assert same_by_root(results[backend].estimates, results["engine"].estimates)
            assert collectors[backend].as_dict() == collectors["engine"].as_dict()


# --------------------------------------------------------------------------- #
# the topology kernel: Local-DRR forests and Chord lookups
# --------------------------------------------------------------------------- #
class TestTopologyKernelEquivalence:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("fm", FAILURE_MODELS, ids=FM_IDS)
    @pytest.mark.parametrize("family", ["grid", "regular4"])
    def test_local_drr_forest_identical(self, family, fm, backend):
        """The forest itself, which the envelope reports only as depths."""
        topo = make_graph(family, 144, np.random.default_rng(1))
        fast = run_local_drr(topo, rng=7, failure_model=fm, backend=backend)
        engine = run_local_drr(topo, rng=7, failure_model=fm, backend="engine")
        assert np.array_equal(fast.forest.parent, engine.forest.parent)
        assert np.array_equal(fast.forest.alive, engine.forest.alive)
        assert np.array_equal(fast.connect_delivered, engine.connect_delivered)
        assert fast.rounds == engine.rounds == 2

    def test_local_drr_tie_breaking_identical(self):
        """Integer ranks force ties; both backends pick the same parent."""
        topo = grid_graph(64)
        ranks = np.random.default_rng(3).integers(0, 4, size=64).astype(float)
        fast = run_local_drr(topo, rng=5, ranks=ranks, backend="vectorized")
        engine = run_local_drr(topo, rng=5, ranks=ranks, backend="engine")
        assert np.array_equal(fast.forest.parent, engine.forest.parent)

    def test_chord_batch_matches_scalar_lookup(self):
        """On a reliable network the batch replays greedy routing exactly."""
        rng = np.random.default_rng(9)
        chord = ChordNetwork(64, rng)
        sources = rng.integers(0, 64, size=50)
        targets = rng.integers(0, chord.ring_size, size=50)
        batch = run_chord_lookups(chord, sources, targets, rng=1)
        for i in range(50):
            reference = chord.lookup(int(sources[i]), int(targets[i]))
            assert batch.owners[i] == reference.owner
            assert batch.hops[i] == reference.hops
        assert batch.rounds == int(batch.hops.max())
        assert batch.messages == int(batch.hops.sum())

    @pytest.mark.parametrize("count_reply", [False, True], ids=["one-way", "reply"])
    @pytest.mark.parametrize("delta", [0.0, 0.25], ids=["reliable", "lossy"])
    def test_chord_lookups_identical(self, delta, count_reply):
        """Per-lookup owners, hops and fates, which the envelope only summarises."""
        fm = FailureModel(loss_probability=delta)
        rng = np.random.default_rng(6)
        chord = ChordNetwork(128, rng)
        sources = rng.integers(0, 128, size=200)
        targets = rng.integers(0, chord.ring_size, size=200)
        runs = {
            backend: run_chord_lookups(
                chord, sources, targets, failure_model=fm, rng=11,
                backend=backend, count_reply=count_reply,
            )
            for backend in ALL_BACKENDS
        }
        engine = runs["engine"]
        for backend in FAST_BACKENDS:
            fast = runs[backend]
            assert np.array_equal(fast.owners, engine.owners)
            assert np.array_equal(fast.hops, engine.hops)
            assert np.array_equal(fast.delivered, engine.delivered)
            assert np.array_equal(fast.replied, engine.replied)
            assert fast.rounds == engine.rounds
            assert fast.metrics.as_dict() == engine.metrics.as_dict()
        if delta == 0.0:
            assert engine.delivered.all()
        else:
            assert 0 < engine.delivered.sum() < 200

    def test_chord_reply_accounting_matches_scalar_cost_model(self):
        """Reliable network: messages == hops + one reply per route
        (the ``count_reply`` cost model of ``ChordNetwork.lookup``)."""
        rng = np.random.default_rng(9)
        chord = ChordNetwork(64, rng)
        sources = rng.integers(0, 64, size=50)
        targets = rng.integers(0, chord.ring_size, size=50)
        plain = run_chord_lookups(chord, sources, targets, rng=1)
        replied = run_chord_lookups(chord, sources, targets, rng=1, count_reply=True)
        assert np.array_equal(plain.owners, replied.owners)
        assert replied.replied.all()
        assert replied.messages == plain.messages + 50
        assert replied.metrics.total_messages == plain.metrics.total_messages + 50
        # the reply leg takes one extra round after the last arrival
        assert replied.rounds == plain.rounds + 1


# --------------------------------------------------------------------------- #
# whole protocol runs: one spec-driven matrix, one predicate
# --------------------------------------------------------------------------- #
#: The matrix's failure models.  A case runs under every one its protocol
#: accepts (:func:`accepted_models`) unless it names its own.
MODELS = {
    **dict(zip(FM_IDS, FAILURE_MODELS)),
    "crash-churn": CRASH_ONLY_CHURN,
    "churn": FULL_CHURN,
    "crashes": FailureModel(crash_fraction=0.15),
    "loss0.05": FailureModel(loss_probability=0.05),
    "loss0.25": FailureModel(loss_probability=0.25),
}
STATIC = tuple(FM_IDS)
GRID_144 = {"family": "grid", "n": 144}
AGGREGATES = [a.value for a in Aggregate]


def accepted_models(protocol: str) -> tuple[str, ...]:
    """The static models, plus the churn models the protocol accepts."""
    churn = get_protocol(protocol).churn
    return STATIC + {"none": (), "crashes": ("crash-churn",), "full": ("crash-churn", "churn")}[churn]


def _spec(protocol: str, seed: int, topology: dict | None = None, **params) -> RunSpec:
    return RunSpec(protocol=protocol, params=params, topology=topology, seed=seed)


#: case id -> (spec, the failure models it runs under)
CASES: dict[str, tuple[RunSpec, tuple[str, ...]]] = {
    # the shared per-protocol table, also under light loss
    **{p: (spec_for(p), accepted_models(p) + ("loss0.05",)) for p in PROTOCOL_SPECS},
    # the aggregates the table does not name
    **{
        f"drr-gossip-{a}": (
            _spec("drr-gossip", 5, n=64, aggregate=a, workload="uniform"),
            accepted_models("drr-gossip"),
        )
        for a in AGGREGATES
        if a != "average"
    },
    "efficient-gossip-average": (
        _spec("efficient-gossip", 5, n=64, aggregate="average", workload="uniform"),
        STATIC,
    ),
    # larger inputs, with their own seeds and models
    **{
        f"drr-gossip-{a}-n256-s19": (
            _spec("drr-gossip", 19, n=256, aggregate=a, workload="normal"),
            ("reliable",),
        )
        for a in AGGREGATES
    },
    "drr-gossip-max-n256-s23": (
        _spec("drr-gossip", 23, n=256, aggregate="max", workload="normal"),
        ("lossy", "lossy+crashes", "crashes"),
    ),
    "drr-gossip-average-n256-s23": (
        _spec("drr-gossip", 23, n=256, aggregate="average", workload="normal"),
        ("lossy", "lossy+crashes"),
    ),
    **{
        f"drr-gossip-{a}-n256-s29": (
            _spec("drr-gossip", 29, n=256, aggregate=a, workload="normal"),
            ("crash-churn",),
        )
        for a in ("max", "average", "count")
    },
    **{
        f"drr-gossip-{a}-n300-s4": (
            _spec("drr-gossip", 4, n=300, aggregate=a, workload="uniform"),
            ("reliable",),
        )
        for a in ("average", "sum")
    },
    "push-sum-n300-s4": (
        _spec("push-sum", 4, n=300, workload="uniform"),
        STATIC + ("churn",),
    ),
    "push-max-n300-s6": (
        _spec("push-max", 6, n=300, workload="uniform"),
        STATIC + ("churn",),
    ),
    "push-max-stop-n300-s6": (
        _spec("push-max", 6, n=300, workload="uniform", stop_when_converged=True),
        STATIC,
    ),
    **{f"{p}-n512-s7": (_spec(p, 7, n=512), STATIC) for p in ("push-rumor", "push-pull-rumor")},
    "flood-max-grid144-s10": (_spec("flood-max", 10, GRID_144, workload="uniform"), STATIC),
    **{
        f"efficient-gossip-{a}-n400-s12": (
            _spec("efficient-gossip", 12, n=400, aggregate=a, workload="uniform"),
            STATIC,
        )
        for a in ("average", "max")
    },
    "epoch-gossip-ave-n300-s2": (
        _spec("epoch-gossip-ave", 2, n=300, workload="normal", epochs=3, epoch_rounds=8),
        STATIC + ("churn",),
    ),
    "epoch-gossip-ave-grid144-s3": (
        _spec("epoch-gossip-ave", 3, GRID_144, workload="normal", epochs=2, epoch_rounds=10),
        STATIC + ("churn",),
    ),
    **{
        f"local-drr-{family}144-s7": (_spec("local-drr", 7, {"family": family, "n": 144}), STATIC)
        for family in ("grid", "regular4")
    },
    "chord-lookups-n128-s11": (
        _spec("chord-lookups", 11, {"family": "chord", "n": 128}, lookups=300),
        ("reliable", "loss0.25"),
    ),
}

#: row id -> the row's spec (on ``vectorized``)
MATRIX: dict[str, RunSpec] = {
    f"{case}/{model}": spec.replace(failures=MODELS[model])
    for case, (spec, models) in CASES.items()
    for model in models
}


@functools.cache
def engine_outcome(row: str):
    """The engine's run of a matrix row, shared by the backends compared to it."""
    return repro.run(MATRIX[row].with_backend("engine"))


class TestProtocolEquivalence:
    def test_matrix_covers_every_registered_protocol(self):
        assert {spec.protocol for spec in MATRIX.values()} == set(protocol_names())

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("row", list(MATRIX))
    def test_backend_matches_engine(self, row, backend):
        fast = repro.run(MATRIX[row].with_backend(backend))
        assert fast.same_outcome(engine_outcome(row))

    @pytest.mark.parametrize("row", list(MATRIX))
    def test_stored_sweep_envelope_matches_engine(self, row):
        """The envelope a sweep drain stores, read back, is the engine's outcome."""
        spec_json = MATRIX[row].canonical_json()
        payload = _execute_cell(spec_json)
        assert payload["ok"], payload.get("error")
        experiment, params, seed = row_identity(spec_json)
        with ResultStore(":memory:") as store:
            store.record_result(
                experiment, params, seed, payload["result"],
                spec_json=spec_json, result_json=payload["result_json"],
            )
            stored = store.get(experiment, params, seed)
        assert RunResult.from_json(stored.result_json).same_outcome(engine_outcome(row))

    @pytest.mark.parametrize("row", list(MATRIX))
    def test_second_seed_matches_engine(self, row):
        """Equivalence holds for every seed, not only the row's own.

        A fate- or fold-order divergence shows only at seeds that draw its
        rare event (a repeated FORWARD nonce, a node that loses every push).
        """
        spec = MATRIX[row].with_seed(MATRIX[row].seed + 1000)
        fast = repro.run(spec)
        assert fast.same_outcome(repro.run(spec.with_backend("engine")))


# --------------------------------------------------------------------------- #
# results the envelope does not carry
# --------------------------------------------------------------------------- #
class TestOutsideTheEnvelope:
    """Backend equivalence of protocol outputs that ``RunResult`` omits."""

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("fm", FAILURE_MODELS, ids=FM_IDS)
    def test_efficient_gossip_groups_identical(self, fm, backend):
        values = np.random.default_rng(3).uniform(0, 10, size=400)
        fast = efficient_gossip(values, Aggregate.AVERAGE, rng=12, failure_model=fm, backend=backend)
        engine = efficient_gossip(values, Aggregate.AVERAGE, rng=12, failure_model=fm, backend="engine")
        assert fast.max_group_size == engine.max_group_size

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("fm", FAILURE_MODELS, ids=FM_IDS)
    @pytest.mark.parametrize("graph", [False, True], ids=["complete", "grid"])
    def test_epoch_curves_identical_without_churn(self, graph, fm, backend):
        """Churn runs carry the curves in their degradation section."""
        topology = grid_graph(144) if graph else None
        values = np.random.default_rng(5).normal(8.0, 3.0, size=144 if graph else 300)
        runs = [
            epoch_gossip_ave(
                values, rng=2, epochs=3, epoch_rounds=8, failure_model=fm,
                topology=topology, backend=name,
            )
            for name in (backend, "engine")
        ]
        fast, engine = runs
        assert fast.epoch_errors == engine.epoch_errors
        assert fast.epoch_survivors == engine.epoch_survivors


# --------------------------------------------------------------------------- #
# mid-run churn
# --------------------------------------------------------------------------- #
class TestChurnEquivalence:
    def test_churn_charges_messages_to_dead(self):
        result = repro.run(MATRIX["push-sum-n300-s4/churn"])
        assert result.degradation["messages_to_dead"] > 0

    def test_drr_gossip_rejects_joins(self, small_values):
        fm = FailureModel(churn_rate=0.01, join_rate=0.01)
        with pytest.raises(ValueError, match="crash-only"):
            drr_gossip(small_values, Aggregate.AVERAGE, rng=1, config=DRRGossipConfig(failure_model=fm))

    def test_churn_off_runs_are_bit_identical_to_pre_churn(self):
        """A churn-free model must not perturb the RNG stream or fates:
        the whole churn subsystem is omitted-when-zero."""
        from repro.baselines import push_sum

        values = np.random.default_rng(3).uniform(0, 10, size=256)
        for fm in FAILURE_MODELS:
            assert not fm.has_churn
            for backend in ("vectorized", "engine"):
                a = push_sum(values, rng=9, failure_model=fm, backend=backend)
                b = push_sum(values, rng=9, failure_model=fm, backend=backend)
                assert np.array_equal(a.estimates, b.estimates, equal_nan=True)
                assert a.metrics.total_messages_to_dead == 0


# --------------------------------------------------------------------------- #
# lossy networks: determinism and cross-delta common random numbers
# --------------------------------------------------------------------------- #
class TestLossyBehaviour:
    def test_each_backend_deterministic_under_loss(self):
        fm = FailureModel(loss_probability=0.1)
        for backend in ALL_BACKENDS:
            a = run_drr(128, rng=5, failure_model=fm, backend=backend)
            b = run_drr(128, rng=5, failure_model=fm, backend=backend)
            assert np.array_equal(a.forest.parent, b.forest.parent)
            assert a.metrics.total_messages == b.metrics.total_messages

    def test_loss_draws_nothing_from_the_shared_stream(self):
        """Identity-keyed fates never consume the protocol's RNG stream:
        a lossy run draws the same ranks as the reliable run with the same
        seed (common random numbers across the delta axis of a sweep).
        Later draws may still diverge — loss changes *who keeps probing* —
        but never because a loss variate shifted the stream."""
        for fm in (FailureModel(loss_probability=0.05), FailureModel(loss_probability=0.3)):
            reliable = run_drr(128, rng=5)
            lossy = run_drr(128, rng=5, failure_model=fm)
            assert np.array_equal(reliable.forest.rank, lossy.forest.rank)
            rel_local = run_local_drr(grid_graph(64), rng=5)
            lossy_local = run_local_drr(grid_graph(64), rng=5, failure_model=fm)
            assert np.array_equal(rel_local.forest.rank, lossy_local.forest.rank)
