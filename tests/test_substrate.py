"""Backend-equivalence guarantees of the execution substrate.

The substrate's contract (see ``repro/substrate/kernel.py``): the columnar
``vectorized`` kernel, the numba-jitted ``compiled`` kernel (where numba is
installed), and the message-level ``engine`` kernel consume the shared RNG
stream in the same order, decide per-transmission loss through the identity-keyed loss oracle,
and charge messages through the same accounting conventions.  For every
protocol the backends must therefore produce **identical** rounds, message
counts (total, per kind, per phase, lost), and estimates for the same seed —
on reliable *and* lossy networks (``FailureModel`` with loss probability
> 0), with and without initial crashes.

Float caveat: protocols that *sum* floats (convergecast-sum, gossip-ave's
push-sum mass arriving over two hops) may fold concurrent contributions in
a different order per backend, so their estimates are compared to within
float-rounding (1e-12 relative) instead of bitwise.  The uniform push-sum
baseline is outside that allowance: every backend folds a round's pushes
in sender order, so its estimates are compared bitwise, like
order-independent folds (max/min) and all discrete quantities.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    efficient_gossip,
    flood_max,
    push_max,
    push_pull_rumor,
    push_rumor,
    push_sum,
)
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
from repro.simulator import FailureModel, MetricsCollector
from repro.simulator.failures import LossOracle
from repro.simulator.network import Network
from repro.simulator.message import Message
from repro.substrate import (
    BACKENDS,
    available_backends,
    deliver_batch,
    get_kernel,
    normalize_backend,
    occurrence_index,
    run_chord_lookups,
    run_on,
)
from repro.topology import ChordNetwork, grid_graph, make_graph

#: The failure models every equivalence assertion runs under: reliable,
#: lossy links, and lossy links plus initial crashes.
FAILURE_MODELS = [
    FailureModel(),
    FailureModel(loss_probability=0.15),
    FailureModel(loss_probability=0.1, crash_fraction=0.15),
]
FM_IDS = ["reliable", "lossy", "lossy+crashes"]

#: The four-way fault axis for churn-capable protocols: the three static
#: models above plus mid-run churn (rate crashes, rate joins, and explicit
#: schedule events).  Used by :class:`TestChurnEquivalence`.
CHURN_AXIS_MODELS = FAILURE_MODELS + [
    FailureModel(
        loss_probability=0.05,
        crash_fraction=0.05,
        churn_rate=0.01,
        join_rate=0.005,
        churn_schedule=((3, (2, 7), "crash"), (8, (2,), "join")),
    ),
]
CHURN_AXIS_IDS = FM_IDS + ["churn"]

#: Crash-only churn for the DRR-gossip pipeline (trees cannot re-admit
#: joiners; the API rejects join events for it).
CRASH_ONLY_CHURN = FailureModel(
    loss_probability=0.05,
    crash_fraction=0.02,
    churn_rate=0.004,
    churn_schedule=((5, (3, 9), "crash"),),
)

#: The backends measured against the ``engine`` fidelity reference.
#: ``compiled`` runs on every machine: jitted with numba installed, its loops
#: interpreted as plain Python without it.  Parametrized tests get it through
#: the indirect ``backend`` fixture, tests that loop over ALL_BACKENDS through
#: the ``compiled_kernel`` fixture (both in ``tests/conftest.py``).
FAST_BACKENDS = ["vectorized", "compiled"]
ALL_BACKENDS = ["engine", *FAST_BACKENDS]


def assert_metrics_identical(a: MetricsCollector, b: MetricsCollector) -> None:
    assert a.total_rounds == b.total_rounds
    assert a.total_messages == b.total_messages
    assert a.total_messages_lost == b.total_messages_lost
    assert a.total_messages_to_dead == b.total_messages_to_dead
    assert a.total_words == b.total_words
    assert dict(a.messages_by_kind()) == dict(b.messages_by_kind())
    assert a.messages_by_phase() == b.messages_by_phase()
    assert a.rounds_by_phase() == b.rounds_by_phase()


# --------------------------------------------------------------------------- #
# backend registry
# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_available_backends(self):
        from repro.substrate import NUMBA_AVAILABLE

        expected = ("vectorized", "engine")
        if NUMBA_AVAILABLE:
            expected = ("vectorized", "compiled", "engine")
        assert available_backends() == expected

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
        from repro.simulator.failures import kind_salt

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
    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
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
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("op", ["max", "min", "sum"])
    def test_convergecast_identical(self, forest_inputs, op, backend):
        fm, drr, values, _ = forest_inputs
        fast = run_convergecast(drr, values, op=op, failure_model=fm, rng=1, backend=backend)
        engine = run_convergecast(drr, values, op=op, failure_model=fm, rng=1, backend="engine")
        assert set(fast.local_value) == set(engine.local_value)
        for root in fast.local_value:
            assert fast.local_value[root] == pytest.approx(engine.local_value[root], rel=1e-12)
        assert fast.local_weight == engine.local_weight
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    def test_broadcast_identical(self, forest_inputs, backend):
        fm, drr, _, _ = forest_inputs
        alive = drr.forest.alive
        payload = {int(r): float(r) * 3.0 for r in drr.forest.roots if alive[r]}
        fast = run_broadcast(drr, payload, failure_model=fm, rng=4, backend=backend)
        engine = run_broadcast(drr, payload, failure_model=fm, rng=4, backend="engine")
        assert np.array_equal(fast.received, engine.received)
        assert np.allclose(fast.payload, engine.payload, equal_nan=True)
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.usefixtures("compiled_kernel")
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
            assert results[backend].estimates == results["engine"].estimates
            assert (
                results[backend].after_gossip_fraction
                == results["engine"].after_gossip_fraction
            )
            assert_metrics_identical(collectors[backend], collectors["engine"])

    @pytest.mark.usefixtures("compiled_kernel")
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
            assert set(fast.estimates) == set(engine.estimates)
            for root in fast.estimates:
                assert fast.estimates[root] == pytest.approx(
                    engine.estimates[root], rel=1e-12, nan_ok=True
                )
            assert len(fast.history) == len(engine.history)
            assert np.allclose(fast.history, engine.history, rtol=1e-9, equal_nan=True)
            assert_metrics_identical(collectors[backend], collectors["engine"])

    @pytest.mark.usefixtures("compiled_kernel")
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
            assert results[backend].estimates == results["engine"].estimates
            assert_metrics_identical(collectors[backend], collectors["engine"])


# --------------------------------------------------------------------------- #
# the topology kernel: Local-DRR and Chord lookups
# --------------------------------------------------------------------------- #
class TestTopologyKernelEquivalence:
    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("fm", FAILURE_MODELS, ids=FM_IDS)
    @pytest.mark.parametrize("family", ["grid", "regular4"])
    def test_local_drr_identical(self, family, fm, backend):
        topo = make_graph(family, 144, np.random.default_rng(1))
        fast = run_local_drr(topo, rng=7, failure_model=fm, backend=backend)
        engine = run_local_drr(topo, rng=7, failure_model=fm, backend="engine")
        assert np.array_equal(fast.forest.parent, engine.forest.parent)
        assert np.array_equal(fast.forest.alive, engine.forest.alive)
        assert np.array_equal(fast.connect_delivered, engine.connect_delivered)
        assert fast.rounds == engine.rounds == 2
        assert_metrics_identical(fast.metrics, engine.metrics)

    def test_local_drr_tie_breaking_identical(self):
        """Integer ranks force ties; both backends pick the same parent."""
        topo = grid_graph(64)
        ranks = np.random.default_rng(3).integers(0, 4, size=64).astype(float)
        fast = run_local_drr(topo, rng=5, ranks=ranks, backend="vectorized")
        engine = run_local_drr(topo, rng=5, ranks=ranks, backend="engine")
        assert np.array_equal(fast.forest.parent, engine.forest.parent)

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("delta", [0.0, 0.25], ids=["reliable", "lossy"])
    def test_chord_lookups_identical(self, delta, backend):
        fm = FailureModel(loss_probability=delta)
        rng = np.random.default_rng(3)
        chord = ChordNetwork(128, rng)
        sources = rng.integers(0, 128, size=300)
        targets = rng.integers(0, chord.ring_size, size=300)
        fast = run_chord_lookups(
            chord, sources, targets, failure_model=fm, rng=11, backend=backend
        )
        engine = run_chord_lookups(
            chord, sources, targets, failure_model=fm, rng=11, backend="engine"
        )
        assert np.array_equal(fast.owners, engine.owners)
        assert np.array_equal(fast.hops, engine.hops)
        assert np.array_equal(fast.delivered, engine.delivered)
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)
        if delta == 0.0:
            assert fast.delivered.all()
        else:
            assert 0 < fast.delivered.sum() < 300

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

    @pytest.mark.usefixtures("compiled_kernel")
    @pytest.mark.parametrize("delta", [0.0, 0.25], ids=["reliable", "lossy"])
    def test_chord_reply_batching_identical(self, delta):
        """count_reply charges the reply leg identically on every backend."""
        fm = FailureModel(loss_probability=delta)
        rng = np.random.default_rng(6)
        chord = ChordNetwork(128, rng)
        sources = rng.integers(0, 128, size=200)
        targets = rng.integers(0, chord.ring_size, size=200)
        runs = {
            backend: run_chord_lookups(
                chord, sources, targets, failure_model=fm, rng=11,
                backend=backend, count_reply=True,
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
            assert_metrics_identical(fast.metrics, engine.metrics)

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
# full DRR-gossip pipelines
# --------------------------------------------------------------------------- #
class TestPipelineEquivalence:
    #: MAX / MIN / COUNT fold order-independently -> bitwise equality;
    #: AVERAGE / SUM / RANK accumulate floats -> float-rounding equality.
    EXACT = {Aggregate.MAX, Aggregate.MIN, Aggregate.COUNT}

    def assert_pipeline_matches(self, fast, engine, aggregate):
        assert fast.rounds == engine.rounds
        assert fast.messages == engine.messages
        assert fast.rounds_by_phase() == engine.rounds_by_phase()
        assert fast.messages_by_phase() == engine.messages_by_phase()
        assert np.array_equal(fast.learned, engine.learned)
        assert fast.exact == engine.exact
        if aggregate in self.EXACT:
            assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
        else:
            assert np.allclose(fast.estimates, engine.estimates, rtol=1e-9, equal_nan=True)
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.usefixtures("compiled_kernel")
    @pytest.mark.parametrize(
        "aggregate",
        [Aggregate.MAX, Aggregate.MIN, Aggregate.AVERAGE, Aggregate.SUM, Aggregate.COUNT, Aggregate.RANK],
    )
    def test_every_aggregate_identical_across_backends(self, aggregate, small_values):
        runs = {
            backend: drr_gossip(
                small_values,
                aggregate,
                rng=19,
                config=DRRGossipConfig(backend=backend),
                query=float(np.median(small_values)),
            )
            for backend in ALL_BACKENDS
        }
        for backend in FAST_BACKENDS:
            self.assert_pipeline_matches(runs[backend], runs["engine"], aggregate)

    @pytest.mark.usefixtures("compiled_kernel")
    @pytest.mark.parametrize("fm", FAILURE_MODELS[1:], ids=FM_IDS[1:])
    @pytest.mark.parametrize("aggregate", [Aggregate.MAX, Aggregate.AVERAGE])
    def test_pipeline_identical_under_failures(self, aggregate, fm, small_values):
        runs = {
            backend: drr_gossip(
                small_values, aggregate, rng=23,
                config=DRRGossipConfig(failure_model=fm, backend=backend),
            )
            for backend in ALL_BACKENDS
        }
        for backend in FAST_BACKENDS:
            self.assert_pipeline_matches(runs[backend], runs["engine"], aggregate)

    @pytest.mark.usefixtures("compiled_kernel")
    def test_pipeline_identical_under_crashes(self, small_values):
        fm = FailureModel(crash_fraction=0.15)
        runs = {
            backend: drr_gossip(
                small_values, Aggregate.MAX, rng=23,
                config=DRRGossipConfig(failure_model=fm, backend=backend),
            )
            for backend in ALL_BACKENDS
        }
        for backend in FAST_BACKENDS:
            self.assert_pipeline_matches(runs[backend], runs["engine"], Aggregate.MAX)


# --------------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
@pytest.mark.parametrize("fm", FAILURE_MODELS, ids=FM_IDS)
class TestBaselineEquivalence:
    def test_push_sum_identical(self, fm, backend):
        values = np.random.default_rng(3).uniform(0, 10, size=300)
        fast = push_sum(values, rng=4, failure_model=fm, backend=backend)
        engine = push_sum(values, rng=4, failure_model=fm, backend="engine")
        assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)

    def test_push_max_identical_including_oracle_stop(self, fm, backend):
        values = np.random.default_rng(3).uniform(0, 10, size=300)
        for stop in (False, True):
            fast = push_max(values, rng=6, failure_model=fm, stop_when_converged=stop, backend=backend)
            engine = push_max(values, rng=6, failure_model=fm, stop_when_converged=stop, backend="engine")
            assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
            assert fast.rounds == engine.rounds
            assert_metrics_identical(fast.metrics, engine.metrics)

    def test_rumor_protocols_identical(self, fm, backend):
        if fm.crash_fraction:
            pytest.skip("rumor protocols ignore initial crashes by design")
        for fn in (push_rumor, push_pull_rumor):
            fast = fn(512, rng=7, failure_model=fm, backend=backend)
            engine = fn(512, rng=7, failure_model=fm, backend="engine")
            assert np.array_equal(fast.informed, engine.informed)
            assert fast.rounds == engine.rounds
            assert_metrics_identical(fast.metrics, engine.metrics)

    def test_flooding_identical(self, fm, backend):
        if fm.crash_fraction:
            pytest.skip("flooding ignores initial crashes by design")
        topology = grid_graph(144)
        values = np.random.default_rng(9).uniform(0, 100, size=144)
        fast = flood_max(topology, values, rng=10, failure_model=fm, backend=backend)
        engine = flood_max(topology, values, rng=10, failure_model=fm, backend="engine")
        assert np.array_equal(fast.estimates, engine.estimates)
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)

    def test_efficient_gossip_identical(self, fm, backend):
        for aggregate in (Aggregate.AVERAGE, Aggregate.MAX):
            values = np.random.default_rng(3).uniform(0, 10, size=400)
            fast = efficient_gossip(values, aggregate, rng=12, failure_model=fm, backend=backend)
            engine = efficient_gossip(values, aggregate, rng=12, failure_model=fm, backend="engine")
            assert fast.group_count == engine.group_count
            assert fast.max_group_size == engine.max_group_size
            assert np.allclose(fast.estimates, engine.estimates, rtol=1e-12, equal_nan=True)
            assert fast.rounds == engine.rounds
            assert_metrics_identical(fast.metrics, engine.metrics)


# --------------------------------------------------------------------------- #
# mid-run churn: the four-way fault axis
# --------------------------------------------------------------------------- #
class TestChurnEquivalence:
    """Every backend must agree under mid-run churn, not just static faults.

    The axis is reliable / lossy / lossy+crashes / churn; churn adds rate
    crashes, rate joins, and explicit schedule events on top of loss and
    initial crashes.  Fates come from the identity-keyed
    :class:`~repro.simulator.failures.ChurnOracle`, so the evolving alive
    mask — and everything downstream of it — is the same on every backend.
    """

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("fm", CHURN_AXIS_MODELS, ids=CHURN_AXIS_IDS)
    def test_push_sum_four_way(self, fm, backend):
        values = np.random.default_rng(3).uniform(0, 10, size=300)
        fast = push_sum(values, rng=4, failure_model=fm, backend=backend)
        engine = push_sum(values, rng=4, failure_model=fm, backend="engine")
        assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
        assert fast.exact == engine.exact
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)
        if fm.has_churn:
            assert fast.metrics.total_messages_to_dead > 0
        else:
            assert fast.metrics.total_messages_to_dead == 0

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("fm", CHURN_AXIS_MODELS, ids=CHURN_AXIS_IDS)
    def test_push_max_four_way(self, fm, backend):
        values = np.random.default_rng(3).uniform(0, 10, size=300)
        fast = push_max(values, rng=6, failure_model=fm, backend=backend)
        engine = push_max(values, rng=6, failure_model=fm, backend="engine")
        assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
        assert fast.exact == engine.exact
        assert fast.rounds == engine.rounds
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("fm", CHURN_AXIS_MODELS, ids=CHURN_AXIS_IDS)
    def test_epoch_gossip_four_way(self, fm, backend):
        from repro.baselines import epoch_gossip_ave

        values = np.random.default_rng(5).normal(8.0, 3.0, size=300)
        fast = epoch_gossip_ave(
            values, rng=2, epochs=3, epoch_rounds=8, failure_model=fm, backend=backend
        )
        engine = epoch_gossip_ave(
            values, rng=2, epochs=3, epoch_rounds=8, failure_model=fm, backend="engine"
        )
        assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
        assert fast.exact == engine.exact
        assert fast.rounds == engine.rounds
        assert fast.epoch_errors == engine.epoch_errors
        assert fast.epoch_survivors == engine.epoch_survivors
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.parametrize("backend", FAST_BACKENDS, indirect=True)
    @pytest.mark.parametrize("fm", CHURN_AXIS_MODELS, ids=CHURN_AXIS_IDS)
    def test_epoch_gossip_graph_four_way(self, fm, backend):
        from repro.baselines import epoch_gossip_ave

        topology = grid_graph(144)
        values = np.random.default_rng(6).normal(0.0, 5.0, size=144)
        fast = epoch_gossip_ave(
            values, rng=3, epochs=2, epoch_rounds=10, failure_model=fm,
            topology=topology, backend=backend,
        )
        engine = epoch_gossip_ave(
            values, rng=3, epochs=2, epoch_rounds=10, failure_model=fm,
            topology=topology, backend="engine",
        )
        assert np.array_equal(fast.estimates, engine.estimates, equal_nan=True)
        assert fast.epoch_errors == engine.epoch_errors
        assert fast.epoch_survivors == engine.epoch_survivors
        assert_metrics_identical(fast.metrics, engine.metrics)

    @pytest.mark.usefixtures("compiled_kernel")
    @pytest.mark.parametrize("aggregate", [Aggregate.MAX, Aggregate.AVERAGE, Aggregate.COUNT])
    def test_drr_gossip_pipeline_under_churn(self, aggregate, small_values):
        """The full pipeline (crash-only churn) agrees across all backends."""
        runs = {
            backend: drr_gossip(
                small_values, aggregate, rng=29,
                config=DRRGossipConfig(failure_model=CRASH_ONLY_CHURN, backend=backend),
            )
            for backend in ALL_BACKENDS
        }
        engine = runs["engine"]
        exact_cls = TestPipelineEquivalence()
        for backend in FAST_BACKENDS:
            exact_cls.assert_pipeline_matches(runs[backend], engine, aggregate)
            assert runs[backend].metrics.total_messages_to_dead == engine.metrics.total_messages_to_dead

    def test_drr_gossip_rejects_joins(self, small_values):
        fm = FailureModel(churn_rate=0.01, join_rate=0.01)
        with pytest.raises(ValueError, match="crash-only"):
            drr_gossip(small_values, Aggregate.AVERAGE, rng=1, config=DRRGossipConfig(failure_model=fm))

    def test_churn_off_runs_are_bit_identical_to_pre_churn(self):
        """A churn-free model must not perturb the RNG stream or fates:
        the whole churn subsystem is omitted-when-zero."""
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
    @pytest.mark.usefixtures("compiled_kernel")
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
