"""The ``compiled`` backend: registration and primitive contracts.

Everything here holds on *every* machine; where numba is missing the
``compiled_kernel`` fixture runs the kernel's loops as plain Python:

* each loop-backed override against the NumPy primitive it replaces —
  outputs, fates and message accounting (also run through the three-way
  equivalence matrix in ``tests/test_substrate.py``);
* dynamic registration — ``BACKENDS`` grows/shrinks with numba's
  availability, ``normalize_backend`` explains how to install the extra,
  and specs referencing ``backend="compiled"`` round-trip whenever the
  backend is registered;
* whole runs, which must be bit-identical to vectorized;
* int32 storage of the drawn node ids (ids only, never accumulators);
* the single-pass ``occurrence_index`` rewrite against a naive reference;
* the ``compact_frontier`` / ``fold_pushes`` kernel primitives;
* the ``LossOracle`` batch-hasher seam the compiled module installs.
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.api import RunSpec
from repro.core import DRRGossipConfig, drr_gossip_average, run_drr
from repro.simulator import MetricsCollector, failures
from repro.simulator.errors import ConfigurationError
from repro.simulator.failures import ChurnOracle, FailureModel, LossOracle, kind_salt
from repro.simulator.message import MessageKind
from repro.substrate import (
    BACKENDS,
    NUMBA_AVAILABLE,
    UNAVAILABLE_BACKENDS,
    RelayTable,
    VectorizedKernel,
    available_backends,
    compact_frontier,
    deliver_batch,
    fold_pushes,
    get_kernel,
    normalize_backend,
    occurrence_index,
    probe_exchange,
    relay_to_roots,
)
from repro.substrate import compiled as compiled_mod
from repro.substrate.compiled import NUMBA_REQUIREMENT


def naive_occurrence_index(keys) -> np.ndarray:
    """Reference: rank of each element among equal keys, in array order."""
    seen: dict = {}
    out = np.empty(len(keys), dtype=np.int64)
    for i, key in enumerate(keys):
        k = key.item() if hasattr(key, "item") else key
        out[i] = seen.get(k, 0)
        seen[k] = out[i] + 1
    return out


# --------------------------------------------------------------------------- #
# registration / deregistration
# --------------------------------------------------------------------------- #
class TestRegistration:
    def test_registry_matches_numba_availability(self):
        if NUMBA_AVAILABLE:
            assert "compiled" in BACKENDS
            assert "compiled" not in UNAVAILABLE_BACKENDS
        else:
            assert "compiled" not in BACKENDS
            assert UNAVAILABLE_BACKENDS["compiled"] == NUMBA_REQUIREMENT

    def test_unavailable_error_names_the_extra_and_the_alternatives(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; the unavailable error cannot fire")
        with pytest.raises(ConfigurationError) as exc:
            normalize_backend("compiled")
        message = str(exc.value)
        assert "numba" in message
        assert "pip install .[compiled]" in message
        # the dynamic registry contents, so users see what they CAN pick
        assert ", ".join(available_backends()) in message

    def test_import_failure_deregisters(self, monkeypatch):
        """Reloading the module with numba unimportable must deregister."""
        import builtins

        real_import = builtins.__import__

        def blocked(name, *args, **kwargs):
            if name == "numba" or name.startswith("numba."):
                raise ImportError("numba blocked by test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", blocked)
        try:
            reloaded = importlib.reload(compiled_mod)
            assert reloaded.NUMBA_AVAILABLE is False
            assert "compiled" not in BACKENDS
            assert UNAVAILABLE_BACKENDS["compiled"] == reloaded.NUMBA_REQUIREMENT
        finally:
            monkeypatch.undo()
            importlib.reload(compiled_mod)
        # back to the environment's true state
        assert ("compiled" in BACKENDS) == compiled_mod.NUMBA_AVAILABLE

    def test_get_kernel_roundtrip_when_registered(self, compiled_kernel):
        kernel = get_kernel("compiled")
        assert kernel is compiled_kernel
        assert normalize_backend(kernel) == "compiled"
        # a columnar kernel: run_on routes it down the vectorized path
        assert isinstance(kernel, VectorizedKernel)


# --------------------------------------------------------------------------- #
# spec round-trips
# --------------------------------------------------------------------------- #
class TestSpecRoundTrip:
    @pytest.mark.usefixtures("compiled_kernel")
    def test_runspec_roundtrips_compiled_backend(self):
        spec = RunSpec(protocol="drr", params={"n": 64}, seed=3, backend="compiled")
        doc = spec.to_dict()
        assert doc["backend"] == "compiled"
        assert RunSpec.from_dict(doc) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_runspec_rejects_compiled_when_unregistered(self):
        if NUMBA_AVAILABLE:
            pytest.skip("numba installed; compiled is always registered")
        with pytest.raises(Exception, match="not available"):
            RunSpec(protocol="drr", params={"n": 64}, backend="compiled")

    @pytest.mark.usefixtures("compiled_kernel")
    def test_dispatch_runs_compiled_spec(self):
        spec = RunSpec(protocol="drr", params={"n": 128}, seed=5, backend="compiled")
        reference = repro.run(spec.replace(backend="vectorized"))
        assert repro.run(spec).same_outcome(reference)


# --------------------------------------------------------------------------- #
# whole runs against vectorized + int32 ids
# --------------------------------------------------------------------------- #
class TestMatchesVectorized:
    @pytest.mark.usefixtures("compiled_kernel")
    @pytest.mark.parametrize("fm", [FailureModel(), FailureModel(0.1, 0.1)],
                             ids=["reliable", "lossy+crash"])
    def test_pipeline_bit_identical_to_vectorized(self, fm):
        values = np.random.default_rng(3).normal(10.0, 2.0, size=2000)
        compiled = drr_gossip_average(
            values, rng=2, config=DRRGossipConfig(failure_model=fm, backend="compiled")
        )
        reference = drr_gossip_average(
            values, rng=2, config=DRRGossipConfig(failure_model=fm, backend="vectorized")
        )
        assert compiled.rounds == reference.rounds
        assert compiled.messages == reference.messages
        assert compiled.metrics.messages_by_phase() == reference.metrics.messages_by_phase()
        assert np.array_equal(compiled.estimates, reference.estimates, equal_nan=True)

    @pytest.mark.parametrize("exclude", [None, np.arange(4096)], ids=["uniform", "exclude"])
    def test_narrowing_is_value_identical(self, compiled_kernel, exclude):
        """Narrowed id draws must be the same numbers the wide path draws."""
        rng = np.random.default_rng(7)
        narrowed = compiled_kernel.sample_uniform(rng, 10_000, 4096, exclude=exclude)
        wide = VectorizedKernel.sample_uniform(
            np.random.default_rng(7), 10_000, 4096, exclude=exclude
        )
        assert wide.dtype == np.int64
        assert narrowed.dtype == np.int32  # n < 2^31: provably lossless
        assert np.array_equal(narrowed.astype(np.int64), wide)
        # a population past int32 keeps the full-width ids
        assert compiled_kernel.sample_uniform(rng, 2**31, 16, exclude=None).dtype == np.int64

    @pytest.mark.parametrize(
        ("n", "size", "exclude", "dtype"),
        [
            (4096, 0, np.zeros(0, dtype=np.int64), np.int32),
            (1, 5, np.zeros(5, dtype=np.int64), np.int32),
            (2**31 - 2, 64, None, np.int32),
            (2**31 - 1, 64, None, np.int64),
        ],
        ids=["empty", "single-node", "largest-int32-population", "past-int32"],
    )
    def test_int32_ids_on_every_draw_path(self, compiled_kernel, n, size, exclude, dtype):
        """The draw's edge paths store ids like its main path, and only while lossless."""
        ids = compiled_kernel.sample_uniform(np.random.default_rng(3), n, size, exclude=exclude)
        wide = VectorizedKernel.sample_uniform(np.random.default_rng(3), n, size, exclude=exclude)
        assert ids.dtype == dtype
        assert np.array_equal(ids.astype(np.int64), wide)

    @pytest.mark.usefixtures("compiled_kernel")
    def test_drr_identical_to_vectorized(self):
        compiled = run_drr(512, rng=9, backend="compiled")
        reference = run_drr(512, rng=9, backend="vectorized")
        assert np.array_equal(compiled.forest.parent, reference.forest.parent)
        assert compiled.rounds == reference.rounds
        assert compiled.metrics.total_messages == reference.metrics.total_messages


# --------------------------------------------------------------------------- #
# occurrence_index: single-pass rewrite vs naive reference
# --------------------------------------------------------------------------- #
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

    def test_compiled_kernel_method_agrees(self, compiled_kernel):
        rng = np.random.default_rng(2)
        arr = rng.integers(0, 500, size=3000)
        assert np.array_equal(compiled_kernel.occurrence_index(arr), naive_occurrence_index(arr))


# --------------------------------------------------------------------------- #
# kernel primitives: compact_frontier / fold_pushes
# --------------------------------------------------------------------------- #
class TestNewPrimitives:
    def test_compact_frontier_matches_mask_gather(self, compiled_kernel):
        rng = np.random.default_rng(3)
        active = rng.permutation(5000)[:3000]
        drop = rng.random(3000) < 0.4
        expected = active[~drop]
        assert np.array_equal(compact_frontier(active, drop), expected)
        assert np.array_equal(compiled_kernel.compact_frontier(active, drop), expected)

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
# the loops: every loop-backed override against the NumPy primitive
# --------------------------------------------------------------------------- #
LOOP_N = 600
LOSSY = LossOracle(0.3, key=0x5EED)
RELIABLE = LossOracle(0.0)

#: occurrence_index key sets dense enough for the counting loop
OCCURRENCE_KEYS = {
    "relay-shaped": np.random.default_rng(4).integers(0, 500, size=3000),
    "negative-base": np.random.default_rng(5).integers(-300, 300, size=2000),
    "all-equal": np.full(1000, 7, dtype=np.int64),
}


def _accounting(metrics: MetricsCollector) -> tuple:
    return (
        metrics.total_messages,
        metrics.total_messages_lost,
        metrics.total_messages_to_dead,
        metrics.total_words,
        dict(metrics.messages_by_kind()),
    )


def _alive(rng, crashes: bool):
    return rng.random(LOOP_N) > 0.2 if crashes else None


@contextlib.contextmanager
def _numpy_hashers():
    """Take the installed loss and churn hashers out for a reference run."""
    batch, churn = failures._BATCH_HASHER, failures._CHURN_HASHER
    failures.set_batch_hasher(None)
    failures.set_churn_hasher(None)
    try:
        yield
    finally:
        failures.set_batch_hasher(batch)
        failures.set_churn_hasher(churn)


class TestLoopsMatchNumpy:
    """Each loop of the kernel computes exactly its NumPy counterpart.

    The ``compiled_kernel`` fixture runs the loops jitted where numba is
    installed and interpreted where it is not, so fates, outputs and
    message accounting of every loop are checked on every machine.
    """

    @pytest.mark.parametrize("identity", ["shared", "per-message"])
    @pytest.mark.parametrize("dead_targets", [False, True], ids=["no-to-dead", "to-dead"])
    @pytest.mark.parametrize("crashes", [False, True], ids=["all-alive", "crashes"])
    def test_deliver(self, compiled_kernel, crashes, dead_targets, identity):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, LOOP_N, size=2000)
        alive = _alive(rng, crashes)
        if identity == "shared":
            ident = {"senders": 17, "round_index": 5}
        else:
            ident = {
                "senders": rng.integers(0, LOOP_N, size=2000),
                "round_index": rng.integers(0, 30, size=2000),
                "nonces": rng.integers(0, 3, size=2000),
            }
        got_m, ref_m = MetricsCollector(n=LOOP_N), MetricsCollector(n=LOOP_N)
        got = compiled_kernel.deliver(
            got_m, LOSSY, MessageKind.GOSSIP, targets, alive=alive,
            payload_words=2, dead_targets=dead_targets, **ident,
        )
        ref = deliver_batch(
            ref_m, LOSSY, MessageKind.GOSSIP, targets, alive=alive,
            payload_words=2, dead_targets=dead_targets, **ident,
        )
        assert np.array_equal(got, ref)
        assert _accounting(got_m) == _accounting(ref_m)

    @pytest.mark.parametrize("crashes", [False, True], ids=["all-alive", "crashes"])
    @pytest.mark.parametrize("oracle", [RELIABLE, LOSSY], ids=["reliable", "lossy"])
    def test_probe_exchange(self, compiled_kernel, oracle, crashes):
        rng = np.random.default_rng(2)
        senders = rng.permutation(LOOP_N)[:400]
        targets = rng.integers(0, LOOP_N, size=400)
        ranks = rng.random(LOOP_N)
        alive = _alive(rng, crashes)
        got_m, ref_m = MetricsCollector(n=LOOP_N), MetricsCollector(n=LOOP_N)
        got = compiled_kernel.probe_exchange(
            got_m, oracle, targets, senders=senders, ranks=ranks, round_index=3, alive=alive
        )
        ref = probe_exchange(
            ref_m, oracle, targets, senders=senders, ranks=ranks, round_index=3, alive=alive
        )
        assert np.array_equal(got, ref)
        assert _accounting(got_m) == _accounting(ref_m)

    @pytest.mark.parametrize("dead_targets", [False, True], ids=["no-to-dead", "to-dead"])
    @pytest.mark.parametrize("case", ["lossy", "lossy+crashes", "reliable+crashes"])
    def test_relay_to_roots(self, compiled_kernel, case, dead_targets):
        rng = np.random.default_rng(3)
        roots = rng.choice(LOOP_N, size=40, replace=False)
        root_of = roots[rng.integers(0, roots.size, size=LOOP_N)]
        root_of[rng.random(LOOP_N) < 0.1] = -1  # Phase II broadcast lost: no forward
        # ~5 pushes per forwarder, so the FORWARD nonces (send ranks) matter
        senders = roots[rng.integers(0, roots.size, size=3000)]
        targets = rng.integers(0, LOOP_N, size=3000)
        oracle = RELIABLE if case.startswith("reliable") else LOSSY
        alive = _alive(rng, "crashes" in case)
        kwargs = dict(
            senders=senders, round_index=4, kind=MessageKind.GOSSIP,
            table=RelayTable(roots, root_of, LOOP_N), alive=alive, payload_words=2,
            dead_targets=dead_targets,
        )
        got_m, ref_m = MetricsCollector(n=LOOP_N), MetricsCollector(n=LOOP_N)
        got = compiled_kernel.relay_to_roots(got_m, oracle, targets, **kwargs)
        ref = relay_to_roots(ref_m, oracle, targets, **kwargs)
        assert np.array_equal(got, ref)
        assert _accounting(got_m) == _accounting(ref_m)
        assert (got >= 0).any() and (got < 0).any()

    @pytest.mark.parametrize("name", sorted(OCCURRENCE_KEYS))
    def test_occurrence_index(self, compiled_kernel, name):
        keys = OCCURRENCE_KEYS[name]
        assert np.array_equal(compiled_kernel.occurrence_index(keys), naive_occurrence_index(keys))
        # the counts scratch is handed back all-zero for the next call
        assert not compiled_kernel._scratch["occurrence_counts"].any()

    @pytest.mark.parametrize(
        "drop_rate", [0.0, 0.4, 1.0], ids=["keep-all", "drop-some", "drop-all"]
    )
    def test_compact_frontier(self, compiled_kernel, drop_rate):
        rng = np.random.default_rng(6)
        active = rng.permutation(5000)[:3000]
        drop = rng.random(3000) < drop_rate
        got = compiled_kernel.compact_frontier(active, drop)
        assert got.dtype == active.dtype
        assert np.array_equal(got, compact_frontier(active, drop))

    @pytest.mark.parametrize("drop_rate", [0.3, 1.0], ids=["some-dropped", "all-dropped"])
    def test_fold_pushes(self, compiled_kernel, drop_rate):
        rng = np.random.default_rng(7)
        m, batch = 257, 4096
        receiver = rng.integers(0, m, size=batch)
        receiver[rng.random(batch) < drop_rate] = -1
        send_s, send_g = rng.random(batch), rng.random(batch)
        s, g = rng.random(m), rng.random(m)
        s_ref, g_ref = s.copy(), g.copy()
        compiled_kernel.fold_pushes(receiver, send_s, send_g, s, g)
        fold_pushes(receiver, send_s, send_g, s_ref, g_ref)
        # bitwise: the loop keeps bincount's per-position summation order
        assert np.array_equal(s, s_ref)
        assert np.array_equal(g, g_ref)

    @pytest.mark.parametrize("identity", ["shared", "per-message"])
    def test_loss_batch_hasher(self, compiled_kernel, identity):
        assert failures._BATCH_HASHER is compiled_mod._batch_hash
        rng = np.random.default_rng(8)
        size = 5000  # above the threshold at which the oracle calls the hasher
        recipients = rng.integers(0, LOOP_N, size=size)
        if identity == "shared":
            args = (9, MessageKind.GOSSIP, 3, recipients)
        else:
            args = (
                rng.integers(0, 40, size=size), MessageKind.FORWARD,
                rng.integers(0, LOOP_N, size=size), recipients, rng.integers(0, 4, size=size),
            )
        got = LOSSY.sample(*args)
        with _numpy_hashers():
            ref = LOSSY.sample(*args)
        assert np.array_equal(got, ref)

    def test_loss_batch_hasher_mixed_kinds(self, compiled_kernel):
        rng = np.random.default_rng(9)
        size = 5000
        salts = np.array(
            [kind_salt(k) for k in (MessageKind.GOSSIP, MessageKind.FORWARD, MessageKind.PROBE)],
            dtype=np.uint64,
        )[rng.integers(0, 3, size=size)]
        args = (
            rng.integers(0, 40, size=size), salts,
            rng.integers(0, LOOP_N, size=size), rng.integers(0, LOOP_N, size=size),
        )
        got = LOSSY.sample_salted(*args)
        with _numpy_hashers():
            ref = LOSSY.sample_salted(*args)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("rates", [(0.2, 0.0), (0.05, 0.1)], ids=["crash-only", "crash+join"])
    def test_churn_hasher(self, compiled_kernel, rates):
        assert failures._CHURN_HASHER is compiled_mod._churn_mask
        oracle = ChurnOracle(*rates, key=0xC0FFEE)
        # both the alive and the dead set exceed the hasher's batch threshold
        start = np.random.default_rng(10).random(10_000) < 0.5
        got_alive, ref_alive = start.copy(), start.copy()
        got = oracle.step(7, got_alive)
        with _numpy_hashers():
            ref = oracle.step(7, ref_alive)
        assert np.array_equal(got_alive, ref_alive)
        for got_ids, ref_ids in zip(got, ref):
            assert np.array_equal(got_ids, ref_ids)
        assert got[0].size > 0


# --------------------------------------------------------------------------- #
# the LossOracle batch-hasher seam
# --------------------------------------------------------------------------- #
class TestBatchHasherSeam:
    def test_hook_is_used_for_large_batches_only(self):
        calls = []
        oracle = LossOracle(0.25, key=99)

        def fake_hasher(key, kind_value, round_index, senders, recipients, nonces):
            calls.append(len(recipients))
            # echo what the pure-NumPy chain would produce, so fates match
            with np.errstate(over="ignore"):
                return failures._splitmix64(
                    failures._splitmix64(
                        failures._splitmix64(
                            failures._splitmix64(
                                failures._splitmix64(np.uint64(key) ^ kind_value)
                                ^ failures._as_u64(round_index)
                            )
                            ^ failures._as_u64(senders)
                        )
                        ^ failures._as_u64(recipients)
                    )
                    ^ failures._as_u64(nonces if nonces is not None else 0)
                )

        failures.set_batch_hasher(fake_hasher)
        try:
            small = np.arange(100)
            oracle.sample(1, MessageKind.GOSSIP, 7, small)
            assert calls == []  # below the 4096 threshold: NumPy path
            big = np.arange(10_000)
            hooked = oracle.sample(1, MessageKind.GOSSIP, 7, big)
        finally:
            failures.set_batch_hasher(None)
        native = oracle.sample(1, MessageKind.GOSSIP, 7, big)
        assert calls == [10_000]
        assert np.array_equal(hooked, native)

    def test_kind_salt_is_stable_for_str_and_enum(self):
        assert kind_salt(MessageKind.FORWARD) == kind_salt(str(MessageKind.FORWARD))


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestCli:
    @pytest.mark.usefixtures("compiled_kernel")
    def test_run_accepts_compiled_backend(self, capsys):
        from repro.harness.cli import main

        code = main(["run", "--n", "256", "--backend", "compiled", "--seed", "3"])
        assert code == 0
        assert "aggregate" in capsys.readouterr().out
