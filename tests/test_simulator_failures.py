"""Unit tests for repro.simulator.failures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.errors import ConfigurationError
from repro.simulator.failures import (
    ChurnOracle,
    FailureModel,
    LossOracle,
    kind_salt,
    paper_delta_range,
)
from repro.substrate import available_backends


class TestValidation:
    @pytest.mark.parametrize("delta", [-0.1, 1.0, 1.5])
    def test_invalid_loss_probability(self, delta):
        with pytest.raises(ConfigurationError):
            FailureModel(loss_probability=delta)

    @pytest.mark.parametrize("crash", [-0.01, 1.0])
    def test_invalid_crash_fraction(self, crash):
        with pytest.raises(ConfigurationError):
            FailureModel(crash_fraction=crash)

    def test_reliable_flag(self):
        assert FailureModel().reliable
        assert not FailureModel(loss_probability=0.1).reliable
        assert not FailureModel(crash_fraction=0.1).reliable


class TestSampling:
    def test_no_loss_when_delta_zero(self, rng):
        fm = FailureModel()
        assert not fm.sample_losses(1000, rng).any()

    def test_loss_rate_close_to_delta(self, rng):
        fm = FailureModel(loss_probability=0.25)
        losses = fm.sample_losses(20000, rng)
        assert abs(losses.mean() - 0.25) < 0.02

    def test_crash_count_matches_fraction(self, rng):
        fm = FailureModel(crash_fraction=0.2)
        crashed = fm.sample_crashes(1000, rng)
        assert crashed.sum() == 200

    def test_at_least_one_survivor(self, rng):
        fm = FailureModel(crash_fraction=0.99)
        crashed = fm.sample_crashes(3, rng)
        assert crashed.sum() <= 2

    def test_sample_losses_negative_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            FailureModel().sample_losses(-1, rng)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_sample_losses_zero_count_consumes_no_draws(self, delta):
        """The empty-frontier edge case: both backends must consume exactly
        zero RNG draws when a round has nothing to transmit."""
        fm = FailureModel(loss_probability=delta)
        rng = np.random.default_rng(42)
        state = rng.bit_generator.state
        losses = fm.sample_losses(0, rng)
        assert losses.shape == (0,)
        assert losses.dtype == bool
        assert rng.bit_generator.state == state

    def test_sample_crashes_requires_positive_n(self, rng):
        with pytest.raises(ConfigurationError):
            FailureModel().sample_crashes(0, rng)


class TestLossOracle:
    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            LossOracle(1.0)

    @pytest.mark.parametrize(
        "case",
        [
            "array-ids",
            "nonce-array",
            "int32-ids",
            "negative-ids",
            "scalar-sender",
            "round-array",
            "salted-kinds",
            "large-batch",
        ],
    )
    def test_scalar_and_batch_paths_agree(self, case):
        """Every argument shape of the batch path gives ``lost``'s fates."""
        oracle = LossOracle(0.35, key=777)
        draw = np.random.default_rng(21)
        size = 5000 if case == "large-batch" else 50
        senders = np.arange(size)
        ident = dict(
            round_index=4, kinds="gossip", senders=senders,
            recipients=(senders * 7 + 3) % size, nonces=None,
        )
        if case in ("nonce-array", "large-batch"):
            ident["nonces"] = draw.integers(0, 3, size=size)
        elif case == "int32-ids":
            ident["senders"] = senders.astype(np.int32)
            ident["recipients"] = ident["recipients"].astype(np.int32)
            ident["nonces"] = draw.integers(0, 3, size=size).astype(np.int32)
        elif case == "negative-ids":
            ident["round_index"] = -2
            ident["senders"] = senders - size
            ident["recipients"] = -ident["recipients"].astype(np.int32) - 1
            ident["nonces"] = -draw.integers(1, 3, size=size)
        elif case == "scalar-sender":
            ident["senders"] = 17
        elif case == "round-array":
            ident["round_index"] = draw.integers(0, 6, size=size)
            ident["senders"] = 1
        elif case == "salted-kinds":
            ident["round_index"] = draw.integers(0, 6, size=size)
            ident["kinds"] = np.array(["probe", "rank", "gossip"])[draw.integers(0, 3, size=size)]
        per_message = {
            key: np.broadcast_to(value if value is not None else 0, (size,))
            for key, value in ident.items()
        }
        if case == "salted-kinds":
            salts = np.array([kind_salt(k) for k in ident["kinds"]], dtype=np.uint64)
            batch = oracle.sample_salted(
                ident["round_index"], salts, ident["senders"], ident["recipients"],
                ident["nonces"],
            )
        else:
            batch = oracle.sample(
                ident["round_index"], ident["kinds"], ident["senders"],
                ident["recipients"], ident["nonces"],
            )
        scalar = [
            oracle.lost(int(r), str(k), int(s), int(t), int(c))
            for r, k, s, t, c in zip(*(per_message[key] for key in ident))
        ]
        assert np.array_equal(batch, scalar)
        assert batch.any() and not batch.all()

    def test_loss_rate_close_to_delta(self):
        oracle = LossOracle(0.25, key=31337)
        senders = np.repeat(np.arange(200), 100)
        recipients = np.tile(np.arange(100), 200)
        lost = oracle.sample(0, "data", senders, recipients)
        assert abs(float(lost.mean()) - 0.25) < 0.02

    def test_keys_decorrelate_runs(self):
        recipients = np.arange(64)
        a = LossOracle(0.5, key=1).sample(0, "data", 0, recipients)
        b = LossOracle(0.5, key=2).sample(0, "data", 0, recipients)
        assert not np.array_equal(a, b)

    def test_for_run_key_depends_on_generator_state(self):
        fm = FailureModel(loss_probability=0.1)
        rng = np.random.default_rng(3)
        first = LossOracle.for_run(fm, rng)
        rng.random()  # advance the stream -> different preamble state
        second = LossOracle.for_run(fm, rng)
        assert first.key != second.key

    def test_kind_salt_stable_for_enum_and_string(self):
        from repro.simulator.message import MessageKind

        assert kind_salt(MessageKind.GOSSIP) == kind_salt("gossip")
        assert kind_salt("gossip") != kind_salt("push")


class TestChurnOracle:
    """Churn fates are identity-keyed: a pure function of (key, round, node)."""

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnOracle(1.0)
        with pytest.raises(ConfigurationError):
            ChurnOracle(0.1, join_rate=-0.1)

    def test_for_run_none_when_churn_off_and_consumes_no_draws(self):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        assert ChurnOracle.for_run(FailureModel(loss_probability=0.3), rng) is None
        oracle = ChurnOracle.for_run(FailureModel(churn_rate=0.1), rng)
        assert oracle is not None
        # key derivation hashes the generator state, drawing nothing
        assert rng.bit_generator.state == state

    def test_churn_key_disjoint_from_loss_key(self):
        """Same generator state, different domain tags -> decorrelated fates."""
        fm = FailureModel(loss_probability=0.5, churn_rate=0.5)
        rng = np.random.default_rng(11)
        loss = LossOracle.for_run(fm, rng)
        churn = ChurnOracle.for_run(fm, rng)
        assert churn.key != loss.key
        # and the per-node fates genuinely decorrelate: dying in round r is
        # independent of losing a self-addressed message in round r
        ids = np.arange(4096)
        alive = np.ones(ids.size, dtype=bool)
        died, _ = churn.step(0, alive)
        lost = loss.sample(0, "push", ids, ids)
        died_mask = np.zeros(ids.size, dtype=bool)
        died_mask[died] = True
        assert not np.array_equal(died_mask, lost)

    def test_fates_independent_of_batch_order_and_sharding(self):
        """The mask a round produces is the same however ids are chunked."""
        oracle = ChurnOracle(0.3, join_rate=0.0, key=99)
        ids = np.arange(10_000, dtype=np.int64)
        whole = oracle._fates(5, ids, oracle._crash_salt, oracle._crash_threshold)
        # chunked: any contiguous split concatenates to the same fates
        for chunks in (2, 3, 7):
            parts = [
                oracle._fates(5, chunk, oracle._crash_salt, oracle._crash_threshold)
                for chunk in np.array_split(ids, chunks)
            ]
            assert np.array_equal(np.concatenate(parts), whole)
        # batch order: a permuted batch gets the permuted fates
        perm = np.random.default_rng(3).permutation(ids.size)
        shuffled = oracle._fates(
            5, ids[perm], oracle._crash_salt, oracle._crash_threshold
        )
        assert np.array_equal(shuffled, whole[perm])

    def test_step_fates_stable_across_repeated_replay(self):
        """Replaying the same rounds from the same key reproduces every fate."""
        fm = FailureModel(churn_rate=0.05, join_rate=0.02)
        rng = np.random.default_rng(23)
        oracle = ChurnOracle.for_run(fm, rng)
        replay = ChurnOracle(
            fm.churn_rate, fm.join_rate, fm.churn_schedule, key=oracle.key
        )
        alive_a = np.ones(512, dtype=bool)
        alive_b = np.ones(512, dtype=bool)
        for round_index in range(20):
            died_a, joined_a = oracle.step(round_index, alive_a)
            died_b, joined_b = replay.step(round_index, alive_b)
            assert np.array_equal(died_a, died_b)
            assert np.array_equal(joined_a, joined_b)
        assert np.array_equal(alive_a, alive_b)

    def test_schedule_overrides_rate_fates_and_normalises(self):
        # schedules listed in different orders are the same model
        a = FailureModel(churn_schedule=((8, (4, 2, 4), "join"), (3, 5, "crash")))
        b = FailureModel(churn_schedule=((3, (5,), "crash"), (8, (2, 4), "join")))
        assert a.churn_schedule == b.churn_schedule == (
            (3, (5,), "crash"),
            (8, (2, 4), "join"),
        )
        oracle = ChurnOracle(0.0, schedule=a.churn_schedule, key=1)
        alive = np.ones(10, dtype=bool)
        alive[2] = alive[4] = False
        died, joined = oracle.step(3, alive)
        assert died.tolist() == [5]
        assert joined.tolist() == []
        died, joined = oracle.step(8, alive)
        assert joined.tolist() == [2, 4]
        assert alive[2] and alive[4] and not alive[5]

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError, match="crash.*join|'crash' or 'join'"):
            FailureModel(churn_schedule=((1, (0,), "explode"),))
        with pytest.raises(ConfigurationError, match="non-negative"):
            FailureModel(churn_schedule=((-1, (0,), "crash"),))
        with pytest.raises(ConfigurationError, match="round, node_ids, event"):
            FailureModel(churn_schedule=((1, 2),))
        with pytest.raises(ConfigurationError, match="must be an integer"):
            FailureModel(churn_schedule=("bad",))

    def test_last_survivor_guard(self):
        oracle = ChurnOracle(0.0, schedule=((0, (0, 1, 2), "crash"),), key=4)
        alive = np.ones(3, dtype=bool)
        died, joined = oracle.step(0, alive)
        # the lowest-id victim is spared so the network never empties
        assert died.tolist() == [1, 2]
        assert alive.tolist() == [True, False, False]

    def test_has_joins(self):
        assert not ChurnOracle(0.1).has_joins
        assert ChurnOracle(0.1, join_rate=0.1).has_joins
        assert ChurnOracle(0.0, schedule=((2, (1,), "join"),)).has_joins
        assert not FailureModel(churn_rate=0.2).has_joins
        assert FailureModel(join_rate=0.2).has_joins

    def test_spec_round_trip_and_unknown_keys(self):
        fm = FailureModel(
            loss_probability=0.1,
            churn_rate=0.02,
            join_rate=0.01,
            churn_schedule=((4, (1, 3), "crash"),),
        )
        assert FailureModel.from_spec(fm.to_spec()) == fm
        # churn-free specs serialise exactly as they always did
        assert FailureModel(loss_probability=0.1).to_spec() == {
            "loss_probability": 0.1,
            "crash_fraction": 0.0,
        }
        with pytest.raises(ConfigurationError, match="unknown keys"):
            FailureModel.from_spec({"churn": 0.1})


class TestChurnBackendIndependence:
    """Run-level property: fates, outcomes and degradation survive a backend change."""

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_push_sum_identical_across_backends(self, backend):
        from repro.api import RunSpec, run

        doc = dict(
            protocol="push-sum",
            params={"n": 256, "workload": "uniform"},
            seed=77,
            failures={
                "loss_probability": 0.05,
                "churn_rate": 0.01,
                "join_rate": 0.004,
            },
        )
        baseline = run(RunSpec(**doc, backend="vectorized"))
        other = run(RunSpec(**doc, backend=backend))
        assert other.same_outcome(baseline), f"{backend} diverged from vectorized"


class TestDerivedQuantities:
    def test_two_hop_loss_probability(self):
        fm = FailureModel(loss_probability=0.1)
        assert fm.two_hop_loss_probability() == pytest.approx(1 - 0.9**2)

    def test_two_hop_loss_is_zero_for_reliable(self):
        assert FailureModel().two_hop_loss_probability() == 0.0

    def test_paper_delta_range(self):
        low, high = paper_delta_range(1024)
        assert low == pytest.approx(1.0 / 10.0)
        assert high == pytest.approx(1.0 / 8.0)
        assert low < high

    def test_paper_delta_range_small_n_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_delta_range(2)

    def test_describe_mentions_delta(self):
        assert "0.05" in FailureModel(loss_probability=0.05).describe()
        assert "reliable" in FailureModel().describe()
