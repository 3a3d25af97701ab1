"""Unit tests for the network and the synchronous round engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator import (
    ConfigurationError,
    EngineConfig,
    FailureModel,
    Message,
    MetricsCollector,
    Network,
    ProtocolNode,
    ProtocolViolation,
    RoundLimitExceeded,
    Send,
    SynchronousEngine,
    UnknownNodeError,
    default_round_limit,
)


class OneShotSender(ProtocolNode):
    """Sends a single DATA message to node (id+1) mod n in round 0."""

    def __init__(self, node_id: int, n: int) -> None:
        super().__init__(node_id)
        self.n = n
        self.sent = False
        self.received: list[Message] = []

    def begin_round(self, ctx):
        if self.sent:
            return []
        self.sent = True
        return [Send(recipient=(self.node_id + 1) % self.n, kind="data", payload={"v": self.node_id})]

    def on_messages(self, ctx, messages):
        self.received.extend(messages)
        return []

    def is_complete(self):
        return self.sent


class ChattyNode(ProtocolNode):
    """Violates the one-call-per-round budget."""

    def begin_round(self, ctx):
        return [Send(recipient=0, kind="data"), Send(recipient=1, kind="data")]

    def is_complete(self):
        return False


class NeverDone(ProtocolNode):
    def is_complete(self):
        return False


def build_engine(n, node_cls=OneShotSender, **config_kwargs):
    rng = np.random.default_rng(0)
    network = Network(n, rng=rng)
    nodes = [node_cls(i, n) if node_cls is OneShotSender else node_cls(i) for i in range(n)]
    engine = SynchronousEngine(
        network=network,
        nodes=nodes,
        rng=rng,
        config=EngineConfig(**config_kwargs) if config_kwargs else None,
    )
    return engine, nodes


class TestNetwork:
    def test_requires_positive_n(self):
        with pytest.raises(ConfigurationError):
            Network(0)

    def test_unknown_node_rejected(self):
        net = Network(4, rng=np.random.default_rng(0))
        with pytest.raises(UnknownNodeError):
            net.deliver([Message(0, 9, "data")], MetricsCollector())

    def test_alive_mask_marks_nodes_dead(self):
        net = Network(4, rng=np.random.default_rng(0), alive=np.array([True, False, False, True]))
        assert not net.alive[1]
        assert net.alive_count == 2

    def test_deliver_counts_all_and_drops_to_dead(self):
        net = Network(3, rng=np.random.default_rng(0), alive=np.array([True, True, False]))
        metrics = MetricsCollector()
        msgs = [Message(0, 1, "data"), Message(0, 2, "data")]
        delivered = net.deliver(msgs, metrics)
        assert metrics.total_messages == 2
        assert len(delivered) == 1
        assert delivered[0].recipient == 1

    def test_initial_crashes_from_failure_model(self):
        net = Network(100, failure_model=FailureModel(crash_fraction=0.1), rng=np.random.default_rng(1))
        assert net.alive_count == 90


class TestEngineBasics:
    def test_messages_delivered_and_metrics_counted(self):
        engine, nodes = build_engine(4)
        result = engine.run()
        assert result.completed
        assert result.metrics.total_messages == 4
        assert all(len(node.received) == 1 for node in nodes)

    def test_node_id_order_enforced(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [OneShotSender(1, 2), OneShotSender(0, 2)]
        with pytest.raises(ConfigurationError):
            SynchronousEngine(network, nodes, rng)

    def test_node_count_must_match(self):
        rng = np.random.default_rng(0)
        network = Network(3, rng=rng)
        with pytest.raises(ConfigurationError):
            SynchronousEngine(network, [OneShotSender(0, 3)], rng)

    def test_call_budget_enforced(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [ChattyNode(0), ChattyNode(1)]
        engine = SynchronousEngine(network, nodes, rng)
        with pytest.raises(ProtocolViolation):
            engine.run()

    def test_round_limit_strict_raises(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [NeverDone(0), NeverDone(1)]
        engine = SynchronousEngine(network, nodes, rng, config=EngineConfig(max_rounds=3))
        with pytest.raises(RoundLimitExceeded):
            engine.run()

    def test_round_limit_lenient_returns_partial(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [NeverDone(0), NeverDone(1)]
        engine = SynchronousEngine(
            network, nodes, rng, config=EngineConfig(max_rounds=3, strict=False)
        )
        result = engine.run()
        assert not result.completed
        assert result.rounds == 3

    def test_stop_condition_halts_early(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [NeverDone(0), NeverDone(1)]
        engine = SynchronousEngine(
            network,
            nodes,
            rng,
            config=EngineConfig(max_rounds=50, stop_condition=lambda nodes, r: r >= 5),
        )
        result = engine.run()
        assert result.stopped_by_condition
        assert result.rounds == 5

    def test_default_round_limit_scales_with_log2(self):
        assert default_round_limit(2) >= 64
        assert default_round_limit(2**16) > default_round_limit(2**8)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(max_rounds=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(max_substeps=0)


class EchoNode(ProtocolNode):
    """Replies to any DATA message with an ACK in the same round."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.acks = 0
        self.done_sending = node_id != 0

    def begin_round(self, ctx):
        if self.done_sending:
            return []
        self.done_sending = True
        return [Send(recipient=1, kind="data")]

    def on_messages(self, ctx, messages):
        out = []
        for msg in messages:
            if msg.kind == "data":
                out.append(Send(recipient=msg.sender, kind="ack"))
            else:
                self.acks += 1
        return out

    def is_complete(self):
        return self.done_sending


class TestSubsteps:
    def test_reply_delivered_same_round_with_three_substeps(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [EchoNode(0), EchoNode(1)]
        engine = SynchronousEngine(network, nodes, rng, config=EngineConfig(max_substeps=3))
        result = engine.run()
        assert nodes[0].acks == 1
        assert result.metrics.total_messages == 2

    def test_reply_spills_to_next_round_with_two_substeps(self):
        rng = np.random.default_rng(0)
        network = Network(2, rng=rng)
        nodes = [EchoNode(0), EchoNode(1)]
        engine = SynchronousEngine(network, nodes, rng, config=EngineConfig(max_substeps=2))
        result = engine.run()
        # The ACK is carried over and delivered at the start of round 2.
        assert nodes[0].acks == 1
        assert result.rounds >= 2
