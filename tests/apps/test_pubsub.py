"""Publish-subscribe fan-out application."""

import pytest

from repro.apps import Cluster
from repro.apps.pubsub import Broker
from repro.errors import ConfigurationError


@pytest.fixture
def broker8():
    cl = Cluster.testbed(8)
    return Broker(cl, host_ip=1)


class TestTopicManagement:
    def test_create_and_publish(self, broker8):
        broker8.create_topic("events", [2, 3, 4])
        r = broker8.publish("events", 64 << 10)
        assert r.latency > 0
        assert r.topic == "events"

    def test_duplicate_topic_rejected(self, broker8):
        broker8.create_topic("t", [2])
        with pytest.raises(ConfigurationError):
            broker8.create_topic("t", [3])

    def test_unknown_topic(self, broker8):
        with pytest.raises(ConfigurationError):
            broker8.publish("ghost", 64)

    def test_empty_subscribers_rejected(self, broker8):
        with pytest.raises(ConfigurationError):
            broker8.create_topic("t", [])

    def test_broker_cannot_self_subscribe(self, broker8):
        with pytest.raises(ConfigurationError):
            broker8.create_topic("t", [1, 2])

    def test_unknown_transport(self, broker8):
        with pytest.raises(ConfigurationError):
            broker8.create_topic("t", [2], transport="pigeon")

    def test_unknown_broker_host(self):
        cl = Cluster.testbed(2)
        with pytest.raises(ConfigurationError):
            Broker(cl, host_ip=99)


class TestSubscriptionIdempotence:
    """subscribe/unsubscribe are retry-safe: duplicates and removals of
    non-members are no-ops, never corrupted member state."""

    def test_duplicate_subscribe_is_a_noop(self, broker8):
        t = broker8.create_topic("t", [2, 3], transport="cepheus")
        t.subscribe(4)
        before = list(t.subscribers)
        group_before = sorted(t.engine.group.members)
        t.subscribe(4)          # retried request: no-op
        assert t.subscribers == before
        assert sorted(t.engine.group.members) == group_before
        assert t.engine.group.epoch == 1   # only the first JOIN counted

    def test_unsubscribe_of_non_member_is_a_noop(self, broker8):
        t = broker8.create_topic("t", [2, 3, 4], transport="cepheus")
        before = list(t.subscribers)
        t.unsubscribe(7)        # never subscribed
        assert t.subscribers == before
        t.unsubscribe(4)
        t.unsubscribe(4)        # retried LEAVE: no-op
        assert t.subscribers == [2, 3]

    def test_delivery_intact_after_duplicate_ops(self, broker8):
        t = broker8.create_topic("t", [2, 3], transport="cepheus")
        t.subscribe(4)
        t.subscribe(4)
        t.unsubscribe(9)
        r = broker8.publish("t", 64 << 10)
        assert r.latency > 0
        assert sorted(t.engine.group.members) == [1, 2, 3, 4]

    def test_unicast_duplicate_subscribe_is_a_noop(self, broker8):
        t = broker8.create_topic("t", [2, 3], transport="unicast")
        t.subscribe(4)
        t.subscribe(4)
        assert t.subscribers == [2, 3, 4]
        t.unsubscribe(8)
        assert t.subscribers == [2, 3, 4]

    def test_self_subscribe_still_rejected(self, broker8):
        t = broker8.create_topic("t", [2, 3])
        with pytest.raises(ConfigurationError):
            t.subscribe(1)


class TestFanoutEfficiency:
    def test_multicast_sends_each_byte_once(self, broker8):
        broker8.create_topic("mc", [2, 3, 4, 5, 6], transport="cepheus")
        r = broker8.publish("mc", 1 << 20)
        # headers inflate slightly above 1.0^-1; no per-subscriber copies
        assert r.fanout_efficiency() > 0.9

    def test_unicast_pays_per_subscriber(self, broker8):
        broker8.create_topic("uc", [2, 3, 4, 5, 6], transport="unicast")
        r = broker8.publish("uc", 1 << 20)
        assert r.broker_tx_bytes > 4.8 * (1 << 20)
        assert r.fanout_efficiency() < 0.25

    def test_latency_advantage_grows_with_fanout(self):
        lat = {}
        for transport in ("cepheus", "unicast"):
            cl = Cluster.testbed(8)
            b = Broker(cl, 1, transport=transport)
            b.create_topic("t", list(range(2, 9)))
            lat[transport] = b.publish("t", 4 << 20).latency
        assert lat["unicast"] > 4 * lat["cepheus"]


class TestSustainedRate:
    def test_multicast_rate_beats_unicast(self):
        rates = {}
        for transport in ("cepheus", "unicast"):
            cl = Cluster.testbed(8)
            b = Broker(cl, 1, transport=transport)
            b.create_topic("t", list(range(2, 9)))
            rates[transport] = b.sustained_publish_rate("t", 64 << 10,
                                                        n_messages=50)
        assert rates["cepheus"] > 2 * rates["unicast"]

    def test_publish_counter(self, broker8):
        t = broker8.create_topic("t", [2, 3])
        for _ in range(3):
            broker8.publish("t", 4096)
        assert t.published == 3

    def test_multiple_topics_isolated(self, broker8):
        broker8.create_topic("a", [2, 3], transport="cepheus")
        broker8.create_topic("b", [4, 5], transport="cepheus")
        ra = broker8.publish("a", 1 << 16)
        rb = broker8.publish("b", 1 << 16)
        assert ra.latency == pytest.approx(rb.latency, rel=0.1)
        assert len(broker8.cluster.fabric.groups) == 2
