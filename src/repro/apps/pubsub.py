"""Publish-subscribe fan-out (§I motivation: Kafka-style systems).

The paper lists publish-subscribe among the one-to-many patterns that
"would substantially benefit from an efficient multicast primitive".
This module models the broker's fan-out path — the dominant cost of a
high-fan-out topic:

* a **broker** hosts topics; each topic has a set of subscriber hosts;
* ``publish(topic, size)`` delivers one message to every subscriber,
  either over per-subscriber unicast connections (the Kafka reality) or
  over one Cepheus multicast group per topic;
* the metrics mirror broker capacity planning: publish-to-last-delivery
  latency, broker egress bytes, and sustained publish throughput.

Topics are long-lived, so the one-time MFT registration amortizes to
zero — the same argument the paper makes for storage replication.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.cluster import Cluster
from repro.collectives import CepheusBcast, MultiUnicastBcast
from repro.errors import ConfigurationError

__all__ = ["PublishResult", "Topic", "Broker"]

_topic_ids = itertools.count(1)


@dataclass
class PublishResult:
    """Outcome of one publish call."""

    topic: str
    size: int
    latency: float            # publish -> last subscriber delivery
    broker_tx_bytes: int      # bytes the broker's NIC had to push

    def fanout_efficiency(self) -> float:
        """1.0 = the broker sent each byte once (perfect multicast)."""
        return self.size / self.broker_tx_bytes if self.broker_tx_bytes else 0.0


class Topic:
    """One topic: a subscriber set and a delivery engine."""

    def __init__(self, broker: "Broker", name: str,
                 subscribers: List[int], transport: str) -> None:
        if not subscribers:
            raise ConfigurationError(f"topic {name!r} has no subscribers")
        if broker.host_ip in subscribers:
            raise ConfigurationError("the broker cannot subscribe to itself")
        if transport not in ("cepheus", "unicast"):
            raise ConfigurationError(f"unknown transport {transport!r}")
        self.broker = broker
        self.name = name
        self.subscribers = list(subscribers)
        self.transport = transport
        members = [broker.host_ip] + self.subscribers
        engine_cls = CepheusBcast if transport == "cepheus" else \
            MultiUnicastBcast
        #: The delivery engine (read-only): a Cepheus topic's is its
        #: multicast endpoint — post / on_delivery / start_join.
        self.engine = engine_cls(broker.cluster, members, broker.host_ip)
        self.engine.prepare()
        self.published = 0

    def subscribe(self, ip: int) -> None:
        """Add a subscriber to a live topic.

        Cepheus topics patch the MDT with an incremental JOIN delta (the
        long-lived-topic argument from the paper: churn costs one branch
        install, not a re-registration).  Unicast topics rebuild their
        per-subscriber connection fan-out.
        """
        if ip == self.broker.host_ip:
            raise ConfigurationError("the broker cannot subscribe to itself")
        if ip in self.subscribers:
            # Idempotent: a duplicate subscribe is a no-op.  Brokers see
            # retried subscription requests all the time (at-least-once
            # control planes); re-running the JOIN delta would corrupt
            # the group's member state.
            return
        if self.transport == "cepheus":
            self.engine.join(ip)
        else:
            self._rebuild_unicast(self.subscribers + [ip])
        self.subscribers.append(ip)

    def unsubscribe(self, ip: int) -> None:
        """Drop a subscriber from a live topic (LEAVE delta for Cepheus)."""
        if ip not in self.subscribers:
            # Idempotent: unsubscribing a non-member is a no-op (the
            # mirror of the duplicate-subscribe rule above — retried
            # LEAVEs must not raise or touch live member state).
            return
        if self.transport == "cepheus":
            self.engine.leave(ip)
        else:
            self._rebuild_unicast([s for s in self.subscribers if s != ip])
        self.subscribers.remove(ip)

    def _rebuild_unicast(self, subscribers: List[int]) -> None:
        engine = MultiUnicastBcast(
            self.broker.cluster, [self.broker.host_ip] + subscribers,
            self.broker.host_ip)
        engine.prepare()
        self.engine = engine

    def publish(self, size: int) -> PublishResult:
        """One message to every subscriber; returns delivery metrics."""
        tx0 = self._broker_tx_bytes()
        result = self.engine.run(size)
        self.published += 1
        return PublishResult(
            topic=self.name, size=size, latency=result.jct,
            broker_tx_bytes=self._broker_tx_bytes() - tx0,
        )

    def _broker_tx_bytes(self) -> int:
        nic = self.broker.cluster.topo.nic(self.broker.host_ip)
        return nic.ports[0].stats.tx_bytes


class Broker:
    """A message broker host with named topics."""

    def __init__(self, cluster: Cluster, host_ip: int,
                 transport: str = "cepheus") -> None:
        if host_ip not in cluster.host_ips:
            raise ConfigurationError(f"no such host {host_ip}")
        self.cluster = cluster
        self.host_ip = host_ip
        self.default_transport = transport
        self.topics: Dict[str, Topic] = {}

    def create_topic(self, name: str, subscribers: List[int],
                     transport: Optional[str] = None) -> Topic:
        if name in self.topics:
            raise ConfigurationError(f"topic {name!r} already exists")
        topic = Topic(self, name, subscribers,
                      transport or self.default_transport)
        self.topics[name] = topic
        return topic

    def publish(self, name: str, size: int) -> PublishResult:
        try:
            topic = self.topics[name]
        except KeyError:
            raise ConfigurationError(f"unknown topic {name!r}")
        return topic.publish(size)

    def sustained_publish_rate(self, name: str, size: int,
                               n_messages: int = 200) -> float:
        """Messages/second the broker sustains on one topic (publishes
        back-to-back; each waits for full fan-out, the at-least-once
        acknowledgement discipline)."""
        t0 = self.cluster.sim.now
        for _ in range(n_messages):
            self.publish(name, size)
        elapsed = self.cluster.sim.now - t0
        return n_messages / elapsed if elapsed > 0 else float("inf")
