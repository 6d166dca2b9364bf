#!/usr/bin/env python3
"""Telemetry deep-dive: watching the fabric during a congested multicast.

Runs a Cepheus multicast while a background unicast flow congests one
receiver's downlink, and uses the telemetry toolkit to show what the
fabric is doing:

* per-packet one-way delay distribution at the congested vs a clean
  receiver (DeliveryTap);
* the bottleneck queue's depth over time (QueueDepthProbe) — DCQCN
  holds it near the ECN marking band;
* the switch's forwarding log around one multicast packet (PacketLog),
  i.e. the replication fan-out made visible.

Run:  python examples/inside_the_fabric.py
"""

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.net.telemetry import DeliveryTap, PacketLog, QueueDepthProbe


def main() -> None:
    cluster = Cluster.testbed(8)
    algo = CepheusBcast(cluster, [1, 2, 3, 4])
    algo.prepare()

    # Taps on a congested receiver (2) and a clean one (3).
    tap_hot = DeliveryTap(algo.qps[2])
    tap_cold = DeliveryTap(algo.qps[3])
    sw = cluster.topo.switches[0]
    probe = QueueDepthProbe(cluster.sim, sw.ports[1],  # egress toward host 2
                            interval=20e-6, duration=6e-3)

    # Background congestion: host 8 blasts host 2.
    cluster.qp_to(8, 2).post_send(48 << 20)
    result = algo.run(32 << 20)
    probe.stop()

    print(f"multicast of 32MB to 3 receivers, one congested: "
          f"JCT {result.jct * 1e3:.2f} ms "
          f"({result.goodput_gbps():.1f} Gbps — paced by the hot receiver)\n")

    for label, tap in (("congested receiver", tap_hot),
                       ("clean receiver   ", tap_cold)):
        s = tap.stats.summary()
        print(f"{label}: {s['count']} packets, one-way delay "
              f"mean {s['mean'] * 1e6:6.1f}us  p50 {s['p50'] * 1e6:6.1f}us  "
              f"p99 {s['p99'] * 1e6:6.1f}us  max {s['max'] * 1e6:6.1f}us")

    peak = probe.peak_bytes
    mean = probe.mean_bytes()
    print(f"\nbottleneck queue (switch egress to host 2): "
          f"mean {mean / 1e3:.0f} KB, peak {peak / 1e3:.0f} KB "
          f"(ECN marking band starts at 100 KB)")
    marks = sw.ports[1].stats.ecn_marks
    cnps = algo.qps[algo.root].cc.cnp_count
    print(f"ECN marks at that port: {marks}; CNPs that survived the "
          f"in-network filter to the sender: {cnps}")

    # Show one packet's replication using the forwarding log.
    log = PacketLog(sw)
    algo.post(100)
    cluster.run()
    fanout = log.of_type("DATA")
    print(f"\nforwarding log for one 100B multicast packet: "
          f"{len(fanout)} replicas out of ports "
          f"{sorted(e[4] for e in fanout)} (one packet in, one tree out)")


if __name__ == "__main__":
    main()
