#!/usr/bin/env python3
"""Telemetry deep-dive: watching the fabric during a congested multicast.

Runs a Cepheus multicast while a background unicast flow congests one
receiver's downlink, and observes the fabric the one way the simulator
offers — functions subscribed to the simulation bus (``sim.bus``), plus
a sampling loop on the simulator's own clock:

* per-packet one-way delay distribution at the congested vs a clean
  receiver (the ``deliver`` channel into a ``LatencyStats``);
* the bottleneck queue's depth over time (sampled every 20 us through
  ``sim.schedule``) — DCQCN holds it near the ECN marking band;
* the switch's egress fan-out of one multicast packet (the ``emit``
  channel), i.e. the replication tree made visible.

Run:  python examples/inside_the_fabric.py
"""

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.net import LatencyStats, PacketType


def main() -> None:
    cluster = Cluster.testbed(8)
    sim, bus = cluster.sim, cluster.sim.bus
    algo = CepheusBcast(cluster, [1, 2, 3, 4])
    algo.prepare()

    # One-way delay of in-order DATA deliveries at a congested receiver
    # (2) and a clean one (3); every packet carries its creation time.
    hot, cold = algo.qps[2], algo.qps[3]
    delay = {qp: LatencyStats(seed=qp.qpn) for qp in (hot, cold)}

    def on_deliver(qp, pkt) -> None:
        stats = delay.get(qp)
        if stats is not None and pkt.ptype == PacketType.DATA:
            stats.record(sim.now - pkt.created_at)

    bus.subscribe("deliver", on_deliver)

    # Depth of the switch's egress queue toward host 2, every 20 us for
    # at most 6 ms (so a drained simulation still terminates).
    sw = cluster.topo.switches[0]
    port = sw.ports[1]
    depth = []
    deadline = sim.now + 6e-3
    tick = None

    def sample() -> None:
        nonlocal tick
        depth.append(port.queued_bytes)
        if sim.now + 20e-6 <= deadline:
            tick = sim.schedule(20e-6, sample)

    sample()

    # Background congestion: host 8 blasts host 2.
    cluster.qp_to(8, 2).post_send(48 << 20)
    result = algo.run(32 << 20)
    tick.cancel()

    print(f"multicast of 32MB to 3 receivers, one congested: "
          f"JCT {result.jct * 1e3:.2f} ms "
          f"({result.goodput_gbps():.1f} Gbps — paced by the hot receiver)\n")

    for label, qp in (("congested receiver", hot),
                      ("clean receiver   ", cold)):
        s = delay[qp].summary()
        print(f"{label}: {s['count']} packets, one-way delay "
              f"mean {s['mean'] * 1e6:6.1f}us  p50 {s['p50'] * 1e6:6.1f}us  "
              f"p99 {s['p99'] * 1e6:6.1f}us  max {s['max'] * 1e6:6.1f}us")

    peak = max(depth)
    mean = sum(depth) / len(depth)
    print(f"\nbottleneck queue (switch egress to host 2): "
          f"mean {mean / 1e3:.0f} KB, peak {peak / 1e3:.0f} KB "
          f"(ECN marking band starts at 100 KB)")
    marks = port.stats.ecn_marks
    cnps = algo.qps[algo.root].cc.cnp_count
    print(f"ECN marks at that port: {marks}; CNPs that survived the "
          f"in-network filter to the sender: {cnps}")

    # Show one packet's replication: the egress ports the switch
    # queued its DATA copies on.
    fanout = []

    def on_emit(switch, pkt, out_port, in_port) -> None:
        if switch is sw and pkt.ptype == PacketType.DATA:
            fanout.append(out_port)

    bus.subscribe("emit", on_emit)
    algo.post(100)
    cluster.run()
    print(f"\nforwarding log for one 100B multicast packet: "
          f"{len(fanout)} replicas out of ports "
          f"{sorted(fanout)} (one packet in, one tree out)")


if __name__ == "__main__":
    main()
