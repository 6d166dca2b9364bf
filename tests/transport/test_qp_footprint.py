"""What a group member costs: per-QP and per-port state built on first use.

In Cepheus every member is one RC QP, so membership scale is QP scale.
These tests hold the idle footprint down and check that the lazily
built containers (send queue, IRN retransmit queue, port FIFO) stay
unbuilt where nothing needs them, and work where something does.
"""

import tracemalloc

from repro import constants
from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.net import Simulator, SwitchConfig, fat_tree, star
from repro.transport import (DcqcnRateController, GleamRateController,
                             RoceConfig, RoceQP, VerbsContext)
from repro.transport.qp import RecvState, SendMessage


def _pair(config, loss=0.0, seed=0):
    sim = Simulator()
    topo = star(sim, 2, switch_config=SwitchConfig(loss_rate=loss, seed=seed))
    qa = VerbsContext(sim, topo.nic(1), config).create_qp()
    qb = VerbsContext(sim, topo.nic(2), config).create_qp()
    qa.connect(2, qb.qpn)
    qb.connect(1, qa.qpn)
    return sim, qa, qb


class TestIdleQp:
    def test_bytes_per_idle_qp(self):
        sim = Simulator()
        ctx = VerbsContext(sim, fat_tree(sim, 4).nic(1))
        ctx.create_qp()  # warm-up: first-call allocations are not per QP
        n = 256
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            qps = [ctx.create_qp() for _ in range(n)]
            per_qp = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(qps) == n
        assert per_qp <= 1024, f"{per_qp:.0f} B per idle QP"

    def test_no_instance_dict(self):
        sim, qa, _ = _pair(RoceConfig())
        gleam = _pair(RoceConfig(cc="gleam"))[1]
        qa.post_send(100)
        objs = [qa, qa.cc, qa.recv, qa._send_msgs[0], gleam.cc]
        assert [type(o) for o in objs] == [
            RoceQP, DcqcnRateController, RecvState, SendMessage,
            GleamRateController]
        for obj in objs:
            assert not hasattr(obj, "__dict__"), type(obj).__name__


class TestBuiltOnFirstUse:
    def test_receivers_and_quiet_ports_build_nothing(self):
        cl = Cluster.fat_tree_cluster(8)
        members = cl.host_ips[:64]
        algo = CepheusBcast(cl, members)
        algo.run(64 * constants.MTU_BYTES)
        receivers = [algo.qps[ip] for ip in algo.ranks[1:]]
        assert len(receivers) == 63
        for qp in receivers:
            assert qp.recv.bytes_delivered == 64 * constants.MTU_BYTES
            assert qp._send_msgs is None and qp._retx_queue is None
        ports = [p for sw in cl.topo.switches for p in sw.ports]
        ports += [p for nic in cl.topo.nics.values() for p in nic.ports]
        quiet = [p for p in ports if p.stats.tx_packets == 0]
        assert quiet
        for port in quiet:
            assert port._queue is None and port.queued_packets == 0

    def test_irn_lossy_transfer(self):
        sim, qa, qb = _pair(RoceConfig(retransmit_mode="irn", rto=300e-6),
                            loss=0.02, seed=7)
        size = 300 * constants.MTU_BYTES
        qa.post_send(size)
        sim.run(max_events=10_000_000)
        assert qb.recv.bytes_delivered == size
        assert qa.retransmitted_packets > 0
        assert qa.send_idle

    def test_abort_sends_on_never_posted_qp(self):
        for mode in ("gbn", "irn"):
            sim, qa, _ = _pair(RoceConfig(retransmit_mode=mode))
            assert qa.send_idle
            qa.abort_sends()
            assert qa.send_idle and qa.outstanding == 0
            qa.post_send(3 * constants.MTU_BYTES)
            sim.run()
            assert qa.send_idle
