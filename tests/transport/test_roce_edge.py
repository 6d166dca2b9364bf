"""RoCE engine edge cases beyond the core behaviour suite."""

import pytest

from repro import constants
from repro.errors import PsnSpaceExhausted, TransportError
from repro.net import Simulator, SwitchConfig, star
from repro.net.packet import Packet, PacketType
from repro.transport import RoceConfig, RoceQP, VerbsContext


def make_pair(loss=0.0, seed=0, config=None, n=2):
    sim = Simulator()
    topo = star(sim, n, switch_config=SwitchConfig(loss_rate=loss, seed=seed))
    ctxs = [VerbsContext(sim, topo.nic(i + 1), config) for i in range(n)]
    qa, qb = ctxs[0].create_qp(), ctxs[1].create_qp()
    qa.connect(2, qb.qpn)
    qb.connect(1, qa.qpn)
    return sim, qa, qb, ctxs


class TestInterleavedMessages:
    def test_many_queued_messages_under_loss(self):
        sim, qa, qb, _ = make_pair(loss=0.01, seed=6,
                                   config=RoceConfig(rto=300e-6))
        sizes = [3 * constants.MTU_BYTES, 100, 17 * constants.MTU_BYTES,
                 constants.MTU_BYTES, 5000]
        got = []
        qb.on_message = lambda mid, size, now, meta: got.append(size)
        for s in sizes:
            qa.post_send(s)
        sim.run(max_events=5_000_000)
        assert got == sizes  # in order, exactly once each

    def test_completions_fire_in_post_order_under_loss(self):
        sim, qa, qb, _ = make_pair(loss=0.02, seed=8,
                                   config=RoceConfig(rto=300e-6))
        order = []
        for tag in range(6):
            qa.post_send(2 * constants.MTU_BYTES,
                         on_complete=lambda mid, now, t=tag: order.append(t))
        sim.run(max_events=5_000_000)
        assert order == list(range(6))

    def test_meta_preserved_across_retransmission(self):
        sim, qa, qb, _ = make_pair(loss=0.05, seed=2,
                                   config=RoceConfig(rto=300e-6))
        metas = []
        qb.on_message = lambda mid, size, now, meta: metas.append(meta)
        for i in range(4):
            qa.post_send(3 * constants.MTU_BYTES, meta={"idx": i})
        sim.run(max_events=5_000_000)
        assert [m["idx"] for m in metas] == [0, 1, 2, 3]


class TestWriteEdges:
    def test_multi_packet_write_offsets(self, monkeypatch):
        """Every packet's RETH address advances by MTU from the base."""
        sim, qa, qb, ctxs = make_pair()
        mr = ctxs[1].reg_mr(1 << 20)
        seen = []
        orig = RoceQP.handle_packet

        def spy(qp, pkt):
            if qp is qb and pkt.ptype == PacketType.DATA:
                seen.append(pkt.vaddr)
            orig(qp, pkt)

        # RoceQP is slotted: patch the class, filter on the instance.
        monkeypatch.setattr(RoceQP, "handle_packet", spy)
        qa.post_write(3 * constants.MTU_BYTES, vaddr=mr.addr, rkey=mr.rkey)
        sim.run()
        assert seen == [mr.addr, mr.addr + constants.MTU_BYTES,
                        mr.addr + 2 * constants.MTU_BYTES]
        assert ctxs[1].mr_table.write_hits == 1  # validated on first only

    def test_write_then_send_same_qp(self):
        sim, qa, qb, ctxs = make_pair()
        mr = ctxs[1].reg_mr(1 << 20)
        got = []
        qb.on_message = lambda mid, size, now, meta: got.append(size)
        qa.post_write(8192, vaddr=mr.addr, rkey=mr.rkey)
        qa.post_send(4096)
        sim.run()
        assert got == [8192, 4096]


class TestCnpPacing:
    def test_min_interval_enforced(self):
        """Persistent marking yields at most one CNP per interval."""
        sim, qa, qb, _ = make_pair()
        # Deliver pre-marked packets directly to the receiver QP.
        for psn in range(100):
            pkt = Packet(PacketType.DATA, 1, 2, src_qp=qa.qpn,
                         dst_qp=qb.qpn, psn=psn, payload=64,
                         first=(psn == 0), last=(psn == 99))
            pkt.ecn = True
            sim.schedule(psn * 1e-6, qb.handle_packet, pkt)
        sim.run()
        window = 99e-6
        max_cnps = int(window / constants.CNP_MIN_INTERVAL_S) + 1
        assert 1 <= qb.cnps_sent <= max_cnps


class TestAckCoalesceBoundaries:
    @pytest.mark.parametrize("npkts", [1, 3, 4, 5, 8, 9])
    def test_ack_counts(self, npkts):
        cfg = RoceConfig(ack_coalesce=4)
        sim, qa, qb, _ = make_pair(config=cfg)
        qa.post_send(npkts * constants.MTU_BYTES)
        sim.run()
        expected = npkts // 4 + (1 if npkts % 4 else 0)
        assert qb.acks_sent == expected
        assert qa.send_idle


class TestPsnSpace:
    def test_last_fitting_message_accepted_then_refused(self):
        """PSNs do not wrap in this model (docs/PROTOCOL.md): the QP
        sends up to the last 24-bit PSN and refuses to go past it."""
        sim, qa, qb, _ = make_pair()
        base = constants.PSN_SPACE - 3
        qa.sq_psn = qa.snd_una = qa.snd_nxt = base
        qb.resync_rx(base)
        got = []
        qb.on_message = lambda mid, size, now, meta: got.append(size)
        with pytest.raises(PsnSpaceExhausted):
            qa.post_send(4 * constants.MTU_BYTES)   # one packet too many
        assert qa.sq_psn == base                     # refused whole
        qa.post_send(3 * constants.MTU_BYTES)        # ends on PSN 2^24 - 1
        sim.run()
        assert got == [3 * constants.MTU_BYTES] and qa.send_idle
        assert qa.sq_psn == constants.PSN_SPACE
        with pytest.raises(TransportError, match="do not wrap"):
            qa.post_send(1)
