"""RoCE RC engine: packetization, reliability, feedback, go-back-N."""

import pytest

from repro import constants
from repro.errors import QPStateError, TransportError
from repro.net import Simulator, SwitchConfig, star
from repro.net.packet import RdmaOp
from repro.transport.roce import RoceConfig, RoceQP
from repro.transport.verbs import VerbsContext


def make_pair(loss_rate=0.0, config=None, n_hosts=2, seed=0):
    """Two connected hosts through one (optionally lossy) switch."""
    sim = Simulator()
    topo = star(sim, n_hosts,
                switch_config=SwitchConfig(loss_rate=loss_rate, seed=seed))
    ctx_a = VerbsContext(sim, topo.nic(1), config)
    ctx_b = VerbsContext(sim, topo.nic(2), config)
    qa, qb = ctx_a.create_qp(), ctx_b.create_qp()
    qa.connect(2, qb.qpn)
    qb.connect(1, qa.qpn)
    return sim, qa, qb, ctx_b


class TestPacketization:
    def test_single_packet_message(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(100)
        sim.run()
        assert qa.tx_data_packets == 1
        assert qb.recv.bytes_delivered == 100

    def test_multi_packet_message(self):
        sim, qa, qb, _ = make_pair()
        size = constants.MTU_BYTES * 3 + 17
        qa.post_send(size)
        sim.run()
        assert qa.tx_data_packets == 4
        assert qb.recv.bytes_delivered == size

    def test_exact_mtu_boundary(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(constants.MTU_BYTES * 2)
        sim.run()
        assert qa.tx_data_packets == 2

    def test_zero_size_rejected(self):
        _, qa, _, _ = make_pair()
        with pytest.raises(TransportError):
            qa.post_send(0)

    def test_post_before_connect_rejected(self):
        sim = Simulator()
        topo = star(sim, 2)
        qp = RoceQP(sim, topo.nic(1))
        with pytest.raises(QPStateError):
            qp.post_send(100)

    def test_psns_are_consecutive_across_messages(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(constants.MTU_BYTES * 2)
        qa.post_send(constants.MTU_BYTES)
        sim.run()
        assert qa.sq_psn == 3
        assert qb.rq_psn == 3


class TestDeliveryAndCompletion:
    def test_on_message_fires_once_with_size(self):
        sim, qa, qb, _ = make_pair()
        got = []
        qb.on_message = lambda mid, size, now, meta: got.append((mid, size))
        qa.post_send(10_000)
        sim.run()
        assert len(got) == 1 and got[0][1] == 10_000

    def test_on_complete_after_ack(self):
        sim, qa, qb, _ = make_pair()
        done = []
        qa.post_send(10_000, on_complete=lambda mid, now: done.append(now))
        sim.run()
        assert len(done) == 1
        assert qa.send_idle

    def test_on_sent_fires_before_completion(self):
        sim, qa, qb, _ = make_pair()
        marks = []
        qa.post_send(1 << 20,
                     on_sent=lambda mid, now: marks.append(("sent", now)),
                     on_complete=lambda mid, now: marks.append(("done", now)))
        sim.run()
        assert [m[0] for m in marks] == ["sent", "done"]
        assert marks[0][1] < marks[1][1]

    def test_multiple_messages_complete_in_order(self):
        sim, qa, qb, _ = make_pair()
        order = []
        for tag in ("a", "b", "c"):
            qa.post_send(5000, on_complete=lambda mid, now, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_meta_travels_with_message(self):
        sim, qa, qb, _ = make_pair()
        seen = []
        qb.on_message = lambda mid, size, now, meta: seen.append(meta)
        qa.post_send(128, meta={"slice": 3})
        sim.run()
        assert seen == [{"slice": 3}]


class TestAckBehaviour:
    def test_ack_coalescing_reduces_acks(self):
        cfg = RoceConfig(ack_coalesce=8)
        sim, qa, qb, _ = make_pair(config=cfg)
        qa.post_send(constants.MTU_BYTES * 32)
        sim.run()
        assert qb.acks_sent <= 32 // 8 + 1

    def test_last_packet_always_acked(self):
        cfg = RoceConfig(ack_coalesce=100)
        sim, qa, qb, _ = make_pair(config=cfg)
        qa.post_send(constants.MTU_BYTES * 3)  # < coalesce threshold
        sim.run()
        assert qb.acks_sent == 1
        assert qa.send_idle


class TestLossRecovery:
    def test_recovers_from_random_loss(self):
        sim, qa, qb, _ = make_pair(loss_rate=0.01, seed=3)
        size = constants.MTU_BYTES * 500
        qa.post_send(size)
        sim.run()
        assert qb.recv.bytes_delivered == size
        assert qa.retransmitted_packets > 0

    def test_nack_triggers_go_back_n(self):
        sim, qa, qb, _ = make_pair(loss_rate=0.02, seed=1)
        qa.post_send(constants.MTU_BYTES * 300)
        sim.run()
        assert qa.nacks_received > 0
        assert qb.recv.messages_delivered == 1

    def test_heavy_loss_still_delivers(self):
        sim, qa, qb, _ = make_pair(loss_rate=0.2, seed=5)
        size = constants.MTU_BYTES * 50
        qa.post_send(size)
        sim.run()
        assert qb.recv.bytes_delivered == size

    def test_no_duplicate_delivery_to_app(self):
        sim, qa, qb, _ = make_pair(loss_rate=0.05, seed=2)
        got = []
        qb.on_message = lambda mid, size, now, meta: got.append(size)
        size = constants.MTU_BYTES * 200
        qa.post_send(size)
        sim.run()
        assert got == [size]

    def test_rto_recovers_tail_loss(self):
        """Losing the final packets leaves no OOO arrival to NACK on;
        only the safeguard timeout can recover (paper §III-D)."""
        cfg = RoceConfig(rto=200e-6)
        sim, qa, qb, _ = make_pair(config=cfg)
        sw = qa.nic.ports[0].peer_device
        # Drop everything for a window around the message tail.
        orig = sw.receive
        dropped = []

        def lossy(pkt, in_port):
            if pkt.ptype.name == "DATA" and pkt.psn >= 8 and not pkt.retransmit:
                dropped.append(pkt.psn)
                return
            orig(pkt, in_port)

        sw.receive = lossy
        qa.post_send(constants.MTU_BYTES * 10)
        sim.run()
        assert dropped == [8, 9]
        assert qa.timeouts >= 1
        assert qb.recv.bytes_delivered == constants.MTU_BYTES * 10

    def test_receiver_renacks_only_once_per_round(self):
        sim, qa, qb, _ = make_pair(loss_rate=0.01, seed=11)
        qa.post_send(constants.MTU_BYTES * 400)
        sim.run()
        # One NACK per go-back-N round: far fewer NACKs than packets.
        assert qb.nacks_sent <= qa.retransmitted_packets + 2


class TestWindow:
    def test_outstanding_bounded(self, monkeypatch):
        cfg = RoceConfig(max_outstanding=16)
        sim, qa, qb, _ = make_pair(config=cfg)
        peak = {"v": 0}
        orig = RoceQP._tx_one

        def spy(qp):
            orig(qp)
            if qp is qa:
                peak["v"] = max(peak["v"], qa.outstanding)

        # RoceQP is slotted: patch the class, filter on the instance.
        monkeypatch.setattr(RoceQP, "_tx_one", spy)
        qa.post_send(constants.MTU_BYTES * 200)
        sim.run()
        assert peak["v"] <= 16
        assert qb.recv.messages_delivered == 1


class TestWrite:
    def test_write_validates_mr(self):
        sim, qa, qb, ctx_b = make_pair()
        mr = ctx_b.reg_mr(1 << 20)
        qa.post_write(8192, vaddr=mr.addr, rkey=mr.rkey)
        sim.run()
        assert ctx_b.mr_table.write_hits == 1
        assert ctx_b.mr_table.write_misses == 0

    def test_write_bad_rkey_counts_miss(self):
        sim, qa, qb, ctx_b = make_pair()
        ctx_b.reg_mr(1 << 20)
        qa.post_write(8192, vaddr=0, rkey=0xBAD)
        sim.run()
        assert ctx_b.mr_table.write_misses == 1


class TestPsnSync:
    def test_new_source_alignment(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(constants.MTU_BYTES * 10)
        sim.run()
        assert qb.rq_psn == 10
        qb.sync_as_new_source()
        assert qb.sq_psn == qb.snd_una == qb.snd_nxt == 10
        qa.sync_as_old_source()
        assert qa.rq_psn == qa.sq_psn == 10

    def test_reverse_traffic_after_sync_accepted(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(constants.MTU_BYTES * 10)
        sim.run()
        qa.sync_as_old_source()
        qb.sync_as_new_source()
        qb.post_send(constants.MTU_BYTES * 5)
        sim.run()
        assert qa.recv.bytes_delivered == constants.MTU_BYTES * 5

    def test_half_sync_stalls_reverse_traffic(self):
        """The Fig. 6 failure mode: the new source synchronizes its
        sqPSN but a receiver's rqPSN is behind — packets look like the
        future and only stale NACKs come back, so nothing is ever
        delivered in-order within the test horizon."""
        cfg = RoceConfig(rto=50e-3)
        sim, qa, qb, _ = make_pair(config=cfg)
        qa.post_send(constants.MTU_BYTES * 10)
        sim.run()
        qb.sync_as_new_source()       # sqPSN <- 10
        # qa deliberately does NOT run sync_as_old_source(): rqPSN stays 0.
        qb.post_send(constants.MTU_BYTES, on_complete=lambda m, t: None)
        sim.run(until=sim.now + 10e-3)
        assert qa.recv.bytes_delivered == 0  # PSN 10 never matches rq 0

    def test_sync_with_unacked_data_rejected(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(constants.MTU_BYTES * 100)
        sim.run(until=1e-6)  # mid-flight
        with pytest.raises(QPStateError):
            qa.sync_as_new_source()


class TestClose:
    def test_close_cancels_everything(self):
        sim, qa, qb, _ = make_pair()
        qa.post_send(constants.MTU_BYTES * 10)
        sim.run(until=1e-6)
        qa.close()
        sim.run()
        assert sim.peek_next_time() is None
