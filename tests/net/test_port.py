"""Port behaviour: serialization, queueing, ECN, tail-drop, pause."""

import random

import pytest

from repro.net.packet import Packet, PacketType
from repro.net.port import Port
from repro.net.simulator import Simulator


class _Sink:
    """Minimal device: records arrivals."""

    def __init__(self, sim):
        self.sim = sim
        self.name = "sink"
        self.ports = []
        self.received = []

    def receive(self, pkt, in_port):
        self.received.append((pkt, in_port, self.sim.now))


def _wire(sim, **port_kw):
    src = _Sink(sim)
    dst = _Sink(sim)
    port = Port(src, 0, **port_kw)
    src.ports = [port]
    port.connect(dst, 7)
    return src, dst, port


def _data(payload=4096, psn=0):
    return Packet(PacketType.DATA, 1, 2, payload=payload, psn=psn)


class TestTransmission:
    def test_delivery_after_serialization_and_propagation(self, sim):
        _, dst, port = _wire(sim, bandwidth=100e9, propagation=1e-6)
        pkt = _data(payload=4096)
        port.enqueue(pkt)
        sim.run()
        ser = pkt.wire_size * 8 / 100e9
        assert dst.received[0][2] == pytest.approx(ser + 1e-6)
        assert dst.received[0][1] == 7  # peer port index

    def test_fifo_order(self, sim):
        _, dst, port = _wire(sim)
        pkts = [_data(psn=i) for i in range(5)]
        for p in pkts:
            port.enqueue(p)
        sim.run()
        assert [p.psn for p, _, _ in dst.received] == [0, 1, 2, 3, 4]

    def test_back_to_back_serialization(self, sim):
        _, dst, port = _wire(sim, bandwidth=100e9, propagation=0.0)
        a, b = _data(), _data()
        port.enqueue(a)
        port.enqueue(b)
        sim.run()
        gap = dst.received[1][2] - dst.received[0][2]
        assert gap == pytest.approx(a.wire_size * 8 / 100e9)

    def test_hops_incremented(self, sim):
        _, dst, port = _wire(sim)
        port.enqueue(_data())
        sim.run()
        assert dst.received[0][0].hops == 1

    def test_stats_counted(self, sim):
        _, _, port = _wire(sim)
        port.enqueue(_data())
        sim.run()
        assert port.stats.tx_packets == 1
        assert port.stats.tx_bytes > 4096


class TestTailDrop:
    def test_drop_when_full(self, sim):
        _, dst, port = _wire(sim, queue_capacity=10_000)
        accepted = sum(port.enqueue(_data(payload=4096)) for _ in range(5))
        sim.run()
        assert accepted < 5
        assert port.stats.drops == 5 - accepted
        assert len(dst.received) == accepted

    def test_no_drop_below_capacity(self, sim):
        _, _, port = _wire(sim, queue_capacity=1_000_000)
        assert all(port.enqueue(_data()) for _ in range(10))


class TestEcn:
    def test_no_marking_below_kmin(self, sim):
        _, dst, port = _wire(sim, ecn_kmin=100_000, ecn_kmax=200_000)
        for _ in range(3):
            port.enqueue(_data())
        sim.run()
        assert all(not p.ecn for p, _, _ in dst.received)

    def test_always_marks_above_kmax(self, sim):
        _, dst, port = _wire(sim, queue_capacity=10_000_000,
                             ecn_kmin=10_000, ecn_kmax=20_000)
        for _ in range(20):
            port.enqueue(_data())
        sim.run()
        # Packets enqueued when depth >= kmax must be marked.
        marked = [p.ecn for p, _, _ in dst.received]
        assert any(marked)
        assert all(marked[6:])  # deep-queue arrivals all marked

    def test_red_marks_draw_the_seeded_stream(self, sim):
        # The generator is built on the first draw; the marks must be
        # the ones random.Random(seed) predicts from the queue depths.
        kmin, kmax, pmax = 10_000, 400_000, 0.8
        _, _, port = _wire(sim, queue_capacity=10_000_000, ecn_kmin=kmin,
                           ecn_kmax=kmax, ecn_pmax=pmax, seed=1234)
        port.set_paused(True)   # every packet queues: depth = i * size
        pkts = [_data(psn=i) for i in range(80)]
        for p in pkts:
            port.enqueue(p)
        rng = random.Random(1234)
        want = []
        for i, p in enumerate(pkts):
            q = i * p.wire_size
            want.append(q > kmin and (
                q >= kmax or rng.random() < pmax * (q - kmin) / (kmax - kmin)))
        assert [p.ecn for p in pkts] == want
        assert 0 < sum(want) < len(want)

    def test_feedback_never_marked(self, sim):
        _, dst, port = _wire(sim, queue_capacity=10_000_000,
                             ecn_kmin=100, ecn_kmax=200)
        for _ in range(10):
            port.enqueue(Packet(PacketType.ACK, 1, 2))
        sim.run()
        assert all(not p.ecn for p, _, _ in dst.received)


class TestPause:
    def test_pause_freezes_queue(self, sim):
        _, dst, port = _wire(sim)
        port.set_paused(True)
        port.enqueue(_data())
        sim.run()
        assert dst.received == []

    def test_resume_drains(self, sim):
        _, dst, port = _wire(sim)
        port.set_paused(True)
        port.enqueue(_data())
        sim.run()
        port.set_paused(False)
        sim.run()
        assert len(dst.received) == 1

    def test_inflight_packet_not_recalled(self, sim):
        """Pausing mid-serialization lets the current packet finish."""
        _, dst, port = _wire(sim, bandwidth=1e9)  # slow: long serialization
        port.enqueue(_data())
        port.enqueue(_data())
        sim.run(until=1e-6)  # first packet is mid-flight
        port.set_paused(True)
        sim.run()
        assert len(dst.received) == 1

    def test_control_bypasses_pause(self, sim):
        _, dst, port = _wire(sim)
        port.set_paused(True)
        port.send_control(Packet(PacketType.PAUSE, 0, 0))
        sim.run()
        assert len(dst.received) == 1
        assert dst.received[0][0].ptype == PacketType.PAUSE

    def test_pause_stats(self, sim):
        _, _, port = _wire(sim)
        port.set_paused(True)
        port.set_paused(True)   # idempotent
        port.set_paused(False)
        assert port.stats.pause_events == 1
        assert port.stats.resume_events == 1
