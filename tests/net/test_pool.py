"""Pool-hygiene regression suite.

The free-list pool (repro.net.pool) recycles Packets through the
datapath; a single missed reset or a release at a site where the object
is still referenced silently corrupts later traffic.  The debug pool wrappers fail fast on exactly
those bugs, and this suite (a) proves the wrappers catch each violation
class, (b) runs the fig8 broadcast experiment end-to-end under them,
and (c) proves recycling actually happens on observer-free runs — a
pool that never reuses would pass every hygiene check while delivering
none of the speedup.
"""

from __future__ import annotations

import pytest

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.net.packet import Packet, PacketType, RdmaOp
from repro.net.pipeline import ObserverBus
from repro.net.pool import DebugPacketPool, PoolError, SimPools

KB = 1 << 10


# ---------------------------------------------------------------------------
# unit level: each violation class trips the debug wrappers
# ---------------------------------------------------------------------------

class TestDebugPacketPool:
    def _pool(self) -> DebugPacketPool:
        return DebugPacketPool(ObserverBus())

    def test_double_release_fails(self):
        pool = self._pool()
        pkt = pool.acquire(PacketType.DATA, 1, 2)
        pool.release(pkt)
        with pytest.raises(PoolError, match="released twice"):
            pool.release(pkt)

    def test_stale_sr_surviving_release_fails_on_reuse(self):
        """A release that skipped the sr scrub must be caught at the
        next acquire, not silently leak a stale routing header."""
        pool = self._pool()
        pkt = pool.acquire(PacketType.DATA, 1, 2)
        pkt.sr = object()
        # Emulate a buggy release site that forgot the scrub.
        pool._out.discard(id(pkt))
        pool._free.append(pkt)
        pool._free_ids.add(id(pkt))
        with pytest.raises(PoolError, match="stale packet"):
            pool.acquire(PacketType.ACK, 2, 1)

    def test_stale_payload_surviving_release_fails_on_reuse(self):
        pool = self._pool()
        pkt = pool.acquire(PacketType.DATA, 1, 2, payload=512)
        pool._out.discard(id(pkt))
        pool._free.append(pkt)  # bypasses the scrub: payload still 512
        pool._free_ids.add(id(pkt))
        with pytest.raises(PoolError, match="stale packet"):
            pool.clone(Packet(PacketType.DATA, 3, 4))

    def test_correct_release_scrubs_and_recycles(self):
        pool = self._pool()
        class FakeSr:  # wire_size is computed at init: sr needs its size
            header_bytes = 8

        pkt = pool.acquire(PacketType.DATA, 1, 2,
                           payload=256, meta=("x",), sr=FakeSr())
        pool.release(pkt)
        again = pool.acquire(PacketType.ACK, 2, 1)
        assert again is pkt  # recycled...
        assert again.payload == 0 and again.meta is None and again.sr is None
        assert pool.reused == 1

    def test_release_suppressed_while_bus_has_subscribers(self):
        bus = ObserverBus()
        pool = DebugPacketPool(bus)
        bus.subscribe("deliver", lambda *a: None)
        pkt = pool.acquire(PacketType.DATA, 1, 2)
        pool.release(pkt)
        assert pool.suppressed == 1
        assert pool.acquire(PacketType.DATA, 1, 2) is not pkt
        # Releasing the retained packet again is legal: the gated
        # release never free-listed it, so this is not a double free.
        pool.release(pkt)

    def test_acquire_data_matches_kwargs_construction(self):
        """The positional DATA fast path must be field-for-field
        identical to Packet(...) — including the eager wire-size memo."""
        pool = self._pool()
        fast = pool.acquire_data(1, 2, 3, 4, 7, 256, RdmaOp.WRITE, 9,
                                 True, False, 100, 11, 0.5, True, ("m",))
        slow = Packet(PacketType.DATA, 1, 2, src_qp=3, dst_qp=4, psn=7,
                      payload=256, op=RdmaOp.WRITE, msg_id=9, first=True,
                      last=False, vaddr=100, rkey=11, created_at=0.5,
                      retransmit=True, meta=("m",))
        assert slow.pid == fast.pid + 1  # both draw from the global pid stream
        for name in Packet.__slots__:
            if name != "pid":
                assert getattr(fast, name) == getattr(slow, name), name

    def test_acquire_fb_matches_kwargs_construction(self):
        pool = self._pool()
        for ptype in (PacketType.ACK, PacketType.NACK, PacketType.CNP):
            fast = pool.acquire_fb(ptype, 1, 2, 3, 4, 7, 0.5)
            slow = Packet(ptype, 1, 2, src_qp=3, dst_qp=4, psn=7,
                          created_at=0.5)
            for name in Packet.__slots__:
                if name != "pid":
                    assert getattr(fast, name) == getattr(slow, name), name

    def test_fast_paths_recycle_and_stay_hygiene_checked(self):
        pool = self._pool()
        pkt = pool.acquire_data(1, 2, 3, 4, 7, 256, RdmaOp.SEND, 9,
                                False, False, 0, 0, 0.0, False, None)
        pool.release(pkt)
        again = pool.acquire_fb(PacketType.ACK, 2, 1, 4, 3, 6, 1.0)
        assert again is pkt and pool.reused == 1
        pool.release(again)
        again.payload = 64  # corrupt the free-listed packet
        with pytest.raises(PoolError, match="stale packet"):
            pool.acquire_data(1, 2, 3, 4, 8, 128, RdmaOp.SEND, 9,
                              False, False, 0, 0, 0.0, False, None)

    def test_pid_sequence_matches_unpooled_allocation(self):
        """Recycled acquires re-run __init__ and draw the next pid —
        event-for-event identical to fresh allocation."""
        pool = self._pool()
        a = pool.acquire(PacketType.DATA, 1, 2)
        first_pid = a.pid
        pool.release(a)
        b = pool.acquire(PacketType.DATA, 1, 2)  # same object, re-inited
        fresh = Packet(PacketType.DATA, 1, 2)
        assert b is a
        assert b.pid == first_pid + 1
        assert fresh.pid == b.pid + 1


# ---------------------------------------------------------------------------
# integration: real traffic under the debug pools
# ---------------------------------------------------------------------------

class TestDatapathHygiene:
    def _debug_cluster(self, monkeypatch) -> Cluster:
        monkeypatch.setenv("CEPHEUS_POOL_DEBUG", "1")
        cl = Cluster.testbed(4)
        assert isinstance(cl.sim.pools.pkt, DebugPacketPool)
        return cl

    def test_broadcasts_run_clean_under_debug_pools(self, monkeypatch):
        """Multicast broadcasts across the whole size range: any double
        handout / double free / missed scrub raises PoolError."""
        cl = self._debug_cluster(monkeypatch)
        algo = CepheusBcast(cl, cl.host_ips)
        for size in (64, 4 * KB, 64 * KB):
            algo.run(size)

    def test_recycling_actually_happens(self, monkeypatch):
        """On an observer-free run the packet pool must show real reuse."""
        cl = self._debug_cluster(monkeypatch)
        algo = CepheusBcast(cl, cl.host_ips)
        algo.run(64 * KB)
        pools = cl.sim.pools
        assert pools.pkt.reused > 0, "packet pool never recycled"
        assert pools.pkt.suppressed == 0  # nobody subscribed, no gating

    def test_fig8_quick_under_debug_pools_matches_plain_run(self, monkeypatch):
        """The fig8 experiment end-to-end: hygiene-clean under the debug
        wrappers AND numerically identical to the plain-pool run (the
        wrappers must observe, never perturb)."""
        import io

        from repro.harness.runner import run_experiments

        def rows():
            run = run_experiments(["fig8"], stream=io.StringIO())
            return run.results[0].rows

        plain = rows()
        monkeypatch.setenv("CEPHEUS_POOL_DEBUG", "1")
        assert rows() == plain

    def test_simpools_explicit_debug_flag(self, monkeypatch):
        pools = SimPools(ObserverBus(), debug=True)
        assert isinstance(pools.pkt, DebugPacketPool)
        monkeypatch.delenv("CEPHEUS_POOL_DEBUG", raising=False)
        assert SimPools(ObserverBus()).debug is False
