"""Free-list pool for the per-event hot object.

The packet-level experiments allocate one :class:`~repro.net.packet.Packet`
per transmission/replica — millions of short-lived objects whose
allocation cost dominates once the scheduler is cheap.  Each
:class:`~repro.net.simulator.Simulator` owns a :class:`SimPools`
(``sim.pools``) holding the packet pool.

Lifecycle contract: packets may be retained by bus observers (the
invariant monitor, the fuzzer's coverage map, chaos taps...), so
:meth:`PacketPool.release` is a **no-op whenever the bus has any
subscriber** — exactly the runs where peak throughput is irrelevant.
On the no-observer benches, packets are recycled at their provable
end-of-life sites: consumed feedback, delivered/duplicate DATA at the
receiver QP, and every drop.  Release scrubs the reference-carrying
fields (``mrp``/``meta``/``sr``) so a free-listed packet pins nothing,
and ``payload`` so stale state is detectable; acquisition re-runs
``Packet.__init__`` (fresh pid — the pid sequence is identical to
unpooled runs) or ``clone_into``, overwriting every slot.

``CEPHEUS_POOL_DEBUG=1`` (or ``SimPools(bus, debug=True)``) swaps in
wrappers that track handed-out identities and fail fast on double
handout, double release, foreign release, or a stale field surviving
into reuse — the pool-hygiene regression suite runs fig8 under them.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro import constants
from repro.net.packet import Packet, PacketType, RdmaOp, _packet_ids
from repro.net.pipeline import ObserverBus

__all__ = ["PacketPool", "SimPools", "DebugPacketPool", "PoolError"]

# Hot-path constants: one global load instead of a class-attribute chain
# per acquired packet.
_DATA = PacketType.DATA
_CNP = PacketType.CNP
_SEND = RdmaOp.SEND
_WRITE = RdmaOp.WRITE


class PoolError(AssertionError):
    """A pool-hygiene invariant was violated (debug pools only)."""


class PacketPool:
    """Free list of :class:`Packet` objects, gated on an idle bus."""

    MAX_FREE = 4096

    __slots__ = ("bus", "_free", "reused", "created", "suppressed")

    def __init__(self, bus: ObserverBus) -> None:
        self.bus = bus
        self._free: List[Packet] = []
        self.reused = 0
        self.created = 0
        self.suppressed = 0

    def acquire(self, ptype, src_ip: int, dst_ip: int, **kw) -> Packet:
        free = self._free
        if free:
            pkt = free.pop()
            # Re-running __init__ resets every slot and draws the next
            # pid, exactly like a fresh allocation would.
            Packet.__init__(pkt, ptype, src_ip, dst_ip, **kw)
            self.reused += 1
            return pkt
        self.created += 1
        return Packet(ptype, src_ip, dst_ip, **kw)

    def acquire_data(self, src_ip, dst_ip, src_qp, dst_qp, psn, payload,
                     op, msg_id, first, last, vaddr, rkey, created_at,
                     retransmit, meta) -> Packet:
        """Positional DATA fast path for the sender's packetizer.

        Field-for-field identical to :meth:`acquire` with
        ``ptype=PacketType.DATA`` — fresh pid, eager wire-size memo —
        but with direct slot stores instead of a kwargs dict plus a
        ``Packet.__init__`` frame per transmitted segment.
        """
        free = self._free
        if free:
            pkt = free.pop()
            self.reused += 1
        else:
            pkt = Packet.__new__(Packet)
            self.created += 1
        pkt.pid = next(_packet_ids)
        pkt.ptype = _DATA
        pkt.src_ip = src_ip
        pkt.dst_ip = dst_ip
        pkt.src_qp = src_qp
        pkt.dst_qp = dst_qp
        pkt.psn = psn
        pkt.payload = payload
        pkt.op = op
        pkt.msg_id = msg_id
        pkt.first = first
        pkt.last = last
        pkt.vaddr = vaddr
        pkt.rkey = rkey
        pkt.ecn = False
        pkt.created_at = created_at
        pkt.retransmit = retransmit
        pkt.mrp = None
        pkt.meta = meta
        pkt.sr = None
        pkt.hops = 0
        pkt._ws = payload + constants.HEADER_BYTES + (
            16 if (first and op == _WRITE) else 0)
        return pkt

    def acquire_fb(self, ptype, src_ip, dst_ip, src_qp, dst_qp, psn,
                   created_at) -> Packet:
        """Positional ACK/NACK/CNP fast path (payload-less feedback)."""
        free = self._free
        if free:
            pkt = free.pop()
            self.reused += 1
        else:
            pkt = Packet.__new__(Packet)
            self.created += 1
        pkt.pid = next(_packet_ids)
        pkt.ptype = ptype
        pkt.src_ip = src_ip
        pkt.dst_ip = dst_ip
        pkt.src_qp = src_qp
        pkt.dst_qp = dst_qp
        pkt.psn = psn
        pkt.payload = 0
        pkt.op = _SEND
        pkt.msg_id = 0
        pkt.first = False
        pkt.last = False
        pkt.vaddr = 0
        pkt.rkey = 0
        pkt.ecn = False
        pkt.created_at = created_at
        pkt.retransmit = False
        pkt.mrp = None
        pkt.meta = None
        pkt.sr = None
        pkt.hops = 0
        pkt._ws = (constants.CNP_BYTES if ptype == _CNP
                   else constants.ACK_BYTES)
        return pkt

    def clone(self, src: Packet) -> Packet:
        """Pooled :meth:`Packet.clone` (the replication hot path)."""
        free = self._free
        if free:
            self.reused += 1
            return src.clone_into(free.pop())
        self.created += 1
        return src.clone()

    def release(self, pkt: Packet) -> None:
        if self.bus.active_subscribers:
            # An observer may hold a reference (coverage maps, chaos
            # taps, telemetry); recycling would alias its view.
            self.suppressed += 1
            return
        free = self._free
        if len(free) < self.MAX_FREE:
            pkt.mrp = None    # drop payload/header references so the
            pkt.meta = None   # free list pins no application state
            pkt.sr = None
            pkt.payload = 0
            free.append(pkt)


class DebugPacketPool(PacketPool):
    """Hygiene-checking wrapper: identity tracking + scrub verification."""

    __slots__ = ("_out", "_free_ids")

    def __init__(self, bus) -> None:
        super().__init__(bus)
        self._out: set = set()
        self._free_ids: set = set()

    def _check_scrubbed(self) -> None:
        pkt = self._free[-1]
        if (pkt.mrp is not None or pkt.meta is not None
                or pkt.sr is not None or pkt.payload != 0):
            raise PoolError(
                f"stale packet on free list (sr/payload/meta/mrp survived "
                f"release): {pkt!r} sr={pkt.sr!r} payload={pkt.payload}")

    def _track_out(self, pkt: Packet) -> Packet:
        if id(pkt) in self._out:
            raise PoolError(f"packet {id(pkt):#x} handed out twice")
        self._free_ids.discard(id(pkt))
        self._out.add(id(pkt))
        return pkt

    def acquire(self, ptype, src_ip, dst_ip, **kw):
        if self._free:
            self._check_scrubbed()
        return self._track_out(super().acquire(ptype, src_ip, dst_ip, **kw))

    def acquire_data(self, *args):
        if self._free:
            self._check_scrubbed()
        return self._track_out(super().acquire_data(*args))

    def acquire_fb(self, *args):
        if self._free:
            self._check_scrubbed()
        return self._track_out(super().acquire_fb(*args))

    def clone(self, src):
        if self._free:
            self._check_scrubbed()
        return self._track_out(super().clone(src))

    def release(self, pkt):
        if id(pkt) in self._free_ids:
            raise PoolError(f"packet {id(pkt):#x} (pid {pkt.pid}) "
                            f"released twice")
        self._out.discard(id(pkt))
        n = len(self._free)
        super().release(pkt)
        if len(self._free) > n:
            self._free_ids.add(id(pkt))


class SimPools:
    """The per-simulator pools (``sim.pools``)."""

    __slots__ = ("pkt", "debug")

    def __init__(self, bus: ObserverBus,
                 debug: Optional[bool] = None) -> None:
        if debug is None:
            debug = os.environ.get("CEPHEUS_POOL_DEBUG") == "1"
        self.debug = debug
        self.pkt: PacketPool = (DebugPacketPool(bus) if debug
                                else PacketPool(bus))
