"""Packet model.

A :class:`Packet` carries the union of the header fields the
reproduction needs: Ethernet/IPv4 addressing, the RoCEv2 IB BTH
(dstQP, PSN, opcode flags), the AETH for ACK/NACK, the RETH for
one-sided WRITE, plus simulator-only metadata (creation time, ECN bit).

Addresses are plain integers: host IPs are small ints handed out by the
topology builder, and multicast group IDs (McstIDs) come from the
reserved range at/above :data:`repro.constants.MCSTID_BASE` — the same
trick the paper plays by using the McstID as a dstIP.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from repro import constants

__all__ = ["PacketType", "RdmaOp", "Packet", "is_multicast_ip"]

_packet_ids = itertools.count()


class PacketType(enum.IntEnum):
    """Wire-level packet classification used by switches and NICs."""

    DATA = 0          # RoCE data segment (SEND or WRITE)
    ACK = 1           # RoCE AETH acknowledgement
    NACK = 2          # RoCE AETH negative ack (carries ePSN)
    CNP = 3           # DCQCN congestion notification packet
    MRP = 4           # Cepheus MFT Registration Protocol (UDP)
    MRP_CONFIRM = 5   # receiver -> controller membership confirmation
    PAUSE = 6         # PFC pause frame (link-local)
    RESUME = 7        # PFC resume frame (link-local)
    CTRL = 8          # generic out-of-band control (connection setup...)


class RdmaOp(enum.IntEnum):
    """RDMA operation carried by DATA packets."""

    SEND = 0
    WRITE = 1


# Bound once: a read through the enum class is a descriptor call, and
# ``_wire_size`` made up to ten of them per feedback or MRP packet.
_DATA = PacketType.DATA
_FEEDBACK = (PacketType.ACK, PacketType.NACK)
_CNP = PacketType.CNP
_PFC = (PacketType.PAUSE, PacketType.RESUME)
_MRP = (PacketType.MRP, PacketType.MRP_CONFIRM)
_WRITE = RdmaOp.WRITE


def is_multicast_ip(ip: int) -> bool:
    """True when ``ip`` is a McstID (reserved multicast range)."""
    return ip >= constants.MCSTID_BASE


class Packet:
    """One simulated packet.

    ``payload`` is a byte *count*, not bytes — the simulation is
    timing-accurate, not data-accurate.  ``wire_size`` adds the fixed
    per-type header overhead and is what links serialize.
    """

    __slots__ = (
        "pid", "ptype", "src_ip", "dst_ip", "src_qp", "dst_qp",
        "psn", "payload", "op", "msg_id", "first", "last",
        "vaddr", "rkey", "ecn", "created_at", "retransmit",
        "mrp", "meta", "hops", "sr", "_ws",
    )

    def __init__(
        self,
        ptype: PacketType,
        src_ip: int,
        dst_ip: int,
        *,
        src_qp: int = 0,
        dst_qp: int = 0,
        psn: int = 0,
        payload: int = 0,
        op: RdmaOp = RdmaOp.SEND,
        msg_id: int = 0,
        first: bool = False,
        last: bool = False,
        vaddr: int = 0,
        rkey: int = 0,
        created_at: float = 0.0,
        retransmit: bool = False,
        mrp: Optional[Any] = None,
        meta: Optional[Any] = None,
        sr: Optional[Any] = None,
    ) -> None:
        self.pid = next(_packet_ids)
        self.ptype = ptype
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_qp = src_qp
        self.dst_qp = dst_qp
        self.psn = psn
        self.payload = payload
        self.op = op
        self.msg_id = msg_id
        self.first = first
        self.last = last
        self.vaddr = vaddr
        self.rkey = rkey
        self.ecn = False
        self.created_at = created_at
        self.retransmit = retransmit
        self.mrp = mrp
        self.meta = meta
        self.sr = sr
        self.hops = 0
        # Wire-size memo, computed eagerly: every packet is serialized at
        # least once, so the lazy memo always paid this exact cost — and
        # paying it here lets the per-hop paths read the ``_ws`` slot
        # directly instead of going through the property.
        if ptype == _DATA:
            extra = 16 if (op == _WRITE and first) else 0
            if sr is not None:
                extra += sr.header_bytes
            self._ws = payload + constants.HEADER_BYTES + extra
        else:
            self._ws = self._wire_size()

    # -- wire size ---------------------------------------------------------

    @property
    def wire_size(self) -> int:
        """Bytes occupying the wire, headers included.

        Memoized in the ``_ws`` slot (filled eagerly by ``__init__``):
        every hop serializes the same packet (ports, rate limiters and
        CC all ask), and nothing size-affecting mutates after creation
        except the NIC attaching a source-route header — which refreshes
        the memo in place.  Hot paths read ``_ws`` directly.
        """
        ws = self._ws
        if ws >= 0:
            return ws
        self._ws = ws = self._wire_size()
        return ws

    def _wire_size(self) -> int:
        t = self.ptype
        if t == _DATA:
            extra = 16 if (self.op == _WRITE and self.first) else 0
            if self.sr is not None:
                extra += self.sr.header_bytes
            return self.payload + constants.HEADER_BYTES + extra
        if t in _FEEDBACK:
            return constants.ACK_BYTES
        if t == _CNP:
            return constants.CNP_BYTES
        if t in _PFC:
            return 64
        if t in _MRP:
            return min(constants.MRP_MTU_BYTES, 64 + self.payload)
        return 64 + self.payload

    # -- replication -------------------------------------------------------

    def clone(self) -> "Packet":
        """Deep-enough copy for in-network replication.

        A fresh ``pid`` is assigned; the Cepheus duplicator then rewrites
        the addressing fields of each replica independently.
        """
        return self.clone_into(Packet.__new__(Packet))

    def clone_into(self, p: "Packet") -> "Packet":
        """Copy every field of ``self`` into ``p`` (fresh pid) — the
        replication hot path shared by :meth:`clone` and the packet
        pool's recycled-clone fast path."""
        p.pid = next(_packet_ids)
        p.ptype = self.ptype
        p.src_ip = self.src_ip
        p.dst_ip = self.dst_ip
        p.src_qp = self.src_qp
        p.dst_qp = self.dst_qp
        p.psn = self.psn
        p.payload = self.payload
        p.op = self.op
        p.msg_id = self.msg_id
        p.first = self.first
        p.last = self.last
        p.vaddr = self.vaddr
        p.rkey = self.rkey
        p.ecn = self.ecn
        p.created_at = self.created_at
        p.retransmit = self.retransmit
        p.mrp = self.mrp
        p.meta = self.meta
        p.sr = self.sr
        p.hops = self.hops
        p._ws = self._ws  # identical size-affecting fields -> same memo
        return p

    # -- classification helpers --------------------------------------------

    @property
    def is_feedback(self) -> bool:
        """ACK/NACK/CNP — the three feedback types Cepheus handles."""
        return self.ptype in (PacketType.ACK, PacketType.NACK, PacketType.CNP)

    @property
    def is_mcast_data(self) -> bool:
        """DATA addressed to a McstID (pre-bridging multicast stream)."""
        return self.ptype == PacketType.DATA and is_multicast_ip(self.dst_ip)

    @property
    def is_mcast_feedback(self) -> bool:
        """Feedback addressed to a McstID (srcIP was rewritten on data)."""
        return self.is_feedback and is_multicast_ip(self.dst_ip)

    def flow_hash(self) -> int:
        """Flow-consistent hash used for ECMP uplink selection."""
        return hash((self.src_ip, self.dst_ip, self.src_qp, self.dst_qp))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.pid} {self.ptype.name} {self.src_ip}->{self.dst_ip} "
            f"qp{self.src_qp}->{self.dst_qp} psn={self.psn} len={self.payload}>"
        )
