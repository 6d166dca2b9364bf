"""RoCE RC protocol engine.

This is the behavioural model of the commodity RNIC transport the paper
reuses: MTU packetization, PSN sequencing, receiver-side ACK coalescing
and NACK (ePSN) generation, sender-side go-back-N retransmission with a
safeguard timeout, CNP generation at the notification point and DCQCN
at the reaction point.  It deliberately implements *only* what Mellanox
RC offers — no selective retransmission, no multicast awareness —
because Cepheus' whole premise is to leave this layer untouched.

A multicast member in Cepheus uses exactly this class: its QP is
connected to the *virtual* remote ``<McstID, 0x1>`` and never learns it
is part of a group.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional

from repro import constants
from repro.errors import PsnSpaceExhausted, QPStateError, TransportError
from repro.net.nic import Nic
from repro.net.packet import Packet, PacketType, RdmaOp
from repro.net.simulator import Event, Simulator
from repro.transport.dcqcn import DcqcnRateController
from repro.transport.gleam import GleamConfig, GleamRateController
from repro.transport.memory import MrTable
from repro.transport import qp as qp_state
from repro.transport.qp import QpStateName, RecvState, SendMessage

__all__ = ["RoceConfig", "RoceQP"]

_msg_ids = itertools.count(1)

# Hot-path constants: one global load instead of a class-attribute chain
# per packet (handle_packet runs once per wire arrival).
_DATA = PacketType.DATA
_ACK = PacketType.ACK
_NACK = PacketType.NACK
_CNP = PacketType.CNP
_WRITE = RdmaOp.WRITE
_RTS = QpStateName.RTS

#: A receiver sends at most one CNP per this interval (CX-5).
_CNP_MIN_INTERVAL = constants.CNP_MIN_INTERVAL_S
#: IRN: the least gap between two retransmits of one PSN.
_IRN_RETX_GUARD = 20e-6


@dataclass
class RoceConfig:
    """Transport tunables (defaults model a ConnectX-5).

    ``retransmit_mode`` selects the loss-recovery discipline:

    * ``"gbn"`` — go-back-N, the CX-5 behaviour the paper evaluates
      (and blames for Cepheus' limited loss tolerance, §V-C);
    * ``"irn"`` — IRN-style selective repeat (Mittal et al., SIGCOMM'18,
      the paper's suggested remedy): receivers buffer out-of-order
      packets and the sender retransmits only the missing PSN.  Distinct
      losses recover serially per round trip (a simplification of IRN's
      SACK bitmap; documented in docs/PROTOCOL.md).

    ``cc`` selects the reaction-point congestion controller:

    * ``"dcqcn"`` — the stock ConnectX-5 DCQCN machinery (default);
    * ``"gleam"`` — the Gleam-style AIMD baseline
      (:class:`~repro.transport.gleam.GleamRateController`), used by
      the MRC k-path experiments as the comparison CC.
    """

    mtu: int = constants.MTU_BYTES
    ack_coalesce: int = constants.ROCE_ACK_COALESCE
    rto: float = constants.ROCE_RTO_S
    max_outstanding: int = constants.ROCE_MAX_OUTSTANDING_PKTS
    line_rate: float = constants.LINK_BANDWIDTH_BPS
    cc: str = "dcqcn"
    gleam: Optional[GleamConfig] = None
    retransmit_mode: str = "gbn"


class RoceQP:
    """One RC queue pair: send engine + receive/responder engine.

    A group member is one QP, so it is slotted, and its send and IRN
    retransmit queues stay ``None`` until first used (docs/ARCHITECTURE.md).
    """

    __slots__ = (
        "sim", "nic", "cfg", "mr_table", "qpn", "state", "dst_ip", "dst_qp",
        "sq_psn", "snd_una", "snd_nxt", "_send_msgs", "_tx_event", "cc",
        "_next_allowed_tx", "_max_sent", "_rto_event", "rq_psn", "recv",
        "_inorder_since_ack", "_nack_pending", "_last_cnp_time", "_ooo_buffer",
        "_retx_queue", "_retx_last", "on_message", "_pkt_pool", "bus",
        "tx_data_packets", "retransmitted_packets", "acks_sent", "nacks_sent",
        "cnps_sent", "acks_received", "nacks_received", "timeouts")

    def __init__(
        self,
        sim: Simulator,
        nic: Nic,
        config: Optional[RoceConfig] = None,
        mr_table: Optional[MrTable] = None,
        qpn: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.cfg = config or RoceConfig()
        self.mr_table = mr_table
        self.qpn = nic.allocate_qpn() if qpn is None else qpn
        nic.register_qp(self.qpn, self)
        self.state = QpStateName.RESET
        self.dst_ip: int = 0
        self.dst_qp: int = 0

        # --- send side -------------------------------------------------
        self.sq_psn = 0            # next PSN to assign to a new WQE
        self.snd_una = 0           # oldest unacknowledged PSN
        self.snd_nxt = 0           # next PSN to put on the wire
        self._send_msgs: Optional[Deque[SendMessage]] = None
        self._tx_event: Optional[Event] = None
        self._next_allowed_tx = 0.0
        self._max_sent = 0         # high-water mark: PSNs ever transmitted
        self._rto_event: Optional[Event] = None
        if self.cfg.cc == "dcqcn":
            self.cc = DcqcnRateController(sim, self.cfg.line_rate)
        elif self.cfg.cc == "gleam":
            self.cc = GleamRateController(sim, self.cfg.line_rate, self.cfg.gleam)
        else:
            raise TransportError(f"unknown congestion controller {self.cfg.cc!r}")

        # --- receive side ----------------------------------------------
        self.rq_psn = 0            # expected PSN
        self.recv = RecvState()
        self._inorder_since_ack = 0
        self._nack_pending = False
        self._last_cnp_time = -1e9
        # IRN state: receiver-side out-of-order buffer, sender-side
        # selective-retransmit queue + per-PSN pacing guard.
        self._ooo_buffer: Dict[int, Packet] = {}
        self._retx_queue: Optional[Deque[int]] = None
        self._retx_last: Dict[int, float] = {}
        self.on_message: Optional[Callable[[int, int, float, Any], None]] = None
        self._pkt_pool = sim.pools.pkt
        # The simulation-wide observer bus: "qp_send" fires on every DATA
        # transmission, "deliver" on every in-order delivery.  QPs created
        # after a monitor subscribes are covered automatically because the
        # bus lives on the simulator, not on the QP.
        self.bus = sim.bus

        # --- instrumentation ---------------------------------------------
        self.tx_data_packets = 0
        self.retransmitted_packets = 0
        self.acks_sent = 0
        self.nacks_sent = 0
        self.cnps_sent = 0
        self.acks_received = 0
        self.nacks_received = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    # connection management (the verbs modify_qp path)
    # ------------------------------------------------------------------

    def connect(self, dst_ip: int, dst_qp: int) -> None:
        """Transition to RTS against a remote <dstIP, dstQP>.

        For Cepheus members the remote is the virtual
        ``<McstID, 0x1>`` tuple — the RNIC cannot tell the difference,
        which is the paper's point.
        """
        self.dst_ip = dst_ip
        self.dst_qp = dst_qp
        self.state = QpStateName.RTS

    # ------------------------------------------------------------------
    # verbs send path
    # ------------------------------------------------------------------

    def post_send(
        self,
        size: int,
        *,
        op: RdmaOp = RdmaOp.SEND,
        vaddr: int = 0,
        rkey: int = 0,
        on_complete: Optional[Callable[[int, float], None]] = None,
        on_sent: Optional[Callable[[int, float], None]] = None,
        meta: Any = None,
    ) -> int:
        """Queue one message; returns its msg_id.

        PSNs are assigned eagerly, exactly like a hardware send queue:
        retransmission can then regenerate any PSN from the WQE list.
        """
        if self.state != QpStateName.RTS:
            raise QPStateError(f"QP {self.qpn} not in RTS")
        if size <= 0:
            raise TransportError(f"invalid message size {size}")
        mtu = self.cfg.mtu
        npkts = (size + mtu - 1) // mtu
        if self.sq_psn + npkts > constants.PSN_SPACE:
            raise PsnSpaceExhausted(
                f"QP {self.qpn}: {npkts} packet(s) from PSN {self.sq_psn} "
                f"would pass the 24-bit PSN space; PSNs do not wrap here")
        msg = SendMessage(
            msg_id=next(_msg_ids), size=size, op=op,
            first_psn=self.sq_psn, last_psn=self.sq_psn + npkts - 1,
            vaddr=vaddr, rkey=rkey,
            on_complete=on_complete, on_sent=on_sent, meta=meta,
        )
        self.sq_psn += npkts
        if self._send_msgs is None:
            self._send_msgs = deque()
        self._send_msgs.append(msg)
        self.cc.start()
        self._pump()
        return msg.msg_id

    def post_write(self, size: int, vaddr: int, rkey: int, **kw) -> int:
        """One-sided RDMA WRITE (sugar over :meth:`post_send`)."""
        return self.post_send(size, op=RdmaOp.WRITE, vaddr=vaddr, rkey=rkey, **kw)

    @property
    def outstanding(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def send_idle(self) -> bool:
        return self.snd_una == self.sq_psn and not self._send_msgs

    # -- transmit pump -----------------------------------------------------

    def _pump(self) -> None:
        # Straight-line, no helper call: this runs after every
        # transmission and every ACK, so it shows up in every benchmark.
        if (self._tx_event is not None
                or not self._send_msgs or self.state is not _RTS):
            return
        if not self._retx_queue and (
                self.snd_nxt >= self.sq_psn
                or self.snd_nxt - self.snd_una >= self.cfg.max_outstanding):
            return
        sim = self.sim
        delay = self._next_allowed_tx - sim.now
        if delay < 0.0:
            delay = 0.0
        self._tx_event = sim.schedule(delay, self._tx_one)

    def _tx_one(self) -> None:
        self._tx_event = None
        if not self._send_msgs or self.state is not _RTS:
            return
        sim = self.sim
        if self._retx_queue:
            # IRN selective repeat: lost PSNs jump the line.
            psn = self._retx_queue.popleft()
            if psn < self.snd_una:  # acked meanwhile
                self._pump()
                return
            pkt = self._packet_for(psn)
            bus = self.bus
            if bus.qp_send:
                bus.publish("qp_send", self, pkt)
            self.nic.send(pkt)
            ws = pkt._ws  # read after send: the SR header adds bytes
            self.tx_data_packets += 1
            self.retransmitted_packets += 1
            self.cc.on_bytes_sent(ws)
            rate = self.cc.rate
            line = self.cfg.line_rate
            if rate > line:
                rate = line
            self._next_allowed_tx = sim.now + ws * 8.0 / rate
            self._arm_rto()
            self._pump()
            return
        psn = self.snd_nxt
        if (psn >= self.sq_psn
                or psn - self.snd_una >= self.cfg.max_outstanding):
            return  # _pump's window checks, re-made at fire time
        pkt = self._packet_for(psn)
        bus = self.bus
        if bus.qp_send:
            bus.publish("qp_send", self, pkt)
        self.nic.send(pkt)
        ws = pkt._ws  # read after send: the SR header adds bytes
        self.tx_data_packets += 1
        if pkt.retransmit:
            self.retransmitted_packets += 1
        self.cc.on_bytes_sent(ws)
        rate = self.cc.rate
        line = self.cfg.line_rate
        if rate > line:
            rate = line
        self._next_allowed_tx = sim.now + ws * 8.0 / rate
        self.snd_nxt = nxt = psn + 1
        if nxt > self._max_sent:
            self._max_sent = nxt
        if pkt.last and not pkt.retransmit:
            # "Local send done": the WQE's last byte hit the wire.  MPI
            # implementations chain the next blocking send off this, not
            # off the remote ACK.  Looked up by the true sequence PSN —
            # pkt.psn is the wire value, which fault hooks may corrupt.
            msg = self._msg_containing(psn)
            if msg.on_sent is not None and not msg.sent_notified:
                msg.sent_notified = True
                msg.on_sent(msg.msg_id, sim.now)
        self._arm_rto()
        self._pump()

    def _packet_for(self, psn: int) -> Packet:
        msg = self._msg_containing(psn)
        mtu = self.cfg.mtu
        offset = (psn - msg.first_psn) * mtu
        payload = min(mtu, msg.size - offset)
        wire_psn = psn
        if qp_state.psn_tx_hook is not None:
            # Test-only fault injection: corrupt the wire PSN while the
            # send-queue state keeps the true sequence (see qp.psn_tx_hook).
            wire_psn = qp_state.psn_tx_hook(self, psn)
        return self._pkt_pool.acquire_data(
            self.nic.ip, self.dst_ip, self.qpn, self.dst_qp, wire_psn,
            payload, msg.op, msg.msg_id,
            psn == msg.first_psn, psn == msg.last_psn,
            msg.vaddr + offset, msg.rkey, self.sim.now,
            psn < self._max_sent, msg.meta,
        )

    def _msg_containing(self, psn: int) -> SendMessage:
        for msg in self._send_msgs:
            if msg.first_psn <= psn <= msg.last_psn:
                return msg
        raise TransportError(f"QP {self.qpn}: PSN {psn} matches no queued WQE")

    # -- retransmission timer -------------------------------------------------

    def _arm_rto(self) -> None:
        ev = self._rto_event
        if ev is not None:
            # Re-arm in place: the queued entry stays the timer's one
            # resident and its parked successor is re-keyed — no handle
            # churn, and no queue growth, on the hottest timer path.
            self.sim.reschedule(ev, self.cfg.rto)
        else:
            self._rto_event = self.sim.schedule(self.cfg.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.snd_una >= self.sq_psn:
            return  # everything acked; stale timer
        self.timeouts += 1
        if self.cfg.retransmit_mode == "irn":
            # Selective backstop: re-probe the oldest unacknowledged PSN.
            self._queue_retx(self.snd_una)
            self._retx_last[self.snd_una] = self.sim.now
        else:
            # Go-back-N from the oldest unacknowledged PSN.
            self.snd_nxt = self.snd_una
        self._next_allowed_tx = self.sim.now
        self._arm_rto()
        self._pump()

    # ------------------------------------------------------------------
    # wire ingress (called by the NIC demux)
    # ------------------------------------------------------------------

    def handle_packet(self, pkt: Packet) -> None:
        t = pkt.ptype
        if t == _DATA:
            self._handle_data(pkt)
        elif t == _ACK:
            self._handle_ack(pkt)
        elif t == _NACK:
            self._handle_nack(pkt)
        elif t == _CNP:
            self.cc.on_cnp()

    # -- responder side ----------------------------------------------------

    def _handle_data(self, pkt: Packet) -> None:
        if pkt.ecn:
            self._maybe_send_cnp()
        pool = self._pkt_pool
        if pkt.psn == self.rq_psn:
            self._nack_pending = False
            self.rq_psn += 1
            self._deliver(pkt)
            self._inorder_since_ack += 1
            force_ack = pkt.last
            pool.release(pkt)  # delivered: consumers keep meta, not pkt
            # IRN: the gap just filled — drain the buffered run.
            while self._ooo_buffer and self.rq_psn in self._ooo_buffer:
                buffered = self._ooo_buffer.pop(self.rq_psn)
                self.rq_psn += 1
                self._deliver(buffered)
                self._inorder_since_ack += 1
                force_ack = force_ack or buffered.last
                pool.release(buffered)
            if force_ack or self._inorder_since_ack >= self.cfg.ack_coalesce:
                self._send_ack()
        elif pkt.psn < self.rq_psn:
            # Duplicate (e.g. go-back-N overshoot, or an IRN retransmit
            # another group member needed): re-ack, never re-deliver.
            self._send_ack()
            pool.release(pkt)
        elif self.cfg.retransmit_mode == "irn":
            # Selective repeat: buffer out of order, NACK the gap head on
            # every arrival (the sender dedupes retransmits).
            if pkt.psn not in self._ooo_buffer:
                self._ooo_buffer[pkt.psn] = pkt  # retained: do NOT recycle
            else:
                pool.release(pkt)  # duplicate of an already-buffered PSN
            self._send_nack()
        else:
            # Sequence gap: one NACK per go-back-N round (CX-5 behaviour).
            if not self._nack_pending:
                self._nack_pending = True
                self._send_nack()
            pool.release(pkt)

    def _deliver(self, pkt: Packet) -> None:
        if self.bus.deliver:
            self.bus.publish("deliver", self, pkt)
        rs = self.recv
        if pkt.first:
            rs.cur_msg_id = pkt.msg_id
            rs.cur_bytes = 0
            rs.cur_write_valid = True
            if pkt.op == _WRITE and self.mr_table is not None:
                rs.cur_write_valid = self.mr_table.validate_write(
                    pkt.rkey, pkt.vaddr, pkt.payload)
        rs.cur_bytes += pkt.payload
        if pkt.last:
            rs.messages_delivered += 1
            rs.bytes_delivered += rs.cur_bytes
            if self.on_message is not None:
                self.on_message(pkt.msg_id, rs.cur_bytes, self.sim.now, pkt.meta)
            rs.cur_msg_id = None

    def _send_ack(self) -> None:
        self._inorder_since_ack = 0
        self.acks_sent += 1
        ack = self._pkt_pool.acquire_fb(
            _ACK, self.nic.ip, self.dst_ip,
            self.qpn, self.dst_qp, self.rq_psn - 1, self.sim.now)
        self.nic.send(ack)

    def _send_nack(self) -> None:
        self.nacks_sent += 1
        nack = self._pkt_pool.acquire_fb(
            _NACK, self.nic.ip, self.dst_ip,
            self.qpn, self.dst_qp, self.rq_psn, self.sim.now)
        self.nic.send(nack)

    def _maybe_send_cnp(self) -> None:
        now = self.sim.now
        if now - self._last_cnp_time < _CNP_MIN_INTERVAL:
            return
        self._last_cnp_time = now
        self.cnps_sent += 1
        cnp = self._pkt_pool.acquire_fb(
            _CNP, self.nic.ip, self.dst_ip,
            self.qpn, self.dst_qp, 0, now)
        self.nic.send(cnp)

    # -- requester side (feedback processing) ----------------------------------

    def _handle_ack(self, pkt: Packet) -> None:
        self.acks_received += 1
        new_una = pkt.psn + 1
        if new_una > self.snd_una:
            self.snd_una = new_una
            if self.snd_nxt < self.snd_una:
                self.snd_nxt = self.snd_una
            self._complete_acked()
            if len(self._retx_last) > 64:
                self._retx_last = {p: t for p, t in self._retx_last.items()
                                   if p >= self.snd_una}
            if self.send_idle:
                self._cancel_rto()
                self.cc.stop()
            else:
                self._arm_rto()
            self._pump()

    def _handle_nack(self, pkt: Packet) -> None:
        """ePSN semantics: everything below pkt.psn is acknowledged; the
        stream must restart at pkt.psn (go-back-N)."""
        self.nacks_received += 1
        epsn = pkt.psn
        if epsn > self.snd_una:
            self.snd_una = epsn
            self._complete_acked()
        if self.cfg.retransmit_mode == "irn":
            # Selective repeat: resend just the missing PSN, rate-guarded
            # so repeated NACKs for one gap don't stampede.
            if epsn >= self.snd_una and epsn < self.snd_nxt:
                last = self._retx_last.get(epsn, -1e9)
                if self.sim.now - last >= _IRN_RETX_GUARD:
                    self._retx_last[epsn] = self.sim.now
                    self._queue_retx(epsn)
            self._arm_rto()
            self._pump()
            return
        # A NACK whose ePSN is below snd_una is stale (those PSNs are
        # already acknowledged and their WQEs reaped); never rewind
        # behind the acknowledged prefix.
        target = max(epsn, self.snd_una)
        if target < self.snd_nxt:
            self.snd_nxt = target
            self._next_allowed_tx = self.sim.now
        self._arm_rto()
        self._pump()

    def _queue_retx(self, psn: int) -> None:
        """IRN: queue one selective retransmit (deduped); the first one
        builds the queue."""
        queue = self._retx_queue
        if queue is None:
            queue = self._retx_queue = deque()
        if psn not in queue:
            queue.append(psn)

    def _complete_acked(self) -> None:
        while self._send_msgs and self._send_msgs[0].last_psn < self.snd_una:
            msg = self._send_msgs.popleft()
            if msg.on_complete is not None:
                msg.on_complete(msg.msg_id, self.sim.now)

    # ------------------------------------------------------------------
    # PSN synchronization hooks (Cepheus source switching, §III-E)
    # ------------------------------------------------------------------

    def sync_as_new_source(self) -> None:
        """New source: sqPSN <- rqPSN (and align the send pointers)."""
        if not self.send_idle:
            raise QPStateError("cannot switch source with unacked data")
        self.sq_psn = self.snd_una = self.snd_nxt = self.rq_psn

    def sync_as_old_source(self) -> None:
        """Old source: rqPSN <- sqPSN."""
        self.resync_rx(self.sq_psn)

    def resync_rx(self, psn: int) -> None:
        """Re-base the receive side at ``psn``: the next packet expected.

        The one receive-side stream re-position (old source, joiner,
        recovery re-send): whatever was pending against the old
        position — a latched NACK, IRN's out-of-order buffer — is
        forgotten with it.
        """
        self.rq_psn = psn
        self._nack_pending = False
        self._ooo_buffer.clear()

    def abort_sends(self) -> None:
        """Drop every queued and unacknowledged WQE without completing it.

        Used by the safeguard fallback (§V-D) to stop a transfer the
        fabric can no longer deliver.  The QP stays usable; the stream
        position jumps to the end of the aborted WQEs so no stale
        retransmission timer keeps the simulation alive.
        """
        self._send_msgs = self._retx_queue = None
        self.snd_una = self.snd_nxt = self.sq_psn
        self._retx_last.clear()
        self._cancel_rto()
        if self._tx_event is not None:
            self._tx_event.cancel()
            self._tx_event = None
        self.cc.stop()

    def close(self) -> None:
        """Tear the QP down and cancel every timer."""
        self.state = QpStateName.RESET
        self._cancel_rto()
        if self._tx_event is not None:
            self._tx_event.cancel()
            self._tx_event = None
        self.cc.stop()
        self.nic.deregister_qp(self.qpn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RoceQP {self.nic.name}:{self.qpn} -> {self.dst_ip}:{self.dst_qp} "
                f"una={self.snd_una} nxt={self.snd_nxt} sq={self.sq_psn} rq={self.rq_psn}>")
