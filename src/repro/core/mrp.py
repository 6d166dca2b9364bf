"""MFT Registration Protocol (MRP), §III-C.

MRP is the paper's UDP-based control protocol that installs the MFT on
every switch of the multicast distribution tree, hop by hop:

1. the **controller** on the leader host gathers every member's
   <IP, QPN> (plus MR info for WRITE) out-of-band;
2. it encapsulates them into MRP packets — at most
   :data:`~repro.constants.MRP_NODES_PER_PACKET` member records each,
   because MRP is constrained to the 1500-byte Ethernet MTU (Fig. 5) —
   addressed to the McstID, and sends them to its leaf switch;
3. each switch patches its local MFT (reuse-then-least-loaded port
   selection) and forwards per-port sub-MRPs downstream
   (that walk lives in :mod:`repro.core.accelerator`);
4. each receiver that finds its own IP in an MRP packet — or, for a
   departure, the member's leaf on its behalf — confirms to the
   controller; the transaction completes when all confirmations
   arrive, or fails on timeout / an explicit switch error (MFT memory
   exhausted), which is a safeguard-fallback trigger.

There is one controller-side state machine, :class:`MrpTransaction`,
for all four operations (:data:`MRP_OPS`): full registration and the
incremental join/leave/prune deltas differ only in which member records
they carry.  A k-lane group is one transaction too — the records are
emitted once per lane McstID and every (lane, member) pair must
confirm — so a lane failure fails the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro import constants
from repro.core.group import MemberRecord, MulticastGroup
from repro.errors import GroupError, RegistrationError
from repro.net.nic import Nic
from repro.net.packet import Packet, PacketType
from repro.net.simulator import Event, Simulator

__all__ = ["MrpPayload", "MrpError", "MrpTransaction", "HostControlAgent",
           "chunk_records", "MRP_OPS"]

#: Fixed MRP header bytes (metadata: McstID, seq, total, controller IP).
_MRP_METADATA_BYTES = 16
#: Bytes per member record on the wire (IP 4 + QPN 3 + padding 1).
_MRP_NODE_BYTES = 8
#: Out-of-band gathering of member <IP, QPN> before a registration.
_GATHER_DELAY_S = 5e-6


#: MRP operations.  ``register`` installs the full tree (§III-C);
#: ``join`` is an incremental single-member install that patches only
#: the affected switches; ``leave``/``prune`` remove a member's entries
#: hop by hop (``prune`` marks a controller-initiated eviction of a
#: dead receiver — identical on-switch, distinct for provenance).
MRP_OPS = ("register", "join", "leave", "prune")


@dataclass
class MrpPayload:
    """In-simulation representation of the Fig. 5 packet layout.

    ``op`` and ``epoch`` ride in the 16-byte metadata header (2 spare
    bytes in the Fig. 5 layout), so delta packets cost no extra wire
    bytes over a plain registration chunk.  ``lane``/``nlanes``
    likewise ride in reserved header bits: a k-lane group registers k
    MDTs, one per lane McstID, and for ``nlanes > 1`` the accelerator
    resolves ECMP next hops per lane (``Topology.lane_port``) so the
    lanes land on edge-disjoint uplinks.  ``lane=0, nlanes=1`` is a
    classic single-tree registration.
    """

    mcst_id: int
    seq: int
    total: int
    controller_ip: int
    nodes: List[MemberRecord]
    op: str = "register"
    epoch: int = 0
    lane: int = 0
    nlanes: int = 1

    def wire_bytes(self) -> int:
        return _MRP_METADATA_BYTES + _MRP_NODE_BYTES * len(self.nodes)


@dataclass
class MrpError:
    """Carried by a CTRL packet when a switch rejects a registration."""

    mcst_id: int
    reason: str
    switch_name: str


def chunk_records(records: List[MemberRecord],
                  per_packet: int = constants.MRP_NODES_PER_PACKET
                  ) -> List[List[MemberRecord]]:
    """Split the member list across MRP packets (MTU limit, §III-C)."""
    if per_packet <= 0:
        raise RegistrationError(f"invalid MRP chunk size {per_packet}")
    return [records[i:i + per_packet] for i in range(0, len(records), per_packet)]


class HostControlAgent:
    """Per-host control-plane agent.

    Owns the NIC's control handler and multiplexes it: it answers MRP
    membership affirmations automatically and routes confirmations and
    switch errors to the local controller of the McstID they name —
    an :class:`MrpTransaction`, or the group's membership manager.
    """

    def __init__(self, nic: Nic) -> None:
        self.nic = nic
        self.nic.control_handler = self._dispatch
        self._controllers: Dict[int, object] = {}
        self.mrp_seen: Set[int] = set()  # group ids this host affirmed

    def attach_controller(self, ctl) -> None:
        """Route confirmations/errors for every lane McstID of
        ``ctl.group`` to ``ctl.on_confirm(mcst_id, member_ip)`` /
        ``ctl.on_switch_error(err)``."""
        for mcst_id in ctl.group.lane_ids:
            self._controllers[mcst_id] = ctl

    def detach_controller(self, group: MulticastGroup) -> None:
        for mcst_id in group.lane_ids:
            self._controllers.pop(mcst_id, None)

    def _dispatch(self, pkt: Packet) -> None:
        if pkt.ptype == PacketType.MRP:
            self._handle_mrp(pkt)
        elif pkt.ptype == PacketType.MRP_CONFIRM:
            ctl = self._controllers.get(pkt.meta[0]) if pkt.meta else None
            if ctl is not None:
                ctl.on_confirm(*pkt.meta)
        elif pkt.ptype == PacketType.CTRL and isinstance(pkt.meta, MrpError):
            ctl = self._controllers.get(pkt.meta.mcst_id)
            if ctl is not None:
                ctl.on_switch_error(pkt.meta)

    def _handle_mrp(self, pkt: Packet) -> None:
        payload: MrpPayload = pkt.mrp
        my_ip = self.nic.ip
        if my_ip == payload.controller_ip:
            return  # the controller needs no affirmation from itself
        if any(rec.ip == my_ip for rec in payload.nodes):
            self.mrp_seen.add(payload.mcst_id)
            confirm = Packet(
                PacketType.MRP_CONFIRM, my_ip, payload.controller_ip,
                payload=16, meta=(payload.mcst_id, my_ip),
                created_at=self.nic.sim.now,
            )
            self.nic.send(confirm)


class MrpTransaction:
    """One MRP transaction run by the controller on the leader host.

    ``op`` is one of :data:`MRP_OPS`.  ``register`` carries the whole
    member list, gathered when the transaction begins (``records`` is
    ignored); ``join``/``leave``/``prune`` carry the ``records`` of the
    members the delta names, and the membership manager may fold more
    in with :meth:`add_record` until :meth:`start`.

    The records are emitted once per lane (addressed to the lane's own
    McstID, carrying that lane's QPNs) and the transaction resolves
    once every (lane, member) pair has confirmed — or fails, as a
    whole, on the first switch error or an exhausted timeout.

    ``retries`` re-sends the (idempotent) MRP packets up to that many
    times on a confirmation timeout before giving up: MRP is UDP-based
    (§III-C), a lost control packet should not doom the group.

    ``allow_partial`` implements the probing half of the paper's
    envisioned fine-grained fallback (§V-D future work): a timeout with
    at least one confirmed member *succeeds*, and :meth:`unconfirmed`
    names the silent members so the caller can re-form the group around
    the survivors.

    Every callback in ``done_cbs`` is called with the transaction once
    it resolves (``failed_reason`` is None on success); ``on_packet``
    is called once per MRP packet put on the wire, re-sends included.
    """

    def __init__(
        self,
        sim: Simulator,
        group: MulticastGroup,
        leader_nic: Nic,
        op: str = "register",
        records: Iterable[MemberRecord] = (),
        *,
        epoch: int = 0,
        timeout: float = 10e-3,
        retries: int = 0,
        allow_partial: bool = False,
        on_done: Optional[Callable[["MrpTransaction"], None]] = None,
        on_packet: Optional[Callable[[], None]] = None,
    ) -> None:
        if op not in MRP_OPS:
            raise GroupError(f"unknown MRP op {op!r}")
        self.sim = sim
        self.group = group
        self.nic = leader_nic
        self.op = op
        self.records: List[MemberRecord] = list(records)
        self.epoch = epoch
        self.timeout = timeout
        self.retries_left = retries
        self.allow_partial = allow_partial
        self.done_cbs = [] if on_done is None else [on_done]
        self.on_packet = on_packet
        self.resends = 0
        self.finished = False
        self.failed_reason: Optional[str] = None
        self._pending: Set[Tuple[int, int]] = set()   # (lane, ip)
        self._timeout_ev: Optional[Event] = None

    def ips(self) -> List[int]:
        return [r.ip for r in self.records]

    def add_record(self, record: MemberRecord, epoch: int) -> None:
        """Coalescing: fold another member's op into this not yet
        started delta; the batch carries the latest applied epoch."""
        self.records.append(record)
        self.epoch = epoch

    # -- protocol steps ----------------------------------------------------

    def start(self) -> None:
        """Emit the MRP packets and arm the confirmation timeout.  A
        full registration first gathers every member's state
        out-of-band (step 1), which takes :data:`_GATHER_DELAY_S`."""
        if self.op == "register":
            self.sim.schedule(_GATHER_DELAY_S, self._begin)
        else:
            self._begin()

    def _begin(self) -> None:
        if self.op == "register":
            self.records = self.group.member_records()
        self._emit()
        leader = self.group.leader_ip
        self._pending = {(lane, r.ip) for lane in range(self.group.paths)
                         for r in self.records if r.ip != leader}
        self._timeout_ev = self.sim.schedule(self.timeout, self._on_timeout)
        if not self._pending:
            self._finish(None)

    def _emit(self) -> None:
        """(Re-)send the records on every lane; pending state untouched."""
        nic = self.nic
        for lane, mcst_id in enumerate(self.group.lane_ids):
            chunks = chunk_records(self._lane_records(lane))
            for seq, nodes in enumerate(chunks):
                payload = MrpPayload(
                    mcst_id=mcst_id, seq=seq, total=len(chunks),
                    controller_ip=nic.ip, nodes=nodes,
                    op=self.op, epoch=self.epoch,
                    lane=lane, nlanes=self.group.paths,
                )
                nic.send(Packet(
                    PacketType.MRP, nic.ip, mcst_id,
                    payload=payload.wire_bytes(), mrp=payload,
                    created_at=self.sim.now,
                ))
                if self.on_packet is not None:
                    self.on_packet()

    def _lane_records(self, lane: int) -> List[MemberRecord]:
        """The records carrying lane-``lane`` QPNs.  A departed member
        has no lane QP left and keeps its lane-0 QPN — switches drain
        departures by IP and never read it."""
        if lane == 0:
            return self.records
        lane_qps = self.group.lane_members[lane]
        return [replace(r, qpn=lane_qps[r.ip].qpn) if r.ip in lane_qps else r
                for r in self.records]

    # -- callbacks from the host agent ---------------------------------------

    def on_confirm(self, mcst_id: int, member_ip: int) -> None:
        if self.finished:
            return
        key = (self.group.lane_ids.index(mcst_id), member_ip)
        if key not in self._pending:
            return  # duplicate (re-sent MRP), or not a member we named
        self._pending.discard(key)
        if not self._pending:
            self._finish(None)

    def on_switch_error(self, err: MrpError) -> None:
        # Deterministic, not a lost packet: fail fast, burn no retries.
        if not self.finished:
            self._finish(f"{err.switch_name}: {err.reason}")

    def unconfirmed(self) -> List[int]:
        """Members still owing a confirmation on some lane."""
        owing = {ip for _lane, ip in self._pending}
        return [r.ip for r in self.records if r.ip in owing]

    def _on_timeout(self) -> None:
        if self.finished:
            return
        if self.retries_left > 0:
            # Switches that already patched their MFT slices simply
            # re-affirm; members that missed the first round get
            # another chance to confirm.
            self.retries_left -= 1
            self.resends += 1
            self._emit()
            self._timeout_ev = self.sim.schedule(self.timeout,
                                                 self._on_timeout)
            return
        missing = self.unconfirmed()
        expected = sum(r.ip != self.group.leader_ip for r in self.records)
        if self.allow_partial and len(missing) < expected:
            self._finish(None)
            return
        self._finish(f"timeout waiting for {self.op} confirmations "
                     f"from {sorted(missing)}")

    # -- completion --------------------------------------------------------------

    def _finish(self, reason: Optional[str]) -> None:
        self.finished = True
        self.failed_reason = reason
        if reason is None and self.op == "register":
            self.group.registered = True
        if self._timeout_ev is not None:
            self._timeout_ev.cancel()
            self._timeout_ev = None
        for cb in self.done_cbs:
            cb(self)

    def run_until_resolved(self) -> "MrpTransaction":
        """Step the simulator until the transaction resolves; raises
        :class:`RegistrationError` if it failed.  Setup/test
        convenience — the timeout event guarantees progress."""
        while not self.finished:
            nxt = self.sim.peek_next_time()
            if nxt is None:
                raise RegistrationError(
                    f"MRP {self.op} stalled: no pending events")
            self.sim.run(until=nxt)
        if self.failed_reason is not None:
            raise RegistrationError(self.failed_reason)
        return self
