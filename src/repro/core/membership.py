"""Dynamic group membership: incremental MRP join/leave/prune (§III-C).

The paper's MRP is a hop-by-hop *registration protocol* over an
evolving multicast distribution tree — a long-lived group (pub/sub
topics, storage replica sets) gains and loses receivers at runtime.
This module adds that lifecycle on top of the static registration path:

* a :class:`MembershipManager` per group computes the minimal MDT delta
  for a JOIN/LEAVE/PRUNE request and drives it as an incremental
  :class:`~repro.core.mrp.MrpTransaction` — the same state machine a
  full registration runs, carrying only the affected members' records
  plus the group's membership *epoch*.  Switches patch only the
  affected MFT entries instead of reinstalling the tree
  (`mrp_records_installed` on the accelerators shows the economy);
  ops arriving within one ``coalesce_window`` share one transaction;
* on LEAVE/PRUNE each switch on the member's branch drains the member
  from its port-member set, removes the Path Table entry once the port
  serves nobody, and **re-evaluates the pending aggregate** — removing
  the minimum AckPSN path must release any min-AckPSN/MePSN state that
  was gating in-flight transfers (§III-D).  The member's *leaf* switch
  confirms the transaction to the controller on the member's behalf, so
  pruning completes even when the member host is dead;
* a leaf-driven **failure detector** (missed-feedback timeout) watches
  each receiver's per-path AckPSN at its leaf while the source has
  outstanding data; a receiver whose feedback stagnates for
  ``misses`` consecutive probe intervals is auto-pruned.  A delta that
  cannot be installed (switch error / confirmation timeout after
  retries) trips the group's :class:`~repro.core.fallback.
  SafeguardMonitor`, the §V-D escape hatch.

JOIN stream position: a joiner is not owed the PSNs emitted before it
existed.  Its ``rqPSN`` is synchronized to the source's ``sqPSN`` (the
same primitive as §III-E source switching) and its fresh MFT entries
start at the group's current AggAckPSN, so an in-flight transfer
neither stalls on the newcomer nor delivers it a partial message.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.group import MemberRecord, MulticastGroup
from repro.core.mrp import MrpError, MrpTransaction
from repro.errors import GroupError
from repro.net.simulator import Event

__all__ = ["MembershipManager"]


class MembershipManager:
    """Runtime membership controller for one registered group.

    Lives on the leader host and takes over the group's
    :class:`~repro.core.mrp.HostControlAgent` endpoint from the
    finished registration: each confirmation is routed to the in-flight
    delta transaction naming that member.
    """

    def __init__(self, fabric, group: MulticastGroup, *,
                 delta_timeout: float = 2e-3, delta_retries: int = 1,
                 coalesce_window: Optional[float] = None) -> None:
        self.fabric = fabric
        self.group = group
        self.sim = fabric.sim
        self.nic = fabric.topo.nic(group.leader_ip)
        self.delta_timeout = delta_timeout
        self.delta_retries = delta_retries
        #: Batch join/leave/prune records arriving within this many
        #: virtual seconds into one multi-record MRP delta.  ``None``
        #: (the default) closes the window at once: one delta per op,
        #: started synchronously, no flush event.
        self.coalesce_window = coalesce_window
        self.safeguard = None                 # optional SafeguardMonitor
        #: Called with every delta once it resolves or fails.
        self.on_delta_done: Optional[Callable[[MrpTransaction], None]] = None
        self.pruned: Set[int] = set()
        self.delta_failures: List[Tuple[str, int, str]] = []  # (op, ip, why)
        #: (epoch, op, ip) log of applied membership changes.
        self.epoch_log: List[Tuple[int, str, int]] = []
        #: Control-plane cost counters: MRP delta packets this controller
        #: emitted (retries included) / confirmations received / ops
        #: requested — the broker-fabric scenario's overhead metrics and
        #: the coalescing-reduction report read these.
        self.mrp_deltas_sent = 0
        self.mrp_confirms_rx = 0
        self.membership_ops = 0
        self._inflight: Dict[int, MrpTransaction] = {}   # ip -> started delta
        self._pending: Dict[str, MrpTransaction] = {}    # op -> unstarted delta
        self._pending_ips: Set[int] = set()
        self._flush_ev: Optional[Event] = None
        # failure detector state: ip -> (last AckPSN seen at leaf, strikes)
        self._fd_marks: Dict[int, "Tuple[Optional[int], int]"] = {}
        self._fd_ev: Optional[Event] = None
        fabric.agents[group.leader_ip].attach_controller(self)

    # -- control-plane dispatch (HostControlAgent protocol) --------------------

    def on_confirm(self, mcst_id: int, member_ip: int) -> None:
        self.mrp_confirms_rx += 1
        delta = self._inflight.get(member_ip)
        if delta is not None:
            delta.on_confirm(mcst_id, member_ip)

    def on_switch_error(self, err: MrpError) -> None:
        # A switch error names the group, not the member: fail every
        # in-flight delta (they share the MDT that just rejected state).
        for delta in {id(d): d for d in self._inflight.values()}.values():
            delta.on_switch_error(err)

    def _count_packet(self) -> None:
        self.mrp_deltas_sent += 1

    def _delta_finished(self, delta: MrpTransaction) -> None:
        for ip in delta.ips():
            if self._inflight.get(ip) is delta:
                del self._inflight[ip]
        if delta.failed_reason is not None:
            failed = delta.unconfirmed()
            for ip in failed:
                self.delta_failures.append(
                    (delta.op, ip, delta.failed_reason))
            if self.safeguard is not None:
                who = failed[0] if len(failed) == 1 else sorted(failed)
                self.safeguard.trip(
                    f"membership {delta.op}({who}) failed: "
                    f"{delta.failed_reason}")
        if self.on_delta_done is not None:
            self.on_delta_done(delta)

    # -- delta coalescing -------------------------------------------------------

    def has_inflight(self, ip: int) -> bool:
        """True while ``ip`` has a delta in flight *or* pending in an
        unflushed coalescing batch (callers gate churn on this)."""
        return ip in self._inflight or ip in self._pending_ips

    def is_batched(self, ip: int) -> bool:
        """True while ``ip``'s op waits in an unflushed coalescing batch
        (a joiner's stream is re-based at the flush, past every message
        posted meanwhile)."""
        return ip in self._pending_ips

    def _enqueue(self, op: str, record: MemberRecord,
                 on_done: Optional[Callable[[MrpTransaction], None]]
                 ) -> MrpTransaction:
        """Fold the op into this window's batch of its kind.

        The host-side group state (membership dict, epoch, PSN sync) is
        already applied by the caller — only the MDT patch is deferred.
        Conflicts (any second op on a member whose delta is still
        pending or in flight) were rejected by the op entry points
        *before* the host-side mutation, so every record arriving here
        is for a distinct member.
        """
        self.membership_ops += 1
        self.epoch_log.append((self.group.epoch, op, record.ip))
        delta = self._pending.get(op)
        if delta is None:
            delta = self._pending[op] = MrpTransaction(
                self.sim, self.group, self.nic, op, [record],
                epoch=self.group.epoch, timeout=self.delta_timeout,
                retries=self.delta_retries, on_done=self._delta_finished,
                on_packet=self._count_packet,
            )
        else:
            delta.add_record(record, self.group.epoch)
        if on_done is not None:
            delta.done_cbs.append(on_done)
        self._pending_ips.add(record.ip)
        if self.coalesce_window is None:
            self.flush_pending()
        elif self._flush_ev is None:
            self._flush_ev = self.sim.schedule(
                self.coalesce_window, self.flush_pending)
        return delta

    def flush_pending(self) -> None:
        """Close the coalescing window: start every batched delta."""
        if self._flush_ev is not None:
            self._flush_ev.cancel()
            self._flush_ev = None
        if not self._pending:
            return
        batches = [self._pending[op] for op in ("join", "leave", "prune")
                   if op in self._pending]
        self._pending.clear()
        self._pending_ips.clear()
        for delta in batches:
            if delta.op == "join":
                # Re-base each joiner's stream position to NOW, not to
                # enqueue time: the JOIN delta travels the same FIFO
                # queues as data, so every packet posted after this emit
                # reaches the leaf behind the MFT install — but packets
                # posted *inside* the window outran it, and a stale
                # rq_psn would make the joiner NACK the gap and drag the
                # whole group through a retransmission rewind.  Every
                # lane re-bases against its own source QP: the lanes
                # carry independent PSN spaces.
                for lane_qps in self.group.lane_members:
                    src_qp = lane_qps[self.group.current_source]
                    for ip in delta.ips():
                        qp = lane_qps.get(ip)
                        if qp is not None:
                            qp.resync_rx(src_qp.sq_psn)
            for ip in delta.ips():
                self._inflight[ip] = delta
            delta.start()

    # -- join / leave / prune ---------------------------------------------------

    def join(self, ip: int, qp, mr: Optional["tuple[int, int]"] = None, *,
             lane_qps: Optional[List] = None,
             on_done: Optional[Callable[[MrpTransaction], None]] = None
             ) -> MrpTransaction:
        """Admit ``ip`` and patch the MDT with a JOIN delta.

        For a k-lane group ``lane_qps`` supplies the joiner's k QPs
        (``lane_qps[0]`` is ``qp``); one coalesced transaction patches
        all k MDTs."""
        # Reject before mutating host-side state: a raise after
        # add_member would leave the group and the MDT diverged.
        if self.has_inflight(ip):
            raise GroupError(
                f"a membership delta for {ip} is already in flight")
        self.group.add_member(ip, qp, mr, lane_qps=lane_qps)
        self._refresh_sr_header()
        # Stream-position sync (§III-E): the joiner expects the *next*
        # PSN the source will emit, skipping anything already posted.
        # Each lane syncs against its own source QP (independent PSN
        # spaces per lane).
        src = self.group.current_source
        for lane in self.group.lane_members:
            lane[ip].resync_rx(lane[src].sq_psn)
        self._notify_epoch(qp)
        vaddr, rkey = self.group.mr_info.get(ip, (0, 0))
        record = MemberRecord(ip=ip, qpn=qp.qpn, vaddr=vaddr, rkey=rkey)
        return self._enqueue("join", record, on_done)

    def leave(self, ip: int, *,
              on_done: Optional[Callable[[MrpTransaction], None]] = None
              ) -> MrpTransaction:
        """Voluntary departure: retire the member, patch the MDT."""
        return self._remove(ip, "leave", on_done)

    def prune(self, ip: int, reason: str = "", *,
              on_done: Optional[Callable[[MrpTransaction], None]] = None
              ) -> MrpTransaction:
        """Controller-initiated eviction of a (presumed dead) member."""
        delta = self._remove(ip, "prune", on_done)
        self.pruned.add(ip)
        return delta

    def _remove(self, ip: int, op: str,
                on_done: Optional[Callable[[MrpTransaction], None]]
                ) -> MrpTransaction:
        if self.has_inflight(ip):
            raise GroupError(
                f"a membership delta for {ip} is already in flight")
        qp = self.group.qp_of(ip)
        qpn = qp.qpn
        self.group.remove_member(ip)   # raises for leader/source/size-2
        self._refresh_sr_header()
        self._notify_epoch(qp)
        self._fd_marks.pop(ip, None)
        record = MemberRecord(ip=ip, qpn=qpn)
        return self._enqueue(op, record, on_done)

    def _refresh_sr_header(self) -> None:
        """Source-routed deployment: a membership change re-encodes
        every lane's header at the new epoch.  Senders stamp the new
        header from the next packet on; switches retire the old tree's
        soft state when the higher epoch flows past them."""
        sr = self.fabric.source_routing
        if sr is not None:
            sr.refresh(self.group)

    def _notify_epoch(self, qp) -> None:
        """Publish that the QP changed membership epoch (its PSN stream
        position is re-based, not corrupted); the invariant monitor
        subscribes to re-baseline its per-QP PSN tracking."""
        bus = qp.bus
        if bus.membership_epoch:
            bus.publish("membership_epoch", qp, self.group.epoch)

    # -- synchronous wrappers (setup/test convenience) --------------------------

    def join_sync(self, ip: int, qp,
                  mr: Optional["tuple[int, int]"] = None, *,
                  lane_qps: Optional[List] = None) -> None:
        self.join(ip, qp, mr, lane_qps=lane_qps).run_until_resolved()

    def leave_sync(self, ip: int) -> None:
        self.leave(ip).run_until_resolved()

    # -- leaf-driven failure detector ------------------------------------------

    def start_failure_detector(self, *, interval: float = 150e-6,
                               misses: int = 3) -> None:
        """Auto-prune receivers whose leaf-observed feedback stagnates.

        Every ``interval`` the detector reads each receiver's AckPSN at
        its leaf MFT entry *while the source has outstanding data* (an
        idle source legitimately produces silence).  ``misses``
        consecutive stagnant probes mark the receiver dead.  A prune
        that cannot proceed (the group would fall below 2 members)
        trips the safeguard instead — the group cannot heal itself.
        """
        self.stop_failure_detector()
        self._fd_interval = interval
        self._fd_misses = misses
        self._fd_ev = self.sim.schedule(interval, self._fd_tick)

    def stop_failure_detector(self) -> None:
        if self._fd_ev is not None:
            self._fd_ev.cancel()
            self._fd_ev = None

    def _fd_tick(self) -> None:
        self._fd_ev = self.sim.schedule(self._fd_interval, self._fd_tick)
        src_ip = self.group.current_source
        src_qp = self.group.members[src_ip]
        if src_qp.send_idle:
            # No outstanding data: feedback silence is expected.
            self._fd_marks.clear()
            return
        for ip in list(self.group.receivers()):
            if ip in self._inflight:
                continue
            ack = self._leaf_ack_psn(ip)
            if ack is None:
                continue   # leaf not accelerated / already patched out
            if ack >= src_qp.sq_psn - 1:
                # Fully caught up with everything posted: a plateau here
                # is completion, not missed feedback (the source may be
                # blocked on a *different* receiver's silence).
                self._fd_marks[ip] = (ack, 0)
                continue
            last, strikes = self._fd_marks.get(ip, (None, 0))
            if ack != last:
                self._fd_marks[ip] = (ack, 0)
                continue
            strikes += 1
            self._fd_marks[ip] = (ack, strikes)
            if strikes >= self._fd_misses:
                try:
                    self.prune(ip, reason=f"no feedback for {strikes} "
                                          f"probe intervals")
                except GroupError as exc:
                    self.delta_failures.append(("prune", ip, str(exc)))
                    if self.safeguard is not None:
                        self.safeguard.trip(
                            f"cannot prune dead receiver {ip}: {exc}")
                    self._fd_marks.pop(ip, None)

    def _leaf_ack_psn(self, ip: int) -> Optional[int]:
        """The receiver's per-path AckPSN at its leaf switch (the
        leaf-driven missed-feedback signal, modeled at the controller)."""
        leaf, port = self.fabric.topo.leaf_of(ip)
        accel = self.fabric.accelerators.get(leaf.name)
        if accel is None:
            return None
        mft = accel.mft_of(self.group.mcst_id)
        if mft is None:
            return None
        entry = mft.entry(port)
        return None if entry is None else entry.ack_psn
