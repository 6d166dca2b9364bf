"""Multicast group management: McstIDs, membership, PSN-synced sources.

A multicast task sets up one :class:`MulticastGroup` with a unique
32-bit McstID drawn from the reserved range; every member establishes a
single RoCE RC connection whose remote is the *virtual* tuple
``<McstID, 0x1>`` (§III-A).  The group object also implements the
§III-E source-switching procedure: PSN synchronization between the old
and new source hosts (the in-network side is handled by the
accelerator's ingress-port detection).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro import constants
from repro.errors import GroupError
from repro.transport.roce import RoceQP

__all__ = ["MemberRecord", "McstIdAllocator", "MulticastGroup"]


@dataclass(frozen=True)
class MemberRecord:
    """The per-member connection info carried in MRP packets (Fig. 5),
    extended with MR info for one-sided multicast WRITE (§III-B)."""

    ip: int
    qpn: int
    vaddr: int = 0
    rkey: int = 0


class McstIdAllocator:
    """Hands out McstIDs from the reserved multicast range.

    The range is finite (the top of the 32-bit IP space above
    ``MCSTID_BASE``): exhausting it raises :class:`GroupError` instead
    of silently handing out IDs that would collide with unicast
    addresses.  IDs of destroyed groups are recycled (lowest first, so
    allocation stays deterministic) — churn workloads create and tear
    down groups far faster than the range replenishes itself.
    """

    def __init__(self, base: int = constants.MCSTID_BASE,
                 capacity: Optional[int] = None) -> None:
        self.base = base
        self.capacity = ((1 << 32) - base) if capacity is None else capacity
        self._next = base
        self._free: List[int] = []      # heap of recycled IDs
        self._live: Set[int] = set()

    def allocate(self) -> int:
        if self._free:
            gid = heapq.heappop(self._free)
        elif self._next < self.base + self.capacity:
            gid = self._next
            self._next += 1
        else:
            raise GroupError(
                f"McstID range exhausted ({self.capacity} ids from "
                f"{self.base:#x}) and none released")
        self._live.add(gid)
        return gid

    def allocate_family(self, k: int) -> List[int]:
        """Allocate a k-id McstID family for a k-lane group.

        Lane 0's id is the group's McstID; lanes 1..k-1 address the
        per-lane MDTs.  The ids need not be contiguous (recycling keeps
        allocation deterministic regardless), only unique.  A partial
        failure rolls back so exhaustion never leaks ids.
        """
        if k < 1:
            raise GroupError(f"a group needs at least 1 lane, got {k}")
        ids: List[int] = []
        try:
            for _ in range(k):
                ids.append(self.allocate())
        except GroupError:
            for gid in ids:
                self.release(gid)
            raise
        return ids

    def release(self, gid: int) -> None:
        """Return a destroyed group's ID to the pool."""
        if gid not in self._live:
            raise GroupError(f"McstID {gid:#x} is not allocated "
                             f"(double release?)")
        self._live.remove(gid)
        heapq.heappush(self._free, gid)

    @property
    def live_count(self) -> int:
        return len(self._live)


class MulticastGroup:
    """Membership + per-member QPs for one multicast task.

    ``members`` maps host IP to that member's single RoCE QP.  Any
    member can be the source (§III-E); ``leader_ip`` hosts the MRP
    controller and defaults to the first member.
    """

    def __init__(
        self,
        mcst_id: int,
        members: Dict[int, RoceQP],
        leader_ip: Optional[int] = None,
        mr_info: Optional[Dict[int, "tuple[int, int]"]] = None,
        lane_ids: Optional[List[int]] = None,
        lane_members: Optional[List[Dict[int, RoceQP]]] = None,
    ) -> None:
        if len(members) < 2:
            raise GroupError("a multicast group needs at least 2 members")
        self.mcst_id = mcst_id
        self.members = dict(members)
        self.leader_ip = leader_ip if leader_ip is not None else next(iter(members))
        if self.leader_ip not in self.members:
            raise GroupError(f"leader {self.leader_ip} is not a member")
        self.mr_info = dict(mr_info or {})
        self.current_source: int = self.leader_ip
        self.registered = False
        # Membership epoch: bumped on every add/remove; MRP deltas carry
        # it so switches can order/detect stale membership updates.
        self.epoch = 0
        # -- path lanes (MRC-style k-path spraying) -----------------------
        # lane_ids[l] is the McstID addressing lane l's MDT; lane 0 IS
        # the group's own mcst_id, so a single-lane group is exactly the
        # pre-lane representation.  lane_members[l] maps ip -> the lane-l
        # QP of that member (lane 0 aliases self.members so legacy code
        # and lane code see one membership).
        self.lane_ids: List[int] = list(lane_ids) if lane_ids else [mcst_id]
        if self.lane_ids[0] != mcst_id:
            raise GroupError("lane 0 of a McstID family must be the "
                             "group's own mcst_id")
        if lane_members is not None:
            if len(lane_members) != len(self.lane_ids):
                raise GroupError("lane_members and lane_ids disagree on "
                                 "the lane count")
            self.lane_members: List[Dict[int, RoceQP]] = (
                [self.members] + [dict(m) for m in lane_members[1:]])
            for lane, qps in enumerate(self.lane_members[1:], start=1):
                if set(qps) != set(self.members):
                    raise GroupError(
                        f"lane {lane} membership differs from lane 0")
        else:
            if len(self.lane_ids) != 1:
                raise GroupError("a multi-lane group needs per-lane QPs")
            self.lane_members = [self.members]

    @property
    def paths(self) -> int:
        """Number of path lanes (k); 1 for a classic single-tree group."""
        return len(self.lane_ids)

    # -- connection establishment (§III-A 'Hosts Establishing Connections') ----

    def connect_virtual(self) -> None:
        """Point every member QP at the virtual remote <McstID, 0x1>.

        With k lanes, lane l's QPs connect to <lane_ids[l], 0x1>: each
        lane is its own virtual destination, so per-lane PSN spaces and
        per-lane feedback fall out of the existing single-tree datapath.
        """
        for lane_id, qps in zip(self.lane_ids, self.lane_members):
            for qp in qps.values():
                qp.connect(lane_id, constants.VIRTUAL_DST_QP)

    def member_records(self, lane: int = 0) -> List[MemberRecord]:
        """All members' connection info, leader included (the MDT must
        reach every potential receiver for source switching to work).
        ``lane`` selects which lane's QPNs the records carry."""
        records = []
        qps = self.lane_members[lane]
        for ip in sorted(qps):
            vaddr, rkey = self.mr_info.get(ip, (0, 0))
            records.append(MemberRecord(ip=ip, qpn=qps[ip].qpn,
                                        vaddr=vaddr, rkey=rkey))
        return records

    # -- dynamic membership (incremental MRP, §III-C) ---------------------------

    def add_member(self, ip: int, qp: RoceQP,
                   mr: Optional["tuple[int, int]"] = None,
                   lane_qps: Optional[List[RoceQP]] = None) -> None:
        """Admit a new member and bump the membership epoch.

        The caller (normally :class:`~repro.core.membership.
        MembershipManager`) is responsible for driving the JOIN delta
        that patches the MDT; this only updates the host-side view.
        With k>1 lanes, ``lane_qps`` supplies the joiner's k QPs
        (``lane_qps[0]`` must be ``qp``); every lane admits the member
        together so the family never diverges.
        """
        if ip in self.members:
            raise GroupError(f"{ip} is already a member of "
                             f"group {self.mcst_id:#x}")
        if self.paths > 1:
            if lane_qps is None or len(lane_qps) != self.paths:
                raise GroupError(
                    f"group {self.mcst_id:#x} has {self.paths} lanes; a "
                    f"join needs one QP per lane")
            if lane_qps[0] is not qp:
                raise GroupError("lane_qps[0] must be the member's "
                                 "primary (lane 0) QP")
        self.members[ip] = qp
        if mr is not None:
            self.mr_info[ip] = mr
        qp.connect(self.mcst_id, constants.VIRTUAL_DST_QP)
        for lane in range(1, self.paths):
            self.lane_members[lane][ip] = lane_qps[lane]
            lane_qps[lane].connect(self.lane_ids[lane],
                                   constants.VIRTUAL_DST_QP)
        self.epoch += 1

    def remove_member(self, ip: int) -> RoceQP:
        """Retire a member (voluntary leave or failure prune).

        The leader (it hosts the MRP controller) and the current source
        (the MDT's root for in-flight traffic) cannot be removed, and
        the group never shrinks below 2 members — multicast to one
        receiver is a plain connection.
        """
        if ip not in self.members:
            raise GroupError(f"{ip} is not a member of group {self.mcst_id:#x}")
        if ip == self.leader_ip:
            raise GroupError(f"leader {ip} cannot leave group "
                             f"{self.mcst_id:#x} (it hosts the controller)")
        if ip == self.current_source:
            raise GroupError(f"current source {ip} cannot leave group "
                             f"{self.mcst_id:#x} (switch the source first)")
        if len(self.members) <= 2:
            raise GroupError(
                f"group {self.mcst_id:#x} cannot shrink below 2 members")
        qp = self.members.pop(ip)
        for lane in range(1, self.paths):
            self.lane_members[lane].pop(ip, None)
        self.mr_info.pop(ip, None)
        self.epoch += 1
        return qp

    @property
    def size(self) -> int:
        return len(self.members)

    def receivers(self) -> List[int]:
        """Everyone but the current source."""
        return [ip for ip in self.members if ip != self.current_source]

    def qp_of(self, ip: int) -> RoceQP:
        try:
            return self.members[ip]
        except KeyError:
            raise GroupError(f"{ip} is not a member of group {self.mcst_id:#x}")

    # -- source switching (§III-E) -----------------------------------------------

    def switch_source(self, new_source_ip: int) -> None:
        """PSN synchronization between the old and the new source.

        Old source: ``rqPSN <- sqPSN`` (it will now verify incoming
        packets that continue its own outgoing numbering).  New source:
        ``sqPSN <- rqPSN`` (it continues the stream where it left off as
        a receiver).  The switches need no signalling — they detect the
        new ingress port from the data itself.
        """
        if new_source_ip not in self.members:
            raise GroupError(f"{new_source_ip} is not a member")
        if new_source_ip == self.current_source:
            return
        old_qp = self.members[self.current_source]
        new_qp = self.members[new_source_ip]
        old_qp.sync_as_old_source()
        new_qp.sync_as_new_source()
        self.current_source = new_source_ip
