"""Multicast Forwarding Table (MFT), §III-B.

One :class:`Mft` exists per multicast group per switch and has the two
components of Fig. 3:

* **Path Index** — an array of ``n_ports`` slots; slot *i* is zero when
  port *i* is not in the multicast distribution tree (MDT), otherwise
  it holds (index+1) into the Path Table.
* **Path Table** — one :class:`PathEntry` per outgoing MDT path.  A
  host-facing entry carries the receiver's real <dstIP, dstQP> (and MR
  info for one-sided WRITE) used for connection bridging; a
  switch-facing entry leaves them invalid.  *Every* entry carries an
  ``AckPSN`` — the largest cumulative PSN acknowledged by that whole
  subtree — which is what makes the ACK state *hierarchical* and the
  per-switch memory bound independent of group size.

Group-level feedback state (AggAckPSN, triPort, AckOutPort, MePSN, the
CNP congestion counters) also lives here, because the paper stores it
alongside the MFT in the accelerator's BRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, ItemsView, Iterator, List, Optional, Set

from repro.errors import GroupError, RegistrationError

__all__ = ["PathEntry", "Mft", "MftTable"]

#: Sentinel for "no ACK seen yet" (PSNs start at 0).
NO_ACK = -1


@dataclass(slots=True)
class PathEntry:
    """One outgoing path of the MDT (Fig. 3, Path Table row).

    Slotted: switches materialize one per tree port per group, and the
    scaling experiments create them by the hundred thousand."""

    port: int
    is_host: bool
    dst_ip: int = 0          # receiver IP   (valid only when is_host)
    dst_qp: int = 0          # receiver QPN  (valid only when is_host)
    vaddr: int = 0           # receiver MR base VA (WRITE support)
    rkey: int = 0            # receiver MR rkey    (WRITE support)
    ack_psn: int = NO_ACK    # largest cumulative PSN acked by this path


class Mft:
    """Per-group forwarding + feedback state on one switch.

    Slotted: the feedback engine reads its fields on every ACK, and a
    fabric holds one per group per switch on the group's tree (about
    1,400 in perfbench's pubsub_churn)."""

    __slots__ = (
        "mcst_id", "n_ports", "path_index", "path_table",
        "agg_ack_psn", "tri_port", "ack_out_port", "me_psn",
        "src_ip", "src_qp", "cnp_counters", "cnp_window_start",
        "cnp_max_port", "mode", "reduce_slots", "epoch",
        "port_members", "member_port", "loaded_ports", "_min_port",
    )

    def __init__(self, mcst_id: int, n_ports: int) -> None:
        self.mcst_id = mcst_id
        self.n_ports = n_ports
        self.path_index: List[int] = [0] * n_ports
        self.path_table: List[PathEntry] = []
        # --- group-level feedback state (§III-D) ---
        self.agg_ack_psn: int = NO_ACK   # largest aggregated ACK emitted
        self.tri_port: Optional[int] = None
        self.ack_out_port: Optional[int] = None  # toward the current source
        self.me_psn: Optional[int] = None        # min ePSN since last NACK out
        self.src_ip: Optional[int] = None        # observed sender (for final rewrite)
        self.src_qp: Optional[int] = None
        # --- CNP filter state (§III-D Congestion Control) ---
        self.cnp_counters: Dict[int, int] = {}
        self.cnp_window_start: float = 0.0
        self.cnp_max_port: Optional[int] = None  # designated hottest link
        # --- experimental many-to-one mode (§VIII future work) ---
        # "bcast": replicate down / aggregate feedback up (the paper).
        # "reduce": combine data up / replicate feedback down (the dual).
        self.mode: str = "bcast"
        # per-PSN contribution tracking for reduce mode:
        # psn -> set of tree ports that have contributed
        self.reduce_slots: Dict[int, set] = {}
        # --- dynamic membership state (incremental MRP, §III-C) ---
        # Monotonic membership epoch: every JOIN/LEAVE/PRUNE delta the
        # controller issues carries the group's epoch; the switch keeps
        # the maximum it has seen so out-of-order deltas are detectable.
        self.epoch: int = 0
        # Which member IPs each MDT port serves — the routing state a
        # LEAVE/PRUNE delta needs to find the affected entry without a
        # full tree recomputation.  An entry is only removed once its
        # member set drains.
        self.port_members: Dict[int, Set[int]] = {}
        # Reverse index of port_members: member IP -> serving MDT port.
        # LEAVE/PRUNE resolves the affected entry with one dict probe
        # instead of scanning every port's member set — the broker-fabric
        # scenario retires thousands of members per group per run, which
        # made the linear scan a measurable hot path.  Kept in lockstep
        # with port_members by the accelerator's MRP handlers.
        self.member_port: Dict[int, int] = {}
        # Ports whose group-load counter this MFT incremented at
        # registration time (so teardown/prune can decrement exactly).
        self.loaded_ports: Set[int] = set()
        # Port that owned the minimum in the last min_ack_psn() call.
        self._min_port: Optional[int] = None

    # -- path management -------------------------------------------------------

    def has_port(self, port: int) -> bool:
        return self.path_index[port] != 0

    def entry(self, port: int) -> Optional[PathEntry]:
        idx = self.path_index[port]
        return self.path_table[idx - 1] if idx else None

    def add_entry(self, entry: PathEntry) -> PathEntry:
        """Install an entry; idempotent per port (first write wins for the
        switch kind, host info may upgrade a bare entry)."""
        existing = self.entry(entry.port)
        if existing is not None:
            if entry.is_host and not existing.is_host:
                existing.is_host = True
                existing.dst_ip = entry.dst_ip
                existing.dst_qp = entry.dst_qp
                existing.vaddr = entry.vaddr
                existing.rkey = entry.rkey
            return existing
        if len(self.path_table) >= self.n_ports:
            raise GroupError(
                f"MFT for group {self.mcst_id:#x} exceeded {self.n_ports} paths")
        self.path_table.append(entry)
        self.path_index[entry.port] = len(self.path_table)
        return entry

    def remove_entry(self, port: int) -> Optional[PathEntry]:
        """Remove the MDT path on ``port`` (incremental LEAVE/PRUNE).

        Deletes the Path Table row, renumbers the Path Index slots that
        pointed past it, and scrubs every piece of feedback state that
        referenced the port so a stale trigger/CNP designation cannot
        gate future aggregation.  Returns the removed entry, or None if
        the port was not in the tree.
        """
        idx = self.path_index[port]
        if not idx:
            return None
        removed = self.path_table.pop(idx - 1)
        self.path_index[port] = 0
        for p, i in enumerate(self.path_index):
            if i > idx:
                self.path_index[p] = i - 1
        if self.tri_port == port:
            self.tri_port = None
        if self._min_port == port:
            self._min_port = None
        if self.cnp_max_port == port:
            self.cnp_max_port = None
        self.cnp_counters.pop(port, None)
        for slot in self.reduce_slots.values():
            slot.discard(port)
        for ip in self.port_members.pop(port, ()):
            self.member_port.pop(ip, None)
        return removed

    def entries(self) -> List[PathEntry]:
        return self.path_table

    def iter_downstream(self, exclude_port: int) -> Iterator[PathEntry]:
        """All MDT paths except ``exclude_port`` (ingress pruning)."""
        for e in self.path_table:
            if e.port != exclude_port:
                yield e

    # -- ACK aggregation support --------------------------------------------------

    def min_ack_psn(self) -> Optional[int]:
        """Minimum AckPSN over every *downstream* path (the aggregate).

        The path toward the current source (``ack_out_port``) is the
        feedback egress, not a receiver subtree, so it is excluded.
        Returns None when the MDT has no downstream path yet.
        """
        best: Optional[int] = None
        best_port: Optional[int] = None
        for e in self.path_table:
            if e.port == self.ack_out_port:
                continue
            if best is None or e.ack_psn < best:
                best = e.ack_psn
                best_port = e.port
        self._min_port = best_port
        return best

    @property
    def min_port(self) -> Optional[int]:
        """Port that owned the minimum in the last :meth:`min_ack_psn` call."""
        return self._min_port

    # -- memory model (Fig. 7b / §III-D 'Bounded Memory Overhead') -----------------

    def memory_bytes(self) -> int:
        """Model of the BRAM footprint of this MFT.

        Path Index: 1 B per port.  Path Table row: dstIP(4) + dstQP(3) +
        AckPSN(3) = 10 B.  Group state: ~20 B.  A full 64-port table is
        724 B, matching the paper's '1K MGs cost at most 0.69 MB'.
        """
        return self.n_ports + 10 * len(self.path_table) + 20


class MftTable:
    """All MFTs on one accelerator, keyed by McstID, with a capacity cap.

    The capacity cap models the finite BRAM of the FPGA board; hitting
    it is one of the two anomalies that trip the safeguard fallback
    (§V-D: 'the MFT registration process may encounter insufficient
    switch memory').
    """

    __slots__ = ("n_ports", "max_groups", "_tables")

    def __init__(self, n_ports: int, max_groups: Optional[int] = None) -> None:
        self.n_ports = n_ports
        self.max_groups = max_groups
        self._tables: Dict[int, Mft] = {}

    def get(self, mcst_id: int) -> Optional[Mft]:
        return self._tables.get(mcst_id)

    def get_or_create(self, mcst_id: int) -> Mft:
        mft = self._tables.get(mcst_id)
        if mft is None:
            if self.max_groups is not None and len(self._tables) >= self.max_groups:
                raise RegistrationError(
                    f"switch MFT memory exhausted ({self.max_groups} groups)")
            mft = Mft(mcst_id, self.n_ports)
            self._tables[mcst_id] = mft
        return mft

    def remove(self, mcst_id: int) -> None:
        self._tables.pop(mcst_id, None)

    def items(self) -> "ItemsView[int, Mft]":
        """Live (McstID, Mft) view in registration order — the iteration
        surface the InvariantMonitor's consistency sweeps use.  A reader
        that needs McstID order sorts what it keeps."""
        return self._tables.items()

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, mcst_id: int) -> bool:
        return mcst_id in self._tables

    def total_memory_bytes(self) -> int:
        return sum(m.memory_bytes() for m in self._tables.values())
