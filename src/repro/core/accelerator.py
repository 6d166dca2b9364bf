"""The Cepheus on-switch accelerator (§III, §IV).

In the paper this is an FPGA board hanging off a commodity switch; ACL
rules steer multicast traffic through it.  Here it is an object attached
to a simulated :class:`~repro.net.switch.Switch` whose
:meth:`classify` implements the ACL and whose :meth:`process` runs the
Fig. 7a sequence (admit → [lookaside detour →] MRP → [sp_forward →]
MFT lookup → reduce → track source → replicate → bridge → feedback) as
straight-line code, publishing each decision on the simulator's
observer bus (``tests/core/test_datapath_transcripts.py`` pins the
publication sequence):

* **MRP packets** build the local MFT and fan sub-MRPs out downstream
  (reuse-a-tree-port first, then least-loaded port selection, §III-C);
* **multicast DATA** is replicated along the MDT with ingress pruning,
  filtered against per-path AckPSNs (retransmission filtering), and
  *connection-bridged* at host-facing entries — dstIP/dstQP (and RETH
  vaddr/rkey for WRITE) rewritten to the receiver's real values, srcIP
  rewritten to the McstID so the receiver's feedback indexes the MFT;
* **feedback** is aggregated/filtered by the
  :class:`~repro.core.feedback.FeedbackEngine` and the resulting single
  stream is emitted toward the current source (AckOutPort), with the
  final header rewrite at the source's leaf.

Source switching (§III-E) is detected here too: data arriving on a new
ingress port re-points AckOutPort and resets the trigger port.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import constants
from repro.core.feedback import FeedbackConfig, FeedbackEngine
from repro.core.mft import Mft, MftTable, PathEntry
from repro.core.mrp import MrpError, MrpPayload
from repro.core.source_routing import SourceRoutingConfig
from repro.errors import RegistrationError
from repro.net.packet import Packet, PacketType, is_multicast_ip
from repro.net.switch import Switch
from repro.net.topology import Topology

__all__ = ["AcceleratorConfig", "CepheusAccelerator", "DEPLOYMENTS"]

#: The valid deployment styles (§IV integration options + the
#: source-routed mode): which optional steps run is the only difference.
DEPLOYMENTS = ("inline", "lookaside", "source_routed")

# An enum member read through its class costs more than a function call
# here; the per-packet code binds them once.
_DATA, _ACK, _NACK, _CNP, _MRP = (
    PacketType.DATA, PacketType.ACK, PacketType.NACK, PacketType.CNP,
    PacketType.MRP)


@dataclass
class AcceleratorConfig:
    """Feature switches (retransmission filtering is ablatable), the
    BRAM capacity model, and the deployment style.

    ``deployment`` models §IV's two integration options:

    * ``"inline"`` — the proposed ASIC integration: multicast processing
      sits in the switch pipeline; only the fixed per-packet
      ``ACCELERATOR_DELAY_S`` applies (the default used everywhere).
    * ``"lookaside"`` — the FPGA prototype: traffic detours
      switch -> FPGA -> switch over ``lookaside_ports`` dedicated 100G
      links, so multicast throughput is bounded by the board's
      transceiver capacity (the §VI scalability limit) and each packet
      pays two extra link traversals.
    * ``"source_routed"`` — the Elmo/Bert mode: the sender carries the
      tree in a bounded header extension, switches pop their sp-rule
      in an ``sp_forward`` step and keep only *soft* per-group
      feedback state (plus a small residual table for rules that
      overflowed the header budget).  ``source_routing`` tunes the
      encoder; None means defaults.
    """

    retransmit_filter: bool = True
    max_groups: Optional[int] = None
    feedback: Optional[FeedbackConfig] = None
    deployment: str = "inline"
    lookaside_ports: int = 4
    lookaside_port_bw: float = constants.LINK_BANDWIDTH_BPS
    source_routing: Optional[SourceRoutingConfig] = None


class CepheusAccelerator:
    """One accelerator instance bolted onto one switch."""

    def __init__(self, switch: Switch, config: Optional[AcceleratorConfig] = None) -> None:
        self.switch = switch
        self.cfg = config or AcceleratorConfig()
        if self.cfg.deployment not in DEPLOYMENTS:
            raise RegistrationError(
                f"unknown deployment {self.cfg.deployment!r}; "
                f"valid: {', '.join(DEPLOYMENTS)}")
        self.table = MftTable(switch.n_ports, self.cfg.max_groups)
        # The switch's simulator bus is the single observation point for
        # this accelerator's decisions and its feedback engine.  The
        # "replicate" channel fires after the replication/filter decision
        # for every multicast DATA packet (the InvariantMonitor's view of
        # ingress pruning and retransmission filtering); "bridge" after
        # each connection-bridging rewrite.
        self.bus = switch.sim.bus
        self.sim = switch.sim
        self._pkt_pool = switch.sim.pools.pkt
        self.feedback = FeedbackEngine(self.cfg.feedback, bus=self.bus)
        # group-level load per port, for the least-loaded MDT port choice
        self.port_group_load: Dict[int, int] = {}
        # look-aside detour: the FPGA's aggregate transceiver capacity
        # gates when each packet can *enter* the board.
        self._lookaside_bps = (self.cfg.lookaside_ports
                               * self.cfg.lookaside_port_bw)
        self._lookaside_free_at = 0.0
        self.lookaside_detours = 0
        # source-routed residual rules: fallback key -> port bitmap,
        # installed by the SourceRoutingManager for groups whose tree
        # overflowed the per-packet rule budget.
        self.sr_rules: Dict[int, int] = {}
        self.sr_header_hits = 0
        self.sr_residual_hits = 0
        self.sr_prunes = 0
        # instrumentation
        self.data_in = 0
        self.replicas_out = 0
        self.retransmits_filtered = 0
        self.unregistered_drops = 0
        self.source_switches_seen = 0
        # MRP record economy: how many member records this switch
        # installed/removed across all registrations and deltas — the
        # measure that shows a JOIN patch touches strictly fewer records
        # than a full re-registration (§III-C incremental MRP).
        self.mrp_records_installed = 0
        self.mrp_records_removed = 0
        # Where a packet continues after the admission delay: the §IV
        # deployment options differ only in that the look-aside FPGA
        # prototype detours first and the proposed inline ASIC does not.
        self._admitted = (self._detour
                          if self.cfg.deployment == "lookaside"
                          else self._dispatch)
        self._source_routed = self.cfg.deployment == "source_routed"
        switch.accelerator = self

    # ------------------------------------------------------------------
    # ACL classification (what gets redirected to the FPGA)
    # ------------------------------------------------------------------

    def classify(self, pkt: Packet) -> bool:
        # Checked once per switch arrival; DATA first (the common case),
        # with is_multicast_ip/is_feedback inlined.
        t = pkt.ptype
        if t == _DATA:
            return pkt.dst_ip >= constants.MCSTID_BASE
        if t == _MRP:
            return True
        return pkt.dst_ip >= constants.MCSTID_BASE and (
            t == _ACK or t == _NACK or t == _CNP)

    # ------------------------------------------------------------------
    # the Fig. 7a sequence, one heap entry per admission and per detour
    # ------------------------------------------------------------------

    def process(self, pkt: Packet, in_port: int) -> None:
        """Run one classified packet through the Fig. 7a sequence,
        starting with the fixed per-packet processing latency of the
        board (§IV): every deployment pays it before any table state is
        read."""
        delay = self.switch.config.accelerator_delay
        if delay > 0:
            self.sim.post(delay, self._admitted, pkt, in_port)
        else:
            self._admitted(pkt, in_port)

    def _drop(self, pkt: Packet, in_port: int, reason: str) -> None:
        bus = self.bus
        if bus.drop:
            bus.publish("drop", self.switch, pkt, in_port, reason)
        self._pkt_pool.release(pkt)

    def _detour(self, pkt: Packet, in_port: int) -> None:
        """Switch -> FPGA -> switch detour of the look-aside prototype
        (§IV)."""
        self.lookaside_detours += 1
        self.sim.post(self._detour_delay(pkt), self._dispatch, pkt, in_port)

    def _dispatch(self, pkt: Packet, in_port: int) -> None:
        """Everything after admission: MRP, then group resolution, then
        the feedback or the DATA half of the sequence."""
        t = pkt.ptype
        pool = self._pkt_pool
        if t == _MRP:
            # Control plane: joins/leaves patch the local MFT and fan
            # sub-MRPs downstream.
            self._process_mrp(pkt, in_port)
            pool.release(pkt)  # consumed; sub-MRPs are fresh
            return
        if self._source_routed and t == _DATA and pkt.sr is not None:
            # sp_forward: the header (or the residual table) resolves
            # and syncs the soft MFT in place of the lookup below.
            mft = self._sp_rule(pkt, in_port)
            if mft is None:
                return
        else:
            mft = self.table.get(pkt.dst_ip)
            if mft is None:
                self.unregistered_drops += 1
                self._drop(pkt, in_port, "unregistered-group")
                return
        if t != _DATA:
            if mft.mode == "reduce":
                self._replicate_feedback_down(mft, pkt, in_port)
            else:
                # The FeedbackEngine turns the many per-path streams into
                # the single unicast-like stream the source RNIC expects.
                if t == _ACK:
                    emits = self.feedback.on_ack(mft, in_port, pkt.psn)
                elif t == _NACK:
                    emits = self.feedback.on_nack(mft, in_port, pkt.psn)
                else:
                    emits = self.feedback.on_cnp(mft, in_port, self.sim.now)
                self._emit_feedback(mft, emits, in_port)
            pool.release(pkt)  # aggregated feedback is fresh packets
            return
        # Counted after the lookup: DATA for a group this switch does not
        # know is an unregistered drop, not accelerator input.
        self.data_in += 1
        if mft.mode == "reduce":
            self._process_reduce_data(mft, pkt, in_port)
            pool.release(pkt)  # reduce emits clones only
            return
        self._track_source(mft, pkt, in_port)
        # Replication with ingress pruning and retransmission filtering
        # (§III-B, §III-D): decide the target set first.
        retx_filter = self.cfg.retransmit_filter
        psn = pkt.psn
        targets: List[PathEntry] = []
        for e in mft.path_table:
            if e.port == in_port:
                continue
            if retx_filter and psn <= e.ack_psn:
                # This subtree already acknowledged the PSN: suppress the
                # duplicate (saves bandwidth, §III-D).
                self.retransmits_filtered += 1
                continue
            targets.append(e)
        bus = self.bus
        if bus.replicate:
            bus.publish("replicate", self, mft, pkt, in_port, targets)
        if not targets:
            # Every target was pruned/filtered: the ingress packet goes
            # nowhere and is dead here.
            pool.release(pkt)
            return
        # One replica per target — clones for every branch but the last,
        # which reuses the ingress packet — all materialized *before* any
        # header is rewritten or anything is emitted: a replica queued
        # for a sibling subtree can never observe another leaf's rewrite
        # (and PFC frames draw pids inside emit).
        clone = pool.clone
        replicas = [clone(pkt) for _ in range(len(targets) - 1)]
        replicas.append(pkt)
        emit = self.switch.emit
        mcst_id = mft.mcst_id
        for entry, replica in zip(targets, replicas):
            if entry.is_host:
                self._bridge(replica, entry, mcst_id)
                if bus.bridge:
                    bus.publish("bridge", self, mft, replica, entry)
            emit(replica, entry.port, in_port)
            self.replicas_out += 1

    def _detour_delay(self, pkt: Packet) -> float:
        """The board's aggregate transceiver capacity gates when a
        packet can *enter* it (the §VI scalability limit); the packet
        then pays one link serialization and two propagations."""
        sim = self.switch.sim
        bits = pkt.wire_size * 8.0
        start = max(sim.now, self._lookaside_free_at)
        self._lookaside_free_at = start + bits / self._lookaside_bps
        ready = (self._lookaside_free_at
                 + bits / self.cfg.lookaside_port_bw
                 + 2 * constants.LINK_PROPAGATION_S)
        return ready - sim.now

    # ------------------------------------------------------------------
    # MRP: local MFT construction + downstream fan-out (§III-C)
    # ------------------------------------------------------------------

    def _process_mrp(self, pkt: Packet, in_port: int) -> None:
        """The switch-side MRP walk, one for all four ops and both
        control planes.

        Each member record is resolved to its next-hop port.  Installs
        (``register``/``join``) patch the local state and fan one
        sub-MRP per port downstream — the host port included, so the
        member itself confirms.  Removals (``leave``/``prune``) forward
        the record toward the member's leaf, drain it from the port's
        member set (dropping the path, and re-evaluating the pending
        aggregate, once the port serves nobody — §III-D) and, at the
        leaf, confirm on the member's behalf so the transaction
        completes even when the member host is dead.

        The deployments differ in two places only.  The MFT
        deployments pick next hops from (and install transit entries
        into) the group's MFT; ``source_routed`` routes by address and
        installs *nothing* in transit — the tree lives in the packet
        header — so only a member's leaf holds state: the host-facing
        entry whose bridging info the ``sp_forward`` data path cannot
        invent.  Transit soft entries of a departed subtree retire when
        the next data packet carries the re-encoded header's higher
        epoch.
        """
        payload: MrpPayload = pkt.mrp
        install = payload.op not in ("leave", "prune")
        transit_state = self.cfg.deployment != "source_routed"
        mft = self.table.get(payload.mcst_id)
        if install and transit_state:
            mft = self._mft_or_reject(payload)
            if mft is None:
                return
            if mft.ack_out_port is None:
                # Default upstream is where the registration came from
                # (the leader's side); data-plane traffic re-points it
                # if the source is elsewhere.
                mft.ack_out_port = in_port
            # The MDT is an undirected tree: the ingress side is a tree
            # port too (feedback leaves through it; data arrives on it).
            if not mft.has_port(in_port):
                mft.add_entry(PathEntry(port=in_port, is_host=False))

        is_host_port = self.switch.is_host_port
        downstream: Dict[int, List] = {}
        for node in payload.nodes:
            if install:
                port = (self._select_port(mft, node.ip,
                                          payload.lane, payload.nlanes)
                        if transit_state
                        else self._port_toward(node.ip, in_port))
                if port is None:
                    continue
                at_leaf = is_host_port(port)
                if transit_state or at_leaf:
                    if mft is None:
                        mft = self._mft_or_reject(payload)
                        if mft is None:
                            return
                    self._install_record(mft, port, node, at_leaf,
                                         payload.epoch)
                downstream.setdefault(port, []).append(node)
                continue
            # O(1) reverse-index probe (kept in lockstep with
            # port_members).  A miss is a switch holding no state for
            # the member — source_routed transit, or a re-sent delta
            # whose first copy already drained here: keep walking by
            # address so the leaf can (re-)confirm.
            port = mft.member_port.get(node.ip) if mft is not None else None
            tracked = port is not None
            if not tracked:
                port = self._port_toward(node.ip, in_port)
                if port is None:
                    continue
            at_leaf = is_host_port(port)
            if not at_leaf:
                # One sub-MRP per record, sent before the drain below
                # can emit re-evaluated feedback: the goldens pin this
                # packet sequence.
                self._forward_mrp(pkt, port, [node], in_port)
            if tracked:
                self._drain_record(mft, port, node.ip, payload.epoch)
            if at_leaf:
                self._confirm_for(payload, node.ip, in_port)

        for port, nodes in downstream.items():
            # port == in_port: the node sits behind the ingress (the
            # leader itself at its leaf); upstream already knows it.
            if port != in_port:
                self._forward_mrp(pkt, port, nodes, in_port)

    def _port_toward(self, ip: int, in_port: int) -> Optional[int]:
        """Next hop by address alone: the host port, else the lowest
        equal-cost port that is not the ingress (None: the member sits
        behind the ingress; upstream handles it)."""
        direct = self._direct_host_port(ip)
        if direct is not None:
            return direct
        return min((p for p in self.switch.route_ports(ip) if p != in_port),
                   default=None)

    def _mft_or_reject(self, payload: MrpPayload) -> Optional[Mft]:
        try:
            return self.table.get_or_create(payload.mcst_id)
        except RegistrationError as exc:
            self._notify_registration_error(payload, str(exc))
            return None

    def _install_record(self, mft: Mft, port: int, node, at_leaf: bool,
                        epoch: int) -> None:
        mft.epoch = max(mft.epoch, epoch)
        # Fresh entries start at the group's current aggregate: a
        # mid-flight joiner is not retroactively responsible for the
        # PSNs emitted before it existed (its stream position is
        # synced past them, §III-E style), so counting it in below
        # AggAckPSN would stall the aggregate forever.
        if at_leaf:
            mft.add_entry(PathEntry(
                port=port, is_host=True, dst_ip=node.ip, dst_qp=node.qpn,
                vaddr=node.vaddr, rkey=node.rkey, ack_psn=mft.agg_ack_psn,
            ))
        else:
            mft.add_entry(PathEntry(port=port, is_host=False,
                                    ack_psn=mft.agg_ack_psn))
        mft.port_members.setdefault(port, set()).add(node.ip)
        mft.member_port[node.ip] = port
        self.mrp_records_installed += 1

    def _drain_record(self, mft: Mft, port: int, ip: int,
                      epoch: int) -> None:
        mft.epoch = max(mft.epoch, epoch)
        members = mft.port_members.get(port)
        if members is not None:
            members.discard(ip)
            mft.member_port.pop(ip, None)
            if not members:
                self._drop_path(mft, port)
        self.mrp_records_removed += 1

    def _forward_mrp(self, pkt: Packet, port: int, nodes: List,
                     in_port: int) -> None:
        payload: MrpPayload = pkt.mrp
        sub = MrpPayload(
            mcst_id=payload.mcst_id, seq=payload.seq, total=payload.total,
            controller_ip=payload.controller_ip, nodes=nodes,
            op=payload.op, epoch=payload.epoch,
            lane=payload.lane, nlanes=payload.nlanes,
        )
        out = Packet(
            PacketType.MRP, pkt.src_ip, payload.mcst_id,
            payload=sub.wire_bytes(), mrp=sub,
            created_at=self.switch.sim.now,
        )
        self.switch.emit(out, port, in_port)

    def _confirm_for(self, payload: MrpPayload, ip: int,
                     in_port: int) -> None:
        """The leaf confirms a departure on the member's behalf."""
        if (self.cfg.deployment == "source_routed" and os.environ.get(
                "CEPHEUS_SEEDED_BUG") == "sr-skip-leave-confirm"):
            # Deliberate fault for the fuzzer's mutation self-test:
            # the leaf never confirms, so the controller's delta
            # transaction exhausts its retries.  Only the source-routed
            # deployment is affected, and only schedules with a leave
            # on a healthy fabric expose it.  Armed via the environment
            # — production runs never take this branch.
            return
        confirm = Packet(
            PacketType.MRP_CONFIRM, ip, payload.controller_ip,
            payload=16, meta=(payload.mcst_id, ip),
            created_at=self.switch.sim.now,
        )
        self.switch.emit(confirm, self.switch.route_lookup(confirm), in_port)

    def _select_port(self, mft: Mft, node_ip: int,
                     lane: int = 0, nlanes: int = 1) -> int:
        """Paper's two rules: reuse an existing MDT port to delay
        replication; otherwise pick the least group-loaded candidate.

        A lane of a multi-lane group (``nlanes > 1``) replaces the
        least-loaded rule with the deterministic per-lane ECMP choice
        (:meth:`Topology.lane_port`): distinct lanes of one group land
        on distinct uplinks wherever the FIB offers enough equal-cost
        next hops, which is what makes the k MDTs edge-disjoint.
        """
        direct = self._direct_host_port(node_ip)
        if direct is not None:
            return direct
        candidates = self.switch.route_ports(node_ip)
        for p in candidates:
            if mft.has_port(p):
                return p
        if nlanes > 1:
            best = Topology.lane_port(candidates, lane)
        else:
            best = min(candidates,
                       key=lambda p: (self.port_group_load.get(p, 0), p))
        self.port_group_load[best] = self.port_group_load.get(best, 0) + 1
        mft.loaded_ports.add(best)
        return best

    def _direct_host_port(self, ip: int) -> Optional[int]:
        ports = self.switch.fib.get(ip)
        if ports and len(ports) == 1 and self.switch.is_host_port(ports[0]):
            return ports[0]
        return None

    def _drop_path(self, mft: Mft, port: int) -> None:
        """Remove one MDT path and unstick any pending aggregate."""
        if port == mft.ack_out_port:
            # The feedback egress toward the current source is never a
            # removable downstream path (the source is always a member,
            # so a drained member set here means stale routing state —
            # keep the entry rather than sever the tree).
            return
        if mft.remove_entry(port) is None:
            return
        if port in mft.loaded_ports:
            n = self.port_group_load.get(port, 0)
            if n > 0:
                self.port_group_load[port] = n - 1
            mft.loaded_ports.discard(port)
        emits = self.feedback.reevaluate(mft)
        self._emit_feedback(mft, emits, -1)

    def _notify_registration_error(self, payload: MrpPayload, reason: str) -> None:
        err = MrpError(mcst_id=payload.mcst_id, reason=reason,
                       switch_name=self.switch.name)
        pkt = Packet(PacketType.CTRL, 0, payload.controller_ip,
                     payload=32, meta=err, created_at=self.switch.sim.now)
        self.switch.emit(pkt, self.switch.route_lookup(pkt), -1)

    # ------------------------------------------------------------------
    # source-routed mode: sp_forward (Elmo/Bert)
    # ------------------------------------------------------------------

    def _sp_rule(self, pkt: Packet, in_port: int) -> Optional[Mft]:
        """Source-routed forwarding: pop this switch's sp-rule from the
        header (or the residual table, for rules that overflowed the
        budget) and sync the *soft* per-group feedback MFT to it; None
        means the packet was dropped (and released).

        Replication itself stays in the replicate/bridge steps, driven
        by the synced MFT — so ingress pruning, retransmission
        filtering and min-AckPSN aggregation run off the same entries
        as the MFT deployments, with the switch holding no
        control-plane-installed forwarding state."""
        hdr = pkt.sr
        bitmap = hdr.rules.get(self.switch.name)
        if bitmap is not None:
            self.sr_header_hits += 1
        else:
            bitmap = self.sr_rules.get(hdr.fallback_key)
            if bitmap is None:
                self._drop(pkt, in_port, "sr-no-rule")
                return None
            self.sr_residual_hits += 1
        try:
            mft = self.table.get_or_create(pkt.dst_ip)
        except RegistrationError:
            self._drop(pkt, in_port, "sr-table-full")
            return None
        self._sr_sync(mft, bitmap, hdr.epoch, in_port)
        return mft

    def _sr_sync(self, mft: Mft, bitmap: int, epoch: int,
                 in_port: int) -> None:
        """Converge the soft MFT onto the header's rule.

        Epoch-gated: a header from a *newer* epoch prunes non-host
        entries that left the tree (host entries belong exclusively to
        the MRP delta flow — the leaf must keep them until the LEAVE
        confirm, or the controller transaction would never complete); a
        *stale* header adds nothing and prunes nothing, the packet just
        forwards along the current entries.  Missing bitmap ports
        materialize as soft entries at the group's current aggregate —
        the same rule a mid-flight JOIN uses, for the same reason: a
        fresh subtree must not be held responsible for PSNs it never
        saw."""
        if epoch > mft.epoch:
            stale = [
                e.port for e in mft.path_table
                if not e.is_host and e.port != in_port
                and e.port != mft.ack_out_port
                and not (bitmap >> e.port) & 1
            ]
            for port in stale:
                mft.remove_entry(port)
                self.sr_prunes += 1
            mft.epoch = epoch
            if stale:
                emits = self.feedback.reevaluate(mft)
                self._emit_feedback(mft, emits, -1)
        elif epoch < mft.epoch:
            return
        is_host_port = self.switch.is_host_port
        for port in range(mft.n_ports):
            if not (bitmap >> port) & 1 or mft.has_port(port):
                continue
            if is_host_port(port):
                # Host entries carry bridging info only MRP knows; the
                # data path cannot invent one (an unbridged replica
                # would be dropped by the NIC and the bare entry would
                # gate the aggregate forever).  The member's MRP JOIN
                # installs it; until then that subtree is dark and the
                # sender's retransmission covers the gap.
                continue
            mft.add_entry(PathEntry(port=port, is_host=False,
                                    ack_psn=mft.agg_ack_psn))

    # ------------------------------------------------------------------
    # DATA: source tracking + connection bridging (§III-B, §III-E)
    # ------------------------------------------------------------------

    def _track_source(self, mft: Mft, pkt: Packet, in_port: int) -> None:
        if mft.ack_out_port != in_port:
            # Multicast source switching (§III-E): the data now enters
            # from a different tree port; feedback must flow there.
            mft.ack_out_port = in_port
            mft.tri_port = None
            self.source_switches_seen += 1
        if self.switch.is_host_port(in_port):
            # We are the source's leaf: remember its identity for the
            # final feedback header rewrite.
            mft.src_ip = pkt.src_ip
            mft.src_qp = pkt.src_qp

    @staticmethod
    def _bridge(pkt: Packet, entry: PathEntry, mcst_id: int) -> None:
        """Connection bridging (Fig. 4): make the replica look like a
        packet of the receiver's own one-to-one connection."""
        pkt.dst_ip = entry.dst_ip
        pkt.dst_qp = entry.dst_qp
        pkt.src_ip = mcst_id
        if entry.rkey:
            # Multicast WRITE: the sender posts region-relative offsets;
            # the leaf adds the receiver's MR base and swaps the rkey.
            pkt.vaddr = entry.vaddr + pkt.vaddr
            pkt.rkey = entry.rkey

    # ------------------------------------------------------------------
    # experimental many-to-one reduction (§VIII future work)
    # ------------------------------------------------------------------
    #
    # Reduce mode is the exact dual of the broadcast data plane: member
    # contributions *combine* on the way up the MDT (one slot per PSN,
    # released when every downstream tree port has contributed), and the
    # root's feedback (ACK/NACK/CNP) *replicates* down the tree with
    # connection bridging, so every member's unmodified RNIC sees its
    # own unicast-like feedback stream.  Collective semantics make this
    # sound: every member posts the same sizes in the same order, so the
    # same PSN refers to the same vector chunk everywhere; a root NACK
    # rewinds all members together, refilling the slots coherently.

    def _process_reduce_data(self, mft: Mft, pkt: Packet, in_port: int) -> None:
        expected = {
            e.port for e in mft.path_table if e.port != mft.ack_out_port
        }
        if in_port not in expected:
            return  # stray (e.g. the root itself sending in reduce mode)
        slot = mft.reduce_slots.setdefault(pkt.psn, set())
        slot.add(in_port)
        if slot < expected:
            return
        del mft.reduce_slots[pkt.psn]
        combined = pkt.clone()
        combined.src_ip = mft.mcst_id
        out_port = mft.ack_out_port
        if out_port is None:
            return
        entry = mft.entry(out_port)
        if entry is not None and entry.is_host:
            # The root's leaf: bridge the combined stream onto the
            # root's own connection (its info is in the MFT — every
            # member registers, the root included).
            combined.dst_ip = entry.dst_ip
            combined.dst_qp = entry.dst_qp
        else:
            combined.dst_ip = mft.mcst_id
        self.switch.emit(combined, out_port, in_port)
        self.replicas_out += 1

    def _replicate_feedback_down(self, mft: Mft, pkt: Packet,
                                 in_port: int) -> None:
        """Reduce mode: the root's ACK/NACK/CNP fans out to all members."""
        for e in mft.iter_downstream(in_port):
            rep = pkt.clone()
            if e.is_host:
                rep.dst_ip = e.dst_ip
                rep.dst_qp = e.dst_qp
                rep.src_ip = mft.mcst_id
            else:
                rep.dst_ip = mft.mcst_id
            self.switch.emit(rep, e.port, in_port)

    # ------------------------------------------------------------------
    # feedback: aggregate/filter, then forward toward the source (§III-D)
    # ------------------------------------------------------------------

    def _emit_feedback(self, mft: Mft, emits, in_port: int) -> None:
        """Send aggregated feedback toward the current source (also the
        egress path of membership-driven re-evaluations)."""
        out_port = mft.ack_out_port
        if out_port is None:
            return
        for ptype, psn in emits:
            fb = self._pkt_pool.acquire_fb(
                ptype, mft.mcst_id, mft.mcst_id, 0, 0, psn, self.sim.now)
            if self.switch.is_host_port(out_port):
                # Source leaf: the final rewrite so the sender RNIC's QP
                # demux accepts the stream as its own connection's.
                if mft.src_ip is None:
                    # No data observed yet; nothing to rewrite to.
                    self._pkt_pool.release(fb)
                    continue
                fb.dst_ip = mft.src_ip
                fb.dst_qp = mft.src_qp
            self.switch.emit(fb, out_port, in_port)

    # ------------------------------------------------------------------
    # introspection for tests/benches
    # ------------------------------------------------------------------

    def mft_of(self, mcst_id: int) -> Optional[Mft]:
        return self.table.get(mcst_id)

    def memory_bytes(self) -> int:
        return self.table.total_memory_bytes()
