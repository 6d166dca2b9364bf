"""The InvariantMonitor: per-event protocol-invariant assertions.

The reliability story of the paper (§III-D feedback aggregation, §V-C
loss tolerance, §V-D safeguard) rests on a small set of safety
invariants that must hold for *every* event, under any loss pattern,
failure schedule or source rotation:

``psn-contiguity``
    A sender never skips a PSN: the first transmission of PSN *p*
    implies every PSN below *p* was transmitted before (§III-A — the
    commodity RNIC numbers the stream densely; a gap on the wire means
    corrupted send-queue state).
``delivery-order`` / ``duplicate-delivery`` / ``duplicate-message``
    Exactly-once, in-order delivery per receiver QP (invariant 1 of
    DESIGN.md): delivered PSNs advance by exactly one and a message id
    completes at most once per receiver.
``ack-overclaim`` / ``ack-regression``
    The min-AckPSN rule (§III-D): an aggregated ACK(p) may only be
    emitted when every downstream MDT path has cumulatively
    acknowledged at least *p*, and the aggregate never moves backwards.
``nack-covers-loss``
    The MePSN rule (§III-D): a NACK(e) may only be forwarded upstream
    once every downstream path has acknowledged everything below *e* —
    otherwise a later NACK could cover an earlier loss.
``cnp-not-most-congested``
    CNP filtering (§III-D): only the designated most-congested
    downstream path's CNPs pass within an aging window.
``retransmit-filter-miss`` / ``ingress-loop``
    Retransmission filtering and ingress pruning: a replica is never
    forwarded onto a path that already acknowledged its PSN (when the
    filter is enabled) and never back out of its ingress port.
``mft-*``
    MFT structural consistency (Fig. 3): Path Index <-> Path Table
    bijection, radix bound, AggAckPSN <= min AckPSN, AckOutPort is a
    tree port — plus, on demand, MDT/topology consistency after
    :class:`~repro.net.failures.FailureInjector` cuts and repairs.
``path-lane-psn-overlap``
    k-path spraying (MRC lanes): the *primary* per-lane byte
    sub-ranges of one spray partition the message — two lanes may
    never be assigned overlapping bytes (only failover *resprays* may
    re-cover a dead lane's range), and no sub-range may exceed the
    message bounds.
``lane-reassembly-gap``
    Lane reassembly completes without holes: when a receiver's
    :class:`~repro.transport.spray.LaneReassembler` declares a sprayed
    message complete, the monitor independently re-merges the published
    segment list and flags any uncovered byte of ``[0, total)``.

The monitor is *online*: it subscribes to the simulation's single
:class:`~repro.net.pipeline.ObserverBus` — the ``feedback``,
``replicate``, ``qp_send``, ``deliver`` and ``membership_epoch``
channels the datapath publishes on, and optionally the per-event
``event`` channel for sampled structural sweeps.  In the default
(non-strict) mode violations are recorded and the run continues — the
chaos harness needs the full trace to shrink a reproducer;
``strict=True`` raises :class:`InvariantViolationError` at the first
offence, and like any subscriber's exception it escapes the bus and
aborts the run.

Ablation configurations are respected: when a feature switch
(``trigger_condition``, ``nack_aggregation``, ``cnp_filter``,
``retransmit_filter``) is deliberately off, the corresponding check is
skipped — the ablation benches *exist* to demonstrate those violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.mft import NO_ACK, Mft
from repro.errors import ReproError
from repro.net.packet import Packet, PacketType

# Bound once: a read through the enum class is a descriptor call.
_DATA, _ACK = PacketType.DATA, PacketType.ACK
_NACK, _CNP = PacketType.NACK, PacketType.CNP

__all__ = ["InvariantMonitor", "InvariantViolationError", "Violation"]


class InvariantViolationError(ReproError):
    """A protocol invariant was violated (raised only in strict mode)."""


@dataclass
class Violation:
    """One recorded invariant violation."""

    invariant: str   # stable identifier, e.g. "ack-overclaim"
    where: str       # offending component ("sw0", "qp host2:0x101", ...)
    detail: str      # human-readable specifics
    at: float = 0.0  # virtual time, when known

    def to_dict(self) -> Dict[str, object]:
        return {"invariant": self.invariant, "where": self.where,
                "detail": self.detail, "at": self.at}

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.invariant}] {self.where} @ {self.at:.9f}: {self.detail}"


def _min_downstream(mft: Mft) -> Optional[int]:
    """Minimum AckPSN over downstream paths, side-effect-free (the
    monitor must not touch the ``min_port`` cache the trigger uses)."""
    best: Optional[int] = None
    for e in mft.path_table:
        if e.port == mft.ack_out_port:
            continue
        if best is None or e.ack_psn < best:
            best = e.ack_psn
    return best


def _mft_clean(mft: Mft, sw, epochs: Dict[Mft, int]) -> bool:
    """True only when no ``mft-*`` rule of
    :meth:`InvariantMonitor._check_mft` (``expect_connected=False``) can
    fire — proven from the MFT's own fields on every call, never from a
    dirty bit or an event.  May say False for a clean MFT, never True for
    a dirty one.  Records the epoch it vouched for in ``epochs``."""
    index = mft.path_index
    members = mft.port_members
    member_port = mft.member_port
    agg = mft.agg_ack_psn
    ack_out = mft.ack_out_port
    n_rows = n_members = 0
    try:
        for e in mft.path_table:
            n_rows += 1
            port = e.port
            # Row i sits in slot e.port alone (a negative port must not
            # wrap onto one): no duplicate, bad or mis-indexed port, and
            # so no radix overflow either.
            if port < 0 or index[port] != n_rows:
                return False
            if e.is_host and (sw.port_kind[port] != "host" or (
                    members and e.dst_ip
                    and e.dst_ip not in members[port])):
                return False
            if e.ack_psn < agg and port != ack_out:
                return False
        # As many non-zero slots as rows: none dangles, none is stray.
        if (index.count(0) != sw.n_ports - n_rows
                or ack_out is not None and not index[ack_out]):
            return False
        # Every member of a tree port's set is indexed to that port, and
        # member_port holds nothing else: it is exactly the sets' union.
        for port, ips in members.items():
            if ips and not index[port]:
                return False
            for ip in ips:
                if member_port[ip] != port:
                    return False
                n_members += 1
        if n_members != len(member_port):
            return False
    except (IndexError, KeyError):
        return False
    if mft.epoch < epochs.get(mft, 0):
        return False
    epochs[mft] = mft.epoch
    return True


def _merge_ranges(ranges) -> List[Tuple[int, int]]:
    """Independent (offset, length) range union — the monitor must not
    trust :func:`repro.transport.spray.merge_ranges`, which is part of
    the machinery under test."""
    merged: List[Tuple[int, int]] = []
    for off, length in sorted(r for r in ranges if r[1] > 0):
        if merged and off <= merged[-1][0] + merged[-1][1]:
            last_off, last_len = merged[-1]
            merged[-1] = (last_off, max(last_len, off + length - last_off))
        else:
            merged.append((off, length))
    return merged


class InvariantMonitor:
    """Collects (or raises on) protocol-invariant violations.

    Attach with :meth:`attach_cluster` for full coverage, or piecewise
    via :meth:`attach_engine` / :meth:`attach_accelerator` /
    :meth:`attach_qp` for unit-level property tests.
    """

    def __init__(self, strict: bool = False, sweep_every: int = 4096) -> None:
        self.strict = strict
        self.sweep_every = sweep_every
        self.violations: List[Violation] = []
        self.events_checked = 0
        self._now = 0.0
        # History is keyed by the object, never ``id()``: the key pins it,
        # so a freed address cannot hand its history to a newcomer.
        # sender side: per-QP high-water mark of transmitted PSNs
        self._tx_hi: Dict[object, int] = {}
        # receiver side: per-QP last delivered PSN + completed msg ids
        self._rx_last: Dict[object, int] = {}
        self._rx_msgs: Dict[object, Set[int]] = {}
        self._qp_names: Dict[object, str] = {}
        # per-MFT last aggregated ACK observed on the wire
        self._agg_seen: Dict[Mft, int] = {}
        # per-MFT highest membership epoch observed (must not regress)
        self._mft_epoch: Dict[Mft, int] = {}
        # per-spray primary (non-respray) lane segments: (sprayer, sid)
        # -> [(offset, length, lane)]
        self._spray_primary: Dict[Tuple[object, int],
                                  List[Tuple[int, int, int]]] = {}
        self._fabrics: List[object] = []
        # Every bus subscription this monitor made, for symmetric detach.
        self._subscriptions: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # attachment (bus subscriptions)
    # ------------------------------------------------------------------

    def _subscribe(self, bus, channel: str, fn) -> None:
        """Idempotent tracked subscription."""
        if bus.is_subscribed(channel, fn):
            return
        bus.subscribe(channel, fn)
        self._subscriptions.append((bus, channel, fn))

    def attach_engine(self, engine) -> None:
        """Monitor one :class:`FeedbackEngine` (unit-level use)."""
        self._subscribe(engine.bus, "feedback", self.on_feedback)

    def attach_accelerator(self, accel) -> None:
        self._subscribe(accel.bus, "replicate", self.on_replicate)
        self._subscribe(accel.feedback.bus, "feedback", self.on_feedback)

    def attach_qp(self, qp) -> None:
        self._subscribe(qp.bus, "qp_send", self.on_qp_send)
        self._subscribe(qp.bus, "deliver", self.on_qp_deliver)
        self._subscribe(qp.bus, "membership_epoch", self.on_membership_epoch)

    def attach_cluster(self, cluster, trace: bool = True) -> None:
        """Monitor a whole :class:`~repro.apps.cluster.Cluster` through
        its simulator's bus, which every accelerator, feedback engine and
        QP publishes to — including QPs created later — and, when
        ``trace``, the per-event channel for sampled structural sweeps.
        A fabric is also registered for those sweeps."""
        bus = cluster.sim.bus
        if cluster.fabric is not None:
            self._subscribe(bus, "replicate", self.on_replicate)
            self._subscribe(bus, "feedback", self.on_feedback)
            self._fabrics.append(cluster.fabric)
        self._subscribe(bus, "qp_send", self.on_qp_send)
        self._subscribe(bus, "deliver", self.on_qp_deliver)
        self._subscribe(bus, "membership_epoch", self.on_membership_epoch)
        self._subscribe(bus, "lane_spray", self.on_lane_spray)
        self._subscribe(bus, "lane_complete", self.on_lane_complete)
        if trace:
            self._subscribe(bus, "event", self.on_event)

    def detach(self) -> None:
        """Unsubscribe every bus channel this monitor attached to."""
        for bus, channel, fn in self._subscriptions:
            bus.unsubscribe(channel, fn)
        self._subscriptions.clear()

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def assert_clean(self) -> None:
        if self.violations:
            head = "; ".join(str(v) for v in self.violations[:5])
            raise InvariantViolationError(
                f"{len(self.violations)} invariant violation(s): {head}")

    def summary(self) -> Dict[str, object]:
        return {
            "events_checked": self.events_checked,
            "violations": [v.to_dict() for v in self.violations],
        }

    def _flag(self, invariant: str, where: str, detail: str) -> None:
        v = Violation(invariant, where, detail, self._now)
        self.violations.append(v)
        if self.strict:
            raise InvariantViolationError(str(v))

    # ------------------------------------------------------------------
    # simulator tap: sampled online structural sweeps
    # ------------------------------------------------------------------

    def on_event(self, now: float) -> None:
        self._now = now
        self.events_checked += 1
        if self._fabrics and self.events_checked % self.sweep_every == 0:
            for fabric in self._fabrics:
                # Links may legitimately be down mid-run (failures are
                # being injected); only structural state is swept online.
                self.check_mft_consistency(fabric, expect_connected=False)

    # ------------------------------------------------------------------
    # QP taps: PSN contiguity + exactly-once delivery
    # ------------------------------------------------------------------

    def _qp_name(self, qp) -> str:
        name = self._qp_names.get(qp)
        if name is None:
            name = self._qp_names[qp] = f"{qp.nic.name}:qp{qp.qpn:#x}"
        return name

    def on_qp_send(self, qp, pkt: Packet) -> None:
        self._now = qp.sim.now
        self.events_checked += 1
        if pkt.ptype != _DATA:
            return
        hi = self._tx_hi.get(qp)
        if hi is None:
            # First observed transmission sets the base: QPs begin at a
            # synchronized stream position (0, or rqPSN after a §III-E
            # source switch), either is legitimate.
            self._tx_hi[qp] = pkt.psn
            return
        if pkt.psn > hi + 1 and self._rx_last.get(qp, -1) < pkt.psn - 1:
            # Multicast QPs share one bridged PSN stream (§III-E): a QP
            # that *delivered* PSNs while another member was source may
            # legitimately resume sending above its own tx high-water.
            # A gap covered by neither its sends nor its deliveries is a
            # skipped PSN.
            self._flag("psn-contiguity", self._qp_name(qp),
                       f"DATA psn {pkt.psn} transmitted but {hi + 1}.."
                       f"{pkt.psn - 1} never were (skipped PSN)")
        if pkt.psn > hi:
            self._tx_hi[qp] = pkt.psn

    def on_membership_epoch(self, qp, epoch: int) -> None:
        """A membership change re-based this QP's stream position
        (JOIN syncs rqPSN to the source's sqPSN; LEAVE retires the QP).
        Reset the per-QP PSN trackers so the legitimate discontinuity is
        not flagged — completed message ids are kept: exactly-once
        delivery spans epochs."""
        self.events_checked += 1
        self._tx_hi.pop(qp, None)
        self._rx_last.pop(qp, None)

    def on_qp_deliver(self, qp, pkt: Packet) -> None:
        self._now = qp.sim.now
        self.events_checked += 1
        last = self._rx_last.get(qp)
        if last is not None:
            if pkt.psn <= last:
                self._flag("duplicate-delivery", self._qp_name(qp),
                           f"psn {pkt.psn} delivered again (last={last})")
            elif (pkt.psn != last + 1
                  and self._tx_hi.get(qp, -1) < pkt.psn - 1):
                # Mirror of the send-side exemption: the stretch a QP
                # transmitted as source never arrives on its own receive
                # side, so its delivery stream resumes above it.
                self._flag("delivery-order", self._qp_name(qp),
                           f"psn {pkt.psn} delivered after {last} "
                           f"(gap of {pkt.psn - last - 1})")
        if last is None or pkt.psn > last:
            self._rx_last[qp] = pkt.psn
        if pkt.last:
            done = self._rx_msgs.setdefault(qp, set())
            if pkt.msg_id in done:
                self._flag("duplicate-message", self._qp_name(qp),
                           f"message {pkt.msg_id} completed twice")
            done.add(pkt.msg_id)

    # ------------------------------------------------------------------
    # lane taps: spray partition disjointness + reassembly coverage
    # ------------------------------------------------------------------

    def on_lane_spray(self, sprayer, sid: int, lane: int, offset: int,
                      length: int, total: int, respray: bool) -> None:
        self._now = sprayer.sim.now
        self.events_checked += 1
        where = f"spray {sid}"
        if offset < 0 or length <= 0 or offset + length > total:
            self._flag("path-lane-psn-overlap", where,
                       f"lane {lane} sub-range [{offset}, {offset + length})"
                       f" exceeds the message bounds [0, {total})")
            return
        if respray:
            # A failover respray deliberately re-covers a dead lane's
            # bytes; only primary shares must partition the message.
            return
        segs = self._spray_primary.setdefault((sprayer, sid), [])
        for o, l, ln in segs:
            if offset < o + l and o < offset + length:
                self._flag("path-lane-psn-overlap", where,
                           f"lane {lane} sub-range [{offset}, "
                           f"{offset + length}) overlaps lane {ln}'s "
                           f"[{o}, {o + l})")
        segs.append((offset, length, lane))

    def on_lane_complete(self, reassembler, sid: int, ip: int,
                         total: int, segments) -> None:
        self.events_checked += 1
        # Re-merge independently of the reassembler's own union.
        merged = _merge_ranges([(o, l) for o, l, _ in segments])
        if len(merged) != 1 or merged[0] != (0, total):
            self._flag("lane-reassembly-gap", f"host {ip}",
                       f"spray {sid} declared complete but segments "
                       f"cover {merged} of [0, {total})")

    # ------------------------------------------------------------------
    # feedback taps: min-AckPSN, MePSN, CNP filter
    # ------------------------------------------------------------------

    def on_feedback(self, engine, mft: Mft, kind: PacketType,
                    in_port: int, value: int, emits) -> None:
        self.events_checked += 1
        where = f"mft {mft.mcst_id:#x}"
        m_true = _min_downstream(mft)
        for ptype, psn in emits:
            if ptype == _ACK:
                if m_true is None or psn > m_true:
                    self._flag("ack-overclaim", where,
                               f"aggregated ACK({psn}) emitted but min "
                               f"downstream AckPSN is {m_true}")
                prev = self._agg_seen.get(mft)
                if prev is not None and psn < prev:
                    self._flag("ack-regression", where,
                               f"aggregated ACK({psn}) after ACK({prev})")
                self._agg_seen[mft] = psn
            elif ptype == _NACK:
                if engine.cfg.nack_aggregation:
                    lagging = [e.port for e in mft.path_table
                               if e.port != mft.ack_out_port
                               and e.ack_psn < psn - 1]
                    if lagging:
                        self._flag(
                            "nack-covers-loss", where,
                            f"NACK({psn}) forwarded while ports {lagging} "
                            f"have not acknowledged below it (MePSN rule)")
            elif ptype == _CNP:
                if engine.cfg.cnp_filter:
                    counts = mft.cnp_counters
                    if in_port != mft.cnp_max_port:
                        self._flag("cnp-not-most-congested", where,
                                   f"CNP passed from port {in_port} but "
                                   f"designated port is {mft.cnp_max_port}")
                    elif counts and counts.get(in_port, 0) != max(counts.values()):
                        self._flag("cnp-not-most-congested", where,
                                   f"CNP passed from port {in_port} whose "
                                   f"count {counts.get(in_port, 0)} is not "
                                   f"the window maximum {max(counts.values())}")

    # ------------------------------------------------------------------
    # accelerator tap: replication filtering / pruning
    # ------------------------------------------------------------------

    def on_replicate(self, accel, mft: Mft, pkt: Packet,
                     in_port: int, targets) -> None:
        self._now = accel.switch.sim.now
        self.events_checked += 1
        where = accel.switch.name
        for e in targets:
            if e.port == in_port:
                self._flag("ingress-loop", where,
                           f"group {mft.mcst_id:#x}: replica of psn "
                           f"{pkt.psn} sent back out ingress port {in_port}")
            if accel.cfg.retransmit_filter and pkt.psn <= e.ack_psn:
                self._flag("retransmit-filter-miss", where,
                           f"group {mft.mcst_id:#x}: psn {pkt.psn} "
                           f"re-forwarded to port {e.port} which already "
                           f"acknowledged {e.ack_psn}")
        hdr = pkt.sr
        if hdr is not None and hdr.epoch == mft.epoch:
            # Source-routed mode: once the soft MFT has converged to the
            # packet's epoch, the replication set must agree with the
            # packet's effective sp-rule (header rule, or the residual
            # table for spilled rules).  Host-facing entries are exempt:
            # their lifecycle belongs to the MRP delta flow, which may
            # lag the re-encoded header by design.
            bitmap = hdr.rules.get(accel.switch.name)
            if bitmap is None:
                bitmap = accel.sr_rules.get(hdr.fallback_key)
            if bitmap is not None:
                for e in targets:
                    if not e.is_host and not (bitmap >> e.port) & 1:
                        self._flag(
                            "sr-rule-divergence", where,
                            f"group {mft.mcst_id:#x}: psn {pkt.psn} "
                            f"replicated to port {e.port} which the "
                            f"epoch-{hdr.epoch} sp-rule does not cover")

    # ------------------------------------------------------------------
    # structural sweeps: MFT <-> topology consistency
    # ------------------------------------------------------------------

    def check_mft_consistency(self, fabric, expect_connected: bool = False,
                              injector=None) -> None:
        """Verify every MFT on every accelerator of ``fabric``.

        ``expect_connected=True`` additionally requires every MDT port to
        sit on a live link — call this after all failures are repaired.
        ``injector`` (a :class:`FailureInjector`) lets the sweep verify
        the injector's own severed-link bookkeeping too.

        Every MFT is walked on every sweep; :meth:`_check_mft`, the only
        place an ``mft-*`` violation is worded, runs for those
        :func:`_mft_clean` cannot vouch for, in (switch, McstID) order.
        """
        epochs = self._mft_epoch
        n_live = 0
        suspects = []
        for name, accel in fabric.accelerators.items():
            sw = accel.switch
            n_live += len(accel.table)
            for mcst_id, mft in accel.table.items():
                if expect_connected or not _mft_clean(mft, sw, epochs):
                    suspects.append((name, mcst_id, sw, mft))
        for name, mcst_id, sw, mft in sorted(suspects):  # keys never tie
            self._check_mft(f"{name}/mft {mcst_id:#x}", sw, mft,
                            expect_connected)
        # Every MFT walked now has an epoch on record; any record beyond
        # those pins an MFT no table of this or an attached fabric holds.
        if len(epochs) > n_live or not self._agg_seen.keys() <= epochs.keys():
            live = {mft for f in (fabric, *self._fabrics)
                    for accel in f.accelerators.values()
                    for _, mft in accel.table.items()}
            for hist in (self._agg_seen, epochs):
                for mft in [m for m in hist if m not in live]:
                    del hist[mft]
        if injector is not None:
            self._check_injector(injector)

    def _check_mft(self, where: str, sw, mft: Mft,
                   expect_connected: bool) -> None:
        """Every ``mft-*`` rule on one MFT."""
        rows = mft.path_table
        if len(rows) > sw.n_ports:
            self._flag("mft-radix", where,
                       f"{len(rows)} paths exceed radix {sw.n_ports}")
        seen_ports: Set[int] = set()
        for i, e in enumerate(rows):
            if e.port in seen_ports:
                self._flag("mft-duplicate-port", where,
                           f"port {e.port} appears twice in the path table")
            seen_ports.add(e.port)
            if not (0 <= e.port < sw.n_ports):
                self._flag("mft-bad-port", where,
                           f"path row {i} references port {e.port}")
                continue
            if mft.path_index[e.port] != i + 1:
                self._flag("mft-index-mismatch", where,
                           f"path_index[{e.port}] = "
                           f"{mft.path_index[e.port]}, row is {i}")
            if e.is_host and not sw.is_host_port(e.port):
                self._flag("mft-bridging-port", where,
                           f"host-facing entry on non-host port {e.port}")
            if expect_connected and not sw.ports[e.port].connected:
                self._flag("mft-severed-path", where,
                           f"MDT port {e.port} has no live link")
        for port, idx in enumerate(mft.path_index):
            if idx and not (1 <= idx <= len(rows)):
                self._flag("mft-dangling-index", where,
                           f"path_index[{port}] = {idx} but table has "
                           f"{len(rows)} rows")
        if (mft.ack_out_port is not None
                and not mft.has_port(mft.ack_out_port)):
            self._flag("mft-ackout-unknown", where,
                       f"AckOutPort {mft.ack_out_port} is not a tree port")
        m = _min_downstream(mft)
        if (m is not None and mft.agg_ack_psn != NO_ACK
                and mft.agg_ack_psn > m):
            self._flag("mft-agg-above-min", where,
                       f"AggAckPSN {mft.agg_ack_psn} above min "
                       f"downstream AckPSN {m}")
        prev_epoch = self._mft_epoch.get(mft)
        if prev_epoch is not None and mft.epoch < prev_epoch:
            self._flag("mft-epoch-regression", where,
                       f"membership epoch went backwards: "
                       f"{prev_epoch} -> {mft.epoch}")
        self._mft_epoch[mft] = max(prev_epoch or 0, mft.epoch)
        for port, members in mft.port_members.items():
            if members and not mft.has_port(port):
                self._flag("mft-member-orphan", where,
                           f"port {port} serves members {sorted(members)} "
                           f"but has no path entry")
        if mft.port_members:
            for e in rows:
                if (e.is_host and e.dst_ip and e.dst_ip
                        not in mft.port_members.get(e.port, ())):
                    self._flag("mft-member-orphan", where,
                               f"host entry for {e.dst_ip} on port "
                               f"{e.port} has no member-set record")
        # The member->port reverse index must mirror port_members
        # exactly — a stale index entry would mis-route a later
        # LEAVE/PRUNE to the wrong path.
        flat = {ip: port for port, members in
                mft.port_members.items() for ip in members}
        if mft.member_port != flat:
            only_idx = set(mft.member_port) - set(flat)
            only_set = set(flat) - set(mft.member_port)
            wrong = {ip for ip in set(flat) & set(mft.member_port)
                     if flat[ip] != mft.member_port[ip]}
            self._flag("mft-member-index-divergence", where,
                       f"member_port out of sync: index-only="
                       f"{sorted(only_idx)} set-only={sorted(only_set)} "
                       f"wrong-port={sorted(wrong)}")

    def _check_injector(self, injector) -> None:
        """The injector's severed map must mirror the port state."""
        for (dev_id, port), (peer, peer_port) in injector._severed.items():
            if peer.ports[peer_port].connected:
                # The reverse direction of a severed link must be cut too
                # (fail_link severs both; a half-open link would silently
                # deliver one direction).
                self._flag("injector-half-open", f"port {peer_port}",
                           "severed link has a live reverse direction")
