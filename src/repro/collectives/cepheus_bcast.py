"""The Cepheus broadcast primitive.

One RoCE message into the fabric; the MDT replicates it, leaf switches
bridge the connections, and the aggregated feedback stream drives the
sender's unmodified RC engine (§III).  ``prepare`` performs MFT
registration (control-plane, excluded from JCT like every other
scheme's connection setup).

:class:`CepheusBcast` is the group's one send/receive seam: ``post``
sends a message from the current source, ``on_delivery`` sees every
member's completed messages, ``start_join`` / ``start_leave`` change
the membership — all non-blocking, all the same calls whatever the lane
count.  ``run`` is the blocking benchmark collective on top: one
``post``, drain, timings.

Includes the §V-D safeguard fallback: a registration failure, or a
mid-flight goodput collapse detected by the
:class:`~repro.core.fallback.SafeguardMonitor`, makes the collective
re-issue the broadcast over a plain AMcast algorithm (Chain by
default).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro import constants
from repro.apps.cluster import Cluster
from repro.collectives.base import BroadcastAlgorithm, BroadcastResult
from repro.collectives.chain import ChainBcast
from repro.core.fallback import SafeguardMonitor
from repro.core.group import MulticastGroup
from repro.core.mrp import MrpTransaction
from repro.core.source_switch import SourceSwitchCoordinator
from repro.errors import ConfigurationError, RegistrationError
from repro.transport.roce import RoceQP
from repro.transport.spray import (LaneHealthMonitor, LaneReassembler,
                                   LaneSprayer)

__all__ = ["CepheusBcast"]


class CepheusBcast(BroadcastAlgorithm):
    """In-network multicast over one RC connection per member."""

    name = "cepheus"

    def __init__(
        self,
        cluster: Cluster,
        members: List[int],
        root: Optional[int] = None,
        *,
        safeguard: bool = False,
        expected_bps: Optional[float] = None,
        fallback_factory: Optional[Callable[[], BroadcastAlgorithm]] = None,
        recovery: str = "amcast",
        paths: int = 1,
        lane_stall_timeout: float = 3e-3,
    ) -> None:
        """``recovery`` selects the safeguard action: ``"amcast"`` re-runs
        the payload over the fallback algorithm (§V-D), ``"partial"``
        implements the paper's envisioned fine-grained fallback — probe
        membership, re-form the multicast group around the survivors,
        and re-send in-network, reporting the unreachable members.

        ``paths=k`` turns on MRC-style k-path spraying: the group
        becomes a k-lane McstID family, every member gets one RC
        connection per lane, and each broadcast is striped over the
        lanes' PSN sub-ranges.  A lane whose acknowledgements stall for
        ``lane_stall_timeout`` is declared dead and its share re-sprayed
        across the surviving lanes (no group-wide go-back-N).
        ``paths=1`` is bit-for-bit the classic single-tree broadcast."""
        super().__init__(cluster, members, root)
        if cluster.fabric is None:
            raise ConfigurationError(
                "CepheusBcast needs a Cepheus-enabled cluster (cepheus=True)")
        if recovery not in ("amcast", "partial"):
            raise ConfigurationError(f"unknown recovery mode {recovery!r}")
        if paths < 1:
            raise ConfigurationError(f"paths must be >= 1, got {paths}")
        if paths > 1 and safeguard:
            raise ConfigurationError(
                "the safeguard fallback is single-lane only; k-path "
                "spraying recovers per lane instead")
        self.paths = paths
        self.lane_stall_timeout = lane_stall_timeout
        self.safeguard = safeguard
        self.expected_bps = expected_bps or constants.LINK_BANDWIDTH_BPS
        self.fallback_factory = fallback_factory or (
            lambda: ChainBcast(cluster, list(self.ranks), self.root))
        self.recovery = recovery
        self.group: Optional[MulticastGroup] = None
        self.coordinator: Optional[SourceSwitchCoordinator] = None
        #: ``on_delivery(ip, handle, nbytes, now, meta)``: member ``ip``
        #: has the whole message ``post`` returned ``handle`` for.
        self.on_delivery: Optional[
            Callable[[int, int, int, float, Any], None]] = None
        #: Each member's lane-0 QP, for introspection (counters, CC
        #: state) — not a send path: messages go through :meth:`post`.
        self.qps: Dict[int, RoceQP] = {}
        self.sprayer: Optional[LaneSprayer] = None        # k > 1: built by
        self.health: Optional[LaneHealthMonitor] = None   # the first post
        self.reassemblers: Dict[int, LaneReassembler] = {}
        #: A safeguard recovery happened (either kind) / why / whom a
        #: partial recovery left out.  Whether messages now travel over
        #: AMcast is a separate fact: ``_fallback_algo is not None``.
        self.fell_back = False
        self.fallback_reason: Optional[str] = None
        self.unreachable: set = set()
        self._fallback_algo: Optional[BroadcastAlgorithm] = None
        self._result: Optional[BroadcastResult] = None    # the run in progress
        self._pending_merge: Optional[BroadcastResult] = None
        self._meta: Any = None        # k > 1: the in-flight message's meta

    # -- setup ----------------------------------------------------------------

    def _setup(self) -> None:
        fabric = self.cluster.fabric
        lanes = [{ip: self.cluster.ctx(ip).create_qp() for ip in self.ranks}
                 for _ in range(self.paths)]
        self.qps = lanes[0]
        self.group = fabric.create_group(
            self.qps, leader_ip=self.root, lane_members=lanes)
        for ip in self.ranks:
            self._wire(ip, [lane[ip] for lane in lanes])
        try:
            fabric.register_sync(self.group)
        except RegistrationError as exc:
            self._enter_fallback(f"registration failed: {exc}")
            return
        self.coordinator = SourceSwitchCoordinator(self.group)

    def _wire(self, ip: int, lane_qps: List[RoceQP]) -> None:
        """Route member ``ip``'s completed messages to the run in
        progress and to :attr:`on_delivery` — once, for the member's
        lifetime (any member may become a receiver, §III-E)."""

        def deliver(handle: int, nbytes: int, now: float, meta) -> None:
            result, hook = self._result, self.on_delivery
            if result is not None:
                self._record_delivery(result, ip, now)
            if hook is not None:
                hook(ip, handle, nbytes, now, meta)

        if self.paths > 1:
            self.reassemblers[ip] = LaneReassembler(
                ip, lane_qps, lambda sid, total, now: deliver(
                    sid, total, now, self._meta))
        else:
            lane_qps[0].on_message = deliver

    def _enter_fallback(self, reason: str) -> None:
        self.fell_back = True
        self.fallback_reason = reason
        if self._fallback_algo is None:
            self._fallback_algo = self.fallback_factory()
            self._fallback_algo.prepare()

    def _require_group(self, what: str) -> None:
        self.prepare()
        if self._fallback_algo is not None:
            raise ConfigurationError(
                f"cannot {what} after safeguard fallback (static AMcast tree)")

    # -- source rotation (HPL-style reuse of the single MFT, §III-E) -----------

    def set_source(self, ip: int) -> None:
        """Switch the multicast source without re-registering."""
        self.prepare()
        if self.paths > 1:
            raise ConfigurationError(
                "source switching is single-lane only: §III-E PSN "
                "synchronization covers one stream, not k lane streams")
        if self._fallback_algo is not None:
            # AMcast fallback: just re-root the fallback algorithm.
            self._fallback_algo = None
            self.root = ip
            self._enter_fallback(self.fallback_reason or "source switch")
            return
        self.coordinator.switch_to(ip)
        self.root = ip

    # -- dynamic membership (incremental MRP, §III-C) ---------------------------

    def start_join(self, ip: int) -> MrpTransaction:
        """Admit ``ip`` at runtime via an incremental MRP JOIN delta.

        Creates the joiner's QPs (one per lane), wires its deliveries
        and returns the in-flight transaction; the joiner is owed every
        message posted from now on (with a coalescing window, from the
        window's flush on).  Only the joiner's branch of the MDT
        is patched — no full re-registration.  Unavailable after an
        AMcast fallback (the AMcast algorithms have static membership).
        """
        self._require_group("join")
        lane_qps = [self.cluster.ctx(ip).create_qp()
                    for _ in range(self.paths)]
        txn = self.cluster.fabric.membership(self.group).join(
            ip, lane_qps[0], lane_qps=lane_qps)
        self._wire(ip, lane_qps)
        self.qps[ip] = lane_qps[0]
        self.ranks.append(ip)
        return txn

    def start_leave(self, ip: int) -> MrpTransaction:
        """Retire ``ip`` at runtime via an incremental MRP LEAVE delta."""
        self._require_group("leave")
        txn = self.cluster.fabric.membership(self.group).leave(ip)
        self.qps.pop(ip, None)
        self.reassemblers.pop(ip, None)
        if ip in self.ranks:
            self.ranks.remove(ip)
        return txn

    def join(self, ip: int) -> None:
        """:meth:`start_join`, run to completion.  A join that fails is
        rolled back — the half-admitted member is retired again, so the
        group keeps serving whom it served before."""
        try:
            self.start_join(ip).run_until_resolved()
        except RegistrationError:
            self.leave(ip)
            raise

    def leave(self, ip: int) -> None:
        """:meth:`start_leave`, run to completion."""
        self.start_leave(ip).run_until_resolved()

    # -- the endpoint: one message in, one delivery per member out ----------------

    @property
    def send_idle(self) -> bool:
        """True when no member QP, on any lane, has unacknowledged sends."""
        return all(qp.send_idle for lane in self.group.lane_members
                   for qp in lane.values())

    def post(self, size: int, *,
             on_complete: Optional[Callable[[int, float], None]] = None,
             meta: Any = None) -> int:
        """Send one ``size``-byte message from the current source.

        Non-blocking.  Returns the message's handle — the one every
        member's :attr:`on_delivery` and, once every receiver has
        acknowledged it, ``on_complete(handle, now)`` are called with.

        This is the only place the lane count matters on the send side.
        One lane: the message is one ``post_send`` on the source's
        unmodified RC QP, and any number may be outstanding.  k lanes:
        it is striped over the lane QPs, the health monitor watches
        them until it completes and re-sprays a dead lane's share over
        the survivors (a lane once dead stays dead); one message at a
        time — a second ``post`` before completion is a TransportError.
        """
        self._require_group("post")
        if self.paths > 1:
            if self.sprayer is None:
                # No source switching with k lanes: one sprayer (its
                # dead lanes stay dead) and one monitor for the group.
                self.sprayer = LaneSprayer(
                    self.cluster.sim, [lane[self.root] for lane
                                       in self.group.lane_members])
                self.health = LaneHealthMonitor(
                    self.cluster.sim, self.sprayer,
                    stall_timeout=self.lane_stall_timeout)

            def all_acked(sid: int, now: float) -> None:
                self.health.stop()
                if on_complete is not None:
                    on_complete(sid, now)

            handle = self.sprayer.spray(size)  # raises while one is in flight
            self.sprayer.on_complete = all_acked
            self.sprayer.resprays = 0          # counted per message
            self._meta = meta
            self.health.start()
            return handle
        return self.group.members[self.group.current_source].post_send(
            size, on_complete=on_complete, meta=meta)

    # -- one timed broadcast (the blocking collective over the endpoint) ----------

    def _launch(self, size: int, result: BroadcastResult) -> None:
        self._pending_merge = None
        if self._fallback_algo is not None:
            self._launch_fallback(size, result)
            return
        self._result = result
        monitor: Optional[SafeguardMonitor] = None
        if self.safeguard:
            monitor = SafeguardMonitor(
                self.cluster.sim, self.qps[self.group.current_source],
                self.expected_bps,
                on_fallback=lambda reason: self._trip_midflight(
                    reason, size, result),
            )

        def sender_done(handle: int, now: float) -> None:
            result.sender_done = now
            if monitor is not None:
                monitor.stop()

        def post() -> None:
            self.post(size, on_complete=sender_done)
            if monitor is not None:
                monitor.start()

        self.cluster.sim.schedule(self.cluster.stack.send, post)

    def _trip_midflight(self, reason: str, size: int,
                        result: BroadcastResult) -> None:
        """Goodput collapsed: stop the dead in-network transfer and
        recover per the configured mode (§V-D)."""
        self.qps[self.group.current_source].abort_sends()
        if self.recovery == "partial":
            self._recover_partial(reason, size, result)
        else:
            self._enter_fallback(reason)
            self._launch_fallback(size, result)

    def _recover_partial(self, reason: str, size: int,
                         result: BroadcastResult) -> None:
        """Fine-grained fallback: probe membership via a partial MRP
        registration, re-form the group around the survivors, re-send
        in-network.  Falls back to AMcast if the probe itself fails.

        Everything runs through asynchronous registration callbacks so
        the recovery happens *inside* the ongoing simulation run.
        """
        fabric = self.cluster.fabric
        self.fell_back = True
        self.fallback_reason = reason

        def amcast_rescue(why: str) -> None:
            self._enter_fallback(f"{reason}; partial recovery failed: {why}")
            self._launch_fallback(size, result)

        probe = fabric.create_group(dict(self.qps), leader_ip=self.root)
        ctl = fabric.register(
            probe, allow_partial=True, timeout=2e-3,
            on_failure=amcast_rescue,
            on_success=lambda: probe_done(),
        )

        def probe_done() -> None:
            fabric.unregister(probe)
            self.unreachable = set(ctl.unconfirmed())
            survivors = [ip for ip in self.ranks
                         if ip not in self.unreachable]
            if len(survivors) < 2:
                amcast_rescue("no surviving receivers")
                return
            qps = {ip: self.qps[ip] for ip in survivors}
            group2 = fabric.create_group(qps, leader_ip=self.root)
            fabric.register(
                group2,
                on_failure=amcast_rescue,
                on_success=lambda: resend(group2),
            )

        def resend(group2: MulticastGroup) -> None:
            self.group = group2
            self.coordinator = SourceSwitchCoordinator(group2)
            # Stream-position resync (the recovery analogue of §III-E
            # PSN synchronization): survivors expect the PSNs of the
            # aborted transfer; align them with the sender's restart
            # point so the re-sent message is accepted in order.
            restart = group2.members[self.root].sq_psn
            for ip in group2.receivers():
                group2.members[ip].resync_rx(restart)
            self.post(size, on_complete=lambda handle, now: setattr(
                result, "sender_done", now))

    def _launch_fallback(self, size: int, result: BroadcastResult) -> None:
        """Run the payload over the AMcast algorithm instead.

        The fallback's deliveries land in a sub-result while the sim
        runs; :meth:`_finish` merges them into the caller's result after
        the drain (they may arrive after a partial Cepheus delivery, so
        the later timestamp wins).
        """
        algo = self._fallback_algo
        sub = BroadcastResult(algorithm=algo.name, root=algo.root, size=size,
                              start=self.cluster.sim.now)
        algo._launch(size, sub)
        self._pending_merge = sub

    def _finish(self, result: BroadcastResult) -> None:
        """Merge mid-flight fallback deliveries and label the result."""
        self._result = None
        if self._pending_merge is not None:
            for ip, t in self._pending_merge.recv_times.items():
                if ip not in result.recv_times or t > result.recv_times[ip]:
                    result.recv_times[ip] = t
            result.algorithm = f"{self.name}+fallback"
        elif self.fell_back and self.recovery == "partial":
            result.algorithm = f"{self.name}+partial"
        super()._finish(result, self.unreachable)
