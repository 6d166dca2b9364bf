"""The Cepheus broadcast primitive.

One RoCE message into the fabric; the MDT replicates it, leaf switches
bridge the connections, and the aggregated feedback stream drives the
sender's unmodified RC engine (§III).  ``prepare`` performs MFT
registration (control-plane, excluded from JCT like every other
scheme's connection setup); ``run`` posts exactly one message on the
current source's QP.

Includes the §V-D safeguard fallback: a registration failure, or a
mid-flight goodput collapse detected by the
:class:`~repro.core.fallback.SafeguardMonitor`, makes the collective
re-issue the broadcast over a plain AMcast algorithm (Chain by
default).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro import constants
from repro.apps.cluster import Cluster
from repro.collectives.base import BroadcastAlgorithm, BroadcastResult
from repro.collectives.chain import ChainBcast
from repro.core.fallback import SafeguardMonitor
from repro.core.group import MulticastGroup
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
        self.qps: Dict[int, RoceQP] = {}
        self.sprayer: Optional[LaneSprayer] = None
        self.health: Optional[LaneHealthMonitor] = None
        self.reassemblers: Dict[int, LaneReassembler] = {}
        self.fell_back = False
        self.fallback_reason: Optional[str] = None
        self.unreachable: set = set()
        self._fallback_algo: Optional[BroadcastAlgorithm] = None

    # -- setup ----------------------------------------------------------------

    def _setup(self) -> None:
        fabric = self.cluster.fabric
        self.qps = {ip: self.cluster.ctx(ip).create_qp() for ip in self.ranks}
        if self.paths == 1:
            self.group = fabric.create_group(self.qps, leader_ip=self.root)
        else:
            lane_members = [self.qps] + [
                {ip: self.cluster.ctx(ip).create_qp() for ip in self.ranks}
                for _ in range(self.paths - 1)
            ]
            self.group = fabric.create_group(
                self.qps, leader_ip=self.root, lane_members=lane_members)
        try:
            fabric.register_sync(self.group)
        except RegistrationError as exc:
            self._enter_fallback(f"registration failed: {exc}")
            return
        self.coordinator = SourceSwitchCoordinator(self.group)

    def _enter_fallback(self, reason: str) -> None:
        self.fell_back = True
        self.fallback_reason = reason
        if self._fallback_algo is None:
            self._fallback_algo = self.fallback_factory()
            self._fallback_algo.prepare()

    # -- source rotation (HPL-style reuse of the single MFT, §III-E) -----------

    def set_source(self, ip: int) -> None:
        """Switch the multicast source without re-registering."""
        self.prepare()
        if self.paths > 1:
            raise ConfigurationError(
                "source switching is single-lane only: §III-E PSN "
                "synchronization covers one stream, not k lane streams")
        if self.fell_back:
            # AMcast fallback: just re-root the fallback algorithm.
            self._fallback_algo = None
            self.root = ip
            self._enter_fallback(self.fallback_reason or "source switch")
            return
        self.coordinator.switch_to(ip)
        self.root = ip

    # -- dynamic membership (incremental MRP, §III-C) ---------------------------

    def join(self, ip: int) -> None:
        """Admit ``ip`` at runtime via an incremental MRP JOIN delta.

        Only the joiner's branch of the MDT is patched — no full
        re-registration.  Unavailable after a safeguard fallback (the
        AMcast algorithms have static membership).
        """
        self.prepare()
        if self.fell_back:
            raise ConfigurationError(
                "cannot join after safeguard fallback (static AMcast tree)")
        qp = self.cluster.ctx(ip).create_qp()
        lane_qps = None
        if self.paths > 1:
            lane_qps = [qp] + [self.cluster.ctx(ip).create_qp()
                               for _ in range(self.paths - 1)]
        self.cluster.fabric.membership(self.group).join_sync(
            ip, qp, lane_qps=lane_qps)
        self.qps[ip] = qp
        self.ranks.append(ip)

    def leave(self, ip: int) -> None:
        """Retire ``ip`` at runtime via an incremental MRP LEAVE delta."""
        self.prepare()
        if self.fell_back:
            raise ConfigurationError(
                "cannot leave after safeguard fallback (static AMcast tree)")
        self.cluster.fabric.membership(self.group).leave_sync(ip)
        self.qps.pop(ip, None)
        if ip in self.ranks:
            self.ranks.remove(ip)

    # -- one broadcast -----------------------------------------------------------

    def _launch(self, size: int, result: BroadcastResult) -> None:
        if self.fell_back:
            self._launch_fallback(size, result)
            return
        if self.paths > 1:
            self._launch_spray(size, result)
            return
        sim = self.cluster.sim
        stack = self.cluster.stack
        src_ip = self.group.current_source
        src_qp = self.qps[src_ip]

        for ip in self.ranks:
            if ip == src_ip:
                continue
            def handler(mid: int, sz: int, now: float, meta, _ip=ip) -> None:
                self._record_delivery(result, _ip, now)
            self.qps[ip].on_message = handler

        monitor: Optional[SafeguardMonitor] = None
        if self.safeguard:
            monitor = SafeguardMonitor(
                sim, src_qp, self.expected_bps,
                on_fallback=lambda reason: self._trip_midflight(
                    reason, size, result),
            )

        def sender_done(mid: int, now: float) -> None:
            result.sender_done = now
            if monitor is not None:
                monitor.stop()

        def post() -> None:
            src_qp.post_send(size, on_complete=sender_done)
            if monitor is not None:
                monitor.start()

        sim.schedule(stack.send, post)

    def _launch_spray(self, size: int, result: BroadcastResult) -> None:
        """k-path launch: stripe the message over the lane QPs.

        Every receiver gets a :class:`LaneReassembler` hooked on all of
        its lane QPs; the broadcast completes for a receiver when its
        per-lane segments cover the whole message.  A
        :class:`LaneHealthMonitor` runs for the duration of the
        transfer and re-sprays a dead lane's share on the survivors.
        """
        sim = self.cluster.sim
        stack = self.cluster.stack
        group = self.group
        src_ip = group.current_source

        for ip in self.ranks:
            if ip == src_ip:
                continue
            def done(sid: int, total: int, now: float, _ip=ip) -> None:
                self._record_delivery(result, _ip, now)
            reasm = LaneReassembler(ip, done, bus=sim.bus)
            reasm.attach([group.lane_members[lane][ip]
                          for lane in range(self.paths)])
            self.reassemblers[ip] = reasm

        lane_src_qps = [group.lane_members[lane][src_ip]
                        for lane in range(self.paths)]

        def all_acked(sid: int, now: float) -> None:
            result.sender_done = now
            if self.health is not None:
                self.health.stop()

        prev_dead = self.sprayer.dead if self.sprayer is not None else set()
        self.sprayer = LaneSprayer(sim, lane_src_qps, bus=sim.bus,
                                   on_complete=all_acked)
        self.sprayer.dead |= prev_dead  # a lane stays dead across sprays
        self.health = LaneHealthMonitor(
            sim, self.sprayer, stall_timeout=self.lane_stall_timeout)

        def post() -> None:
            self.sprayer.spray(size)
            self.health.start()

        sim.schedule(stack.send, post)

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
            self.fallback_reason = f"{reason}; partial recovery failed: {why}"
            if self._fallback_algo is None:
                self._fallback_algo = self.fallback_factory()
                self._fallback_algo.prepare()
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
                on_success=lambda: resend(group2, survivors),
            )

        def resend(group2: MulticastGroup, survivors) -> None:
            self.group = group2
            self.coordinator = SourceSwitchCoordinator(group2)
            src_qp = self.qps[self.root]
            # Stream-position resync (the recovery analogue of §III-E
            # PSN synchronization): survivors expect the PSNs of the
            # aborted transfer; align them with the sender's restart
            # point so the re-sent message is accepted in order.
            for ip in survivors:
                if ip == self.root:
                    continue
                qp = self.qps[ip]
                qp.rq_psn = src_qp.sq_psn
                qp._nack_pending = False
            src_qp.post_send(
                size,
                on_complete=lambda mid, now: setattr(
                    result, "sender_done", now))

    def _launch_fallback(self, size: int, result: BroadcastResult) -> None:
        """Run the payload over the AMcast algorithm instead.

        The fallback's deliveries land in a sub-result while the sim
        runs; :meth:`run` merges them into the caller's result after the
        drain (they may arrive after a partial Cepheus delivery, so the
        later timestamp wins).
        """
        algo = self._fallback_algo
        sub = BroadcastResult(algorithm=algo.name, root=algo.root, size=size,
                              start=self.cluster.sim.now)
        algo._launch(size, sub)
        self._pending_merge = sub

    def run(self, size: int) -> BroadcastResult:
        """Like the base run, but merges mid-flight fallback deliveries."""
        self.prepare()
        sim = self.cluster.sim
        res = BroadcastResult(algorithm=self.name, root=self.root,
                              size=size, start=sim.now)
        ev0 = sim.events_run
        self._pending_merge: Optional[BroadcastResult] = None
        self._launch(size, res)
        sim.run()
        if self._pending_merge is not None:
            for ip, t in self._pending_merge.recv_times.items():
                if ip not in res.recv_times or t > res.recv_times[ip]:
                    res.recv_times[ip] = t
            res.algorithm = f"{self.name}+fallback"
        elif self.fell_back and self.recovery == "partial":
            res.algorithm = f"{self.name}+partial"
        res.events = sim.events_run - ev0
        missing = [ip for ip in self.ranks if ip != self.root
                   and ip not in res.recv_times
                   and ip not in self.unreachable]
        if missing:
            raise ConfigurationError(
                f"{self.name}: receivers never completed: {missing}")
        return res
