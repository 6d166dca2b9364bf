"""CepheusFabric: wiring the accelerator + control plane onto a topology.

One :class:`CepheusFabric` per experiment: it bolts a
:class:`~repro.core.accelerator.CepheusAccelerator` onto every switch,
installs a :class:`~repro.core.mrp.HostControlAgent` on every host NIC,
allocates McstIDs, and drives MFT registration for groups.

This is the deployment story of §IV condensed: in the paper each rack's
switch gets an FPGA sidecar; here every simulated switch gets its
accelerator object (an ``accelerated`` predicate allows partial
deployments for tests).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.core.accelerator import AcceleratorConfig, CepheusAccelerator
from repro.core.group import McstIdAllocator, MulticastGroup
from repro.core.membership import MembershipManager
from repro.core.mrp import HostControlAgent, MrpTransaction
from repro.core.source_routing import SourceRoutingManager
from repro.errors import ConfigurationError, GroupError
from repro.net.switch import Switch
from repro.net.topology import Topology
from repro.transport.roce import RoceQP

__all__ = ["CepheusFabric"]


class CepheusFabric:
    """Accelerated fabric + control plane for one topology."""

    def __init__(
        self,
        topo: Topology,
        accel_config: Optional[AcceleratorConfig] = None,
        accelerated: Optional[Callable[[Switch], bool]] = None,
    ) -> None:
        self.topo = topo
        self.sim = topo.sim
        self.accel_config = accel_config or AcceleratorConfig()
        self.accelerators: Dict[str, CepheusAccelerator] = {}
        for sw in topo.switches:
            if accelerated is None or accelerated(sw):
                self.accelerators[sw.name] = CepheusAccelerator(sw, self.accel_config)
        self.agents: Dict[int, HostControlAgent] = {
            ip: HostControlAgent(topo.nic(ip)) for ip in topo.host_ips
        }
        self.alloc = McstIdAllocator()
        self.groups: Dict[int, MulticastGroup] = {}
        self._memberships: Dict[int, MembershipManager] = {}
        # Source-routed deployment: the sender-side tree compiler +
        # residual-rule control plane (None in the MFT deployments).
        self.source_routing: Optional[SourceRoutingManager] = None
        if self.accel_config.deployment == "source_routed":
            self.source_routing = SourceRoutingManager(
                self, self.accel_config.source_routing)

    # -- group lifecycle ------------------------------------------------------

    def create_group(
        self,
        members: Dict[int, RoceQP],
        leader_ip: Optional[int] = None,
        mr_info: Optional[Dict[int, "tuple[int, int]"]] = None,
        lane_members: Optional[list] = None,
    ) -> MulticastGroup:
        """Allocate a McstID and virtual-connect every member QP.

        ``lane_members`` (a list of k per-lane ``{ip: qp}`` dicts whose
        first entry is ``members``) turns the group into a k-lane MRC
        group: a k-id McstID family is allocated atomically and lane
        l's QPs virtual-connect to lane l's id.  Omitted, the group is
        a classic single-lane group — a family of one, whose id is the
        group's McstID.
        """
        lanes = lane_members or [members]
        lane_ids = self.alloc.allocate_family(len(lanes))
        try:
            group = MulticastGroup(
                lane_ids[0], members, leader_ip, mr_info,
                lane_ids=lane_ids, lane_members=lanes)
        except GroupError:
            for gid in lane_ids:
                self.alloc.release(gid)
            raise
        group.connect_virtual()
        for lane_id in group.lane_ids:
            self.groups[lane_id] = group
        return group

    def register(
        self,
        group: MulticastGroup,
        *,
        on_success: Optional[Callable[[], None]] = None,
        on_failure: Optional[Callable[[str], None]] = None,
        timeout: float = 10e-3,
        allow_partial: bool = False,
    ) -> MrpTransaction:
        """Start asynchronous MRP registration for ``group``.

        A k-lane group compiles all k MDTs in the one transaction:
        success fires only when every lane confirmed, and the first
        lane failure fails the whole family (callers tear the group
        down, so no half-compiled lane set survives).
        """
        if self.source_routing is not None:
            # Compile + activate the headers before any MRP travels: the
            # first DATA packet must already carry its tree.
            self.source_routing.attach(group)

        def done(txn: MrpTransaction) -> None:
            if txn.failed_reason is None:
                if on_success is not None:
                    on_success()
            elif on_failure is not None:
                on_failure(txn.failed_reason)

        txn = MrpTransaction(
            self.sim, group, self.topo.nic(group.leader_ip),
            timeout=timeout, allow_partial=allow_partial, on_done=done,
        )
        self.agents[group.leader_ip].attach_controller(txn)
        txn.start()
        return txn

    def register_sync(self, group: MulticastGroup, timeout: float = 10e-3) -> None:
        """Run the simulator until registration completes; raises on failure.

        Convenience for tests/examples that set up a group before the
        measured phase starts.
        """
        self.register(group, timeout=timeout).run_until_resolved()

    def register_partial_sync(self, group: MulticastGroup,
                              timeout: float = 2e-3) -> "set[int]":
        """Probe registration: returns the set of members that never
        confirmed (the survivors define the re-formed group)."""
        txn = self.register(group, timeout=timeout, allow_partial=True)
        return set(txn.run_until_resolved().unconfirmed())

    def membership(self, group: MulticastGroup,
                   coalesce_window: Optional[float] = None
                   ) -> MembershipManager:
        """The (cached) runtime membership controller for ``group``.

        ``coalesce_window`` is a per-group policy fixed when the manager
        is first created; ``None`` means "whatever the manager has",
        any other value must match it."""
        mgr = self._memberships.get(group.mcst_id)
        if mgr is None or mgr.group is not group:
            mgr = MembershipManager(self, group,
                                    coalesce_window=coalesce_window)
            self._memberships[group.mcst_id] = mgr
        elif (coalesce_window is not None
              and coalesce_window != mgr.coalesce_window):
            raise ConfigurationError(
                f"group {group.mcst_id:#x} already has a membership "
                f"manager with coalesce_window={mgr.coalesce_window!r}; "
                f"cannot change it to {coalesce_window!r}")
        return mgr

    def unregister(self, group: MulticastGroup) -> None:
        """Remove the group's MFT from every accelerator (control-plane
        teardown; frees switch memory for abandoned probe groups) and
        recycle its McstID.

        Every lane of the family retires atomically: per-lane MFTs,
        per-lane source-routing headers and residual rules, the
        leader's control endpoint, and finally the whole McstID family.
        """
        for lane_id in group.lane_ids:
            for accel in self.accelerators.values():
                mft = accel.table.get(lane_id)
                if mft is None:
                    continue
                for port in mft.loaded_ports:
                    n = accel.port_group_load.get(port, 0)
                    if n > 0:
                        accel.port_group_load[port] = n - 1
                accel.table.remove(lane_id)
        if self.source_routing is not None:
            self.source_routing.detach(group)
        mgr = self._memberships.pop(group.mcst_id, None)
        if mgr is not None:
            mgr.stop_failure_detector()
            if mgr._flush_ev is not None:       # unflushed coalescing batch
                mgr._flush_ev.cancel()
                mgr._flush_ev = None
        self.agents[group.leader_ip].detach_controller(group)
        if self.groups.pop(group.mcst_id, None) is not None:
            for lane_id in group.lane_ids[1:]:
                self.groups.pop(lane_id, None)
            for lane_id in group.lane_ids:
                self.alloc.release(lane_id)

    def set_group_mode(self, mcst_id: int, mode: str) -> None:
        """Flip a registered group between broadcast and the experimental
        many-to-one reduce mode (§VIII) on every MDT switch.

        Control-plane operation, performed out-of-band like MFT
        registration itself.
        """
        if mode not in ("bcast", "reduce"):
            raise GroupError(f"unknown group mode {mode!r}")
        touched = 0
        for accel in self.accelerators.values():
            mft = accel.mft_of(mcst_id)
            if mft is not None:
                mft.mode = mode
                mft.reduce_slots.clear()
                touched += 1
        if touched == 0:
            raise GroupError(f"group {mcst_id:#x} is not registered anywhere")

    # -- introspection -----------------------------------------------------------

    def accelerator_of(self, switch_name: str) -> CepheusAccelerator:
        return self.accelerators[switch_name]

    def mdt_switches(self, mcst_id: int) -> Iterable[CepheusAccelerator]:
        """Accelerators holding an MFT for the group (the MDT footprint)."""
        return [a for a in self.accelerators.values() if a.mft_of(mcst_id)]

    def total_mft_memory(self) -> int:
        return sum(a.memory_bytes() for a in self.accelerators.values())
