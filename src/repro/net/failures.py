"""Failure injection: dead links and dead switches.

The paper's safeguard fallback (§V-D) exists because "realistic
deployment of Cepheus must consider the possibility of extreme accident
instances" — yet the paper only prototypes the detection side.  This
module provides the accidents: a failed link silently discards
everything crossing it (as a yanked cable does), a failed switch
discards everything it receives.  The fallback tests and the
``lossy_fabric_fallback`` example use these to show Cepheus traffic
surviving a severed MDT via the AMcast fallback.

Failures can be scheduled mid-run (``at=``) and repaired, so tests can
also exercise recovery behaviour.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import TopologyError
from repro.net.switch import Switch
from repro.net.topology import Topology

__all__ = ["FailureInjector"]


class FailureInjector:
    """Cuts and repairs links/switches on a live topology."""

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        self.sim = topo.sim
        # (device id, port) -> original peer tuple, for repair
        self._severed: Dict[Tuple[int, int], Tuple[object, int]] = {}
        self._dead_switches: Dict[str, object] = {}
        self.links_failed = 0
        self.switches_failed = 0

    # -- links -----------------------------------------------------------------

    def fail_link(self, dev_a, port_a: int, *, at: Optional[float] = None) -> None:
        """Sever the bidirectional link attached to ``dev_a.ports[port_a]``.

        Packets already serialized keep propagating (they are on the
        wire); everything transmitted afterwards is lost.
        """
        if at is not None:
            self.sim.schedule(max(0.0, at - self.sim.now),
                              self.fail_link, dev_a, port_a)
            return
        if (id(dev_a), port_a) in self._severed:
            # Already down (double-fail, or a scheduled failure firing
            # while the link is still cut): yanking a yanked cable is a
            # no-op, not an error — crucial for `at=` events that race
            # with explicit failures.
            return
        pa = dev_a.ports[port_a]
        if not pa.connected:
            raise TopologyError(f"port {port_a} of {dev_a} has no link")
        dev_b, port_b = pa.peer_device, pa.peer_port
        pb = dev_b.ports[port_b]
        self._severed[(id(dev_a), port_a)] = (dev_b, port_b)
        self._severed[(id(dev_b), port_b)] = (dev_a, port_a)
        pa.peer_device = None
        pb.peer_device = None
        self.links_failed += 1

    def repair_link(self, dev_a, port_a: int) -> None:
        """Undo :meth:`fail_link`."""
        key = (id(dev_a), port_a)
        if key not in self._severed:
            raise TopologyError("link was not failed by this injector")
        dev_b, port_b = self._severed.pop(key)
        self._severed.pop((id(dev_b), port_b), None)
        dev_a.ports[port_a].connect(dev_b, port_b)
        dev_b.ports[port_b].connect(dev_a, port_a)

    def fail_host_link(self, ip: int, *, at: Optional[float] = None) -> None:
        """Cut a host off the fabric (its leaf-switch access link)."""
        sw, port = self.topo.leaf_of(ip)
        self.fail_link(sw, port, at=at)

    # -- switches --------------------------------------------------------------------

    def fail_switch(self, sw: Switch, *, at: Optional[float] = None) -> None:
        """Make the switch a black hole: every arriving packet is lost."""
        if at is not None:
            self.sim.schedule(max(0.0, at - self.sim.now),
                              self.fail_switch, sw)
            return
        if sw.name in self._dead_switches:
            return
        self._dead_switches[sw.name] = sw.receive
        sw.receive = lambda pkt, in_port: None
        self.switches_failed += 1

    def repair_switch(self, sw: Switch) -> None:
        original = self._dead_switches.pop(sw.name, None)
        if original is None:
            raise TopologyError(f"{sw.name} was not failed by this injector")
        sw.receive = original

    # -- introspection -----------------------------------------------------------------

    @property
    def active_failures(self) -> int:
        return len(self._severed) // 2 + len(self._dead_switches)
