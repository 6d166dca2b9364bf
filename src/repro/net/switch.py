"""Store-and-forward Ethernet switch.

The switch owns its radix of :class:`~repro.net.port.Port` objects, a
unicast FIB with ECMP groups, a :class:`~repro.net.pfc.PfcManager`, and
— when the fabric is Cepheus-enabled — an attached accelerator that the
receive path consults through an ACL-style classifier, mirroring the
paper's deployment ("legacy Ethernet switches ... configured with ACL
rules to direct multicast traffic towards the FPGA board").

The receive path is four steps of straight-line code (PFC → loss →
ACL classify → unicast forward); the ACL step hands classified packets
to :meth:`~repro.core.accelerator.CepheusAccelerator.process`, which is
the paper's Fig. 7a sequence.  Cross-cutting consumers observe both
through the simulator's single :class:`~repro.net.pipeline.ObserverBus`.

Random packet discard for the loss-tolerance experiments (§V-C) is a
per-switch knob, applied on ingress as in the paper ("emulated via
randomly discarding packets in the middle switches").
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import constants
from repro.errors import RoutingError
from repro.net.packet import Packet, PacketType
from repro.net.pfc import PfcManager
from repro.net.port import Port
from repro.net.simulator import Simulator

__all__ = ["Switch", "SwitchConfig"]

_PAUSE_RESUME = (PacketType.PAUSE, PacketType.RESUME)
_DATA = PacketType.DATA


@dataclass
class SwitchConfig:
    """Per-switch tunables; defaults come from :mod:`repro.constants`."""

    queue_capacity: int = constants.SWITCH_QUEUE_BYTES
    ecn_kmin: int = constants.ECN_KMIN_BYTES
    ecn_kmax: int = constants.ECN_KMAX_BYTES
    ecn_pmax: float = constants.ECN_PMAX
    pfc_enabled: bool = True
    pfc_xoff: int = constants.PFC_XOFF_BYTES
    pfc_xon: int = constants.PFC_XON_BYTES
    loss_rate: float = 0.0
    loss_applies_to_feedback: bool = False
    accelerator_delay: float = constants.ACCELERATOR_DELAY_S
    seed: int = 0


class Switch:
    """An output-queued switch with an optional Cepheus accelerator."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        n_ports: int,
        config: Optional[SwitchConfig] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.n_ports = n_ports
        self.config = config or SwitchConfig()
        cfg = self.config
        # Seeds derive from a stable digest (never the process-randomized
        # str hash) so runs reproduce across interpreter invocations.
        self.ports: List[Port] = [
            Port(
                self, i,
                queue_capacity=cfg.queue_capacity,
                ecn_kmin=cfg.ecn_kmin,
                ecn_kmax=cfg.ecn_kmax,
                ecn_pmax=cfg.ecn_pmax,
                seed=zlib.crc32(f"{cfg.seed}:{name}:{i}".encode()),
            )
            for i in range(n_ports)
        ]
        self.pfc = PfcManager(
            self, n_ports,
            xoff_bytes=cfg.pfc_xoff, xon_bytes=cfg.pfc_xon,
            enabled=cfg.pfc_enabled,
        )
        for p in self.ports:
            p.ingress_of = self.pfc.on_dequeue
        # FIB: dst_ip -> ECMP group (tuple of candidate egress ports).
        # Entries are immutable and may be shared: the topology installs
        # one tuple for every host behind the same edge switch.
        self.fib: Dict[int, Tuple[int, ...]] = {}
        # "host" or "switch" per port; topology fills this in.
        self.port_kind: List[Optional[str]] = [None] * n_ports
        self.accelerator = None  # set by CepheusFabric.attach()
        # The loss RNG is built on its first draw, from this seed.
        self._loss_seed = zlib.crc32(f"{cfg.seed}:{name}:loss".encode())
        self._rng: Optional[random.Random] = None
        self.random_drops = 0
        self.taildrops = 0
        self.forwarded = 0
        self.bus = sim.bus
        self._pkt_pool = sim.pools.pkt

    # -- FIB management -------------------------------------------------------

    def add_route(self, dst_ip: int, ports: Sequence[int]) -> None:
        """Install (or extend) the ECMP group for ``dst_ip``, replacing
        the entry rather than mutating it: entries may be shared."""
        group = self.fib.get(dst_ip, ())
        self.fib[dst_ip] = group + tuple(
            p for p in dict.fromkeys(ports) if p not in group)

    def route_lookup(self, pkt: Packet) -> int:
        """Pick the egress port for a unicast packet (flow-hash ECMP)."""
        group = self.fib.get(pkt.dst_ip)
        if not group:
            raise RoutingError(f"{self.name}: no route for dst {pkt.dst_ip}")
        if len(group) == 1:
            return group[0]
        return group[pkt.flow_hash() % len(group)]

    def route_ports(self, dst_ip: int) -> List[int]:
        """All candidate egress ports toward ``dst_ip`` (for MDT building)."""
        group = self.fib.get(dst_ip)
        if not group:
            raise RoutingError(f"{self.name}: no route for dst {dst_ip}")
        return list(group)

    # -- receive path ---------------------------------------------------------

    def receive(self, pkt: Packet, in_port: int) -> None:
        # Link-local PAUSE/RESUME frames never travel further.
        if pkt.ptype in _PAUSE_RESUME:
            self.pfc.handle_frame(pkt, in_port)
            self._pkt_pool.release(pkt)
            return
        # Random ingress discard for the §V-C loss experiments.
        if self.config.loss_rate > 0.0 and self._should_randomly_drop(pkt):
            self.random_drops += 1
            bus = self.bus
            if bus.drop:
                bus.publish("drop", self, pkt, in_port, "random-loss")
            self._pkt_pool.release(pkt)
            return
        # ACL redirect: the accelerator owns classified packets from here
        # (it models the admission delay and, for look-aside deployments,
        # the FPGA detour).
        accel = self.accelerator
        if accel is not None and accel.classify(pkt):
            bus = self.bus
            if bus.classify:
                bus.publish("classify", self, pkt, in_port)
            accel.process(pkt, in_port)
            return
        # Default path: flow-hash ECMP forwarding via the FIB.
        self.emit(pkt, self.route_lookup(pkt), in_port)

    def _should_randomly_drop(self, pkt: Packet) -> bool:
        rate = self.config.loss_rate
        if rate <= 0.0:
            return False
        if pkt.ptype == _DATA or (
                pkt.is_feedback and self.config.loss_applies_to_feedback):
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._loss_seed)
            return rng.random() < rate
        return False

    # -- transmit path ----------------------------------------------------------

    def emit(self, pkt: Packet, out_port: int, in_port: int = -1) -> bool:
        """Queue ``pkt`` on ``out_port`` with PFC ingress accounting.

        ``in_port`` of -1 marks locally generated packets (aggregated
        ACKs, MRP fan-out) which do not contribute to PFC occupancy.
        """
        bus = self.bus
        if bus.emit:
            bus.publish("emit", self, pkt, out_port, in_port)
        ok = self.ports[out_port].enqueue(pkt, in_port)
        if ok:
            self.forwarded += 1
            self.pfc.on_enqueue(pkt, in_port)
        else:
            self._pkt_pool.release(pkt)  # tail-dropped: provably dead
        return ok

    def on_drop(self, pkt: Packet, port_index: int, reason: str) -> None:
        """Callback from ports for tail-drops."""
        self.taildrops += 1
        bus = self.bus
        if bus.drop:
            bus.publish("drop", self, pkt, port_index, reason)

    # -- helpers ------------------------------------------------------------------

    def host_ports(self) -> List[int]:
        return [i for i, k in enumerate(self.port_kind) if k == "host"]

    def is_host_port(self, index: int) -> bool:
        return self.port_kind[index] == "host"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Switch {self.name} ports={self.n_ports}>"
