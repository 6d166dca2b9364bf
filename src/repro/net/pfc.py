"""Priority Flow Control (IEEE 802.1Qbb), simplified single-priority.

The paper deploys Cepheus in lossless RoCE fabrics and describes PFC's
interaction with multicast replication (§III-D, Flow Control): when an
egress port of a replicating switch is paused, the ingress stops pulling
from upstream, the ingress-side occupancy grows, and the switch
eventually pauses *its* upstream.  We reproduce that with per-ingress
byte accounting:

* every time a packet that arrived on ingress ``i`` is queued at any
  egress, ``occupancy[i]`` grows;
* when the packet finally leaves the egress transmitter, ``occupancy[i]``
  shrinks (the egress :class:`~repro.net.port.Port` calls back via its
  ``ingress_of`` hook);
* crossing XOFF sends a PAUSE out of port ``i`` (toward the upstream
  device), and falling below XON sends a RESUME.

A replicated packet counts once per replica, which is exactly the
behaviour the paper wants: a single paused subtree inflates the ingress
count and throttles the whole group at the source's rate.
"""

from __future__ import annotations

from typing import List

from repro import constants
from repro.net.packet import Packet, PacketType

__all__ = ["PfcManager"]


class PfcManager:
    """Per-switch PFC state machine."""

    def __init__(
        self,
        device,
        n_ports: int,
        *,
        xoff_bytes: int = constants.PFC_XOFF_BYTES,
        xon_bytes: int = constants.PFC_XON_BYTES,
        enabled: bool = True,
    ) -> None:
        self.device = device
        self.enabled = enabled
        self.xoff_bytes = xoff_bytes
        self.xon_bytes = xon_bytes
        self._occupancy: List[int] = [0] * n_ports
        self._pause_sent: List[bool] = [False] * n_ports
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0

    # -- occupancy accounting ------------------------------------------------

    def on_enqueue(self, pkt: Packet, in_port: int) -> None:
        """A packet from ``in_port`` was queued at some egress."""
        if not self.enabled or in_port < 0:
            return
        occ = self._occupancy[in_port] + pkt._ws
        self._occupancy[in_port] = occ
        if occ >= self.xoff_bytes and not self._pause_sent[in_port]:
            self._pause_sent[in_port] = True
            self.pause_frames_sent += 1
            self._send_frame(in_port, PacketType.PAUSE)

    def on_dequeue(self, pkt: Packet, in_port: int) -> None:
        """A packet from ``in_port`` finished transmission at some egress."""
        if not self.enabled or in_port < 0:
            return
        occ = self._occupancy[in_port] - pkt._ws
        if occ < 0:
            occ = 0
        self._occupancy[in_port] = occ
        if occ <= self.xon_bytes and self._pause_sent[in_port]:
            self._pause_sent[in_port] = False
            self.resume_frames_sent += 1
            self._send_frame(in_port, PacketType.RESUME)

    def occupancy(self, in_port: int) -> int:
        return self._occupancy[in_port]

    # -- frame I/O -------------------------------------------------------------

    def _send_frame(self, port_index: int, ptype: PacketType) -> None:
        port = self.device.ports[port_index]
        if not port.connected:
            return
        frame = Packet(ptype, src_ip=0, dst_ip=0,
                       created_at=self.device.sim.now)
        port.send_control(frame)

    def handle_frame(self, pkt: Packet, in_port: int) -> None:
        """A PAUSE/RESUME arrived on ``in_port``: gate our egress there."""
        if not self.enabled:
            return
        self.device.ports[in_port].set_paused(pkt.ptype == PacketType.PAUSE)
