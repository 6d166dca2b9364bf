"""Output-queued port with ECN marking, PFC pause and a drain loop.

Every device in the simulation (switch or host NIC) owns a set of
:class:`Port` objects.  A port models the egress side of one link
direction: a FIFO byte queue, RED-style ECN marking at enqueue, a
tail-drop limit, and a transmitter that serializes one packet at a time
at the link rate and delivers it to the peer after the propagation
delay.

PFC PAUSE/RESUME frames are *link-local* and must never be blocked by a
paused data queue, so :meth:`Port.send_control` bypasses the queue and
only pays the propagation delay.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import Deque, Optional, Tuple

from repro import constants
from repro.net.packet import Packet, PacketType

__all__ = ["Port", "PortStats"]

_DATA = PacketType.DATA


class PortStats:
    """Per-port counters, mainly consumed by the trace layer and tests."""

    __slots__ = ("tx_packets", "tx_bytes", "rx_packets", "rx_bytes",
                 "drops", "ecn_marks", "pause_events", "resume_events")

    def __init__(self) -> None:
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.drops = 0
        self.ecn_marks = 0
        self.pause_events = 0
        self.resume_events = 0


class Port:
    """One egress queue + transmitter attached to a device.

    Parameters
    ----------
    device:
        Owner; must expose ``.sim`` (a :class:`~repro.net.simulator.Simulator`)
        and ``.receive(packet, in_port)``.
    index:
        The port number on the owner device.
    """

    __slots__ = (
        "device", "sim", "index", "peer_device", "peer_port",
        "bandwidth", "propagation", "queue_capacity",
        "ecn_kmin", "ecn_kmax", "ecn_pmax",
        "_queue", "_queued_bytes", "_busy", "_paused",
        "stats", "_rng", "_seed", "ingress_of",
    )

    def __init__(
        self,
        device,
        index: int,
        *,
        bandwidth: float = constants.LINK_BANDWIDTH_BPS,
        propagation: float = constants.LINK_PROPAGATION_S,
        queue_capacity: int = constants.SWITCH_QUEUE_BYTES,
        ecn_kmin: int = constants.ECN_KMIN_BYTES,
        ecn_kmax: int = constants.ECN_KMAX_BYTES,
        ecn_pmax: float = constants.ECN_PMAX,
        seed: int = 0,
    ) -> None:
        self.device = device
        self.sim = device.sim
        self.index = index
        self.peer_device = None
        self.peer_port: Optional[int] = None
        self.bandwidth = bandwidth
        self.propagation = propagation
        self.queue_capacity = queue_capacity
        self.ecn_kmin = ecn_kmin
        self.ecn_kmax = ecn_kmax
        self.ecn_pmax = ecn_pmax
        # Each queue entry remembers the ingress port the packet arrived on
        # (for PFC per-ingress accounting on dequeue) and the wire size,
        # so the drain loop never recomputes it.  The FIFO is built by the
        # first backlog: a port the idle fast path always serves has none.
        self._queue: Optional[Deque[Tuple[Packet, int, int]]] = None
        self._queued_bytes = 0
        self._busy = False
        self._paused = False
        self.stats = PortStats()
        # The ECN RNG is built on its first draw, from this seed.
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self.ingress_of = None  # optional PFC bookkeeping hook (switch sets it)

    # -- wiring -------------------------------------------------------------

    def connect(self, peer_device, peer_port: int) -> None:
        """Point this port's transmitter at the peer device/port."""
        self.peer_device = peer_device
        self.peer_port = peer_port

    @property
    def connected(self) -> bool:
        return self.peer_device is not None

    # -- state --------------------------------------------------------------

    @property
    def queued_bytes(self) -> int:
        return self._queued_bytes

    @property
    def queued_packets(self) -> int:
        return len(self._queue) if self._queue else 0

    @property
    def paused(self) -> bool:
        return self._paused

    def set_paused(self, paused: bool) -> None:
        """PFC hook: freeze/unfreeze the transmitter."""
        if paused == self._paused:
            return
        self._paused = paused
        if paused:
            self.stats.pause_events += 1
        else:
            self.stats.resume_events += 1
            self._try_drain()

    # -- enqueue ------------------------------------------------------------

    def enqueue(self, pkt: Packet, in_port: int = -1) -> bool:
        """Queue a packet for transmission.

        Returns False (and drops) when the tail-drop limit is exceeded.
        ``in_port`` is the ingress the packet arrived on (-1 for locally
        generated packets); it feeds PFC per-ingress accounting.
        """
        size = pkt._ws
        if size < 0:  # stale memo (never on the datapath): recompute
            size = pkt.wire_size
        if self._queued_bytes + size > self.queue_capacity:
            self.stats.drops += 1
            hook = getattr(self.device, "on_drop", None)
            if hook is not None:
                hook(pkt, self.index, "taildrop")
            return False
        if not self._busy and not self._paused and not self._queue:
            # Idle transmitter: start serializing without the deque
            # round-trip.  ECN marking is skipped because it reads the
            # queue depth *before* append — here that depth is 0, which
            # never exceeds kmin (and draws no RNG) on real configs.
            if self.ecn_kmin < 0 and pkt.ptype == _DATA:
                self._maybe_mark_ecn(pkt)  # pathological config: keep semantics
            self._busy = True
            sim = self.sim
            sim._seq += 1
            when = sim.now + size * 8.0 / self.bandwidth
            bucket = sim._buckets.get(when)
            if bucket is None:
                bucket = sim._buckets[when] = []
                heappush(sim._times, when)
            bucket.append([when, sim._seq, self._on_tx_done,
                           (pkt, in_port, size), False])
            return True
        if pkt.ptype == _DATA:
            self._maybe_mark_ecn(pkt)
        if self._queue is None:
            self._queue = deque()
        self._queue.append((pkt, in_port, size))
        self._queued_bytes += size
        if not self._busy:
            self._try_drain()
        return True

    def _maybe_mark_ecn(self, pkt: Packet) -> None:
        """RED-style marking against the instantaneous queue depth."""
        q = self._queued_bytes
        if q <= self.ecn_kmin:
            return
        if q >= self.ecn_kmax:
            pkt.ecn = True
        else:
            p = self.ecn_pmax * (q - self.ecn_kmin) / (self.ecn_kmax - self.ecn_kmin)
            rng = self._rng
            if rng is None:
                rng = self._rng = random.Random(self._seed)
            if rng.random() < p:
                pkt.ecn = True
        if pkt.ecn:
            self.stats.ecn_marks += 1

    # -- transmit -----------------------------------------------------------

    def _try_drain(self) -> None:
        if self._busy or self._paused or not self._queue:
            return
        # Queue entries are (pkt, in_port, size) — exactly _on_tx_done's
        # argument tuple, so they ride into the event entry unrepacked.
        entry = self._queue.popleft()
        self._queued_bytes -= entry[2]
        self._busy = True
        sim = self.sim
        sim._seq += 1
        when = sim.now + entry[2] * 8.0 / self.bandwidth
        bucket = sim._buckets.get(when)
        if bucket is None:
            bucket = sim._buckets[when] = []
            heappush(sim._times, when)
        bucket.append([when, sim._seq, self._on_tx_done, entry, False])

    def _on_tx_done(self, pkt: Packet, in_port: int, size: int) -> None:
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += size
        ingress_of = self.ingress_of
        if ingress_of is not None and in_port >= 0:
            # Tell the owning switch the packet left, so PFC per-ingress
            # occupancy can be decremented.
            ingress_of(pkt, in_port)
        sim = self.sim
        peer = self.peer_device
        if peer is not None:
            # peer.receive is looked up per delivery, NOT cached at
            # connect time: fault injectors and tests swap it on the
            # instance (black-holed switches, lossy wrappers).
            pkt.hops += 1
            sim._seq += 1
            when = sim.now + self.propagation
            bucket = sim._buckets.get(when)
            if bucket is None:
                bucket = sim._buckets[when] = []
                heappush(sim._times, when)
            bucket.append([when, sim._seq, peer.receive, (pkt, self.peer_port), False])
        # Inline drain: same delivery-then-next-transmission seq order as
        # the _try_drain call this replaces; _busy stays True across
        # back-to-back transmissions.
        queue = self._queue
        if queue and not self._paused:
            entry = queue.popleft()
            self._queued_bytes -= entry[2]
            sim._seq += 1
            when = sim.now + entry[2] * 8.0 / self.bandwidth
            bucket = sim._buckets.get(when)
            if bucket is None:
                bucket = sim._buckets[when] = []
                heappush(sim._times, when)
            bucket.append([when, sim._seq, self._on_tx_done, entry, False])
        else:
            self._busy = False

    # -- out-of-band control (PFC frames) ------------------------------------

    def send_control(self, pkt: Packet) -> None:
        """Deliver a link-local control frame, bypassing the data queue."""
        if self.peer_device is None:
            return
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += pkt.wire_size
        sim = self.sim
        sim._seq += 1
        when = sim.now + self.propagation
        bucket = sim._buckets.get(when)
        if bucket is None:
            bucket = sim._buckets[when] = []
            heappush(sim._times, when)
        bucket.append([when, sim._seq, self.peer_device.receive,
                       (pkt, self.peer_port), False])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dev = getattr(self.device, "name", self.device)
        return f"<Port {dev}[{self.index}] q={self._queued_bytes}B paused={self._paused}>"
