"""MRC-style k-path spraying over per-lane RC connections.

A k-lane group (see :mod:`repro.core.group`) gives every member k
independent RC connections, one per path lane, each addressed to its
own lane McstID.  This module adds the transport layer on top:

* :class:`LaneSprayer` (sender side) splits one logical message of
  ``size`` bytes into k contiguous, MTU-aligned byte sub-ranges and
  posts each as an ordinary RC sub-message on its lane's QP.  Each lane
  therefore carries its sub-range in its *own* PSN space — the lane
  QP's send queue numbers exactly the packets of that lane's share —
  so per-lane feedback aggregation needs no cross-lane state.
* :class:`LaneReassembler` (receiver side) accumulates the per-lane
  sub-messages of one spray and completes the logical message exactly
  once, when the union of received byte ranges covers ``[0, size)``.
* :class:`LaneHealthMonitor` watches the sender-side lane QPs for
  acknowledgement stagnation; a lane whose snd_una stops advancing
  while data is outstanding is declared dead, and the sprayer
  *re-sprays* that lane's entire share across the surviving lanes.
  The survivors never rewind — their PSN streams are untouched, so
  recovery costs one extra sub-range per survivor instead of a
  group-wide go-back-N.  Duplicated bytes (the dead lane may have
  delivered a prefix before dying) are absorbed by the receiver's
  range union.

Sub-messages carry their placement in the WQE ``meta`` field as
``("lane-spray", spray_id, lane, offset, length, total, respray)``;
the RC engine delivers meta verbatim with the message, so the
reassembler needs no side channel.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import TransportError
from repro.net.simulator import Event, Simulator
from repro.transport.roce import RoceQP

__all__ = ["LaneSprayer", "LaneReassembler", "LaneHealthMonitor",
           "lane_shares", "merge_ranges", "covers"]

_spray_ids = itertools.count(1)

#: A received byte segment: (offset, length).
Range = Tuple[int, int]


def lane_shares(total: int, nlanes: int, mtu: int) -> List[Range]:
    """Split ``[0, total)`` into ``nlanes`` contiguous MTU-aligned shares.

    Packet counts (not raw bytes) are balanced: each lane gets
    ``npkts // nlanes`` full-MTU packets, the first ``npkts % nlanes``
    lanes one more, and only the final packet of the message may be a
    runt.  A message smaller than ``nlanes`` packets leaves the tail
    lanes with zero-length shares (the sprayer skips those).
    """
    if total <= 0:
        raise TransportError(f"invalid spray size {total}")
    if nlanes < 1:
        raise TransportError(f"invalid lane count {nlanes}")
    npkts = (total + mtu - 1) // mtu
    base, extra = divmod(npkts, nlanes)
    shares: List[Range] = []
    offset = 0
    for lane in range(nlanes):
        pkts = base + (1 if lane < extra else 0)
        length = min(pkts * mtu, total - offset)
        shares.append((offset, length))
        offset += length
    return shares


def merge_ranges(ranges: List[Range]) -> List[Range]:
    """Coalesce possibly-overlapping (offset, length) ranges."""
    if not ranges:
        return []
    merged: List[Range] = []
    for off, length in sorted(r for r in ranges if r[1] > 0):
        if merged and off <= merged[-1][0] + merged[-1][1]:
            last_off, last_len = merged[-1]
            merged[-1] = (last_off, max(last_len, off + length - last_off))
        else:
            merged.append((off, length))
    return merged


def covers(ranges: List[Range], total: int) -> bool:
    """True when the union of ``ranges`` covers ``[0, total)``."""
    merged = merge_ranges(ranges)
    return len(merged) == 1 and merged[0] == (0, total)


class LaneSprayer:
    """Sender-side striping of one message across k lane QPs.

    ``lane_qps[l]`` must be the sender's lane-l QP (all in RTS against
    their lane McstIDs).  :meth:`spray` posts the per-lane sub-messages;
    ``on_complete(spray_id, now)`` fires once the sender-side union of
    acknowledged byte ranges covers the whole message — including after
    a respray, where the dead lane's share completes on the survivors.
    """

    def __init__(self, sim: Simulator, lane_qps: List[RoceQP], *,
                 on_complete: Optional[Callable[[int, float], None]] = None,
                 ) -> None:
        if not lane_qps:
            raise TransportError("a sprayer needs at least one lane QP")
        self.sim = sim
        self.lane_qps = list(lane_qps)
        self.bus = sim.bus
        self.on_complete = on_complete
        self.nlanes = len(lane_qps)
        self.dead: Set[int] = set()
        self.resprays = 0
        # current spray state
        self.spray_id: Optional[int] = None
        self.total = 0
        self.lane_ranges: List[Range] = []
        self._acked: List[Range] = []
        self._done = True

    @property
    def live_lanes(self) -> List[int]:
        return [l for l in range(self.nlanes) if l not in self.dead]

    def spray(self, size: int) -> int:
        """Stripe ``size`` bytes over the live lanes; returns the spray id."""
        if not self._done:
            raise TransportError("previous spray still in flight")
        live = self.live_lanes
        if not live:
            raise TransportError("all lanes dead; nothing to spray on")
        self.spray_id = sid = next(_spray_ids)
        self.total = size
        self._acked = []
        self._done = False
        mtu = self.lane_qps[live[0]].cfg.mtu
        shares = lane_shares(size, len(live), mtu)
        self.lane_ranges = [(0, 0)] * self.nlanes
        for lane, (offset, length) in zip(live, shares):
            self.lane_ranges[lane] = (offset, length)
            if length > 0:
                self._post(lane, offset, length, respray=False)
        return sid

    def respray(self, dead_lane: int) -> None:
        """Declare ``dead_lane`` dead and re-spray its share.

        The dead lane's *entire* sub-range (delivery state of its
        prefix is unknowable from the sender) is re-split across the
        surviving lanes and posted as fresh sub-messages on their PSN
        streams; the dead QP's outstanding WQEs are then aborted so its
        retransmission timer stops.  Survivors' streams only grow — no
        PSN rewinds, hence no group-wide go-back-N.
        """
        if dead_lane in self.dead:
            return
        self.dead.add(dead_lane)
        survivors = self.live_lanes
        if not survivors:
            raise TransportError(
                f"spray {self.spray_id}: every lane is dead")
        offset, length = self.lane_ranges[dead_lane]
        if not self._done and length > 0:
            self.resprays += 1
            mtu = self.lane_qps[survivors[0]].cfg.mtu
            for lane, (sub_off, sub_len) in zip(
                    survivors, lane_shares(length, len(survivors), mtu)):
                if sub_len > 0:
                    self._post(lane, offset + sub_off, sub_len, respray=True)
        self.lane_qps[dead_lane].abort_sends()

    # -- internals -------------------------------------------------------

    def _post(self, lane: int, offset: int, length: int,
              respray: bool) -> None:
        sid = self.spray_id
        meta = ("lane-spray", sid, lane, offset, length, self.total, respray)
        if self.bus.lane_spray:
            self.bus.publish("lane_spray", self, sid, lane, offset,
                             length, self.total, respray)

        def acked(mid: int, now: float, _off=offset, _len=length) -> None:
            self._sub_acked(_off, _len, now)

        self.lane_qps[lane].post_send(length, on_complete=acked, meta=meta)

    def _sub_acked(self, offset: int, length: int, now: float) -> None:
        if self._done:
            return
        self._acked.append((offset, length))
        if covers(self._acked, self.total):
            self._done = True
            if self.on_complete is not None:
                self.on_complete(self.spray_id, now)


class LaneReassembler:
    """Receiver-side reassembly of sprayed messages for one member.

    Takes over the ``on_message`` handler of every QP in ``lane_qps``
    (the member's k lane QPs); non-spray messages are ignored.  The
    completion callback ``on_complete(spray_id, total, now)`` fires
    exactly once per spray, when the union of received segments covers
    ``[0, total)`` — duplicates from a respray only re-cover bytes.
    """

    def __init__(self, ip: int, lane_qps: List[RoceQP],
                 on_complete: Callable[[int, int, float], None]) -> None:
        self.ip = ip
        self.on_complete = on_complete
        self.bus = lane_qps[0].bus
        # spray_id -> accumulated (offset, length, lane) segments
        self._segments: Dict[int, List[Tuple[int, int, int]]] = {}
        self._completed: Set[int] = set()
        self.duplicate_segments = 0
        for qp in lane_qps:
            qp.on_message = self.on_message

    def on_message(self, msg_id: int, nbytes: int, now: float, meta) -> None:
        if not (isinstance(meta, tuple) and meta and meta[0] == "lane-spray"):
            return
        _, sid, lane, offset, length, total, respray = meta
        if sid in self._completed:
            self.duplicate_segments += 1
            return  # exactly-once: late respray duplicates are dropped
        segs = self._segments.setdefault(sid, [])
        segs.append((offset, length, lane))
        if covers([(o, l) for o, l, _ in segs], total):
            self._completed.add(sid)
            del self._segments[sid]
            if self.bus.lane_complete:
                self.bus.publish("lane_complete", self, sid, self.ip,
                                 total, list(segs))
            self.on_complete(sid, total, now)


class LaneHealthMonitor:
    """Sender-side lane failure detector driving failover re-spray.

    Polls every live lane QP of a :class:`LaneSprayer`: a lane with
    data outstanding whose ``snd_una`` has not advanced for
    ``stall_timeout`` seconds (several RTOs — transient loss recovers
    well inside one) is declared dead and handed to
    :meth:`LaneSprayer.respray`.  ``dead_events`` records
    ``(lane, declared_at)`` so experiments can report recovery time.
    """

    #: Poll period (seconds): a fraction of any sensible stall timeout.
    interval = 250e-6

    def __init__(self, sim: Simulator, sprayer: LaneSprayer, *,
                 stall_timeout: float = 3e-3) -> None:
        self.sim = sim
        self.sprayer = sprayer
        self.stall_timeout = stall_timeout
        self.dead_events: List[Tuple[int, float]] = []
        self._ev: Optional[Event] = None
        self._last_una: Dict[int, int] = {}
        self._last_progress: Dict[int, float] = {}

    def start(self) -> None:
        if self._ev is None:
            now = self.sim.now
            for lane in self.sprayer.live_lanes:
                self._last_una[lane] = self.sprayer.lane_qps[lane].snd_una
                self._last_progress[lane] = now
            self._ev = self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        if self._ev is not None:
            self._ev.cancel()
            self._ev = None

    def _tick(self) -> None:
        self._ev = None
        now = self.sim.now
        for lane in self.sprayer.live_lanes:
            qp = self.sprayer.lane_qps[lane]
            if qp.snd_una >= qp.sq_psn:
                # idle lane: nothing outstanding cannot stall
                self._last_una[lane] = qp.snd_una
                self._last_progress[lane] = now
                continue
            if qp.snd_una != self._last_una.get(lane):
                self._last_una[lane] = qp.snd_una
                self._last_progress[lane] = now
            elif now - self._last_progress.get(lane, now) >= self.stall_timeout:
                if len(self.sprayer.live_lanes) <= 1:
                    # No survivor to respray onto: keep polling and let
                    # RoCE retransmission recover the lane after repair.
                    continue
                self.dead_events.append((lane, now))
                self.sprayer.respray(lane)
        self._ev = self.sim.schedule(self.interval, self._tick)
