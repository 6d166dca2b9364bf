"""Discrete-event simulation kernel.

The whole reproduction — switches, links, NICs, RoCE engines, the
Cepheus accelerator and the applications — is driven by one
:class:`Simulator`: a virtual clock plus a two-level event queue, a
binary heap of the *distinct* due times (bare floats) over a dict
``time -> bucket``, that instant's ``[time, seq, fn, args, done]``
entries in scheduling order.

Two events tie exactly when their due times are equal floats — on a
symmetric fat-tree the replicas of one packet do, ~10 to an instant —
and ``seq``, the global scheduling counter, orders a tie by scheduling
order, which is append order.  So a push onto an instant that already
has a bucket is a ``dict.get`` and a ``list.append`` with no heap
operation, the run loop takes one float per instant and walks its
bucket, and the executed ``(time, seq)`` order is the one a single heap
of entries would give; an event posted at ``now`` from inside a handler
joins the bucket being drained.  ``done`` is the lazy-delete tombstone
(set by cancellation *and* by execution, so a consumed entry can never
be resurrected, and a bucket cut short is resumed by skipping what ran).

The kernel is deliberately minimal and allocation-light because the
packet-level experiments schedule millions of events.  Three API tiers
trade convenience for allocations:

- :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`Event` handle supporting cancellation — use when the caller
  may need to cancel.
- :meth:`Simulator.post` / :meth:`Simulator.post_at` are the
  fire-and-forget fast path: no handle is allocated.  The datapath's
  per-hop deliveries use these.
- :meth:`Simulator.reschedule` re-arms an existing handle — the
  retransmission-timer pattern.  A timer moved to a not-earlier time
  keeps a *single resident*: the entry already queued stays put and its
  ``done`` slot forwards to a parked successor carrying the re-arm's
  ``(when, seq)``; later re-arms re-key that successor in place.  When
  the resident comes due it is skipped like a tombstone and the
  successor takes its ``seq`` position in its own bucket.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.net.pipeline import ObserverBus
from repro.net.pool import SimPools

__all__ = ["Simulator", "Event"]

# Entry field indices (entries are lists, not objects, so the run loop
# touches no descriptors).  _DONE is False while live, True once
# cancelled or executed, and — on a re-armed timer's resident — the
# parked successor entry (truthy, so the loop's dead test covers it).
_TIME, _SEQ, _FN, _ARGS, _DONE = range(5)


class Event:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation.

    Cancellation is lazy: the entry stays in its bucket but is skipped
    when reached.  This is the standard approach for timer-heavy
    protocols (retransmission timers are re-armed far more often than
    they fire).

    The handle is a thin pointer to the timer's current entry.  After
    :meth:`Simulator.reschedule` that is the successor — parked behind
    ``_resident`` (the entry still queued, which forwards to it) or
    freshly queued — and the entry it left can never fire again, even
    though the handle it once belonged to is live.
    """

    __slots__ = ("_entry", "_resident")

    def __init__(self, entry: list):
        self._entry = entry
        self._resident: Optional[list] = None

    @property
    def time(self) -> float:
        """Virtual time this event is (or was) due to fire."""
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        """True once the entry is dead — cancelled *or* already fired."""
        return self._entry[_DONE]

    def cancel(self) -> None:
        """Prevent the event from running; safe to call repeatedly,
        including after the event has fired (no-op) and from inside the
        handler of another event running at the same timestamp."""
        self._entry[_DONE] = True


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1e-6, fired.append, "hello")
    >>> sim.run()
    1
    >>> fired
    ['hello']
    >>> sim.now
    1e-06
    """

    #: Process-wide count of events executed by *all* simulator
    #: instances.  The experiment runner snapshots it around each
    #: experiment to report per-experiment event counts without
    #: threading a handle into every cluster an experiment builds.
    lifetime_events: int = 0

    def __init__(self) -> None:
        self.now: float = 0.0
        # Invariant: _times holds exactly the keys of _buckets, each
        # once; a bucket is sorted by seq and never empty.
        self._times: List[float] = []
        self._buckets: Dict[float, List[list]] = {}
        self._seq: int = 0
        self._events_run: int = 0
        # The single observer bus every datapath component of this
        # simulation publishes to (see repro.net.pipeline).  The run
        # loop's "event" channel fires before each event executes; the
        # InvariantMonitor subscribes to it for sampled online sweeps.
        # An empty channel keeps the hot loop branch-cheap.
        self.bus = ObserverBus()
        # Free-list pools for the per-event hot objects (see
        # repro.net.pool for the lifecycle contract; packet recycling
        # self-disables while the bus has subscribers).
        self.pools = SimPools(self.bus)

    # -- scheduling --------------------------------------------------------

    def _push(self, when: float, fn: Callable[..., None], args: tuple) -> list:
        """Queue a fresh entry at ``when`` (one seq consumed).  ``post``
        and the five sites in :mod:`repro.net.port` inline this."""
        self._seq += 1
        entry = [when, self._seq, fn, args, False]
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = []
            heappush(self._times, when)
        bucket.append(entry)
        return entry

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return Event(self._push(self.now + delay, fn, args))

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} < now {self.now}")
        return Event(self._push(when, fn, args))

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle is
        allocated.  Identical ordering semantics (consumes one seq)."""
        when = self.now + delay
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        bucket = self._buckets.get(when)
        if bucket is None:
            bucket = self._buckets[when] = []
            heappush(self._times, when)
        bucket.append([when, self._seq, fn, args, False])

    def post_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`; no handle allocated."""
        if when < self.now:
            raise ValueError(f"cannot schedule at {when} < now {self.now}")
        self._push(when, fn, args)

    def reschedule(self, ev: Event, delay: float) -> Event:
        """Re-arm ``ev`` to fire after ``delay`` from now.

        Equivalent to ``ev.cancel()`` followed by re-scheduling the same
        callback — one seq is consumed, exactly like the cancel+schedule
        idiom it replaces, so event ordering is unchanged.  A live timer
        moved to a not-earlier time queues nothing: its resident entry
        forwards to a parked successor, and re-arming again re-keys that
        successor in place.  Re-arming to an earlier time, or a handle
        whose event already fired or was cancelled, tombstones the entry
        and queues a fresh one (a dead entry is never "un-cancelled",
        which would resurrect it where it still sits).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        when = self.now + delay
        entry = ev._entry
        if not entry[_DONE]:
            resident = ev._resident
            if resident is not None and resident[_DONE] is entry:
                if when >= resident[_TIME]:  # still parked: re-key in place
                    self._seq += 1
                    entry[_TIME] = when
                    entry[_SEQ] = self._seq
                    return ev
            elif when >= entry[_TIME]:  # queued: park a successor behind it
                self._seq += 1
                ev._resident = entry
                ev._entry = entry[_DONE] = [
                    when, self._seq, entry[_FN], entry[_ARGS], False]
                return ev
        entry[_DONE] = True
        ev._resident = None
        ev._entry = self._push(when, entry[_FN], entry[_ARGS])
        return ev

    def _forward(self, resident: list) -> None:
        """``resident`` came due: queue the successor it forwards to, at
        its ``seq`` position — entries posted for that instant since the
        last re-arm must still run after it."""
        entry = resident[_DONE]
        resident[_DONE] = True
        if entry[_DONE]:
            return  # cancelled, or re-armed to an earlier time, while parked
        bucket = self._buckets.get(entry[_TIME])
        if bucket is None:
            bucket = self._buckets[entry[_TIME]] = []
            heappush(self._times, entry[_TIME])
        insort(bucket, entry)  # equal time, distinct seq: decided by seq

    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once virtual time would pass this instant.  Events at
            exactly ``until`` still run.  The clock is advanced to
            ``until`` when the queue drains early.
        max_events:
            Safety valve for runaway protocols; at most ``max_events``
            events execute, and a ``RuntimeError`` is raised as soon as
            one more is about to run.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        times = self._times
        buckets = self._buckets
        bus = self.bus
        executed = 0
        try:
            # Both loops peek the earliest instant, walk its bucket (the
            # list iterator sees what a handler appends at `now` or
            # _forward inserts further on) and only then retire it: a
            # handler that raises, or the max_events guard, leaves the
            # instant queued with what ran marked done.  `now` moves per
            # live entry, never for a bucket of tombstones.  Retiring
            # checks identity because a handler may itself have run or
            # peeked the queue past this bucket.
            if until is None and max_events is None:
                while times:  # unbounded drain: the datapath hot loop
                    when = times[0]
                    bucket = buckets[when]
                    for entry in bucket:
                        if entry[4]:
                            if entry[4] is not True:
                                self._forward(entry)
                            continue
                        entry[4] = True
                        self.now = when
                        if bus.event:
                            bus.publish("event", when)
                        entry[2](*entry[3])
                        executed += 1
                    if buckets.get(when) is bucket:
                        del buckets[when]
                        heappop(times)
            while times:
                when = times[0]
                if until is not None and when > until:
                    break
                bucket = buckets[when]
                for entry in bucket:
                    if entry[4]:
                        if entry[4] is not True:
                            self._forward(entry)
                        continue
                    if max_events is not None and executed >= max_events:
                        raise RuntimeError(f"exceeded max_events={max_events}")
                    entry[4] = True
                    self.now = when
                    if bus.event:
                        bus.publish("event", when)
                    entry[2](*entry[3])
                    executed += 1
                if buckets.get(when) is bucket:
                    del buckets[when]
                    heappop(times)
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._events_run += executed
            Simulator.lifetime_events += executed
        return executed

    def peek_next_time(self) -> Optional[float]:
        """Time of the earliest pending (non-cancelled) event, or None."""
        times = self._times
        while times:
            when = times[0]
            for entry in self._buckets[when]:
                if not entry[_DONE]:
                    return when
                if entry[_DONE] is not True:
                    self._forward(entry)
            del self._buckets[when]
            heappop(times)
        return None

    @property
    def pending(self) -> int:
        """Number of entries the queue holds: everything in a bucket not
        yet retired, lazily-cancelled entries included.  A re-armed
        timer counts once (its resident; the parked successor is not
        queued)."""
        return sum(map(len, self._buckets.values()))

    @property
    def events_run(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_run
