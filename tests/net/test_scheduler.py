"""Property tests for the two-level event queue.

The simulator's event core (repro.net.simulator) is a heap of distinct
due times over per-instant buckets with lazy deletion, and a re-armed
timer keeps one resident entry that forwards to a parked successor.
These tests pin its semantics against an *independent reference model*
— a flat list with eager deletion, ordered by ``(time, seq)`` on every
step — across randomized programs of schedule / post / cancel /
reschedule / bounded and unbounded runs, plus targeted regressions for
the hazards the queue's shape introduces (resurrection via reschedule,
cancel-during-dispatch, a bucket cut short and resumed, a successor
that must take its ``seq`` position among entries queued after it).
"""

from __future__ import annotations

import random

import pytest

from repro.net.simulator import Simulator

SEEDS = [0, 1, 7, 42, 1337, 90210]


class _Record:
    """The reference's handle: same surface as ``Event``."""

    def __init__(self, owner, when, seq, fn, args):
        self.owner, self.time, self.seq = owner, when, seq
        self.fn, self.args = fn, args

    @property
    def cancelled(self):
        return self not in self.owner._live

    def cancel(self):
        if self in self.owner._live:
            self.owner._live.remove(self)


class ReferenceScheduler:
    """Eager-delete flat-list model of the Simulator contract.

    A cancelled record is removed outright, a re-armed one is re-keyed
    with a fresh seq, and every step takes ``min`` over ``(time, seq)``
    of what is left — no heap, no buckets, no tombstones."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_run = 0
        self._seq = 0
        self._live = []

    def schedule(self, delay, fn, *args):
        if delay < 0:
            raise ValueError(delay)
        self._seq += 1
        rec = _Record(self, self.now + delay, self._seq, fn, args)
        self._live.append(rec)
        return rec

    def post(self, delay, fn, *args):
        self.schedule(delay, fn, *args)

    def reschedule(self, rec, delay):
        if delay < 0:
            raise ValueError(delay)
        rec.cancel()
        self._seq += 1
        rec.time, rec.seq = self.now + delay, self._seq
        self._live.append(rec)
        return rec

    def peek_next_time(self):
        return min((r.time for r in self._live), default=None)

    def run(self, until=None, max_events=None):
        executed = 0
        try:
            while self._live:
                rec = min(self._live, key=lambda r: (r.time, r.seq))
                if until is not None and rec.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
                self._live.remove(rec)
                self.now = rec.time
                rec.fn(*rec.args)
                executed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            self.events_run += executed
        return executed


@pytest.mark.parametrize("seed", SEEDS)
def test_random_schedule_cancel_reschedule_matches_reference(seed):
    """Random mixed workloads at delays that never tie: the executed
    trace is identical (order, times, tokens) to the reference's."""
    def play(sched):
        rng = random.Random(seed)
        trace, handles = [], []
        for token in range(200):
            delay = rng.uniform(0.0, 1e-3)
            fire = lambda t=token: trace.append((sched.now, t))  # noqa: E731
            if rng.random() < 0.5:
                handles.append(sched.schedule(delay, fire))
            else:
                sched.post(delay, fire)
            # Randomly cancel or re-arm one of the live handles.
            if handles and rng.random() < 0.3:
                i = rng.randrange(len(handles))
                if rng.random() < 0.5:
                    handles.pop(i).cancel()
                else:
                    sched.reschedule(handles[i], rng.uniform(0.0, 1e-3))
        sched.run()
        return trace

    assert play(Simulator()) == play(ReferenceScheduler())


# Delays whose sums collide: the fat-tree's regime, where sibling
# replicas serialize and propagate for identical times and ~10 events
# share one float instant.  3.2768e-7 s is 4,096 B at 100 Gb/s.
LATTICE = (0.0, 0.0, 1e-6, 2e-6, 3.2768e-7, 6.5536e-7)


class _Boom(Exception):
    pass


def play_lattice_program(sched, seed):
    """Drive ``sched`` through one seeded program and return everything
    observable.  All decisions come from one RNG consumed in execution
    order, so two schedulers that agree draw the same program and two
    that do not diverge visibly.  Handlers schedule at lattice delays
    (0 included: the instant being drained), cancel, and re-arm handles
    — live, fired or cancelled; to a later, equal or earlier time — and
    occasionally raise mid-bucket, peek, or run the rest of the instant
    themselves."""
    rng = random.Random(seed)
    log, handles, tokens = [], [], iter(range(250))

    def act():
        roll, delay = rng.random(), rng.choice(LATTICE)
        if roll < 0.50 and (token := next(tokens, None)) is not None:
            if roll < 0.30:
                sched.post(delay, fire, token)
            else:
                handles.append(sched.schedule(delay, fire, token))
        elif handles:
            handle = rng.choice(handles)
            if roll < 0.65:
                handle.cancel()
            else:
                sched.reschedule(handle, delay)
            log.append(("handle", handle.time, handle.cancelled))

    def fire(token):
        log.append((sched.now, token))
        for _ in range(rng.randrange(4)):
            act()
        roll = rng.random()
        if roll < 0.03:
            raise _Boom
        if roll < 0.08:     # re-entered from a handler, mid-bucket
            log.append(("inner peek", sched.peek_next_time()))
        elif roll < 0.11:
            log.append(("inner ran", sched.run(until=sched.now)))

    for _ in range(12):
        act()
    for _ in range(200):
        nxt = sched.peek_next_time()
        log.append(("peek", nxt, sched.now))
        if nxt is None:
            break
        how = rng.randrange(5)
        bounds = ({}, {"until": nxt}, {"until": sched.now + rng.choice(LATTICE)},
                  {"max_events": rng.randrange(4)},
                  {"until": nxt, "max_events": 1 + rng.randrange(3)})[how]
        try:
            log.append(("ran", sched.run(**bounds)))
        except (_Boom, RuntimeError) as exc:
            log.append(("raised", type(exc).__name__))
        if rng.random() < 0.3:
            act()
    log.append(("end", sched.now, sched.events_run))
    return log


@pytest.mark.parametrize("seeds", [
    range(150), pytest.param(range(150, 2150), marks=pytest.mark.slow)],
    ids=["150-programs", "2000-programs"])
def test_lattice_programs_match_reference(seeds):
    """Ties included: executed (time, token) traces, every ``run``
    count, ``peek_next_time``, handle state, ``events_run`` and the
    final ``now`` equal the reference's on every program."""
    for seed in seeds:
        got = play_lattice_program(Simulator(), seed)
        want = play_lattice_program(ReferenceScheduler(), seed)
        assert got == want, f"program {seed}"


def test_rearmed_timer_keeps_one_resident():
    """The RTO pattern inside one closed-loop run: 10,000 re-arms of one
    handle, traffic advancing ``now`` between them, queue nothing — and
    the callback still fires once, at the last deadline, in the ``seq``
    position of the last re-arm among events posted for that instant
    before and after it."""
    sim = Simulator()
    rto, step = 1e-3, 1e-8
    fired, pending, deadline = [], [], []
    ev = sim.schedule(rto, lambda: fired.append(("rto", sim.now)))

    def ack(i):
        sim.reschedule(ev, rto)
        if i < 10_000:
            sim.post(step, ack, i + 1)
            return
        pending.append(sim.pending)  # the resident and this very entry
        deadline.append(sim.now + rto)
        sim.post_at(deadline[0], fired.append, "before")
        sim.reschedule(ev, rto)
        sim.post_at(deadline[0], fired.append, "after")

    sim.post(step, ack, 1)
    assert sim.run() == 10_003
    assert pending[0] <= 2      # one queued entry per re-arm: 10,001
    assert fired == ["before", ("rto", deadline[0]), "after"]
    assert ev.time == sim.now == deadline[0]


def test_dead_instants_do_not_move_the_clock():
    """Draining an instant whose entries are all dead — the far-future
    RTO tombstones every closed-loop run ends with — leaves ``now`` at
    the last *executed* event, and counts nothing."""
    sim = Simulator()
    sim.post(1e-6, lambda: None)
    cancelled = sim.schedule(5e-3, lambda: None)
    rearmed = sim.schedule(6e-3, lambda: None)
    sim.reschedule(rearmed, 7e-3)   # resident at 6e-3, successor parked
    cancelled.cancel()
    rearmed.cancel()
    assert sim.run() == 1
    assert sim.now == 1e-6
    assert sim.pending == 0 and sim.events_run == 1


def test_peek_reports_the_next_live_time_never_a_skipped_resident():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1e-6, fired.append, "timer")
    sim.schedule(1e-6, fired.append, "dead").cancel()
    sim.reschedule(ev, 3e-6)        # resident stays at 1e-6
    assert sim.peek_next_time() == 3e-6
    sim.post(2e-6, fired.append, "live")
    assert sim.peek_next_time() == 2e-6
    sim.reschedule(ev, 4e-6)        # after peek forwarded the successor
    sim.run()
    assert fired == ["live", "timer"] and sim.now == 4e-6


def test_bucket_cut_short_is_resumed_in_order():
    """A handler that raises, then ``max_events``, each stop one
    instant's bucket half-way: the rest stays queued, in order, with
    entries appended meanwhile behind it."""
    sim = Simulator()
    fired = []

    def boom():
        fired.append("boom")
        sim.post(0.0, fired.append, "appended")
        raise _Boom

    for fn, args in ((fired.append, ("a",)), (boom, ()),
                     (fired.append, ("b",)), (fired.append, ("c",))):
        sim.post(1e-6, fn, *args)
    sim.post(2e-6, fired.append, "later")
    with pytest.raises(_Boom):
        sim.run()
    assert fired == ["a", "boom"] and sim.events_run == 1
    assert sim.peek_next_time() == 1e-6
    with pytest.raises(RuntimeError):
        sim.run(max_events=1)
    assert fired == ["a", "boom", "b"]
    assert sim.run(until=1e-6) == 2  # until == the bucket's own time
    assert fired == ["a", "boom", "b", "c", "appended"]
    assert sim.run() == 1 and sim.now == 2e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_fifo_among_equal_times(seed):
    """Events at the same instant run in scheduling order (seq ties)."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    times = [rng.choice([0.0, 1e-6, 2e-6]) for _ in range(64)]
    for i, t in enumerate(times):
        sim.post(t, fired.append, i)
    sim.run()
    expected = [i for _, i in sorted(
        ((t, i) for i, t in enumerate(times)), key=lambda p: (p[0], p[1]))]
    assert fired == expected


def test_cancel_then_reschedule_same_handle_fires_once():
    """A cancelled handle can be re-armed; only the new entry fires."""
    sim = Simulator()
    fired = []
    ev = sim.schedule(1e-6, fired.append, "x")
    ev.cancel()
    sim.reschedule(ev, 5e-6)
    sim.run()
    assert fired == ["x"]
    assert sim.now == pytest.approx(5e-6)


def test_reschedule_does_not_resurrect_old_entry():
    """The entry left behind by reschedule stays dead (it only forwards)
    — the event fires exactly once, at the *new* time, never also at
    the old one."""
    sim = Simulator()
    fired = []
    ev = sim.schedule(1e-6, lambda: fired.append(sim.now))
    sim.reschedule(ev, 9e-6)
    sim.run()
    assert fired == [pytest.approx(9e-6)]


def test_reschedule_after_fire_pushes_fresh_entry():
    """Re-arming a handle whose event already executed schedules a new
    firing (the RTO re-arm pattern after a timeout fired)."""
    sim = Simulator()
    fired = []
    ev = sim.schedule(1e-6, lambda: fired.append(sim.now))
    sim.run()
    sim.reschedule(ev, 1e-6)
    sim.run()
    assert fired == [pytest.approx(1e-6), pytest.approx(2e-6)]


class TestCancelDuringDispatch:
    """Regression: cancelling an event from inside a handler running at
    the same timestamp.  With lazy deletion the victim entry sits in the
    very bucket being walked (or was already reached) when the cancel
    lands; it must still never execute, and the run loop must not
    corrupt the queue."""

    def test_cancel_same_time_sibling_from_handler(self):
        sim = Simulator()
        fired = []
        ev_b = [None]

        def a():
            fired.append("a")
            ev_b[0].cancel()  # b sits at the same timestamp, later seq

        sim.schedule(1e-6, a)
        ev_b[0] = sim.schedule(1e-6, lambda: fired.append("b"))
        sim.schedule(1e-6, lambda: fired.append("c"))
        n = sim.run()
        assert fired == ["a", "c"]
        assert n == 2

    def test_cancel_already_fired_event_is_noop(self):
        """Cancelling from a later handler an event that already ran at
        the same timestamp: no error, no double-count, no resurrection."""
        sim = Simulator()
        fired = []
        ev_a = sim.schedule(1e-6, lambda: fired.append("a"))
        sim.schedule(1e-6, lambda: (fired.append("b"), ev_a.cancel()))
        sim.run()
        assert fired == ["a", "b"]
        assert ev_a.cancelled  # consumed entries read as dead

    def test_reschedule_during_dispatch_of_same_timestamp(self):
        """Re-arming a same-timestamp pending event from a handler moves
        it; the tombstoned original never fires."""
        sim = Simulator()
        fired = []
        ev_b = [None]

        def a():
            fired.append(("a", sim.now))
            sim.reschedule(ev_b[0], 4e-6)

        sim.schedule(1e-6, a)
        ev_b[0] = sim.schedule(1e-6, lambda: fired.append(("b", sim.now)))
        sim.run()
        assert fired == [("a", pytest.approx(1e-6)),
                         ("b", pytest.approx(5e-6))]

    def test_cancel_inside_max_events_window(self):
        """Tombstones never count toward max_events accounting."""
        sim = Simulator()
        fired = []
        evs = [sim.schedule((i + 1) * 1e-6, fired.append, i)
               for i in range(10)]

        def killer():
            for ev in evs[5:]:
                ev.cancel()

        sim.schedule(1.5e-6, killer)
        n = sim.run(max_events=6)  # 0..4 plus the killer
        assert n == 6
        assert fired == [0, 1, 2, 3, 4]
        assert sim.run() == 0  # the rest are tombstones; nothing left


def test_post_and_schedule_interleave_deterministically():
    """post() consumes the same seq stream as schedule(): interleaved
    calls at one timestamp preserve global scheduling order."""
    sim = Simulator()
    fired = []
    sim.post(1e-6, fired.append, 0)
    sim.schedule(1e-6, fired.append, 1)
    sim.post_at(1e-6, fired.append, 2)
    sim.schedule_at(1e-6, fired.append, 3)
    sim.run()
    assert fired == [0, 1, 2, 3]


def test_validation_applies_to_all_scheduling_tiers():
    sim = Simulator()
    sim.post(0.0, lambda: None)
    sim.run()
    assert sim.now == 0.0
    with pytest.raises(ValueError):
        sim.post(-1e-9, lambda: None)
    with pytest.raises(ValueError):
        sim.post_at(-1e-9, lambda: None)
    with pytest.raises(ValueError):
        sim.reschedule(sim.schedule(0.0, lambda: None), -1e-9)
