"""ObserverBus unit tests.

The bus is the single cross-cutting observation mechanism of the
datapath, so its contract is pinned here: registration is idempotent
and symmetric, observers fire in subscription order, one observer's
exception never starves the others (unless it opted into propagation),
and — most importantly for the packet-level benches — an idle bus costs
the datapath a single truthiness branch.
"""

import time

import pytest

from repro.net.pipeline import ObserverBus


# ---------------------------------------------------------------------------
# registration / unregistration
# ---------------------------------------------------------------------------

class TestSubscription:
    def test_subscribe_and_publish(self):
        bus = ObserverBus()
        got = []
        bus.subscribe("drop", lambda *a: got.append(a))
        bus.publish("drop", "sw0", "pkt", 3, "tail-drop")
        assert got == [("sw0", "pkt", 3, "tail-drop")]

    def test_subscribe_is_idempotent(self):
        bus = ObserverBus()
        hits = []

        def obs(*a):
            hits.append(a)

        bus.subscribe("deliver", obs)
        bus.subscribe("deliver", obs)  # overlapping attachment walks
        bus.publish("deliver", "qp", "pkt")
        assert len(hits) == 1
        assert bus.subscriber_count() == 1

    def test_unsubscribe_removes_and_tolerates_unknown(self):
        bus = ObserverBus()
        obs = lambda *a: None
        bus.subscribe("emit", obs)
        assert bus.is_subscribed("emit", obs)
        bus.unsubscribe("emit", obs)
        assert not bus.is_subscribed("emit", obs)
        bus.unsubscribe("emit", obs)  # second removal: no-op, no error
        assert bus.subscriber_count() == 0

    def test_unknown_channel_rejected(self):
        bus = ObserverBus()
        with pytest.raises(ValueError, match="unknown bus channel"):
            bus.subscribe("no-such-channel", lambda: None)
        with pytest.raises(ValueError):
            bus.publish("no-such-channel")

    def test_bound_methods_dedupe_per_instance(self):
        """Bound methods of one object compare equal across accesses —
        the dedupe the cluster-level attachment walks rely on."""

        class Tap:
            def on_emit(self, *a):
                pass

        bus = ObserverBus()
        tap = Tap()
        bus.subscribe("emit", tap.on_emit)
        bus.subscribe("emit", tap.on_emit)  # fresh bound-method object
        assert bus.subscriber_count() == 1
        bus.unsubscribe("emit", tap.on_emit)
        assert bus.subscriber_count() == 0

    def test_clear_drops_everything(self):
        bus = ObserverBus()
        for ch in ObserverBus.CHANNELS:
            bus.subscribe(ch, lambda *a: None)
        assert bus.subscriber_count() == len(ObserverBus.CHANNELS)
        bus.clear()
        assert bus.subscriber_count() == 0


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

class TestOrdering:
    def test_observers_fire_in_subscription_order(self):
        bus = ObserverBus()
        order = []
        for i in range(5):
            bus.subscribe("classify", lambda *a, _i=i: order.append(_i))
        bus.publish("classify")
        assert order == [0, 1, 2, 3, 4]

    def test_unsubscribe_preserves_relative_order(self):
        bus = ObserverBus()
        order = []
        subs = [bus.subscribe("classify", lambda *a, _i=i: order.append(_i))
                for i in range(4)]
        bus.unsubscribe("classify", subs[1])
        bus.publish("classify")
        assert order == [0, 2, 3]

    def test_publication_iterates_a_stable_snapshot(self):
        """An observer that (un)subscribes mid-publication must not
        perturb the in-flight fan-out."""
        bus = ObserverBus()
        order = []

        def late(*a):
            order.append("late")

        def first(*a):
            order.append("first")
            bus.subscribe("classify", late)      # must not fire this round
            bus.unsubscribe("classify", second)  # must still fire this round

        def second(*a):
            order.append("second")

        bus.subscribe("classify", first)
        bus.subscribe("classify", second)
        bus.publish("classify")
        assert order == ["first", "second"]
        # round 2: `second` is gone, `late` (added mid-round-1) now fires
        bus.publish("classify")
        assert order == ["first", "second", "first", "late"]


# ---------------------------------------------------------------------------
# exception isolation
# ---------------------------------------------------------------------------

class TestIsolation:
    def test_observer_exception_is_isolated_and_recorded(self):
        bus = ObserverBus()
        got = []

        def broken(*a):
            raise RuntimeError("observer bug")

        bus.subscribe("feedback", broken)
        bus.subscribe("feedback", lambda *a: got.append(a))
        bus.publish("feedback", "engine")  # must not raise
        assert got == [("engine",)]
        assert len(bus.errors) == 1
        assert bus.errors[0]["channel"] == "feedback"
        assert "RuntimeError: observer bug" in bus.errors[0]["error"]

    def test_propagate_observer_raises_through(self):
        bus = ObserverBus()

        def strict(*a):
            raise RuntimeError("strict violation")

        bus.subscribe("feedback", strict, propagate=True)
        with pytest.raises(RuntimeError, match="strict violation"):
            bus.publish("feedback")
        assert bus.errors == []

    def test_error_log_is_bounded(self):
        bus = ObserverBus()
        bus.subscribe("event", lambda *a: 1 / 0)
        for _ in range(ObserverBus.MAX_ERRORS + 7):
            bus.publish("event")
        assert len(bus.errors) == ObserverBus.MAX_ERRORS
        assert bus.dropped_errors == 7

    def test_unsubscribe_clears_propagate_flag(self):
        bus = ObserverBus()

        def strict(*a):
            raise RuntimeError("boom")

        bus.subscribe("drop", strict, propagate=True)
        bus.unsubscribe("drop", strict)
        bus.subscribe("drop", strict)  # re-attached as an isolated observer
        bus.publish("drop")  # must not raise
        assert len(bus.errors) == 1


# ---------------------------------------------------------------------------
# no-observer fast path
# ---------------------------------------------------------------------------

def test_idle_bus_fast_path_microbenchmark():
    """The no-observer guard (`if bus.<channel>:`) must stay within
    noise of a bare attribute truthiness test — the datapath runs it on
    every packet at every publication site.  Bounded very loosely (20x)
    so only a pathological regression (e.g. publish() being entered on
    idle channels) trips it on shared CI machines."""
    bus = ObserverBus()
    n = 200_000

    def run_guarded():
        t0 = time.perf_counter()
        hits = 0
        for _ in range(n):
            if bus.emit:
                hits += 1  # pragma: no cover - idle bus never enters
        return time.perf_counter() - t0, hits

    def run_bare():
        empty = ()
        t0 = time.perf_counter()
        hits = 0
        for _ in range(n):
            if empty:
                hits += 1  # pragma: no cover
        return time.perf_counter() - t0, hits

    # warm up, then take the best of 3 to shed scheduler noise
    run_guarded(), run_bare()
    guarded = min(run_guarded()[0] for _ in range(3))
    bare = min(run_bare()[0] for _ in range(3))
    assert guarded < bare * 20 + 1e-3, (
        f"idle-bus guard too slow: {guarded:.4f}s vs bare {bare:.4f}s")


def test_idle_bus_publishes_nothing():
    """Publishing on an idle channel is legal and does nothing (the
    datapath's guard makes it unreachable, but the semantics hold)."""
    bus = ObserverBus()
    bus.publish("emit", "sw", "pkt", 1, 2)
    assert bus.errors == []
