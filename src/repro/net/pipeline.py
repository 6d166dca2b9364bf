"""The single observer bus of the datapath.

The paper's Fig. 7a draws the accelerator as a fixed sequence of steps
— ACL classify → MFT lookup → replicate (with ingress pruning and
retransmission filtering) → connection bridging → feedback aggregation.
:meth:`repro.net.switch.Switch.receive` and
:meth:`repro.core.accelerator.CepheusAccelerator.process` run that
sequence as straight-line code and publish each decision here: every
cross-cutting consumer — the :class:`~repro.check.InvariantMonitor`,
the throughput sampler, the fuzzer's coverage map, the chaos and churn
harnesses — subscribes to one :class:`ObserverBus` per
:class:`~repro.net.simulator.Simulator` instead of monkey-patching
component methods.  That is the whole observation contract: to observe
a run, subscribe to ``sim.bus``; an exception a subscriber raises
escapes :meth:`ObserverBus.publish` and therefore ``sim.run()``, so a
buggy observer fails the run that carries it instead of failing
silently.

The bus is deliberately branch-cheap when nobody listens: channels are
plain tuples stored as attributes, so the datapath guards every
publication with a single ``if bus.<channel>:`` truthiness test and
pays nothing else on the no-observer fast path.

(The module is still called ``pipeline``: perfbench's frozen layer map
names the file and imports the class from it.)
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

__all__ = ["ObserverBus"]


class ObserverBus:
    """Publish/subscribe fan-out for datapath events.

    One bus serves a whole simulation (``sim.bus``); standalone
    components built without a simulator (a bare
    :class:`~repro.core.feedback.FeedbackEngine` in a unit test) create
    a private one.  Channels and their payloads:

    ========================  ==================================================
    ``classify``              ``(switch, pkt, in_port)`` — ACL redirected the
                              packet to the accelerator
    ``replicate``             ``(accel, mft, pkt, in_port, targets)`` — after
                              ingress pruning + retransmission filtering
    ``bridge``                ``(accel, mft, replica, entry)`` — after the
                              connection-bridging header rewrite of one replica
    ``feedback``              ``(engine, mft, kind, in_port, value, emits)`` —
                              after each feedback aggregation decision
    ``deliver``               ``(qp, pkt)`` — in-order delivery at a receiver QP
    ``qp_send``               ``(qp, pkt)`` — every DATA transmission
    ``emit``                  ``(switch, pkt, out_port, in_port)`` — a switch
                              queued a packet for egress
    ``drop``                  ``(device, pkt, port, reason)`` — random loss,
                              tail drop, or an unregistered-group discard
    ``membership_epoch``      ``(qp, epoch)`` — a membership delta re-based the
                              QP's PSN stream position
    ``event``                 ``(now,)`` — per-simulator-event tick (sampled
                              structural sweeps)
    ``lane_spray``            ``(sprayer, spray_id, lane, lane_id, offset,
                              length, total, respray)`` — the sprayer posted
                              one lane's byte sub-range of a sprayed message
                              (``respray=True`` for a dead lane's share
                              re-posted on a survivor)
    ``lane_complete``         ``(reassembler, spray_id, ip, total, segments)``
                              — a receiver's reassembler declared a sprayed
                              message complete; ``segments`` is the raw
                              ``(offset, length, lane)`` list it accumulated
    ========================  ==================================================

    Subscriber lists are immutable tuples: subscribing or unsubscribing
    replaces the tuple, so in-flight publications iterate a stable
    snapshot and the empty-channel check is a single truthiness branch.
    """

    CHANNELS: Tuple[str, ...] = (
        "classify", "replicate", "bridge", "feedback", "deliver",
        "qp_send", "emit", "drop", "membership_epoch", "event",
        "lane_spray", "lane_complete",
    )

    __slots__ = CHANNELS + ("active_subscribers",)

    def __init__(self) -> None:
        for channel in self.CHANNELS:
            setattr(self, channel, ())
        # Maintained count of subscriptions across all channels: the
        # packet pool's O(1) "is anyone watching?" gate.
        self.active_subscribers = 0

    # -- subscription ------------------------------------------------------

    def _check_channel(self, channel: str) -> None:
        if channel not in self.CHANNELS:
            raise ValueError(
                f"unknown bus channel {channel!r}; "
                f"known: {', '.join(self.CHANNELS)}")

    def subscribe(self, channel: str,
                  fn: Callable[..., None]) -> Callable[..., None]:
        """Register ``fn`` on ``channel``; returns ``fn`` for symmetry.

        Subscribing the same callable twice is a no-op (attachment walks
        may overlap).  Observers fire in subscription order.
        """
        self._check_channel(channel)
        subs = getattr(self, channel)
        if fn not in subs:
            setattr(self, channel, subs + (fn,))
            self.active_subscribers += 1
        return fn

    def unsubscribe(self, channel: str, fn: Callable[..., None]) -> None:
        """Remove ``fn`` from ``channel``; unknown subscribers are a no-op."""
        self._check_channel(channel)
        subs = getattr(self, channel)
        if fn in subs:
            setattr(self, channel, tuple(f for f in subs if f != fn))
            self.active_subscribers -= 1

    def is_subscribed(self, channel: str, fn: Callable[..., None]) -> bool:
        self._check_channel(channel)
        return fn in getattr(self, channel)

    # -- publication -------------------------------------------------------

    def publish(self, channel: str, *args: Any) -> None:
        """Deliver ``args`` to every subscriber of ``channel``.

        Hot datapath sites guard the call with ``if bus.<channel>:`` so
        this body only runs when someone is listening.  A subscriber's
        exception propagates to the publisher; later subscribers of the
        same publication do not run.
        """
        try:
            subs = getattr(self, channel)
        except AttributeError:
            self._check_channel(channel)  # raises the uniform ValueError
            raise  # pragma: no cover - _check_channel always raises here
        for fn in subs:
            fn(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {c: len(getattr(self, c)) for c in self.CHANNELS
                  if getattr(self, c)}
        return f"<ObserverBus {active or 'idle'}>"
