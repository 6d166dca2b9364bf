"""The staged datapath pipeline and its single observer bus.

The paper's Fig. 7a draws the accelerator as a fixed sequence of
stages — ACL classify → MFT lookup → replicate (with ingress pruning
and retransmission filtering) → connection bridging → feedback
aggregation.  This module gives the reproduction that shape explicitly
(the way Elmo and Gleam frame programmable multicast datapaths):

* a :class:`PipelineContext` is carried per packet through an ordered
  chain of stage callables (a :class:`Pipeline`); a stage returns
  ``None`` to pass the context on, :data:`STOP` when it consumed the
  packet, or :data:`DEFER` after scheduling :meth:`Pipeline.resume`
  for a later virtual time (the accelerator admission delay and the
  look-aside FPGA detour are *stages*, not special cases);
* every cross-cutting consumer — the
  :class:`~repro.check.InvariantMonitor`, telemetry taps, the chaos and
  churn harnesses — subscribes to one :class:`ObserverBus` per
  :class:`~repro.net.simulator.Simulator` instead of monkey-patching
  component methods.

The bus is deliberately branch-cheap when nobody listens: channels are
plain tuples stored as attributes, so the datapath guards every
publication with a single ``if bus.<channel>:`` truthiness test and
pays nothing else on the no-observer fast path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ObserverBus", "Pipeline", "PipelineContext", "STOP", "DEFER"]


class _Verdict:
    """Sentinel returned by a stage to alter chain control flow."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


#: The stage consumed the packet; the chain halts here.
STOP = _Verdict("STOP")

#: The stage scheduled :meth:`Pipeline.resume` for a later virtual
#: time; the chain halts now and continues from the next stage then.
DEFER = _Verdict("DEFER")


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
    ``stage``                 ``(pipeline, stage_name, verdict)`` — one stage
                              of a :class:`Pipeline` ran; ``verdict`` is
                              ``None``, :data:`STOP` or :data:`DEFER` (the
                              coverage-guided fuzzer's verdict tap)
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

    Observers are *isolated* by default: an exception raised by one
    subscriber is recorded on :attr:`errors` and the remaining
    subscribers (and the datapath) proceed untouched.  A subscriber
    that *wants* to abort the run — the strict-mode invariant monitor —
    passes ``propagate=True`` and its exceptions escape to the caller.
    """

    CHANNELS: Tuple[str, ...] = (
        "classify", "replicate", "bridge", "feedback", "deliver",
        "qp_send", "emit", "drop", "membership_epoch", "stage", "event",
        "lane_spray", "lane_complete",
    )

    #: Bound on the retained error log (oldest entries are discarded).
    MAX_ERRORS = 100

    __slots__ = CHANNELS + ("_propagate", "errors", "dropped_errors",
                            "active_subscribers")

    def __init__(self) -> None:
        for channel in self.CHANNELS:
            setattr(self, channel, ())
        self._propagate: set = set()
        self.errors: List[Dict[str, Any]] = []
        self.dropped_errors = 0
        # Maintained count of subscriptions across all channels: the
        # packet pool's O(1) "is anyone watching?" gate.
        self.active_subscribers = 0

    # -- subscription ------------------------------------------------------

    def _check_channel(self, channel: str) -> None:
        if channel not in self.CHANNELS:
            raise ValueError(
                f"unknown bus channel {channel!r}; "
                f"known: {', '.join(self.CHANNELS)}")

    def subscribe(self, channel: str, fn: Callable[..., None], *,
                  propagate: bool = False) -> Callable[..., None]:
        """Register ``fn`` on ``channel``; returns ``fn`` for symmetry.

        Subscribing the same callable twice is a no-op (cluster-level
        attachment walks overlapping component sets).  Observers fire in
        subscription order.  ``propagate=True`` lets exceptions raised
        by ``fn`` escape to the publishing datapath instead of being
        isolated.
        """
        self._check_channel(channel)
        subs = getattr(self, channel)
        if fn not in subs:
            setattr(self, channel, subs + (fn,))
            self.active_subscribers += 1
        if propagate:
            self._propagate.add(fn)
        return fn

    def unsubscribe(self, channel: str, fn: Callable[..., None]) -> None:
        """Remove ``fn`` from ``channel``; unknown subscribers are a no-op."""
        self._check_channel(channel)
        subs = getattr(self, channel)
        if fn in subs:
            setattr(self, channel, tuple(f for f in subs if f != fn))
            self.active_subscribers -= 1
        self._propagate.discard(fn)

    def is_subscribed(self, channel: str, fn: Callable[..., None]) -> bool:
        self._check_channel(channel)
        return fn in getattr(self, channel)

    def subscriber_count(self) -> int:
        """Total subscriptions across every channel."""
        return sum(len(getattr(self, c)) for c in self.CHANNELS)

    def clear(self) -> None:
        """Drop every subscription (test teardown convenience)."""
        for channel in self.CHANNELS:
            setattr(self, channel, ())
        self._propagate.clear()
        self.active_subscribers = 0

    # -- publication -------------------------------------------------------

    def publish(self, channel: str, *args: Any) -> None:
        """Deliver ``args`` to every subscriber of ``channel``.

        Hot datapath sites guard the call with ``if bus.<channel>:`` so
        this body only runs when someone is listening.
        """
        try:
            subs = getattr(self, channel)
        except AttributeError:
            self._check_channel(channel)  # raises the uniform ValueError
            raise  # pragma: no cover - _check_channel always raises here
        for fn in subs:
            try:
                fn(*args)
            except Exception as exc:
                if fn in self._propagate:
                    raise
                self._record_error(channel, fn, exc)

    def _record_error(self, channel: str, fn: Callable[..., None],
                      exc: Exception) -> None:
        if len(self.errors) >= self.MAX_ERRORS:
            del self.errors[0]
            self.dropped_errors += 1
        self.errors.append({
            "channel": channel,
            "observer": repr(fn),
            "error": f"{type(exc).__name__}: {exc}",
        })

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        active = {c: len(getattr(self, c)) for c in self.CHANNELS
                  if getattr(self, c)}
        return f"<ObserverBus {active or 'idle'}>"


class PipelineContext:
    """Mutable per-packet state carried through a stage chain.

    ``mft``, ``targets`` and ``replicas`` are filled in by the
    accelerator's lookup/replicate stages; ``stage_index`` tracks the
    chain position so a deferring stage can resume after itself.
    """

    __slots__ = ("pkt", "in_port", "switch", "accel", "mft",
                 "targets", "replicas", "stage_index")

    def __init__(self, pkt, in_port: int, switch=None, accel=None) -> None:
        self.pkt = pkt
        self.in_port = in_port
        self.switch = switch
        self.accel = accel
        self.mft = None
        self.targets = None
        self.replicas = None
        self.stage_index = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PipelineContext {self.pkt!r} in_port={self.in_port} "
                f"stage={self.stage_index}>")


class Pipeline:
    """An ordered chain of stage callables.

    A stage is any callable taking one :class:`PipelineContext` and
    returning ``None`` (continue), :data:`STOP` (packet consumed) or
    :data:`DEFER` (the stage scheduled :meth:`resume` itself).

    When a ``bus`` is attached and someone subscribes to its ``stage``
    channel, every stage execution publishes
    ``(pipeline, stage_name, verdict)`` — the behavioral-coverage feed
    of the protocol fuzzer.  The switch and the accelerator only run
    their Pipeline while that tap is live; untapped, each runs the same
    sequence as straight-line code.
    """

    __slots__ = ("name", "stages", "bus", "_names")

    def __init__(self, stages, name: str = "", bus: Optional[ObserverBus] = None) -> None:
        self.name = name
        self.stages = list(stages)
        self.bus = bus
        self._names = self.stage_names()

    def run(self, ctx: PipelineContext, start: int = 0) -> Optional[_Verdict]:
        bus = self.bus
        stages = self.stages
        for i in range(start, len(stages)):
            ctx.stage_index = i
            verdict = stages[i](ctx)
            if bus is not None and bus.stage:
                bus.publish("stage", self, self._names[i], verdict)
            if verdict is not None:
                return verdict
        return None

    def resume(self, ctx: PipelineContext) -> Optional[_Verdict]:
        """Continue a deferred context from the stage after the deferrer."""
        return self.run(ctx, ctx.stage_index + 1)

    def stage_names(self) -> List[str]:
        """Human-readable stage names (``stage_`` prefixes stripped)."""
        names = []
        for s in self.stages:
            name = getattr(s, "__name__", None) or type(s).__name__
            if name.startswith("stage_"):
                name = name[len("stage_"):]
            names.append(name)
        return names

    def describe(self) -> str:
        return " -> ".join(self.stage_names())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pipeline {self.name or '?'}: {self.describe()}>"
