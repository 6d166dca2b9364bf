"""Behavioral-coverage signatures for the protocol fuzzer.

Classic fuzzers measure coverage over branches of compiled code; this
reproduction's analogue is coverage over *protocol behavior*, observed
through the same single :class:`~repro.net.pipeline.ObserverBus` the
invariant monitor uses.  A :class:`CoverageCollector` subscribed to a
simulation turns its event stream into a set of stable string keys:

``trans/<deployment>/<channel>-><channel>``
    Consecutive bus publications (channel-transition pairs): the
    ordering fingerprint of the datapath — replicate feeding bridge,
    a drop interleaving a feedback exchange, a membership epoch bump
    mid-delivery.
``fb/<deployment>/<kind>/<emits>``
    One feedback-aggregation decision: the incoming kind and the set of
    packet types it emitted (empty = absorbed), per §III-D rule.
``drop/<deployment>/<reason>``
    A packet discard with its reason string.
``viol/<deployment>/<invariant>``
    An :class:`~repro.check.invariants.InvariantMonitor` violation
    signature (added by the harness from the monitor's record).

Keys are plain strings so a :class:`CoverageMap` is JSON-able and its
:meth:`~CoverageMap.signature` — a SHA-256 over the sorted key set — is
deterministic across runs, process boundaries and any ``--jobs``
parallelism (set union is order-independent).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Tuple

__all__ = ["CoverageMap", "CoverageCollector"]


class CoverageMap:
    """A set of behavioral-coverage keys with a stable digest."""

    __slots__ = ("keys",)

    def __init__(self, keys: Optional[Iterable[str]] = None) -> None:
        self.keys = set(keys or ())

    def add(self, key: str) -> bool:
        """Record ``key``; True when it is new coverage."""
        if key in self.keys:
            return False
        self.keys.add(key)
        return True

    def add_all(self, keys: Iterable[str]) -> List[str]:
        """Record many keys; returns the ones that were new, sorted."""
        fresh = [k for k in set(keys) - self.keys]
        self.keys.update(fresh)
        return sorted(fresh)

    def merge(self, other: "CoverageMap") -> List[str]:
        return self.add_all(other.keys)

    def signature(self) -> str:
        """SHA-256 over the sorted key set (order-independent)."""
        h = hashlib.sha256()
        for key in sorted(self.keys):
            h.update(key.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def to_list(self) -> List[str]:
        return sorted(self.keys)

    @classmethod
    def from_list(cls, keys: Iterable[str]) -> "CoverageMap":
        return cls(keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: str) -> bool:
        return key in self.keys

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoverageMap {len(self.keys)} keys {self.signature()[:12]}>"


#: Channels whose publications feed the transition-pair fingerprint.
#: ``event`` (per-simulator-event tick) is deliberately excluded — a
#: transition pair should say "replication fed bridging", not "time
#: passed".
TRANSITION_CHANNELS: Tuple[str, ...] = (
    "classify", "replicate", "bridge", "feedback", "deliver",
    "qp_send", "emit", "drop", "membership_epoch",
)


class CoverageCollector:
    """Feeds a :class:`CoverageMap` from one simulation's ObserverBus.

    ``deployment`` prefixes every key, so the same schedule run under
    inline / lookaside / source_routed contributes *distinct* coverage
    — reaching a behavior in a new deployment is new coverage.  No key
    names a switch: coverage is about *which code behaved how*, not on
    which of many identical switches.
    """

    def __init__(self, bus, deployment: str,
                 coverage: Optional[CoverageMap] = None) -> None:
        self.bus = bus
        self.deployment = deployment
        self.coverage = coverage if coverage is not None else CoverageMap()
        self._prev_channel: Optional[str] = None
        self._subscriptions: List[Tuple[str, object]] = []
        self._attach()

    # -- key builders ------------------------------------------------------

    def _transition(self, channel: str) -> None:
        prev = self._prev_channel
        self._prev_channel = channel
        if prev is not None:
            self.coverage.add(
                f"trans/{self.deployment}/{prev}->{channel}")

    # -- bus handlers ------------------------------------------------------

    def _attach(self) -> None:
        bus = self.bus
        for channel in TRANSITION_CHANNELS:
            handler = self._make_transition_handler(channel)
            bus.subscribe(channel, handler)
            self._subscriptions.append((channel, handler))

    def _make_transition_handler(self, channel: str):
        if channel == "feedback":
            def on_feedback(engine, mft, kind, in_port, value, emits,
                            _ch=channel) -> None:
                self._transition(_ch)
                emitted = ",".join(sorted(p.name for p, _ in emits)) or "none"
                self.coverage.add(
                    f"fb/{self.deployment}/{kind.name}/{emitted}")
            return on_feedback
        if channel == "drop":
            def on_drop(device, pkt, port, reason, _ch=channel) -> None:
                self._transition(_ch)
                self.coverage.add(f"drop/{self.deployment}/{reason}")
            return on_drop

        def on_any(*args, _ch=channel) -> None:
            self._transition(_ch)
        return on_any

    # -- harness hooks -----------------------------------------------------

    def add_violations(self, violations: Iterable) -> None:
        """Fold invariant-monitor violations into the coverage set."""
        for v in violations:
            invariant = v["invariant"] if isinstance(v, dict) else v.invariant
            self.coverage.add(f"viol/{self.deployment}/{invariant}")

    def detach(self) -> None:
        for channel, fn in self._subscriptions:
            self.bus.unsubscribe(channel, fn)
        self._subscriptions.clear()
