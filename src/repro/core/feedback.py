"""RoCE-capable feedback handling (§III-D).

The engine turns the *many* feedback streams of a multicast group into
the *one* unicast-like stream a commodity RNIC sender expects, under
three guarantees:

1. an aggregated **ACK** with PSN *p* is only emitted when **all**
   downstream paths have acknowledged every packet with PSN <= *p*
   (hierarchical min over the MFT's per-path AckPSNs, gated by the
   trigger-port condition to avoid ACK explosion);
2. a **NACK** with ePSN *e* is only forwarded once all receivers have
   acknowledged everything below *e* (the MePSN rule), which prevents a
   later NACK from covering an earlier loss;
3. **CNPs** are filtered so only the most congested link's signal
   reaches the sender (single-rate multicast CC on unmodified DCQCN),
   with a periodic aging window to track shifting bottlenecks.

Every mechanism has an ablation switch so the benchmarks can show what
breaks without it (ACK explosion, NACK inter-covering, CNP
magnification).

**Lanes.**  With MRC-style k-path spraying each lane of a group is its
own McstID addressing its own :class:`~repro.core.mft.Mft`, so the
per-path AckPSNs, MePSN and CNP window the rules run over are already
per-lane state — an ACK on lane 0 never touches lane 1's tree — and the
engine needs no lane bookkeeping of its own.

The engine is purely functional over the :class:`~repro.core.mft.Mft`
state: it returns "emit" instructions and never touches the wire, which
keeps it unit-testable without a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import constants
from repro.core.mft import Mft
from repro.net.packet import PacketType
from repro.net.pipeline import ObserverBus

__all__ = ["FeedbackConfig", "FeedbackEngine", "Emit"]

#: An emission instruction: (packet type, PSN field value).
Emit = Tuple[PacketType, int]


@dataclass
class FeedbackConfig:
    """Feature switches + CNP filter tuning."""

    trigger_condition: bool = True   # §III-D Trigger Condition (anti ACK-explosion)
    nack_aggregation: bool = True    # MePSN rule (anti inter-covering)
    cnp_filter: bool = True          # most-congested-path CNP selection
    cnp_window: float = constants.CNP_AGING_WINDOW_S


class FeedbackEngine:
    """Executor of the feedback rules against per-group MFTs."""

    def __init__(self, config: Optional[FeedbackConfig] = None,
                 bus: Optional[ObserverBus] = None) -> None:
        self.cfg = config or FeedbackConfig()
        # counters for the ablation/scalability benches
        self.acks_in = 0
        self.acks_out = 0
        self.nacks_in = 0
        self.nacks_out = 0
        self.cnps_in = 0
        self.cnps_out = 0
        # The "feedback" channel fires as (engine, mft, kind, in_port,
        # value, emits) after every feedback event is processed; the
        # InvariantMonitor subscribes to verify the min-AckPSN, MePSN and
        # CNP-filter rules on every emission.  An accelerator passes its
        # simulator's bus; a standalone engine gets a private one.
        self.bus = bus if bus is not None else ObserverBus()

    # ------------------------------------------------------------------
    # ACK / NACK
    # ------------------------------------------------------------------

    def on_ack(self, mft: Mft, in_port: int, psn: int) -> List[Emit]:
        """An ACK (original or already-aggregated) arrived on ``in_port``."""
        self.acks_in += 1
        emits = self._record_and_trigger(mft, in_port, psn)
        if self.bus.feedback:
            self.bus.publish("feedback", self, mft, PacketType.ACK,
                             in_port, psn, emits)
        return emits

    def on_nack(self, mft: Mft, in_port: int, epsn: int) -> List[Emit]:
        """A NACK arrived.  Per RoCE semantics it also acknowledges every
        PSN below its ePSN, so it feeds the same per-path AckPSN state."""
        self.nacks_in += 1
        if not self.cfg.nack_aggregation:
            # Ablation: forward immediately — exhibits the inter-covering
            # issue the paper warns about.
            self.nacks_out += 1
            emits = [(PacketType.NACK, epsn)]
        else:
            if mft.me_psn is None or epsn < mft.me_psn:
                mft.me_psn = epsn
            emits = self._record_and_trigger(mft, in_port, epsn - 1)
        if self.bus.feedback:
            self.bus.publish("feedback", self, mft, PacketType.NACK,
                             in_port, epsn, emits)
        return emits

    def reevaluate(self, mft: Mft) -> List[Emit]:
        """Re-run the aggregation rules after the MFT itself changed.

        A LEAVE/PRUNE delta that removes a path can raise the min-AckPSN
        (or satisfy the MePSN release rule) without any feedback packet
        arriving — the departed path may have *been* the minimum.  This
        is the unstick hook the membership subsystem calls after every
        entry removal; it bypasses the trigger-port gate because no
        in-port is involved.
        """
        emits = self._evaluate(mft)
        if self.bus.feedback:
            # in_port -1 / value -1: a membership-driven re-evaluation,
            # not an arriving feedback packet.
            self.bus.publish("feedback", self, mft, PacketType.ACK,
                             -1, -1, emits)
        return emits

    def _record_and_trigger(self, mft: Mft, in_port: int,
                            cum_ack: int) -> List[Emit]:
        entry = mft.entry(in_port)
        if entry is None:
            return []  # feedback on a non-MDT port: stale/no-op
        if cum_ack > entry.ack_psn:
            entry.ack_psn = cum_ack
        if self.cfg.trigger_condition:
            # Only progress on the port that owned the previous minimum
            # (or before the first aggregation) can change the aggregate.
            if mft.tri_port is not None and in_port != mft.tri_port:
                return []
        return self._evaluate(mft)

    def _evaluate(self, mft: Mft) -> List[Emit]:
        m = mft.min_ack_psn()
        if m is None:
            return []
        # Re-point the trigger port at the *current* minimum owner on
        # every evaluation, not only when an aggregate is emitted.  The
        # paper updates triPort at generation time only, but with ACK
        # coalescing a tie can move the minimum to a port whose last ACK
        # already arrived — generation-time-only updates then deadlock.
        # Updating here preserves the invariant the trigger relies on
        # (only triPort's progress can raise the minimum) and still
        # suppresses non-minimum ACKs.
        mft.tri_port = mft.min_port
        out: List[Emit] = []
        if (
            mft.me_psn is not None
            and m == mft.me_psn - 1
            and m >= mft.agg_ack_psn
        ):
            # Every receiver has everything below MePSN: the NACK can no
            # longer cover an earlier loss — release it.
            out.append((PacketType.NACK, mft.me_psn))
            self.nacks_out += 1
            mft.me_psn = None
            if m > mft.agg_ack_psn:
                mft.agg_ack_psn = m
        elif m > mft.agg_ack_psn:
            out.append((PacketType.ACK, m))
            self.acks_out += 1
            mft.agg_ack_psn = m
        elif not self.cfg.trigger_condition and m >= 0:
            # Ablation baseline: without the Trigger Condition the switch
            # re-emits the (unchanged) cumulative aggregate for every
            # incoming ACK — harmless to RoCE semantics but it floods the
            # sender, which is exactly the 'ACK exploding issue' §III-D
            # cites.
            out.append((PacketType.ACK, m))
            self.acks_out += 1
        return out

    # ------------------------------------------------------------------
    # CNP
    # ------------------------------------------------------------------

    def on_cnp(self, mft: Mft, in_port: int, now: float) -> List[Emit]:
        """Pass the CNP only when ``in_port`` is (one of) the most
        congested downstream links inside the current aging window."""
        self.cnps_in += 1
        emits = self._cnp_emits(mft, in_port, now)
        if self.bus.feedback:
            self.bus.publish("feedback", self, mft, PacketType.CNP,
                             in_port, 0, emits)
        return emits

    def _cnp_emits(self, mft: Mft, in_port: int, now: float) -> List[Emit]:
        if not self.cfg.cnp_filter:
            self.cnps_out += 1
            return [(PacketType.CNP, 0)]
        if now - mft.cnp_window_start > self.cfg.cnp_window:
            # Periodic aging so the designated bottleneck can move with
            # the network dynamics (§III-D).
            mft.cnp_counters.clear()
            mft.cnp_max_port = None
            mft.cnp_window_start = now
        count = mft.cnp_counters.get(in_port, 0) + 1
        mft.cnp_counters[in_port] = count
        if (mft.cnp_max_port is None
                or count > mft.cnp_counters.get(mft.cnp_max_port, 0)):
            mft.cnp_max_port = in_port
        # Exactly one designated most-congested link passes; equally
        # congested links keep the incumbent (single-rate CC needs one
        # stream, not one per tied receiver).
        if in_port == mft.cnp_max_port:
            self.cnps_out += 1
            return [(PacketType.CNP, 0)]
        return []
