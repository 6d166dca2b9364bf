"""DCQCN rate control (Zhu et al., SIGCOMM'15).

DCQCN is the congestion control built into the ConnectX-5 RNICs the
paper targets; the simulations in §V-C state "retransmission and CC are
go-back-N and DCQCN, same as Mellanox ConnectX-5".  Cepheus reuses the
end-host machinery *unchanged* and only filters CNPs in the network, so
this module implements the stock reaction-point algorithm:

* on CNP:     ``target = rate``; ``rate *= 1 - alpha/2``;
              ``alpha = (1-g)*alpha + g``; increase state resets.
* alpha timer (no CNP for a period): ``alpha *= (1-g)``.
* increase events, fired by a timer and by a byte counter:
  fast recovery (first F events): ``rate = (target+rate)/2``;
  additive increase:  ``target += R_AI``;
  hyper increase:     ``target += R_HAI`` (both also average rate up).

Timers only run while the owner marks the flow active, so an idle
simulation drains naturally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import constants
from repro.net.simulator import Event, Simulator

__all__ = ["DcqcnConfig", "DcqcnRateController"]


@dataclass(frozen=True)
class DcqcnConfig:
    """Reaction-point parameters (defaults from the DCQCN paper / CX-5)."""

    g: float = constants.DCQCN_ALPHA_G
    alpha_timer: float = constants.DCQCN_ALPHA_TIMER_S
    rate_timer: float = constants.DCQCN_RATE_INCREASE_TIMER_S
    byte_counter: int = constants.DCQCN_BYTE_COUNTER
    rai: float = constants.DCQCN_RAI_BPS
    rhai: float = constants.DCQCN_RHAI_BPS
    f: int = constants.DCQCN_F
    min_rate: float = constants.DCQCN_MIN_RATE_BPS
    enabled: bool = True


#: Shared by every controller built without a config (safe: frozen).
_DEFAULT_CONFIG = DcqcnConfig()


class DcqcnRateController:
    """Per-QP DCQCN reaction point."""

    __slots__ = ("sim", "line_rate", "cfg", "rate", "target", "alpha",
                 "_timer_events", "_byte_events", "_bytes_since_event",
                 "_active", "_alpha_ev", "_rate_ev", "cnp_count")

    def __init__(self, sim: Simulator, line_rate: float,
                 config: Optional[DcqcnConfig] = None) -> None:
        self.sim = sim
        self.line_rate = line_rate
        self.cfg = config or _DEFAULT_CONFIG
        self.rate = line_rate          # R_C
        self.target = line_rate        # R_T
        self.alpha = 1.0
        self._timer_events = 0         # T since last CNP
        self._byte_events = 0          # BC since last CNP
        self._bytes_since_event = 0
        self._active = False
        self._alpha_ev: Optional[Event] = None
        self._rate_ev: Optional[Event] = None
        self.cnp_count = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic timers; idempotent."""
        if self._active or not self.cfg.enabled:
            return
        self._active = True
        self._arm_alpha_timer()
        self._arm_rate_timer()

    def stop(self) -> None:
        """Cancel timers so the event queue can drain."""
        self._active = False
        if self._alpha_ev is not None:
            self._alpha_ev.cancel()
            self._alpha_ev = None
        if self._rate_ev is not None:
            self._rate_ev.cancel()
            self._rate_ev = None

    @property
    def active(self) -> bool:
        return self._active

    # -- congestion feedback ----------------------------------------------------

    def on_cnp(self) -> None:
        """The RNIC received a CNP for this flow."""
        if not self.cfg.enabled:
            return
        self.cnp_count += 1
        self.target = self.rate
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g
        self.rate = max(self.rate * (1.0 - self.alpha / 2.0), self.cfg.min_rate)
        self._timer_events = 0
        self._byte_events = 0
        self._bytes_since_event = 0
        if self._active:
            self._arm_alpha_timer()
            self._arm_rate_timer()

    def on_bytes_sent(self, nbytes: int) -> None:
        """Feed the byte counter; may fire an increase event."""
        if not (self.cfg.enabled and self._active):
            return
        self._bytes_since_event += nbytes
        while self._bytes_since_event >= self.cfg.byte_counter:
            self._bytes_since_event -= self.cfg.byte_counter
            self._byte_events += 1
            self._increase()

    # -- timers: re-armed in place (reschedule: one seq, no tombstone) ----------

    def _arm_alpha_timer(self) -> None:
        ev, delay = self._alpha_ev, self.cfg.alpha_timer
        self._alpha_ev = (self.sim.schedule(delay, self._alpha_tick) if ev is None
                          else self.sim.reschedule(ev, delay))

    def _alpha_tick(self) -> None:
        if not self._active:
            return
        self.alpha = (1.0 - self.cfg.g) * self.alpha
        self._arm_alpha_timer()

    def _arm_rate_timer(self) -> None:
        ev, delay = self._rate_ev, self.cfg.rate_timer
        self._rate_ev = (self.sim.schedule(delay, self._rate_tick) if ev is None
                         else self.sim.reschedule(ev, delay))

    def _rate_tick(self) -> None:
        if not self._active:
            return
        self._timer_events += 1
        self._increase()
        self._arm_rate_timer()

    # -- increase machinery --------------------------------------------------------

    def _increase(self) -> None:
        f = self.cfg.f
        t, b = self._timer_events, self._byte_events
        if t > f and b > f:
            self.target = min(self.target + self.cfg.rhai, self.line_rate)
        elif t > f or b > f:
            self.target = min(self.target + self.cfg.rai, self.line_rate)
        # fast recovery and both increase styles share the averaging step
        self.rate = min((self.target + self.rate) / 2.0, self.line_rate)
