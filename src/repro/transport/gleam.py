"""Gleam-style AIMD rate control (Zhu et al., APNet'22 lineage).

Gleam is the programmable-switch multicast CC scheme the paper compares
against (§II-A, §V): receivers' ECN marks are aggregated in-network and
the sender reacts with plain AIMD — multiplicative decrease on each
congestion notification, clocked additive increase otherwise.  It is
deliberately simpler than DCQCN (no alpha estimator, no byte counter,
no fast recovery / hyper increase ladder), which makes it the natural
*baseline* reaction point for the MRC-style k-path experiments: a lane
under Gleam converges slower after a loss burst, so the per-path
feedback machinery has something to show against.

The class mirrors :class:`~repro.transport.dcqcn.DcqcnRateController`'s
interface exactly (``start``/``stop``/``active``/``on_cnp``/
``on_bytes_sent``/``rate``/``cnp_count``) so :class:`RoceQP` can swap
it in via ``RoceConfig.cc = "gleam"`` without touching the send engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import constants
from repro.net.simulator import Event, Simulator

__all__ = ["GleamConfig", "GleamRateController"]


@dataclass(frozen=True)
class GleamConfig:
    """AIMD parameters.

    ``beta`` is the multiplicative-decrease factor applied per CNP
    (``rate *= 1 - beta``); ``rai`` bps are added every ``rate_timer``
    seconds while the flow is active.
    """

    beta: float = 0.5
    rate_timer: float = constants.DCQCN_RATE_INCREASE_TIMER_S
    rai: float = constants.DCQCN_RAI_BPS
    min_rate: float = constants.DCQCN_MIN_RATE_BPS
    enabled: bool = True


#: Shared by every controller built without a config (safe: frozen).
_DEFAULT_CONFIG = GleamConfig()


class GleamRateController:
    """Per-QP Gleam reaction point (drop-in for DCQCN)."""

    __slots__ = ("sim", "line_rate", "cfg", "rate", "_active", "_rate_ev",
                 "cnp_count")

    def __init__(self, sim: Simulator, line_rate: float,
                 config: Optional[GleamConfig] = None) -> None:
        self.sim = sim
        self.line_rate = line_rate
        self.cfg = config or _DEFAULT_CONFIG
        self.rate = line_rate
        self._active = False
        self._rate_ev: Optional[Event] = None
        self.cnp_count = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Arm the additive-increase timer; idempotent."""
        if self._active or not self.cfg.enabled:
            return
        self._active = True
        self._arm_rate_timer()

    def stop(self) -> None:
        """Cancel the timer so the event queue can drain."""
        self._active = False
        if self._rate_ev is not None:
            self._rate_ev.cancel()
            self._rate_ev = None

    @property
    def active(self) -> bool:
        return self._active

    # -- congestion feedback ---------------------------------------------------

    def on_cnp(self) -> None:
        """Multiplicative decrease on every congestion notification."""
        if not self.cfg.enabled:
            return
        self.cnp_count += 1
        self.rate = max(self.rate * (1.0 - self.cfg.beta), self.cfg.min_rate)

    def on_bytes_sent(self, nbytes: int) -> None:
        """Gleam's increase is purely timer-clocked; bytes are ignored."""

    # -- timer ------------------------------------------------------------------

    def _arm_rate_timer(self) -> None:
        # Re-armed in place, as DcqcnRateController's timers are.
        ev, delay = self._rate_ev, self.cfg.rate_timer
        self._rate_ev = (self.sim.schedule(delay, self._rate_tick) if ev is None
                         else self.sim.reschedule(ev, delay))

    def _rate_tick(self) -> None:
        if not self._active:
            return
        self.rate = min(self.rate + self.cfg.rai, self.line_rate)
        self._arm_rate_timer()
