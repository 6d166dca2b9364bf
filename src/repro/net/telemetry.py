"""Telemetry: a streaming latency distribution.

The harness mostly reports completion times; for the finer-grained
studies (per-message latency under load, the broker's publish-to-deliver
delay) :class:`LatencyStats` accumulates samples into exact percentiles
over a seeded reservoir.

Per-packet views of a run — one-way delay at a QP, a queue's depth over
time, a switch's forwarding fan-out — are not classes here: subscribe a
function to the simulation's :class:`~repro.net.pipeline.ObserverBus`
(``sim.bus.subscribe("deliver", ...)``) and sample with
``sim.schedule``.  ``examples/inside_the_fabric.py`` does all three.
"""

from __future__ import annotations

import math
import random
from typing import List

__all__ = ["LatencyStats"]


def _percentile_of(ordered: List[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    rank = (p / 100) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


class LatencyStats:
    """Accumulates samples; exact percentiles over a retained reservoir.

    Retention uses seeded reservoir sampling (Vitter's Algorithm R):
    once more than ``max_samples`` values arrive, every value has an
    equal ``max_samples / count`` chance of being in the window.  The
    previous head-retention scheme kept only the *first* values, which
    biases percentiles toward the warm-up phase of a run (queues are
    empty, delays are short).  The reservoir is driven by a private
    seeded RNG so results stay deterministic for a given sim seed and
    never perturb the simulation's own random streams.
    """

    def __init__(self, max_samples: int = 1_000_000, seed: int = 0) -> None:
        self._samples: List[float] = []
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._rng = random.Random(seed)

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.max_samples:
                self._samples[j] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Exact percentile of the retained samples (p in [0, 100])."""
        return _percentile_of(sorted(self._samples), p)

    def summary(self) -> dict:
        # Sort the window once and read every percentile off it, instead
        # of re-sorting per percentile() call.
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": _percentile_of(ordered, 50),
            "p99": _percentile_of(ordered, 99),
            "p999": _percentile_of(ordered, 99.9),
            "max": self.max_value,
        }
