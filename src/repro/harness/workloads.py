"""Synthetic workload generation.

The per-figure experiments replay the paper's fixed parameter points;
this module generates *workloads* — randomized but reproducible message
schedules — for distribution-level studies (FCT percentiles under a
realistic size mix, sustained-load behaviour):

* :class:`SizeDistribution` — empirical CDF sampler with deterministic
  seeding, plus presets for the size mixes the paper's motivation names
  (§II-A "both large objects and small query messages"):
  ``QUERY`` (RPC-scale), ``STORAGE_REPLICATION`` (4 KB-1 MB IOs),
  ``DNN_UPDATES`` (multi-MB tensors), and ``MIXED`` (the §II-A blend).
* :class:`PoissonArrivals` — open-loop arrival process at a target load.
* :class:`MulticastWorkload` — composes both into a replayable schedule
  and drives any broadcast engine over it, collecting per-message FCTs.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["SizeDistribution", "PoissonArrivals", "MulticastWorkload",
           "nearest_rank",
           "QUERY", "STORAGE_REPLICATION", "DNN_UPDATES", "MIXED"]


class SizeDistribution:
    """Empirical CDF over message sizes.

    Defined by (size, cumulative-probability) knots; samples are drawn
    by inverse transform with log-linear interpolation between knots,
    which matches how flow-size CDFs are usually published.
    """

    def __init__(self, knots: Sequence[Tuple[int, float]], name: str = "") -> None:
        if len(knots) < 2:
            raise ConfigurationError("a CDF needs at least 2 knots")
        sizes = [s for s, _ in knots]
        probs = [p for _, p in knots]
        if sizes != sorted(sizes) or probs != sorted(probs):
            raise ConfigurationError("CDF knots must be non-decreasing")
        if probs[-1] != 1.0:
            raise ConfigurationError("CDF must end at probability 1.0")
        if any(s <= 0 for s in sizes):
            raise ConfigurationError("sizes must be positive")
        self.name = name
        self._sizes = sizes
        self._probs = probs

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        i = bisect.bisect_left(self._probs, u)
        if i == 0:
            return self._sizes[0]
        lo_p, hi_p = self._probs[i - 1], self._probs[i]
        lo_s, hi_s = self._sizes[i - 1], self._sizes[i]
        frac = (u - lo_p) / (hi_p - lo_p) if hi_p > lo_p else 0.0
        # log-linear interpolation between knots
        import math
        size = math.exp(math.log(lo_s) + frac * (math.log(hi_s) -
                                                 math.log(lo_s)))
        return max(1, int(size))

    def mean(self, samples: int = 20000, seed: int = 1) -> float:
        rng = random.Random(seed)
        return sum(self.sample(rng) for _ in range(samples)) / samples


#: RPC/query-scale messages (64 B - 4 KB, heavily small).
QUERY = SizeDistribution(
    [(64, 0.0), (256, 0.5), (1024, 0.9), (4096, 1.0)], name="query")

#: Storage replication IOs (4 KB typical, up to 1 MB).
STORAGE_REPLICATION = SizeDistribution(
    [(4096, 0.0), (8192, 0.55), (65536, 0.85), (1 << 20, 1.0)],
    name="storage")

#: DNN gradient/update tensors (hundreds of KB to tens of MB).
DNN_UPDATES = SizeDistribution(
    [(256 << 10, 0.0), (1 << 20, 0.3), (8 << 20, 0.8), (64 << 20, 1.0)],
    name="dnn")

#: The §II-A blend: mostly queries, a storage body, a bulky tail.
MIXED = SizeDistribution(
    [(64, 0.0), (1024, 0.45), (8192, 0.7), (256 << 10, 0.9),
     (8 << 20, 1.0)], name="mixed")


class PoissonArrivals:
    """Open-loop Poisson arrival times at a target mean rate."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.rate = rate_per_s

    def times(self, n: int, rng: random.Random, start: float = 0.0) -> List[float]:
        t = start
        out = []
        for _ in range(n):
            t += rng.expovariate(self.rate)
            out.append(t)
        return out


def nearest_rank(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]


@dataclass
class WorkloadResult:
    """Per-message FCTs for one replayed workload."""

    engine: str
    fcts: List[Tuple[int, float]]  # (size, fct)

    def percentile(self, p: float) -> float:
        return nearest_rank([f for _, f in self.fcts], p)

    def small_large_split(self, threshold: int = 64 << 10):
        small = [f for s, f in self.fcts if s < threshold]
        large = [f for s, f in self.fcts if s >= threshold]
        return small, large


class MulticastWorkload:
    """A replayable (seeded) schedule of multicast messages.

    ``run(engine_factory)`` replays the schedule *closed-loop per
    message* (each broadcast completes before the next is posted at its
    scheduled-or-later time), which keeps engines comparable without
    modelling application pipelining.
    """

    def __init__(self, sizes: SizeDistribution, arrivals: PoissonArrivals,
                 n_messages: int, seed: int = 0) -> None:
        rng = random.Random(seed)
        times = arrivals.times(n_messages, rng)
        self.schedule: List[Tuple[float, int]] = [
            (t, sizes.sample(rng)) for t in times
        ]

    def run(self, cluster, members, engine_cls, **engine_kw) -> WorkloadResult:
        engine = engine_cls(cluster, list(members), **engine_kw)
        engine.prepare()
        sim = cluster.sim
        fcts: List[Tuple[int, float]] = []
        for when, size in self.schedule:
            if sim.now < when:
                sim.run(until=when)
            result = engine.run(size)
            fcts.append((size, result.jct))
        return WorkloadResult(engine.name, fcts)
