"""Seeded open-loop load generation over virtual time.

Closed-loop drivers (post, wait, post again) measure a system that is
never more than one request deep — they cannot see queueing tails,
because the load generator politely stops arriving whenever the system
slows down.  The broker-fabric scenario needs the opposite: an
**open-loop** generator whose arrival process is fixed up front and
does not react to completions, the standard discipline for tail-latency
measurement (Poisson arrivals make the run an M/G/k observation).

This module is the load-shaping half, independent of any scenario:

* :func:`poisson_offsets` — cumulative-exponential arrival times drawn
  from a seeded RNG (virtual seconds, deterministic per seed);
* :class:`ZipfSampler` — Zipf(alpha) topic popularity, the canonical
  pub/sub skew (a few hot topics carry most publishes);
* op records (:class:`PublishOp`, :class:`ChurnOp`, :class:`CrossOp`)
  and :class:`OpenLoopSchedule`, a frozen JSON-able bundle of the three
  streams — the same pure (config, schedule) -> record discipline the
  churn and chaos harnesses use, so failing runs replay bit-for-bit;
* stream generators composing the above, and :func:`schedule_ops`,
  which arms one simulator event per op at its absolute virtual time —
  arrivals fire regardless of how far behind the system is.

Churn ops are *toggles* (subscribe if out, unsubscribe if in): the
generator stays trivially valid under any interleaving, and the
executing scenario applies its own floors (leader, minimum group size,
one in-flight delta per member) deterministically.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.harness.campaign import JsonCodec

__all__ = [
    "PublishOp", "ChurnOp", "CrossOp", "OpenLoopSchedule",
    "ZipfSampler", "poisson_offsets", "generate_publish_stream",
    "generate_churn_stream", "generate_cross_stream", "schedule_ops",
]


# ---------------------------------------------------------------------------
# op records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublishOp(JsonCodec):
    """One publish arrival: message of ``size`` bytes on topic index
    ``topic`` at virtual offset ``at``."""

    at: float
    topic: int
    size: int


@dataclass(frozen=True)
class ChurnOp(JsonCodec):
    """One subscription toggle for host ``ip`` on topic index ``topic``."""

    at: float
    topic: int
    ip: int


@dataclass(frozen=True)
class CrossOp(JsonCodec):
    """One background unicast transfer ``src -> dst`` of ``size`` bytes."""

    at: float
    src: int
    dst: int
    size: int


@dataclass(frozen=True)
class OpenLoopSchedule(JsonCodec):
    """The three pre-drawn op streams of one open-loop trial."""

    trial_seed: int
    publishes: Tuple[PublishOp, ...]
    churn: Tuple[ChurnOp, ...]
    cross: Tuple[CrossOp, ...]


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class ZipfSampler:
    """Zipf(alpha) over ``n`` ranks via inverse-CDF lookup.

    Rank 0 is the hottest item.  The CDF is precomputed once; each
    :meth:`sample` costs one uniform draw + one bisect, so a schedule
    with 10^6 publishes stays cheap to generate.  ``alpha == 0`` is the
    uniform distribution.
    """

    def __init__(self, n: int, alpha: float) -> None:
        if n < 1:
            raise ValueError(f"ZipfSampler needs n >= 1, got {n}")
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0   # guard against float drift

    def sample(self, rng) -> int:
        return bisect.bisect_left(self._cdf, rng.random())


def poisson_offsets(rng, rate: float, horizon: float) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over
    ``[0, horizon)``: cumulative exponential inter-arrival times.

    Rounded to nanoseconds so schedules survive a JSON round-trip
    bit-for-bit (the reproducer contract).
    """
    if rate <= 0.0:
        return []
    out: List[float] = []
    t = 0.0
    while True:
        t += -math.log(1.0 - rng.random()) / rate
        if t >= horizon:
            return out
        out.append(round(t, 9))


# ---------------------------------------------------------------------------
# stream generators
# ---------------------------------------------------------------------------

def generate_publish_stream(rng, *, rate: float, horizon: float,
                            n_topics: int, zipf_alpha: float,
                            size: int) -> Tuple[PublishOp, ...]:
    """Poisson publish arrivals; each lands on a Zipf-popular topic."""
    zipf = ZipfSampler(n_topics, zipf_alpha)
    return tuple(PublishOp(at=at, topic=zipf.sample(rng), size=size)
                 for at in poisson_offsets(rng, rate, horizon))


def generate_churn_stream(rng, *, rate: float, horizon: float,
                          n_topics: int, hosts: Sequence[int],
                          zipf_alpha: float = 0.0) -> Tuple[ChurnOp, ...]:
    """Poisson subscription toggles: hosts uniform, topics Zipf-popular
    (``zipf_alpha=0`` is uniform).  Hot topics churn hardest — the same
    skew publishes follow, and the regime where per-window MRP delta
    coalescing has batches to fold.

    Continuous churn: the stream never drains, hosts flap in and out of
    topics for the whole horizon.
    """
    hosts = list(hosts)
    if not hosts:
        return ()
    zipf = ZipfSampler(n_topics, zipf_alpha)
    return tuple(
        ChurnOp(at=at, topic=zipf.sample(rng), ip=rng.choice(hosts))
        for at in poisson_offsets(rng, rate, horizon))


def generate_cross_stream(rng, *, rate: float, horizon: float,
                          hosts: Sequence[int],
                          size: int) -> Tuple[CrossOp, ...]:
    """Background unicast cross-traffic between distinct host pairs."""
    hosts = list(hosts)
    if len(hosts) < 2:
        return ()
    out: List[CrossOp] = []
    for at in poisson_offsets(rng, rate, horizon):
        src, dst = rng.sample(hosts, 2)
        out.append(CrossOp(at=at, src=src, dst=dst, size=size))
    return tuple(out)


# ---------------------------------------------------------------------------
# the open-loop driver
# ---------------------------------------------------------------------------

def schedule_ops(sim, start: float, ops: Sequence, fn: Callable) -> int:
    """Arm ``fn(op)`` at ``start + op.at`` for every op (one simulator
    event each) — the open-loop contract: arrival times are fixed before
    the run and never wait on completions.  Returns the op count."""
    for op in ops:
        sim.schedule(start + op.at - sim.now, fn, op)
    return len(ops)
