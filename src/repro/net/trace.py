"""Measurement helpers: throughput sampling and run summaries.

The fairness/convergence experiment (Fig. 14) plots per-flow throughput
in 1 ms buckets; :class:`ThroughputSampler` reproduces that by counting
delivered bytes per bucket.  :class:`RunStats` aggregates fabric-wide
counters (drops, ECN marks, PFC events) after a run for assertions and
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.topology import Topology

__all__ = ["ThroughputSampler", "RunStats", "collect_run_stats"]


class ThroughputSampler:
    """Accumulate delivered bytes into fixed-width time buckets."""

    def __init__(self, bucket_s: float = 1e-3) -> None:
        self.bucket_s = bucket_s
        self._buckets: Dict[int, int] = {}

    def attach(self, qp) -> "ThroughputSampler":
        """Count ``qp``'s deliveries off the bus ``deliver`` channel."""
        sim = qp.sim

        def on_deliver(q, pkt) -> None:
            if q is qp:
                self.record(sim.now, pkt.payload)

        qp.bus.subscribe("deliver", on_deliver)
        return self

    def record(self, now: float, nbytes: int) -> None:
        self._buckets[int(now / self.bucket_s)] = (
            self._buckets.get(int(now / self.bucket_s), 0) + nbytes
        )

    def series_gbps(self, until_bucket: int = -1) -> List[float]:
        """Throughput per bucket in Gbps, densely from bucket 0."""
        if not self._buckets:
            return []
        last = max(self._buckets) if until_bucket < 0 else until_bucket
        return [
            self._buckets.get(i, 0) * 8.0 / self.bucket_s / 1e9
            for i in range(last + 1)
        ]

    def average_gbps(self, t0: float, t1: float) -> float:
        """Mean throughput over the [t0, t1) window."""
        b0, b1 = int(t0 / self.bucket_s), int(t1 / self.bucket_s)
        total = sum(self._buckets.get(i, 0) for i in range(b0, max(b1, b0 + 1)))
        dur = max(t1 - t0, self.bucket_s)
        return total * 8.0 / dur / 1e9


@dataclass
class RunStats:
    """Fabric-wide counters collected after a simulation run."""

    random_drops: int = 0
    taildrops: int = 0
    ecn_marks: int = 0
    pause_frames: int = 0
    resume_frames: int = 0
    forwarded: int = 0
    per_switch: Dict[str, Dict[str, int]] = field(default_factory=dict)


def collect_run_stats(topo: Topology) -> RunStats:
    """Sweep every switch in ``topo`` and sum its counters."""
    stats = RunStats()
    for sw in topo.switches:
        marks = sum(p.stats.ecn_marks for p in sw.ports)
        stats.random_drops += sw.random_drops
        stats.taildrops += sw.taildrops
        stats.ecn_marks += marks
        stats.pause_frames += sw.pfc.pause_frames_sent
        stats.resume_frames += sw.pfc.resume_frames_sent
        stats.forwarded += sw.forwarded
        stats.per_switch[sw.name] = {
            "random_drops": sw.random_drops,
            "taildrops": sw.taildrops,
            "ecn_marks": marks,
            "pause_frames": sw.pfc.pause_frames_sent,
        }
    return stats
