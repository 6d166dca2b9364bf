"""AllReduce compositions — the DNN-training use case from §I.

The paper motivates Cepheus with the Parameter-Server pattern: "the
aggregated gradients should be distributed from PS(s) to multiple
workers", i.e. the *distribution* half of every data-parallel step is a
multicast.  This module composes the §VIII-future-work reduction
primitives with a broadcast engine:

* ``ring``            — classic ring allreduce: reduce-scatter followed
  by a ring allgather.  Bandwidth-optimal, latency ~2(N-1) steps.
* ``ps-<bcast>``      — Parameter-Server style: binomial reduce to the
  PS, then distribute via the chosen broadcast engine
  (``ps-cepheus``, ``ps-binomial``, ``ps-multi-unicast``, ...).

With Cepheus the distribution phase collapses to one wire-time,
which is exactly the gain the paper projects for PS/INA architectures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps.cluster import Cluster
from repro.collectives.reduce import BinomialReduce, RingReduceScatter
from repro.errors import ConfigurationError

__all__ = ["AllReduceResult", "AllReduce"]


@dataclass
class AllReduceResult:
    """Timing breakdown of one allreduce."""

    strategy: str
    size: int
    reduce_time: float
    distribute_time: float

    @property
    def total(self) -> float:
        return self.reduce_time + self.distribute_time

    def busbw_gbps(self) -> float:
        """The collective-benchmark 'algorithm bandwidth' figure."""
        return self.size * 8.0 / self.total / 1e9


class AllReduce:
    """AllReduce over a member set with a pluggable strategy."""

    def __init__(self, cluster: Cluster, members: List[int],
                 strategy: str = "ps-cepheus") -> None:
        # The package registry; imported here because the package
        # imports this module before defining it.
        from repro.collectives import ALGORITHMS

        self.cluster = cluster
        self.members = list(members)
        self.strategy = strategy
        self._reduce = None
        self._bcast = None
        self._allgather = None
        if strategy == "ring":
            self._reduce = RingReduceScatter(cluster, self.members)
            # The allgather half is the 'long' roll without the scatter;
            # the chain engine at slices=N models it within a few percent.
            self._allgather = ALGORITHMS["long"](cluster, self.members)
        elif strategy.startswith("ps-"):
            engine = strategy[3:]
            if engine not in ALGORITHMS:
                raise ConfigurationError(f"unknown bcast engine {engine!r}")
            self._reduce = BinomialReduce(cluster, self.members)
            self._bcast = ALGORITHMS[engine](cluster, self.members)
        else:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; use 'ring' or 'ps-<bcast>'")

    def run(self, size: int) -> AllReduceResult:
        r = self._reduce.run(size)
        if self._bcast is not None:
            d = self._bcast.run(size).jct
        else:
            # ring allgather distributes the N reduced shards
            d = self._allgather.run(size).jct
        return AllReduceResult(self.strategy, size,
                               reduce_time=r.duration, distribute_time=d)
