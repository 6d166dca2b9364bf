"""MPI-like communicator facade (§IV 'End-host APIs').

The paper integrates Cepheus under ``MPI_Bcast`` by patching OpenMPI +
UCX; applications keep calling the same collective and only the engine
changes.  :class:`Communicator` mirrors that: ``bcast(size, root)``
dispatches to any registered broadcast engine ("cepheus", "binomial",
"chain", ...), caching prepared algorithm instances.

For the Cepheus engine a *single* multicast group serves every root:
changing the root is a §III-E source switch (one MFT, PSN sync), not a
re-registration — exactly the HPL usage pattern.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.apps.cluster import Cluster
from repro.collectives import (ALGORITHMS, Allgather, AllReduce, Alltoall,
                               Barrier, BinomialReduce, BroadcastAlgorithm,
                               BroadcastResult, CepheusBcast, Gather,
                               InNetworkReduce, Scatter)
from repro.errors import ConfigurationError

__all__ = ["ALGORITHMS", "Communicator"]


class Communicator:
    """A group of ranks with a pluggable broadcast engine."""

    def __init__(self, cluster: Cluster, ranks: List[int],
                 algorithm: str = "cepheus") -> None:
        if algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {algorithm!r}; have {sorted(ALGORITHMS)}")
        if len(ranks) < 2:
            raise ConfigurationError("communicator needs at least 2 ranks")
        self.cluster = cluster
        self.ranks = list(ranks)
        self.algorithm = algorithm
        self._cepheus: Optional[CepheusBcast] = None
        self._amcast: Dict[Tuple[str, int], BroadcastAlgorithm] = {}
        self._reducers: Dict[Tuple[str, int], object] = {}
        self._allreducers: Dict[str, object] = {}
        self._ops: Dict[tuple, object] = {}
        self.bcast_count = 0

    @property
    def size(self) -> int:
        return len(self.ranks)

    def ip_of(self, rank: int) -> int:
        return self.ranks[rank]

    # -- the collective ---------------------------------------------------------

    def bcast(self, size: int, root: int = 0) -> BroadcastResult:
        """Broadcast ``size`` bytes from rank ``root`` to all other ranks."""
        if not 0 <= root < self.size:
            raise ConfigurationError(f"root rank {root} out of range")
        self.bcast_count += 1
        root_ip = self.ranks[root]
        engine = self._engine_for(root_ip)
        return engine.run(size)

    def _engine_for(self, root_ip: int) -> BroadcastAlgorithm:
        if self.algorithm == "cepheus":
            if self._cepheus is None:
                self._cepheus = CepheusBcast(self.cluster, self.ranks, root_ip)
                self._cepheus.prepare()
            elif self._cepheus.root != root_ip:
                self._cepheus.set_source(root_ip)  # §III-E, no re-registration
            return self._cepheus
        key = (self.algorithm, root_ip)
        engine = self._amcast.get(key)
        if engine is None:
            engine = ALGORITHMS[self.algorithm](self.cluster, self.ranks, root_ip)
            self._amcast[key] = engine
        return engine

    # -- §VIII extensions: reduce / allreduce --------------------------------

    def reduce(self, size: int, root: int = 0, *,
               in_network: Optional[bool] = None):
        """MPI_Reduce: combine ``size`` bytes from every rank at ``root``.

        ``in_network=True`` uses the experimental reduce-mode MDT
        (:class:`~repro.collectives.reduce.InNetworkReduce`); the default
        follows the communicator's engine (in-network iff it is
        ``cepheus``).  Returns the reduction result object.
        """
        if not 0 <= root < self.size:
            raise ConfigurationError(f"root rank {root} out of range")
        use_fabric = (self.algorithm == "cepheus") if in_network is None \
            else in_network
        root_ip = self.ranks[root]
        key = ("reduce-net" if use_fabric else "reduce-host", root_ip)
        engine = self._reducers.get(key)
        if engine is None:
            cls = InNetworkReduce if use_fabric else BinomialReduce
            engine = cls(self.cluster, self.ranks, root_ip)
            self._reducers[key] = engine
        return engine.run(size)

    def allreduce(self, size: int, strategy: Optional[str] = None):
        """AllReduce over the communicator; default strategy pairs the
        communicator's broadcast engine with a binomial reduce."""
        strat = strategy or (
            "ring" if self.algorithm in ("chain", "long")
            else f"ps-{self.algorithm}")
        engine = self._allreducers.get(strat)
        if engine is None:
            engine = AllReduce(self.cluster, self.ranks, strat)
            self._allreducers[strat] = engine
        return engine.run(size)

    def scatter(self, shard_size: int, root: int = 0):
        """MPI_Scatter: rank ``root`` distributes distinct shards."""
        return self._cached_op("scatter", Scatter,
                               root=self.ranks[root]).run(shard_size)

    def gather(self, shard_size: int, root: int = 0):
        """MPI_Gather: every rank ships its shard to ``root``."""
        return self._cached_op("gather", Gather,
                               root=self.ranks[root]).run(shard_size)

    def allgather(self, shard_size: int):
        """MPI_Allgather; in-network (rotating-source multicast rounds)
        when the communicator's engine is cepheus, ring otherwise."""
        engine = "cepheus" if self.algorithm == "cepheus" else "ring"
        return self._cached_op("allgather", Allgather,
                               engine=engine).run(shard_size)

    def alltoall(self, shard_size: int):
        """MPI_Alltoall: personalized pairwise exchange."""
        return self._cached_op("alltoall", Alltoall).run(shard_size)

    def barrier(self):
        """Synchronize all ranks; in-network reduce+bcast when the
        engine is cepheus, dissemination otherwise."""
        engine = ("cepheus" if self.algorithm == "cepheus"
                  else "dissemination")
        return self._cached_op("barrier", Barrier, engine=engine).run()

    def _cached_op(self, key: str, cls, **kwargs):
        full_key = (key, tuple(sorted(kwargs.items())))
        op = self._ops.get(full_key)
        if op is None:
            op = cls(self.cluster, self.ranks, **kwargs)
            self._ops[full_key] = op
        return op
