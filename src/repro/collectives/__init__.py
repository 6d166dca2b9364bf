"""Collectives, all on one skeleton (:class:`Collective`): the Cepheus
broadcast primitive + every AMcast baseline the paper evaluates against
(§II-C, §V), and the §VIII reductions and MPI operations."""

from typing import Callable, Dict

from repro.collectives.allreduce import AllReduce, AllReduceResult
from repro.collectives.base import (BroadcastAlgorithm, BroadcastResult,
                                    Collective, CollectiveResult)
from repro.collectives.binomial import BinomialTreeBcast, binomial_children
from repro.collectives.cepheus_bcast import CepheusBcast
from repro.collectives.chain import ChainBcast, IncreasingRingBcast
from repro.collectives.long_algo import LongBcast
from repro.collectives.mpi_ops import (Allgather, Alltoall, Barrier, Gather,
                                       Scatter)
from repro.collectives.rdmc import RdmcBcast
from repro.collectives.reduce import (BinomialReduce, InNetworkReduce,
                                      RingReduceScatter)
from repro.collectives.unicast import MultiUnicastBcast

#: Broadcast engine registry: name -> factory(cluster, members, root).
ALGORITHMS: Dict[str, Callable[..., BroadcastAlgorithm]] = {
    "cepheus": CepheusBcast,
    "binomial": BinomialTreeBcast,
    "chain": ChainBcast,
    "increasing-ring": IncreasingRingBcast,
    "long": LongBcast,
    "rdmc": RdmcBcast,
    "multi-unicast": MultiUnicastBcast,
}

__all__ = [
    "ALGORITHMS",
    "AllReduce", "AllReduceResult",
    "Collective", "CollectiveResult",
    "BroadcastAlgorithm", "BroadcastResult",
    "BinomialReduce", "RingReduceScatter", "InNetworkReduce",
    "BinomialTreeBcast", "binomial_children",
    "CepheusBcast",
    "ChainBcast", "IncreasingRingBcast",
    "LongBcast",
    "Scatter", "Gather", "Allgather", "Alltoall", "Barrier",
    "RdmcBcast",
    "MultiUnicastBcast",
]
