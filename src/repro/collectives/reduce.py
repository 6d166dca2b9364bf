"""Many-to-one reduction (the paper's stated future work, §VIII).

The paper closes with: "we plan to extend Cepheus for more collective
communication primitives, such as many-to-one (e.g., MPI-Reduce)".
This module provides the reductions that compose with the Cepheus
broadcast:

* :class:`BinomialReduce` — the mirror image of the binomial broadcast:
  partial sums combine pairwise up a binomial tree in ceil(log2 N)
  rounds.  Each combining step pays a per-byte compute cost (vector
  addition is memory-bound), which is the realistic limiter for large
  gradients.
* :class:`RingReduceScatter` — each rank ends with the fully-reduced
  1/N-th shard of the vector after N-1 pipelined steps; the classic
  bandwidth-optimal first half of ring allreduce.
* :class:`InNetworkReduce` — the experimental in-network version:
  contributions combine in the switches over a reduce-mode MDT.

:class:`repro.collectives.allreduce.AllReduce` composes these with a
broadcast/allgather phase; the Cepheus-accelerated composition is the
Parameter-Server pattern from the paper's introduction (gradients
aggregate toward the PS, the update is *multicast* back out).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.cluster import Cluster
from repro.collectives.base import Collective, CollectiveResult
from repro.collectives.binomial import binomial_children
from repro.core.group import MulticastGroup
from repro.errors import ConfigurationError
from repro.transport.roce import RoceQP

__all__ = ["BinomialReduce", "RingReduceScatter", "InNetworkReduce",
           "REDUCE_COMPUTE_BPS"]

#: Combining rate for the elementwise reduction (memory-bound vector
#: add: read two operands + write one at ~50 GB/s effective).
REDUCE_COMPUTE_BPS: float = 50e9 * 8


def _combine_delay(nbytes: int) -> float:
    return nbytes * 8.0 / REDUCE_COMPUTE_BPS


class BinomialReduce(Collective):
    """Pairwise combining up the binomial tree (MPI_Reduce default)."""

    name = "binomial-reduce"

    def _setup(self) -> None:
        for rank, ip in enumerate(self.ranks):
            for child in binomial_children(rank, len(self.ranks)):
                self.cluster.qp_pair(ip, self.ranks[child])

    def _launch(self, size: int, result: CollectiveResult) -> None:
        sim = self.cluster.sim
        stack = self.cluster.stack
        n = len(self.ranks)
        # Each parent waits for all of its children's partial vectors,
        # combining as they arrive; leaves send immediately.
        pending: Dict[int, int] = {
            r: len(binomial_children(r, n)) for r in range(n)
        }

        def send_up(rank: int) -> None:
            if rank == 0:
                result.done = sim.now + stack.recv
                return
            parent = rank - (1 << (rank.bit_length() - 1))
            ip, pip = self.ranks[rank], self.ranks[parent]
            sim.schedule(stack.send,
                         self.cluster.qp_to(ip, pip).post_send, size)

        def on_partial(rank: int):
            def handler(mid: int, sz: int, now: float, meta) -> None:
                result.combines += 1
                delay = stack.recv + _combine_delay(sz)

                def combined() -> None:
                    pending[rank] -= 1
                    if pending[rank] == 0:
                        send_up(rank)

                sim.schedule(delay, combined)
            return handler

        for rank in range(n):
            for child in binomial_children(rank, n):
                self.cluster.qp_to(
                    self.ranks[rank], self.ranks[child]
                ).on_message = on_partial(rank)
            if pending[rank] == 0:
                send_up(rank)


class RingReduceScatter(Collective):
    """Pipelined ring reduce-scatter: after N-1 steps, rank i holds the
    fully-reduced shard i.  Completion = every shard reduced."""

    name = "ring-reduce-scatter"

    def _setup(self) -> None:
        n = len(self.ranks)
        for i in range(n):
            self.cluster.qp_pair(self.ranks[i], self.ranks[(i + 1) % n])

    def _shards(self, size: int) -> List[int]:
        n = min(len(self.ranks), size)
        base, rem = divmod(size, n)
        return [base + (1 if i < rem else 0) for i in range(n)]

    def _launch(self, size: int, result: CollectiveResult) -> None:
        sim = self.cluster.sim
        stack = self.cluster.stack
        n = len(self.ranks)
        shards = self._shards(size)
        nshards = len(shards)
        remaining = {"n": nshards}

        def forward(rank: int, shard: int, hops: int) -> None:
            nxt = (rank + 1) % n
            self.cluster.qp_to(self.ranks[rank], self.ranks[nxt]).post_send(
                shards[shard], meta=(shard, hops + 1))

        def on_piece(rank: int):
            def handler(mid: int, sz: int, now: float, meta) -> None:
                shard, hops = meta
                result.combines += 1
                delay = stack.recv + _combine_delay(sz) + stack.send
                if hops >= n - 1:
                    remaining["n"] -= 1
                    if remaining["n"] == 0:
                        result.done = now + stack.recv + _combine_delay(sz)
                    return
                sim.schedule(delay, forward, rank, shard, hops)
            return handler

        for rank in range(n):
            prev = self.ranks[(rank - 1) % n]
            self.cluster.qp_to(self.ranks[rank], prev).on_message = \
                on_piece(rank)

        def start() -> None:
            # In step 0, rank i injects shard (i+1) mod nshards toward
            # its successor; shard s then travels n-1 hops, combining at
            # every stop, and finishes at rank s.
            for rank in range(n):
                shard = (rank + 1) % nshards
                forward(rank, shard, 0)

        sim.schedule(stack.send, start)


class InNetworkReduce(Collective):
    """Many-to-one combining over the Cepheus MDT (experimental).

    This prototypes the §VIII extension on the same design principles
    as the broadcast primitive:

    * members keep their single RC connection to the virtual remote;
    * the registered MDT is reused with its *mode* flipped to
      ``reduce``: member contributions combine per-PSN on the way up,
      the root's feedback replicates (with connection bridging) on the
      way down;
    * the RNICs stay unmodified: each member's QP sees a perfectly
      normal unicast-looking ACK/NACK/CNP stream, and the root's QP
      sees one in-order data stream carrying the fully-combined vector.

    Contrast with SHARP (§VI): no switch buffering of payloads for
    retransmission — a root NACK rewinds *all* members together
    (collective order makes their PSNs line up), and the combining slots
    refill coherently.  The cost is that one member's retransmission
    makes every member retransmit, the same trade the broadcast side
    makes for loss (§V-C), which is why this too wants a PFC-lossless
    fabric.

    Limitations (why the paper defers this): requires collective posting
    discipline (every member posts equal sizes in the same order) and a
    fixed root per mode-switch; combining slots assume bounded
    reordering (the RC window).  Under the ``source_routed`` deployment
    :meth:`prepare` raises :class:`~repro.errors.ConfigurationError`:
    its headers encode only the downstream tree.
    """

    name = "in-network-reduce"
    engine = "cepheus"

    def __init__(self, cluster: Cluster, members: List[int],
                 root: Optional[int] = None) -> None:
        super().__init__(cluster, members, root)
        if cluster.fabric is None:
            raise ConfigurationError("in-network reduce needs a Cepheus fabric")
        # The caller's order, not the root-first ranks: the group is
        # created, and contributions posted, in this order.
        self.members = list(members)
        self.group: Optional[MulticastGroup] = None
        self.qps: Dict[int, RoceQP] = {}

    def _setup(self) -> None:
        """Register the group (broadcast-style MDT), then flip it to
        reduce mode — a pure control-plane operation."""
        fabric = self.cluster.fabric
        self.qps = {ip: self.cluster.ctx(ip).create_qp()
                    for ip in self.members}
        # The root is the leader: the MDT's AckOutPort then points at it
        # from registration, which in reduce mode is the combining sink.
        self.group = fabric.create_group(self.qps, leader_ip=self.root)
        fabric.register_sync(self.group)
        fabric.set_group_mode(self.group.mcst_id, "reduce")

    def _launch(self, size: int, result: CollectiveResult) -> None:
        """Every non-root member contributes ``size`` bytes; done when
        the root has the combined vector, and the drain also sees every
        member's send acknowledged."""
        sim = self.cluster.sim
        stack = self.cluster.stack

        def root_got(mid: int, sz: int, now: float, meta) -> None:
            if sz == size and result.done is None:
                result.done = now + stack.recv

        self.qps[self.root].on_message = root_got

        def member_done(mid: int, now: float) -> None:
            result.members_completed += 1

        def post_all() -> None:
            for ip in self.members:
                if ip == self.root:
                    continue
                self.qps[ip].post_send(size, on_complete=member_done)

        sim.schedule(stack.send, post_all)
