"""The remaining MPI collectives (§VIII: "more collective communication
primitives, such as many-to-one (e.g., MPI-Reduce) and many-to-many
(e.g., MPI-Alltoall)").

Host-level implementations of the standard algorithms, plus the
Cepheus-accelerated variants where the communication is broadcast-
shaped:

* :class:`Scatter` — root sends distinct shards (sequential blocking
  sends; distinct data cannot be multicast);
* :class:`Gather` — everyone sends its shard to the root concurrently;
* :class:`Allgather` — ring algorithm, or ``engine="cepheus"``:
  N multicast rounds over **one** group whose source rotates per round
  (§III-E source switching doing real work: no re-registration, ever);
* :class:`Alltoall` — personalized pairwise exchange over an XOR
  schedule (distinct data per pair: inherently unicast);
* :class:`Barrier` — dissemination barrier, or ``engine="cepheus"``:
  an in-network 1-byte reduce to the root followed by a 1-byte
  multicast (two wire-times end-to-end).

Each completes once: its result's ``done`` is set when the last piece
lands, and ``size`` is the per-rank payload.
"""

from __future__ import annotations

from typing import List

from repro.apps.cluster import Cluster
from repro.collectives.base import Collective, CollectiveResult
from repro.collectives.cepheus_bcast import CepheusBcast
from repro.collectives.reduce import InNetworkReduce
from repro.errors import ConfigurationError

__all__ = ["Scatter", "Gather", "Allgather", "Alltoall", "Barrier"]


class Scatter(Collective):
    """Root distributes shard *i* to rank *i* (MPI_Scatter)."""

    name = "scatter"

    def _launch(self, shard_size: int, result: CollectiveResult) -> None:
        sim = self.cluster.sim
        stack = self.cluster.stack
        result.rounds = self.n - 1
        done = {"n": self.n - 1, "t": result.start}

        def landed(mid: int, sz: int, now: float, meta) -> None:
            done["n"] -= 1
            done["t"] = max(done["t"], now + stack.recv)
            if done["n"] == 0:
                result.done = done["t"]

        def post(idx: int) -> None:
            if idx >= self.n:
                return
            ip = self.ranks[idx]
            self.cluster.qp_to(ip, self.root).on_message = landed
            self.cluster.qp_to(self.root, ip).post_send(
                shard_size, on_sent=lambda mid, now: post(idx + 1))

        sim.schedule(stack.send, post, 1)


class Gather(Collective):
    """Everyone ships its shard to the root (MPI_Gather)."""

    name = "gather"

    def _launch(self, shard_size: int, result: CollectiveResult) -> None:
        sim = self.cluster.sim
        stack = self.cluster.stack
        result.rounds = 1
        done = {"n": self.n - 1, "t": result.start}

        def landed(mid: int, sz: int, now: float, meta) -> None:
            done["n"] -= 1
            done["t"] = max(done["t"], now + stack.recv)
            if done["n"] == 0:
                result.done = done["t"]

        def start() -> None:
            for ip in self.ranks[1:]:
                self.cluster.qp_to(self.root, ip).on_message = landed
                self.cluster.qp_to(ip, self.root).post_send(shard_size)

        sim.schedule(stack.send, start)


class Allgather(Collective):
    """Every rank ends with every shard (MPI_Allgather).

    ``engine="ring"``: the classic N-1 step ring.
    ``engine="cepheus"``: N multicast rounds over one rotating-source
    group — every round is one wire-time, so the whole allgather costs
    ~N shard-times plus N source switches (which are free, §III-E).
    """

    name = "allgather"

    def __init__(self, cluster: Cluster, members: List[int],
                 engine: str = "ring") -> None:
        super().__init__(cluster, members)
        if engine not in ("ring", "cepheus"):
            raise ConfigurationError(f"unknown allgather engine {engine!r}")
        self.engine = engine
        self._bcast = None
        if engine == "cepheus":
            self._bcast = CepheusBcast(cluster, self.ranks, self.root)
            self._bcast.prepare()

    def _launch(self, shard_size: int, result: CollectiveResult) -> None:
        if self._bcast is not None:
            # Each round is a whole broadcast run, drained here; the
            # outer drain then finds nothing left to do.
            for ip in self.ranks:
                self._bcast.set_source(ip)
                self._bcast.run(shard_size)
            result.rounds = self.n
            result.done = self.cluster.sim.now
            return
        sim = self.cluster.sim
        stack = self.cluster.stack
        n = self.n
        result.rounds = n - 1
        remaining = {"n": n * (n - 1), "t": result.start}

        def forward(rank: int, shard: int, hops: int) -> None:
            nxt = (rank + 1) % n
            self.cluster.qp_to(self.ranks[rank], self.ranks[nxt]).post_send(
                shard_size, meta=(shard, hops + 1))

        def on_piece(rank: int):
            def handler(mid: int, sz: int, now: float, meta) -> None:
                shard, hops = meta
                remaining["n"] -= 1
                remaining["t"] = max(remaining["t"], now + stack.recv)
                if remaining["n"] == 0:
                    result.done = remaining["t"]
                if hops < n - 1:
                    sim.schedule(stack.relay, forward, rank, shard, hops)
            return handler

        for rank in range(n):
            prev = self.ranks[(rank - 1) % n]
            self.cluster.qp_to(self.ranks[rank], prev).on_message = \
                on_piece(rank)

        def start() -> None:
            for rank in range(n):
                forward(rank, rank, 0)

        sim.schedule(stack.send, start)


class Alltoall(Collective):
    """Personalized exchange: rank i sends a distinct shard to every j.

    XOR pairwise schedule (n rounds for power-of-two groups, n rounds
    with idle slots otherwise); inherently unicast — the §VIII item the
    paper leaves fully open.
    """

    name = "alltoall"

    def _launch(self, shard_size: int, result: CollectiveResult) -> None:
        sim = self.cluster.sim
        stack = self.cluster.stack
        n = self.n
        # round-robin over XOR partners; total messages n*(n-1)
        rounds = 1
        while rounds < n:
            rounds <<= 1  # next power of two
        result.rounds = rounds - 1
        state = {"pending": 0, "round": 0, "t": result.start}

        def run_round() -> None:
            r = state["round"]
            if r >= rounds:
                result.done = state["t"]
                return
            state["round"] += 1
            pairs = []
            for i in range(n):
                j = i ^ r
                if j < n and j != i:
                    pairs.append((i, j))
            if not pairs:
                sim.schedule(0.0, run_round)
                return
            state["pending"] = len(pairs)
            for i, j in pairs:
                src, dst = self.ranks[i], self.ranks[j]

                def landed(mid, sz, now, meta) -> None:
                    state["pending"] -= 1
                    state["t"] = max(state["t"], now + stack.recv)
                    if state["pending"] == 0:
                        sim.schedule(stack.relay, run_round)

                self.cluster.qp_to(dst, src).on_message = landed
                self.cluster.qp_to(src, dst).post_send(shard_size)

        sim.schedule(stack.send, run_round)


class Barrier(Collective):
    """Synchronize all members.

    ``engine="dissemination"``: ceil(log2 n) rounds of 1-byte exchanges.
    ``engine="cepheus"``: in-network 1-byte reduce to the root, then a
    1-byte multicast — two wire-times regardless of group size.
    """

    name = "barrier"

    def __init__(self, cluster: Cluster, members: List[int],
                 engine: str = "dissemination") -> None:
        super().__init__(cluster, members)
        if engine not in ("dissemination", "cepheus"):
            raise ConfigurationError(f"unknown barrier engine {engine!r}")
        self.engine = engine
        self._reduce = None
        self._bcast = None
        if engine == "cepheus":
            self._reduce = InNetworkReduce(cluster, self.ranks, self.root)
            self._reduce.prepare()
            self._bcast = CepheusBcast(cluster, self.ranks, self.root)
            self._bcast.prepare()

    def run(self) -> CollectiveResult:
        """A barrier's tokens are 1 byte."""
        return super().run(1)

    def _launch(self, size: int, result: CollectiveResult) -> None:
        if self._reduce is not None:
            # Both phases drain here; the outer drain is then empty.
            self._reduce.run(1)   # everyone checked in
            self._bcast.run(1)    # everyone released
            result.rounds = 2
            result.done = self.cluster.sim.now
            return
        sim = self.cluster.sim
        stack = self.cluster.stack
        n = self.n
        rounds = max(1, (n - 1).bit_length())
        result.rounds = rounds
        state = {"round": 0, "pending": 0, "t": result.start}

        def run_round() -> None:
            r = state["round"]
            if r >= rounds:
                result.done = state["t"]
                return
            state["round"] += 1
            dist = 1 << r
            state["pending"] = n
            for i in range(n):
                j = (i + dist) % n
                src, dst = self.ranks[i], self.ranks[j]

                def landed(mid, sz, now, meta) -> None:
                    state["pending"] -= 1
                    state["t"] = max(state["t"], now + stack.recv)
                    if state["pending"] == 0:
                        sim.schedule(stack.relay, run_round)

                self.cluster.qp_to(dst, src).on_message = landed
                self.cluster.qp_to(src, dst).post_send(1)

        sim.schedule(stack.send, run_round)
