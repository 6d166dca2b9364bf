"""RDMC-style binomial pipeline broadcast (Behrens et al., DSN'18).

RDMC is the large-message AMcast specialist the paper compares against
in §V-A: the message is cut into fixed-size blocks (1 MB in RDMC) and
the blocks flow through a *binomial pipeline* — synchronized steps in
which nodes exchange one block with their hypercube neighbour on the
rotating dimension.  With B blocks over N=2^d nodes the schedule needs
about ``d + B - 1`` steps, i.e. near-optimal bandwidth with logarithmic
ramp-up, but every step is gated on receiver-driven synchronization
(RDMC sends blocks only when the receiver is known ready), modelled
here as a per-step overhead.

The step schedule is computed greedily: on dimension ``step mod d``
each node sends its partner the newest block the partner lacks (the
root injects blocks oldest-first).  This reproduces the binomial
pipeline's behaviour for power-of-two groups; other sizes fold the
excess nodes into an extra chain hop off their hypercube image, which
is also what RDMC does.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.apps.cluster import Cluster
from repro.collectives.base import BroadcastAlgorithm, BroadcastResult
from repro.errors import ConfigurationError

__all__ = ["RdmcBcast"]

#: Default RDMC block size (the RDMC paper's choice).
DEFAULT_BLOCK = 1 << 20
#: Per-step synchronization overhead: receiver-readiness signalling +
#: step barrier.  Calibrated so a 4-node 256 MB broadcast lands near the
#: paper's ~35 ms RDMC figure (§V-A 'Comparison to RDMC').
DEFAULT_STEP_OVERHEAD = 45e-6


class RdmcBcast(BroadcastAlgorithm):
    """Synchronous stepped binomial pipeline."""

    name = "rdmc"

    def __init__(self, cluster: Cluster, members: List[int],
                 root: Optional[int] = None, *,
                 block_size: int = DEFAULT_BLOCK,
                 step_overhead: float = DEFAULT_STEP_OVERHEAD) -> None:
        super().__init__(cluster, members, root)
        if block_size < 1:
            raise ConfigurationError(f"block size must be positive: {block_size}")
        self.block_size = block_size
        self.step_overhead = step_overhead
        # Hypercube dimension of the power-of-two core group.
        self.d = max(1, (self.n).bit_length() - 1)
        self.core = 1 << self.d  # largest power of two <= n
        self.steps_taken = 0

    def _setup(self) -> None:
        # Hypercube edges among the core group.
        for rank in range(self.core):
            for j in range(self.d):
                peer = rank ^ (1 << j)
                if rank < peer < self.core:
                    self.cluster.qp_pair(self.ranks[rank], self.ranks[peer])
        # Excess nodes hang off their image in the core group.
        for rank in range(self.core, self.n):
            self.cluster.qp_pair(self.ranks[rank - self.core], self.ranks[rank])

    # ------------------------------------------------------------------

    def _block_sizes(self, size: int) -> List[int]:
        nblocks = max(1, (size + self.block_size - 1) // self.block_size)
        base, rem = divmod(size, nblocks)
        return [base + (1 if i < rem else 0) for i in range(nblocks)]

    def _launch(self, size: int, result: BroadcastResult) -> None:
        sim = self.cluster.sim
        stack = self.cluster.stack
        sizes = self._block_sizes(size)
        nblocks = len(sizes)
        have: List[Set[int]] = [set() for _ in range(self.n)]
        have[0] = set(range(nblocks))
        self.steps_taken = 0

        def finished(rank: int) -> bool:
            return len(have[rank]) == nblocks

        def pick_block(src: int, dst: int) -> Optional[int]:
            gap = have[src] - have[dst]
            if not gap:
                return None
            if src == 0:
                # The root injects each block into the pipeline once
                # (oldest block nobody holds yet); only when everything
                # is injected does it help with cleanup.
                injected = set().union(*have[1:]) if self.n > 1 else set()
                fresh = gap - injected
                return min(fresh) if fresh else min(gap)
            # Relays propagate their newest block (binomial pipeline rule).
            return max(gap)

        def step() -> None:
            if all(finished(r) for r in range(1, self.n)):
                return
            j = self.steps_taken % self.d
            self.steps_taken += 1
            transfers = []  # (src_rank, dst_rank, block)
            for rank in range(self.core):
                peer = rank ^ (1 << j)
                if peer >= self.core or rank > peer:
                    continue
                for src, dst in ((rank, peer), (peer, rank)):
                    blk = pick_block(src, dst)
                    if blk is not None:
                        transfers.append((src, dst, blk))
            # Excess nodes receive from their core image every step.
            for rank in range(self.core, self.n):
                img = rank - self.core
                blk = pick_block(img, rank)
                if blk is not None:
                    transfers.append((img, rank, blk))
            if not transfers:
                # Degenerate barrier (nothing exchangeable this dim):
                # rotate to the next dimension immediately.
                sim.schedule(0.0, step)
                return
            pending = {"n": len(transfers)}

            def one_done(dst_rank: int, blk: int):
                def handler(mid: int, sz: int, now: float, meta) -> None:
                    have[dst_rank].add(blk)
                    ip = self.ranks[dst_rank]
                    if finished(dst_rank):
                        self._record_delivery(result, ip, now)
                    pending["n"] -= 1
                    if pending["n"] == 0:
                        # Step barrier + receiver-readiness signalling.
                        sim.schedule(self.step_overhead, step)
                return handler

            for src, dst, blk in transfers:
                src_ip, dst_ip = self.ranks[src], self.ranks[dst]
                self.cluster.qp_to(dst_ip, src_ip).on_message = one_done(dst, blk)
                self.cluster.qp_to(src_ip, dst_ip).post_send(sizes[blk], meta=blk)

        sim.schedule(stack.send, step)
