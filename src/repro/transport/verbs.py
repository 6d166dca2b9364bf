"""Verbs-like host API.

The paper's end-host integration is deliberately thin: UCX creates RoCE
QPs through the standard verbs API and merely points each QP at a
*virtual* remote (``ibv_modify_qp`` lets software choose dstIP/dstQP
freely, §III-A).  This module mirrors that surface so the examples and
applications read like RDMA code:

>>> ctx = VerbsContext(sim, nic)
>>> qp = ctx.create_qp()
>>> ctx.modify_qp(qp, dst_ip=peer_ip, dst_qp=peer_qpn)   # RTR/RTS
>>> qp.post_send(4096, on_complete=cq.push)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.net.nic import Nic
from repro.net.simulator import Simulator
from repro.transport.memory import MemoryRegion, MrTable
from repro.transport.roce import RoceConfig, RoceQP

__all__ = ["CompletionQueue", "VerbsContext"]


@dataclass(frozen=True)
class Completion:
    """One completion-queue entry."""

    msg_id: int
    timestamp: float


class CompletionQueue:
    """Minimal CQ: completions are pushed by QPs and polled by the app."""

    def __init__(self) -> None:
        self._entries: Deque[Completion] = deque()

    def push(self, msg_id: int, timestamp: float) -> None:
        self._entries.append(Completion(msg_id, timestamp))

    def poll(self, max_entries: int = 16) -> List[Completion]:
        out: List[Completion] = []
        while self._entries and len(out) < max_entries:
            out.append(self._entries.popleft())
        return out

    def __len__(self) -> int:
        return len(self._entries)


class VerbsContext:
    """Per-host verbs context: QP factory + MR registry."""

    def __init__(self, sim: Simulator, nic: Nic,
                 config: Optional[RoceConfig] = None) -> None:
        self.sim = sim
        self.nic = nic
        self.config = config or RoceConfig()
        self.mr_table = MrTable()
        self.qps: List[RoceQP] = []

    def create_qp(self, config: Optional[RoceConfig] = None) -> RoceQP:
        qp = RoceQP(self.sim, self.nic, config or self.config,
                    mr_table=self.mr_table)
        self.qps.append(qp)
        return qp

    def modify_qp(self, qp: RoceQP, dst_ip: int, dst_qp: int) -> None:
        """The RTR/RTS transition; accepts any <dstIP, dstQP>, physical
        or virtual — exactly the freedom Cepheus exploits."""
        qp.connect(dst_ip, dst_qp)

    def reg_mr(self, length: int) -> MemoryRegion:
        return self.mr_table.register(length)

    def destroy(self) -> None:
        for qp in self.qps:
            qp.close()
        self.qps.clear()
