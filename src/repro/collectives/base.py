"""Broadcast algorithm framework.

Every multicast/broadcast scheme in the paper — the AMcast baselines
(Binomial Tree, Chain, increasing-ring, long, RDMC, multi-unicast) and
Cepheus itself — implements :class:`BroadcastAlgorithm`:

* :meth:`prepare` performs the *untimed* setup (QP pair creation, MFT
  registration) and may advance the simulator; the paper likewise
  excludes connection establishment and registration from JCT.
* :meth:`run` launches one broadcast of ``size`` bytes at the current
  virtual time, drains the simulator, and returns a
  :class:`BroadcastResult` with per-receiver delivery times.

JCT (the paper's MPI-Bcast metric) is the time from the root's post to
the moment the *last* receiver's application has the data, including
the end-host stack costs on both sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.cluster import Cluster
from repro.errors import ConfigurationError

__all__ = ["BroadcastResult", "BroadcastAlgorithm"]

_run_tokens = itertools.count(1)


@dataclass
class BroadcastResult:
    """Outcome of one broadcast run."""

    algorithm: str
    root: int
    size: int
    start: float
    recv_times: Dict[int, float] = field(default_factory=dict)
    sender_done: Optional[float] = None
    events: int = 0

    @property
    def jct(self) -> float:
        """Job completion time: last receiver's application-level done."""
        if not self.recv_times:
            raise ConfigurationError("broadcast produced no deliveries")
        return max(self.recv_times.values()) - self.start

    @property
    def min_recv_latency(self) -> float:
        return min(self.recv_times.values()) - self.start

    def goodput_gbps(self) -> float:
        """Application goodput seen by the slowest receiver."""
        return self.size * 8.0 / self.jct / 1e9

    def receiver_latency(self, ip: int) -> float:
        return self.recv_times[ip] - self.start


class BroadcastAlgorithm:
    """Base class: subclasses override ``_setup`` and ``_launch`` (and
    may extend ``_finish``)."""

    name = "abstract"

    def __init__(self, cluster: Cluster, members: List[int],
                 root: Optional[int] = None) -> None:
        if len(members) < 2:
            raise ConfigurationError("broadcast needs at least 2 members")
        self.cluster = cluster
        self.root = members[0] if root is None else root
        if self.root not in members:
            raise ConfigurationError(f"root {self.root} not in member list")
        # rank 0 is always the root; other ranks keep caller order.
        self.ranks: List[int] = [self.root] + [m for m in members if m != self.root]
        self._prepared = False

    # -- public API -------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed setup (idempotent)."""
        if not self._prepared:
            self._setup()
            self._prepared = True

    def run(self, size: int) -> BroadcastResult:
        """Broadcast ``size`` bytes from the root; returns timings."""
        self.prepare()
        sim = self.cluster.sim
        result = BroadcastResult(
            algorithm=self.name, root=self.root, size=size, start=sim.now,
        )
        ev0 = sim.events_run
        self._launch(size, result)
        sim.run()
        result.events = sim.events_run - ev0
        self._finish(result)
        return result

    # -- helpers for subclasses ------------------------------------------------------

    def _record_delivery(self, result: BroadcastResult, ip: int, now: float) -> None:
        """Receiver-side: add the app-level receive stack cost."""
        done = now + self.cluster.stack.recv
        prev = result.recv_times.get(ip)
        if prev is None or done > prev:
            result.recv_times[ip] = done

    @property
    def n(self) -> int:
        return len(self.ranks)

    # -- to override -----------------------------------------------------------------

    def _setup(self) -> None:
        raise NotImplementedError

    def _launch(self, size: int, result: BroadcastResult) -> None:
        raise NotImplementedError

    def _finish(self, result: BroadcastResult, excused=()) -> None:
        """After the drain: every receiver owed the message (all but
        ``excused``) must have it.  Subclasses extend this to
        post-process the result first."""
        missing = [ip for ip in self.ranks if ip != self.root
                   and ip not in result.recv_times and ip not in excused]
        if missing:
            raise ConfigurationError(
                f"{self.name}: receivers never completed: {missing}")
