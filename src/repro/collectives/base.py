"""The collective skeleton, and the broadcast framework on top of it.

Every collective — the broadcasts the paper evaluates (the AMcast
baselines Binomial Tree, Chain, increasing-ring, long, RDMC and
multi-unicast, and Cepheus itself), the §VIII reductions and the MPI
operations — runs through :class:`Collective`:

* the constructor validates the member list, once for all of them;
* :meth:`~Collective.prepare` performs the *untimed* setup (QP pair
  creation, MFT registration) and may advance the simulator; the paper
  likewise excludes connection establishment and registration from JCT.
* :meth:`~Collective.run` launches one operation of ``size`` bytes at
  the current virtual time, drains the simulator, and returns its
  result; :meth:`~Collective._finish` is the one place a drain that
  ended incomplete raises :class:`~repro.errors.StallError`.

A broadcast (:class:`BroadcastAlgorithm`) returns a
:class:`BroadcastResult` with per-receiver delivery times; every other
collective completes once and returns a :class:`CollectiveResult`.

JCT (the paper's MPI-Bcast metric) is the time from the root's post to
the moment the *last* receiver's application has the data, including
the end-host stack costs on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.cluster import Cluster
from repro.errors import ConfigurationError, StallError

__all__ = ["Collective", "CollectiveResult", "BroadcastResult",
           "BroadcastAlgorithm"]


@dataclass
class CollectiveResult:
    """Outcome of one single-completion collective (a reduction or an
    MPI operation): it finished at ``done``."""

    algorithm: str
    root: int
    size: int            # per-rank payload bytes
    start: float
    engine: str = "host"
    done: Optional[float] = None
    rounds: int = 0
    combines: int = 0
    members_completed: int = 0
    events: int = 0

    @property
    def duration(self) -> float:
        return self.done - self.start


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


class Collective:
    """Base class: subclasses override ``_launch`` (and ``_setup`` when
    they have untimed setup), and may extend ``_finish``."""

    name = "abstract"
    engine = "host"

    def __init__(self, cluster: Cluster, members: List[int],
                 root: Optional[int] = None) -> None:
        if len(members) < 2:
            raise ConfigurationError(f"{self.name} needs at least 2 members")
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

    def run(self, size: int):
        """Run the collective on ``size`` bytes; returns timings."""
        self.prepare()
        sim = self.cluster.sim
        result = self._new_result(size, sim.now)
        ev0 = sim.events_run
        self._launch(size, result)
        sim.run()
        result.events = sim.events_run - ev0
        self._finish(result)
        return result

    @property
    def n(self) -> int:
        return len(self.ranks)

    # -- to override -----------------------------------------------------------------

    def _new_result(self, size: int, start: float):
        return CollectiveResult(self.name, self.root, size, start, self.engine)

    def _setup(self) -> None:
        pass

    def _launch(self, size: int, result) -> None:
        raise NotImplementedError

    def _missing(self, result, excused):
        """What a drained run still owes; falsy once it is complete."""
        return "run" if result.done is None else None

    def _finish(self, result, excused=()) -> None:
        """After the drain: everything owed (bar ``excused``) must have
        completed.  Subclasses extend this to post-process the result
        first."""
        missing = self._missing(result, excused)
        if missing:
            raise StallError(f"{self.name}: {missing} never completed")


class BroadcastAlgorithm(Collective):
    """A broadcast: every receiver is owed the root's message, and each
    delivery is timed."""

    def _new_result(self, size: int, start: float) -> BroadcastResult:
        return BroadcastResult(self.name, self.root, size, start)

    def _record_delivery(self, result: BroadcastResult, ip: int, now: float) -> None:
        """Receiver-side: add the app-level receive stack cost."""
        done = now + self.cluster.stack.recv
        prev = result.recv_times.get(ip)
        if prev is None or done > prev:
            result.recv_times[ip] = done

    def _missing(self, result: BroadcastResult, excused):
        missing = [ip for ip in self.ranks if ip != self.root
                   and ip not in result.recv_times and ip not in excused]
        return missing and f"receivers {missing}"
