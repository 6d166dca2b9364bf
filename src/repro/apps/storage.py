"""Distributed-storage data replication (§V-B1, Table I, Fig. 10).

The paper integrates Cepheus into a proprietary storage system to speed
up *three-replica writing*.  The measured facts it reports:

* sustained 8 KB writes bottleneck in the client's **storage protocol
  stack**, not the network (1-unicast tops out near 1.19 M IOPS on a
  100 G link that could carry ~1.5 M);
* 3-unicasts runs the submission path three times per IO and sinks to
  0.413 M IOPS;
* Cepheus submits once per IO and lands within ~2 % of 1-unicast.

We therefore model the client stack explicitly: a single submission
pipeline that spends :data:`~repro.constants.STORAGE_STACK_PER_IO_S`
of CPU per posted *copy*, a configurable queue depth, and RDMA WRITE
data movement over the simulated fabric.  Single-IO latency (Fig. 10)
is the same machinery with queue depth 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import constants
from repro.apps.cluster import Cluster
from repro.errors import ConfigurationError, StallError
from repro.transport.memory import MemoryRegion
from repro.transport.roce import RoceQP

__all__ = ["StorageConfig", "IopsResult", "ReplicatedStore"]

#: Arena each storage server registers for incoming replicas.
_ARENA_BYTES = 1 << 30
#: Reaping one CQE in the storage stack.
_COMPLETION_COST = 0.14e-6


@dataclass
class StorageConfig:
    """Client/servers cost model."""

    queue_depth: int = constants.STORAGE_QUEUE_DEPTH


@dataclass
class IopsResult:
    """Outcome of a sustained-write measurement."""

    scheme: str
    io_size: int
    ios_completed: int
    duration: float

    @property
    def iops(self) -> float:
        return self.ios_completed / self.duration

    @property
    def goodput_gbps(self) -> float:
        return self.ios_completed * self.io_size * 8.0 / self.duration / 1e9


class ReplicatedStore:
    """One client writing replicas to N storage servers.

    ``scheme`` is one of:

    * ``"unicast"`` — one-to-one writing to the first server (the
      Table I ideal-baseline reference);
    * ``"multi-unicast"`` — the default N-unicasts replication;
    * ``"cepheus"`` — multicast WRITE through the MDT (MR info is
      registered into the MFT so leaf switches rewrite the RETH).
    """

    SCHEMES = ("unicast", "multi-unicast", "cepheus")

    def __init__(self, cluster: Cluster, client_ip: int,
                 server_ips: List[int], scheme: str,
                 config: Optional[StorageConfig] = None) -> None:
        if scheme not in self.SCHEMES:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        if client_ip in server_ips:
            raise ConfigurationError("client cannot also be a server")
        if not server_ips:
            raise ConfigurationError("need at least one server")
        self.cluster = cluster
        self.client_ip = client_ip
        self.server_ips = list(server_ips)
        self.scheme = scheme
        self.cfg = config or StorageConfig()
        self._prepared = False
        self._server_mrs: Dict[int, MemoryRegion] = {}
        self._client_qps: Dict[int, RoceQP] = {}
        self._mcast_qp: Optional[RoceQP] = None

    # -- setup ------------------------------------------------------------------

    def prepare(self) -> None:
        if self._prepared:
            return
        for ip in self.server_ips:
            self._server_mrs[ip] = self.cluster.ctx(ip).reg_mr(_ARENA_BYTES)
        if self.scheme == "cepheus":
            self._prepare_cepheus()
        else:
            targets = (self.server_ips[:1] if self.scheme == "unicast"
                       else self.server_ips)
            for ip in targets:
                self._client_qps[ip] = self.cluster.qp_to(self.client_ip, ip)
        self._prepared = True

    def _prepare_cepheus(self) -> None:
        fabric = self.cluster.fabric
        if fabric is None:
            raise ConfigurationError("cepheus scheme needs an accelerated fabric")
        qps = {ip: self.cluster.ctx(ip).create_qp()
               for ip in [self.client_ip] + self.server_ips}
        mr_info = {ip: (mr.addr, mr.rkey) for ip, mr in self._server_mrs.items()}
        group = fabric.create_group(qps, leader_ip=self.client_ip,
                                    mr_info=mr_info)
        fabric.register_sync(group)
        self._mcast_qp = qps[self.client_ip]

    @property
    def copies_per_io(self) -> int:
        """Submission-path traversals per application IO."""
        if self.scheme == "multi-unicast":
            return len(self.server_ips)
        return 1

    # -- one IO -------------------------------------------------------------------

    def _post_io(self, io_size: int, on_complete) -> None:
        """Post the WRITE(s) of one IO; ``on_complete(now)`` fires when
        every replica of this IO is acknowledged."""
        if self.scheme == "cepheus":
            # One message; the aggregated ACK covers all replicas.
            self._mcast_qp.post_write(
                io_size, vaddr=0, rkey=0,
                on_complete=lambda mid, now: on_complete(now))
            return
        pending = {"n": len(self._client_qps)}

        def one_done(mid: int, now: float) -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                on_complete(now)

        for ip, qp in self._client_qps.items():
            mr = self._server_mrs[ip]
            qp.post_write(io_size, vaddr=mr.addr, rkey=mr.rkey,
                          on_complete=one_done)

    # -- sustained writing (Table I) --------------------------------------------------

    def run_iops(self, io_size: int = 8192, n_ios: int = 20000) -> IopsResult:
        """Keep ``queue_depth`` IOs in flight until ``n_ios`` complete."""
        self.prepare()
        sim = self.cluster.sim
        state = {
            "submitted": 0, "completed": 0, "outstanding": 0,
            "cpu_free": sim.now, "t0": sim.now, "t_end": sim.now,
        }
        cost = constants.STORAGE_STACK_PER_IO_S * self.copies_per_io

        def try_submit() -> None:
            while (state["submitted"] < n_ios
                   and state["outstanding"] < self.cfg.queue_depth):
                state["submitted"] += 1
                state["outstanding"] += 1
                # The client CPU serializes submissions.
                start = max(sim.now, state["cpu_free"]) + cost
                state["cpu_free"] = start
                sim.schedule(start - sim.now, self._post_io, io_size, io_done)

        def io_done(now: float) -> None:
            state["completed"] += 1
            state["outstanding"] -= 1
            # Completion reap also consumes the submission CPU.
            state["cpu_free"] = max(state["cpu_free"], now) + \
                _COMPLETION_COST * self.copies_per_io
            state["t_end"] = now
            try_submit()

        try_submit()
        sim.run()
        if state["completed"] != n_ios:
            raise StallError(
                f"storage run stalled at {state['completed']}/{n_ios} IOs")
        return IopsResult(self.scheme, io_size, n_ios,
                          state["t_end"] - state["t0"])

    # -- single-IO latency (Fig. 10) ------------------------------------------------------

    def run_latency(self, io_size: int, samples: int = 8) -> float:
        """Mean end-to-end latency of one IO at queue depth 1: submit ->
        all replicas acked -> completion notice reaped."""
        self.prepare()
        sim = self.cluster.sim
        total = 0.0
        for _ in range(samples):
            t0 = sim.now
            done = {}
            cost = constants.STORAGE_STACK_PER_IO_S * self.copies_per_io
            sim.schedule(cost, self._post_io, io_size,
                         lambda now: done.setdefault("t", now))
            sim.run()
            total += (done["t"] + _COMPLETION_COST) - t0
        return total / samples
