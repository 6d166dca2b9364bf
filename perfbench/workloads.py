"""The five perfbench workloads.

Each workload has three phases, timed separately by ``run.py``:

* ``inputs(seed)`` — untimed; everything random is drawn here, so the
  program under test sees only generated inputs;
* ``setup(inputs)`` — timed as ``setup_s``: topology, QPs, group
  creation and MRP registration run to completion;
* ``run(state)`` — timed as ``wall_s``: the workload's fixed work,
  returning an :class:`Outcome` whose fields are all *simulated*
  quantities or counts (deterministic for fixed inputs).

One operation is one expected (message, receiver) delivery.  The sizes
frozen in :data:`WORKLOADS` are the benchmark; tests pass smaller ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Tuple

from repro.analytic import NetModel, cepheus_jct, chain_jct
from repro.apps.brokerfabric import (BrokerFabricConfig,
                                     generate_brokerfabric_schedule,
                                     run_brokerfabric_trial)
from repro.apps.cluster import Cluster
from repro.collectives import CepheusBcast, ChainBcast
from repro.errors import ConfigurationError
from repro.net.switch import SwitchConfig

MB = 1 << 20

#: Marks a simulated metric that does not exist on a workload (no
#: closed form under loss or churn); the result format needs a number.
NOT_APPLICABLE = -1.0


@dataclass
class Outcome:
    """What one repeat did, in simulated time and counts only."""

    attempted: int
    failed: int
    events: int
    sim_time_us: float        # mean simulated completion time of one job
    sim_p50_us: float         # per-operation delivery latency
    sim_tail_us: float        # ... at the highest percentile with >= 10
    sim_tail_pct: float       #     samples beyond it (99 when n >= 1000)
    latency_samples: int
    closed_form_us: float     # repro.analytic JCT, or NOT_APPLICABLE
    digest: str               # hash of every simulated observable
    events_checked: int = 0   # by an attached InvariantMonitor

    @property
    def analytic_err_frac(self) -> float:
        if self.closed_form_us == NOT_APPLICABLE:
            return NOT_APPLICABLE
        return abs(self.sim_time_us - self.closed_form_us) / self.closed_form_us


def digest(obj: Any) -> str:
    """Short stable hash of a JSON-able value."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()[:16]


def _percentiles(latencies_us: List[float]) -> Tuple[float, float, float]:
    """(p50, tail value, tail percentile): p99 needs 1000 samples; with
    fewer, the highest percentile that still has 10 samples beyond it."""
    ordered = sorted(latencies_us)
    n = len(ordered)
    if n >= 1000:
        idx, pct = math.ceil(0.99 * n) - 1, 99.0
    elif n > 10:
        idx = n - 11
        pct = 100.0 * (idx + 1) / n
    else:
        idx, pct = n - 1, 100.0
    return ordered[(n - 1) // 2], ordered[idx], pct


# ---------------------------------------------------------------------------
# closed-loop broadcasts (one message outstanding)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BcastWorkload:
    """``messages`` broadcasts of ``size`` bytes to a ``group``-member
    group on a k-ary fat-tree, one at a time."""

    name: str
    why: str
    algo: str                 # "cepheus" | "chain"
    messages: int
    size: int
    loss_rate: float = 0.0    # random DATA loss at agg+core switches
    cross_bytes: int = 0      # per message: two unicast flows this long
    k: int = 8
    group: int = 64
    #: Input patterns one seed yields.  The seed only reaches the
    #: switches' loss and ECN RNGs, so a lossless, uncongested workload
    #: has one pattern whatever the seed.
    patterns: int = 1

    def sizes(self) -> Dict[str, Any]:
        return {k: v for k, v in asdict(self).items()
                if k not in ("name", "why")}

    def inputs(self, seed: int) -> int:
        return seed           # feeds the switches' loss/ECN RNGs only

    def setup(self, seed: int):
        cluster = Cluster.fat_tree_cluster(
            self.k, switch_config=SwitchConfig(seed=seed))
        if self.loss_rate:
            cluster.topo.set_loss_rate(self.loss_rate, ("agg", "core"))
        members = cluster.host_ips[:self.group]
        if self.algo == "cepheus":
            algo = CepheusBcast(cluster, members)
        else:
            algo = ChainBcast(cluster, members, slices=self.group)
        algo.prepare()
        cross = []
        if self.cross_bytes:
            # Non-members sending into two receivers' downlinks.
            outsiders = cluster.host_ips[self.group:]
            targets = (members[self.group // 4], members[3 * self.group // 4])
            cross = [cluster.qp_to(src, dst)
                     for src, dst in zip(outsiders, targets)]
        return cluster, algo, cross

    def _receiver_qps(self, cluster: Cluster, algo) -> list:
        if self.algo == "cepheus":
            return [algo.qps[ip] for ip in algo.ranks[1:]]
        return [cluster.qp_to(ip, prev)
                for prev, ip in zip(algo.ranks, algo.ranks[1:])]

    def run(self, state) -> Outcome:
        cluster, algo, cross = state
        sim = cluster.sim
        receivers = len(algo.ranks) - 1
        ev0 = sim.events_run
        results = []
        broken = 0            # messages that never completed
        for _ in range(self.messages):
            for qp in cross:
                qp.post_send(self.cross_bytes)
            try:
                res = algo.run(self.size)
            except ConfigurationError:
                broken += 1   # some receiver never got it
                continue
            if self.algo == "cepheus" and res.sender_done is None:
                broken += 1   # the sender's completion never fired
                continue
            results.append(res)
        events = sim.events_run - ev0

        failed = broken * receivers
        if not broken:
            if not all(qp.send_idle for ctx in cluster.ctxs.values()
                       for qp in ctx.qps):
                failed = receivers          # the last message is stuck
            else:
                # Exactly once, at full size: a receiver's delivered byte
                # count is off if it saw a message twice, short, or never.
                want = self.messages * self.size
                failed = sum(
                    1 for qp in self._receiver_qps(cluster, algo)
                    if qp.recv.bytes_delivered != want)

        latencies = [(t - r.start) * 1e6
                     for r in results for t in r.recv_times.values()]
        if latencies:
            p50, tail, pct = _percentiles(latencies)
            jct = sum(r.jct for r in results) / len(results) * 1e6
        else:
            p50 = tail = pct = jct = 0.0
        net = NetModel(hops=5)    # a 3-layer fat-tree path
        if self.loss_rate or self.cross_bytes:
            closed = NOT_APPLICABLE
        elif self.algo == "cepheus":
            closed = cepheus_jct(self.size, self.group, net, mdt_depth=5) * 1e6
        else:
            closed = chain_jct(self.size, self.group, net,
                               slices=self.group) * 1e6
        sim_digest = digest({
            "events": events, "now": sim.now,
            "recv": [sorted(r.recv_times.items()) for r in results],
        })
        return Outcome(
            attempted=self.messages * receivers, failed=failed,
            events=events, sim_time_us=jct, sim_p50_us=p50,
            sim_tail_us=tail, sim_tail_pct=pct,
            latency_samples=len(latencies), closed_form_us=closed,
            digest=sim_digest)


# ---------------------------------------------------------------------------
# open-loop pub/sub with membership churn
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PubsubWorkload:
    """``run_brokerfabric_trial``: Poisson publishes over many topics,
    join/leave deltas mid-traffic, the InvariantMonitor attached."""

    name: str
    why: str
    cfg: BrokerFabricConfig
    publishes: int            # the fixed work: this many Poisson arrivals
    patterns: int = 2         # schedules one seed yields

    def sizes(self) -> Dict[str, Any]:
        return dict(self.cfg.to_dict(), publishes=self.publishes,
                    patterns=self.patterns)

    def inputs(self, seed: int):
        """The schedule up to its ``publishes``-th arrival.  The horizon
        is a window in which 1.5x that many are expected, so every repeat
        does the same number of publishes at Poisson-spaced instants."""
        schedule = generate_brokerfabric_schedule(
            self.cfg, random.Random(seed))
        ops = schedule.ops
        if len(ops.publishes) < self.publishes:
            raise ValueError(
                f"seed {seed} drew {len(ops.publishes)} publishes in the "
                f"horizon, fewer than the {self.publishes} the workload runs")
        end = ops.publishes[self.publishes - 1].at
        return replace(schedule, ops=replace(
            ops, publishes=ops.publishes[:self.publishes],
            churn=tuple(op for op in ops.churn if op.at <= end),
            cross=tuple(op for op in ops.cross if op.at <= end)))

    def setup(self, schedule):
        # The public call builds its own cluster, so its set-up cost is
        # the same call with the three op streams emptied.
        idle = replace(schedule, ops=replace(
            schedule.ops, publishes=(), churn=(), cross=()))
        run_brokerfabric_trial(self.cfg, idle)
        return schedule

    def run(self, schedule) -> Outcome:
        rec = run_brokerfabric_trial(self.cfg, schedule)
        lat = rec["latency_us"]
        # A publish completes only after every subscriber at that instant
        # acknowledged it (min-AckPSN aggregation), so with every publish
        # complete the deliveries seen are the deliveries expected; the
        # monitor checks each one is in order and exactly once.
        failed = (rec["published"] - rec["publish_done"]
                  + len(rec["violations"]) + len(rec["delta_failures"])
                  + len(rec["fallbacks"]) + len(rec["undrained_topics"]))
        if lat["count"] >= 1000:
            tail, pct = lat["p99"], 99.0
        else:
            tail, pct = lat["max"], 100.0
        return Outcome(
            attempted=rec["deliveries"] + failed, failed=failed,
            events=rec["events"], sim_time_us=lat["mean"],
            sim_p50_us=lat["p50"], sim_tail_us=tail, sim_tail_pct=pct,
            latency_samples=lat["count"], closed_form_us=NOT_APPLICABLE,
            digest=digest(rec), events_checked=rec["checked"])


# ---------------------------------------------------------------------------
# the benchmark: frozen sizes
# ---------------------------------------------------------------------------

WORKLOADS = (
    BcastWorkload(
        "mcast_bulk",
        "MTU-sized multicast fast path: MFT lookup, replicate, bridge; "
        "recovery and control plane idle (fig9/fig12)",
        algo="cepheus", messages=1, size=2 * MB),
    BcastWorkload(
        "mcast_small",
        "64 B messages: per-message and per-ACK costs paid 500x, payload "
        "bytes negligible (fig8 / Table 1 message rate)",
        algo="cepheus", messages=500, size=64),
    BcastWorkload(
        "amcast_chain",
        "the paper's unicast Chain baseline: bypasses the accelerator and "
        "feedback engine; RoCE, ports and the scheduler carry it",
        algo="chain", messages=1, size=2 * MB),
    BcastWorkload(
        "mcast_lossy",
        "mcast_bulk under 1e-3 loss plus unicast cross-flows: go-back-N, "
        "NACK aggregation, retransmit and CNP filters (fig13 x fig14)",
        algo="cepheus", messages=1, size=2 * MB,
        loss_rate=1e-3, cross_bytes=1 * MB, patterns=8),
    PubsubWorkload(
        "pubsub_churn",
        "open-loop Poisson publishes over 40 groups with join/leave deltas "
        "and the InvariantMonitor attached (bus live, pooling off)",
        BrokerFabricConfig(
            k=8, hosts=128, topics=40, min_subscribers=40,
            max_subscribers=40, msg_size=16384, publish_rate=1e5,
            churn_rate=2e4, cross_rate=2e3, horizon=0.0015, drain=0.02,
            coalesce_window=5e-4),
        publishes=100),
)

BY_NAME = {w.name: w for w in WORKLOADS}
