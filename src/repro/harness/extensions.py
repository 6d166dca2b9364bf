"""Extension studies: registry experiments that are not paper figures.

They quantify what the paper states in prose or leaves as future work
— §V-C's IRN remedy, §VIII's many-to-one and collective compositions,
§II-A's mixed-traffic generality, §III-C's registration cost — with
the same ``quick`` contract as :mod:`repro.harness.experiments`.
"""

from __future__ import annotations

from repro.apps import Cluster
from repro.collectives import (AllReduce, BinomialReduce, BinomialTreeBcast,
                               CepheusBcast, ChainBcast)
from repro.ext import InNetworkReduce
from repro.harness.report import ExperimentResult, fmt_size
from repro.harness.workloads import MIXED, MulticastWorkload, PoissonArrivals
from repro.net.telemetry import LatencyStats
from repro.transport import RoceConfig

__all__ = ["ext_allreduce", "ext_inreduce", "ext_irn", "ext_mixed",
           "ext_reg", "ext_workload"]

MB = 1 << 20


def ext_allreduce(quick: bool = True) -> ExperimentResult:
    """§VIII compositions: Parameter-Server allreduce distributing over
    Cepheus vs the unicast-distribution PS baselines and ring allreduce."""
    sizes = [4 * MB, 64 * MB] if quick else [4 * MB, 64 * MB, 256 * MB]
    res = ExperimentResult(
        exp_id="ext-allreduce",
        title="PS allreduce with Cepheus distribution (8 nodes)",
        headers=["size", "ps_cepheus_ms", "ps_binomial_ms",
                 "ps_unicast_ms", "ring_ms"],
        paper_claim="§I: multicast accelerates PS parameter distribution "
                    "(extension, not a paper figure)",
    )
    for size in sizes:
        row = {"size": fmt_size(size)}
        for strat, key in (("ps-cepheus", "ps_cepheus_ms"),
                           ("ps-binomial", "ps_binomial_ms"),
                           ("ps-multi-unicast", "ps_unicast_ms"),
                           ("ring", "ring_ms")):
            cl = Cluster.testbed(8)
            row[key] = AllReduce(cl, cl.host_ips, strat).run(size).total * 1e3
        res.rows.append(row)
    return res


def ext_inreduce(quick: bool = True) -> ExperimentResult:
    """§VIII many-to-one: the reduce-mode MDT (contributions combine
    in-network) vs the host-level binomial reduce, star and fat-tree."""
    sizes = [64 * 1024, 8 * MB] if quick else [64 * 1024, 8 * MB, 64 * MB]
    res = ExperimentResult(
        exp_id="ext-inreduce",
        title="In-network reduction vs host-level binomial (8 members)",
        headers=["fabric", "size", "in_network_us", "binomial_us", "speedup"],
        paper_claim="§VIII: 'extend Cepheus for ... many-to-one "
                    "(e.g., MPI-Reduce)' (extension, not a paper figure)",
    )
    for fabric, mk in (("star", lambda: Cluster.testbed(8)),
                       ("fat-tree", lambda: Cluster.fat_tree_cluster(4))):
        for size in sizes:
            cl = mk()
            inr = InNetworkReduce(cl, cl.host_ips[:8]).run(size)
            cl2 = mk()
            host = BinomialReduce(cl2, cl2.host_ips[:8]).run(size)
            res.rows.append({
                "fabric": fabric, "size": fmt_size(size),
                "in_network_us": inr.duration * 1e6,
                "binomial_us": host.duration * 1e6,
                "speedup": host.duration / inr.duration,
            })
    return res


def ext_irn(quick: bool = True) -> ExperimentResult:
    """§V-C's remedy: the Fig. 13 loss sweep under go-back-N and under
    the transport's selective-repeat (IRN) mode."""
    size = (8 if quick else 32) * MB
    rates = [0.0, 1e-3, 5e-3] if quick else [0.0, 1e-4, 1e-3, 5e-3, 1e-2]
    res = ExperimentResult(
        exp_id="ext-irn",
        title="Cepheus loss tolerance: go-back-N vs IRN (16 members, k=4)",
        headers=["mode", "loss_rate", "fct_ms", "goodput_gbps",
                 "retransmits", "timeouts"],
        paper_claim="§V-C: IRN can substantially enhance Cepheus' "
                    "tolerance to higher loss rates",
    )
    for mode in ("gbn", "irn"):
        for rate in rates:
            cl = Cluster.fat_tree_cluster(
                4, roce_config=RoceConfig(retransmit_mode=mode, rto=400e-6))
            cl.topo.set_loss_rate(rate, layers=("agg", "core"))
            algo = CepheusBcast(cl, cl.host_ips)
            r = algo.run(size)
            qp = algo.qps[algo.root]
            res.rows.append({
                "mode": mode, "loss_rate": rate,
                "fct_ms": r.jct * 1e3,
                "goodput_gbps": r.goodput_gbps(),
                "retransmits": qp.retransmitted_packets,
                "timeouts": qp.timeouts,
            })
    return res


def _query_latencies(with_bulk: bool, *, n_queries: int = 200,
                     interval: float = 50e-6) -> LatencyStats:
    cl = Cluster.testbed(8)
    sim = cl.sim
    members = [1, 2, 3, 4, 5]
    queries = CepheusBcast(cl, [6] + members[1:])  # same receivers, own group
    queries.prepare()
    bulk = CepheusBcast(cl, members)
    bulk.prepare()

    stats = LatencyStats()

    def on_query(ip: int, mid: int, sz: int, now: float, meta) -> None:
        # meta carries the post time; latency = slowest receiver's copy
        stats.record(now - meta)

    queries.on_delivery = on_query

    def post_query(i: int) -> None:
        if i >= n_queries:
            return
        queries.post(64, meta=sim.now)
        sim.schedule(interval, post_query, i + 1)

    if with_bulk:
        # back-to-back 8 MB objects for the whole experiment window
        def stream(_mid=None, _now=None) -> None:
            bulk.post(8 * MB, on_complete=stream)
        stream()
    sim.schedule(10e-6, post_query, 0)
    sim.run(until=n_queries * interval + 5e-3)
    if with_bulk:
        bulk.qps[1].abort_sends()
        sim.run()
    return stats


def ext_mixed(quick: bool = True) -> ExperimentResult:
    """§II-A generality: small-query latency to a receiver set with and
    without a concurrent bulk multicast to the same receivers (separate
    groups, so any inflation is fabric queueing, not QP blocking)."""
    res = ExperimentResult(
        exp_id="ext-mixed",
        title="Small multicast queries under a bulk multicast stream",
        headers=["scenario", "queries", "p50_us", "p99_us", "max_us"],
        paper_claim="§II-A: a general mechanism must serve large objects "
                    "and small queries together (extension study)",
        notes="separate groups isolate the QPs; residual inflation is "
              "DCQCN's queue operating point at the shared downlinks",
    )
    n = 150 if quick else 500
    for scenario, bulk in (("queries-alone", False), ("with-bulk", True)):
        stats = _query_latencies(bulk, n_queries=n)
        s = stats.summary()
        res.rows.append({
            "scenario": scenario, "queries": s["count"],
            "p50_us": s["p50"] * 1e6, "p99_us": s["p99"] * 1e6,
            "max_us": s["max"] * 1e6,
        })
    return res


def ext_reg(quick: bool = True) -> ExperimentResult:
    """§III-C control plane: MRP registration latency, MDT footprint
    and per-switch Path Table occupancy vs group size."""
    res = ExperimentResult(
        exp_id="ext-reg",
        title="MRP registration cost vs group size (k=8 fat-tree)",
        headers=["group_size", "reg_latency_us", "mdt_switches",
                 "total_mft_bytes", "max_entries_per_switch"],
        paper_claim="registration is control-plane (out-of-band) and the "
                    "per-switch Path Table stays within the radix (§III-C/D)",
    )
    sizes = [4, 16, 64] if quick else [4, 16, 64, 128]
    for n in sizes:
        cl = Cluster.fat_tree_cluster(8)
        members = cl.host_ips[:n]
        qps = {ip: cl.ctx(ip).create_qp() for ip in members}
        group = cl.fabric.create_group(qps, leader_ip=members[0])
        t0 = cl.sim.now
        cl.fabric.register_sync(group)
        latency = cl.sim.now - t0
        mdt = list(cl.fabric.mdt_switches(group.mcst_id))
        res.rows.append({
            "group_size": n,
            "reg_latency_us": latency * 1e6,
            "mdt_switches": len(mdt),
            "total_mft_bytes": sum(a.memory_bytes() for a in mdt),
            "max_entries_per_switch": max(
                len(a.mft_of(group.mcst_id).path_table) for a in mdt),
        })
    return res


def ext_workload(quick: bool = True) -> ExperimentResult:
    """§II-A size mix: one seeded Poisson, heavy-tailed workload replayed
    through Cepheus, Chain and BT; percentile FCTs split at 64 KB."""
    n = 60 if quick else 300
    res = ExperimentResult(
        exp_id="ext-workload",
        title="Mixed-size multicast workload (Poisson, heavy-tailed sizes)",
        headers=["engine", "small_p50_us", "small_p99_us",
                 "large_p50_ms", "large_p99_ms"],
        paper_claim="§II-A: one general mechanism for queries and bulk; "
                    "overlays must pick per size (extension study)",
        notes="split at 64KB; same seeded schedule for every engine",
    )
    workload = MulticastWorkload(MIXED, PoissonArrivals(2e4), n, seed=11)
    engines = [
        (CepheusBcast, {}),
        (ChainBcast, {"slices": 4}),
        (BinomialTreeBcast, {}),
    ]
    for cls, kw in engines:
        cl = Cluster.testbed(4)
        result = workload.run(cl, cl.host_ips, cls, **kw)
        small, large = result.small_large_split(64 << 10)

        def pct(values, p):
            if not values:
                return 0.0
            ordered = sorted(values)
            return ordered[min(len(ordered) - 1,
                               int(p / 100 * len(ordered)))]

        res.rows.append({
            "engine": result.engine,
            "small_p50_us": pct(small, 50) * 1e6,
            "small_p99_us": pct(small, 99) * 1e6,
            "large_p50_ms": pct(large, 50) * 1e3,
            "large_p99_ms": pct(large, 99) * 1e3,
        })
    return res
