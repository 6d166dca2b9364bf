"""Extension studies: registry experiments that are not paper figures.

They quantify what the paper states in prose or leaves as future work
— §V-C's IRN remedy, §VIII's many-to-one and collective compositions,
§II-A's mixed-traffic generality, §III-C's registration cost — declared
as grids of cells like :mod:`repro.harness.experiments`.
"""

from __future__ import annotations

from repro.apps import Cluster
from repro.collectives import (AllReduce, BinomialReduce, BinomialTreeBcast,
                               CepheusBcast, ChainBcast, InNetworkReduce)
from repro.harness.experiments import MB, Experiment, Row
from repro.harness.report import fmt_size
from repro.harness.workloads import (MIXED, MulticastWorkload, PoissonArrivals,
                                     nearest_rank)
from repro.net.telemetry import LatencyStats
from repro.transport import RoceConfig

__all__ = ["ext_allreduce", "ext_inreduce", "ext_irn", "ext_mixed",
           "ext_reg", "ext_workload"]


def _allreduce_cell(size: int) -> Row:
    row = {"size": fmt_size(size)}
    for strat, key in (("ps-cepheus", "ps_cepheus_ms"),
                       ("ps-binomial", "ps_binomial_ms"),
                       ("ps-multi-unicast", "ps_unicast_ms"),
                       ("ring", "ring_ms")):
        cl = Cluster.testbed(8)
        row[key] = AllReduce(cl, cl.host_ips, strat).run(size).total * 1e3
    return row


def ext_allreduce(quick: bool = True) -> Experiment:
    """§VIII compositions: Parameter-Server allreduce distributing over
    Cepheus vs the unicast-distribution PS baselines and ring allreduce."""
    grid = [4 * MB, 64 * MB, 256 * MB]
    return Experiment(
        "ext-allreduce", "PS allreduce with Cepheus distribution (8 nodes)",
        ["size", "ps_cepheus_ms", "ps_binomial_ms", "ps_unicast_ms",
         "ring_ms"],
        grid=grid, sample=grid[:2], cell=_allreduce_cell,
        paper_claim="§I: multicast accelerates PS parameter distribution "
                    "(extension, not a paper figure)",
    )


def _inreduce_cell(point) -> Row:
    fabric, size = point
    durations = []
    for engine in (InNetworkReduce, BinomialReduce):
        cl = (Cluster.testbed(8) if fabric == "star"
              else Cluster.fat_tree_cluster(4))
        durations.append(engine(cl, cl.host_ips[:8]).run(size).duration)
    in_network, binomial = durations
    return {"fabric": fabric, "size": fmt_size(size),
            "in_network_us": in_network * 1e6,
            "binomial_us": binomial * 1e6,
            "speedup": binomial / in_network}


def ext_inreduce(quick: bool = True) -> Experiment:
    """§VIII many-to-one: the reduce-mode MDT (contributions combine
    in-network) vs the host-level binomial reduce, star and fat-tree."""
    grid = [(fabric, size) for fabric in ("star", "fat-tree")
            for size in (64 * 1024, 8 * MB, 64 * MB)]
    return Experiment(
        "ext-inreduce",
        "In-network reduction vs host-level binomial (8 members)",
        ["fabric", "size", "in_network_us", "binomial_us", "speedup"],
        grid=grid, sample=[p for p in grid if p[1] <= 8 * MB],
        cell=_inreduce_cell,
        paper_claim="§VIII: 'extend Cepheus for ... many-to-one "
                    "(e.g., MPI-Reduce)' (extension, not a paper figure)",
    )


def _irn_cell(point) -> Row:
    mode, rate, size = point
    cl = Cluster.fat_tree_cluster(
        4, roce_config=RoceConfig(retransmit_mode=mode, rto=400e-6))
    cl.topo.set_loss_rate(rate, layers=("agg", "core"))
    algo = CepheusBcast(cl, cl.host_ips)
    r = algo.run(size)
    qp = algo.qps[algo.root]
    return {"mode": mode, "loss_rate": rate, "fct_ms": r.jct * 1e3,
            "goodput_gbps": r.goodput_gbps(),
            "retransmits": qp.retransmitted_packets,
            "timeouts": qp.timeouts}


def ext_irn(quick: bool = True) -> Experiment:
    """§V-C's remedy: the Fig. 13 loss sweep under go-back-N and under
    the transport's selective-repeat (IRN) mode."""
    size = (8 if quick else 32) * MB
    grid = [(mode, rate, size) for mode in ("gbn", "irn")
            for rate in (0.0, 1e-4, 1e-3, 5e-3, 1e-2)]
    return Experiment(
        "ext-irn",
        "Cepheus loss tolerance: go-back-N vs IRN (16 members, k=4)",
        ["mode", "loss_rate", "fct_ms", "goodput_gbps", "retransmits",
         "timeouts"],
        grid=grid, sample=[p for p in grid if p[1] in (0.0, 1e-3, 5e-3)],
        cell=_irn_cell,
        paper_claim="§V-C: IRN can substantially enhance Cepheus' "
                    "tolerance to higher loss rates",
    )


def _mixed_cell(point) -> Row:
    scenario, with_bulk, n_queries = point
    interval = 50e-6
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
    s = stats.summary()
    return {"scenario": scenario, "queries": s["count"],
            "p50_us": s["p50"] * 1e6, "p99_us": s["p99"] * 1e6,
            "max_us": s["max"] * 1e6}


def ext_mixed(quick: bool = True) -> Experiment:
    """§II-A generality: small-query latency to a receiver set with and
    without a concurrent bulk multicast to the same receivers (separate
    groups, so any inflation is fabric queueing, not QP blocking).
    """
    n = 150 if quick else 500
    return Experiment(
        "ext-mixed", "Small multicast queries under a bulk multicast stream",
        ["scenario", "queries", "p50_us", "p99_us", "max_us"],
        grid=[("queries-alone", False, n), ("with-bulk", True, n)],
        cell=_mixed_cell,
        paper_claim="§II-A: a general mechanism must serve large objects "
                    "and small queries together (extension study)",
        notes="separate groups isolate the QPs; residual inflation is "
              "DCQCN's queue operating point at the shared downlinks",
    )


def _reg_cell(n: int) -> Row:
    cl = Cluster.fat_tree_cluster(8)
    members = cl.host_ips[:n]
    qps = {ip: cl.ctx(ip).create_qp() for ip in members}
    group = cl.fabric.create_group(qps, leader_ip=members[0])
    t0 = cl.sim.now
    cl.fabric.register_sync(group)
    latency = cl.sim.now - t0
    mdt = list(cl.fabric.mdt_switches(group.mcst_id))
    return {
        "group_size": n,
        "reg_latency_us": latency * 1e6,
        "mdt_switches": len(mdt),
        "total_mft_bytes": sum(a.memory_bytes() for a in mdt),
        "max_entries_per_switch": max(
            len(a.mft_of(group.mcst_id).path_table) for a in mdt),
    }


def ext_reg(quick: bool = True) -> Experiment:
    """§III-C control plane: MRP registration latency, MDT footprint
    and per-switch Path Table occupancy vs group size."""
    grid = [4, 16, 64, 128]
    return Experiment(
        "ext-reg", "MRP registration cost vs group size (k=8 fat-tree)",
        ["group_size", "reg_latency_us", "mdt_switches",
         "total_mft_bytes", "max_entries_per_switch"],
        grid=grid, sample=grid[:3], cell=_reg_cell,
        paper_claim="registration is control-plane (out-of-band) and the "
                    "per-switch Path Table stays within the radix (§III-C/D)",
    )


def _workload_cell(point) -> Row:
    engine, kw, n = point
    workload = MulticastWorkload(MIXED, PoissonArrivals(2e4), n, seed=11)
    cl = Cluster.testbed(4)
    result = workload.run(cl, cl.host_ips, engine, **kw)
    small, large = result.small_large_split(64 << 10)
    return {
        "engine": result.engine,
        "small_p50_us": nearest_rank(small, 50) * 1e6,
        "small_p99_us": nearest_rank(small, 99) * 1e6,
        "large_p50_ms": nearest_rank(large, 50) * 1e3,
        "large_p99_ms": nearest_rank(large, 99) * 1e3,
    }


def ext_workload(quick: bool = True) -> Experiment:
    """§II-A size mix: one seeded Poisson, heavy-tailed workload replayed
    through Cepheus, Chain and BT; percentile FCTs split at 64 KB."""
    n = 60 if quick else 300
    return Experiment(
        "ext-workload",
        "Mixed-size multicast workload (Poisson, heavy-tailed sizes)",
        ["engine", "small_p50_us", "small_p99_us",
         "large_p50_ms", "large_p99_ms"],
        grid=[(CepheusBcast, {}, n), (ChainBcast, {"slices": 4}, n),
              (BinomialTreeBcast, {}, n)],
        cell=_workload_cell,
        paper_claim="§II-A: one general mechanism for queries and bulk; "
                    "overlays must pick per size (extension study)",
        notes="split at 64KB; same seeded schedule for every engine",
    )
