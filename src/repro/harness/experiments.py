"""One declaration per paper table/figure (§V), each a grid of
independent cells (:class:`Experiment`).

The grid lists the paper's parameter points; ``cell(point)`` measures
one on a cluster it builds itself; ``finish`` adds what spans rows.
The quick suite runs a declared ``sample`` of the grid.  Only the
declarations that substitute a smaller scale read ``quick``
(EXPERIMENTS.md's scale-substitution summary lists them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import constants
from repro.analytic import NetModel, binomial_jct, cepheus_jct, chain_jct
from repro.apps import Cluster, HplConfig, HplModel, ReplicatedStore
from repro.apps.brokerfabric import (BrokerFabricConfig,
                                     generate_brokerfabric_schedule,
                                     run_brokerfabric_trial)
from repro.collectives import (ALGORITHMS, BinomialTreeBcast, CepheusBcast,
                               ChainBcast, RdmcBcast)
from repro.core.accelerator import AcceleratorConfig
from repro.core.mft import Mft, PathEntry
from repro.core.source_routing import ScalingModel
from repro.errors import ConfigurationError
from repro.harness.report import ExperimentResult, fmt_size
from repro.net.failures import FailureInjector
from repro.net.trace import ThroughputSampler
from repro.transport import RoceConfig

__all__ = [
    "Experiment",
    "fig8_bcast_small", "fig9_bcast_large", "rdmc_comparison",
    "tab1_storage_iops", "fig10_storage_latency", "fig11_hpl",
    "fig12_large_scale", "fig13_loss", "fig14_fairness", "fig7b_memory",
    "churn_membership", "srmc_scaling", "brokerfabric_slo", "mrc_fanin",
    "mrc_loss", "broadcast_sweep",
]

KB = 1 << 10
MB = 1 << 20

Row = Dict[str, Any]


@dataclass(frozen=True)
class Experiment:
    """One table: a grid of points and the cell that measures one.
    A cell is a module-level function (a worker process receives it and
    its point by pickle), so any process may run any cell, in any
    order."""

    exp_id: str
    title: str
    headers: List[str]
    grid: Sequence[Any]
    cell: Callable[[Any], Row]
    #: The points the quick suite runs, a subset of ``grid``.
    sample: Optional[Sequence[Any]] = None
    #: Adds the columns (or notes) that span rows, in place.
    finish: Optional[Callable[[ExperimentResult], None]] = None
    paper_claim: str = ""
    notes: str = ""

    def points(self, quick: bool) -> Sequence[Any]:
        return self.sample if quick and self.sample is not None else self.grid

    def result(self, rows: List[Row]) -> ExperimentResult:
        """The table of ``rows``, given in grid order."""
        res = ExperimentResult(self.exp_id, self.title, list(self.headers),
                               rows, self.paper_claim, self.notes)
        if self.finish is not None:
            self.finish(res)
        return res


def _bcast_jcts(cl: Cluster, members: List[int],
                size: int) -> Dict[str, float]:
    """Cepheus, BT and Chain (one slice per member, the paper's common
    configuration) built on ``cl``, then each run once at ``size``."""
    algos = {
        "cepheus": CepheusBcast(cl, members),
        "bt": BinomialTreeBcast(cl, members),
        "chain": ChainBcast(cl, members, slices=len(members)),
    }
    return {k: a.run(size).jct for k, a in algos.items()}


def _jct_row(size: int, jct: Dict[str, float], unit: str, scale: float,
             **extra: Any) -> Row:
    row = {"size": fmt_size(size), **extra}
    for k, v in jct.items():
        row[k + unit] = v * scale
    row["speedup_vs_bt"] = jct["bt"] / jct["cepheus"]
    row["speedup_vs_chain"] = jct["chain"] / jct["cepheus"]
    return row


def _testbed_cell(size: int, unit: str, scale: float) -> Row:
    cl = Cluster.testbed(4)
    return _jct_row(size, _bcast_jcts(cl, cl.host_ips, size), unit, scale)


# ---------------------------------------------------------------------------
# Fig. 8 — MPI-Bcast JCT, small messages, 4-host testbed
# ---------------------------------------------------------------------------

def fig8_bcast_small(quick: bool = True) -> Experiment:
    """Cepheus vs BT vs Chain for 64 B - 64 KB (paper: 2.5-3.5x over BT,
    3-5.2x over Chain)."""
    return Experiment(
        "fig8", "MPI-Bcast JCT, small messages (testbed, 4 hosts)",
        ["size", "cepheus_us", "bt_us", "chain_us",
         "speedup_vs_bt", "speedup_vs_chain"],
        grid=[64, 256, 1 * KB, 4 * KB, 16 * KB, 64 * KB],
        sample=[64, 1 * KB, 16 * KB, 64 * KB],
        cell=partial(_testbed_cell, unit="_us", scale=1e6),
        paper_claim="Cepheus 2.5-3.5x faster than BT, 3-5.2x than Chain",
    )


# ---------------------------------------------------------------------------
# Fig. 9 — MPI-Bcast JCT, large messages
# ---------------------------------------------------------------------------

def fig9_bcast_large(quick: bool = True) -> Experiment:
    """Cepheus vs BT vs Chain for large messages (paper: 1.3-2.8x over
    Chain, 2-2.8x over BT).  Chain uses 4 slices (= #hosts), the paper's
    'common configuration'.

    The paper sweeps to 512 MB; the grid stops at 256 MB and the quick
    sample at 64 MB (throughput ratios are size-stable there).
    """
    return Experiment(
        "fig9", "MPI-Bcast JCT, large messages (testbed, 4 hosts)",
        ["size", "cepheus_ms", "bt_ms", "chain_ms",
         "speedup_vs_bt", "speedup_vs_chain"],
        grid=[1 * MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB],
        sample=[1 * MB, 16 * MB, 64 * MB],
        cell=partial(_testbed_cell, unit="_ms", scale=1e3),
        paper_claim="Cepheus 2-2.8x over BT, 1.3-2.8x over Chain",
        notes="paper sweeps to 512MB; ratios saturate well below that",
    )


# ---------------------------------------------------------------------------
# §V-A text — RDMC comparison at 256 MB
# ---------------------------------------------------------------------------

def _rdmc_cell(point) -> Row:
    scheme, size = point
    cl = Cluster.testbed(4)
    engine = CepheusBcast if scheme == "cepheus" else RdmcBcast
    return {"scheme": scheme,
            "jct_ms": engine(cl, cl.host_ips).run(size).jct * 1e3}


def _rdmc_finish(res: ExperimentResult) -> None:
    for row in res.rows:
        row["ratio_vs_cepheus"] = row["jct_ms"] / res.rows[0]["jct_ms"]


def rdmc_comparison(quick: bool = True) -> Experiment:
    """Paper: 256 MB broadcast, Cepheus 24.4 ms vs RDMC ~35 ms."""
    size = 64 * MB if quick else 256 * MB
    return Experiment(
        "rdmc", f"{fmt_size(size)} broadcast vs RDMC (4 hosts)",
        ["scheme", "jct_ms", "ratio_vs_cepheus"],
        grid=[("cepheus", size), ("rdmc", size)],
        cell=_rdmc_cell, finish=_rdmc_finish,
        paper_claim="256MB: Cepheus 24.4ms, RDMC ~35ms (1.43x)",
    )


# ---------------------------------------------------------------------------
# Table I — replication writing throughput
# ---------------------------------------------------------------------------

#: (label, scheme, replica servers) of the three replication writers.
_STORES = (("1-unicast", "unicast", [2]),
           ("3-unicasts", "multi-unicast", [2, 3, 4]),
           ("cepheus", "cepheus", [2, 3, 4]))


def _tab1_cell(point) -> Row:
    label, scheme, servers, n_ios = point
    store = ReplicatedStore(Cluster.testbed(4), 1, servers, scheme)
    r = store.run_iops(8 * KB, n_ios=n_ios)
    return {"scheme": label, "iops_M": r.iops / 1e6,
            "goodput_gbps": r.goodput_gbps}


def tab1_storage_iops(quick: bool = True) -> Experiment:
    """8 KB replication IOPS (paper: 1-unicast 1.188 M, 3-unicasts
    0.413 M, Cepheus 1.167 M; Cepheus goodput 76.5 Gbps)."""
    n_ios = 5000 if quick else 40000
    return Experiment(
        "tab1", "Replication writing throughput, 8KB IOs",
        ["scheme", "iops_M", "goodput_gbps"],
        grid=[store + (n_ios,) for store in _STORES],
        cell=_tab1_cell,
        paper_claim="1-unicast 1.188M / 3-unicasts 0.413M / Cepheus 1.167M IOPS",
    )


# ---------------------------------------------------------------------------
# Fig. 10 — single IO latency
# ---------------------------------------------------------------------------

def _fig10_cell(size: int) -> Row:
    lat = {scheme: ReplicatedStore(Cluster.testbed(4), 1, servers,
                                   scheme).run_latency(size)
           for _, scheme, servers in _STORES}
    return {
        "io_size": fmt_size(size),
        "unicast_us": lat["unicast"] * 1e6,
        "three_unicasts_us": lat["multi-unicast"] * 1e6,
        "cepheus_us": lat["cepheus"] * 1e6,
        "reduction_vs_3uni": 1 - lat["cepheus"] / lat["multi-unicast"],
    }


def fig10_storage_latency(quick: bool = True) -> Experiment:
    """Single-IO write latency vs IO size (paper: Cepheus -23 % @8 KB,
    -60 % @512 KB vs 3-unicasts; comparable to 1-unicast)."""
    return Experiment(
        "fig10", "Single IO latency (three-replica write)",
        ["io_size", "unicast_us", "three_unicasts_us", "cepheus_us",
         "reduction_vs_3uni"],
        grid=[8 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB],
        sample=[8 * KB, 64 * KB, 512 * KB],
        cell=_fig10_cell,
        paper_claim="-23% @8KB, -60% @512KB vs 3-unicasts; ~= 1-unicast",
    )


# ---------------------------------------------------------------------------
# Fig. 11 — HPL end-to-end + communication time
# ---------------------------------------------------------------------------

def _fig11_cell(point) -> Row:
    grid, kind, alg = point
    r = HplModel(Cluster.testbed(4), grid, HplConfig(n=8192, nb=256),
                 **{f"{kind}_algorithm": alg}).run()
    return {"experiment": f"{kind.upper()} ({r.grid})", "scheme": alg,
            "total_s": r.total, "comm_s": r.comm_time, "others_s": r.others}


def _fig11_finish(res: ExperimentResult) -> None:
    """Each grid's Cepheus row against the baseline row before it."""
    for base, ceph in zip(res.rows[::2], res.rows[1::2]):
        base["jct_reduction"] = base["comm_reduction"] = 0.0
        ceph["jct_reduction"] = 1 - ceph["total_s"] / base["total_s"]
        ceph["comm_reduction"] = 1 - ceph["comm_s"] / base["comm_s"]


def fig11_hpl(quick: bool = True) -> Experiment:
    """HPL JCT breakdown on 1x4 (PB) and 4x1 (RS) grids (paper: -12 %
    JCT / -67 % comm for PB; -4 % JCT / -18 % comm for RS).

    Both grids run the paper-scale N=8192 problem: the RS comparison is
    scale-sensitive (at small panels the DCQCN incast transient of the
    pre-multicast gather outweighs the multicast gain — an honest model
    finding recorded in EXPERIMENTS.md).
    """
    hpl = (([[1, 2, 3, 4]], "pb", "increasing-ring"),
           ([[1], [2], [3], [4]], "rs", "long"))
    return Experiment(
        "fig11", "HPL JCT and communication-time breakdown",
        ["experiment", "scheme", "total_s", "comm_s", "others_s",
         "jct_reduction", "comm_reduction"],
        grid=[(grid, kind, alg) for grid, kind, baseline in hpl
              for alg in (baseline, "cepheus")],
        cell=_fig11_cell, finish=_fig11_finish,
        paper_claim="PB accel: JCT -12%, comm -67%; RS accel: JCT -4%, comm -18%",
    )


# ---------------------------------------------------------------------------
# Fig. 12 — large-scale multicast FCT (simulation)
# ---------------------------------------------------------------------------

def _fig12_cell(point) -> Row:
    k, group_size, size, packet = point
    if packet:
        cl = Cluster.fat_tree_cluster(k)
        jct = _bcast_jcts(cl, cl.host_ips[:group_size], size)
    else:
        # Closed forms sharing the engine's constants; the MDT of a
        # 3-layer fat-tree is at most 5 switch hops deep.
        net = NetModel(hops=5)
        jct = {"cepheus": cepheus_jct(size, group_size, net, mdt_depth=5),
               "bt": binomial_jct(size, group_size, net),
               "chain": chain_jct(size, group_size, net, slices=group_size)}
    return _jct_row(size, jct, "", 1.0,
                    mode="packet" if packet else "analytic")


def fig12_large_scale(quick: bool = True) -> Experiment:
    """FCT of a large multicast group over a 3-layer fat-tree.

    Paper: group 512 on a 1024-server fat-tree, 64 B - 1 GB; Cepheus up
    to 164x/4.5x faster than Chain/BT for short flows and 2.1x/8.9x for
    large flows.  Chain slices follow the paper's "= #hosts"
    configuration, which at large scale keeps Chain bandwidth-competitive
    (its large-flow deficit is then the ~2x fill/drain cost, per the
    paper's 2.1x).

    Scale substitution: packet level up to a size cap; the largest
    points use the validated closed-form models (marked ``analytic``).
    ``quick`` uses a 64-member group on a k=8 fat-tree, a 2 MB cap, and
    samples every size but 4 MB.
    """
    k, group_size, cap = (8, 64, 2 * MB) if quick else (16, 512, 4 * MB)
    grid = [(k, group_size, size, size <= cap) for size in
            (64, 64 * KB, 1 * MB, 4 * MB, 64 * MB, 1024 * MB)]
    return Experiment(
        "fig12", f"{group_size}-member multicast FCT on a k={k} fat-tree",
        ["size", "mode", "cepheus", "bt", "chain",
         "speedup_vs_bt", "speedup_vs_chain"],
        grid=grid, sample=[p for p in grid if p[2] != 4 * MB],
        cell=_fig12_cell,
        paper_claim="512-scale: up to 164x/4.5x (short, vs Chain/BT), "
                    "2.1x/8.9x (large)",
        notes=f"packet-level up to {fmt_size(cap)}, analytic beyond "
              "(models validated against the packet engine in tests)",
    )


# ---------------------------------------------------------------------------
# Fig. 13 — loss tolerance
# ---------------------------------------------------------------------------

def _fig13_cell(point) -> Row:
    k, group_size, flow, rate, scheme = point
    cl = Cluster.fat_tree_cluster(k)
    cl.topo.set_loss_rate(rate, layers=("agg", "core"))
    members = cl.host_ips[:group_size]
    algo = (CepheusBcast(cl, members) if scheme == "cepheus"
            else ChainBcast(cl, members, slices=group_size))
    fct = algo.run(flow).jct
    # fct_s is the exact FCT ``finish`` normalises by; it leaves the row.
    return {"scale": group_size, "loss_rate": rate, "scheme": scheme,
            "fct_ms": fct * 1e3, "fct_s": fct}


def _fig13_finish(res: ExperimentResult) -> None:
    """Throughput normalised to the same scale and scheme's lossless
    row, the first of its setup."""
    lossless: Dict[Any, float] = {}
    for row in res.rows:
        fct = row.pop("fct_s")
        key = (row["scale"], row["scheme"])
        row["norm_tput"] = lossless.setdefault(key, fct) / fct


def fig13_loss(quick: bool = True) -> Experiment:
    """FCT and normalized throughput under random loss at the middle
    switches (paper: scales 64 & 512, 128 MB flows, loss 1e-8..1e-4;
    Cepheus beats Chain at scale 64 but degrades faster — go-back-N
    retransmits serve *all* receivers).

    Scale substitution: ``quick`` uses scales 16/64 with 4/8 MB flows
    (losses per flow kept comparable by the smaller packet count being
    offset by the higher tested rates) and samples every rate but 1e-8;
    full mode runs 64- and 512-member groups with 32 and 8 MB flows.
    The extra 5e-4 point guarantees visible drops at quick-mode flow
    sizes (at 1e-4 a lucky seed can see none).
    """
    setups = ([(4, 16, 4 * MB), (8, 64, 8 * MB)] if quick
              else [(8, 64, 32 * MB), (16, 512, 8 * MB)])
    grid = [(k, group_size, flow, rate, scheme)
            for k, group_size, flow in setups
            for rate in (0.0, 1e-8, 1e-6, 1e-5, 1e-4, 5e-4)
            for scheme in ("cepheus", "chain")]
    return Experiment(
        "fig13", "FCT and normalized throughput under packet loss",
        ["scale", "loss_rate", "scheme", "fct_ms", "norm_tput"],
        grid=grid, sample=[p for p in grid if p[3] != 1e-8],
        cell=_fig13_cell, finish=_fig13_finish,
        paper_claim="Cepheus keeps better FCT than Chain at scale 64; at "
                    "512/1e-4 go-back-N retransmission makes it worse",
    )


# ---------------------------------------------------------------------------
# Fig. 14 — fairness and convergence
# ---------------------------------------------------------------------------

def _fig14_cell(flows) -> Row:
    """The whole run, as columns: one entry per 1 ms bucket."""
    f1_bytes, f2_bytes, f3_bytes = flows
    t_f2, t_f3 = 3e-3, 13e-3
    cl = Cluster.fat_tree_cluster(4)  # exactly 16 hosts, like the paper's pick
    sim = cl.sim
    algo = CepheusBcast(cl, cl.host_ips)
    algo.prepare()
    s1 = ThroughputSampler(1e-3).attach(algo.qps[3])  # at f2's bottleneck
    q2 = cl.qp_to(2, 3)
    s2 = ThroughputSampler(1e-3).attach(cl.qp_to(3, 2))
    q4 = cl.qp_to(4, 5)
    s3 = ThroughputSampler(1e-3).attach(cl.qp_to(5, 4))
    algo.post(f1_bytes)
    sim.schedule(t_f2, lambda: q2.post_send(f2_bytes))
    sim.schedule(t_f3, lambda: q4.post_send(f3_bytes))
    sim.run()
    series = [s.series_gbps() for s in (s1, s2, s3)]
    n = max(map(len, series))
    f1, f2, f3 = (s + [0.0] * (n - len(s)) for s in series)
    return {"t_ms": list(range(n)), "f1_gbps": f1, "f2_gbps": f2,
            "f3_gbps": f3}


def _fig14_finish(res: ExperimentResult) -> None:
    """The one cell's columns, laid out one row per millisecond."""
    (columns,) = res.rows
    res.rows = [dict(zip(columns, values))
                for values in zip(*columns.values())]


def fig14_fairness(quick: bool = True) -> Experiment:
    """Throughput dynamics of one multicast and two unicast flows with
    staggered starts (paper: fair sharing + adaptation to a new
    bottleneck after the first unicast flow ends)."""
    flows = (220, 30, 30) if quick else (400, 60, 60)
    return Experiment(
        "fig14", "Multicast vs unicast throughput dynamics",
        ["t_ms", "f1_gbps", "f2_gbps", "f3_gbps"],
        grid=[tuple(f * MB for f in flows)],
        cell=_fig14_cell, finish=_fig14_finish,
        paper_claim="f1 grabs full bandwidth, converges to fair share with "
                    "f2, re-grabs, then re-converges with f3",
        notes="f1 sampled at the f2-bottleneck receiver; DCQCN converges "
              "over ~10ms windows",
    )


# ---------------------------------------------------------------------------
# Fig. 7b — accelerator state memory (software analogue)
# ---------------------------------------------------------------------------

def _fig7b_cell(n_groups: int) -> Row:
    full = Mft(constants.MCSTID_BASE, 64)
    for port in range(64):
        full.add_entry(PathEntry(port=port, is_host=(port % 2 == 0),
                                 dst_ip=port + 1, dst_qp=0x100 + port))
    per_group = full.memory_bytes()
    return {"groups": n_groups, "bytes_per_group": per_group,
            "total_MB": per_group * n_groups / 1e6, "paper_bound_MB": 0.69}


def fig7b_memory(quick: bool = True) -> Experiment:
    """The FPGA-resource table has no software analogue; we reproduce
    the paper's scalability claim instead: 1 K groups cost <= 0.69 MB of
    MFT memory on a 64-port switch, independent of group size."""
    return Experiment(
        "fig7b", "MFT memory model (64-port switch)",
        ["groups", "bytes_per_group", "total_MB", "paper_bound_MB"],
        grid=[1024], cell=_fig7b_cell,
        paper_claim="1K MGs cost at most 0.69MB per switch",
    )


# ---------------------------------------------------------------------------
# Membership churn — incremental MRP deltas vs full registration
# ---------------------------------------------------------------------------

def _churn_cell(point) -> Row:
    from repro.harness.fuzz import CAMPAIGN, CHURN

    topo, hosts, trials = point
    cfg = replace(CHURN, topo=topo, hosts=hosts, k=4)
    doc = CAMPAIGN.run(cfg, seed=11, trials=trials, shrink=False)
    recs = doc["records"]
    runs = [d for r in recs for d in r["deployments"]]
    ops = [e for r in recs for e in r["schedule"]["churn"]]
    joins = sum(1 for e in ops if e["kind"] == "join")
    return {
        "topo": topo,
        "members": cfg.initial_members,
        "churn_events": len(ops),
        "msgs_done": sum(d["completed"] for d in runs),
        "full_records": runs[0]["full_records"],
        "delta_records_per_join":
            sum(d["delta_records"] for d in runs) / max(1, joins),
        "removed_records": sum(d["removed_records"] for d in runs),
        "pruned": sum(len(d["pruned"]) for d in runs),
        "violations": sum(len(d["violations"]) for d in runs),
        "failing_trials": len(doc["failing_trials"]),
    }


def churn_membership(quick: bool = True) -> Experiment:
    """Dynamic group membership under churn (no paper figure; exercises
    the §III-C registration protocol's incremental extension).

    Seeded churn campaigns (joins of fresh hosts, voluntary leaves, a
    crashed receiver auto-pruned by the missed-feedback detector) on
    both topologies, reporting how many MRP records the deltas install
    compared to the initial full registration, and that exactly-once
    delivery and the protocol invariants hold across epochs.
    """
    trials = 2 if quick else 6
    return Experiment(
        "churn", "Membership churn: incremental MRP deltas + failure pruning",
        ["topo", "members", "churn_events", "msgs_done",
         "full_records", "delta_records_per_join", "removed_records",
         "pruned", "violations", "failing_trials"],
        grid=[("star", 8, trials), ("fat_tree", 8, trials)],
        cell=_churn_cell,
        paper_claim="single-member deltas patch one branch (strictly fewer "
                    "MRP records than re-registration); a crashed receiver "
                    "is pruned without stalling in-flight transfers",
        notes=f"{trials} seeded trials per topology (the fuzz campaign's "
              f"churn preset); deterministic",
    )


# ---------------------------------------------------------------------------
# Broker fabric — open-loop pub/sub SLOs + membership-delta coalescing
# ---------------------------------------------------------------------------

def _brokerfabric_cell(point) -> Row:
    mode, cfg, window = point
    schedule = generate_brokerfabric_schedule(cfg, random.Random(11))
    rec = run_brokerfabric_trial(replace(cfg, coalesce_window=window),
                                 schedule)
    return {
        "mode": mode,
        "topics": rec["topics"],
        "subscriptions": rec["initial_subscriptions"],
        "published": rec["published"],
        "deliveries": rec["deliveries"],
        "p50_us": rec["latency_us"]["p50"],
        "p99_us": rec["latency_us"]["p99"],
        "p999_us": rec["latency_us"]["p999"],
        "amplification": rec["amplification"],
        "membership_ops": rec["membership_ops"],
        "mrp_deltas": rec["mrp_deltas_sent"],
        "deltas_per_op": rec["deltas_per_op"],
        "failing": int(rec["failing"]),
    }


def _brokerfabric_finish(res: ExperimentResult) -> None:
    baseline_deltas = res.rows[0]["mrp_deltas"]
    if baseline_deltas:
        saved = baseline_deltas - res.rows[-1]["mrp_deltas"]
        res.notes += (f"; coalescing saved {saved} of "
                      f"{baseline_deltas} MRP deltas")


def brokerfabric_slo(quick: bool = True) -> Experiment:
    """Broker-fabric pub/sub under open-loop load (no paper figure;
    quantifies the §I pub/sub motivation as an SLO surface).

    One seeded schedule — Poisson publishes on Zipf-popular topics,
    continuous subscription churn, background unicast cross-traffic —
    replayed twice over per-topic MDT multicast groups: once with
    one-MRP-delta-per-membership-op (the baseline §III-C protocol) and
    once with per-window delta coalescing.  Reports the delivery-latency
    tail (p50/p99/p999), delivery amplification (broker egress bytes per
    payload byte; 1.0 is perfect multicast), control-plane overhead
    (MRP deltas per membership op), and the MRP-message reduction
    coalescing buys on the identical op stream.
    """
    if quick:
        cfg = BrokerFabricConfig(horizon=0.01)
        window = 500e-6
    else:
        cfg = BrokerFabricConfig(
            k=16, hosts=1024, topics=150,
            min_subscribers=500, max_subscribers=900,
            publish_rate=20_000.0, churn_rate=20_000.0,
            cross_rate=2_000.0, horizon=0.02, drain=0.04)
        window = 2e-3
    return Experiment(
        "brokerfabric",
        "Broker-fabric pub/sub: open-loop SLO tail + delta coalescing",
        ["mode", "topics", "subscriptions", "published",
         "deliveries", "p50_us", "p99_us", "p999_us",
         "amplification", "membership_ops", "mrp_deltas",
         "deltas_per_op", "failing"],
        grid=[("uncoalesced", cfg, None), ("coalesced", cfg, window)],
        cell=_brokerfabric_cell, finish=_brokerfabric_finish,
        paper_claim="per-topic MDT multicast holds the broker's delivery "
                    "amplification at ~1x under open-loop load and churn; "
                    "coalescing cuts MRP messages on the same op stream "
                    "without hurting the latency tail",
        notes=f"one seeded schedule x 2 control-plane modes; "
              f"coalesce window {window * 1e6:.0f}us; deterministic",
    )


# ---------------------------------------------------------------------------
# Source-routed multicast: switch-state scaling to 10^6 groups
# ---------------------------------------------------------------------------

_SRMC_STATE = ("mft_state_bytes", "elmo_state_bytes", "bert_state_bytes")


def _srmc_cell(n: int) -> Row:
    row = ScalingModel().run(n, seed=7)
    return {"groups": n, **{key: row[key] for key in _SRMC_STATE + (
        "hdr_bytes_pkt", "overflow_pct", "bert_shared_pct",
        "mft_ctrl_records", "elmo_ctrl_records", "bert_ctrl_records",
        "elmo_redundant_ports", "bert_redundant_ports")}}


def _srmc_finish(res: ExperimentResult) -> None:
    """Each backend's state growth relative to its own first row."""
    for key in _SRMC_STATE:
        first = float(res.rows[0][key]) or 1.0
        for row in res.rows:
            row[key.replace("_bytes", "_x")] = round(row[key] / first, 3)


def srmc_scaling(quick: bool = True) -> Experiment:
    """Switch-state scaling of the ``source_routed`` deployment (no paper
    figure; quantifies the Elmo/Bert trade-off behind §II's group-count
    motivation).

    A fixed k=8 fat-tree carries a churn-free population of groups drawn
    from a seeded small/large mix with pod locality.  Each group's
    distribution tree is compiled by the real header encoder
    (:mod:`repro.core.source_routing`) and charged to three backends:

    * **mft** — Cepheus-style per-group per-switch MFT entries: state and
      control-plane registration load grow linearly with group count.
    * **elmo** — source routing with a bounded residual rule table per
      switch; overflow groups past the cap share a default rule, so
      switch state plateaus at O(residual cap).
    * **bert** — same, plus tree aggregation: groups whose spilled rules
      have identical signatures share one table entry, cutting both the
      residual footprint and the default-rule redundancy.

    The grid reaches the 10^6 headline scale; the quick sample stops at
    1.6*10^4 groups.  The ``*_state_x`` columns are each backend's state
    growth relative to its own first row: mft tracks the group count
    while elmo/bert stay O(1).
    """
    return Experiment(
        "srmc_scaling",
        "Source-routed multicast: switch state vs group count",
        ["groups", "mft_state_bytes", "elmo_state_bytes",
         "bert_state_bytes", "mft_state_x", "elmo_state_x",
         "bert_state_x", "hdr_bytes_pkt", "overflow_pct",
         "bert_shared_pct", "mft_ctrl_records", "elmo_ctrl_records",
         "bert_ctrl_records", "elmo_redundant_ports",
         "bert_redundant_ports"],
        grid=[1_000, 4_000, 10_000, 16_000, 100_000, 1_000_000],
        sample=[1_000, 4_000, 16_000],
        cell=_srmc_cell, finish=_srmc_finish,
        paper_claim="per-group MFT state grows linearly with group count "
                    "while header-encoded trees keep switch state flat at "
                    "O(residual table); Bert aggregation additionally "
                    "shares rules across similar trees",
        notes="seeded analytic sweep on a k=8 fat-tree (128 hosts); "
              "deterministic; *_state_x normalised to each backend's "
              "first row",
    )


# ---------------------------------------------------------------------------
# MRC-style k-path spraying: lane-count sweep + failover recovery
# ---------------------------------------------------------------------------

def _mrc_fanin_cell(size: int) -> Row:
    variants = {}
    for key, paths, roce in (("k1", 1, None), ("k2", 2, None),
                             ("k4", 4, None),
                             ("k4_gleam", 4, RoceConfig(cc="gleam"))):
        cl = Cluster.fat_tree_cluster(8, hosts_limit=16, roce_config=roce)
        variants[key] = CepheusBcast(cl, cl.topo.host_ips[:8], paths=paths)
    jct = {k: a.run(size).jct for k, a in variants.items()}
    return {
        "size": fmt_size(size),
        "k1_us": jct["k1"] * 1e6,
        "k2_us": jct["k2"] * 1e6,
        "k4_us": jct["k4"] * 1e6,
        "k4_gleam_us": jct["k4_gleam"] * 1e6,
        "k4_vs_k1": jct["k1"] / jct["k4"],
    }


def mrc_fanin(quick: bool = True) -> Experiment:
    """k-path spraying JCT across lane counts, with the Gleam baseline
    (no paper figure; quantifies the MRC comparison point of §II-A).

    Broadcasts striped over k ∈ {1, 2, 4} lanes on a k=8 fat-tree
    (16-host slice: four edge-disjoint uplink stages, so all four lanes
    ride disjoint core paths).  The sender's single NIC link serializes
    every byte regardless of lane count, so spraying is JCT-neutral —
    the value of the lanes is the per-path failure domain measured by
    ``mrc_loss``, and this sweep pins that neutrality (within one MTU's
    worth of per-lane tail rounding).  The last column repeats k=4
    under Gleam AIMD congestion control instead of DCQCN: on an
    uncongested fabric both sit at line rate, so the baselines agree.
    """
    grid = [256 * KB, 1 * MB, 16 * MB]
    return Experiment(
        "mrc_fanin", "MRC k-path spraying: JCT vs lane count (fat-tree k=8)",
        ["size", "k1_us", "k2_us", "k4_us", "k4_gleam_us", "k4_vs_k1"],
        grid=grid, sample=grid[:2], cell=_mrc_fanin_cell,
        paper_claim="striping over k disjoint paths is JCT-neutral (the "
                    "sender NIC serializes every byte either way); the "
                    "lanes buy per-path failover, not bandwidth",
        notes="8 members on a 16-host fat-tree(8) slice; deterministic",
    )


def _mrc_loss_cell(point) -> Row:
    deployment, size, stall = point
    accel = AcceleratorConfig(deployment=deployment)
    cl = Cluster.fat_tree_cluster(4, accel_config=accel)
    members = cl.topo.host_ips[:6]
    clean = CepheusBcast(cl, members, paths=2,
                         lane_stall_timeout=stall).run(size)

    cl = Cluster.fat_tree_cluster(4, accel_config=accel)
    members = cl.topo.host_ips[:6]
    algo = CepheusBcast(cl, members, paths=2, lane_stall_timeout=stall)
    algo.prepare()
    injector = FailureInjector(cl.topo)
    sw, port = cl.topo.lane_uplinks(members[0], members, 2)[1]
    injector.fail_link(sw, port, at=cl.sim.now + 15e-6)
    r = algo.run(size)
    detect = algo.health.dead_events[0][1] - r.start
    survivor_retx = sum(
        algo.sprayer.lane_qps[lane].timeouts
        + algo.sprayer.lane_qps[lane].retransmitted_packets
        for lane in algo.sprayer.live_lanes)
    return {
        "deployment": deployment,
        "clean_us": clean.jct * 1e6,
        "kill_us": r.jct * 1e6,
        "detect_us": detect * 1e6,
        "recovery_us": r.jct * 1e6 - detect * 1e6,
        "resprays": algo.sprayer.resprays,
        "survivor_retx": survivor_retx,
        "delivered": len(r.recv_times),
    }


def mrc_loss(quick: bool = True) -> Experiment:
    """Lane failover: kill one of two lanes mid-transfer and measure
    recovery (no paper figure; the MRC-style per-path feedback claim).

    For every deployment, a 2-lane broadcast runs once clean and once
    with lane 1's exclusive uplink severed ~15 us into the transfer.
    The health monitor declares the lane dead after ``stall_timeout``
    (0.5 ms here) without acknowledgement progress and re-sprays its
    share over lane 0; the surviving lane's PSN stream never rewinds —
    zero timeouts and zero retransmitted packets on it — so recovery
    costs one detection timeout plus the re-sprayed share's
    serialization, not a group-wide go-back-N.
    """
    size = (1 * MB) if quick else (4 * MB)
    stall = 0.5e-3
    return Experiment(
        "mrc_loss", "MRC lane failover: dead-path re-spray recovery (k=2)",
        ["deployment", "clean_us", "kill_us", "detect_us",
         "recovery_us", "resprays", "survivor_retx", "delivered"],
        grid=[(deployment, size, stall) for deployment in
              ("inline", "lookaside", "source_routed")],
        cell=_mrc_loss_cell,
        paper_claim="a dead path's share is re-sprayed on the survivors: "
                    "recovery ~= the detection timeout, the surviving "
                    "lane never retransmits (no group-wide go-back-N)",
        notes=f"{fmt_size(size)} broadcast, 6 members on fat-tree(4); "
              f"lane killed at +15us, stall_timeout {stall * 1e3:.1f}ms; "
              f"deterministic",
    )


# ---------------------------------------------------------------------------
# A user-declared sweep (``cepheus-repro sweep``)
# ---------------------------------------------------------------------------

def _sweep_cell(point) -> Row:
    n, size, algorithms = point
    cl = Cluster.testbed(n)
    engines = {alg: ALGORITHMS[alg](cl, cl.host_ips) for alg in algorithms}
    return {"group": n, "size": fmt_size(size),
            **{f"{alg}_jct": e.run(size).jct for alg, e in engines.items()}}


def broadcast_sweep(sizes: List[int], groups: List[int],
                    algorithms: List[str]) -> Experiment:
    """Message sizes x group sizes, one cell per point: every named
    engine (:data:`repro.collectives.ALGORITHMS`) on one fresh testbed
    of that many hosts."""
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ConfigurationError(
            f"unknown algorithms {unknown}; have {sorted(ALGORITHMS)}")
    if not sizes or not groups:
        raise ConfigurationError("sweep axes must be non-empty")
    return Experiment(
        "sweep", "custom broadcast sweep",
        ["group", "size"] + [f"{a}_jct" for a in algorithms],
        grid=[(n, size, tuple(algorithms)) for n in groups for size in sizes],
        cell=_sweep_cell)
