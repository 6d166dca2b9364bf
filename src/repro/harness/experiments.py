"""One function per paper table/figure (§V), each returning an
:class:`~repro.harness.report.ExperimentResult`.

Every function takes a ``quick`` flag: ``quick=True`` shrinks sizes and
group scales so the whole registry runs in minutes; ``quick=False``
runs the paper-faithful parameters (used to produce EXPERIMENTS.md).  Scale substitutions are spelled out in each
docstring and in the result's ``notes``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import constants
from repro.analytic import NetModel, binomial_jct, cepheus_jct, chain_jct
from repro.apps import Cluster, HplConfig, HplModel, ReplicatedStore
from repro.collectives import (BinomialTreeBcast, CepheusBcast, ChainBcast,
                               RdmcBcast)
from repro.core.mft import Mft
from repro.harness.report import ExperimentResult, fmt_size
from repro.net.trace import ThroughputSampler

__all__ = [
    "fig8_bcast_small", "fig9_bcast_large", "rdmc_comparison",
    "tab1_storage_iops", "fig10_storage_latency", "fig11_hpl",
    "fig12_large_scale", "fig13_loss", "fig14_fairness", "fig7b_memory",
    "churn_membership", "srmc_scaling", "brokerfabric_slo", "mrc_fanin",
    "mrc_loss",
]

KB = 1 << 10
MB = 1 << 20


def _fresh_testbed(n: int = 4) -> Cluster:
    return Cluster.testbed(n)


# ---------------------------------------------------------------------------
# Fig. 8 — MPI-Bcast JCT, small messages, 4-host testbed
# ---------------------------------------------------------------------------

def fig8_bcast_small(quick: bool = True) -> ExperimentResult:
    """Cepheus vs BT vs Chain for 64 B - 64 KB (paper: 2.5-3.5x over BT,
    3-5.2x over Chain)."""
    sizes = [64, 1 * KB, 16 * KB, 64 * KB] if quick else \
        [64, 256, 1 * KB, 4 * KB, 16 * KB, 64 * KB]
    res = ExperimentResult(
        exp_id="fig8", title="MPI-Bcast JCT, small messages (testbed, 4 hosts)",
        headers=["size", "cepheus_us", "bt_us", "chain_us",
                 "speedup_vs_bt", "speedup_vs_chain"],
        paper_claim="Cepheus 2.5-3.5x faster than BT, 3-5.2x than Chain",
    )
    cl = _fresh_testbed(4)
    algos = {
        "cepheus": CepheusBcast(cl, cl.host_ips),
        "bt": BinomialTreeBcast(cl, cl.host_ips),
        "chain": ChainBcast(cl, cl.host_ips, slices=4),
    }
    for size in sizes:
        jct = {k: a.run(size).jct for k, a in algos.items()}
        res.rows.append({
            "size": fmt_size(size),
            "cepheus_us": jct["cepheus"] * 1e6,
            "bt_us": jct["bt"] * 1e6,
            "chain_us": jct["chain"] * 1e6,
            "speedup_vs_bt": jct["bt"] / jct["cepheus"],
            "speedup_vs_chain": jct["chain"] / jct["cepheus"],
        })
    return res


# ---------------------------------------------------------------------------
# Fig. 9 — MPI-Bcast JCT, large messages
# ---------------------------------------------------------------------------

def fig9_bcast_large(quick: bool = True) -> ExperimentResult:
    """Cepheus vs BT vs Chain for large messages (paper: 1.3-2.8x over
    Chain, 2-2.8x over BT).  Chain uses 4 slices (= #hosts), the paper's
    'common configuration'.

    Scale substitution: the paper sweeps to 512 MB; ``quick`` stops at
    64 MB (throughput ratios are size-stable there, full mode at 256 MB).
    """
    sizes = [1 * MB, 16 * MB, 64 * MB] if quick else \
        [1 * MB, 4 * MB, 16 * MB, 64 * MB, 256 * MB]
    res = ExperimentResult(
        exp_id="fig9", title="MPI-Bcast JCT, large messages (testbed, 4 hosts)",
        headers=["size", "cepheus_ms", "bt_ms", "chain_ms",
                 "speedup_vs_bt", "speedup_vs_chain"],
        paper_claim="Cepheus 2-2.8x over BT, 1.3-2.8x over Chain",
        notes="paper sweeps to 512MB; ratios saturate well below that",
    )
    cl = _fresh_testbed(4)
    algos = {
        "cepheus": CepheusBcast(cl, cl.host_ips),
        "bt": BinomialTreeBcast(cl, cl.host_ips),
        "chain": ChainBcast(cl, cl.host_ips, slices=4),
    }
    for size in sizes:
        jct = {k: a.run(size).jct for k, a in algos.items()}
        res.rows.append({
            "size": fmt_size(size),
            "cepheus_ms": jct["cepheus"] * 1e3,
            "bt_ms": jct["bt"] * 1e3,
            "chain_ms": jct["chain"] * 1e3,
            "speedup_vs_bt": jct["bt"] / jct["cepheus"],
            "speedup_vs_chain": jct["chain"] / jct["cepheus"],
        })
    return res


# ---------------------------------------------------------------------------
# §V-A text — RDMC comparison at 256 MB
# ---------------------------------------------------------------------------

def rdmc_comparison(quick: bool = True) -> ExperimentResult:
    """Paper: 256 MB broadcast, Cepheus 24.4 ms vs RDMC ~35 ms."""
    size = 64 * MB if quick else 256 * MB
    res = ExperimentResult(
        exp_id="rdmc", title=f"{fmt_size(size)} broadcast vs RDMC (4 hosts)",
        headers=["scheme", "jct_ms", "ratio_vs_cepheus"],
        paper_claim="256MB: Cepheus 24.4ms, RDMC ~35ms (1.43x)",
    )
    cl = _fresh_testbed(4)
    ce = CepheusBcast(cl, cl.host_ips).run(size).jct
    rd = RdmcBcast(cl, cl.host_ips).run(size).jct
    res.rows.append({"scheme": "cepheus", "jct_ms": ce * 1e3,
                     "ratio_vs_cepheus": 1.0})
    res.rows.append({"scheme": "rdmc", "jct_ms": rd * 1e3,
                     "ratio_vs_cepheus": rd / ce})
    return res


# ---------------------------------------------------------------------------
# Table I — replication writing throughput
# ---------------------------------------------------------------------------

def tab1_storage_iops(quick: bool = True) -> ExperimentResult:
    """8 KB replication IOPS (paper: 1-unicast 1.188 M, 3-unicasts
    0.413 M, Cepheus 1.167 M; Cepheus goodput 76.5 Gbps)."""
    n_ios = 5000 if quick else 40000
    res = ExperimentResult(
        exp_id="tab1", title="Replication writing throughput, 8KB IOs",
        headers=["scheme", "iops_M", "goodput_gbps"],
        paper_claim="1-unicast 1.188M / 3-unicasts 0.413M / Cepheus 1.167M IOPS",
    )
    for scheme, servers in (("unicast", [2]), ("multi-unicast", [2, 3, 4]),
                            ("cepheus", [2, 3, 4])):
        cl = _fresh_testbed(4)
        store = ReplicatedStore(cl, 1, servers, scheme)
        r = store.run_iops(8 * KB, n_ios=n_ios)
        label = {"unicast": "1-unicast", "multi-unicast": "3-unicasts",
                 "cepheus": "cepheus"}[scheme]
        res.rows.append({"scheme": label, "iops_M": r.iops / 1e6,
                         "goodput_gbps": r.goodput_gbps})
    return res


# ---------------------------------------------------------------------------
# Fig. 10 — single IO latency
# ---------------------------------------------------------------------------

def fig10_storage_latency(quick: bool = True) -> ExperimentResult:
    """Single-IO write latency vs IO size (paper: Cepheus -23 % @8 KB,
    -60 % @512 KB vs 3-unicasts; comparable to 1-unicast)."""
    sizes = [8 * KB, 64 * KB, 512 * KB] if quick else \
        [8 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB]
    res = ExperimentResult(
        exp_id="fig10", title="Single IO latency (three-replica write)",
        headers=["io_size", "unicast_us", "three_unicasts_us", "cepheus_us",
                 "reduction_vs_3uni"],
        paper_claim="-23% @8KB, -60% @512KB vs 3-unicasts; ~= 1-unicast",
    )
    for size in sizes:
        lat = {}
        for scheme, servers in (("unicast", [2]),
                                ("multi-unicast", [2, 3, 4]),
                                ("cepheus", [2, 3, 4])):
            cl = _fresh_testbed(4)
            lat[scheme] = ReplicatedStore(cl, 1, servers, scheme).run_latency(size)
        res.rows.append({
            "io_size": fmt_size(size),
            "unicast_us": lat["unicast"] * 1e6,
            "three_unicasts_us": lat["multi-unicast"] * 1e6,
            "cepheus_us": lat["cepheus"] * 1e6,
            "reduction_vs_3uni": 1 - lat["cepheus"] / lat["multi-unicast"],
        })
    return res


# ---------------------------------------------------------------------------
# Fig. 11 — HPL end-to-end + communication time
# ---------------------------------------------------------------------------

def fig11_hpl(quick: bool = True) -> ExperimentResult:
    """HPL JCT breakdown on 1x4 (PB) and 4x1 (RS) grids (paper: -12 %
    JCT / -67 % comm for PB; -4 % JCT / -18 % comm for RS).

    Both grids run the paper-scale N=8192 problem: the RS comparison is
    scale-sensitive (at small panels the DCQCN incast transient of the
    pre-multicast gather outweighs the multicast gain — an honest model
    finding recorded in EXPERIMENTS.md).
    """
    cfg = HplConfig(n=8192, nb=256)
    res = ExperimentResult(
        exp_id="fig11", title="HPL JCT and communication-time breakdown",
        headers=["experiment", "scheme", "total_s", "comm_s", "others_s",
                 "jct_reduction", "comm_reduction"],
        paper_claim="PB accel: JCT -12%, comm -67%; RS accel: JCT -4%, comm -18%",
    )

    def one(grid, kind: str, baseline_alg: str) -> None:
        out = {}
        for alg in (baseline_alg, "cepheus"):
            cl = _fresh_testbed(4)
            kwargs = {f"{kind}_algorithm": alg}
            out[alg] = HplModel(cl, grid, cfg, **kwargs).run()
        base, ceph = out[baseline_alg], out["cepheus"]
        for alg, r in out.items():
            res.rows.append({
                "experiment": f"{kind.upper()} ({r.grid})", "scheme": alg,
                "total_s": r.total, "comm_s": r.comm_time, "others_s": r.others,
                "jct_reduction": (1 - r.total / base.total) if alg != baseline_alg else 0.0,
                "comm_reduction": (1 - r.comm_time / base.comm_time) if alg != baseline_alg else 0.0,
            })

    one([[1, 2, 3, 4]], "pb", "increasing-ring")
    one([[1], [2], [3], [4]], "rs", "long")
    return res


# ---------------------------------------------------------------------------
# Fig. 12 — large-scale multicast FCT (simulation)
# ---------------------------------------------------------------------------

def fig12_large_scale(quick: bool = True) -> ExperimentResult:
    """FCT of a large multicast group over a 3-layer fat-tree.

    Paper: group 512 on a 1024-server fat-tree, 64 B - 1 GB; Cepheus up
    to 164x/4.5x faster than Chain/BT for short flows and 2.1x/8.9x for
    large flows.

    Scale substitution: packet level up to a size cap; the largest
    points use the validated closed-form models (marked ``analytic``).
    ``quick`` uses a 64-member group on a k=8 fat-tree.
    """
    if quick:
        k, group_size = 8, 64
        sizes = [64, 64 * KB, 1 * MB, 64 * MB, 1024 * MB]
        cap = 2 * MB
    else:
        k, group_size = 16, 512
        sizes = [64, 64 * KB, 1 * MB, 4 * MB, 64 * MB, 1024 * MB]
        cap = 4 * MB
    res = ExperimentResult(
        exp_id="fig12",
        title=f"{group_size}-member multicast FCT on a k={k} fat-tree",
        headers=["size", "mode", "cepheus", "bt", "chain",
                 "speedup_vs_bt", "speedup_vs_chain"],
        paper_claim="512-scale: up to 164x/4.5x (short, vs Chain/BT), "
                    "2.1x/8.9x (large)",
        notes=f"packet-level up to {fmt_size(cap)}, analytic beyond "
              "(models validated against the packet engine in tests)",
    )
    cl = Cluster.fat_tree_cluster(k)
    members = cl.host_ips[:group_size]
    # Chain slices follow the paper's "= #hosts" configuration, which
    # at large scale keeps Chain bandwidth-competitive (its large-flow
    # deficit is then the ~2x fill/drain cost, per the paper's 2.1x).
    algos = {
        "cepheus": CepheusBcast(cl, members),
        "bt": BinomialTreeBcast(cl, members),
        "chain": ChainBcast(cl, members, slices=group_size),
    }
    # Analytic counterparts share constants with the engine; the MDT of
    # a 3-layer fat-tree is at most 5 switch hops deep.
    net = NetModel(hops=5)
    models: Dict[str, Callable[..., float]] = {
        "cepheus": lambda s: cepheus_jct(s, group_size, net, mdt_depth=5),
        "bt": lambda s: binomial_jct(s, group_size, net),
        "chain": lambda s: chain_jct(s, group_size, net, slices=group_size),
    }
    for size in sizes:
        if size <= cap:
            jct = {k2: a.run(size).jct for k2, a in algos.items()}
            mode = "packet"
        else:
            jct = {k2: m(size) for k2, m in models.items()}
            mode = "analytic"
        res.rows.append({
            "size": fmt_size(size), "mode": mode,
            "cepheus": jct["cepheus"], "bt": jct["bt"], "chain": jct["chain"],
            "speedup_vs_bt": jct["bt"] / jct["cepheus"],
            "speedup_vs_chain": jct["chain"] / jct["cepheus"],
        })
    return res


# ---------------------------------------------------------------------------
# Fig. 13 — loss tolerance
# ---------------------------------------------------------------------------

def fig13_loss(quick: bool = True,
               setups: Optional[List[Tuple[int, int, int]]] = None,
               rates: Optional[List[float]] = None) -> ExperimentResult:
    """FCT and normalized throughput under random loss at the middle
    switches (paper: scales 64 & 512, 128 MB flows, loss 1e-8..1e-4;
    Cepheus beats Chain at scale 64 but degrades faster — go-back-N
    retransmits serve *all* receivers).

    Scale substitution: ``quick`` uses scales 16/64 with 4/8 MB flows
    (losses per flow kept comparable by the smaller packet count being
    offset by the higher tested rates); full mode runs 64-member groups
    with 32 MB flows.  ``setups`` entries are (fat-tree k, group size,
    flow bytes); both axes can be overridden for cheaper smoke runs.
    """
    if setups is None:
        if quick:
            setups = [(4, 16, 4 * MB), (8, 64, 8 * MB)]
        else:
            setups = [(8, 64, 32 * MB), (16, 512, 8 * MB)]
    if rates is None:
        # The extra 5e-4 point guarantees visible drops at quick-mode
        # flow sizes (at 1e-4 a lucky seed can see none).
        rates = ([0.0, 1e-6, 1e-5, 1e-4, 5e-4] if quick
                 else [0.0, 1e-8, 1e-6, 1e-5, 1e-4, 5e-4])
    res = ExperimentResult(
        exp_id="fig13", title="FCT and normalized throughput under packet loss",
        headers=["scale", "loss_rate", "scheme", "fct_ms", "norm_tput"],
        paper_claim="Cepheus keeps better FCT than Chain at scale 64; at "
                    "512/1e-4 go-back-N retransmission makes it worse",
    )
    for k, group_size, flow in setups:
        baselines: Dict[str, float] = {}
        for rate in rates:
            for scheme in ("cepheus", "chain"):
                cl = Cluster.fat_tree_cluster(k)
                cl.topo.set_loss_rate(rate, layers=("agg", "core"))
                members = cl.host_ips[:group_size]
                algo = (CepheusBcast(cl, members) if scheme == "cepheus"
                        else ChainBcast(cl, members, slices=group_size))
                fct = algo.run(flow).jct
                if rate == 0.0:
                    baselines[scheme] = fct
                res.rows.append({
                    "scale": group_size, "loss_rate": rate, "scheme": scheme,
                    "fct_ms": fct * 1e3,
                    "norm_tput": baselines[scheme] / fct,
                })
    return res


# ---------------------------------------------------------------------------
# Fig. 14 — fairness and convergence
# ---------------------------------------------------------------------------

def fig14_fairness(quick: bool = True) -> ExperimentResult:
    """Throughput dynamics of one multicast and two unicast flows with
    staggered starts (paper: fair sharing + adaptation to a new
    bottleneck after the first unicast flow ends)."""
    f1_bytes = (220 if quick else 400) * MB
    f2_bytes = (30 if quick else 60) * MB
    f3_bytes = (30 if quick else 60) * MB
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
    res = ExperimentResult(
        exp_id="fig14", title="Multicast vs unicast throughput dynamics",
        headers=["t_ms", "f1_gbps", "f2_gbps", "f3_gbps"],
        paper_claim="f1 grabs full bandwidth, converges to fair share with "
                    "f2, re-grabs, then re-converges with f3",
        notes="f1 sampled at the f2-bottleneck receiver; DCQCN converges "
              "over ~10ms windows",
    )
    a, b, c = s1.series_gbps(), s2.series_gbps(), s3.series_gbps()
    for i in range(max(len(a), len(b), len(c))):
        pick = lambda s: s[i] if i < len(s) else 0.0
        res.rows.append({"t_ms": i, "f1_gbps": pick(a), "f2_gbps": pick(b),
                         "f3_gbps": pick(c)})
    return res


# ---------------------------------------------------------------------------
# Fig. 7b — accelerator state memory (software analogue)
# ---------------------------------------------------------------------------

def fig7b_memory(quick: bool = True) -> ExperimentResult:
    """The FPGA-resource table has no software analogue; we reproduce
    the paper's scalability claim instead: 1 K groups cost <= 0.69 MB of
    MFT memory on a 64-port switch, independent of group size."""
    n_groups = 1024
    res = ExperimentResult(
        exp_id="fig7b", title="MFT memory model (64-port switch)",
        headers=["groups", "bytes_per_group", "total_MB", "paper_bound_MB"],
        paper_claim="1K MGs cost at most 0.69MB per switch",
    )
    full = Mft(constants.MCSTID_BASE, 64)
    from repro.core.mft import PathEntry
    for port in range(64):
        full.add_entry(PathEntry(port=port, is_host=(port % 2 == 0),
                                 dst_ip=port + 1, dst_qp=0x100 + port))
    per_group = full.memory_bytes()
    res.rows.append({
        "groups": n_groups, "bytes_per_group": per_group,
        "total_MB": per_group * n_groups / 1e6, "paper_bound_MB": 0.69,
    })
    return res


# ---------------------------------------------------------------------------
# Membership churn — incremental MRP deltas vs full registration
# ---------------------------------------------------------------------------

def churn_membership(quick: bool = True) -> ExperimentResult:
    """Dynamic group membership under churn (no paper figure; exercises
    the §III-C registration protocol's incremental extension).

    Seeded churn campaigns (joins of fresh hosts, voluntary leaves, a
    crashed receiver auto-pruned by the missed-feedback detector) on
    both topologies, reporting how many MRP records the deltas install
    compared to the initial full registration, and that exactly-once
    delivery and the protocol invariants hold across epochs.
    """
    from repro.harness.churn import CAMPAIGN, ChurnConfig

    trials = 2 if quick else 6
    res = ExperimentResult(
        exp_id="churn",
        title="Membership churn: incremental MRP deltas + failure pruning",
        headers=["topo", "members", "churn_events", "msgs_done",
                 "full_records", "delta_records_per_join", "removed_records",
                 "pruned", "violations", "failing_trials"],
        paper_claim="single-member deltas patch one branch (strictly fewer "
                    "MRP records than re-registration); a crashed receiver "
                    "is pruned without stalling in-flight transfers",
        notes=f"{trials} seeded trials per topology; deterministic",
    )
    for topo, hosts in (("star", 8), ("fat_tree", 8)):
        cfg = ChurnConfig(topo=topo, hosts=hosts, k=4)
        doc = CAMPAIGN.run(cfg, seed=11, trials=trials, shrink=False)
        recs = doc["records"]
        joins = sum(1 for r in recs
                    for e in r["schedule"]["events"] if e["kind"] == "join")
        res.rows.append({
            "topo": topo,
            "members": cfg.initial_members,
            "churn_events": sum(len(r["schedule"]["events"]) for r in recs),
            "msgs_done": sum(r["completed_messages"] for r in recs),
            "full_records": recs[0]["full_records"],
            "delta_records_per_join":
                sum(r["delta_records"] for r in recs) / max(1, joins),
            "removed_records": sum(r["removed_records"] for r in recs),
            "pruned": sum(len(r["pruned"]) for r in recs),
            "violations": sum(len(r["violations"]) for r in recs),
            "failing_trials": len(doc["failing_trials"]),
        })
    return res


# ---------------------------------------------------------------------------
# Broker fabric — open-loop pub/sub SLOs + membership-delta coalescing
# ---------------------------------------------------------------------------

def brokerfabric_slo(quick: bool = True) -> ExperimentResult:
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
    import random
    from dataclasses import replace as _replace

    from repro.apps.brokerfabric import (BrokerFabricConfig,
                                         generate_brokerfabric_schedule,
                                         run_brokerfabric_trial)

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
    schedule = generate_brokerfabric_schedule(cfg, random.Random(11))
    res = ExperimentResult(
        exp_id="brokerfabric",
        title="Broker-fabric pub/sub: open-loop SLO tail + delta coalescing",
        headers=["mode", "topics", "subscriptions", "published",
                 "deliveries", "p50_us", "p99_us", "p999_us",
                 "amplification", "membership_ops", "mrp_deltas",
                 "deltas_per_op", "failing"],
        paper_claim="per-topic MDT multicast holds the broker's delivery "
                    "amplification at ~1x under open-loop load and churn; "
                    "coalescing cuts MRP messages on the same op stream "
                    "without hurting the latency tail",
        notes=f"one seeded schedule x 2 control-plane modes; "
              f"coalesce window {window * 1e6:.0f}us; deterministic",
    )
    baseline_deltas = 0
    for mode, win in (("uncoalesced", None), ("coalesced", window)):
        rec = run_brokerfabric_trial(
            _replace(cfg, coalesce_window=win), schedule)
        if mode == "uncoalesced":
            baseline_deltas = rec["mrp_deltas_sent"]
        res.rows.append({
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
        })
    if baseline_deltas:
        saved = baseline_deltas - res.rows[-1]["mrp_deltas"]
        res.notes += (f"; coalescing saved {saved} of "
                      f"{baseline_deltas} MRP deltas")
    return res


# ---------------------------------------------------------------------------
# Source-routed multicast: switch-state scaling to 10^6 groups
# ---------------------------------------------------------------------------

def srmc_scaling(quick: bool = True) -> ExperimentResult:
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

    ``quick`` sweeps 10^3..1.6*10^4 groups; ``full`` reaches the 10^6
    headline scale.  The ``*_state_x`` columns are each backend's state
    growth relative to its own first row: mft tracks the group count
    while elmo/bert stay O(1).
    """
    from repro.core.source_routing import ScalingModel

    sizes = ([1_000, 4_000, 16_000] if quick
             else [1_000, 10_000, 100_000, 1_000_000])
    res = ExperimentResult(
        exp_id="srmc_scaling",
        title="Source-routed multicast: switch state vs group count",
        headers=["groups", "mft_state_bytes", "elmo_state_bytes",
                 "bert_state_bytes", "mft_state_x", "elmo_state_x",
                 "bert_state_x", "hdr_bytes_pkt", "overflow_pct",
                 "bert_shared_pct", "mft_ctrl_records", "elmo_ctrl_records",
                 "bert_ctrl_records", "elmo_redundant_ports",
                 "bert_redundant_ports"],
        paper_claim="per-group MFT state grows linearly with group count "
                    "while header-encoded trees keep switch state flat at "
                    "O(residual table); Bert aggregation additionally "
                    "shares rules across similar trees",
        notes="seeded analytic sweep on a k=8 fat-tree (128 hosts); "
              "deterministic; *_state_x normalised to each backend's "
              "first row",
    )
    model = ScalingModel()
    first: Dict[str, float] = {}
    for n in sizes:
        row = model.run(n, seed=7)
        for key in ("mft_state_bytes", "elmo_state_bytes",
                    "bert_state_bytes"):
            first.setdefault(key, float(row[key]) or 1.0)
        res.rows.append({
            "groups": n,
            "mft_state_bytes": row["mft_state_bytes"],
            "elmo_state_bytes": row["elmo_state_bytes"],
            "bert_state_bytes": row["bert_state_bytes"],
            "mft_state_x": round(row["mft_state_bytes"]
                                 / first["mft_state_bytes"], 3),
            "elmo_state_x": round(row["elmo_state_bytes"]
                                  / first["elmo_state_bytes"], 3),
            "bert_state_x": round(row["bert_state_bytes"]
                                  / first["bert_state_bytes"], 3),
            "hdr_bytes_pkt": row["hdr_bytes_pkt"],
            "overflow_pct": row["overflow_pct"],
            "bert_shared_pct": row["bert_shared_pct"],
            "mft_ctrl_records": row["mft_ctrl_records"],
            "elmo_ctrl_records": row["elmo_ctrl_records"],
            "bert_ctrl_records": row["bert_ctrl_records"],
            "elmo_redundant_ports": row["elmo_redundant_ports"],
            "bert_redundant_ports": row["bert_redundant_ports"],
        })
    return res


# ---------------------------------------------------------------------------
# MRC-style k-path spraying: lane-count sweep + failover recovery
# ---------------------------------------------------------------------------

def mrc_fanin(quick: bool = True) -> ExperimentResult:
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
    from repro.transport import RoceConfig

    sizes = [256 * KB, 1 * MB] if quick else [256 * KB, 1 * MB, 16 * MB]
    res = ExperimentResult(
        exp_id="mrc_fanin",
        title="MRC k-path spraying: JCT vs lane count (fat-tree k=8)",
        headers=["size", "k1_us", "k2_us", "k4_us", "k4_gleam_us",
                 "k4_vs_k1"],
        paper_claim="striping over k disjoint paths is JCT-neutral (the "
                    "sender NIC serializes every byte either way); the "
                    "lanes buy per-path failover, not bandwidth",
        notes="8 members on a 16-host fat-tree(8) slice; deterministic",
    )
    variants = {}
    for key, paths, roce in (("k1", 1, None), ("k2", 2, None),
                             ("k4", 4, None),
                             ("k4_gleam", 4, RoceConfig(cc="gleam"))):
        cl = Cluster.fat_tree_cluster(8, hosts_limit=16, roce_config=roce)
        variants[key] = CepheusBcast(cl, cl.topo.host_ips[:8], paths=paths)
    for size in sizes:
        jct = {k: a.run(size).jct for k, a in variants.items()}
        res.rows.append({
            "size": fmt_size(size),
            "k1_us": jct["k1"] * 1e6,
            "k2_us": jct["k2"] * 1e6,
            "k4_us": jct["k4"] * 1e6,
            "k4_gleam_us": jct["k4_gleam"] * 1e6,
            "k4_vs_k1": jct["k1"] / jct["k4"],
        })
    return res


def mrc_loss(quick: bool = True) -> ExperimentResult:
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
    from repro.core.accelerator import AcceleratorConfig
    from repro.net.failures import FailureInjector

    size = (1 * MB) if quick else (4 * MB)
    stall = 0.5e-3
    res = ExperimentResult(
        exp_id="mrc_loss",
        title="MRC lane failover: dead-path re-spray recovery (k=2)",
        headers=["deployment", "clean_us", "kill_us", "detect_us",
                 "recovery_us", "resprays", "survivor_retx", "delivered"],
        paper_claim="a dead path's share is re-sprayed on the survivors: "
                    "recovery ~= the detection timeout, the surviving "
                    "lane never retransmits (no group-wide go-back-N)",
        notes=f"{fmt_size(size)} broadcast, 6 members on fat-tree(4); "
              f"lane killed at +15us, stall_timeout {stall * 1e3:.1f}ms; "
              f"deterministic",
    )
    for deployment in ("inline", "lookaside", "source_routed"):
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
        res.rows.append({
            "deployment": deployment,
            "clean_us": clean.jct * 1e6,
            "kill_us": r.jct * 1e6,
            "detect_us": detect * 1e6,
            "recovery_us": r.jct * 1e6 - detect * 1e6,
            "resprays": algo.sprayer.resprays,
            "survivor_retx": survivor_retx,
            "delivered": len(r.recv_times),
        })
    return res
