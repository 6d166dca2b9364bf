"""Ablations of the design choices §III-D calls out.

Each function disables exactly one Cepheus mechanism and measures the
symptom the paper predicts:

* no ACK trigger condition  -> ACK explosion at the sender;
* no NACK MePSN rule        -> inter-covering: losses survive to the app
  only via the slow safeguard timeout (inflated FCT under loss);
* no CNP filtering          -> CNP magnification: the sender sees a
  multiplied congestion signal and under-utilizes the fabric;
* no retransmission filter  -> duplicate retransmits burn downstream
  bandwidth (receivers see duplicates the RNIC must discard);
* per-receiver (flat) state -> memory grows linearly with group size
  instead of being bounded by the port count.
"""

from __future__ import annotations

from typing import Optional

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.core.accelerator import AcceleratorConfig
from repro.core.feedback import FeedbackConfig
from repro.harness.report import ExperimentResult

__all__ = ["ablation_ack_trigger", "ablation_nack_rule",
           "ablation_cnp_filter", "ablation_retransmit_filter",
           "ablation_state_memory", "ablation_deployment"]

MB = 1 << 20


def _run_bcast(n_hosts: int, size: int, *, loss: float = 0.0,
               feedback: Optional[FeedbackConfig] = None,
               retransmit_filter: bool = True,
               fat_tree: bool = False):
    """One Cepheus broadcast with a custom accelerator config; returns
    (result, algo, cluster).

    Loss-sensitive ablations use a fat-tree with loss injected at the
    middle switches so different MDT branches lose *different* packets
    (in a star the drop happens before replication and every receiver
    loses the same PSN, which hides both the retransmission filter and
    the inter-covering hazard).
    """
    accel = AcceleratorConfig(retransmit_filter=retransmit_filter,
                              feedback=feedback)
    if fat_tree:
        cl = Cluster.fat_tree_cluster(4, accel_config=accel)
        members = cl.host_ips[:n_hosts]
    else:
        cl = Cluster.testbed(n_hosts, accel_config=accel)
        members = cl.host_ips
    if loss:
        cl.topo.set_loss_rate(loss)
    algo = CepheusBcast(cl, members)
    result = algo.run(size)
    return result, algo, cl


def ablation_ack_trigger(quick: bool = True) -> ExperimentResult:
    """Trigger condition on/off: ACKs arriving at the sender."""
    size = (8 if quick else 64) * MB
    res = ExperimentResult(
        exp_id="abl-ack", title="ACK trigger condition (anti ACK-explosion)",
        headers=["variant", "sender_acks", "jct_ms", "acks_per_mb"],
        paper_claim="the Trigger Condition reduces ACKs to the sender, "
                    "mitigating the ACK exploding issue",
    )
    for variant, trig in (("with-trigger", True), ("no-trigger", False)):
        r, algo, _ = _run_bcast(
            8, size, feedback=FeedbackConfig(trigger_condition=trig))
        acks = algo.qps[algo.root].acks_received
        res.rows.append({"variant": variant, "sender_acks": acks,
                         "jct_ms": r.jct * 1e3,
                         "acks_per_mb": acks / (size / MB)})
    return res


def ablation_nack_rule(quick: bool = True) -> ExperimentResult:
    """MePSN rule on/off under branch-divergent loss.

    Without the rule, a later NACK's implicit cumulative ACK covers an
    earlier loss on another branch: the sender reaps those WQEs, never
    retransmits the missing PSN, and the affected receivers stall
    *forever* (go-back-N restarts from the falsely-advanced snd_una).
    The run is therefore time-capped and we report how many receivers
    actually finished.
    """
    size = (4 if quick else 16) * MB
    cap = 60e-3
    res = ExperimentResult(
        exp_id="abl-nack", title="NACK aggregation (anti inter-covering)",
        headers=["variant", "receivers_done", "receivers_total",
                 "delivered_frac_min"],
        paper_claim="without the MePSN rule a later NACK covers an earlier "
                    "loss; the sender never retransmits it (§III-D)",
    )
    for variant, nack in (("with-mepsn", True), ("no-mepsn", False)):
        accel = AcceleratorConfig(
            feedback=FeedbackConfig(nack_aggregation=nack))
        cl = Cluster.fat_tree_cluster(4, accel_config=accel)
        cl.topo.set_loss_rate(8e-3)
        members = cl.host_ips[:8]
        algo = CepheusBcast(cl, members)
        algo.post(size)
        cl.sim.run(until=cap)
        finished = sum(
            1 for ip in members[1:]
            if algo.qps[ip].recv.bytes_delivered >= size)
        mtu = algo.qps[algo.root].cfg.mtu
        min_frac = min(
            min(algo.qps[ip].rq_psn * mtu / size, 1.0)
            for ip in members[1:])
        # Quiesce: stop the (possibly wedged) transfer so later
        # experiments in the same process see a clean event queue.
        algo.qps[algo.root].abort_sends()
        res.rows.append({"variant": variant, "receivers_done": finished,
                         "receivers_total": len(members) - 1,
                         "delivered_frac_min": min_frac})
    return res


def ablation_cnp_filter(quick: bool = True) -> ExperimentResult:
    """CNP filter on/off with a congested receiver: sender throughput."""
    size = (16 if quick else 64) * MB
    res = ExperimentResult(
        exp_id="abl-cnp", title="CNP filtering (anti magnification)",
        headers=["variant", "sender_cnps", "jct_ms", "goodput_gbps"],
        paper_claim="multi-stream CNPs must be filtered so the rate matches "
                    "the most congested receiver, not the sum of signals",
    )
    for variant, filt in (("with-filter", True), ("no-filter", False)):
        accel = AcceleratorConfig(feedback=FeedbackConfig(cnp_filter=filt))
        # Dumbbell: congestion sits on the shared trunk, *upstream* of
        # the replication point, so every receiver sees marked packets
        # and emits its own CNP stream — one congestion event, three
        # signals.  That is the magnification the filter must defuse.
        cl = Cluster.dumbbell_cluster(2, 4, accel_config=accel)
        members = [1, 3, 4, 5]             # sender left; receivers right
        algo = CepheusBcast(cl, members)
        algo.prepare()
        cl.qp_to(2, 6).post_send(size)     # background flow on the trunk
        r = algo.run(size)
        cnps = algo.qps[algo.root].cc.cnp_count
        res.rows.append({"variant": variant, "sender_cnps": cnps,
                         "jct_ms": r.jct * 1e3,
                         "goodput_gbps": r.goodput_gbps()})
    return res


def ablation_retransmit_filter(quick: bool = True) -> ExperimentResult:
    """Retransmission filter on/off under loss: duplicate deliveries."""
    size = (4 if quick else 32) * MB
    res = ExperimentResult(
        exp_id="abl-retx", title="Retransmission filtering (duplicate suppression)",
        headers=["variant", "fct_ms", "filtered", "dup_deliveries"],
        paper_claim="filtering saves bandwidth and prevents receivers from "
                    "receiving duplicate retransmitted packets",
    )
    for variant, filt in (("with-filter", True), ("no-filter", False)):
        r, algo, cl = _run_bcast(8, size, loss=2e-3, fat_tree=True,
                                 retransmit_filter=filt)
        filtered = sum(a.retransmits_filtered
                       for a in cl.fabric.accelerators.values())
        # Duplicate arrivals make the RNIC respond with an immediate
        # re-ACK, so receiver ACK counts expose suppressed duplicates.
        dups = sum(qp.acks_sent for ip, qp in algo.qps.items()
                   if ip != algo.root)
        res.rows.append({"variant": variant, "fct_ms": r.jct * 1e3,
                         "filtered": filtered,
                         "dup_deliveries": dups})
    return res


def ablation_deployment(quick: bool = True) -> ExperimentResult:
    """Inline (ASIC) vs look-aside (FPGA prototype) integration, §IV.

    The prototype detours multicast traffic over dedicated switch ports;
    the proposed ASIC integration is inline.  Latency: the detour adds
    two link traversals.  Throughput: bounded by the board's aggregate
    transceiver capacity (the §VI scalability limit) — visible once the
    offered multicast load exceeds it.

    The ``source_routed`` row carries the distribution tree in packet
    headers (Elmo-style) instead of control-installed MFTs; its datapath
    matches inline JCTs while trading header bytes for switch state.
    """
    from repro.core.accelerator import AcceleratorConfig

    size_small, size_large = 64, (16 if quick else 64) * MB
    res = ExperimentResult(
        exp_id="abl-deploy", title="Inline (ASIC) vs look-aside (FPGA board)",
        headers=["deployment", "small_jct_us", "large_jct_ms", "detours"],
        paper_claim="ASIC integration avoids occupying switch ports; the "
                    "FPGA detour costs a fixed latency and is capacity-"
                    "bounded by the board's transceivers",
    )
    for deployment in ("inline", "lookaside", "source_routed"):
        cfg = AcceleratorConfig(deployment=deployment)
        cl = Cluster.testbed(4, accel_config=cfg)
        algo = CepheusBcast(cl, cl.host_ips)
        small = algo.run(size_small).jct
        large = algo.run(size_large).jct
        res.rows.append({
            "deployment": deployment,
            "small_jct_us": small * 1e6,
            "large_jct_ms": large * 1e3,
            "detours": cl.fabric.accelerators["sw0"].lookaside_detours,
        })
    return res


def ablation_state_memory(quick: bool = True) -> ExperimentResult:
    """Hierarchical per-path state vs naive per-receiver tracking."""
    res = ExperimentResult(
        exp_id="abl-mem", title="Feedback state: hierarchical vs per-receiver",
        headers=["group_size", "hierarchical_B", "per_receiver_B", "ratio"],
        paper_claim="per-path state bounds switch memory by the port count "
                    "regardless of MG size (0.69MB per 1K groups at 64 ports)",
    )
    per_entry = 10  # dstIP + dstQP + AckPSN, as in Mft.memory_bytes
    for group_size in (16, 64, 256, 1024, 4096):
        hierarchical = 64 + per_entry * min(group_size, 64) + 20
        per_receiver = 64 + per_entry * group_size + 20
        res.rows.append({
            "group_size": group_size,
            "hierarchical_B": hierarchical,
            "per_receiver_B": per_receiver,
            "ratio": per_receiver / hierarchical,
        })
    return res
