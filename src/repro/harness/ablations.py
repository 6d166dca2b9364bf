"""Ablations of the design choices §III-D calls out.

Each declaration (a grid of cells, see :mod:`repro.harness.experiments`)
disables exactly one Cepheus mechanism and measures the symptom the
paper predicts:

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

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.core.accelerator import AcceleratorConfig
from repro.core.feedback import FeedbackConfig
from repro.harness.experiments import MB, Experiment, Row

__all__ = ["ablation_ack_trigger", "ablation_nack_rule",
           "ablation_cnp_filter", "ablation_retransmit_filter",
           "ablation_state_memory", "ablation_deployment"]


def _ack_cell(point) -> Row:
    variant, trig, size = point
    cl = Cluster.testbed(8, accel_config=AcceleratorConfig(
        feedback=FeedbackConfig(trigger_condition=trig)))
    algo = CepheusBcast(cl, cl.host_ips)
    r = algo.run(size)
    acks = algo.qps[algo.root].acks_received
    return {"variant": variant, "sender_acks": acks,
            "jct_ms": r.jct * 1e3, "acks_per_mb": acks / (size / MB)}


def ablation_ack_trigger(quick: bool = True) -> Experiment:
    """Trigger condition on/off: ACKs arriving at the sender."""
    size = (8 if quick else 64) * MB
    return Experiment(
        "abl-ack", "ACK trigger condition (anti ACK-explosion)",
        ["variant", "sender_acks", "jct_ms", "acks_per_mb"],
        grid=[("with-trigger", True, size), ("no-trigger", False, size)],
        cell=_ack_cell,
        paper_claim="the Trigger Condition reduces ACKs to the sender, "
                    "mitigating the ACK exploding issue",
    )


def _nack_cell(point) -> Row:
    variant, nack, size = point
    accel = AcceleratorConfig(feedback=FeedbackConfig(nack_aggregation=nack))
    cl = Cluster.fat_tree_cluster(4, accel_config=accel)
    cl.topo.set_loss_rate(8e-3)
    members = cl.host_ips[:8]
    algo = CepheusBcast(cl, members)
    algo.post(size)
    cl.sim.run(until=60e-3)
    finished = sum(
        1 for ip in members[1:]
        if algo.qps[ip].recv.bytes_delivered >= size)
    mtu = algo.qps[algo.root].cfg.mtu
    min_frac = min(
        min(algo.qps[ip].rq_psn * mtu / size, 1.0)
        for ip in members[1:])
    # Quiesce: stop the (possibly wedged) transfer so its simulator
    # holds no live timers.
    algo.qps[algo.root].abort_sends()
    return {"variant": variant, "receivers_done": finished,
            "receivers_total": len(members) - 1,
            "delivered_frac_min": min_frac}


def ablation_nack_rule(quick: bool = True) -> Experiment:
    """MePSN rule on/off under branch-divergent loss.

    Without the rule, a later NACK's implicit cumulative ACK covers an
    earlier loss on another branch: the sender reaps those WQEs, never
    retransmits the missing PSN, and the affected receivers stall
    *forever* (go-back-N restarts from the falsely-advanced snd_una).
    The run is therefore capped at 60 ms and we report how many
    receivers actually finished.
    """
    size = (4 if quick else 16) * MB
    return Experiment(
        "abl-nack", "NACK aggregation (anti inter-covering)",
        ["variant", "receivers_done", "receivers_total",
         "delivered_frac_min"],
        grid=[("with-mepsn", True, size), ("no-mepsn", False, size)],
        cell=_nack_cell,
        paper_claim="without the MePSN rule a later NACK covers an earlier "
                    "loss; the sender never retransmits it (§III-D)",
    )


def _cnp_cell(point) -> Row:
    variant, filt, size = point
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
    return {"variant": variant,
            "sender_cnps": algo.qps[algo.root].cc.cnp_count,
            "jct_ms": r.jct * 1e3, "goodput_gbps": r.goodput_gbps()}


def ablation_cnp_filter(quick: bool = True) -> Experiment:
    """CNP filter on/off with a congested receiver: sender throughput."""
    size = (16 if quick else 64) * MB
    return Experiment(
        "abl-cnp", "CNP filtering (anti magnification)",
        ["variant", "sender_cnps", "jct_ms", "goodput_gbps"],
        grid=[("with-filter", True, size), ("no-filter", False, size)],
        cell=_cnp_cell,
        paper_claim="multi-stream CNPs must be filtered so the rate matches "
                    "the most congested receiver, not the sum of signals",
    )


def _retx_cell(point) -> Row:
    variant, filt, size = point
    # Loss at the middle switches of a fat-tree, so different MDT
    # branches lose *different* packets (in a star the drop happens
    # before replication and every receiver loses the same PSN, which
    # hides the retransmission filter).
    cl = Cluster.fat_tree_cluster(4, accel_config=AcceleratorConfig(
        retransmit_filter=filt))
    cl.topo.set_loss_rate(2e-3)
    algo = CepheusBcast(cl, cl.host_ips[:8])
    r = algo.run(size)
    filtered = sum(a.retransmits_filtered
                   for a in cl.fabric.accelerators.values())
    # Duplicate arrivals make the RNIC respond with an immediate
    # re-ACK, so receiver ACK counts expose suppressed duplicates.
    dups = sum(qp.acks_sent for ip, qp in algo.qps.items()
               if ip != algo.root)
    return {"variant": variant, "fct_ms": r.jct * 1e3,
            "filtered": filtered, "dup_deliveries": dups}


def ablation_retransmit_filter(quick: bool = True) -> Experiment:
    """Retransmission filter on/off under loss: duplicate deliveries."""
    size = (4 if quick else 32) * MB
    return Experiment(
        "abl-retx", "Retransmission filtering (duplicate suppression)",
        ["variant", "fct_ms", "filtered", "dup_deliveries"],
        grid=[("with-filter", True, size), ("no-filter", False, size)],
        cell=_retx_cell,
        paper_claim="filtering saves bandwidth and prevents receivers from "
                    "receiving duplicate retransmitted packets",
    )


def _deploy_cell(point) -> Row:
    deployment, size_large = point
    cl = Cluster.testbed(4, accel_config=AcceleratorConfig(
        deployment=deployment))
    algo = CepheusBcast(cl, cl.host_ips)
    small = algo.run(64).jct
    large = algo.run(size_large).jct
    return {
        "deployment": deployment,
        "small_jct_us": small * 1e6,
        "large_jct_ms": large * 1e3,
        "detours": cl.fabric.accelerators["sw0"].lookaside_detours,
    }


def ablation_deployment(quick: bool = True) -> Experiment:
    """Inline (ASIC) vs look-aside (FPGA prototype) integration, §IV.

    The prototype detours multicast traffic over dedicated switch ports;
    the proposed ASIC integration is inline.  Latency: the detour adds
    two link traversals.  Throughput: bounded by the board's aggregate
    transceiver capacity (the §VI scalability limit) — visible once the
    offered multicast load exceeds it.

    The ``source_routed`` row carries the distribution tree in packet
    headers (Elmo-style) instead of control-installed MFTs; its datapath
    matches inline JCTs while trading header bytes for switch state.

    Each deployment's cell runs a 64 B and then a large broadcast on
    one cluster.
    """
    size_large = (16 if quick else 64) * MB
    return Experiment(
        "abl-deploy", "Inline (ASIC) vs look-aside (FPGA board)",
        ["deployment", "small_jct_us", "large_jct_ms", "detours"],
        grid=[(deployment, size_large) for deployment in
              ("inline", "lookaside", "source_routed")],
        cell=_deploy_cell,
        paper_claim="ASIC integration avoids occupying switch ports; the "
                    "FPGA detour costs a fixed latency and is capacity-"
                    "bounded by the board's transceivers",
    )


def _mem_cell(group_size: int) -> Row:
    per_entry = 10  # dstIP + dstQP + AckPSN, as in Mft.memory_bytes
    hierarchical = 64 + per_entry * min(group_size, 64) + 20
    per_receiver = 64 + per_entry * group_size + 20
    return {"group_size": group_size, "hierarchical_B": hierarchical,
            "per_receiver_B": per_receiver,
            "ratio": per_receiver / hierarchical}


def ablation_state_memory(quick: bool = True) -> Experiment:
    """Hierarchical per-path state vs naive per-receiver tracking."""
    return Experiment(
        "abl-mem", "Feedback state: hierarchical vs per-receiver",
        ["group_size", "hierarchical_B", "per_receiver_B", "ratio"],
        grid=[16, 64, 256, 1024, 4096], cell=_mem_cell,
        paper_claim="per-path state bounds switch memory by the port count "
                    "regardless of MG size (0.69MB per 1K groups at 64 ports)",
    )
