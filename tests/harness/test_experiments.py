"""What every registry experiment's quick run must look like.

``SHAPES`` holds one check per ``runner.ALL_EXPERIMENTS`` id asserting
the paper's claim for that table (who wins, direction of effects, the
quantitative bands of EXPERIMENTS.md).  ``test_golden_results.py``
applies it, together with the baseline comparison, to the session's
single quick run of each id (:func:`quick_entry`).
"""

import functools

import pytest

from repro.harness.runner import execute_one
from repro.harness.report import ExperimentResult


@functools.lru_cache(maxsize=None)
def quick_entry(exp_id):
    """The bench entry of this session's one quick run of ``exp_id``."""
    return execute_one(exp_id, True)


def quick_result(exp_id):
    return ExperimentResult.from_dict(quick_entry(exp_id)["result"])


def fig7b(res):
    row = res.rows[0]
    assert row["bytes_per_group"] <= 750
    assert row["total_MB"] <= 0.78  # paper: 0.69 MB (tighter encoding)


def fig8(res):
    for row in res.rows:
        assert 1.8 < row["speedup_vs_bt"] <= 4.0, row
        assert 2.3 < row["speedup_vs_chain"] <= 5.5, row


def fig9(res):
    for row in res.rows:
        assert 1.3 <= row["speedup_vs_chain"] <= 3.0, row
        assert 1.8 <= row["speedup_vs_bt"] <= 3.2, row
    assert res.rows[-1]["cepheus_ms"] > 0


def rdmc(res):
    rdmc_row = next(r for r in res.rows if r["scheme"] == "rdmc")
    assert 1.2 <= rdmc_row["ratio_vs_cepheus"] <= 2.0  # paper 1.43


def tab1(res):
    iops = {r["scheme"]: r["iops_M"] for r in res.rows}
    gput = {r["scheme"]: r["goodput_gbps"] for r in res.rows}
    assert 1.0 < iops["1-unicast"] < 1.4            # paper 1.188
    assert 0.33 <= iops["3-unicasts"] <= 0.47       # paper 0.413
    assert iops["cepheus"] >= 0.95 * iops["1-unicast"]  # paper 1.167
    assert iops["3-unicasts"] < 0.5 * iops["cepheus"]
    assert gput["cepheus"] > 2.5 * gput["3-unicasts"]   # paper 76.5/26.2


def fig10(res):
    reds = res.column("reduction_vs_3uni")
    assert all(0.1 < r <= 0.8 for r in reds)
    assert reds[-1] > reds[0]           # gap widens with IO size
    assert reds[-1] >= 0.5              # paper: -60% at 512KB
    for row in res.rows:                # comparable to 1-unicast
        assert row["cepheus_us"] <= 1.3 * row["unicast_us"]


def fig11(res):
    by = {(r["experiment"].split(" ")[0], r["scheme"]): r for r in res.rows}
    pb = by[("PB", "cepheus")]
    rs = by[("RS", "cepheus")]
    assert 0.50 <= pb["comm_reduction"] <= 0.85   # paper 67%
    assert 0.06 <= pb["jct_reduction"] <= 0.20    # paper 12%
    assert 0.08 <= rs["comm_reduction"] <= 0.35   # paper 18%
    assert 0.00 <= rs["jct_reduction"] <= 0.10    # paper 4%


def fig12(res):
    small, large = res.rows[0], res.rows[-1]
    # Short flows: Chain's linear latency explodes, BT stays logarithmic.
    assert small["speedup_vs_chain"] > 20   # paper: up to 164x @512
    assert small["speedup_vs_bt"] > 3
    assert small["speedup_vs_chain"] > small["speedup_vs_bt"]
    # Large flows: BT's log(n) full-copy rounds are the bigger penalty.
    assert large["speedup_vs_bt"] > large["speedup_vs_chain"] > 1.5
    assert large["speedup_vs_bt"] > 3       # paper: 8.9x
    assert {"packet", "analytic"} == set(res.column("mode"))


def fig13(res):
    ceph = [r for r in res.rows if r["scheme"] == "cepheus"]
    chain = [r for r in res.rows if r["scheme"] == "chain"]
    # Clean network: normalized throughput is exactly 1.
    assert all(r["norm_tput"] == 1.0 for r in ceph if r["loss_rate"] == 0)
    # Loss visibly hits Cepheus harder than Chain (norm_tput drop).
    worst_c = min(r["norm_tput"] for r in ceph)
    worst_ch = min(r["norm_tput"] for r in chain)
    assert worst_c < 1.0
    assert worst_c <= worst_ch + 1e-9
    # But at these scales Cepheus still wins on absolute FCT everywhere.
    by = {(r["scale"], r["loss_rate"], r["scheme"]): r["fct_ms"]
          for r in res.rows}
    for (scale, rate, scheme), fct in by.items():
        if scheme == "cepheus":
            assert fct < by[(scale, rate, "chain")]


def fig14(res):
    f1 = res.column("f1_gbps")
    f2 = res.column("f2_gbps")
    # Phase 1: alone, f1 runs near line rate.
    assert max(f1[:3]) > 90
    # Phase 2: with f2 active, the bottleneck stays fully utilized and
    # f2 holds a substantial share (convergence toward fairness).
    # >5 Gbps excludes the partial buckets at f2's start/finish.
    active = [i for i, v in enumerate(f2) if v > 5.0]
    mid = active[len(active) // 2:]
    for i in mid:
        assert f1[i] + f2[i] > 85          # full utilization
    assert max(f2[i] for i in mid) > 25    # f2 got a real share
    # Phase 3: after f2 ends, f1 climbs back up.
    after = [i for i in range(active[-1] + 1, len(f1))]
    assert after and max(f1[i] for i in after) > max(
        f1[i] for i in mid) + 10


def churn(res):
    for row in res.rows:
        assert row["violations"] == 0 == row["failing_trials"]
        assert row["pruned"] > 0          # the crashed receiver
        # a single-member delta patches one branch of the tree
        assert 0 < row["delta_records_per_join"] < row["full_records"]


def srmc_scaling(res):
    first, last = res.rows[0], res.rows[-1]
    # MFT state tracks the group count; header-encoded trees stay flat.
    assert last["mft_state_x"] > 0.9 * last["groups"] / first["groups"]
    assert last["bert_state_x"] <= last["elmo_state_x"] < 2


def brokerfabric(res):
    base, coal = res.rows            # uncoalesced, coalesced
    for row in res.rows:
        assert row["failing"] == 0 < row["deliveries"]
        assert row["amplification"] < 1.1      # each byte sent ~once
    # identical op stream, fewer MRP messages, tail not hurt
    assert coal["membership_ops"] == base["membership_ops"]
    assert coal["mrp_deltas"] < base["mrp_deltas"]
    assert coal["p99_us"] <= base["p99_us"]


def mrc_fanin(res):
    for row in res.rows:     # spraying is JCT-neutral, under either CC
        assert row["k4_vs_k1"] == pytest.approx(1.0, rel=0.01)
        assert row["k4_gleam_us"] == pytest.approx(row["k4_us"], rel=0.01)


def mrc_loss(res):
    for row in res.rows:
        assert row["delivered"] == 5 and row["resprays"] >= 1
        assert row["survivor_retx"] == 0    # no group-wide go-back-N
        assert row["recovery_us"] < row["detect_us"]


def abl_ack(res):
    by = {r["variant"]: r for r in res.rows}
    assert by["no-trigger"]["sender_acks"] > \
        3 * by["with-trigger"]["sender_acks"]


def abl_nack(res):
    by = {r["variant"]: r for r in res.rows}
    ok, bad = by["with-mepsn"], by["no-mepsn"]
    assert ok["receivers_done"] == ok["receivers_total"]
    assert bad["receivers_done"] < bad["receivers_total"]
    assert bad["delivered_frac_min"] < 1.0


def abl_cnp(res):
    by = {r["variant"]: r for r in res.rows}
    assert by["with-filter"]["goodput_gbps"] > \
        1.2 * by["no-filter"]["goodput_gbps"]
    assert by["with-filter"]["sender_cnps"] <= by["no-filter"]["sender_cnps"]


def abl_retx(res):
    by = {r["variant"]: r for r in res.rows}
    assert by["with-filter"]["filtered"] > 0
    assert by["no-filter"]["filtered"] == 0
    assert by["no-filter"]["dup_deliveries"] > \
        by["with-filter"]["dup_deliveries"]


def abl_deploy(res):
    by = {r["deployment"]: r for r in res.rows}
    assert by["lookaside"]["small_jct_us"] > by["inline"]["small_jct_us"]
    # At the prototype's 4x100G capacity, throughput is not the limiter.
    assert by["lookaside"]["large_jct_ms"] < 1.1 * by["inline"]["large_jct_ms"]
    assert by["lookaside"]["detours"] > 0 == by["inline"]["detours"]


def abl_mem(res):
    biggest = res.rows[-1]
    assert biggest["hierarchical_B"] < 800          # bounded by radix
    assert biggest["per_receiver_B"] > 40_000       # linear in group size


def ext_allreduce(res):
    for row in res.rows:
        assert row["ps_cepheus_ms"] < row["ps_binomial_ms"]
        assert row["ps_cepheus_ms"] < row["ps_unicast_ms"]
    # At the large end, PS+Cepheus plays in ring allreduce's league.
    assert res.rows[-1]["ps_cepheus_ms"] < 1.3 * res.rows[-1]["ring_ms"]


def ext_inreduce(res):
    for row in res.rows:
        assert row["speedup"] > 1.5, row


def ext_irn(res):
    by = {(r["mode"], r["loss_rate"]): r for r in res.rows}
    worst_rate = max(r["loss_rate"] for r in res.rows)
    gbn = by[("gbn", worst_rate)]
    irn = by[("irn", worst_rate)]
    # "substantially enhance": order-of-magnitude at the worst rate.
    assert irn["goodput_gbps"] > 5 * gbn["goodput_gbps"]
    assert irn["timeouts"] == 0
    assert irn["retransmits"] < 0.1 * gbn["retransmits"]


def ext_mixed(res):
    by = {r["scenario"]: r for r in res.rows}
    alone, mixed = by["queries-alone"], by["with-bulk"]
    assert alone["queries"] > 0 and mixed["queries"] > 0
    # Isolation: queries keep flowing under bulk load, with bounded
    # inflation (queueing at the DCQCN operating point, not seconds of
    # head-of-line blocking).
    assert mixed["p50_us"] < alone["p50_us"] + 100
    assert mixed["p99_us"] < 500
    assert mixed["p99_us"] >= alone["p99_us"]  # congestion is visible


def ext_reg(res):
    rows = res.rows
    # Footprint grows with the group, per-switch state stays bounded.
    assert rows[-1]["mdt_switches"] > rows[0]["mdt_switches"]
    assert all(r["max_entries_per_switch"] <= 8 for r in rows)
    # Control-plane latency stays in the tens-of-us range even at 64
    # members — negligible against any long-lived group's lifetime.
    assert rows[-1]["reg_latency_us"] < 200


def ext_workload(res):
    by = {r["engine"]: r for r in res.rows}
    ceph = by["cepheus"]
    for name, row in by.items():
        if name == "cepheus":
            continue
        # Cepheus dominates both halves of the mix simultaneously.
        assert ceph["small_p99_us"] <= row["small_p99_us"] * 1.01, name
        assert ceph["large_p99_ms"] <= row["large_p99_ms"] * 1.01, name


#: registry id -> its paper-shape check.
SHAPES = {
    "fig7b": fig7b, "fig8": fig8, "fig9": fig9, "rdmc": rdmc, "tab1": tab1,
    "fig10": fig10, "fig11": fig11, "fig12": fig12, "fig13": fig13,
    "fig14": fig14, "churn": churn, "srmc_scaling": srmc_scaling,
    "brokerfabric": brokerfabric, "mrc_fanin": mrc_fanin,
    "mrc_loss": mrc_loss,
    "abl-ack": abl_ack, "abl-nack": abl_nack, "abl-cnp": abl_cnp,
    "abl-retx": abl_retx, "abl-deploy": abl_deploy, "abl-mem": abl_mem,
    "ext-allreduce": ext_allreduce, "ext-inreduce": ext_inreduce,
    "ext-irn": ext_irn, "ext-mixed": ext_mixed, "ext-reg": ext_reg,
    "ext-workload": ext_workload,
}


# The names ten of these checks ran under before the registry suite,
# kept for `pytest -k fig8_bands` and CI's known-test list.  Each
# re-applies its check to the session's one run; tier 2 only.
pytestmark = pytest.mark.slow


def _alias(exp_id):
    return lambda self: SHAPES[exp_id](quick_result(exp_id))


class TestTestbedExperiments:
    test_fig8_bands = _alias("fig8")
    test_fig9_bands = _alias("fig9")
    test_rdmc_comparison = _alias("rdmc")
    test_tab1_ordering = _alias("tab1")
    test_fig10_reductions = _alias("fig10")


class TestSimulationExperiments:
    test_fig12_shapes = _alias("fig12")
    test_fig13_degradation_direction = _alias("fig13")


class TestAblations:
    test_ack_trigger_reduces_sender_acks = _alias("abl-ack")
    test_nack_rule_prevents_intercovering_stall = _alias("abl-nack")
    test_retransmit_filter_counts = _alias("abl-retx")
