"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``; the
root ``testpaths`` stays ``tests``, so tier-1 does not collect this.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.apps.brokerfabric import BrokerFabricConfig  # noqa: E402
from repro.net.failures import FailureInjector  # noqa: E402

from perfbench import check, run  # noqa: E402
from perfbench.layers import LAYERS, _FILES, layer_of, run_micro  # noqa: E402
from perfbench.workloads import BY_NAME, WORKLOADS  # noqa: E402

SPEC = run.load_spec()
KB = 1024


def tiny(name: str):
    """The named workload at a size that runs in well under a second."""
    w = BY_NAME[name]
    if name == "pubsub_churn":
        return replace(w, publishes=30, patterns=2, cfg=BrokerFabricConfig(
            k=4, hosts=16, topics=3, min_subscribers=3, max_subscribers=6,
            msg_size=8192, publish_rate=2e4, churn_rate=4e3, cross_rate=1e3,
            horizon=0.003, drain=0.01, coalesce_window=5e-4))
    sizes = {"mcast_small": (5, 64)}.get(name, (2, 64 * KB))
    return replace(w, k=4, group=8, messages=sizes[0], size=sizes[1],
                   cross_bytes=32 * KB if w.cross_bytes else 0,
                   patterns=min(w.patterns, 2))


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_workload_completes_with_no_failure(name):
    w = tiny(name)
    detail = run.measure(w, seed=3, seconds=0.0)
    assert detail["failed"] == 0
    assert detail["attempted"] > 0
    assert detail["deterministic"] and detail["correct"]
    # every pattern once, and one revisit to check it reproduces
    assert detail["end_to_end"]["wall_s"]["n"] == w.patterns + 1


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_two_repeats_give_equal_sim_digest(name):
    w = tiny(name)
    first = run.one_repeat(w, 7000).outcome
    second = run.one_repeat(w, 7000).outcome
    assert first.digest == second.digest
    assert first.sim_time_us == second.sim_time_us


def test_document_has_exactly_the_declared_metrics_and_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert SPEC["paths"] == ["perfbench"]
    name_ok = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(name_ok.match(n) for n in names)

    w = tiny("mcast_lossy")
    untraced = run.measure(w, seed=3, seconds=0.0)
    end_to_end = run.contract_metrics(SPEC["end_to_end"],
                                      untraced["end_to_end"])
    traced = run.trace(w, seed=3)
    per_layer = run.contract_metrics(SPEC["per_layer"], traced["per_layer"])
    assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in SPEC["per_layer"]]
    for metric in list(end_to_end.values()) + list(per_layer.values()):
        assert metric["unit"] and isinstance(metric["value"], (int, float))
    assert all(v["value"] > 0 for v in end_to_end.values())
    # every layer has both of its rows
    for layer in LAYERS:
        assert f"{layer}.self_s" in per_layer and f"{layer}.calls" in per_layer


def test_trace_attributes_the_wall_and_reads_the_counters():
    traced = run.trace(tiny("mcast_lossy"), seed=3)
    layer = {k: v["value"] for k, v in traced["per_layer"].items()}
    assert traced["deterministic"]
    assert layer["trace.attributed_frac"] == pytest.approx(1.0, abs=0.02)
    assert layer["core.accelerator.data_in"] > 0
    assert layer["core.feedback.acks_in"] > layer["core.feedback.acks_out"] > 0
    assert layer["check.calls"] == 0 and layer["check.events_checked"] == 0
    assert layer["model.analytic_err_frac"] == -1.0   # no closed form

    chain = run.trace(tiny("amcast_chain"), seed=3)
    run.contract_metrics(SPEC["per_layer"], chain["per_layer"])
    layer = {k: v["value"] for k, v in chain["per_layer"].items()}
    assert layer["core.accelerator.data_in"] == 0     # bypassed
    assert layer["core.feedback.self_s"] == 0
    assert layer["transport.roce.retx_frac"] == 0
    assert 0 <= layer["model.analytic_err_frac"] < 0.5

    pubsub = run.trace(tiny("pubsub_churn"), seed=3)
    layer = {k: v["value"] for k, v in pubsub["per_layer"].items()}
    assert layer["check.calls"] > 0 and layer["check.events_checked"] > 0
    assert layer["net.switch.pool_reuse_frac"] == 0   # a subscriber is attached
    assert layer["core.control.membership_ops"] > 0


def test_broken_run_is_counted_and_exits_non_zero(capsys):
    """Cut one receiver off the fabric with no recovery: its deliveries
    and the sender's completion must show up as failed operations."""
    def cut_one_receiver(state):
        cluster, algo, _cross = state
        FailureInjector(cluster.topo).fail_host_link(algo.ranks[-1])
        # Nothing recovers; stop the sender's retransmissions so the
        # simulation drains.
        cluster.sim.schedule(2e-3, algo.qps[algo.root].abort_sends)

    w = replace(tiny("mcast_bulk"), messages=1)
    detail = run.measure(w, seed=3, seconds=0.0, sabotage=cut_one_receiver)
    assert detail["failed"] > 0 and not detail["correct"]
    assert detail["failed"] <= detail["attempted"]
    metrics = run.contract_metrics(SPEC["end_to_end"], detail["end_to_end"])
    assert run.report(detail, metrics) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == detail["failed"]

    healthy = run.measure(w, seed=3, seconds=0.0)
    assert run.report(healthy, run.contract_metrics(
        SPEC["end_to_end"], healthy["end_to_end"])) == 0


def test_layer_map_covers_every_source_file_once():
    pkg = ROOT / "src" / "repro"
    files = sorted(p.relative_to(pkg).as_posix() for p in pkg.rglob("*.py"))
    assert files
    for rel in files:
        assert layer_of(rel) in LAYERS      # KeyError: map the new module
    stale = [rel for rel in _FILES if rel not in files]
    assert not stale, f"layer map names files that are gone: {stale}"
    with pytest.raises(KeyError):
        layer_of("net/brand_new_module.py")


def test_micro_drivers_report_every_declared_micro_metric():
    micro = run_micro(seed=3)
    declared = {m["name"] for m in SPEC["per_layer"]
                if m["name"].startswith("micro.")}
    assert set(micro) == declared
    assert all(v > 0 for v in micro.values())


# ---------------------------------------------------------------------------
# check.py
# ---------------------------------------------------------------------------

def _document(noisy=False):
    def summary(samples):
        ordered = sorted(samples)
        return {"value": ordered[len(ordered) // 2],
                "min": ordered[0], "max": ordered[-1], "n": len(samples),
                "samples": list(samples)}
    entry = {
        "attempted": 100, "failed": 0, "correct": True, "sim_digest": "abc",
        "end_to_end": {
            "wall_s": summary([1.0, 1.3, 1.1, 1.2, 1.0]),
            "deliveries_per_sec": summary([100.0, 77.0, 91.0, 83.0, 100.0]),
            "setup_s": summary([0.03, 0.031, 0.03, 0.032, 0.03]),
            "peak_rss_mb": summary([40.0]),
        },
    }
    return {"provenance": {"seed": 11, "noisy": noisy},
            "workloads": {w.name: copy.deepcopy(entry) for w in WORKLOADS}}


def _scaled(doc, workload, metric, factor):
    out = copy.deepcopy(doc)
    s = out["workloads"][workload]["end_to_end"][metric]
    s["samples"] = [v * factor for v in s["samples"]]
    for key in ("value", "min", "max"):
        s[key] *= factor
    return out


def test_check_accepts_identical_runs(capsys):
    assert check.compare(_document(), _document(), SPEC) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out and "unresolved" not in out


def test_check_flags_a_regression_in_its_own_row(capsys):
    slower = _scaled(_document(), "mcast_small", "wall_s", 1.3)
    assert check.compare(_document(), slower, SPEC) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if "regressed" in line]
    assert len(rows) == 1 and rows[0].startswith("mcast_small")
    assert "1.3000" in rows[0]              # the ratio, beside its base
    # an improvement is not a regression
    assert check.compare(slower, _document(), SPEC) == 0


def test_check_reports_noisy_and_mixed_runs_as_unresolved(capsys):
    slower = _scaled(_document(), "mcast_small", "wall_s", 1.3)
    assert check.compare(_document(noisy=True), slower, SPEC) == 0
    assert "regressed" not in capsys.readouterr().out

    mixed = _document()
    s = mixed["workloads"]["mcast_bulk"]["end_to_end"]["wall_s"]
    s["samples"] = [2.0, 0.7, 2.2, 0.6, 2.0]   # some better, some far worse
    s["value"] = 2.0
    assert check.compare(_document(), mixed, SPEC) == 0
    assert "unresolved" in capsys.readouterr().out


def test_check_fails_on_more_failures_and_flags_a_new_digest(capsys):
    worse = _document()
    worse["workloads"]["mcast_lossy"]["failed"] = 1
    worse["workloads"]["mcast_lossy"]["sim_digest"] = "xyz"
    assert check.compare(_document(), worse, SPEC) == 1
    assert "simulated behaviour changed" in capsys.readouterr().out
