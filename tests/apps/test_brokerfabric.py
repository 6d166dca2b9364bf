"""Broker-fabric scenario: open-loop SLO trials, coalescing, reproducers."""

import json
import random
from dataclasses import replace

from repro.apps.brokerfabric import (
    CAMPAIGN, BrokerFabricConfig, BrokerFabricSchedule,
    generate_brokerfabric_schedule, run_brokerfabric_trial,
)

# Small-but-busy: one switch, enough load that deliveries actually queue.
QUICK = BrokerFabricConfig(
    topo="star", hosts=8, topics=3, min_subscribers=2, max_subscribers=4,
    msg_size=16384, publish_rate=20_000.0, churn_rate=1500.0,
    cross_rate=1500.0, cross_size=32768, horizon=0.005, drain=0.01,
)


def _schedule(cfg, seed=1):
    return generate_brokerfabric_schedule(cfg, random.Random(seed))


class TestTrial:
    def test_trial_is_deterministic(self):
        sched = _schedule(QUICK)
        a = run_brokerfabric_trial(QUICK, sched)
        b = run_brokerfabric_trial(QUICK, sched)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_healthy_trial_passes_slo_accounting(self):
        rec = run_brokerfabric_trial(QUICK, _schedule(QUICK))
        assert not rec["failing"]
        assert rec["violations"] == []
        assert rec["publish_done"] == rec["published"] > 0
        assert rec["deliveries"] > rec["published"]   # fan-out > 1
        lat = rec["latency_us"]
        assert lat["count"] == rec["deliveries"]
        assert 0 < lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"]
        # Multicast: the broker pushes each payload byte roughly once
        # (control packets ride the same NIC, hence the slack).
        assert 1.0 <= rec["amplification"] < 1.5
        assert rec["mrp_deltas_sent"] >= rec["membership_ops"] > 0

    def test_schedule_json_round_trip(self):
        sched = _schedule(QUICK)
        blob = json.dumps(sched.to_dict(), sort_keys=True)
        back = BrokerFabricSchedule.from_dict(json.loads(blob))
        assert back == sched

    def test_coalescing_same_schedule_fewer_deltas(self):
        sched = _schedule(QUICK, seed=3)
        plain = run_brokerfabric_trial(QUICK, sched)
        coal = run_brokerfabric_trial(
            replace(QUICK, coalesce_window=500e-6), sched)
        assert not plain["failing"] and not coal["failing"]
        assert coal["membership_ops"] == plain["membership_ops"]
        assert coal["mrp_deltas_sent"] <= plain["mrp_deltas_sent"]
        assert coal["deltas_per_op"] <= plain["deltas_per_op"]
        # Delivery health is unchanged by batching the control plane.
        assert coal["publish_done"] == coal["published"]


class TestCampaign:
    def test_campaign_is_deterministic_and_clean(self):
        a = CAMPAIGN.run(QUICK, seed=11, trials=2, shrink=False)
        b = CAMPAIGN.run(QUICK, seed=11, trials=2, shrink=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["failing_trials"] == []
        assert a["reproducers"] == []
        assert len(a["records"]) == 2

    def test_config_round_trip_ignores_unknown_keys(self):
        d = QUICK.to_dict()
        d["future_knob"] = 1
        assert BrokerFabricConfig.from_dict(d) == QUICK
