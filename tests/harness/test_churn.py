"""Membership-churn campaigns: determinism, acceptance, self-tests."""

import json

import pytest

from repro.harness.churn import (CAMPAIGN, ChurnConfig, ChurnSchedule,
                                 generate_churn_schedule)

CFG = ChurnConfig()


class TestSchedule:
    def test_generation_is_deterministic(self):
        import random
        a = generate_churn_schedule(CFG, random.Random(5))
        b = generate_churn_schedule(CFG, random.Random(5))
        assert a == b

    def test_events_respect_pools(self):
        import random
        sched = generate_churn_schedule(CFG, random.Random(5))
        hosts = list(range(1, CFG.hosts + 1))
        initial = hosts[:CFG.initial_members]
        for ev in sched.events:
            if ev.kind == "join":
                assert ev.ip not in initial
            else:
                assert ev.ip in initial[1:]   # never the leader/source

    def test_roundtrips_through_json(self):
        import random
        sched = generate_churn_schedule(CFG, random.Random(5))
        again = ChurnSchedule.from_dict(
            json.loads(json.dumps(sched.to_dict())))
        assert again == sched


class TestCampaign:
    def test_seeded_acceptance_scenario(self):
        """Joins, a voluntary leave, and a crashed receiver during
        in-flight broadcasts: exactly-once to all final members, no
        stalled aggregates, invariants clean across epochs."""
        doc = CAMPAIGN.run(CFG, seed=11, trials=3, shrink=False)
        assert doc["failing_trials"] == []
        for r in doc["records"]:
            assert r["completed_messages"] == CFG.messages
            assert r["mismatched"] == []
            assert r["violations"] == []
            assert r["unpruned_crashes"] == []
            assert r["delta_failures"] == []
            # incremental deltas beat full re-registration per member
            joins = sum(1 for e in r["schedule"]["events"]
                        if e["kind"] == "join")
            if joins:
                assert r["delta_records"] / joins < r["full_records"]

    def test_campaign_is_bit_for_bit_deterministic(self):
        a = CAMPAIGN.run(CFG, seed=3, trials=2, shrink=False)
        b = CAMPAIGN.run(CFG, seed=3, trials=2, shrink=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_no_detector_mutation_fails(self):
        """Self-test: with the failure detector off, a crash must stall
        the group (the campaign detects real liveness bugs)."""
        cfg = ChurnConfig(mutate="no-detector")
        doc = CAMPAIGN.run(cfg, seed=11, trials=1, shrink=False)
        assert doc["failing_trials"] == [0]
        rec = doc["records"][0]
        assert rec["unpruned_crashes"] or \
            rec["completed_messages"] < cfg.messages


@pytest.mark.slow
class TestShrinkAndReplay:
    def test_shrinker_isolates_the_crash(self):
        import random
        cfg = ChurnConfig(mutate="no-detector")
        sched = generate_churn_schedule(cfg, random.Random(11))
        _, minimal = CAMPAIGN.shrink(cfg, sched)
        kinds = [e.kind for e in minimal.events]
        assert kinds == ["crash"]
        assert len(minimal.offsets) <= len(sched.offsets)

    def test_reproducer_roundtrip(self, tmp_path):
        cfg = ChurnConfig(mutate="no-detector")
        doc = CAMPAIGN.run(cfg, seed=11, trials=1, shrink=True)
        rep = doc["reproducers"][0]
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(rep))
        cfg2, sched2 = CAMPAIGN.load(str(path))
        assert cfg2.mutate == "no-detector"
        record = CAMPAIGN.replay(str(path))
        assert record["failing"]

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            CAMPAIGN.load(str(path))


class TestFatTree:
    def test_fat_tree_churn_clean(self):
        cfg = ChurnConfig(topo="fat_tree", hosts=8, k=4)
        doc = CAMPAIGN.run(cfg, seed=11, trials=1, shrink=False)
        assert doc["failing_trials"] == []
