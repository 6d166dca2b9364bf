"""The fuzz campaign's churn preset: one crash plus joins and a leave —
determinism, acceptance, the ``no-failure-detector`` seeded bug."""

import json
import random
from dataclasses import replace

import pytest

from repro.harness.fuzz import (CAMPAIGN, CHURN, FuzzSchedule,
                                generate_fuzz_schedule)

CFG = CHURN


class TestSchedule:
    def test_generation_is_deterministic(self):
        a = generate_fuzz_schedule(CFG, random.Random(5))
        b = generate_fuzz_schedule(CFG, random.Random(5))
        assert a == b

    def test_events_respect_pools(self):
        hosts = list(range(1, CFG.hosts + 1))
        initial = hosts[:CFG.initial_members]
        kinds = set()
        for seed in range(10):
            sched = generate_fuzz_schedule(CFG, random.Random(seed))
            assert sched.incidents == ()
            for ev in sched.churn:
                kinds.add(ev.kind)
                if ev.kind == "join":
                    assert ev.ip not in initial
                else:
                    # never the leader or a source
                    assert ev.ip in initial[1:]
                    assert ev.ip not in sched.sources
                if ev.kind == "crash":
                    # the detector needs a message posted after it
                    assert sched.offsets[-1] > ev.at
        assert kinds == {"join", "leave", "crash"}

    def test_blind_trials_carry_the_full_load(self):
        """``churn run`` loads every trial: two joins, a leave and a
        crash, the leaver and the victim sourcing no message."""
        for seed in range(10):
            sched = CAMPAIGN.generate(CFG, random.Random(seed))
            kinds = sorted(e.kind for e in sched.churn)
            assert kinds == ["crash", "join", "join", "leave"], seed
            for ev in sched.churn:
                assert ev.kind == "join" or ev.ip not in sched.sources

    def test_roundtrips_through_json(self):
        sched = generate_fuzz_schedule(CFG, random.Random(5))
        again = FuzzSchedule.from_dict(
            json.loads(json.dumps(sched.to_dict())))
        assert again == sched


class TestCampaign:
    def test_seeded_acceptance_scenario(self):
        """Joins, a voluntary leave, and a crashed receiver during
        in-flight broadcasts: exactly-once to all final members, no
        stalled aggregates, invariants clean across epochs."""
        doc = CAMPAIGN.run(CFG, seed=11, trials=3, shrink=False)
        assert doc["failing_trials"] == []
        crashes = 0
        for r in doc["records"]:
            assert r["fail_reasons"] == []
            (run,) = r["deployments"]
            assert run["completed"] == CFG.messages
            assert run["violations"] == []
            crashed = [e["ip"] for e in r["schedule"]["churn"]
                       if e["kind"] == "crash"]
            crashes += len(crashed)
            assert set(crashed) <= set(run["pruned"])
            # incremental deltas beat full re-registration per member
            joins = sum(1 for e in r["schedule"]["churn"]
                        if e["kind"] == "join")
            if joins:
                assert run["delta_records"] / joins < run["full_records"]
        assert crashes > 0

    def test_campaign_is_bit_for_bit_deterministic(self):
        a = CAMPAIGN.run(CFG, seed=3, trials=2, shrink=False)
        b = CAMPAIGN.run(CFG, seed=3, trials=2, shrink=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_no_detector_mutation_fails(self, monkeypatch):
        """Self-test: with the failure detector off, a crash must stall
        the group (the campaign detects real liveness bugs)."""
        monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "no-failure-detector")
        doc = CAMPAIGN.run(CFG, seed=11, trials=1, shrink=False)
        assert doc["failing_trials"] == [0]
        reasons = doc["records"][0]["fail_reasons"]
        assert any(r.startswith("unpruned:inline:") for r in reasons)


@pytest.mark.slow
class TestShrinkAndReplay:
    def test_shrinker_isolates_the_crash(self, monkeypatch):
        monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "no-failure-detector")
        sched = generate_fuzz_schedule(CFG, random.Random(11))
        minimal = CAMPAIGN.shrink(CFG, sched)
        kinds = [e.kind for e in minimal.churn]
        assert kinds == ["crash"]
        assert len(minimal.offsets) <= len(sched.offsets)

    def test_reproducer_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "no-failure-detector")
        doc = CAMPAIGN.run(CFG, seed=11, trials=1, shrink=True)
        rep = doc["reproducers"][0]
        path = tmp_path / "repro.json"
        path.write_text(json.dumps(rep))
        cfg2, _ = CAMPAIGN.load(str(path))
        assert cfg2 == CFG
        assert CAMPAIGN.replay(str(path))["failing"]

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError):
            CAMPAIGN.load(str(path))


class TestFatTree:
    def test_fat_tree_churn_clean(self):
        cfg = replace(CFG, topo="fat_tree", hosts=8, k=4)
        doc = CAMPAIGN.run(cfg, seed=11, trials=1, shrink=False)
        assert doc["failing_trials"] == []
