"""The fuzz campaign's chaos preset: failure incidents on one deployment,
every host a member, no churn — determinism, shrinking, reproducer
round-trip, the ``psn-skip`` seeded bug and the deployment flag."""

import json
import random
from dataclasses import replace

import pytest

from repro.harness.campaign import Incident
from repro.harness.fuzz import (CAMPAIGN, CHAOS, FuzzSchedule,
                                generate_fuzz_schedule, run_fuzz_trial)

# Small-but-real: enough horizon for an incident + RTO recovery.
QUICK = replace(CHAOS, hosts=4, initial_members=4, messages=2,
                msg_packets=4, incidents_max=1, horizon=0.01)


def test_schedule_generation_is_deterministic():
    s1 = generate_fuzz_schedule(QUICK, random.Random(123))
    s2 = generate_fuzz_schedule(QUICK, random.Random(123))
    assert s1 == s2
    s3 = generate_fuzz_schedule(QUICK, random.Random(124))
    assert s3 != s1
    assert s1.churn == ()              # the preset schedules no churn


def test_blind_trials_carry_every_incident():
    """``chaos run`` draws ``incidents_max`` incidents per trial, on
    distinct devices."""
    for seed in range(10):
        sched = CAMPAIGN.generate(CHAOS, random.Random(seed))
        devices = {inc.target[:2] for inc in sched.incidents}
        assert len(devices) == len(sched.incidents) == CHAOS.incidents_max


def test_schedule_json_round_trip():
    sched = generate_fuzz_schedule(QUICK, random.Random(5))
    doc = json.dumps(sched.to_dict(), sort_keys=True)
    back = FuzzSchedule.from_dict(json.loads(doc))
    assert back == sched


def test_trial_is_bit_for_bit_deterministic():
    sched = generate_fuzz_schedule(QUICK, random.Random(9))
    r1 = run_fuzz_trial(QUICK, sched)
    r2 = run_fuzz_trial(QUICK, sched)
    assert (json.dumps(r1, sort_keys=True)
            == json.dumps(r2, sort_keys=True))


def test_trial_survives_incidents_and_delivers():
    sched = _with_incident(Incident(kind="host", target=("host", 2),
                                    at=0.0005, repair_at=0.003))
    rec = run_fuzz_trial(QUICK, sched)
    (run,) = rec["deployments"]
    assert run["deployment"] == "inline"
    assert run["completed"] == QUICK.messages
    assert run["violations"] == []
    assert rec["fail_reasons"] == [] and not rec["failing"]
    # every member but the source is a stable receiver the exactly-once
    # and delivery-count checks covered
    assert rec["stable_receivers"] == [1, 2, 3, 4]


def _with_incident(inc):
    base = generate_fuzz_schedule(QUICK, random.Random(1))
    return replace(base, incidents=(inc,))


def test_incident_kinds_cover_and_repair():
    """Each incident kind individually: fail + repair, clean delivery."""
    kinds = {
        "host": ("host", 2),
        "switch": ("switch", "sw0"),
        "loss": ("loss", "sw0", 0.2),
    }
    for kind, target in kinds.items():
        inc = Incident(kind=kind, target=target, at=0.0005,
                       repair_at=0.003)
        rec = run_fuzz_trial(QUICK, _with_incident(inc))
        assert not rec["failing"], (kind, rec["fail_reasons"])


def test_mutated_trial_fails_and_shrinks_to_minimum(monkeypatch):
    """End-to-end self-test: the psn-skip seeded bug must (a) be caught,
    (b) survive shrinking, and (c) shrink away all irrelevant incidents."""
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "psn-skip")
    cfg = replace(QUICK, incidents_max=2)
    sched = next(s for s in (generate_fuzz_schedule(cfg, random.Random(n))
                             for n in range(20)) if s.incidents)
    rec = run_fuzz_trial(cfg, sched)
    assert rec["failing"]
    assert "invariant:inline:psn-contiguity" in rec["fail_reasons"]
    minimal = CAMPAIGN.shrink(cfg, sched)
    # the seeded bug alone causes the failure: no incident is needed
    assert minimal.incidents == ()
    # the skip lands mid-message-2, so both messages must remain
    assert len(minimal.sources) == 2
    assert run_fuzz_trial(cfg, minimal)["failing"]


def test_campaign_packages_reproducer(tmp_path, monkeypatch):
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "psn-skip")
    camp = CAMPAIGN.run(QUICK, seed=2, trials=1)
    assert camp["failing_trials"] == [0]
    (rep,) = camp["reproducers"]
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(rep, sort_keys=True))
    cfg2, sched2 = CAMPAIGN.load(str(path))
    assert cfg2 == QUICK
    assert run_fuzz_trial(cfg2, sched2)["failing"]


def test_campaign_clean_when_unmutated():
    camp = CAMPAIGN.run(QUICK, seed=11, trials=2)
    assert camp["failing_trials"] == []
    assert camp["reproducers"] == []


def test_load_reproducer_rejects_other_json(tmp_path):
    path = tmp_path / "not_a_repro.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError):
        CAMPAIGN.load(str(path))


def test_cli_chaos_run_and_replay(tmp_path, monkeypatch):
    from repro.cli import main

    out = tmp_path / "campaign.json"
    rdir = tmp_path / "repros"
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "psn-skip")
    rc = main(["chaos", "run", "--seed", "2", "--trials", "1",
               "--hosts", "4", "--members", "4", "--messages", "2",
               "--msg-packets", "4", "--incidents-max", "1",
               "--horizon", "0.01",
               "--out", str(out), "--repro-dir", str(rdir)])
    assert rc == 3  # failures found
    files = sorted(rdir.glob("*.json"))
    assert len(files) == 1
    rc = main(["chaos", "replay", str(files[0])])
    assert rc == 3  # still failing (the bug is still seeded)
    doc = json.loads(out.read_text())
    assert doc["failing_trials"] == [0]
    monkeypatch.delenv("CEPHEUS_SEEDED_BUG")
    assert main(["chaos", "replay", str(files[0])]) == 0


# ---------------------------------------------------------------------------
# deployment-parameterized campaigns
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("deployment", ["lookaside", "source_routed"])
def test_campaign_clean_under_alternate_deployments(deployment):
    cfg = replace(QUICK, deployments=(deployment,))
    camp = CAMPAIGN.run(cfg, seed=7, trials=2)
    assert camp["failing_trials"] == [], camp
    assert camp["reproducers"] == []


def test_source_routed_campaign_trial_covers_sp_forward():
    """Regression: a source-routed chaos trial must actually route
    packets through the ``sp_forward`` step — if the deployment knob
    silently fell back to inline, the header-driven path would go
    untested by every campaign."""
    from repro.check import CoverageMap
    from repro.harness.campaign import Trial

    cfg = replace(QUICK, deployments=("source_routed",))
    sched = _with_incident(Incident(kind="switch", target=("switch", "sw0"),
                                    at=0.0005, repair_at=0.003))
    cov = CoverageMap()
    with Trial(cfg, sched.trial_seed, deployment="source_routed",
               coverage=cov) as t:
        t.install(incidents=sched.incidents)
        done = t.drive(sched.sources, sched.offsets)
        t.run()
        assert t.sweep() == []
        # every incident window closed by the horizon
        assert t.injector.active_failures == 0
    assert len(done) == cfg.messages
    assert sum(a.sr_header_hits
               for a in t.cluster.fabric.accelerators.values()) > 0
    keys = cov.to_list()
    # and none of the coverage claims a different deployment ran
    assert all("/inline/" not in k and "/lookaside/" not in k
               for k in keys)


def test_cli_chaos_run_accepts_deployment_flag(tmp_path):
    from repro.cli import main

    out = tmp_path / "campaign.json"
    rc = main(["chaos", "run", "--seed", "7", "--trials", "1",
               "--hosts", "4", "--members", "4", "--messages", "2",
               "--msg-packets", "4", "--incidents-max", "1",
               "--horizon", "0.01",
               "--deployment", "source_routed", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["deployments"] == ["source_routed"]
    assert doc["failing_trials"] == []
