"""Coverage-guided fuzzer: determinism, validity, oracles, self-test.

The two properties everything else depends on are pinned hard here:
(1) a fuzzing session is a pure function of (config, seed, budget,
corpus) — bit-for-bit identical documents on re-run; (2) the mutation
self-test — a deliberately seeded protocol bug behind an env flag must
be *found* and *shrunk* within a CI-sized budget, or the fuzzer is
decoration.
"""

import json
import random

import pytest

from repro.harness.fuzz import (CAMPAIGN, FuzzConfig, FuzzSchedule,
                                MUTATIONS, crossover_schedules,
                                generate_fuzz_schedule, load_corpus,
                                mutate_schedule, replay_corpus, run_fuzz,
                                run_fuzz_trial, save_corpus)
from repro.harness.fuzz import _Shape

# Small-but-real: three deployments per trial, room for one incident
# and a couple of churn ops, short horizon.
QUICK = FuzzConfig(hosts=8, initial_members=6, messages=2, msg_packets=4,
                   incidents_max=1, joins_max=1, leaves_max=1,
                   horizon=0.02)


# ---------------------------------------------------------------------------
# schedules: generation, validity contract, serialization
# ---------------------------------------------------------------------------

def test_schedule_generation_is_deterministic():
    shape = _Shape(QUICK)
    s1 = generate_fuzz_schedule(QUICK, random.Random(7), shape)
    s2 = generate_fuzz_schedule(QUICK, random.Random(7), shape)
    assert s1 == s2
    assert s1.content_hash() == s2.content_hash()
    assert generate_fuzz_schedule(QUICK, random.Random(8), shape) != s1


def test_schedule_json_round_trip():
    sched = generate_fuzz_schedule(QUICK, random.Random(3))
    back = FuzzSchedule.from_dict(
        json.loads(json.dumps(sched.to_dict(), sort_keys=True)))
    assert back == sched
    assert back.content_hash() == sched.content_hash()


def _assert_valid(cfg, shape, sched):
    assert len(sched.sources) == len(sched.offsets)
    assert sched.offsets[0] == 0.0
    assert list(sched.offsets) == sorted(sched.offsets)
    protected = set(sched.sources) | {shape.leader}
    for s in sched.sources:
        assert s in shape.initial
    joiners, leavers = set(), set()
    for ev in sched.churn:
        assert 0.0 <= ev.at <= 0.6 * cfg.horizon + 1e-12
        if ev.kind == "join":
            assert ev.ip in shape.outsiders
            assert ev.ip not in joiners
            joiners.add(ev.ip)
        else:
            assert ev.kind == "leave"
            assert ev.ip in shape.initial and ev.ip not in protected
            assert ev.ip not in leavers
            leavers.add(ev.ip)
    assert len(sched.incidents) <= cfg.incidents_max
    targeted = set()
    for inc in sched.incidents:
        ident = (inc.kind, inc.target[1])
        assert ident not in targeted  # one incident per device
        targeted.add(ident)
        assert inc.at <= 0.55 * cfg.horizon + 1e-12
        assert inc.at < inc.repair_at <= 0.75 * cfg.horizon + 1e-12


def test_generated_schedules_respect_the_validity_contract():
    shape = _Shape(QUICK)
    for seed in range(40):
        sched = generate_fuzz_schedule(QUICK, random.Random(seed), shape)
        _assert_valid(QUICK, shape, sched)


def test_every_mutation_operator_preserves_validity():
    cfg = FuzzConfig(hosts=8, initial_members=6, messages=3, msg_packets=4,
                     incidents_max=2, joins_max=2, leaves_max=2,
                     horizon=0.02)
    shape = _Shape(cfg)
    sched = generate_fuzz_schedule(cfg, random.Random(1), shape)
    seen_ops = set()
    for seed in range(80):
        rng = random.Random(seed)
        # peek at the operator the mutator will draw, then rewind
        seen_ops.add(random.Random(seed).choice(MUTATIONS))
        sched2 = mutate_schedule(cfg, sched, rng, shape)
        _assert_valid(cfg, shape, sched2)
    assert seen_ops == set(MUTATIONS)  # 80 draws exercise the full menu


def test_crossover_keeps_parent_a_seed_and_plan():
    shape = _Shape(QUICK)
    a = generate_fuzz_schedule(QUICK, random.Random(1), shape)
    b = generate_fuzz_schedule(QUICK, random.Random(2), shape)
    child = crossover_schedules(QUICK, a, b, random.Random(3), shape)
    _assert_valid(QUICK, shape, child)
    assert child.trial_seed == a.trial_seed
    assert child.sources == a.sources


# ---------------------------------------------------------------------------
# trials: determinism + differential oracles on clean schedules
# ---------------------------------------------------------------------------

def test_trial_is_bit_for_bit_deterministic():
    sched = generate_fuzz_schedule(QUICK, random.Random(11))
    r1 = run_fuzz_trial(QUICK, sched)
    r2 = run_fuzz_trial(QUICK, sched)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_clean_trial_passes_both_oracles_across_deployments():
    sched = FuzzSchedule(trial_seed=5, sources=(1, 2), offsets=(0.0, 0.005),
                         incidents=(), churn=())
    rec = run_fuzz_trial(QUICK, sched)
    assert rec["fail_reasons"] == []
    assert not rec["failing"]
    assert len(rec["deployments"]) == 3
    # the payload oracle had material to compare
    assert rec["stable_receivers"] != []
    for dep in rec["deployments"]:
        assert dep["completed"] == 2
        assert dep["source_idle"]
    # coverage spans all three deployments
    for dep in ("inline", "lookaside", "source_routed"):
        assert any(k.startswith(f"fb/{dep}/") for k in rec["coverage"])
        assert any(k.startswith(f"trans/{dep}/") for k in rec["coverage"])


def test_churny_trial_with_incident_still_passes():
    """The hard case: schedule with failures + churn must come out clean
    on a correct implementation (recovery + MRP deltas settle in time)."""
    shape = _Shape(QUICK)
    for seed in (0, 4, 9):
        sched = generate_fuzz_schedule(QUICK, random.Random(seed), shape)
        rec = run_fuzz_trial(QUICK, sched)
        assert not rec["failing"], (seed, rec["fail_reasons"])


# ---------------------------------------------------------------------------
# the fuzz loop: determinism, admission, corpus evolution
# ---------------------------------------------------------------------------

def test_fuzz_session_is_fully_deterministic():
    d1 = run_fuzz(QUICK, seed=3, budget_trials=4)
    d2 = run_fuzz(QUICK, seed=3, budget_trials=4)
    d1.pop("_corpus"), d2.pop("_corpus")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_fuzz_admits_on_new_coverage_only():
    doc = run_fuzz(QUICK, seed=3, budget_trials=6)
    # trial 0 starts from empty global coverage: always admitted
    assert doc["records"][0]["admitted"]
    for rec in doc["records"]:
        assert rec["admitted"] == (rec["new_coverage"] > 0)
    assert doc["corpus_size"] == len(doc["corpus_hashes"])
    assert doc["corpus_size"] == len(doc["new_corpus_entries"])
    assert doc["coverage_keys"] > 0
    assert doc["failing_trials"] == []


def test_fuzz_replays_given_corpus_first():
    shape = _Shape(QUICK)
    corpus = [generate_fuzz_schedule(QUICK, random.Random(s), shape)
              for s in (1, 2)]
    doc = run_fuzz(QUICK, seed=9, budget_trials=3, corpus=corpus)
    assert [r["origin"] for r in doc["records"][:2]] == ["corpus", "corpus"]
    assert doc["records"][0]["schedule_hash"] == corpus[0].content_hash()
    assert doc["records"][2]["origin"] in ("mutate", "crossover", "generate")


# ---------------------------------------------------------------------------
# corpus persistence + parallel replay determinism
# ---------------------------------------------------------------------------

def test_corpus_save_load_round_trip(tmp_path):
    shape = _Shape(QUICK)
    scheds = [generate_fuzz_schedule(QUICK, random.Random(s), shape)
              for s in (1, 2, 3)]
    written = save_corpus(str(tmp_path), QUICK, scheds)
    assert len(written) == 3
    # idempotent: re-saving writes nothing new
    assert save_corpus(str(tmp_path), QUICK, scheds) == []
    entries = load_corpus(str(tmp_path))
    assert {s.content_hash() for _, s in entries} \
        == {s.content_hash() for s in scheds}
    assert all(c == QUICK for c, _ in entries)


def test_corpus_replay_signature_is_jobs_independent(tmp_path):
    shape = _Shape(QUICK)
    scheds = [generate_fuzz_schedule(QUICK, random.Random(s), shape)
              for s in (1, 2)]
    save_corpus(str(tmp_path), QUICK, scheds)
    seq = replay_corpus(str(tmp_path), jobs=1)
    par = replay_corpus(str(tmp_path), jobs=2)
    assert seq["inputs"] == par["inputs"] == 2
    assert seq["coverage_signature"] == par["coverage_signature"]
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)
    assert seq["failing"] == []


def test_checked_in_corpus_replays_clean_and_deterministically():
    """The committed corpus under tests/harness/corpus is a regression
    baseline: every input passes, twice, with identical signatures."""
    import os
    dirpath = os.path.join(os.path.dirname(__file__), "corpus")
    r1 = replay_corpus(dirpath)
    assert r1["inputs"] > 0
    assert r1["failing"] == []
    # Pinned: the digest covers every bus transition, feedback decision
    # and drop reason the 11 inputs reach, so a refactor that perturbs
    # event order fails here.  Re-pin only with a deliberate corpus or
    # protocol change.
    assert (r1["inputs"], r1["coverage_keys"]) == (11, 140)
    assert r1["coverage_signature"] == (
        "d99e72f3ead75e6a305cdacb24d5333d9a691a1c6324c937a6826a493171a1b7")
    r2 = replay_corpus(dirpath)
    assert r1["coverage_signature"] == r2["coverage_signature"]


# ---------------------------------------------------------------------------
# mutation self-test: the fuzzer must find the seeded bug
# ---------------------------------------------------------------------------

# Leaves are what trip the seeded bug (a swallowed MRP_CONFIRM in the
# source-routed leave path), so give the generator room to draw them.
SELFTEST = FuzzConfig(hosts=8, initial_members=6, messages=3, msg_packets=6,
                      horizon=0.03, leaves_max=2)


def test_seeded_bug_is_found_and_shrunk_within_ci_budget(monkeypatch):
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "sr-skip-leave-confirm")
    doc = run_fuzz(SELFTEST, seed=5, budget_trials=8, shrink=True)
    assert doc["failing_trials"], "fuzzer failed to find the seeded bug"
    rep = doc["reproducers"][0]
    assert any(r.startswith("delta-failure:source_routed")
               for r in rep["fail_reasons"]), rep["fail_reasons"]
    minimal = FuzzSchedule.from_dict(rep["schedule"])
    # shrinking strips everything but the triggering leave
    assert minimal.incidents == ()
    assert len(minimal.churn) == 1
    assert minimal.churn[0].kind == "leave"
    # the reproducer is standalone: re-running it still fails
    rec = run_fuzz_trial(SELFTEST, minimal)
    assert rec["failing"]


def test_seeded_bug_reproducer_passes_once_bug_is_fixed(monkeypatch):
    """Replaying the shrunk reproducer with the flag unset (the 'fixed'
    build) must come out clean — the oracle blames the bug, not the
    schedule."""
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "sr-skip-leave-confirm")
    doc = run_fuzz(SELFTEST, seed=5, budget_trials=8, shrink=True)
    minimal = FuzzSchedule.from_dict(doc["reproducers"][0]["schedule"])
    monkeypatch.delenv("CEPHEUS_SEEDED_BUG")
    rec = run_fuzz_trial(SELFTEST, minimal)
    assert not rec["failing"], rec["fail_reasons"]


def test_seeded_bug_off_by_default():
    """Guard against the flag leaking into normal runs: the exact
    shrunk schedule passes when the env var is absent."""
    import os
    assert "CEPHEUS_SEEDED_BUG" not in os.environ


# ---------------------------------------------------------------------------
# CLI: run / replay / corpus
# ---------------------------------------------------------------------------

def test_cli_fuzz_run_replay_and_corpus(tmp_path, capsys):
    from repro.cli import main

    corpus_dir = tmp_path / "corpus"
    out = tmp_path / "session.json"
    rc = main(["fuzz", "run", "--seed", "3", "--budget-trials", "4",
               "--messages", "2", "--msg-packets", "4",
               "--horizon", "0.02", "--incidents-max", "1",
               "--corpus", str(corpus_dir), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["failing_trials"] == []
    assert "_corpus" not in doc
    assert len(list(corpus_dir.glob("input-*.json"))) == doc["corpus_size"]

    rc = main(["fuzz", "corpus", "--corpus", str(corpus_dir)])
    assert rc == 0
    listing = capsys.readouterr().out
    for h in doc["corpus_hashes"]:
        assert h[:12] in listing

    replay_out = tmp_path / "replay.json"
    rc = main(["fuzz", "replay", str(corpus_dir), "--jobs", "1",
               "--out", str(replay_out)])
    assert rc == 0
    rep = json.loads(replay_out.read_text())
    assert rep["inputs"] == doc["corpus_size"]
    assert rep["failing"] == []


def test_cli_fuzz_run_packages_reproducer_on_failure(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", "sr-skip-leave-confirm")
    rdir = tmp_path / "repros"
    rc = main(["fuzz", "run", "--seed", "5", "--budget-trials", "8",
               "--leaves-max", "2", "--corpus", str(tmp_path / "c"),
               "--repro-dir", str(rdir)])
    assert rc == 3  # failures found
    files = sorted(rdir.glob("*.json"))
    assert files
    cfg, sched = CAMPAIGN.load(str(files[0]))
    assert run_fuzz_trial(cfg, sched)["failing"]
    # replaying through the CLI on the fixed build reports success
    monkeypatch.delenv("CEPHEUS_SEEDED_BUG")
    rc = main(["fuzz", "replay", str(files[0])])
    assert rc == 0
    assert not CAMPAIGN.replay(str(files[0]))["failing"]


def test_load_fuzz_reproducer_rejects_other_json(tmp_path):
    path = tmp_path / "not_a_repro.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError):
        CAMPAIGN.load(str(path))
