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
from dataclasses import replace

import pytest

from repro.constants import MTU_BYTES
from repro.harness.campaign import ChurnEvent, Incident
from repro.harness.fuzz import (CAMPAIGN, CHAOS, CHURN, FuzzConfig,
                                FuzzSchedule, MUTATIONS, crossover_schedules,
                                generate_fuzz_schedule, load_corpus,
                                mutate_schedule, replay_corpus, run_fuzz,
                                run_fuzz_trial, save_corpus)
from repro.harness.fuzz import _Shape, _sanitize

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
    joiners, leavers, crashed = set(), set(), set()
    for ev in sched.churn:
        assert 0.0 <= ev.at <= 0.6 * cfg.horizon + 1e-12
        if ev.kind == "join":
            assert ev.ip in shape.outsiders
            assert ev.ip not in joiners
            joiners.add(ev.ip)
        elif ev.kind == "leave":
            assert ev.ip in shape.initial and ev.ip not in protected
            assert ev.ip not in leavers
            leavers.add(ev.ip)
        else:
            assert ev.kind == "crash"
            assert ev.ip in shape.initial and ev.ip not in protected
            crashed.add(ev.ip)
            # a message is posted after the last crash
            assert sched.offsets[-1] > ev.at
    assert len(crashed) <= cfg.crashes_max
    assert not crashed & leavers
    assert len(shape.initial) - len(leavers) - len(crashed) >= 2
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


def test_crash_schedules_respect_the_validity_contract():
    cfg = replace(QUICK, crashes_max=2)
    shape = _Shape(cfg)
    kinds = set()
    for seed in range(40):
        sched = generate_fuzz_schedule(cfg, random.Random(seed), shape)
        _assert_valid(cfg, shape, sched)
        kinds.update(e.kind for e in sched.churn)
        # a crash-free config draws the same schedule minus the crashes
        plain = generate_fuzz_schedule(QUICK, random.Random(seed), shape)
        if not any(e.kind == "crash" for e in sched.churn):
            assert plain == sched
    assert kinds == {"join", "leave", "crash"}
    for seed in range(80):
        _assert_valid(cfg, shape, mutate_schedule(
            cfg, sched, random.Random(seed), shape))


def test_crashes_are_admitted_only_within_the_contract():
    shape = _Shape(CHURN)
    base = FuzzSchedule(trial_seed=1, sources=(1, 1), offsets=(0.0, 0.001),
                        incidents=(), churn=())
    crash = ChurnEvent("crash", 3, 0.004)
    # a crash-free config drops it; the preset keeps it and posts the
    # last message after it
    assert _sanitize(replace(CHURN, crashes_max=0), shape,
                     replace(base, churn=(crash,))).churn == ()
    kept = _sanitize(CHURN, shape, replace(base, churn=(crash,)))
    assert kept.churn == (crash,)
    assert kept.offsets == (0.0, round(0.004 + 0.05 * CHURN.horizon, 9))
    # never the leader, a source, a leaver or a second victim past the
    # cap; never with a single message
    for churn, sources in (((ChurnEvent("crash", 1, 0.004),), (1, 1)),
                           ((crash,), (1, 3)),
                           ((ChurnEvent("leave", 3, 0.002), crash), (1, 1)),
                           ((crash,), (1,))):
        out = _sanitize(CHURN, shape, replace(
            base, sources=sources, offsets=base.offsets[:len(sources)],
            churn=churn))
        assert all(e.kind != "crash" for e in out.churn), churn
    two = (crash, ChurnEvent("crash", 4, 0.005))
    assert len(_sanitize(replace(CHURN, crashes_max=2), shape,
                         replace(base, churn=two)).churn) == 2
    # ... and never below two initial members neither leaving nor
    # crashing (5 initial members: a leave and three crashes is too many)
    out = _sanitize(replace(CHURN, crashes_max=3), shape, replace(
        base, churn=(ChurnEvent("leave", 2, 0.001),) + two
        + (ChurnEvent("crash", 5, 0.006),)))
    assert [e.kind for e in out.churn] == ["leave", "crash", "crash"]


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


def test_single_deployment_trial_checks_delivery_counts(monkeypatch):
    """One deployment has no second run to diff payloads against, but a
    stable receiver that misses one ``deliver`` is still reported."""
    from repro.harness import fuzz
    from repro.net.pipeline import ObserverBus

    cfg = replace(QUICK, deployments=("inline",))
    sched = FuzzSchedule(trial_seed=5, sources=(1, 2), offsets=(0.0, 0.005),
                         incidents=(), churn=())
    assert run_fuzz_trial(cfg, sched)["fail_reasons"] == []
    subscribe = ObserverBus.subscribe

    def lossy_log(bus, channel, fn):
        if channel != "deliver" or fn.__module__ != fuzz.__name__:
            return subscribe(bus, channel, fn)
        missed = []

        def log(qp, pkt):
            if qp.nic.ip == 3 and not missed:
                missed.append(pkt)          # the receiver's log skips it
                return
            fn(qp, pkt)
        return subscribe(bus, channel, log)

    monkeypatch.setattr(ObserverBus, "subscribe", lossy_log)
    rec = run_fuzz_trial(cfg, sched)
    assert rec["fail_reasons"] == [f"delivery-count:inline:3:"
                                   f"{2 * cfg.msg_packets - 1}/"
                                   f"{2 * cfg.msg_packets}"]


def test_final_epoch_exactly_once_covers_joiners(monkeypatch):
    """A joiner is owed every message posted after its JOIN; one it
    never completes is reported, though no stable receiver missed a
    packet."""
    from repro.harness.campaign import Trial

    cfg = replace(QUICK, deployments=("inline",))
    sched = FuzzSchedule(trial_seed=5, sources=(1, 2), offsets=(0.0, 0.005),
                         incidents=(), churn=(ChurnEvent("join", 7, 0.002),))
    assert run_fuzz_trial(cfg, sched)["fail_reasons"] == []
    init = Trial.__init__

    def deaf_joiner(self, *args, **kwargs):
        init(self, *args, **kwargs)
        heard = self.algo.on_delivery

        def on_delivery(ip, *rest):
            if ip != 7:
                heard(ip, *rest)
        self.algo.on_delivery = on_delivery

    monkeypatch.setattr(Trial, "__init__", deaf_joiner)
    rec = run_fuzz_trial(cfg, sched)
    assert rec["fail_reasons"] == ["final-epoch:inline:7:0/1"]


def test_an_unresolved_join_on_a_healthy_fabric_is_still_owed(monkeypatch):
    """The in-flight-joiner widening needs an incident (or a failure):
    with none in the schedule, a joiner whose JOIN is still unresolved
    when the message completes is owed it, and one it never completes
    is reported."""
    from repro.core.membership import MembershipManager
    from repro.harness.campaign import Trial

    cfg = replace(QUICK, deployments=("inline",))
    sched = FuzzSchedule(trial_seed=5, sources=(1, 2), offsets=(0.0, 0.005),
                         incidents=(), churn=(ChurnEvent("join", 7, 0.002),))
    finished = MembershipManager._delta_finished

    def unresolved_join(self, delta):
        # The oracle never sees the JOIN resolve.
        hook = self.on_delta_done
        if delta.op == "join":
            self.on_delta_done = None
        finished(self, delta)
        self.on_delta_done = hook

    monkeypatch.setattr(MembershipManager, "_delta_finished", unresolved_join)
    assert _run(cfg, sched, "inline")["owed"][7] == [(0, 0), (1, 1)]
    assert run_fuzz_trial(cfg, sched)["fail_reasons"] == []
    init = Trial.__init__

    def deaf_joiner(self, *args, **kwargs):
        init(self, *args, **kwargs)
        heard = self.algo.on_delivery

        def on_delivery(ip, *rest):
            if ip != 7:
                heard(ip, *rest)
        self.algo.on_delivery = on_delivery

    monkeypatch.setattr(Trial, "__init__", deaf_joiner)
    assert run_fuzz_trial(cfg, sched)["fail_reasons"] == [
        "final-epoch:inline:7:0/1"]


def test_joiner_in_flight_under_an_incident_may_receive_the_message():
    """Census trial 21 (``Random(2026)``, fat_tree paths=1, the 22nd
    draw): 16's JOIN starts 3.8 us before message 2 is posted, while a
    loss window on ``edge3_0`` is open.  The delta resolves before the
    message completes, so the in-flight-joiner widening stays off: 16
    is owed message 2, and receives it."""
    cfg = FuzzConfig(topo="fat_tree", k=4, hosts=16, initial_members=6,
                     messages=3, paths=1, leaves_max=2, joins_max=2)
    sched = FuzzSchedule.from_dict({
        "trial_seed": 998634558, "sources": [5, 3, 3],
        "offsets": [0.0, 0.00949453, 0.019224261],
        "incidents": [{"kind": "loss", "target": ["loss", "edge3_0", 0.1644],
                       "at": 0.01822875, "repair_at": 0.025610884}],
        "churn": [{"kind": "join", "ip": 11, "at": 1.8893e-05},
                  {"kind": "leave", "ip": 4, "at": 0.00949649},
                  {"kind": "leave", "ip": 6, "at": 0.013504094},
                  {"kind": "join", "ip": 16, "at": 0.019220509}]})
    assert sched.content_hash().startswith("6b6ade325fdd")
    rng = random.Random(2026)
    assert [generate_fuzz_schedule(cfg, rng) for _ in range(22)][-1] == sched
    rec = run_fuzz_trial(cfg, sched, 21)
    assert rec["fail_reasons"] == []
    for dep in cfg.deployments:
        run = _run(cfg, sched, dep)
        assert run["owed"][16] == [(0, 0), (0, 0), (1, 1)]
        assert run["got"][16, 2] == cfg.msg_packets * MTU_BYTES


#: Trial 31 of the CI session ``fuzz run --seed 1 --budget-trials 50
#: --corpus tests/harness/corpus --frozen-corpus``: 8 joins at 9.54 ms
#: while the leader's host link is down, and message 2 is posted at
#: 10.26 ms with the JOIN still in flight.
HELD_JOIN = FuzzSchedule.from_dict({
    "trial_seed": 659890191, "sources": [1, 1, 3],
    "offsets": [0.0, 0.004447378, 0.010260902],
    "incidents": [{"kind": "host", "target": ["host", 1],
                   "at": 0.004626568, "repair_at": 0.009679439}],
    "churn": [{"kind": "leave", "ip": 6, "at": 0.00523726},
              {"kind": "join", "ip": 7, "at": 0.006467109},
              {"kind": "join", "ip": 8, "at": 0.009544069},
              {"kind": "leave", "ip": 2, "at": 0.009726876}]})
HELD_JOIN_CFG = FuzzConfig(msg_packets=6, horizon=0.03)


def _run(cfg, schedule, deployment):
    from repro.check import CoverageMap
    from repro.harness.fuzz import _run_one_deployment

    return _run_one_deployment(cfg, schedule, deployment, CoverageMap())


@pytest.mark.parametrize("deployment", ["inline", "lookaside",
                                        "source_routed"])
def test_a_join_unresolved_at_completion_widens_to_may(deployment):
    """The in-flight-joiner widening, and the trial that needs it: 8's
    JOIN is still in flight when message 2 completes without it, so 8
    may miss message 2 (it does: ROADMAP item 15(c)).  Census trial 21
    above is the narrow side: a JOIN resolved in time is owed."""
    assert HELD_JOIN.content_hash().startswith("cf378e69de60")
    run = _run(HELD_JOIN_CFG, HELD_JOIN, deployment)
    assert run["owed"][8] == [(0, 0), (0, 0), (0, 1)]
    assert run_fuzz_trial(replace(HELD_JOIN_CFG, deployments=(deployment,)),
                          HELD_JOIN)["fail_reasons"] == []


def test_a_failed_delta_never_resolves():
    """The failed-delta widening, and the corpus input that needs it:
    on ``input-70afedd06d29`` the leader's host link is cut, JOIN(7)
    and LEAVE(6) time out, and 7 stays in ``group.members`` yet hears
    nothing (ROADMAP item 15(a)).  A failed JOIN stays unresolved, so 7
    may miss every later message; a failed LEAVE keeps 6 leaving, so it
    may still hear one."""
    import os
    cfg, sched = next(
        entry for entry in load_corpus(os.path.join(
            os.path.dirname(__file__), "corpus"))
        if entry[1].content_hash().startswith("70afedd06d29"))
    for dep in cfg.deployments:
        run = _run(cfg, sched, dep)
        assert [op for op, _ip, _why in run["delta_failures"]] == [
            "leave", "join"]
        assert run["owed"][7] == [(0, 0), (0, 0), (0, 1)]
        assert run["owed"][6] == [(1, 1), (1, 1), (0, 1)]
    assert run_fuzz_trial(cfg, sched)["fail_reasons"] == []


def test_crash_passes_the_three_deployment_differential():
    """A crashed receiver is pruned on every deployment, and the stable
    receivers still see byte-identical delivery sequences."""
    cfg = replace(QUICK, crashes_max=1)
    sched = FuzzSchedule(trial_seed=5, sources=(1, 2), offsets=(0.0, 0.005),
                         incidents=(), churn=(ChurnEvent("crash", 4, 0.002),))
    assert _sanitize(cfg, _Shape(cfg), sched) == sched
    rec = run_fuzz_trial(cfg, sched)
    assert rec["fail_reasons"] == []
    assert [d["deployment"] for d in rec["deployments"]] == list(
        cfg.deployments)
    for dep in rec["deployments"]:
        assert dep["pruned"] == [4]
        assert dep["completed"] == 2
    # 4 is owed message 0 exactly, and nothing after its crash, on every
    # deployment, so its spans are diffed with the other receivers'.
    assert 4 in rec["stable_receivers"]


def test_joiner_is_owed_what_is_posted_after_its_batch_flushes():
    """A JOIN waiting in a coalescing window is re-based at the flush,
    past message 1 posted 10 us after it; without a window it is owed
    both messages.  Either way the oracle passes."""
    sched = FuzzSchedule(trial_seed=5, sources=(1, 1, 1),
                         offsets=(0.0, 0.002, 0.004), incidents=(),
                         churn=(ChurnEvent("join", 7, 0.00199),))
    for window, heard in ((200e-6, {2}), (None, {1, 2})):
        cfg = replace(QUICK, deployments=("inline",),
                      coalesce_window=window)
        assert run_fuzz_trial(cfg, sched)["fail_reasons"] == []
        assert _messages_heard(cfg, sched, "inline", 7) == heard


#: Crash of 3 while 5's host link is cut for 2.2 ms: the detector,
#: armed for the crash, prunes 5 as well.
OUTAGE = FuzzSchedule(
    trial_seed=1778837931, sources=(1, 1, 1),
    offsets=(0.0, 0.005493766, 0.016102851),
    incidents=(Incident("host", ("host", 5), 0.004203241, 0.006364862),),
    churn=(ChurnEvent("crash", 3, 0.010828051),))
OUTAGE_CFG = FuzzConfig(crashes_max=1, deployments=("inline",))


def test_only_a_crash_or_a_long_host_outage_excuses_a_prune():
    """The detector may prune a crash victim, or a receiver whose host
    link was cut for longer than its probe window; any other prune
    evicted a live receiver and fails the trial."""
    rec = run_fuzz_trial(OUTAGE_CFG, OUTAGE)
    assert rec["deployments"][0]["pruned"] == [3, 5]
    assert rec["fail_reasons"] == []
    blackhole = Incident("switch", ("switch", "sw0"), 0.0042, 0.0064)
    rec = run_fuzz_trial(OUTAGE_CFG, replace(OUTAGE, incidents=(blackhole,)))
    assert rec["fail_reasons"] == [f"spurious-prune:inline:{ip}"
                                   for ip in (2, 4, 5)]


def test_a_receiver_pruned_alive_may_be_readmitted():
    """The pruned-receiver widening, on ``OUTAGE``: 5 is pruned during
    its host outage and hears nothing after it, yet message 2 is only a
    *may*, so the model does not make the missing readmission (ROADMAP
    item 15(b)) correct.  3, pruned as crashed, is owed nothing."""
    run = _run(OUTAGE_CFG, OUTAGE, "inline")
    assert run["owed"][5] == [(1, 1), (0, 1), (0, 1)]
    assert run["owed"][3] == [(1, 1), (1, 1), (0, 0)]


def _messages_heard(cfg, schedule, deployment, ip):
    run = _run(cfg, schedule, deployment)
    return {ordinal for ordinal, _offset, _length in run["spans"].get(ip, [])}


@pytest.mark.xfail(strict=True, reason="a receiver pruned for a transient "
                   "outage is never readmitted (ROADMAP item 15(b))")
def test_receiver_repaired_after_its_prune_hears_later_messages():
    # Message 2 is posted 9.7 ms after 5's link came back.
    assert 2 in _messages_heard(OUTAGE_CFG, OUTAGE, "inline", 5)


@pytest.mark.xfail(strict=True, reason="a JOIN held up by an incident "
                   "misses the message posted while it is in flight "
                   "(ROADMAP item 15(c))")
@pytest.mark.parametrize("deployment", ["inline", "lookaside",
                                        "source_routed"])
def test_joiner_held_by_an_incident_hears_the_next_message(deployment):
    """``HELD_JOIN``: 8 is owed message 2 once item 15(c) makes the
    message wait for its admission."""
    assert 2 in _messages_heard(HELD_JOIN_CFG, HELD_JOIN, deployment, 8)


@pytest.mark.parametrize("cfg, bug", [
    (replace(CHAOS, hosts=4, initial_members=4, messages=2, msg_packets=4,
             incidents_max=2, horizon=0.01), "psn-skip"),
    (CHURN, "no-failure-detector"),
], ids=["psn-skip", "no-failure-detector"])
def test_preset_seeded_bug_is_found_shrunk_and_blamed(cfg, bug, monkeypatch):
    """Each preset's seeded bug fails a blind run, shrinks to the one op
    (or none) it needs, and its reproducer passes once the variable is
    unset — the oracle blames the bug, not the schedule."""
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", bug)
    doc = CAMPAIGN.run(cfg, seed=11, trials=1)
    assert doc["failing_trials"] == [0]
    rep = doc["reproducers"][0]
    minimal = FuzzSchedule.from_dict(rep["schedule"])
    if bug == "psn-skip":
        assert "invariant:inline:psn-contiguity" in rep["fail_reasons"]
        assert minimal.incidents == () and minimal.churn == ()
    else:
        assert any(r.startswith("unpruned:") for r in rep["fail_reasons"])
        assert [e.kind for e in minimal.churn] == ["crash"]
    assert run_fuzz_trial(cfg, minimal)["failing"]
    monkeypatch.delenv("CEPHEUS_SEEDED_BUG")
    assert run_fuzz_trial(cfg, minimal)["fail_reasons"] == []


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
