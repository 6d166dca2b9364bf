"""The campaign kernel and the table-driven CLI built on it.

Kernel behaviour (seeding, shrink order, reproducer contract) is pinned
on a toy campaign with no simulator behind it; everything that must
hold for *every* registered campaign — the CLI round-trip, the exit
codes, malformed-reproducer handling — is parametrized over the CLI's
campaign table, so a fifth campaign is covered by adding its row.  The
``steady`` campaign in the middle is the proof that one *is* small: a
real broadcast campaign declared on :class:`Trial` alone.
"""

import json
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.cli import CAMPAIGNS, load_campaign, main
from repro.core.accelerator import DEPLOYMENTS
from repro.harness.campaign import (Campaign, CampaignConfig, JsonCodec,
                                    Trial, greedy_drop, trial_rng)


# ---------------------------------------------------------------------------
# a toy campaign: fails while "bad" is scheduled and >= 2 messages remain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyConfig(CampaignConfig):
    messages: int = 4
    lanes: Tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class ToyOps:
    events: Tuple[str, ...]
    noise: Tuple[int, ...]


@dataclass(frozen=True)
class ToySchedule:
    trial_seed: int
    offsets: Tuple[float, ...]
    ops: ToyOps

    def to_dict(self):
        return {"trial_seed": self.trial_seed, "offsets": list(self.offsets),
                "ops": {"events": list(self.ops.events),
                        "noise": list(self.ops.noise)}}

    @classmethod
    def from_dict(cls, d):
        return cls(d["trial_seed"], tuple(d["offsets"]),
                   ToyOps(tuple(d["ops"]["events"]),
                          tuple(d["ops"]["noise"])))


PROBES = []


def toy_generate(cfg, rng):
    events = ["ok-a", "bad", "ok-b"] if rng.random() < 0.5 else ["ok-a"]
    return ToySchedule(rng.randrange(1 << 31),
                       tuple(float(i) for i in range(cfg.messages)),
                       ToyOps(tuple(events), (1, 2)))


def toy_trial(cfg, schedule, trial_index=0):
    PROBES.append(schedule)
    failing = "bad" in schedule.ops.events and len(schedule.offsets) >= 2
    return {"trial": trial_index, "failing": failing,
            "why": "bad event" if failing else ""}


TOY = Campaign(name="toy", config_cls=ToyConfig, schedule_cls=ToySchedule,
               generate=toy_generate, run_trial=toy_trial,
               droppable=("ops.events", "ops.noise"), trailing=("offsets",),
               extras=("why",))


def test_trial_rng_is_deterministic_and_per_trial():
    assert trial_rng(7, 3).random() == trial_rng(7, 3).random()
    draws = {trial_rng(s, t).random() for s in (1, 2) for t in range(4)}
    assert len(draws) == 8


def test_greedy_drop_keeps_only_what_the_failure_needs():
    kept, cand = greedy_drop([1, 2, 3, 4], tuple, lambda c: 3 in c)
    assert kept == [3] and cand == (3,)
    kept, cand = greedy_drop([1, 2], tuple, lambda c: False)
    assert kept == [1, 2] and cand == (1, 2)


def test_shrink_probes_droppable_fields_in_order_then_trailing_messages():
    sched = ToySchedule(9, (0.0, 1.0, 2.0, 3.0),
                        ToyOps(("ok-a", "bad", "ok-b"), (1, 2)))
    del PROBES[:]
    minimal = TOY.shrink(ToyConfig(), sched)
    assert minimal.ops == ToyOps(("bad",), ())
    assert minimal.offsets == (0.0, 1.0)
    # Probe order is part of the reproducer contract (it decides which
    # minimal schedule a campaign reports): nested events first, then
    # noise, then the message tail — the last probe is the rejected one.
    assert [len(p.ops.events) for p in PROBES[:3]] == [2, 1, 1]
    assert len(PROBES[-1].offsets) == 1


def test_run_packages_a_replayable_reproducer(tmp_path):
    doc = TOY.run(ToyConfig(), seed=1, trials=6)
    assert doc["failing_trials"]
    assert [r["trial"] for r in doc["records"]] == list(range(6))
    assert doc == TOY.run(ToyConfig(), seed=1, trials=6)
    rep = doc["reproducers"][0]
    assert rep["kind"] == TOY.kind == "cepheus-toy-reproducer"
    assert rep["trial"] == doc["failing_trials"][0]
    assert rep["why"] == "bad event"
    assert rep["config"] == {"messages": 4, "lanes": [0, 1]}
    path = tmp_path / "toy.json"
    # a config dumped by a build with more knobs still loads
    path.write_text(json.dumps(
        dict(rep, config=dict(rep["config"], future_knob=1))))
    cfg, sched = TOY.load(str(path))
    assert cfg == ToyConfig()               # list -> tuple, like the default
    assert sched.ops.events == ("bad",)
    assert TOY.replay(str(path))["failing"]
    unshrunk = TOY.run(ToyConfig(), seed=1, trials=6, shrink=False)
    assert len(unshrunk["reproducers"][0]["schedule"]["offsets"]) == 4


# ---------------------------------------------------------------------------
# the one JSON form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Leg(JsonCodec):
    hop: str
    at: float


@dataclass(frozen=True)
class Route(JsonCodec):
    trial_seed: int
    legs: Tuple[Leg, ...]
    span: Tuple[int, float]
    tags: Tuple = ()
    detours: Tuple[Leg, ...] = ()


def test_codec_is_driven_by_the_field_declarations():
    route = Route(7, (Leg("a", 0.5), Leg("b", 1.5)), (2, 0.25))
    doc = route.to_dict()
    # nested dataclasses -> objects, tuples -> lists, and a field left
    # at its empty default is not written (so adding one re-hashes
    # nothing that does not use it)
    assert doc == {"trial_seed": 7, "span": [2, 0.25],
                   "legs": [{"hop": "a", "at": 0.5}, {"hop": "b", "at": 1.5}]}
    assert Route.from_dict(json.loads(json.dumps(doc))) == route
    full = Route(7, (), (2, 0.25), ("x", 1), (Leg("c", 2.0),))
    assert full.to_dict()["detours"] == [{"hop": "c", "at": 2.0}]
    assert Route.from_dict(dict(full.to_dict(), future_key=1)) == full
    with pytest.raises(TypeError):              # no default to fall back on
        Route.from_dict({"trial_seed": 7, "legs": []})
    with pytest.raises(ValueError):             # fixed-arity tuple
        Route.from_dict(dict(doc, span=[2]))


# ---------------------------------------------------------------------------
# a campaign in forty lines: steady traffic on Trial, nothing else
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyConfig(CampaignConfig):
    topo: str = "fat_tree"
    hosts: int = 8
    k: int = 4
    messages: int = 3
    msg_packets: int = 8
    horizon: float = 0.01
    loss_rate: float = 0.0
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    deployment: str = "inline"
    paths: int = 1


@dataclass(frozen=True)
class SteadySchedule(JsonCodec):
    trial_seed: int
    offsets: Tuple[float, ...]


def steady_generate(cfg, rng):
    return SteadySchedule(rng.randrange(1 << 31), tuple(sorted(
        round(rng.uniform(0.0, 0.5) * cfg.horizon, 9)
        for _ in range(cfg.messages))))


def steady_trial(cfg, schedule, trial_index=0):
    n = len(schedule.offsets)
    with Trial(cfg, schedule.trial_seed, paths=cfg.paths) as t:
        done = t.drive((t.leader,) * n, schedule.offsets)
        t.run()
        violations = t.sweep()
        # the oracle: every receiver has every message, exactly once
        exactly_once = dict(t.deliveries) == {ip: n for ip in t.members[1:]}
        return {"trial": trial_index, "completed": len(done),
                "violations": violations, "exactly_once": exactly_once,
                "failing": bool(violations) or len(done) < n
                or not exactly_once or not t.algo.send_idle}


STEADY = Campaign(name="steady", config_cls=SteadyConfig,
                  schedule_cls=SteadySchedule, generate=steady_generate,
                  run_trial=steady_trial, droppable=(), trailing=("offsets",),
                  extras=("violations",))


@pytest.mark.parametrize("paths", [1, 2])
@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_steady_campaign_is_clean_on_every_deployment_and_lane_count(
        deployment, paths):
    cfg = SteadyConfig(deployment=deployment, paths=paths)
    doc = STEADY.run(cfg, seed=3, trials=2)
    assert doc["failing_trials"] == [], doc["records"]
    assert [r["completed"] for r in doc["records"]] == [cfg.messages] * 2
    assert doc == STEADY.run(cfg, seed=3, trials=2)


def test_steady_oracle_bites_and_its_reproducer_round_trips(tmp_path):
    """The same declaration, starved: a horizon too short for the last
    message must fail, shrink and replay like any other campaign."""
    cfg = SteadyConfig(horizon=2e-5)
    doc = STEADY.run(cfg, seed=3, trials=1)
    assert doc["failing_trials"] == [0]
    path = tmp_path / "steady.json"
    path.write_text(json.dumps(doc["reproducers"][0]))
    assert STEADY.load(str(path))[0].horizon == cfg.horizon
    assert STEADY.replay(str(path))["failing"]


# ---------------------------------------------------------------------------
# every registered campaign, through the CLI
# ---------------------------------------------------------------------------

#: The smallest configuration of each campaign that still moves traffic.
TINY = {
    "chaos": ["--trials", "1", "--hosts", "4", "--members", "4",
              "--messages", "2", "--msg-packets", "4", "--incidents-max", "1",
              "--horizon", "0.01"],
    "churn": ["--trials", "1", "--seed", "11"],
    "broker": ["--trials", "1", "--topo", "star", "--hosts", "8",
               "--topics", "3", "--min-subs", "2", "--max-subs", "4",
               "--msg-size", "16384", "--publish-rate", "20000",
               "--churn-rate", "1500", "--cross-rate", "1500",
               "--cross-size", "32768", "--horizon", "0.005"],
    "fuzz": ["--budget-trials", "2", "--messages", "2", "--msg-packets", "4",
             "--incidents-max", "1", "--horizon", "0.02"],
}


def test_every_campaign_has_a_tiny_config():
    assert set(TINY) == set(CAMPAIGNS)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_cli_run_writes_campaign_document(name, tmp_path):
    out = tmp_path / "campaign.json"
    rdir = tmp_path / "repros"
    rc = main([name, "run", *TINY[name],
               "--out", str(out), "--repro-dir", str(rdir)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["records"]
    assert doc["failing_trials"] == [] and doc["reproducers"] == []
    assert not rdir.exists()          # nothing failed: nothing written


#: The seeded bug (``CEPHEUS_SEEDED_BUG``) each blind preset's tiny run
#: must find.
SEEDED_BUGS = [("chaos", "psn-skip"), ("churn", "no-failure-detector")]


@pytest.mark.parametrize("name, mutation", SEEDED_BUGS)
def test_cli_armed_mutation_fails_and_its_reproducer_replays(
        name, mutation, tmp_path, capsys, monkeypatch):
    rdir = tmp_path / "repros"
    monkeypatch.setenv("CEPHEUS_SEEDED_BUG", mutation)
    rc = main([name, "run", *TINY[name],
               "--out", str(tmp_path / "c.json"), "--repro-dir", str(rdir)])
    assert rc == 3
    (path,) = sorted(rdir.glob(f"{name}-seed*-t0.json"))
    assert json.loads(path.read_text())["kind"] == load_campaign(name).kind
    capsys.readouterr()
    assert main([name, "replay", str(path)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["failing"]
    assert "still failing" in captured.err
    monkeypatch.delenv("CEPHEUS_SEEDED_BUG")
    assert main([name, "replay", str(path)]) == 0


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_cli_unknown_mutation_is_a_usage_error(name, capsys):
    """Self-tests arm a seeded bug through the environment; no campaign
    takes a mutation flag."""
    with pytest.raises(SystemExit) as exc:
        main([name, "run", "--mutate", "psn-skip"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mutate" in capsys.readouterr().err


@pytest.mark.parametrize("name, preset", [("chaos", "CHAOS"),
                                          ("churn", "CHURN")])
def test_preset_run_without_flags_runs_the_preset(name, preset, tmp_path):
    from repro.harness import fuzz

    out = tmp_path / "c.json"
    assert main([name, "run", "--trials", "0", "--out", str(out)]) == 0
    assert (json.loads(out.read_text())["config"]
            == getattr(fuzz, preset).to_dict())


def _malformed(kind: str, case: str) -> str:
    """File text of one malformed ``kind`` document."""
    whole = {"kind": kind, "config": {}, "schedule": {"trial_seed": 1}}
    return {
        "non-object": "[1, 2]",
        "wrong-kind": json.dumps(dict(whole, kind="something-else")),
        "missing-schedule": json.dumps({"kind": kind, "config": {}}),
        "malformed-schedule": json.dumps(whole),
        "truncated": json.dumps(whole)[:-9],
    }[case]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
@pytest.mark.parametrize("case", ["non-object", "wrong-kind",
                                  "missing-schedule", "malformed-schedule",
                                  "truncated"])
def test_malformed_reproducer_is_rejected_not_a_traceback(
        name, case, tmp_path, capsys):
    campaign = load_campaign(name)
    path = tmp_path / "bad.json"
    path.write_text(_malformed(campaign.kind, case))
    with pytest.raises(ValueError, match="bad.json"):
        campaign.load(str(path))
    assert main([name, "replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{name}: cannot replay") and err.count("\n") == 1


@pytest.mark.parametrize("case", ["non-object", "missing-schedule",
                                  "truncated"])
def test_malformed_corpus_input_is_rejected_not_a_traceback(
        case, tmp_path, capsys):
    """A corpus input goes through the reproducer reader, so the same
    faults get the same treatment on all three corpus-reading paths."""
    from repro.harness.fuzz import CORPUS_KIND, load_corpus

    (tmp_path / "input-bad.json").write_text(_malformed(CORPUS_KIND, case))
    with pytest.raises(ValueError, match="input-bad.json"):
        load_corpus(str(tmp_path))
    for argv in (["fuzz", "replay", str(tmp_path)],
                 ["fuzz", "corpus", "--corpus", str(tmp_path)],
                 ["fuzz", "run", "--budget-trials", "1",
                  "--corpus", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input-bad.json" in err and err.count("\n") == 1
