"""The campaign kernel and the table-driven CLI built on it.

Kernel behaviour (seeding, shrink order, reproducer contract) is pinned
on a toy campaign with no simulator behind it; everything that must
hold for *every* registered campaign — the CLI round-trip, the exit
codes, malformed-reproducer handling — is parametrized over the CLI's
campaign table, so a fifth campaign is covered by adding its row.
"""

import json
from dataclasses import dataclass
from typing import Tuple

import pytest

from repro.cli import CAMPAIGNS, load_campaign, main
from repro.harness.campaign import (Campaign, CampaignConfig, greedy_drop,
                                    trial_rng)


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
    assert cfg.messages == len(schedule.offsets)
    failing = "bad" in schedule.ops.events and len(schedule.offsets) >= 2
    return {"trial": trial_index, "failing": failing,
            "why": "bad event" if failing else ""}


TOY = Campaign(name="toy", config_cls=ToyConfig, schedule_cls=ToySchedule,
               generate=toy_generate, run_trial=toy_trial,
               droppable=("ops.events", "ops.noise"), trailing=("offsets",),
               count_field="messages", extras=("why",))


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
    cfg, minimal = TOY.shrink(ToyConfig(), sched)
    assert minimal.ops == ToyOps(("bad",), ())
    assert minimal.offsets == (0.0, 1.0)
    assert cfg.messages == 2          # count_field tracks the trim
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
    assert rep["config"] == {"messages": 2, "lanes": [0, 1]}
    path = tmp_path / "toy.json"
    # a config dumped by a build with more knobs still loads
    path.write_text(json.dumps(
        dict(rep, config=dict(rep["config"], future_knob=1))))
    cfg, sched = TOY.load(str(path))
    assert cfg == ToyConfig(messages=2)     # list -> tuple, like the default
    assert sched.ops.events == ("bad",)
    assert TOY.replay(str(path))["failing"]
    unshrunk = TOY.run(ToyConfig(), seed=1, trials=6, shrink=False)
    assert len(unshrunk["reproducers"][0]["schedule"]["offsets"]) == 4


# ---------------------------------------------------------------------------
# every registered campaign, through the CLI
# ---------------------------------------------------------------------------

#: The smallest configuration of each campaign that still moves traffic.
TINY = {
    "chaos": ["--trials", "1", "--hosts", "4", "--messages", "2",
              "--msg-packets", "4", "--incidents", "1", "--horizon", "0.01"],
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


MUTATIONS = [(name, m) for name in sorted(CAMPAIGNS)
             for m in load_campaign(name).mutations]


@pytest.mark.parametrize("name, mutation", MUTATIONS)
def test_cli_armed_mutation_fails_and_its_reproducer_replays(
        name, mutation, tmp_path, capsys):
    rdir = tmp_path / "repros"
    rc = main([name, "run", *TINY[name], "--mutate", mutation,
               "--out", str(tmp_path / "c.json"), "--repro-dir", str(rdir)])
    assert rc == 3
    (path,) = sorted(rdir.glob(f"{name}-seed*-t0.json"))
    assert json.loads(path.read_text())["kind"] == load_campaign(name).kind
    capsys.readouterr()
    assert main([name, "replay", str(path)]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["failing"]
    assert "still failing" in captured.err


@pytest.mark.parametrize("name", sorted({name for name, _ in MUTATIONS}))
def test_cli_unknown_mutation_is_a_usage_error(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "run", "--mutate", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
@pytest.mark.parametrize("case", ["non-object", "wrong-kind",
                                  "missing-schedule", "malformed-schedule"])
def test_malformed_reproducer_is_rejected_not_a_traceback(
        name, case, tmp_path, capsys):
    campaign = load_campaign(name)
    doc = {
        "non-object": [1, 2],
        "wrong-kind": {"kind": "something-else", "config": {},
                       "schedule": {}},
        "missing-schedule": {"kind": campaign.kind, "config": {}},
        "malformed-schedule": {"kind": campaign.kind, "config": {},
                               "schedule": {"trial_seed": 1}},
    }[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        campaign.load(str(path))
    assert main([name, "replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{name}: cannot replay") and err.count("\n") == 1
