"""Lane-aware fuzzing: the k-differential oracle and lane-kill mutation.

The deployment-differential oracle already runs inside each trial;
this file adds the *lane-count* differential — the same schedule run
at paths 1, 2 and 4 must deliver the same bytes to the same receivers
— plus the lane-kill scheduling/sanitization contract and the corpus
hash-stability guarantee (pre-lane inputs keep their content hashes).
"""

import random

from dataclasses import replace

import pytest

from repro.check import CoverageMap
from repro.harness.campaign import ChurnEvent, Incident, Trial
from repro.harness.fuzz import (MUTATIONS, FuzzConfig, FuzzSchedule,
                                _run_one_deployment, _sanitize, _Shape,
                                generate_fuzz_schedule, mutate_schedule,
                                run_fuzz_trial)


def _cfg(paths, **kw):
    base = dict(topo="fat_tree", k=4, hosts=8, initial_members=6,
                messages=2, msg_packets=8, paths=paths)
    base.update(kw)
    return FuzzConfig(**base)


def _clean_schedule(cfg, shape):
    return _sanitize(cfg, shape, FuzzSchedule(
        trial_seed=5, sources=(shape.leader, shape.leader),
        offsets=(0.0, 0.002), incidents=(), churn=()))


def _bytes_by_ip(seq):
    """Collapse a delivery log to {ip: {message ordinal: byte total}}."""
    out = {}
    for key, deliveries in seq.items():
        ip = key[0] if isinstance(key, tuple) else key
        for ordinal, _psn, payload in deliveries:
            per_msg = out.setdefault(ip, {})
            per_msg[ordinal] = per_msg.get(ordinal, 0) + payload
    return out


class TestLaneCountDifferential:
    def test_same_bytes_at_k_1_2_4(self):
        results = {}
        for paths in (1, 2, 4):
            cfg = _cfg(paths)
            shape = _Shape(cfg)
            schedule = _clean_schedule(cfg, shape)
            run = _run_one_deployment(cfg, schedule, "inline",
                                      CoverageMap())
            assert run["completed"] == 2
            assert run["source_idle"]
            assert run["violations"] == []
            results[paths] = _bytes_by_ip(run["seq"])
        assert results[1] == results[2] == results[4]

    def test_full_trial_passes_at_k2(self):
        cfg = _cfg(2)
        shape = _Shape(cfg)
        doc = run_fuzz_trial(cfg, _clean_schedule(cfg, shape))
        assert not doc["failing"], doc["fail_reasons"]


class TestLaneKillScheduling:
    def test_lane_kill_trial_invariant_clean(self):
        cfg = _cfg(2)
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, replace(
            _clean_schedule(cfg, shape),
            lane_kills=((1, 0.004, 0.02),)))
        assert schedule.lane_kills
        doc = run_fuzz_trial(cfg, schedule)
        assert not doc["failing"], doc["fail_reasons"]
        for dep in cfg.deployments:
            assert f"lanekill/{dep}/installed" in doc["coverage"]

    def test_lane_kill_skipped_on_star(self):
        cfg = _cfg(2, topo="star")
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, replace(
            _clean_schedule(cfg, shape),
            lane_kills=((1, 0.004, 0.02),)))
        doc = run_fuzz_trial(cfg, schedule)
        assert not doc["failing"], doc["fail_reasons"]
        for dep in cfg.deployments:
            assert f"lanekill/{dep}/no-exclusive-uplink" in doc["coverage"]


class TestLeaveVersusLaneKill:
    @pytest.mark.xfail(strict=True, reason="ROADMAP 2a: LEAVE vs lane kill")
    def test_leave_during_a_lane_kill_settles(self):
        """A LEAVE issued while one of two lanes is severed must still
        settle its MRP delta.  Today every deployment reports
        ``delta-failure``; the fix turns this into a pass."""
        cfg = FuzzConfig(topo="fat_tree", k=4, hosts=16, initial_members=6,
                         messages=3, paths=2)
        schedule = FuzzSchedule(
            trial_seed=1302723026, sources=(1,), offsets=(0.0,),
            incidents=(), churn=(ChurnEvent("leave", 6, 0.017302655),),
            lane_kills=((1, 0.012097144, 0.020823036),))
        doc = run_fuzz_trial(cfg, schedule)
        assert not doc["failing"], doc["fail_reasons"]


class TestOverlappingFailureWindows:
    """A chaos link incident and a lane kill on the same uplink: the
    link is down for the union of the two windows — neither repair may
    revive it under the other, and the trial reports instead of dying
    on the second repair."""

    @pytest.mark.parametrize("incident, kill, far_end", [
        ((0.2, 0.5), (0.1, 0.3), False),    # the kill repairs first
        ((0.1, 0.3), (0.2, 0.5), False),    # the incident repairs first
        ((0.2, 0.5), (0.1, 0.3), True),     # ... named from the other end
    ])
    def test_link_is_down_for_the_union(self, incident, kill, far_end):
        cfg = _cfg(2, hosts=16, deployments=("inline",))
        h = cfg.horizon
        with Trial(cfg, 1, members=cfg.initial_members, paths=2) as t:
            sw, port = t.cluster.topo.lane_uplinks(t.leader, t.members, 2)[1]
            if far_end:
                sw, port = sw.ports[port].peer_device, sw.ports[port].peer_port
            schedule = FuzzSchedule(
                trial_seed=1, sources=(t.leader,) * 2, offsets=(0.0, 0.4 * h),
                incidents=(Incident("link", ("link", sw.name, port),
                                    incident[0] * h, incident[1] * h),),
                churn=(), lane_kills=((1, kill[0] * h, kill[1] * h),))
            t.install(schedule.incidents, lane_kills=schedule.lane_kills)
            down = []
            for at in (0.05, 0.15, 0.25, 0.35, 0.45, 0.55):
                t.sim.schedule(at * h, lambda: down.append(
                    t.injector.active_failures))
            t.run()
        assert down == [0, 1, 1, 1, 1, 0]
        doc = run_fuzz_trial(cfg, schedule)
        assert not doc["failing"], doc["fail_reasons"]


class TestSanitizeContract:
    def test_paths1_strips_lane_kills(self):
        cfg = _cfg(1)
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, replace(
            _clean_schedule(cfg, shape), lane_kills=((0, 0.01, 0.02),)))
        assert schedule.lane_kills == ()

    def test_k_lanes_force_leader_sources(self):
        cfg = _cfg(2)
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, FuzzSchedule(
            trial_seed=1, sources=(shape.initial[2], shape.initial[3]),
            offsets=(0.0, 0.001), incidents=(), churn=()))
        assert schedule.sources == (shape.leader, shape.leader)

    def test_never_kills_every_lane(self):
        cfg = _cfg(2)
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, replace(
            _clean_schedule(cfg, shape),
            lane_kills=((0, 0.004, 0.02), (1, 0.005, 0.02),
                        (0, 0.006, 0.02))))
        assert len(schedule.lane_kills) <= cfg.paths - 1
        lanes = [k[0] for k in schedule.lane_kills]
        assert len(lanes) == len(set(lanes))


class TestCorpusStability:
    def test_empty_lane_kills_omitted_from_dict(self):
        """Pre-lane corpus entries keep their content hashes."""
        cfg = _cfg(1)
        shape = _Shape(cfg)
        schedule = _clean_schedule(cfg, shape)
        d = schedule.to_dict()
        assert "lane_kills" not in d
        assert FuzzSchedule.from_dict(d) == schedule

    def test_lane_kills_round_trip(self):
        cfg = _cfg(2)
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, replace(
            _clean_schedule(cfg, shape), lane_kills=((1, 0.004, 0.02),)))
        again = FuzzSchedule.from_dict(schedule.to_dict())
        assert again == schedule
        assert again.content_hash() == schedule.content_hash()

    def test_lane_kill_mutation_inert_at_paths1(self):
        cfg = _cfg(1)
        shape = _Shape(cfg)
        assert "lane-kill" in MUTATIONS
        schedule = generate_fuzz_schedule(cfg, random.Random(3), shape)
        for seed in range(60):
            mutated = mutate_schedule(cfg, schedule, random.Random(seed),
                                      shape)
            assert mutated.lane_kills == ()

    def test_lane_kill_mutation_fires_at_k2(self):
        cfg = _cfg(2)
        shape = _Shape(cfg)
        schedule = _clean_schedule(cfg, shape)
        hit = False
        for seed in range(60):
            mutated = mutate_schedule(cfg, schedule, random.Random(seed),
                                      shape)
            if mutated.lane_kills:
                hit = True
                lane, at, repair_at = mutated.lane_kills[0]
                assert 0 <= lane < cfg.paths
                assert 0.0 <= at <= 0.55 * cfg.horizon + 1e-12
                assert at < repair_at <= 0.75 * cfg.horizon + 1e-12
        assert hit
