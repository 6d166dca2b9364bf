"""Lane-aware fuzzing: the k-differential oracle and lane-kill mutation.

The deployment-differential oracle already runs inside each trial;
this file adds the *lane-count* differential — the same schedule run
at paths 1, 2 and 4 must deliver the same bytes to the same receivers
— plus the lane-kill scheduling/sanitization contract and the corpus
hash-stability guarantee (pre-lane inputs keep their content hashes).
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.check import CoverageMap
from repro.constants import MTU_BYTES
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


def _bytes_by_ip(spans):
    """Collapse delivered spans to {ip: {message ordinal: byte total}}."""
    out = {}
    for ip, deliveries in spans.items():
        for ordinal, _offset, length in deliveries:
            per_msg = out.setdefault(ip, {})
            per_msg[ordinal] = per_msg.get(ordinal, 0) + length
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
            results[paths] = _bytes_by_ip(run["spans"])
        assert results[1] == results[2] == results[4]

    def test_sprayed_spans_are_the_lane_ranges(self):
        """On a sprayed group a receiver's spans of a message are the
        lane ranges it was reassembled from, sorted by offset: one per
        lane, tiling the message, so ``diff-payload`` sees the split."""
        cfg = _cfg(2)
        shape = _Shape(cfg)
        run = _run_one_deployment(cfg, _clean_schedule(cfg, shape),
                                  "inline", CoverageMap())
        size = cfg.msg_packets * MTU_BYTES
        assert set(run["spans"]) == set(shape.initial[1:])
        for spans in run["spans"].values():
            for i in (0, 1):
                ranges = [(o, n) for j, o, n in spans if j == i]
                assert len(ranges) == cfg.paths
                ends = [0] + [o + n for o, n in ranges]
                assert [o for o, _ in ranges] == ends[:-1]
                assert ends[-1] == size

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

    def test_a_span_handed_twice_fails_delivery_count(self, monkeypatch):
        """Lane-kill trials are checked like any other: a reassembler
        that hands receiver 3 one message twice over-delivers."""
        from repro.transport.spray import LaneReassembler

        cfg = _cfg(2)
        shape = _Shape(cfg)
        schedule = _sanitize(cfg, shape, replace(
            _clean_schedule(cfg, shape),
            lane_kills=((1, 0.004, 0.02),)))
        assert run_fuzz_trial(cfg, schedule)["fail_reasons"] == []
        on_message = LaneReassembler.on_message

        def twice(self, msg_id, nbytes, now, meta):
            before = len(self._completed)
            on_message(self, msg_id, nbytes, now, meta)
            if self.ip == 3 and len(self._completed) == 1 > before:
                total = meta[5]
                self.bus.publish("lane_complete", self, meta[1], self.ip,
                                 total, [(0, total, meta[2])])

        monkeypatch.setattr(LaneReassembler, "on_message", twice)
        packets = cfg.msg_packets
        assert run_fuzz_trial(cfg, schedule)["fail_reasons"] == [
            f"delivery-count:{dep}:3:{3 * packets}/{2 * packets}"
            for dep in cfg.deployments]

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


@pytest.mark.slow
def test_paths2_census_cell_owes_every_copy_it_sees():
    """The fault census's paths-2 cell (``Random(2026)``, 200 draws):
    no receiver's copies fall outside its owed interval.  Before spans,
    12 trials failed ``delivery-count 28/24`` on re-sprayed bytes the
    reassembler drops."""
    cfg = FuzzConfig(topo="fat_tree", k=4, hosts=16, initial_members=6,
                     messages=3, paths=2, leaves_max=2, joins_max=2)
    rng = random.Random(2026)
    classes = Counter()
    for i in range(200):
        rec = run_fuzz_trial(cfg, generate_fuzz_schedule(cfg, rng), i)
        classes.update({r.split(":")[0] for r in rec["fail_reasons"]})
    assert not {"delivery-count", "final-epoch"} & set(classes), classes
