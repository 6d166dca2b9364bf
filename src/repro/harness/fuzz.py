"""The one campaign: coverage-guided protocol fuzzing with differential
deployment oracles, and its blind-sampling presets.

Every randomized broadcast campaign in this repo is this module.  The
``fuzz`` loop keeps schedules that reach *new behavior* in a corpus and
mutates them further, the way fuzzbench-style fuzzers do; the
:data:`CHAOS` and :data:`CHURN` presets (``cepheus-repro chaos|churn
run``) sample blindly through :meth:`Campaign.run`, every trial loaded
to its caps.

* a **FuzzSchedule** is pure JSON-able data: incidents, churn ops
  (JOINs, LEAVEs and, up to ``crashes_max``, receiver crashes that
  only the failure detector can unstick), a per-message source plan
  (§III-E source switching), message offsets and lane kills;
* a **trial** runs the *same* schedule once per configured accelerator
  deployment (inline, look-aside, source-routed), each a kernel
  :class:`~repro.harness.campaign.Trial` under the invariant monitor
  and a :class:`~repro.check.CoverageCollector`;
* **the oracle** (:func:`run_fuzz_trial`) states each check once,
  from invariants and liveness through exactly-once per epoch and per
  stable receiver to byte-identical ``(message, psn, payload)``
  sequences across deployments — replication state may live inline,
  on a look-aside FPGA or in Elmo-style source headers, but the wire
  contract cannot change;
* the **fuzz loop** replays the corpus first, then mutates entries
  (:data:`MUTATIONS`), crosses pairs over or draws fresh schedules;
  failing schedules are shrunk by the shared kernel (through
  :data:`CAMPAIGN`) into JSON reproducers.

Self-tests arm a deliberate bug through ``CEPHEUS_SEEDED_BUG``:
``psn-skip`` (a PSN hole on the wire), ``no-failure-detector`` (a
crashed receiver is never pruned) and ``sr-skip-leave-confirm`` (in
:mod:`repro.core.accelerator`).  The variable is read when a trial
runs, so a reproducer replayed without it shows the bug is the cause.

Everything is deterministic: two ``fuzz run`` invocations write
bit-for-bit identical documents, whatever the replay ``--jobs``.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro import constants
from repro.analytic.models import NetModel, cepheus_jct
from repro.check import CoverageMap
from repro.core.accelerator import DEPLOYMENTS
from repro.core.membership import MembershipManager
from repro.harness.campaign import (Campaign, CampaignConfig, ChurnEvent,
                                    Incident, JsonCodec, Trial, build_cluster,
                                    draw_incident, enumerate_targets,
                                    read_document, trial_rng)
from repro.transport import qp as qp_state

__all__ = [
    "CAMPAIGN", "CHAOS", "CHURN", "FuzzConfig", "FuzzSchedule",
    "generate_fuzz_schedule", "mutate_schedule", "crossover_schedules",
    "run_fuzz_trial", "run_fuzz", "load_corpus", "save_corpus",
    "replay_corpus",
]

CORPUS_KIND = "cepheus-fuzz-input"

#: Mutation operator names, in the deterministic order the loop draws
#: from.  Kept module-level so the self-tests can assert the menu.
MUTATIONS: Tuple[str, ...] = (
    "incident-add", "incident-remove", "incident-retime",
    "incident-retarget", "churn-splice", "churn-drop",
    "offset-jitter", "source-retarget", "reseed",
    "publish-poisson", "churn-burst", "lane-kill",
)


@dataclass(frozen=True)
class FuzzConfig(CampaignConfig):
    """Parameters shared by every trial of one fuzzing session."""

    topo: str = "star"            # "star" | "fat_tree"
    hosts: int = 8                # star size / fat-tree hosts_limit
    k: int = 4                    # fat-tree arity
    initial_members: int = 6      # group size at registration
    messages: int = 3             # broadcasts per trial (sequential)
    msg_packets: int = 8          # packets per broadcast (size = n * MTU)
    incidents_max: int = 2        # cap on chaos incidents per schedule
    joins_max: int = 1            # cap on JOIN churn ops per schedule
    leaves_max: int = 1           # cap on LEAVE churn ops per schedule
    crashes_max: int = 0          # receiver crashes per schedule (a cap)
    horizon: float = 0.04         # virtual seconds per trial
    loss_rate: float = 0.0        # baseline random loss on every switch
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    deployments: Tuple[str, ...] = DEPLOYMENTS
    jct_slack: float = 5.0        # throughput-oracle ceiling multiplier
    paths: int = 1                # MRC lanes per group (k-path spraying)
    lane_stall_timeout: float = 1e-3  # dead-lane declaration threshold
    coalesce_window: Optional[float] = None  # batch MRP deltas per window (s)


#: ``cepheus-repro chaos run``: failure incidents on one deployment,
#: every host a member, no churn.
CHAOS = FuzzConfig(hosts=6, initial_members=6, joins_max=0, leaves_max=0,
                   deployments=("inline",))
#: ``cepheus-repro churn run``: two joins, a leave and a crash per blind
#: trial, on an incident-free fabric and one deployment.
CHURN = FuzzConfig(initial_members=5, messages=4, incidents_max=0,
                   joins_max=2, crashes_max=1, deployments=("inline",))


@dataclass(frozen=True)
class FuzzSchedule(JsonCodec):
    """One fuzzing input: incidents + churn ops + source plan.

    The validity contract (enforced by :func:`_sanitize`, which every
    generator/mutator runs through):

    * sources are initial members; churn never targets a source or the
      leader (``hosts[0]``), so the §III-E rotation stays legal;
    * joiners are distinct outsiders; leavers and the at most
      ``crashes_max`` crash victims are distinct non-source initial
      members, and at least 2 initial members neither leave nor crash;
      a crash needs two messages, the last posted after it (a
      missed-feedback detector cannot see a crash during silence);
    * incident repairs land by ``0.75 * horizon`` and churn ops by
      ``0.6 * horizon``, so recovery and MRP deltas settle in time;
    * ``lane_kills`` (``(lane, at, repair_at)``, only when
      ``cfg.paths > 1``) sever one lane's exclusive uplink so the
      sprayer's failover runs: at most ``paths - 1`` lanes, one kill
      each, and the leader sources every message (§III-E source
      switching is single-lane).  Omitted from the canonical dict when
      empty, so pre-lane corpus entries keep their content hashes.
    """

    trial_seed: int
    sources: Tuple[int, ...]
    offsets: Tuple[float, ...]
    incidents: Tuple[Incident, ...]
    churn: Tuple[ChurnEvent, ...]
    lane_kills: Tuple[Tuple[int, float, float], ...] = ()

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FuzzSchedule":
        # ``churn`` is always written (the corpus file names hash it, so
        # it cannot become an omitted-when-empty default) yet optional
        # on read: reproducers that predate churn ops carry none.
        return super().from_dict({"churn": [], **d})

    def content_hash(self) -> str:
        """Canonical digest; names corpus files and dedupes entries."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# schedule shape
# ---------------------------------------------------------------------------

class _Shape:
    """Topology facts every generator/mutator needs (computed once)."""

    def __init__(self, cfg: FuzzConfig) -> None:
        cluster = build_cluster(cfg, 0, cfg.deployments[0])
        hosts = list(cluster.topo.host_ips)
        if cfg.initial_members < 2 or cfg.initial_members > len(hosts):
            raise ValueError(f"initial_members={cfg.initial_members} out of "
                             f"range for {len(hosts)} hosts")
        self.initial = hosts[:cfg.initial_members]
        self.leader = self.initial[0]
        self.outsiders = hosts[cfg.initial_members:]
        self.targets = enumerate_targets(cluster)
        self.horizon = cfg.horizon

    def draw_incident(self, rng) -> Incident:
        return draw_incident(rng.choice(self.targets), rng, self.horizon)


def _draw_churn_time(cfg: FuzzConfig, offsets: Tuple[float, ...],
                     rng) -> float:
    """Half the draws land within a transfer-scale window of a message
    post, where a join/leave delta races the in-flight aggregate —
    uniform draws would almost never hit the microsecond-wide transfer
    inside a millisecond-scale horizon."""
    h = cfg.horizon
    if offsets and rng.random() < 0.5:
        base = rng.choice(offsets)
        window = (cfg.msg_packets * constants.MTU_BYTES * 8.0
                  / constants.LINK_BANDWIDTH_BPS) * 8.0
        at = base + rng.uniform(-window, window)
        return round(min(max(at, 0.0), 0.6 * h), 9)
    return round(rng.uniform(0.05, 0.5) * h, 9)


def _draw_lane_kill(cfg: FuzzConfig, rng) -> Tuple[int, float, float]:
    h = cfg.horizon
    lane = rng.randrange(cfg.paths)
    at = round(rng.uniform(0.05, 0.4) * h, 9)
    repair_at = round(at + rng.uniform(0.1, 0.25) * h, 9)
    return (lane, at, repair_at)


def _sanitize(cfg: FuzzConfig, shape: _Shape,
              schedule: FuzzSchedule) -> FuzzSchedule:
    """Clamp a schedule onto the validity contract (see class doc)."""
    h = cfg.horizon
    sources = tuple(s if s in shape.initial else shape.leader
                    for s in schedule.sources)
    lane_kills: List[Tuple[int, float, float]] = []
    if cfg.paths > 1:
        # Source switching is single-lane (§III-E); with k lanes the
        # leader sources every message.
        sources = tuple(shape.leader for _ in sources)
        killed = set()
        for lane, at, repair_at in schedule.lane_kills:
            lane = int(lane) % cfg.paths
            # Never kill every lane: the re-spray needs a survivor.
            if lane in killed or len(killed) >= cfg.paths - 1:
                continue
            killed.add(lane)
            at = min(max(at, 0.0), round(0.55 * h, 9))
            repair_at = min(max(repair_at, at + 1e-6), round(0.75 * h, 9))
            lane_kills.append((lane, round(at, 9), round(repair_at, 9)))
        lane_kills.sort()
    protected = set(sources) | {shape.leader}
    joined, left, crashed = set(), set(), set()
    churn: List[ChurnEvent] = []
    for ev in schedule.churn:
        at = min(max(ev.at, 0.0), round(0.6 * h, 9))
        if ev.kind == "join":
            if ev.ip in shape.outsiders and ev.ip not in joined:
                joined.add(ev.ip)
                churn.append(replace(ev, at=at))
        elif ev.kind == "leave":
            if (ev.ip in shape.initial and ev.ip not in protected
                    and ev.ip not in left):
                left.add(ev.ip)
                churn.append(replace(ev, at=at))
    for ev in schedule.churn:
        if (ev.kind == "crash" and len(sources) > 1
                and len(crashed) < cfg.crashes_max
                and ev.ip in shape.initial and ev.ip not in protected
                and ev.ip not in left | crashed
                and len(shape.initial) - len(left) - len(crashed) > 2):
            crashed.add(ev.ip)
            churn.append(replace(ev, at=min(max(ev.at, 0.0),
                                            round(0.6 * h, 9))))
    churn.sort(key=lambda e: (e.at, e.kind, e.ip))
    incidents = []
    targeted = set()
    for inc in schedule.incidents:
        if len(incidents) >= cfg.incidents_max:
            break
        # One incident per device: duplicate targets would interleave
        # fail/repair pairs on the same switch or link.
        ident = (inc.kind, inc.target[1])
        if ident in targeted:
            continue
        targeted.add(ident)
        at = min(max(inc.at, 0.0), round(0.55 * h, 9))
        repair_at = min(max(inc.repair_at, at + 1e-6), round(0.75 * h, 9))
        incidents.append(replace(inc, at=at, repair_at=repair_at))
    incidents.sort(key=lambda i: (i.at, i.target))
    offsets = (0.0,) + tuple(sorted(
        round(min(max(o, 0.0), 0.6 * h), 9)
        for o in schedule.offsets[1:len(sources)]))
    offsets = offsets + (0.0,) * (len(sources) - len(offsets))
    if crashed:
        tail = round(max(e.at for e in churn if e.kind == "crash")
                     + 0.05 * h, 9)
        offsets = offsets[:-1] + (max(offsets[-1], tail),)
    return replace(schedule, sources=sources, offsets=offsets,
                   incidents=tuple(incidents), churn=tuple(churn),
                   lane_kills=tuple(lane_kills))


def generate_fuzz_schedule(cfg: FuzzConfig, rng,
                           shape: Optional[_Shape] = None, *,
                           at_caps: bool = False) -> FuzzSchedule:
    """Draw one randomized-but-reproducible fuzzing input.

    The fuzz loop draws each count in ``0..cap``; blind sampling
    (``at_caps``, :data:`CAMPAIGN`'s generator) draws it at the cap, as
    far as there are hosts to take it, with incidents on distinct
    devices.  Leavers (blind) and crash victims may be any non-leader
    initial member: their messages are re-sourced at the leader.
    """
    shape = shape or _Shape(cfg)
    trial_seed = rng.randrange(1 << 31)
    h = cfg.horizon
    sources = tuple(rng.choice(shape.initial) for _ in range(cfg.messages))
    offsets = (0.0,) + tuple(sorted(
        round(rng.uniform(0.05, 0.55) * h, 9)
        for _ in range(cfg.messages - 1)))

    def count(cap: int) -> int:
        return cap if at_caps else rng.randint(0, cap)

    if at_caps:
        devices: Dict[Tuple, Tuple] = {}
        for target in rng.sample(shape.targets, len(shape.targets)):
            devices.setdefault(target[:2], target)
        incidents = tuple(draw_incident(target, rng, h) for target
                          in list(devices.values())[:cfg.incidents_max])
    else:
        incidents = tuple(shape.draw_incident(rng)
                          for _ in range(count(cfg.incidents_max)))
    churn: List[ChurnEvent] = []
    for ip in rng.sample(shape.outsiders,
                         min(count(cfg.joins_max), len(shape.outsiders))):
        churn.append(ChurnEvent("join", ip,
                                _draw_churn_time(cfg, offsets, rng)))
    candidates = [ip for ip in shape.initial[1:]
                  if at_caps or ip not in sources]
    for ip in rng.sample(candidates,
                         min(count(cfg.leaves_max), len(candidates))):
        churn.append(ChurnEvent("leave", ip,
                                _draw_churn_time(cfg, offsets, rng)))
    # Guarded, like the lane kills below, so a crash-free paths=1 config
    # draws the committed corpus's rng sequence exactly.
    if cfg.crashes_max:
        taken = {e.ip for e in churn}
        victims = [ip for ip in shape.initial[1:] if ip not in taken]
        for ip in rng.sample(victims, min(cfg.crashes_max, len(victims))):
            # Early, so the detector sees post-crash traffic.
            churn.append(ChurnEvent(
                "crash", ip, round(rng.uniform(0.05, 0.3) * h, 9)))
    moved = {e.ip for e in churn if e.kind != "join"}
    sources = tuple(shape.leader if s in moved else s for s in sources)
    lane_kills: Tuple[Tuple[int, float, float], ...] = ()
    if cfg.paths > 1:
        lane_kills = tuple(_draw_lane_kill(cfg, rng)
                           for _ in range(rng.randint(0, 1)))
    return _sanitize(cfg, shape, FuzzSchedule(
        trial_seed=trial_seed, sources=sources, offsets=offsets,
        incidents=incidents, churn=tuple(churn), lane_kills=lane_kills))


# ---------------------------------------------------------------------------
# mutation + crossover
# ---------------------------------------------------------------------------

def mutate_schedule(cfg: FuzzConfig, schedule: FuzzSchedule, rng,
                    shape: Optional[_Shape] = None) -> FuzzSchedule:
    """Apply one random mutation operator; always returns a valid input."""
    shape = shape or _Shape(cfg)
    op = rng.choice(MUTATIONS)
    h = cfg.horizon
    incidents = list(schedule.incidents)
    churn = list(schedule.churn)
    if op == "incident-add":
        incidents.append(shape.draw_incident(rng))
    elif op == "incident-remove" and incidents:
        incidents.pop(rng.randrange(len(incidents)))
    elif op == "incident-retime" and incidents:
        i = rng.randrange(len(incidents))
        inc = incidents[i]
        at = round(inc.at + rng.uniform(-0.15, 0.15) * h, 9)
        incidents[i] = replace(
            inc, at=at,
            repair_at=round(at + rng.uniform(0.05, 0.2) * h, 9))
    elif op == "incident-retarget" and incidents:
        i = rng.randrange(len(incidents))
        fresh = shape.draw_incident(rng)
        incidents[i] = replace(fresh, at=incidents[i].at,
                               repair_at=incidents[i].repair_at)
    elif op == "churn-splice":
        kind = rng.choice(("join", "leave", "crash") if cfg.crashes_max
                          else ("join", "leave"))
        pool = (shape.outsiders if kind == "join"
                else [ip for ip in shape.initial[1:]
                      if ip not in schedule.sources])
        if pool:
            churn.append(ChurnEvent(
                kind, rng.choice(pool),
                _draw_churn_time(cfg, schedule.offsets, rng)))
    elif op == "churn-drop" and churn:
        churn.pop(rng.randrange(len(churn)))
    elif op == "offset-jitter" and len(schedule.offsets) > 1:
        offs = list(schedule.offsets)
        i = rng.randrange(1, len(offs))
        offs[i] = round(offs[i] + rng.uniform(-0.1, 0.1) * h, 9)
        return _sanitize(cfg, shape, replace(schedule, offsets=tuple(offs)))
    elif op == "source-retarget":
        srcs = list(schedule.sources)
        srcs[rng.randrange(len(srcs))] = rng.choice(shape.initial)
        return _sanitize(cfg, shape, replace(schedule, sources=tuple(srcs)))
    elif op == "reseed":
        return _sanitize(cfg, shape, replace(
            schedule, trial_seed=rng.randrange(1 << 31)))
    elif op == "publish-poisson" and len(schedule.offsets) > 1:
        # Open-loop arrival replan (:mod:`repro.harness.openloop`):
        # exponential inter-arrivals, so aggregates overlap in bursts.
        mean_gap = (0.6 * h) / len(schedule.offsets)
        offs, t = [0.0], 0.0
        for _ in range(len(schedule.offsets) - 1):
            t += rng.expovariate(1.0 / mean_gap)
            offs.append(round(t, 9))
        return _sanitize(cfg, shape, replace(schedule, offsets=tuple(offs)))
    elif op == "churn-burst":
        # A join+leave pair a coalescing window apart: the two MRP
        # deltas race each other (and any delta batching).
        taken = {e.ip for e in churn}
        joins = [ip for ip in shape.outsiders if ip not in taken]
        leaves = [ip for ip in shape.initial[1:]
                  if ip not in schedule.sources and ip not in taken]
        if joins and leaves:
            at = _draw_churn_time(cfg, schedule.offsets, rng)
            gap = round(rng.uniform(1e-6, 5e-4), 9)
            churn.append(ChurnEvent("join", rng.choice(joins), at))
            churn.append(ChurnEvent("leave", rng.choice(leaves),
                                    round(at + gap, 9)))
    elif op == "lane-kill" and cfg.paths > 1:
        # Add a kill for an unkilled lane, or retime an existing one;
        # a paths=1 config makes this operator a sanitized no-op.
        kills = list(schedule.lane_kills)
        if kills and rng.random() < 0.5:
            i = rng.randrange(len(kills))
            lane = kills[i][0]
            _, at, repair_at = _draw_lane_kill(cfg, rng)
            kills[i] = (lane, at, repair_at)
        else:
            kills.append(_draw_lane_kill(cfg, rng))
        return _sanitize(cfg, shape, replace(
            schedule, incidents=tuple(incidents), churn=tuple(churn),
            lane_kills=tuple(kills)))
    return _sanitize(cfg, shape, replace(
        schedule, incidents=tuple(incidents), churn=tuple(churn)))


def crossover_schedules(cfg: FuzzConfig, a: FuzzSchedule, b: FuzzSchedule,
                        rng, shape: Optional[_Shape] = None) -> FuzzSchedule:
    """Seed-respecting crossover: the child keeps parent ``a``'s
    ``trial_seed`` and source/offset plan, and mixes the failure and
    churn material of both parents."""
    shape = shape or _Shape(cfg)
    pool = list(a.incidents) + list(b.incidents)
    n = min(len(pool), cfg.incidents_max)
    incidents = tuple(rng.sample(pool, rng.randint(0, n)) if pool else ())
    churn = tuple(b.churn if rng.random() < 0.5 else a.churn)
    return _sanitize(cfg, shape, replace(
        a, incidents=incidents, churn=churn))


# ---------------------------------------------------------------------------
# one trial: every deployment, one oracle
# ---------------------------------------------------------------------------

@contextmanager
def _psn_skip(cfg: FuzzConfig, armed: bool):
    """Seeded bug ``psn-skip``: every PSN from the middle of message two
    on is shifted up by one, leaving a hole no receiver can fill."""
    saved = qp_state.psn_tx_hook
    if armed:
        skip_at = cfg.msg_packets + max(1, cfg.msg_packets // 2)
        qp_state.psn_tx_hook = (
            lambda qp, psn: psn + 1 if psn >= skip_at else psn)
    try:
        yield
    finally:
        qp_state.psn_tx_hook = saved


def _run_one_deployment(cfg: FuzzConfig, schedule: FuzzSchedule,
                        deployment: str,
                        coverage: CoverageMap) -> Dict[str, object]:
    """Execute the schedule under one deployment; feeds ``coverage``."""
    bug = os.environ.get("CEPHEUS_SEEDED_BUG")
    with _psn_skip(cfg, bug == "psn-skip"), \
            Trial(cfg, schedule.trial_seed, members=cfg.initial_members,
                  deployment=deployment, coverage=coverage, paths=cfg.paths,
                  lane_stall_timeout=cfg.lane_stall_timeout) as t:
        group = t.algo.group
        accels = t.cluster.fabric.accelerators.values()
        full_records = sum(a.mrp_records_installed for a in accels)
        mm = t.cluster.fabric.membership(group,
                                         coalesce_window=cfg.coalesce_window)
        t.install(schedule.incidents, schedule.churn, schedule.lane_kills)
        if bug == "no-failure-detector":
            # Seeded bug: nothing prunes a crashed receiver, so its AckPSN
            # pins the aggregate for good.
            mm.stop_failure_detector()

        # Per-receiver delivery log for the payload oracle, by schedule
        # ordinal (message handles differ across deployments).  A sprayed
        # packet names its message and lane (PSNs are per lane) in meta.
        seq: Dict[object, List[Tuple[int, int, int]]] = {}

        def on_deliver(qp, pkt) -> None:
            meta = pkt.meta
            if isinstance(meta, tuple) and meta and meta[0] == "lane-spray":
                key, handle = (qp.nic.ip, meta[2]), meta[1]
            else:
                key, handle = qp.nic.ip, pkt.msg_id
            seq.setdefault(key, []).append(
                (t.ordinal.get(handle, -1), pkt.psn, pkt.payload))

        # Who is owed message i: every member at its post but its source,
        # receivers known dead and joiners still in a coalescing batch
        # (the flush re-bases them past it).  A joiner with its delta in
        # flight is owed it (the JOIN PSN sync recovers from admission on)
        # unless incidents may hold that delta until the message completed
        # without it (a missed message, pinned as a strict xfail): then it
        # may or may not receive it, so it counts in ``maybe``.
        owed: Counter = Counter()
        maybe: Counter = Counter()
        posts: List[float] = []

        def snapshot(i: int) -> None:
            posts.append(t.sim.now - t.start)
            for ip in group.members:
                if (ip != schedule.sources[i] and ip not in t.crashed
                        and not mm.is_batched(ip)):
                    if schedule.incidents and mm.has_inflight(ip):
                        maybe[ip] += 1
                    else:
                        owed[ip] += 1

        t.sim.bus.subscribe("deliver", on_deliver)
        done = t.drive(schedule.sources, schedule.offsets,
                       before_post=snapshot)
        t.run()
        t.sim.bus.unsubscribe("deliver", on_deliver)

        violations = t.sweep()
        for op, _ip, _why in mm.delta_failures:
            coverage.add(f"mmdelta/{deployment}/{op}/failed")
        exempt = {ip for _op, ip, _why in mm.delta_failures}
        return {
            "deployment": deployment,
            "completed": len(done),
            "durations": [at - posted_at for posted_at, at in done],
            "seq": seq,
            "source_idle": t.algo.send_idle,
            "delta_failures": [list(f) for f in mm.delta_failures],
            "mismatched": [(ip, t.deliveries[ip], owed[ip])
                           for ip in sorted(group.members)
                           if ip not in exempt
                           and not (owed[ip] <= t.deliveries[ip]
                                    <= owed[ip] + maybe[ip])],
            # A missed-feedback detector needs a post after the crash.
            "unpruned": sorted(ev.ip for ev in schedule.churn
                               if ev.kind == "crash" and ev.ip in group.members
                               and posts and posts[-1] > ev.at),
            "pruned": sorted(mm.pruned),
            "full_records": full_records,
            "delta_records": sum(a.mrp_records_installed
                                 for a in accels) - full_records,
            "removed_records": sum(a.mrp_records_removed for a in accels),
            "violations": violations,
            "events": t.sim.events_run,
        }


#: The keys of a deployment's run its trial record keeps.
_SUMMARY = ("deployment", "completed", "source_idle", "pruned",
            "full_records", "delta_records", "removed_records",
            "violations", "events")


#: How long the failure detector's defaults wait before a prune.
_DETECTOR = MembershipManager.start_failure_detector.__kwdefaults__
_PROBE_WINDOW = _DETECTOR["interval"] * _DETECTOR["misses"]


def _net_model(cfg: FuzzConfig) -> Tuple[NetModel, int]:
    """Analytic model + MDT depth matching the fuzz topologies."""
    if cfg.topo == "star":
        return NetModel(hops=1), 1
    return NetModel(hops=5), 4


def run_fuzz_trial(cfg: FuzzConfig, schedule: FuzzSchedule,
                   trial_index: int = 0) -> Dict[str, object]:
    """Run the schedule under every deployment and apply the oracle.

    Returns a JSON-able, fully deterministic record: per-deployment
    summaries, the unified coverage key list + signature, and a
    ``fail_reasons`` list (empty when the trial passes).
    """
    coverage = CoverageMap()
    runs = [_run_one_deployment(cfg, schedule, dep, coverage)
            for dep in cfg.deployments]
    reasons: List[str] = []
    expected = len(schedule.sources)
    silenced = {e.ip for e in schedule.churn if e.kind == "crash"} | {
        inc.target[1] for inc in schedule.incidents
        if inc.kind == "host" and inc.repair_at - inc.at > _PROBE_WINDOW}
    for run in runs:
        dep = run["deployment"]
        for v in run["violations"]:
            reasons.append(f"invariant:{dep}:{v['invariant']}")
        if run["completed"] < expected or not run["source_idle"]:
            reasons.append(f"liveness:{dep}:{run['completed']}/{expected}")
        else:
            # Exactly-once for every member of the final epoch (departed
            # members legitimately miss the tail of an in-flight message).
            for ip, got, owed in run["mismatched"]:
                reasons.append(f"final-epoch:{dep}:{ip}:{got}/{owed}")
        # A failed membership delta is only a bug on a healthy fabric: a
        # delta racing a severed link may exhaust its retries.
        if run["delta_failures"] and not schedule.incidents:
            reasons.append(f"delta-failure:{dep}")
        # Pruning a crashed receiver is the failure detector's whole job;
        # it may also prune one whose host link an incident cut for longer
        # than its probe window.  Any other prune evicted a live receiver.
        for ip in run["unpruned"]:
            reasons.append(f"unpruned:{dep}:{ip}")
        for ip in sorted(set(run["pruned"]) - silenced):
            reasons.append(f"spurious-prune:{dep}:{ip}")

    # Per-receiver delivery counts and, across deployments, byte-identical
    # delivery sequences for every stable receiver, once every deployment
    # finished (an incomplete run already failed liveness).  Lane kills
    # exempt the trial: the post-kill lane of every byte is legitimately
    # deployment-dependent; the reassembly invariant still guards
    # exactly-once inside each deployment.
    def _ip_of(key) -> int:
        return key[0] if isinstance(key, tuple) else key

    # A receiver the failure detector pruned is churned too.
    churned = ({e.ip for e in schedule.churn}
               | {ip for run in runs for ip in run["pruned"]})
    stable = sorted({_ip_of(k) for k in runs[0]["seq"]} - churned)
    size = cfg.msg_packets * constants.MTU_BYTES
    all_complete = all(r["completed"] == expected and r["source_idle"]
                       for r in runs)
    if all_complete and not schedule.lane_kills:
        base = runs[0]
        for run in runs[1:]:
            keys = set(base["seq"]) | set(run["seq"])
            for key in sorted(keys):
                if _ip_of(key) not in stable:
                    continue
                if run["seq"].get(key, []) != base["seq"].get(key, []):
                    reasons.append(
                        f"diff-payload:{base['deployment']}"
                        f"vs{run['deployment']}:{key}")
        for run in runs:
            got: Counter = Counter()
            for key, deliveries in run["seq"].items():
                got[_ip_of(key)] += len(deliveries)
            for ip in stable:
                owed = cfg.msg_packets * sum(s != ip for s in schedule.sources)
                if got[ip] != owed:
                    reasons.append(f"delivery-count:{run['deployment']}:"
                                   f"{ip}:{got[ip]}/{owed}")

    # Throughput: a floor always (nothing beats wire serialization), a
    # ceiling on quiescent schedules, where the §II JCT model is the contract.
    net, depth = _net_model(cfg)
    floor = net.wire(size)
    quiescent = (not schedule.incidents and not schedule.churn
                 and not schedule.lane_kills and cfg.loss_rate == 0.0)
    ceiling = cfg.jct_slack * cepheus_jct(size, cfg.initial_members,
                                          net, mdt_depth=depth)
    for run in runs:
        for i, dur in enumerate(run["durations"]):
            if dur < floor:
                reasons.append(
                    f"throughput-floor:{run['deployment']}:msg{i}")
            if quiescent and dur > ceiling:
                reasons.append(
                    f"throughput-ceiling:{run['deployment']}:msg{i}")

    return {
        "trial": trial_index,
        "schedule": schedule.to_dict(),
        "schedule_hash": schedule.content_hash(),
        "coverage": coverage.to_list(),
        "coverage_signature": coverage.signature(),
        "deployments": [dict({k: r[k] for k in _SUMMARY}, durations_us=[
            round(d * 1e6, 3) for d in r["durations"]]) for r in runs],
        "stable_receivers": stable,
        "fail_reasons": sorted(reasons),
        "failing": bool(reasons),
    }


CAMPAIGN = Campaign(
    name="fuzz", config_cls=FuzzConfig, schedule_cls=FuzzSchedule,
    generate=partial(generate_fuzz_schedule, at_caps=True),
    run_trial=run_fuzz_trial,
    droppable=("incidents", "churn", "lane_kills"),
    trailing=("sources", "offsets"),
    extras=("fail_reasons",),
)


# ---------------------------------------------------------------------------
# the fuzz loop
# ---------------------------------------------------------------------------

def run_fuzz(cfg: FuzzConfig, seed: int, budget_trials: int,
             corpus: Optional[List[FuzzSchedule]] = None,
             shrink: bool = True) -> Dict[str, object]:
    """Coverage-guided fuzzing session; deterministic for (cfg, seed,
    budget, corpus).  The first trials replay the corpus (the coverage
    baseline); the rest mutate entries, cross pairs over or draw fresh
    schedules.  The document carries the evolved corpus
    (:func:`save_corpus` persists it)."""
    shape = _Shape(cfg)
    corpus = list(corpus or [])
    seen = {s.content_hash() for s in corpus}
    global_cov = CoverageMap()
    records: List[Dict[str, object]] = []
    reproducers: List[Dict[str, object]] = []
    new_entries: List[FuzzSchedule] = []
    for t in range(budget_trials):
        rng = trial_rng(seed, t)
        if t < len(corpus):
            schedule = corpus[t]
            origin = "corpus"
        elif corpus and rng.random() < 0.6:
            parent = rng.choice(corpus)
            schedule = mutate_schedule(cfg, parent, rng, shape)
            origin = "mutate"
        elif len(corpus) >= 2 and rng.random() < 0.5:
            a, b = rng.sample(corpus, 2)
            schedule = crossover_schedules(cfg, a, b, rng, shape)
            origin = "crossover"
        else:
            schedule = generate_fuzz_schedule(cfg, rng, shape)
            origin = "generate"
        record = run_fuzz_trial(cfg, schedule, trial_index=t)
        fresh = global_cov.add_all(record["coverage"])
        h = schedule.content_hash()
        admitted = bool(fresh) and h not in seen
        if admitted:
            corpus.append(schedule)
            new_entries.append(schedule)
            seen.add(h)
        records.append({
            "trial": t,
            "origin": origin,
            "schedule_hash": h,
            "new_coverage": len(fresh),
            "admitted": admitted,
            "coverage_signature": record["coverage_signature"],
            "fail_reasons": record["fail_reasons"],
            "failing": record["failing"],
        })
        if record["failing"]:
            reproducers.append(CAMPAIGN.package(cfg, schedule, t, shrink))
    return {
        "config": cfg.to_dict(),
        "seed": seed,
        "budget_trials": budget_trials,
        "records": records,
        "coverage_keys": len(global_cov),
        "coverage_signature": global_cov.signature(),
        "corpus_size": len(corpus),
        "corpus_hashes": sorted(s.content_hash() for s in corpus),
        "new_corpus_entries": [s.to_dict() for s in new_entries],
        "failing_trials": [r["trial"] for r in records if r["failing"]],
        "reproducers": reproducers,
        "_corpus": corpus,   # stripped by the CLI before serialization
    }


# ---------------------------------------------------------------------------
# corpus persistence + replay
# ---------------------------------------------------------------------------

def save_corpus(dirpath: str, cfg: FuzzConfig,
                schedules: List[FuzzSchedule]) -> List[str]:
    """Write each schedule as ``input-<hash12>.json``; skips entries
    already on disk.  Returns the paths written."""
    os.makedirs(dirpath, exist_ok=True)
    written = []
    for s in schedules:
        path = os.path.join(dirpath, f"input-{s.content_hash()[:12]}.json")
        if os.path.exists(path):
            continue
        doc = {"kind": CORPUS_KIND, "config": cfg.to_dict(),
               "schedule": s.to_dict()}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def load_corpus(dirpath: str) -> List[Tuple[FuzzConfig, FuzzSchedule]]:
    """Load every corpus input, sorted by filename for determinism.
    Each ``*.json`` file is read by the reproducer reader
    (:func:`~repro.harness.campaign.read_document`): a malformed one is
    a :class:`ValueError` naming it."""
    if not os.path.isdir(dirpath):
        return []
    return [read_document(os.path.join(dirpath, name), CORPUS_KIND,
                          FuzzConfig, FuzzSchedule)
            for name in sorted(os.listdir(dirpath)) if name.endswith(".json")]


def _replay_entry(entry: Tuple[FuzzConfig, FuzzSchedule]
                  ) -> Dict[str, object]:
    """Worker for parallel corpus replay (module-level: picklable)."""
    record = run_fuzz_trial(*entry)
    return {key: record[key] for key in (
        "schedule_hash", "coverage", "coverage_signature", "fail_reasons",
        "failing")}


def replay_corpus(dirpath: str, jobs: int = 1) -> Dict[str, object]:
    """Re-run every corpus input; the unified coverage signature is
    identical whatever ``jobs`` is (set union is order-independent)."""
    from repro.harness.runner import ordered_map

    entries = load_corpus(dirpath)
    results = list(ordered_map(_replay_entry, entries, jobs))
    unified = CoverageMap()
    for r in results:
        unified.add_all(r["coverage"])
    return {
        "corpus_dir": dirpath,
        "inputs": len(results),
        "records": [{k: v for k, v in r.items() if k != "coverage"}
                    for r in results],
        "coverage_keys": len(unified),
        "coverage_signature": unified.signature(),
        "failing": sorted(r["schedule_hash"] for r in results
                          if r["failing"]),
    }
