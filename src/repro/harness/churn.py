"""Deterministic membership-churn campaigns over the Cepheus fabric.

The dynamic-membership machinery (incremental MRP deltas, aggregate
re-evaluation on LEAVE/PRUNE, the leaf-driven failure detector) is
control-plane code racing against in-flight data — exactly the kind of
logic a throughput number never exercises.  This module stresses it the
same way :mod:`repro.harness.chaos` stresses the loss-recovery paths:

* a **schedule** is drawn up front from a seeded RNG: a list of
  membership *events* (JOINs of fresh hosts, voluntary LEAVEs, and
  receiver *crashes* — the host's access link is cut and never
  repaired, so only the failure detector can unstick the group) plus
  message offsets that interleave broadcasts with the churn;
* a **trial** is a pure function of (config, schedule): the kernel's
  :class:`~repro.harness.campaign.Trial` builds a fresh cluster,
  registers the initial group and posts the message sequence while
  members come and go; this module starts the failure detector,
  snapshots who is owed each message, and records per-member deliveries
  + invariant violations.  Exactly-once delivery is asserted
  for every member of the *final* epoch (departed members legitimately
  miss the tail of an in-flight message);
* a **campaign** runs N seeded trials; failing trials are greedily
  shrunk (drop churn events, then trailing messages) into JSON
  reproducers that ``cepheus-repro churn replay`` re-executes — all by
  the shared kernel (:mod:`repro.harness.campaign`), against which
  :data:`CAMPAIGN` declares this harness.

The ``mutate="no-detector"`` knob disables the failure detector: a
schedule containing a crash must then stall (the dead receiver pins the
min-AckPSN aggregate forever) — the smoke tests use it to prove the
campaign detects real liveness bugs rather than vacuously passing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.harness.campaign import (Campaign, CampaignConfig, ChurnEvent,
                                    JsonCodec, Trial, build_cluster)

__all__ = ["CAMPAIGN", "ChurnConfig", "ChurnEvent", "ChurnSchedule",
           "generate_churn_schedule", "run_churn_trial"]


@dataclass(frozen=True)
class ChurnConfig(CampaignConfig):
    """Parameters of one churn campaign (all trials share these)."""

    topo: str = "star"            # "star" | "fat_tree"
    hosts: int = 8                # star size / fat-tree hosts_limit
    k: int = 4                    # fat-tree arity
    initial_members: int = 5      # group size at registration (from hosts[0])
    messages: int = 4             # broadcasts per trial (sequential)
    msg_packets: int = 8          # packets per broadcast (size = n * MTU)
    joins: int = 2                # JOIN events per trial
    leaves: int = 1               # voluntary LEAVE events per trial
    crashes: int = 1              # receiver crashes per trial (never repaired)
    horizon: float = 0.04         # virtual seconds per trial
    loss_rate: float = 0.0        # baseline random loss on every switch
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    detector_interval: float = 150e-6
    detector_misses: int = 3
    coalesce_window: Optional[float] = None  # batch deltas per window (s)
    mutate: Optional[str] = None  # "no-detector" disables failure pruning


@dataclass(frozen=True)
class ChurnSchedule(JsonCodec):
    """Pure, JSON-able trial input: message offsets + churn events.

    The leader (``hosts[0]``) is the source of every message — LEAVE and
    PRUNE are forbidden for the current source, so churn targets are
    always plain receivers.
    """

    trial_seed: int
    offsets: Tuple[float, ...]
    events: Tuple[ChurnEvent, ...]


# ---------------------------------------------------------------------------
# schedule generation
# ---------------------------------------------------------------------------

def generate_churn_schedule(cfg: ChurnConfig, rng) -> ChurnSchedule:
    """Draw one randomized-but-reproducible churn schedule."""
    trial_seed = rng.randrange(1 << 31)
    cluster = build_cluster(cfg, 0)   # shape-only; state is discarded
    hosts = list(cluster.topo.host_ips)
    if cfg.initial_members < 2 or cfg.initial_members > len(hosts):
        raise ValueError(f"initial_members={cfg.initial_members} out of "
                         f"range for {len(hosts)} hosts")
    initial = hosts[:cfg.initial_members]
    outsiders = hosts[cfg.initial_members:]
    h = cfg.horizon

    events: List[ChurnEvent] = []
    joiners = rng.sample(outsiders, min(cfg.joins, len(outsiders)))
    for ip in joiners:
        events.append(ChurnEvent("join", ip, round(rng.uniform(0.05, 0.45) * h, 9)))
    # Removals come from the initial non-leader members and never shrink
    # the group below 2 (the joiners may not have arrived yet when a
    # removal fires, so they don't count toward the floor).
    removable = list(initial[1:])
    budget = max(0, cfg.initial_members - 2)
    n_leave = min(cfg.leaves, budget, len(removable))
    n_crash = min(cfg.crashes, budget - n_leave, len(removable) - n_leave)
    victims = rng.sample(removable, n_leave + n_crash)
    for ip in victims[:n_leave]:
        events.append(ChurnEvent("leave", ip, round(rng.uniform(0.05, 0.45) * h, 9)))
    for ip in victims[n_leave:]:
        # Crashes land early so the detector sees post-crash traffic.
        events.append(ChurnEvent("crash", ip, round(rng.uniform(0.05, 0.30) * h, 9)))
    events.sort(key=lambda e: (e.at, e.kind, e.ip))

    offsets = [0.0] + sorted(
        round(rng.uniform(0.05, 0.5) * h, 9)
        for _ in range(cfg.messages - 1))
    if events and cfg.messages > 1:
        # Guarantee at least one message posted after the last churn
        # event: a crash during total silence is undetectable by a
        # missed-feedback detector (and uninteresting).
        tail = round(max(e.at for e in events) + 0.05 * h, 9)
        offsets[-1] = max(offsets[-1], tail)
    return ChurnSchedule(trial_seed=trial_seed, offsets=tuple(offsets),
                         events=tuple(events))


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

def run_churn_trial(cfg: ChurnConfig, schedule: ChurnSchedule,
                    trial_index: int = 0) -> Dict[str, object]:
    """Execute one churn trial; returns a JSON-able deterministic record."""
    with Trial(cfg, schedule.trial_seed, members=cfg.initial_members) as t:
        fabric, group, leader = t.cluster.fabric, t.algo.group, t.leader
        accels = fabric.accelerators.values()
        full_records = sum(a.mrp_records_installed for a in accels)
        mm = fabric.membership(group, coalesce_window=cfg.coalesce_window)
        if cfg.mutate is None:
            mm.start_failure_detector(interval=cfg.detector_interval,
                                      misses=cfg.detector_misses)
        elif cfg.mutate != "no-detector":
            raise ValueError(f"unknown mutation {cfg.mutate!r}")
        t.install(churn=schedule.events)
        expected: Counter = Counter()

        def snapshot(_i: int) -> None:
            # Who is owed this message: every current member except the
            # source and receivers already known dead.  A joiner whose
            # delta is still in flight counts — the JOIN PSN sync
            # guarantees it recovers everything posted from the moment
            # it was admitted.
            for ip in group.members:
                if ip != leader and ip not in t.crashed:
                    expected[ip] += 1

        done = t.drive((leader,) * len(schedule.offsets), schedule.offsets,
                       before_post=snapshot)
        t.run()
        mm.stop_failure_detector()
        # Crashed receivers must have been pruned out of the group (the
        # failure detector's whole job); the sweep demands connectivity
        # despite their unrepaired access links only once they are.
        violations = t.sweep()
        unpruned = sorted(ip for ip in t.crashed if ip in group.members)

        # Exactly-once for every receiver of the *final* epoch (departed
        # members legitimately miss the tail of an in-flight message).
        mismatched = sorted(ip for ip in group.members if ip != leader
                            and t.deliveries[ip] != expected[ip])
        failing = (bool(violations)
                   or len(done) < cfg.messages
                   or not t.algo.send_idle
                   or bool(mismatched)
                   or bool(unpruned)
                   or bool(mm.delta_failures))
        tracked = sorted(set(t.members[1:]) | set(t.joined))
        return {
            "trial": trial_index,
            "trial_seed": schedule.trial_seed,
            "schedule": schedule.to_dict(),
            "expected_messages": cfg.messages,
            "completed_messages": len(done),
            "done_times_us": [round((at - t.start) * 1e6, 3)
                              for _, at in done],
            "deliveries": {str(ip): t.deliveries[ip] for ip in tracked},
            "expected": {str(ip): expected[ip] for ip in tracked},
            "final_members": sorted(group.members),
            "final_epoch": group.epoch,
            "epoch_log": [list(e) for e in mm.epoch_log],
            "pruned": sorted(mm.pruned),
            "unpruned_crashes": unpruned,
            "mismatched": mismatched,
            "delta_failures": [list(f) for f in mm.delta_failures],
            "full_records": full_records,
            "delta_records": sum(a.mrp_records_installed
                                 for a in accels) - full_records,
            "removed_records": sum(a.mrp_records_removed for a in accels),
            "events": t.sim.events_run,
            "checked": t.monitor.events_checked,
            "violations": violations,
            "failing": failing,
        }


# ``messages`` must track the schedule's offsets, so the shrinker lowers
# it with every trailing message it trims (the reproducer's config
# carries the reduced count).
CAMPAIGN = Campaign(
    name="churn", config_cls=ChurnConfig, schedule_cls=ChurnSchedule,
    generate=generate_churn_schedule, run_trial=run_churn_trial,
    droppable=("events",), trailing=("offsets",), count_field="messages",
    extras=("violations", "mismatched", "completed_messages"),
    mutations=("no-detector",),
)
