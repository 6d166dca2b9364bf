"""Deterministic chaos campaigns over the Cepheus fabric.

The reliability machinery of the paper (§III-D aggregation rules, §V-C
loss tolerance, §V-D failure handling) is exactly the code most likely
to rot silently: a subtle bug in feedback aggregation or a failure
repair path does not move a throughput number.  This module attacks it
the way Jepsen attacks databases — randomized failure schedules, run
under the :class:`~repro.check.InvariantMonitor`, with deterministic
seeds and a greedy shrinker that reduces any failing trial to a minimal
reproducer:

* a **schedule** is generated up front from a seeded RNG: a list of
  *incidents* (link cuts, switch black-holes, host disconnects, loss
  windows — each with a failure and a repair time) plus a per-message
  *source plan* (mid-run §III-E source switching);
* a **trial** is a pure function of (config, schedule): the kernel's
  :class:`~repro.harness.campaign.Trial` builds a fresh cluster,
  registers one multicast group over every host, and posts the message
  sequence while the incidents fire; this module adds the liveness
  oracle and the record.  Two runs of the same trial are bit-for-bit
  identical;
* a **campaign** runs N trials; every failing trial is shrunk by the
  shared kernel (:mod:`repro.harness.campaign`), which greedily drops
  incidents and trailing messages while the failure persists, and the
  minimal schedule is dumped as a JSON reproducer that ``cepheus-repro
  chaos replay`` re-executes.  :data:`CAMPAIGN` is this harness's
  declaration against that kernel: ``CAMPAIGN.run(cfg, seed, trials)``,
  ``CAMPAIGN.shrink``, ``CAMPAIGN.load`` / ``CAMPAIGN.replay``.

A ``mutate`` knob arms the :data:`repro.transport.qp.psn_tx_hook` fault
hook inside a trial, deliberately corrupting the protocol — the smoke
tests use it to prove the monitor (and the shrinker) actually detect
violations rather than vacuously passing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.harness.campaign import (Campaign, CampaignConfig, Incident,
                                    JsonCodec, Trial, build_cluster,
                                    draw_incident, enumerate_targets)
from repro.transport import qp as qp_state

__all__ = ["CAMPAIGN", "ChaosConfig", "Incident", "Schedule",
           "generate_schedule", "run_trial"]


@dataclass(frozen=True)
class ChaosConfig(CampaignConfig):
    """Parameters of one chaos campaign (all trials share these)."""

    topo: str = "star"           # "star" | "fat_tree"
    hosts: int = 6               # star size / fat-tree hosts_limit
    k: int = 4                   # fat-tree arity
    messages: int = 3            # broadcasts per trial (sequential)
    msg_packets: int = 8         # packets per broadcast (size = n * MTU)
    incidents: int = 2           # failure incidents per trial
    horizon: float = 0.04        # virtual seconds of traffic per trial
    loss_rate: float = 0.0       # baseline random loss on every switch
    rto: float = 200e-6
    retransmit_mode: str = "gbn"
    deployment: str = "inline"   # accelerator style: inline | lookaside | source_routed
    mutate: Optional[str] = None  # "psn-skip" arms the PSN fault hook


@dataclass(frozen=True)
class Schedule(JsonCodec):
    """Everything a trial does besides the config: pure data, JSON-able.

    ``offsets[i]`` is the earliest start (relative to traffic start) of
    message *i*; the trial posts it at ``max(offset, previous message
    completion)``, which spreads the messages across the horizon so the
    incidents actually overlap transfers (and the idle windows between
    them, which stress posting into a severed fabric).  A reproducer
    without offsets posts back-to-back.
    """

    trial_seed: int
    sources: Tuple[int, ...]          # source host of message i
    incidents: Tuple[Incident, ...]
    offsets: Tuple[float, ...] = ()   # earliest start of message i


def generate_schedule(cfg: ChaosConfig, rng) -> Schedule:
    """Draw one randomized-but-reproducible trial schedule."""
    trial_seed = rng.randrange(1 << 31)
    cluster = build_cluster(cfg, 0)   # shape-only; state is discarded
    hosts = cluster.topo.host_ips
    sources = tuple(rng.choice(hosts) for _ in range(cfg.messages))
    h = cfg.horizon
    # First message starts immediately; later ones spread over the same
    # window the incidents are drawn from, so failures land both mid-
    # transfer and in the idle gaps where the next post hits a dead
    # fabric.
    offsets = (0.0,) + tuple(sorted(
        round(rng.uniform(0.05, 0.55) * h, 9)
        for _ in range(cfg.messages - 1)))
    pool = enumerate_targets(cluster)
    incidents = [draw_incident(target, rng, h)
                 for target in rng.sample(pool, min(cfg.incidents, len(pool)))]
    incidents.sort(key=lambda i: (i.at, i.target))
    return Schedule(trial_seed=trial_seed, sources=sources,
                    offsets=offsets, incidents=tuple(incidents))


def run_trial(cfg: ChaosConfig, schedule: Schedule,
              trial_index: int = 0) -> Dict[str, object]:
    """Execute one trial; returns a JSON-able, deterministic record."""
    saved_hook = qp_state.psn_tx_hook
    try:
        with Trial(cfg, schedule.trial_seed) as t:
            t.install(incidents=schedule.incidents)
            if cfg.mutate == "psn-skip":
                # Corrupt the wire: every PSN at/after the middle of
                # message two is shifted up by one, leaving a hole the
                # receivers can never fill.  The monitor must flag
                # `psn-contiguity`.
                skip_at = cfg.msg_packets + max(1, cfg.msg_packets // 2)
                qp_state.psn_tx_hook = (
                    lambda qp, psn: psn + 1 if psn >= skip_at else psn)
            elif cfg.mutate is not None:
                raise ValueError(f"unknown mutation {cfg.mutate!r}")
            done = t.drive(schedule.sources, schedule.offsets)
            t.run()
            # All incidents repair before the horizon, so the sweep
            # demands a structurally whole fabric again.
            violations = t.sweep()
            # Liveness: every message completed, and every member
            # delivered each message it was not itself the source of.
            expected = len(schedule.sources)
            delivered_all = len(done) == expected and all(
                t.deliveries[ip] == sum(1 for s in schedule.sources if s != ip)
                for ip in t.members)
            return {
                "trial": trial_index,
                "trial_seed": schedule.trial_seed,
                "schedule": schedule.to_dict(),
                "expected_messages": expected,
                "completed_messages": len(done),
                "done_times_us": [round((at - t.start) * 1e6, 3)
                                  for _, at in done],
                "deliveries": {str(ip): t.deliveries[ip] for ip in t.members},
                "events": t.sim.events_run,
                "checked": t.monitor.events_checked,
                "active_failures_at_end": t.injector.active_failures,
                "violations": violations,
                "delivered_all": delivered_all,
                "failing": bool(violations) or not delivered_all,
            }
    finally:
        qp_state.psn_tx_hook = saved_hook


CAMPAIGN = Campaign(
    name="chaos", config_cls=ChaosConfig, schedule_cls=Schedule,
    generate=generate_schedule, run_trial=run_trial,
    droppable=("incidents",), trailing=("sources",),
    extras=("violations", "delivered_all"),
    mutations=("psn-skip",),
)
