"""The campaign kernel: schedule -> trial -> shrink -> reproducer.

Every randomized harness in this repo (chaos, churn, broker fabric,
fuzz) guards the paper's reliability machinery the same way, and this
module owns the decisions they share so each harness is only its
*schedule vocabulary* and its *oracles*:

* a **trial cluster** is built from the config's ``(topo, hosts, k,
  loss_rate, rto, retransmit_mode[, deployment])`` and the schedule's
  ``trial_seed`` (:func:`build_cluster`);
* **trial t of seed s** draws its schedule from one derived RNG
  (:func:`trial_rng`), so trials are independent and a campaign is a
  pure function of ``(config, seed, trials)``;
* messages are posted **one at a time**, each at ``max(its offset, the
  previous completion)`` (:func:`drive_messages`);
* a failing schedule is **shrunk** greedily, every probe a full
  deterministic re-run: the declared droppable list fields in declared
  order (:func:`greedy_drop`), then trailing messages;
* the minimal schedule is packaged as a **reproducer** — ``{"kind",
  "config", "schedule", "trial", <extras>}`` — that :meth:`Campaign.load`
  / :meth:`Campaign.replay` re-execute.  The CLI maps the outcome onto
  exit codes: 0 clean, 2 usage error or unreadable input, 3 a failing
  trial.

A harness *declares* itself as a :class:`Campaign` (see
``repro.harness.chaos.CAMPAIGN`` for the smallest one): config and
schedule classes, ``generate(cfg, rng)``, ``run_trial(cfg, schedule,
trial_index)`` returning a JSON-able record with a ``"failing"`` flag,
the droppable fields, the trailing-trim rule, the record keys copied
into a reproducer, and any self-test mutations.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.cluster import Cluster
from repro.core.accelerator import AcceleratorConfig
from repro.net.switch import SwitchConfig
from repro.transport.roce import RoceConfig

__all__ = ["Campaign", "CampaignConfig", "build_cluster", "drive_messages",
           "greedy_drop", "trial_rng"]


class CampaignConfig:
    """Mixin for the frozen per-campaign config dataclasses: the JSON
    form reproducers and campaign documents embed."""

    def to_dict(self) -> Dict[str, object]:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d: Dict[str, object]):
        """Unknown keys are ignored, so a reproducer dumped by a build
        with more knobs still loads."""
        kw = {f.name: tuple(d[f.name]) if isinstance(f.default, tuple)
              else d[f.name] for f in fields(cls) if f.name in d}
        return cls(**kw)


def build_cluster(cfg, trial_seed: int,
                  deployment: Optional[str] = None) -> Cluster:
    """Fresh cluster for one trial.  ``deployment`` defaults to the
    config's own (campaigns without one run the default accelerator)."""
    deployment = deployment or getattr(cfg, "deployment", None)
    kw = dict(switch_config=SwitchConfig(loss_rate=cfg.loss_rate,
                                         seed=trial_seed),
              roce_config=RoceConfig(rto=cfg.rto,
                                     retransmit_mode=cfg.retransmit_mode))
    if deployment is not None:
        kw["accel_config"] = AcceleratorConfig(deployment=deployment)
    if cfg.topo == "star":
        return Cluster.testbed(cfg.hosts, **kw)
    if cfg.topo == "fat_tree":
        return Cluster.fat_tree_cluster(cfg.k, hosts_limit=cfg.hosts, **kw)
    raise ValueError(f"unknown campaign topology {cfg.topo!r}")


def trial_rng(seed: int, t: int) -> random.Random:
    """The RNG trial ``t`` of campaign seed ``seed`` draws from."""
    return random.Random((seed << 20) ^ (t * 0x9E3779B1 + 1))


def drive_messages(sim, start: float, offsets,
                   post: Callable[[int, Callable], None]
                   ) -> List[Tuple[float, float]]:
    """Post ``len(offsets)`` messages sequentially.

    ``post(i, on_done)`` sends message *i* and must arrange for
    ``on_done(msg_id, now)`` to fire on completion.  Message *i+1* goes
    out at ``max(start + offsets[i+1], completion of i)``, with a short
    floor that lets residual feedback settle first (a §III-E source
    switch needs idle QPs).  Returns the live list of ``(posted_at,
    done_at)`` pairs, one per message completed so far.
    """
    done: List[Tuple[float, float]] = []

    def post_next() -> None:
        posted_at = sim.now

        def on_done(_mid: int, now: float) -> None:
            done.append((posted_at, now))
            if len(done) < len(offsets):
                when = max(start + offsets[len(done)], sim.now + 1e-6)
                sim.schedule(when - sim.now, post_next)

        post(len(done), on_done)

    post_next()
    return done


def greedy_drop(items, rebuild, fails):
    """One greedy delta-debugging pass over ``items``.

    Tries removing each element in turn; ``rebuild(remaining)`` makes
    the candidate and ``fails(candidate)`` re-runs the trial.  Every
    removal that still fails is kept — each probe is a full
    deterministic re-run, so the result is guaranteed to reproduce the
    failure.

    Returns ``(surviving_items, final_candidate)``; the candidate is
    ``rebuild(items)`` even when nothing could be dropped.
    """
    items = list(items)
    candidate = rebuild(items)
    i = 0
    while i < len(items):
        cand = rebuild(items[:i] + items[i + 1:])
        if fails(cand):
            items.pop(i)
            candidate = cand
        else:
            i += 1
    return items, candidate


def _get(obj, path: str):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


def _with(obj, path: str, value):
    """``dataclasses.replace`` through a dotted field path."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


@dataclass(frozen=True)
class Campaign:
    """One harness, declared against the kernel."""

    name: str                  # CLI noun and reproducer file prefix
    config_cls: type
    schedule_cls: type
    generate: Callable         # (cfg, rng) -> schedule
    run_trial: Callable        # (cfg, schedule, trial_index=0) -> record
    #: Schedule tuple fields (dotted paths reach nested dataclasses) the
    #: shrinker empties element by element, in this order.
    droppable: Tuple[str, ...]
    #: Schedule fields that hold one entry per message; the shrinker
    #: then cuts them together from the tail while the failure persists
    #: and more than one message remains.
    trailing: Tuple[str, ...]
    #: Record keys of the minimal schedule's run copied into a reproducer.
    extras: Tuple[str, ...]
    #: Config field that must track the message count, if any.
    count_field: Optional[str] = None
    #: Accepted ``cfg.mutate`` values (deliberate self-test corruptions).
    mutations: Tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        """The ``"kind"`` tag a reproducer of this campaign carries."""
        return f"cepheus-{self.name}-reproducer"

    def fails(self, cfg, schedule) -> bool:
        return bool(self.run_trial(cfg, schedule)["failing"])

    def shrink(self, cfg, schedule):
        """Greedily minimize a failing schedule; returns the (possibly
        message-count-adjusted) config with it."""
        for path in self.droppable:
            _, schedule = greedy_drop(
                _get(schedule, path),
                lambda kept, s=schedule, p=path: _with(s, p, tuple(kept)),
                lambda cand: self.fails(cfg, cand))
        n = len(_get(schedule, self.trailing[0]))
        while n > 1:
            cand, cand_cfg = schedule, cfg
            for path in self.trailing:
                cand = _with(cand, path, _get(cand, path)[:n - 1])
            if self.count_field:
                cand_cfg = replace(cfg, **{self.count_field: n - 1})
            if not self.fails(cand_cfg, cand):
                break
            cfg, schedule, n = cand_cfg, cand, n - 1
        return cfg, schedule

    def package(self, cfg, schedule, trial: int,
                shrink: bool = True) -> Dict[str, object]:
        """Shrink a failing trial and build its reproducer document."""
        if shrink:
            cfg, schedule = self.shrink(cfg, schedule)
        final = self.run_trial(cfg, schedule, trial_index=trial)
        return {"kind": self.kind, "config": cfg.to_dict(),
                "schedule": schedule.to_dict(), "trial": trial,
                **{key: final[key] for key in self.extras}}

    def run(self, cfg, seed: int, trials: int,
            shrink: bool = True) -> Dict[str, object]:
        """Run ``trials`` seeded trials; shrink and package any failures.

        The returned document is fully deterministic for a given
        (config, seed, trials): running it twice yields identical JSON.
        """
        records: List[Dict[str, object]] = []
        reproducers: List[Dict[str, object]] = []
        for t in range(trials):
            schedule = self.generate(cfg, trial_rng(seed, t))
            record = self.run_trial(cfg, schedule, trial_index=t)
            records.append(record)
            if record["failing"]:
                reproducers.append(self.package(cfg, schedule, t, shrink))
        return {
            "config": cfg.to_dict(),
            "seed": seed,
            "trials": trials,
            "records": records,
            "failing_trials": [r["trial"] for r in records if r["failing"]],
            "reproducers": reproducers,
        }

    def load(self, path: str):
        """Read a reproducer file; returns ``(config, schedule)``.

        Raises :class:`ValueError` for anything that is not a
        well-formed reproducer of this campaign (and :class:`OSError`
        for an unreadable file)."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("kind") != self.kind:
            raise ValueError(f"{path} is not a {self.kind} document")
        for key in ("config", "schedule"):
            if not isinstance(doc.get(key), dict):
                raise ValueError(f"{path}: {self.kind} document has no "
                                 f"{key!r} object")
        try:
            return (self.config_cls.from_dict(doc["config"]),
                    self.schedule_cls.from_dict(doc["schedule"]))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{path}: malformed {self.kind} document "
                             f"({exc!r})") from exc

    def replay(self, path: str) -> Dict[str, object]:
        """Re-execute a dumped reproducer; returns its fresh record."""
        return self.run_trial(*self.load(path))
