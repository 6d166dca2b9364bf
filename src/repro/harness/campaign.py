"""The campaign kernel: schedule -> trial -> shrink -> reproducer.

Both randomized campaigns in this repo — the broker fabric
(:mod:`repro.apps.brokerfabric`) and the fuzz campaign
(:mod:`repro.harness.fuzz`, whose ``chaos`` and ``churn`` presets
sample blindly) — guard the paper's reliability machinery the same
way, and this module owns the decisions they share so each campaign is
only the *vocabulary* it schedules, the *hooks* it runs between the
trial's phases, its *oracle* and its *record*:

* **trial t of seed s** draws its schedule from one derived RNG
  (:func:`trial_rng`), so trials are independent and a campaign is a
  pure function of ``(config, seed, trials)``;
* configs, schedules and the timed events inside them have **one JSON
  form** (:class:`JsonCodec`), driven by the dataclass declarations;
* the **timed vocabulary** is public — :class:`Incident` (link, host,
  switch and loss windows; :func:`enumerate_targets`,
  :func:`draw_incident`), :class:`ChurnEvent` (join, leave, crash) and
  lane kills — and one installer arms all of it;
* a broadcast **trial** is one body (:class:`Trial`): a cluster built
  from the config's ``(topo, hosts, k, loss_rate, rto,
  retransmit_mode[, deployment])`` and the schedule's ``trial_seed``
  (:func:`build_cluster`), the invariant monitor, one multicast group,
  the failure injector, messages posted **one at a time**, each at
  ``max(its offset, the previous completion)``, the run to the horizon
  and the closing consistency sweep;
* a failing schedule is **shrunk** greedily, every probe a full
  deterministic re-run: the declared droppable list fields in declared
  order (:func:`greedy_drop`), then trailing messages;
* the minimal schedule is packaged as a **reproducer** — ``{"kind",
  "config", "schedule", "trial", <extras>}`` — that :meth:`Campaign.load`
  / :meth:`Campaign.replay` re-execute.  The CLI maps the outcome onto
  exit codes: 0 clean, 2 usage error or unreadable input, 3 a failing
  trial.

A campaign *declares* itself as a :class:`Campaign`: config and
schedule classes, ``generate(cfg, rng)``, ``run_trial(cfg, schedule,
trial_index)`` returning a JSON-able record with a ``"failing"`` flag,
the droppable fields, the trailing-trim rule and the record keys copied
into a reproducer.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import (Callable, Dict, List, Optional, Set, Tuple, get_args,
                    get_origin, get_type_hints)

from repro import constants
from repro.apps.cluster import Cluster
from repro.check import CoverageCollector, InvariantMonitor
from repro.collectives import CepheusBcast
from repro.core.accelerator import AcceleratorConfig
from repro.errors import TopologyError
from repro.net.failures import FailureInjector
from repro.net.switch import Switch, SwitchConfig
from repro.transport.roce import RoceConfig

__all__ = ["Campaign", "CampaignConfig", "ChurnEvent", "Incident",
           "JsonCodec", "Trial", "build_cluster", "draw_incident",
           "enumerate_targets", "greedy_drop", "read_document", "trial_rng"]


# ---------------------------------------------------------------------------
# one JSON form
# ---------------------------------------------------------------------------

def _encode(value):
    if isinstance(value, JsonCodec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(hint, value):
    """Rebuild what :func:`_encode` flattened, from the field's type."""
    if isinstance(hint, type) and issubclass(hint, JsonCodec):
        return hint.from_dict(value)
    if get_origin(hint) is not tuple:
        return value
    args = get_args(hint)
    if not args:                          # a bare ``Tuple``: mixed scalars
        return tuple(value)
    if args[-1] is Ellipsis:
        return tuple(_decode(args[0], v) for v in value)
    if len(value) != len(args):
        raise ValueError(f"expected {len(args)} items, got {value!r}")
    return tuple(_decode(a, v) for a, v in zip(args, value))


class JsonCodec:
    """Mixin for the frozen dataclasses a campaign document embeds —
    configs, schedules and the timed events inside them: their JSON
    form, derived from the field declarations.

    Tuples are written as lists and nested codec dataclasses as
    objects.  A field left at an *empty* default is not written, so a
    schedule class can grow an optional list without changing any
    document (or content hash) that does not use it.  Reading gives a
    missing key its field default — a missing key without one is an
    error — and ignores unknown keys, so a document dumped by a build
    with more knobs still loads.
    """

    def to_dict(self) -> Dict[str, object]:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)
                if f.default != () or getattr(self, f.name) != ()}

    @classmethod
    def from_dict(cls, d: Dict[str, object]):
        hints = get_type_hints(cls)
        return cls(**{f.name: _decode(hints[f.name], d[f.name])
                      for f in fields(cls) if f.name in d})


class CampaignConfig(JsonCodec):
    """Base of the frozen per-campaign config dataclasses."""


def read_document(path: str, kind: str, config_cls: type,
                  schedule_cls: type):
    """Read one ``{"kind", "config", "schedule"}`` file — a reproducer
    or a fuzz corpus input; returns ``(config, schedule)``.

    Raises :class:`ValueError` naming the file for anything that is not
    a well-formed document of that ``kind`` (and :class:`OSError` for an
    unreadable file)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path} is not a {kind} document")
    for key in ("config", "schedule"):
        if not isinstance(doc.get(key), dict):
            raise ValueError(f"{path}: {kind} document has no {key!r} object")
    try:
        return (config_cls.from_dict(doc["config"]),
                schedule_cls.from_dict(doc["schedule"]))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(
            f"{path}: malformed {kind} document ({exc!r})") from exc


# ---------------------------------------------------------------------------
# the timed vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Incident(JsonCodec):
    """One failure window: down at ``at``, repaired at ``repair_at``
    (offsets from the traffic start).  ``target`` is a JSON-able
    address:

    * ``["link", switch_name, port]`` — a switch-to-switch link
    * ``["host", ip]`` — a host's access link
    * ``["switch", switch_name]`` — a whole-switch black hole
    * ``["loss", switch_name, rate]`` — a transient loss window
    """

    kind: str
    target: Tuple
    at: float
    repair_at: float


@dataclass(frozen=True)
class ChurnEvent(JsonCodec):
    """One membership change at offset ``at``: ``join`` / ``leave``, or
    ``crash`` — the host's access link is cut and never repaired, so
    only the failure detector can unstick the group."""

    kind: str
    ip: int
    at: float


def enumerate_targets(cluster: Cluster) -> List[Tuple]:
    """Deterministic pool of incident targets for a topology (a loss
    target still lacks its rate: :func:`draw_incident` adds it)."""
    topo = cluster.topo
    targets: List[Tuple] = []
    for info in topo.links:
        if isinstance(info.dev_a, Switch) and isinstance(info.dev_b, Switch):
            targets.append(("link", info.dev_a.name, info.port_a))
    for ip in topo.host_ips:
        targets.append(("host", ip))
    for sw in topo.switches:
        targets.append(("switch", sw.name))
        targets.append(("loss", sw.name))
    return targets


def draw_incident(target: Tuple, rng, horizon: float) -> Incident:
    """Give an enumerated target its random window."""
    if target[0] == "loss":
        target = target + (round(rng.uniform(0.05, 0.3), 4),)
    at = round(rng.uniform(0.05, 0.55) * horizon, 9)
    repair_at = round(at + rng.uniform(0.05, 0.2) * horizon, 9)
    return Incident(kind=target[0], target=target, at=at,
                    repair_at=repair_at)


# ---------------------------------------------------------------------------
# one trial
# ---------------------------------------------------------------------------

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


class Trial:
    """One broadcast trial as phases a campaign calls in order, hooking
    what is its own between them::

        with Trial(cfg, schedule.trial_seed) as t:  # cluster, monitor, group
            t.install(incidents, churn, lane_kills)  # the timed vocabulary
            done = t.drive(sources, offsets)         # one message in flight
            t.run()                                  # to the horizon
            violations = t.sweep()                   # MFT sweep + monitor

    The group is the first ``members`` hosts (default: all of them), led
    and first sourced by ``leader``, the first; ``endpoint`` keywords
    (``paths=``, ...) go to :class:`~repro.collectives.CepheusBcast`.
    ``cfg`` supplies the cluster fields (:func:`build_cluster`),
    ``msg_packets`` and ``horizon``; a ``coverage`` map arms a
    :class:`~repro.check.CoverageCollector` keyed by the deployment.
    What a phase does is decided by what it is handed — an empty
    incident list installs nothing — never by which campaign calls it.
    """

    def __init__(self, cfg, trial_seed: int, *, members: Optional[int] = None,
                 deployment: Optional[str] = None, coverage=None,
                 **endpoint) -> None:
        self.cfg = cfg
        self.cluster = build_cluster(cfg, trial_seed, deployment)
        self.sim = self.cluster.sim
        self.monitor = InvariantMonitor()
        self.monitor.attach_cluster(self.cluster)
        self.collector = None
        if coverage is not None:
            self.collector = CoverageCollector(
                self.sim.bus, deployment or cfg.deployment, coverage)
        self.members: List[int] = list(self.cluster.host_ips)[:members]
        self.leader = self.members[0]
        self.algo = CepheusBcast(self.cluster, self.members, self.leader,
                                 **endpoint)
        self.algo.prepare()
        self.injector = FailureInjector(self.cluster.topo)
        self.start = self.sim.now
        self.size = cfg.msg_packets * constants.MTU_BYTES
        #: Completed messages per receiving host.
        self.deliveries: Counter = Counter()
        #: ``post`` handle -> index of the message in the source plan.
        self.ordinal: Dict[int, int] = {}
        #: Hosts whose ``crash`` event has fired so far.
        self.crashed: Set[int] = set()
        self._held: Counter = Counter()   # element -> open windows on it

        def on_delivery(ip, handle, nbytes, now, meta) -> None:
            self.deliveries[ip] += 1
        self.algo.on_delivery = on_delivery

    def __enter__(self) -> "Trial":
        return self

    def __exit__(self, *exc) -> None:
        if self.collector is not None:
            self.collector.detach()
        self.monitor.detach()

    # -- the timed vocabulary --------------------------------------------------

    def install(self, incidents=(), churn=(), lane_kills=()) -> None:
        """Arm every timed event of a schedule (offsets from ``start``).

        ``lane_kills`` — ``(lane, at, repair_at)`` — sever the named
        lane's *exclusive* uplink so the sprayer's failover path runs.
        Star topologies (and fat-trees narrower than the lane count)
        have no such link: the kills are skipped, and an armed coverage
        map learns which of the two happened.  A ``crash`` arms the
        group's failure detector (the membership manager's defaults):
        only it can prune a receiver that never answers again.
        """
        topo = self.cluster.topo
        by_name = {sw.name: sw for sw in topo.switches}
        inj = self.injector
        for inc in incidents:
            kind, target = inc.kind, inc.target
            if kind == "link":
                self._cut(by_name[target[1]], target[2], inc.at, inc.repair_at)
            elif kind == "host":
                self._cut(*topo.leaf_of(target[1]), inc.at, inc.repair_at)
            elif kind == "switch":
                sw = by_name[target[1]]
                self._window(("switch", sw.name), inc.at, inc.repair_at,
                             partial(inj.fail_switch, sw),
                             partial(inj.repair_switch, sw))
            elif kind == "loss":
                knobs = by_name[target[1]].config
                self._window(
                    ("loss", target[1]), inc.at, inc.repair_at,
                    partial(setattr, knobs, "loss_rate", target[2]),
                    partial(setattr, knobs, "loss_rate", knobs.loss_rate))
            else:
                raise ValueError(f"unknown incident kind {kind!r}")
        if lane_kills and self.algo.paths > 1:
            try:
                uplinks = topo.lane_uplinks(self.leader, self.members,
                                            self.algo.paths)
            except TopologyError:
                outcome = "no-exclusive-uplink"
            else:
                outcome = "installed"
                for lane, at, repair_at in lane_kills:
                    self._cut(*uplinks[lane], at, repair_at)
            if self.collector is not None:
                self.collector.coverage.add(
                    f"lanekill/{self.collector.deployment}/{outcome}")
        for ev in churn:
            if ev.kind == "join":
                self._at(ev.at, self.algo.start_join, ev.ip)
            elif ev.kind == "leave":
                self._at(ev.at, self._leave, ev.ip)
            elif ev.kind == "crash":
                self._cut(*topo.leaf_of(ev.ip), ev.at, None,
                          partial(self.crashed.add, ev.ip))
            else:
                raise ValueError(f"unknown churn kind {ev.kind!r}")
        if any(ev.kind == "crash" for ev in churn):
            self.cluster.fabric.membership(
                self.algo.group).start_failure_detector()

    def _at(self, at: float, fn: Callable, *args) -> None:
        self.sim.schedule(self.start + at - self.sim.now, fn, *args)

    def _window(self, key, at: float, until: Optional[float],
                down: Callable, up: Callable) -> None:
        """Take one element down at ``at`` and bring it back at
        ``until`` (never, for ``None``).  Windows on the same element
        nest: it is down for their union, and the last one to close
        repairs it."""
        held = self._held

        def open_window() -> None:
            held[key] += 1
            down()

        def close_window() -> None:
            held[key] -= 1
            if not held[key]:
                up()

        self._at(at, open_window)
        if until is not None:
            self._at(until, close_window)

    def _cut(self, dev, port: int, at: float, until: Optional[float],
             on_cut: Optional[Callable] = None) -> None:
        """A window on the link at ``dev.ports[port]``, whichever end
        names it."""
        near = dev.ports[port]
        key = frozenset({(id(dev), port),
                         (id(near.peer_device), near.peer_port)})

        def cut() -> None:
            self.injector.fail_link(dev, port)
            if on_cut is not None:
                on_cut()

        self._window(key, at, until, cut,
                     partial(self.injector.repair_link, dev, port))

    def _leave(self, ip: int) -> None:
        group = self.algo.group
        if (ip in group.members and not
                self.cluster.fabric.membership(group).has_inflight(ip)):
            self.algo.start_leave(ip)

    # -- traffic, run, verdict -------------------------------------------------

    def drive(self, sources, offsets=(),
              before_post: Optional[Callable[[int], None]] = None
              ) -> List[Tuple[float, float]]:
        """Post one ``size``-byte message per entry of ``sources``,
        sequentially.

        Message *i* leaves ``sources[i]`` (a §III-E source switch when
        that is not the current source) at ``max(start + offsets[i],
        completion of i-1)``, with a short floor that lets residual
        feedback settle first (a source switch needs idle QPs); a
        missing offset is 0.  ``before_post(i)`` runs just ahead of
        each post.  Returns the live list of ``(posted_at, done_at)``
        pairs, one per message completed so far.
        """
        n = len(sources)
        offsets = tuple(offsets[:n]) + (0.0,) * (n - len(offsets))
        algo, sim = self.algo, self.sim
        done: List[Tuple[float, float]] = []

        def post_next() -> None:
            i = len(done)
            posted_at = sim.now

            def on_done(_handle: int, now: float) -> None:
                done.append((posted_at, now))
                if len(done) < n:
                    when = max(self.start + offsets[len(done)],
                               sim.now + 1e-6)
                    sim.schedule(when - sim.now, post_next)

            if before_post is not None:
                before_post(i)
            if algo.group.current_source != sources[i]:
                algo.set_source(sources[i])
            self.ordinal[algo.post(self.size, on_complete=on_done)] = i

        if n:
            post_next()
        return done

    def run(self) -> None:
        self.sim.run(until=self.start + self.cfg.horizon,
                     max_events=20_000_000)

    def sweep(self) -> List[Dict[str, object]]:
        """The closing structural sweep; returns every violation the
        monitor recorded, sweep included.

        Every failure window has closed by the horizon, so each MDT
        port must sit on a live link again — unless a crashed receiver
        is still a member: its cut is permanent, and pruning it (after
        which the MDT avoids the dead link) is the failure detector's
        job."""
        members = self.algo.group.members
        self.monitor.check_mft_consistency(
            self.cluster.fabric, injector=self.injector,
            expect_connected=not any(ip in members for ip in self.crashed))
        violations = [v.to_dict() for v in self.monitor.violations]
        if self.collector is not None:
            self.collector.add_violations(violations)
        return violations


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

    @property
    def kind(self) -> str:
        """The ``"kind"`` tag a reproducer of this campaign carries."""
        return f"cepheus-{self.name}-reproducer"

    def fails(self, cfg, schedule) -> bool:
        return bool(self.run_trial(cfg, schedule)["failing"])

    def shrink(self, cfg, schedule):
        """Greedily minimize a failing schedule."""
        for path in self.droppable:
            _, schedule = greedy_drop(
                _get(schedule, path),
                lambda kept, s=schedule, p=path: _with(s, p, tuple(kept)),
                lambda cand: self.fails(cfg, cand))
        n = len(_get(schedule, self.trailing[0]))
        while n > 1:
            cand = schedule
            for path in self.trailing:
                cand = _with(cand, path, _get(cand, path)[:n - 1])
            if not self.fails(cfg, cand):
                break
            schedule, n = cand, n - 1
        return schedule

    def package(self, cfg, schedule, trial: int,
                shrink: bool = True) -> Dict[str, object]:
        """Shrink a failing trial and build its reproducer document."""
        if shrink:
            schedule = self.shrink(cfg, schedule)
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
        """Read a reproducer file (:func:`read_document`); returns
        ``(config, schedule)``."""
        return read_document(path, self.kind, self.config_cls,
                             self.schedule_cls)

    def replay(self, path: str) -> Dict[str, object]:
        """Re-execute a dumped reproducer; returns its fresh record."""
        return self.run_trial(*self.load(path))
