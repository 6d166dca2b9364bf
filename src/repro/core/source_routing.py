"""Source-routed multicast: the Elmo/Bert deployment mode.

Cepheus keeps one MFT per group on every MDT switch, which caps the
fabric at the switch BRAM budget (ROADMAP open item 2).  Elmo's answer
is to move the tree into the packet: the *sender* compiles the group's
multicast distribution tree into per-hop **sp-rules** — one port bitmap
per on-tree switch — carried in a bounded header extension, so transit
switches hold no per-group forwarding state at all.  When a large tree
overflows the per-packet rule budget, the overflowing rules spill into
a small **residual table** on the affected switches, and Bert's trick
bounds *that* state too: groups whose spilled rules are identical share
one residual entry under a common rule key.

This module is the whole sender/control side of that design:

* :func:`compute_tree` — the per-switch port bitmaps of one group's
  MDT (undirected, so any member can source; the data plane excludes
  the ingress port), produced by the fabric's one tree walk,
  :meth:`Topology.mdt_walk <repro.net.topology.Topology.mdt_walk>`;
* :func:`split_rules` — pack bitmaps into the budgeted header
  (host-facing rules first — spilling a leaf rule would put residual
  state exactly where the tree fans out) and spill the rest;
* :class:`BertAggregator` — exact-signature sharing of spilled rule
  sets.  Runtime aggregation is deliberately *exact*: union-merging
  near-identical trees would forward packets into subtrees with no
  receivers, and the soft feedback entries those packets create would
  never ACK — stalling the min-AckPSN aggregate forever.  Union merging
  is therefore confined to the analytic :class:`ScalingModel`, where no
  feedback runs;
* :class:`SourceRoutingManager` — per-fabric control plane: compiles
  headers at registration, re-encodes them on membership deltas (the
  epoch in the header is what lets switches discard stale soft state),
  installs/uninstalls residual rules, and hooks member NICs so every
  outgoing DATA packet — retransmissions included — carries the
  *current* epoch's header;
* :class:`ScalingModel` — the 10^3..10^6-group state/header/control
  accounting behind the ``srmc_scaling`` experiment.  No packets are
  simulated: each sampled group's tree is compiled exactly as the
  runtime encoder would, then charged to three bookkeeping backends
  (MFT-Cepheus, Elmo-style, Bert-aggregated).

The switch side (the ``sp_forward`` step that pops a rule and syncs the
soft feedback MFT) lives in
:mod:`repro.core.accelerator`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import constants
from repro.errors import GroupError, RegistrationError

__all__ = [
    "SrHeader", "SourceRoutingConfig", "FabricView", "BertAggregator",
    "SourceRoutingManager", "ScalingModel", "compute_tree", "split_rules",
    "rule_bytes",
]


def _popcount(x: int) -> int:
    return bin(x).count("1")


def rule_bytes(n_ports: int) -> int:
    """Wire size of one sp-rule: 2-byte switch tag + the port bitmap."""
    return 2 + (n_ports + 7) // 8


class SrHeader:
    """One compiled header extension — immutable, shared by reference.

    Every DATA packet of a group epoch points at the same instance
    (clones and replicas copy the reference), so a re-encode swaps one
    object and in-flight packets keep the header they were sent with.

    ``rules`` maps switch name to port bitmap for the rules that fit
    the budget; ``fallback_key`` indexes the residual tables holding
    the spilled remainder (0 when nothing spilled).
    """

    __slots__ = ("mcst_id", "epoch", "rules", "fallback_key", "header_bytes")

    def __init__(self, mcst_id: int, epoch: int, rules: Dict[str, int],
                 fallback_key: int, header_bytes: int) -> None:
        self.mcst_id = mcst_id
        self.epoch = epoch
        self.rules = rules
        self.fallback_key = fallback_key
        self.header_bytes = header_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SrHeader group={self.mcst_id:#x} epoch={self.epoch} "
                f"rules={len(self.rules)} key={self.fallback_key} "
                f"bytes={self.header_bytes}>")


@dataclass
class SourceRoutingConfig:
    """Knobs of the source-routed deployment.

    ``aggregator`` selects the residual-state backend: ``"elmo"`` keys
    spilled rules per group (no sharing); ``"bert"`` shares one
    residual entry among groups whose spilled rule sets are identical.
    The residual rule cap (``constants.SR_RESIDUAL_RULE_CAP``) only
    constrains the analytic :class:`ScalingModel` (the runtime residual
    tables are dicts).
    """

    rule_budget_bytes: int = constants.SR_RULE_BUDGET_BYTES
    aggregator: str = "bert"

    def __post_init__(self) -> None:
        if self.aggregator not in ("elmo", "bert"):
            raise GroupError(
                f"unknown sp-rule aggregator {self.aggregator!r}; "
                f"valid: elmo, bert")
        if self.rule_budget_bytes < constants.SR_BASE_BYTES:
            raise GroupError(
                f"rule budget {self.rule_budget_bytes} B is below the "
                f"fixed header base ({constants.SR_BASE_BYTES} B)")


class FabricView:
    """Read-only routing view the encoder walks.

    Caches host attachments, switch-to-switch peer ports, host-port
    masks and per-switch rule costs so tree compilation stays cheap at
    scaling-model volumes (10^6 groups)."""

    def __init__(self, topo) -> None:
        self.topo = topo
        self.peers = topo.switch_link_map()
        self.switches = {sw.name: sw for sw in topo.switches}
        self.host_mask: Dict[str, int] = {}
        self.rule_cost: Dict[str, int] = {}
        for sw in topo.switches:
            mask = 0
            for p in sw.host_ports():
                mask |= 1 << p
            self.host_mask[sw.name] = mask
            self.rule_cost[sw.name] = rule_bytes(sw.n_ports)


def compute_tree(view: FabricView, root_ip: int, member_ips,
                 stats: Optional[Dict[str, int]] = None,
                 lane: int = 0) -> Dict[str, int]:
    """Compile one group's (lane's) MDT into per-switch port bitmaps.

    The walk itself is :meth:`Topology.mdt_walk
    <repro.net.topology.Topology.mdt_walk>` — the same loop that
    predicts a lane's links for failure injection — so the compiled
    header describes the tree the MFT deployments build for that lane.

    ``stats`` (optional) accumulates ``record_installs``: one per
    (member, on-path switch) — the control-plane cost an MRP-style
    registration of the same tree would pay.
    """
    bits, installs = view.topo.mdt_walk(root_ip, member_ips, lane,
                                        view.peers)
    if stats is not None:
        stats["record_installs"] = stats.get("record_installs", 0) + installs
    return bits


def split_rules(view: FabricView, bitmaps: Dict[str, int],
                budget: int) -> Tuple[Dict[str, int], Dict[str, int], int]:
    """Pack rules into the budgeted header; spill the rest.

    Host-facing rules go first: a spilled leaf rule would force
    residual state at the very switches the tree fans out of, and
    leaves outnumber transit switches in any real tree.  Ties break on
    switch name so packing is deterministic.  Returns
    ``(in_header, spilled, header_bytes)``.
    """
    def prio(item):
        name, bm = item
        return (0 if bm & view.host_mask[name] else 1, name)

    in_header: Dict[str, int] = {}
    spilled: Dict[str, int] = {}
    hbytes = constants.SR_BASE_BYTES
    for name, bm in sorted(bitmaps.items(), key=prio):
        cost = view.rule_cost[name]
        if hbytes + cost <= budget:
            in_header[name] = bm
            hbytes += cost
        else:
            spilled[name] = bm
    return in_header, spilled, hbytes


class BertAggregator:
    """Refcounted exact-signature sharing of spilled rule sets.

    Two groups whose spilled rules are byte-identical (same switches,
    same bitmaps) share one residual key; the key's rules are
    uninstalled only when the last sharer detaches.
    """

    def __init__(self) -> None:
        self._by_sig: Dict[tuple, int] = {}
        self._sig_of: Dict[int, tuple] = {}
        self._refs: Dict[int, int] = {}
        self._next_key = 1

    @staticmethod
    def signature(spilled: Dict[str, int]) -> tuple:
        return tuple(sorted(spilled.items()))

    def acquire(self, spilled: Dict[str, int]) -> int:
        sig = self.signature(spilled)
        key = self._by_sig.get(sig)
        if key is None:
            key = self._next_key
            self._next_key += 1
            self._by_sig[sig] = key
            self._sig_of[key] = sig
            self._refs[key] = 0
        self._refs[key] += 1
        return key

    def release(self, key: int) -> bool:
        """Drop one reference; True when the key died (uninstall time)."""
        n = self._refs.get(key)
        if n is None:
            return True
        if n > 1:
            self._refs[key] = n - 1
            return False
        del self._refs[key]
        sig = self._sig_of.pop(key)
        del self._by_sig[sig]
        return True

    @property
    def live_keys(self) -> int:
        return len(self._refs)


class _GroupState:
    __slots__ = ("header", "spilled", "key", "retired_keys", "hooked_ips")

    def __init__(self) -> None:
        self.header: Optional[SrHeader] = None
        self.spilled: Dict[str, int] = {}
        self.key = 0
        self.retired_keys: List[int] = []
        self.hooked_ips: Set[int] = set()


class SourceRoutingManager:
    """Sender-side compiler + residual-rule control plane.

    One per :class:`~repro.core.fabric.CepheusFabric` in the
    ``source_routed`` deployment.  :meth:`attach` compiles a group's
    header and hooks its member NICs; :meth:`refresh` re-encodes after
    a membership delta (the group's epoch is already bumped); and
    :meth:`detach` unhooks and releases residual state.
    """

    def __init__(self, fabric, cfg: Optional[SourceRoutingConfig] = None) -> None:
        self.fabric = fabric
        self.cfg = cfg or SourceRoutingConfig()
        self.view = FabricView(fabric.topo)
        self.bert = BertAggregator()
        self._states: Dict[int, _GroupState] = {}
        # control-plane economy counters (the srmc_scaling comparison
        # axis: how many per-switch rule writes each compile costs)
        self.residual_installs = 0
        self.header_recompiles = 0

    # -- group lifecycle ----------------------------------------------------

    def attach(self, group) -> None:
        """Compile and activate one header per lane (idempotent)."""
        for lane, mcst_id in enumerate(group.lane_ids):
            if mcst_id in self._states:
                continue
            st = self._states[mcst_id] = _GroupState()
            self._encode(group, lane, st)
            for ip in group.members:
                self._hook(st, mcst_id, ip)

    def refresh(self, group) -> None:
        """Re-encode every lane after a membership delta (epoch
        already bumped).

        The previous epoch's residual key stays installed until
        :meth:`detach`: in-flight packets still carry the old header,
        and pulling their fallback rule from under them would drop them
        mid-tree.  The new header's higher epoch is what retires the
        old tree's soft state, switch by switch, as data flows.
        """
        current = set(group.members)
        for lane, mcst_id in enumerate(group.lane_ids):
            st = self._states.get(mcst_id)
            if st is None:
                continue
            old_key = st.key
            self._encode(group, lane, st)
            self.header_recompiles += 1
            if old_key and old_key != st.key:
                st.retired_keys.append(old_key)
            for ip in current - st.hooked_ips:
                self._hook(st, mcst_id, ip)
            for ip in st.hooked_ips - current:
                self._unhook(mcst_id, ip)
                st.hooked_ips.discard(ip)

    def detach(self, group) -> None:
        """Unhook member NICs and release every lane's residual keys
        (each lane compiled its own header, so each lane's spilled
        rules must go — not just lane 0's)."""
        for mcst_id in group.lane_ids:
            st = self._states.pop(mcst_id, None)
            if st is None:
                continue
            for ip in st.hooked_ips:
                self._unhook(mcst_id, ip)
            for key in [st.key] + st.retired_keys:
                if key and (self.cfg.aggregator != "bert"
                            or self.bert.release(key)):
                    self._uninstall(key)

    def header_of(self, mcst_id: int) -> Optional[SrHeader]:
        st = self._states.get(mcst_id)
        return st.header if st is not None else None

    # -- internals ----------------------------------------------------------

    def _encode(self, group, lane: int, st: _GroupState) -> None:
        mcst_id = group.lane_ids[lane]
        bitmaps = compute_tree(self.view, group.leader_ip, group.members,
                               lane=lane)
        in_header, spilled, hbytes = split_rules(
            self.view, bitmaps, self.cfg.rule_budget_bytes)
        key = 0
        if spilled:
            if self.cfg.aggregator == "bert":
                key = self.bert.acquire(spilled)
            else:
                key = mcst_id
            self._install(key, spilled)
        st.header = SrHeader(mcst_id, group.epoch, in_header, key, hbytes)
        st.spilled = spilled
        st.key = key

    def _hook(self, st: _GroupState, mcst_id: int, ip: int) -> None:
        nic = self.fabric.topo.nic(ip)
        # bound to the state object, not the header: a refresh swaps
        # st.header and every member stamps the new epoch from then on.
        nic.sr_encoders[mcst_id] = (lambda s=st: s.header)
        st.hooked_ips.add(ip)

    def _unhook(self, mcst_id: int, ip: int) -> None:
        nic = self.fabric.topo.nics.get(ip)
        if nic is not None:
            nic.sr_encoders.pop(mcst_id, None)

    def _install(self, key: int, spilled: Dict[str, int]) -> None:
        for name, bm in spilled.items():
            accel = self.fabric.accelerators.get(name)
            if accel is None:
                raise RegistrationError(
                    f"source-routed group needs a residual rule on {name}, "
                    f"which has no accelerator")
            if accel.sr_rules.get(key) != bm:
                self.residual_installs += 1
            accel.sr_rules[key] = bm

    def _uninstall(self, key: int) -> None:
        for accel in self.fabric.accelerators.values():
            accel.sr_rules.pop(key, None)


# ---------------------------------------------------------------------------
# Analytic group-count scaling model (the srmc_scaling experiment)
# ---------------------------------------------------------------------------

class ScalingModel:
    """State/header/control accounting at 10^3..10^6 groups.

    Groups are sampled on a ``k``-ary fat-tree (default ``k=8``: 80
    switches, 128 hosts) with pod locality: each group picks a home pod
    and draws ``locality`` of its members from it.  90% of groups are
    small (2–8 members, the RPC/replication population), 10% large
    (12–40, the pub/sub population) — the mix that makes header
    overflow a minority-but-real event.

    Every sampled tree is compiled by the *runtime* encoder
    (:func:`compute_tree` / :func:`split_rules`), then charged to three
    backends:

    * **mft** — Cepheus baseline: one Path Table row per tree port on
      every on-tree switch (the :meth:`~repro.core.mft.Mft.memory_bytes`
      formula), one control record per (member, on-path switch);
    * **elmo** — in-header rules are free; spilled rules occupy the
      per-switch residual table (``constants.SR_RESIDUAL_RULE_CAP``
      entries).  A full table degrades the group to the switch's
      *default rule* — a single union bitmap whose extra ports are
      counted as redundancy;
    * **bert** — identical spill signatures share one entry
      (control-free reuse); when a table is full the new bitmap
      union-merges into the entry it expands least, keeping state
      capped at the cost of bounded redundancy.
    """

    SMALL = (2, 8)
    LARGE = (12, 40)
    LARGE_FRACTION = 0.1

    def __init__(self, cfg: Optional[SourceRoutingConfig] = None, *,
                 k: int = 8, locality: float = 0.7) -> None:
        # Local import: core must stay importable without pulling the
        # whole net layer in at module-import time.
        from repro.net.simulator import Simulator
        from repro.net.topology import fat_tree

        self.cfg = cfg or SourceRoutingConfig()
        self.locality = locality
        self.topo = fat_tree(Simulator(), k)
        self.view = FabricView(self.topo)
        hosts = self.topo.host_ips
        hosts_per_pod = max(1, len(hosts) // k)
        self.pods: List[List[int]] = [
            hosts[i:i + hosts_per_pod]
            for i in range(0, len(hosts), hosts_per_pod)
        ]
        self.all_hosts = hosts
        # residual entry: 4-byte rule key + the port bitmap
        self.entry_bytes = {
            name: 4 + (sw.n_ports + 7) // 8
            for name, sw in self.view.switches.items()
        }

    def sample_group(self, rng: random.Random) -> List[int]:
        if rng.random() < self.LARGE_FRACTION:
            size = rng.randint(*self.LARGE)
        else:
            size = rng.randint(*self.SMALL)
        size = min(size, len(self.all_hosts))
        pod = self.pods[rng.randrange(len(self.pods))]
        members: Set[int] = set()
        while len(members) < size:
            if rng.random() < self.locality and len(members) < len(pod):
                members.add(pod[rng.randrange(len(pod))])
            else:
                members.add(self.all_hosts[rng.randrange(len(self.all_hosts))])
        return sorted(members)

    def run(self, n_groups: int, seed: int = 0) -> Dict[str, float]:
        """Charge ``n_groups`` sampled groups to all three backends."""
        rng = random.Random(seed)
        cfg = self.cfg
        cap = constants.SR_RESIDUAL_RULE_CAP
        view = self.view

        mft_state = 0
        mft_records = 0
        stats: Dict[str, int] = {}

        # elmo: per-switch entry count + default-rule union bitmap
        elmo_entries: Dict[str, int] = {}
        elmo_default: Dict[str, int] = {}
        elmo_records = 0
        elmo_defaulted_groups = 0
        elmo_redundant_ports = 0

        # bert: signature dedupe + per-switch merged tables
        bert_sigs: Set[tuple] = set()
        bert_tables: Dict[str, List[int]] = {}
        bert_records = 0
        bert_shared_groups = 0
        bert_merged_groups = 0
        bert_redundant_ports = 0

        header_bytes_total = 0
        overflow_groups = 0

        for _ in range(n_groups):
            members = self.sample_group(rng)
            bitmaps = compute_tree(view, members[0], members, stats)
            for name, bm in bitmaps.items():
                sw = view.switches[name]
                mft_state += sw.n_ports + 10 * _popcount(bm) + 20
            in_header, spilled, hbytes = split_rules(
                view, bitmaps, cfg.rule_budget_bytes)
            header_bytes_total += hbytes
            if not spilled:
                continue
            overflow_groups += 1

            # --- elmo: per-group residual entries, default on overflow
            defaulted = False
            for name, bm in spilled.items():
                elmo_records += 1
                used = elmo_entries.get(name, 0)
                if used < cap:
                    elmo_entries[name] = used + 1
                else:
                    old = elmo_default.get(name, 0)
                    elmo_redundant_ports += _popcount(old | bm) - _popcount(bm)
                    elmo_default[name] = old | bm
                    defaulted = True
            if defaulted:
                elmo_defaulted_groups += 1

            # --- bert: share identical signatures, union-merge at cap
            sig = tuple(sorted(spilled.items()))
            if sig in bert_sigs:
                bert_shared_groups += 1
                continue
            bert_sigs.add(sig)
            merged = False
            for name, bm in spilled.items():
                bert_records += 1
                table = bert_tables.setdefault(name, [])
                if len(table) < cap:
                    table.append(bm)
                else:
                    idx = min(
                        range(len(table)),
                        key=lambda i: _popcount(table[i] | bm),
                    )
                    union = table[idx] | bm
                    bert_redundant_ports += (
                        _popcount(union) - _popcount(bm))
                    table[idx] = union
                    merged = True
            if merged:
                bert_merged_groups += 1

        elmo_state = sum(
            n * self.entry_bytes[name] for name, n in elmo_entries.items()
        ) + sum(
            self.entry_bytes[name] - 4 for name in elmo_default
        )
        bert_state = sum(
            len(t) * self.entry_bytes[name] for name, t in bert_tables.items()
        )
        mft_records = stats.get("record_installs", 0)
        return {
            "groups": n_groups,
            "mft_state_bytes": mft_state,
            "elmo_state_bytes": elmo_state,
            "bert_state_bytes": bert_state,
            "mft_ctrl_records": mft_records,
            "elmo_ctrl_records": elmo_records,
            "bert_ctrl_records": bert_records,
            "hdr_bytes_pkt": header_bytes_total / max(1, n_groups),
            "overflow_pct": 100.0 * overflow_groups / max(1, n_groups),
            "elmo_default_pct": 100.0 * elmo_defaulted_groups / max(1, n_groups),
            "bert_shared_pct": 100.0 * bert_shared_groups / max(1, n_groups),
            "elmo_redundant_ports": elmo_redundant_ports,
            "bert_redundant_ports": bert_redundant_ports,
        }
