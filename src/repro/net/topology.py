"""Topology builders and routing.

Three shapes cover every experiment in the paper:

* :func:`star` — the 4-server testbed (§IV): all hosts on one switch.
* :func:`fat_tree` — the ns-3 simulation fabric (§V-C): a 3-layer
  fat-tree with 1:1 oversubscription.  ``k=16`` yields the paper's
  1024 servers; smaller ``k`` is used by the unit tests.
* :func:`dumbbell` — two switches and a shared bottleneck link, used by
  congestion-control unit tests.

Routing is computed generically: a BFS over the switch graph from each
edge switch produces *all* equal-cost next hops, which become the FIB's
ECMP groups.  A host enters the switch graph at its edge switch, so the
hosts behind one share next hops everywhere else and the BFS runs once
per edge switch, not per host.  This matches structured fat-tree routing
exactly while staying correct for arbitrary shapes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import constants
from repro.errors import TopologyError
from repro.net.link import LinkInfo, connect
from repro.net.nic import Nic
from repro.net.simulator import Simulator
from repro.net.switch import Switch, SwitchConfig

__all__ = ["Topology", "star", "fat_tree", "dumbbell"]


@dataclass
class _Attachment:
    switch: Switch
    port: int


class Topology:
    """A wired network: switches, host NICs, links and routing state."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.switches: List[Switch] = []
        self.nics: Dict[int, Nic] = {}
        self.links: List[LinkInfo] = []
        self._attachments: Dict[int, _Attachment] = {}
        # switch adjacency: switch -> list of (port, neighbor switch)
        self._adj: Dict[Switch, List[Tuple[int, Switch]]] = {}

    # -- construction -------------------------------------------------------

    def add_switch(self, name: str, n_ports: int,
                   config: Optional[SwitchConfig] = None,
                   layer: str = "edge") -> Switch:
        sw = Switch(self.sim, name, n_ports, config)
        sw.layer = layer
        self.switches.append(sw)
        self._adj[sw] = []
        return sw

    def add_host(self, ip: int, name: Optional[str] = None) -> Nic:
        if ip in self.nics:
            raise TopologyError(f"duplicate host ip {ip}")
        nic = Nic(self.sim, ip, name)
        self.nics[ip] = nic
        return nic

    def wire_switches(self, a: Switch, pa: int, b: Switch, pb: int,
                      *, bandwidth: float = constants.LINK_BANDWIDTH_BPS,
                      propagation: float = constants.LINK_PROPAGATION_S) -> None:
        info = connect(a, pa, b, pb, bandwidth=bandwidth, propagation=propagation)
        self.links.append(info)
        a.port_kind[pa] = "switch"
        b.port_kind[pb] = "switch"
        self._adj[a].append((pa, b))
        self._adj[b].append((pb, a))

    def attach_host(self, nic: Nic, sw: Switch, port: int,
                    *, bandwidth: float = constants.LINK_BANDWIDTH_BPS,
                    propagation: float = constants.LINK_PROPAGATION_S) -> None:
        info = connect(sw, port, nic, 0, bandwidth=bandwidth, propagation=propagation)
        self.links.append(info)
        sw.port_kind[port] = "host"
        self._attachments[nic.ip] = _Attachment(sw, port)

    # -- queries --------------------------------------------------------------

    @property
    def host_ips(self) -> List[int]:
        return sorted(self.nics)

    def nic(self, ip: int) -> Nic:
        return self.nics[ip]

    def leaf_of(self, ip: int) -> Tuple[Switch, int]:
        """The (edge switch, port) a host hangs off."""
        att = self._attachments.get(ip)
        if att is None:
            raise TopologyError(f"unknown host ip {ip}")
        return att.switch, att.port

    def switches_in_layer(self, layer: str) -> List[Switch]:
        return [s for s in self.switches if getattr(s, "layer", None) == layer]

    def switch_link_map(self) -> Dict[str, Dict[int, "Tuple[Switch, int]"]]:
        """``switch name -> {port -> (peer switch, peer port)}`` for every
        switch-to-switch link.

        This is the read-only adjacency view a source-routed tree encoder
        walks: following a route port at one switch lands on the peer's
        ingress port, which is itself a tree port of the (undirected) MDT.
        """
        peers: Dict[str, Dict[int, Tuple[Switch, int]]] = {
            sw.name: {} for sw in self.switches
        }
        for link in self.links:
            if not isinstance(link.dev_a, Switch) or not isinstance(link.dev_b, Switch):
                continue
            peers[link.dev_a.name][link.port_a] = (link.dev_b, link.port_b)
            peers[link.dev_b.name][link.port_b] = (link.dev_a, link.port_a)
        return peers

    def set_loss_rate(self, rate: float, layers: Tuple[str, ...] = ("agg", "core")) -> None:
        """Inject random loss at 'middle switches' (paper §V-C setup)."""
        targets = [s for s in self.switches if getattr(s, "layer", None) in layers]
        if not targets:  # single-switch topologies: inject at the only layer
            targets = self.switches
        for sw in targets:
            sw.config.loss_rate = rate

    # -- routing --------------------------------------------------------------

    def build_routes(self) -> None:
        """Fill every switch FIB with equal-cost next hops per host.

        One tuple per (edge switch, switch) pair is shared by every host
        behind that edge switch; hosts install in ``self.nics`` order, so
        each FIB keeps a per-host build's order."""
        by_leaf: Dict[Switch, List[Tuple[Switch, Tuple[int, ...]]]] = {}
        for ip in self.nics:
            att = self._attachments.get(ip)
            if att is None:
                raise TopologyError(f"host {ip} was never attached")
            leaf = att.switch
            routes = by_leaf.get(leaf)
            if routes is None:
                dist = self._bfs_from(leaf)
                if len(dist) != len(self.switches):
                    lost = next(s for s in self.switches if s not in dist)
                    raise TopologyError(
                        f"{lost.name} cannot reach host {ip} (disconnected)")
                routes = by_leaf[leaf] = [
                    (sw, tuple([p for p, nb in self._adj[sw] if dist[nb] == d - 1]))
                    for sw, d in dist.items() if sw is not leaf]
            leaf.fib[ip] = (att.port,)
            for sw, ports in routes:
                sw.fib[ip] = ports

    def _bfs_from(self, root: Switch) -> Dict[Switch, int]:
        dist = {root: 0}
        q = deque([root])
        while q:
            cur = q.popleft()
            for _, nb in self._adj[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    q.append(nb)
        return dist

    # -- multipath lanes (MRC-style k edge-disjoint trees) --------------------

    @staticmethod
    def lane_port(ports: List[int], lane: int) -> int:
        """The deterministic per-lane choice among ECMP next hops.

        Lane ``lane`` picks the ``lane mod len``-th port of the *sorted*
        candidate list.  This is the only place the rule is written
        down: the accelerator's MRP walk, the source-routed tree
        encoder and :meth:`mdt_walk` all call it, so they agree on
        which physical links lane l owns.  With at least as many
        candidates as lanes (a fat-tree gives ``k/2`` uplinks at every
        ECMP stage) distinct lanes pick distinct ports, which is what
        makes the trees edge-disjoint on the uplinks.
        """
        return sorted(ports)[lane % len(ports)]

    def mdt_walk(self, root_ip: int, member_ips, lane: int = 0,
                 peers=None) -> Tuple[Dict[str, int], int]:
        """Compile lane ``lane``'s MDT into per-switch port bitmaps.

        Members are attached in sorted order by walking the root's leaf
        toward each member along the FIB's equal-cost next hops,
        preferring a port already in the tree (so branches merge as
        early as possible) and :meth:`lane_port` otherwise —
        deterministic, so the same membership always compiles to the
        same tree, and lane 0 is the classic single-tree walk.  Both
        directions of every traversed link are set: the tree is
        undirected, any member can source, and the data plane prunes
        the ingress port itself.

        ``peers`` is a cached :meth:`switch_link_map`.  Also returns the
        number of (member, on-path switch) pairs — the record installs
        an MRP registration of the same tree would pay.
        """
        if peers is None:
            peers = self.switch_link_map()
        root_leaf, _root_port = self.leaf_of(root_ip)
        limit = len(self.switches) + 1
        bits: Dict[str, int] = {}
        installs = 0
        for ip in sorted(member_ips):
            leaf, hport = self.leaf_of(ip)
            bits[leaf.name] = bits.get(leaf.name, 0) | (1 << hport)
            cur = root_leaf
            hops = 0
            while cur is not leaf:
                ports = cur.route_ports(ip)
                cur_bits = bits.get(cur.name, 0)
                port = next((p for p in ports if cur_bits & (1 << p)), None)
                if port is None:
                    port = self.lane_port(ports, lane)
                bits[cur.name] = cur_bits | (1 << port)
                peer, rport = peers[cur.name][port]
                bits[peer.name] = bits.get(peer.name, 0) | (1 << rport)
                cur = peer
                hops += 1
                if hops > limit:
                    raise TopologyError(
                        f"routing loop compiling lane {lane} toward "
                        f"host {ip}")
            installs += hops + 1
        return bits, installs

    def edge_disjoint_trees(self, root_ip: int, member_ips,
                            k: int) -> List[Dict[str, int]]:
        """The ``k`` per-lane MDTs (:meth:`mdt_walk` per lane): which
        links each lane's DATA traverses — used by the failover
        experiments and the fuzzer's lane-kill operator to aim a link
        failure at one specific lane."""
        if k < 1:
            raise TopologyError(f"need at least one lane, got {k}")
        peers = self.switch_link_map()
        return [self.mdt_walk(root_ip, member_ips, lane, peers)[0]
                for lane in range(k)]

    def lane_uplinks(self, root_ip: int, member_ips,
                     k: int) -> List[Tuple[Switch, int]]:
        """One (switch, port) uplink per lane that only that lane uses.

        Convenience for failure injection: for each lane, pick the
        lowest switch-to-switch port of the lane's tree that appears in
        no other lane's tree.  Raises :class:`TopologyError` when the
        fabric has no lane-exclusive link (e.g. a star topology, where
        all lanes share the single path).
        """
        trees = self.edge_disjoint_trees(root_ip, member_ips, k)
        by_name = {sw.name: sw for sw in self.switches}
        picks: List[Tuple[Switch, int]] = []
        for lane, bits in enumerate(trees):
            choice = None
            for name in sorted(bits):
                sw = by_name[name]
                for port in range(sw.n_ports):
                    if not bits[name] & (1 << port):
                        continue
                    if sw.port_kind[port] != "switch":
                        continue
                    if any(other.get(name, 0) & (1 << port)
                           for o, other in enumerate(trees) if o != lane):
                        continue
                    choice = (sw, port)
                    break
                if choice:
                    break
            if choice is None:
                raise TopologyError(
                    f"lane {lane} has no exclusive link to fail "
                    f"(topology has insufficient path diversity for "
                    f"k={k})")
            picks.append(choice)
        return picks


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def star(
    sim: Simulator,
    n_hosts: int,
    *,
    bandwidth: float = constants.LINK_BANDWIDTH_BPS,
    propagation: float = constants.LINK_PROPAGATION_S,
    switch_config: Optional[SwitchConfig] = None,
) -> Topology:
    """All hosts on a single switch — the paper's 4-server testbed."""
    topo = Topology(sim)
    sw = topo.add_switch("sw0", n_hosts, switch_config, layer="edge")
    for i in range(n_hosts):
        nic = topo.add_host(i + 1)
        topo.attach_host(nic, sw, i, bandwidth=bandwidth, propagation=propagation)
    topo.build_routes()
    return topo


def fat_tree(
    sim: Simulator,
    k: int,
    *,
    bandwidth: float = constants.LINK_BANDWIDTH_BPS,
    propagation: float = constants.LINK_PROPAGATION_S,
    switch_config: Optional[SwitchConfig] = None,
    hosts_limit: Optional[int] = None,
) -> Topology:
    """Standard 3-layer k-ary fat-tree (1:1 oversubscription).

    ``k`` pods, each with ``k/2`` edge and ``k/2`` aggregation switches;
    ``(k/2)^2`` cores; ``k^3/4`` hosts.  ``k=16`` reproduces the paper's
    1024-server fabric.  ``hosts_limit`` optionally attaches only the
    first N hosts (cheaper small experiments on a big fabric shape).
    """
    if k % 2 != 0 or k < 2:
        raise TopologyError(f"fat-tree k must be even and >= 2, got {k}")
    half = k // 2
    topo = Topology(sim)

    def cfg() -> Optional[SwitchConfig]:
        if switch_config is None:
            return None
        # Each switch gets its own config copy so loss injection can be
        # targeted per layer without aliasing.
        return SwitchConfig(**vars(switch_config))

    cores = [
        topo.add_switch(f"core{i}", k, cfg(), layer="core")
        for i in range(half * half)
    ]
    edges: List[List[Switch]] = []
    aggs: List[List[Switch]] = []
    for pod in range(k):
        edges.append([
            topo.add_switch(f"edge{pod}_{e}", k, cfg(), layer="edge")
            for e in range(half)
        ])
        aggs.append([
            topo.add_switch(f"agg{pod}_{a}", k, cfg(), layer="agg")
            for a in range(half)
        ])
        # edge <-> agg full bipartite inside the pod
        for e, esw in enumerate(edges[pod]):
            for a, asw in enumerate(aggs[pod]):
                # edge uplinks occupy ports [half, k); agg down-ports [0, half)
                topo.wire_switches(esw, half + a, asw, e,
                                   bandwidth=bandwidth, propagation=propagation)
        # agg <-> core
        for a, asw in enumerate(aggs[pod]):
            for c in range(half):
                core = cores[a * half + c]
                topo.wire_switches(asw, half + c, core, pod,
                                   bandwidth=bandwidth, propagation=propagation)

    total_hosts = k * half * half
    n_hosts = total_hosts if hosts_limit is None else min(hosts_limit, total_hosts)
    ip = 1
    for pod in range(k):
        for e, esw in enumerate(edges[pod]):
            for h in range(half):
                if ip > n_hosts:
                    break
                nic = topo.add_host(ip)
                topo.attach_host(nic, esw, h,
                                 bandwidth=bandwidth, propagation=propagation)
                ip += 1
    topo.build_routes()
    return topo


def dumbbell(
    sim: Simulator,
    n_left: int,
    n_right: int,
    *,
    bandwidth: float = constants.LINK_BANDWIDTH_BPS,
    bottleneck: Optional[float] = None,
    propagation: float = constants.LINK_PROPAGATION_S,
    switch_config: Optional[SwitchConfig] = None,
) -> Topology:
    """Two switches joined by one (optionally slower) bottleneck link."""
    topo = Topology(sim)
    left = topo.add_switch("left", n_left + 1, switch_config, layer="edge")
    right = topo.add_switch("right", n_right + 1, switch_config, layer="edge")
    topo.wire_switches(left, n_left, right, n_right,
                       bandwidth=bottleneck or bandwidth,
                       propagation=propagation)
    ip = 1
    for i in range(n_left):
        nic = topo.add_host(ip)
        topo.attach_host(nic, left, i, bandwidth=bandwidth, propagation=propagation)
        ip += 1
    for i in range(n_right):
        nic = topo.add_host(ip)
        topo.attach_host(nic, right, i, bandwidth=bandwidth, propagation=propagation)
        ip += 1
    topo.build_routes()
    return topo
