"""Topology builders: shapes, routing reachability, loss targeting."""

import random
import types
import zlib
from collections import deque

import pytest

import repro.net.port as port_mod
import repro.net.switch as switch_mod
from repro.errors import TopologyError
from repro.net.packet import Packet, PacketType
from repro.net.simulator import Simulator
from repro.net.switch import SwitchConfig
from repro.net.topology import Topology, dumbbell, fat_tree, star


class TestStar:
    def test_host_count(self, sim):
        topo = star(sim, 6)
        assert topo.host_ips == [1, 2, 3, 4, 5, 6]
        assert len(topo.switches) == 1

    def test_all_ports_host_kind(self, sim):
        topo = star(sim, 4)
        assert topo.switches[0].host_ports() == [0, 1, 2, 3]

    def test_leaf_of(self, sim):
        topo = star(sim, 4)
        sw, port = topo.leaf_of(3)
        assert sw is topo.switches[0] and port == 2

    def test_unknown_host(self, sim):
        topo = star(sim, 2)
        with pytest.raises(TopologyError):
            topo.leaf_of(99)


class TestFatTree:
    def test_k4_shape(self, sim):
        topo = fat_tree(sim, 4)
        assert len(topo.host_ips) == 16
        assert len(topo.switches_in_layer("edge")) == 8
        assert len(topo.switches_in_layer("agg")) == 8
        assert len(topo.switches_in_layer("core")) == 4

    def test_k8_host_count(self, sim):
        topo = fat_tree(sim, 8)
        assert len(topo.host_ips) == 128

    def test_odd_k_rejected(self, sim):
        with pytest.raises(TopologyError):
            fat_tree(sim, 5)

    def test_hosts_limit(self, sim):
        topo = fat_tree(sim, 4, hosts_limit=5)
        assert len(topo.host_ips) == 5

    def test_every_switch_routes_every_host(self, sim):
        topo = fat_tree(sim, 4)
        for sw in topo.switches:
            for ip in topo.host_ips:
                assert topo and sw.route_ports(ip)

    def test_edge_uplinks_are_ecmp(self, sim):
        topo = fat_tree(sim, 4)
        edge = topo.switches_in_layer("edge")[0]
        # a host in another pod must be reachable over both uplinks
        remote = topo.host_ips[-1]
        assert len(edge.route_ports(remote)) == 2

    def test_same_rack_single_hop(self, sim):
        topo = fat_tree(sim, 4)
        edge, port = topo.leaf_of(1)
        assert edge.route_ports(2) != edge.route_ports(1)
        assert edge.is_host_port(edge.route_ports(2)[0])

    def test_end_to_end_delivery_cross_pod(self, sim):
        topo = fat_tree(sim, 4)
        got = []
        dst = topo.host_ips[-1]
        topo.nic(dst).control_handler = got.append
        pkt = Packet(PacketType.CTRL, 1, dst, payload=64)
        edge, _ = topo.leaf_of(1)
        edge.receive(pkt, topo.leaf_of(1)[1])
        sim.run()
        assert len(got) == 1
        assert got[0].hops >= 5  # edge->agg->core->agg->edge->host

    def test_loss_targets_middle_layers(self, sim):
        topo = fat_tree(sim, 4)
        topo.set_loss_rate(0.1)
        for sw in topo.switches:
            expected = 0.1 if sw.layer in ("agg", "core") else 0.0
            assert sw.config.loss_rate == expected

    def test_loss_fallback_for_single_layer_topo(self, sim):
        topo = star(sim, 4)
        topo.set_loss_rate(0.2)
        assert topo.switches[0].config.loss_rate == 0.2


class TestDumbbell:
    def test_shape(self, sim):
        topo = dumbbell(sim, 3, 2)
        assert len(topo.host_ips) == 5
        assert len(topo.switches) == 2

    def test_bottleneck_bandwidth(self, sim):
        topo = dumbbell(sim, 1, 1, bottleneck=10e9)
        left = topo.switches[0]
        trunk = [p for p in left.ports if p.connected
                 and left.port_kind[p.index] == "switch"]
        assert trunk[0].bandwidth == 10e9

    def test_cross_side_route(self, sim):
        topo = dumbbell(sim, 2, 2)
        left = topo.switches[0]
        right_host = topo.host_ips[-1]
        port = left.route_ports(right_host)[0]
        assert left.port_kind[port] == "switch"


class TestWiring:
    def test_double_connect_rejected(self, sim):
        topo = Topology(sim)
        a = topo.add_switch("a", 2)
        b = topo.add_switch("b", 2)
        c = topo.add_switch("c", 2)
        topo.wire_switches(a, 0, b, 0)
        with pytest.raises(TopologyError):
            topo.wire_switches(a, 0, c, 0)

    def test_duplicate_host_ip_rejected(self, sim):
        topo = Topology(sim)
        topo.add_host(1)
        with pytest.raises(TopologyError):
            topo.add_host(1)

    def test_unattached_host_fails_routing(self, sim):
        topo = Topology(sim)
        topo.add_switch("a", 2)
        topo.add_host(1)
        with pytest.raises(TopologyError):
            topo.build_routes()

    def test_disconnected_switch_fails_routing(self, sim):
        # Without the check "b" would get no route to host 1 and fail
        # with RoutingError on its first packet.
        topo = Topology(sim)
        a = topo.add_switch("a", 1)
        b = topo.add_switch("b", 1)
        topo.attach_host(topo.add_host(1), a, 0)
        topo.attach_host(topo.add_host(2), b, 0)
        with pytest.raises(TopologyError, match=r"^b cannot reach host 1 "):
            topo.build_routes()


# ---------------------------------------------------------------------------
# Routes: one BFS per edge switch, FIBs equal to a per-host build
# ---------------------------------------------------------------------------

def _reference_fibs(topo):
    """Every FIB as a per-host build fills it: one BFS per host, list
    entries extended in place — the algorithm ``build_routes`` replaced."""
    fibs = {sw.name: {} for sw in topo.switches}

    def add(name, ip, ports):
        group = fibs[name].setdefault(ip, [])
        group.extend(p for p in ports if p not in group)

    for ip in topo.nics:
        leaf, port = topo.leaf_of(ip)
        dist = {leaf: 0}
        queue = deque([leaf])
        while queue:
            cur = queue.popleft()
            for _, nb in topo._adj[cur]:
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    queue.append(nb)
        add(leaf.name, ip, [port])
        for sw, d in dist.items():
            if sw is not leaf:
                add(sw.name, ip, [p for p, nb in topo._adj[sw]
                                  if dist.get(nb, 1 << 30) == d - 1])
    return {name: list(fib.items()) for name, fib in fibs.items()}


def _hand_built(sim):
    """Two leaves with 1 and 3 uplinks to one spine, hosts interleaved
    between them in ip order, and a second spine behind the wide leaf."""
    topo = Topology(sim)
    narrow = topo.add_switch("narrow", 4)
    wide = topo.add_switch("wide", 8)
    spine = topo.add_switch("spine", 4, layer="core")
    far = topo.add_switch("far", 1, layer="core")
    topo.wire_switches(narrow, 3, spine, 0)
    for i in range(3):
        topo.wire_switches(wide, 4 + i, spine, 1 + i)
    topo.wire_switches(wide, 7, far, 0)
    for ip in range(1, 7):
        leaf, port = (narrow, ip // 2) if ip % 2 else (wide, ip // 2)
        topo.attach_host(topo.add_host(ip), leaf, port)
    topo.build_routes()
    return topo


FABRICS = {
    "star6": lambda sim: star(sim, 6),
    "dumbbell3x4": lambda sim: dumbbell(sim, 3, 4),
    "fat_tree2": lambda sim: fat_tree(sim, 2),
    "fat_tree4": lambda sim: fat_tree(sim, 4),
    "fat_tree8": lambda sim: fat_tree(sim, 8),
    "fat_tree8_limit20": lambda sim: fat_tree(sim, 8, hosts_limit=20),
    "hand_built": _hand_built,
    "fat_tree16": lambda sim: fat_tree(sim, 16),
}


class TestRoutes:
    @pytest.mark.parametrize("fabric", [
        pytest.param(name, marks=pytest.mark.slow) if name == "fat_tree16"
        else name for name in FABRICS])
    def test_fibs_equal_a_per_host_build(self, sim, fabric):
        topo = FABRICS[fabric](sim)
        want = _reference_fibs(topo)
        for sw in topo.switches:
            assert [(ip, list(ports)) for ip, ports in sw.fib.items()] \
                == want[sw.name], sw.name

    def test_hand_built_widths(self, sim):
        topo = _hand_built(sim)
        narrow, wide, spine, far = topo.switches
        assert spine.route_ports(1) == [0]          # toward the narrow leaf
        assert spine.route_ports(2) == [1, 2, 3]    # toward the wide leaf
        assert wide.route_ports(1) == [4, 5, 6]
        assert far.route_ports(3) == [0]

    @pytest.mark.parametrize("k, bfs_runs", [(8, 32), (16, 128)])
    def test_one_bfs_per_edge_switch(self, monkeypatch, k, bfs_runs):
        calls = []
        real = Topology._bfs_from

        def counting(self, root):
            calls.append(root)
            return real(self, root)

        monkeypatch.setattr(Topology, "_bfs_from", counting)
        topo = fat_tree(Simulator(), k)
        assert len(calls) == bfs_runs == len(topo.switches_in_layer("edge"))

    def test_leaf_siblings_share_one_immutable_entry(self, sim):
        topo = fat_tree(sim, 4)
        core = topo.switches_in_layer("core")[0]
        leaf, _ = topo.leaf_of(1)
        assert topo.leaf_of(2)[0] is leaf
        assert core.fib[1] is core.fib[2]
        shared = core.fib[2]
        spare = next(p for p in range(core.n_ports) if p not in shared)
        core.add_route(1, [spare])
        assert core.fib[2] is shared and spare not in shared
        assert core.route_ports(1) == [*shared, spare]
        ports = core.route_ports(2)
        ports.append(spare)
        assert core.route_ports(2) == list(shared)


# ---------------------------------------------------------------------------
# Random generators: built on first draw, same streams
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_construction_builds_no_generator(self, monkeypatch):
        made = []

        def counting(seed):
            made.append(seed)
            return random.Random(seed)

        for mod in (port_mod, switch_mod):
            monkeypatch.setattr(mod, "random",
                                types.SimpleNamespace(Random=counting))
        fat_tree(Simulator(), 8)
        assert made == []

    def test_loss_set_after_construction_draws_the_seeded_stream(self, sim):
        topo = star(sim, 2, switch_config=SwitchConfig(seed=5))
        topo.set_loss_rate(0.5)
        sw = topo.switches[0]
        dropped = []
        for i in range(200):
            before = sw.random_drops
            sw.receive(Packet(PacketType.DATA, 1, 2, psn=i, payload=64), 0)
            if sw.random_drops > before:
                dropped.append(i)
        rng = random.Random(zlib.crc32(b"5:sw0:loss"))
        assert dropped == [i for i in range(200) if rng.random() < 0.5]
