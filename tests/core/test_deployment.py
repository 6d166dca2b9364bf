"""Inline vs look-aside accelerator deployment (§IV)."""

import pytest

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.core.accelerator import AcceleratorConfig
from repro.errors import RegistrationError


def _jct(deployment, size, n=4, **accel_kw):
    cfg = AcceleratorConfig(deployment=deployment, **accel_kw)
    cl = Cluster.testbed(n, accel_config=cfg)
    algo = CepheusBcast(cl, cl.host_ips)
    return algo.run(size), cl


class TestDeploymentModes:
    def test_unknown_deployment_rejected(self):
        with pytest.raises(RegistrationError):
            Cluster.testbed(2, accel_config=AcceleratorConfig(
                deployment="quantum"))

    def test_lookaside_counts_detours(self):
        r, cl = _jct("lookaside", 1 << 20)
        accel = cl.fabric.accelerators["sw0"]
        assert accel.lookaside_detours > 0
        r2, cl2 = _jct("inline", 1 << 20)
        assert cl2.fabric.accelerators["sw0"].lookaside_detours == 0

    def test_lookaside_adds_latency(self):
        inline, _ = _jct("inline", 64)
        look, _ = _jct("lookaside", 64)
        # two extra link traversals: ~1.2us of propagation + wire
        assert look.jct > inline.jct + 1e-6

    def test_lookaside_still_correct(self):
        r, _ = _jct("lookaside", 4 << 20)
        assert set(r.recv_times) == {2, 3, 4}

    def test_capacity_bounds_throughput(self):
        """With the board capacity squeezed to one 100G port, the 1-to-3
        multicast stream is *admission*-limited at the detour."""
        slow, _ = _jct("lookaside", 16 << 20, lookaside_ports=1,
                       lookaside_port_bw=50e9)
        fast, _ = _jct("lookaside", 16 << 20, lookaside_ports=4)
        assert slow.jct > 1.5 * fast.jct

    def test_default_board_matches_paper_prototype(self):
        """4x100G (the paper's board): no visible throughput penalty for
        a single multicast stream vs inline."""
        inline, _ = _jct("inline", 32 << 20)
        look, _ = _jct("lookaside", 32 << 20)
        assert look.jct < 1.1 * inline.jct


class TestLookasideAllPaths:
    """Every accelerator path must survive the detour, not just data."""

    def test_registration_through_lookaside(self):
        cfg = AcceleratorConfig(deployment="lookaside")
        cl = Cluster.testbed(4, accel_config=cfg)
        algo = CepheusBcast(cl, cl.host_ips)
        algo.prepare()  # register_sync inside would raise on failure
        assert algo.group.registered

    def test_feedback_through_lookaside(self):
        cfg = AcceleratorConfig(deployment="lookaside")
        cl = Cluster.testbed(4, accel_config=cfg)
        algo = CepheusBcast(cl, cl.host_ips)
        r = algo.run(4 << 20)
        assert r.sender_done is not None  # aggregated ACKs made it back

    def test_reduce_mode_through_lookaside(self):
        from repro.collectives import InNetworkReduce

        cfg = AcceleratorConfig(deployment="lookaside")
        cl = Cluster.testbed(8, accel_config=cfg)
        red = InNetworkReduce(cl, cl.host_ips)
        r = red.run(1 << 20)
        assert r.members_completed == 7

    def test_loss_recovery_through_lookaside(self):
        cfg = AcceleratorConfig(deployment="lookaside")
        cl = Cluster.fat_tree_cluster(4, accel_config=cfg)
        cl.topo.set_loss_rate(1e-3)
        algo = CepheusBcast(cl, [1, 2, 3, 5])
        r = algo.run(4 << 20)
        assert set(r.recv_times) == {2, 3, 5}
