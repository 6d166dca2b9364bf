"""Additional failure-injection scenarios across the stack."""

import pytest

from repro.apps import Cluster
from repro.collectives import CepheusBcast, InNetworkReduce
from repro.net import FailureInjector


class TestEcmpResilience:
    def test_unicast_survives_one_core_failure(self):
        """ECMP fabrics route around a dead core only with re-routing —
        which we do not model — so flows *pinned* to the dead core stall
        while others pass.  This documents the model's behaviour."""
        cl = Cluster.fat_tree_cluster(4)
        inj = FailureInjector(cl.topo)
        cores = cl.topo.switches_in_layer("core")
        inj.fail_switch(cores[0])
        outcomes = []
        # Cross-pod flows hash across 4 cores; with one dead, ~3/4 pass.
        for src, dst in ((1, 5), (2, 6), (3, 7), (4, 8), (1, 9), (2, 10)):
            got = []
            cl.qp_to(dst, src).on_message = lambda *a: got.append(1)
            cl.qp_to(src, dst).post_send(4096)
            cl.run(until=cl.sim.now + 3e-3)
            outcomes.append(bool(got))
        delivered = sum(outcomes)
        assert delivered >= len(outcomes) // 2  # fabric not globally dead
        # quiesce any flow pinned to the dead core
        for src, dst in ((1, 5), (2, 6), (3, 7), (4, 8), (1, 9), (2, 10)):
            cl.qp_to(src, dst).abort_sends()


class TestMulticastUnderFailures:
    def test_registration_fails_when_leaf_dead(self):
        from repro.errors import RegistrationError

        cl = Cluster.fat_tree_cluster(4)
        inj = FailureInjector(cl.topo)
        # Kill host 3's edge switch before registration.
        edge, _ = cl.topo.leaf_of(3)
        inj.fail_switch(edge)
        qps = {ip: cl.ctx(ip).create_qp() for ip in (1, 3, 5)}
        g = cl.fabric.create_group(qps, leader_ip=1)
        with pytest.raises(RegistrationError, match="timeout"):
            cl.fabric.register_sync(g, timeout=2e-3)

    def test_partial_registration_routes_around_dead_rack(self):
        cl = Cluster.fat_tree_cluster(4)
        inj = FailureInjector(cl.topo)
        inj.fail_host_link(3)
        qps = {ip: cl.ctx(ip).create_qp() for ip in (1, 3, 5)}
        g = cl.fabric.create_group(qps, leader_ip=1)
        missing = cl.fabric.register_partial_sync(g, timeout=2e-3)
        assert missing == {3}

    def test_inreduce_stalls_visibly_on_contributor_death(self):
        """A dead contributor starves the combining slots: the root
        never completes (bounded observation, no silent wrong answer)."""
        from repro.errors import ConfigurationError

        cl = Cluster.fat_tree_cluster(4)
        inj = FailureInjector(cl.topo)
        red = InNetworkReduce(cl, [1, 5, 9, 13])
        red.prepare()
        inj.fail_host_link(13)
        red.qps[5].post_send(1 << 20)
        red.qps[9].post_send(1 << 20)
        cl.run(until=10e-3)
        assert red.qps[1].recv.bytes_delivered == 0
        for qp in (red.qps[5], red.qps[9]):
            qp.abort_sends()

    def test_repair_restores_multicast(self):
        cl = Cluster.fat_tree_cluster(4)
        inj = FailureInjector(cl.topo)
        algo = CepheusBcast(cl, [1, 2, 3, 5])
        algo.prepare()
        sw, port = cl.topo.leaf_of(5)
        inj.fail_link(sw, port)
        inj.repair_link(sw, port)
        r = algo.run(1 << 20)
        assert set(r.recv_times) == {2, 3, 5}
