"""Experimental in-network reduction (§VIII extension)."""

import pytest

from repro import constants
from repro.apps import Cluster
from repro.collectives import BinomialReduce, InNetworkReduce
from repro.core.accelerator import AcceleratorConfig
from repro.errors import ConfigurationError, GroupError


class TestBasics:
    def test_root_receives_combined_vector(self, testbed8):
        r = InNetworkReduce(testbed8, testbed8.host_ips).run(1 << 20)
        assert r.done is not None
        assert r.members_completed == 7  # every contributor acked

    def test_requires_fabric(self):
        cl = Cluster.testbed(4, cepheus=False)
        with pytest.raises(ConfigurationError):
            InNetworkReduce(cl, cl.host_ips)

    def test_requires_two_members(self, testbed):
        with pytest.raises(ConfigurationError):
            InNetworkReduce(testbed, [1])

    def test_root_not_member_rejected(self, testbed):
        with pytest.raises(ConfigurationError):
            InNetworkReduce(testbed, [1, 2], root=9)

    def test_repeat_runs(self, testbed):
        red = InNetworkReduce(testbed, testbed.host_ips)
        a = red.run(1 << 20)
        b = red.run(1 << 20)
        assert b.duration == pytest.approx(a.duration, rel=0.05)

    def test_mode_set_on_all_mdt_switches(self, fat_tree_cluster):
        cl = fat_tree_cluster
        red = InNetworkReduce(cl, [1, 5, 9, 13])
        red.prepare()
        for accel in cl.fabric.mdt_switches(red.group.mcst_id):
            assert accel.mft_of(red.group.mcst_id).mode == "reduce"

    def test_unknown_mode_rejected(self, testbed):
        red = InNetworkReduce(testbed, testbed.host_ips)
        red.prepare()
        with pytest.raises(GroupError):
            testbed.fabric.set_group_mode(red.group.mcst_id, "shuffle")

    def test_unregistered_group_mode_rejected(self, testbed):
        with pytest.raises(GroupError):
            testbed.fabric.set_group_mode(constants.MCSTID_BASE + 77, "reduce")

    def test_source_routed_deployment_refused(self):
        """Source-routed headers carry only the downstream tree: reduce
        mode is refused at set-up instead of retransmitting forever."""
        cl = Cluster.testbed(
            4, accel_config=AcceleratorConfig(deployment="source_routed"))
        with pytest.raises(ConfigurationError, match="source_routed"):
            InNetworkReduce(cl, cl.host_ips).prepare()


class TestPerformance:
    def test_one_wire_time_at_root(self, testbed8):
        """The combined stream arrives at the root in ~one serialization
        — the in-network win over any host-side tree."""
        size = 8 << 20
        r = InNetworkReduce(testbed8, testbed8.host_ips).run(size)
        wire = size * 8 / 100e9
        assert r.duration < 1.3 * wire

    def test_beats_binomial_reduce(self, testbed8):
        size = 8 << 20
        inr = InNetworkReduce(testbed8, testbed8.host_ips).run(size)
        cl2 = Cluster.testbed(8)
        host = BinomialReduce(cl2, cl2.host_ips).run(size)
        assert inr.duration < 0.6 * host.duration

    def test_cross_rack(self, fat_tree_cluster):
        cl = fat_tree_cluster
        size = 4 << 20
        r = InNetworkReduce(cl, [1, 5, 9, 13]).run(size)
        wire = size * 8 / 100e9
        assert r.duration < 1.5 * wire
        assert r.members_completed == 3


class TestReliability:
    def test_loss_recovered_by_replicated_nack(self):
        """A lost contribution stalls the combining slot; the root's
        NACK replicates to every member, they rewind together, and the
        slot refills coherently."""
        cl = Cluster.fat_tree_cluster(4)
        cl.topo.set_loss_rate(2e-3)  # agg/core: the combining path
        members = [1, 5, 9, 13]
        red = InNetworkReduce(cl, members)
        size = 4 << 20
        r = red.run(size)
        assert r.duration > 0
        assert r.members_completed == 3
        # the root delivered the complete combined vector exactly once
        assert red.qps[1].recv.bytes_delivered == size

    def test_coexists_with_bcast_groups(self, testbed8):
        """A reduce-mode group and a bcast-mode group share the fabric."""
        from repro.collectives import CepheusBcast

        cl = testbed8
        bcast = CepheusBcast(cl, [1, 2, 3, 4])
        bcast.prepare()
        red = InNetworkReduce(cl, [5, 6, 7, 8], root=5)
        red.prepare()
        done = {}
        for ip in (2, 3, 4):
            bcast.qps[ip].on_message = (
                lambda mid, sz, now, meta, _ip=ip: done.setdefault(_ip, sz))
        bcast.qps[1].post_send(1 << 20)
        r = red.run(1 << 20)
        cl.run()
        assert all(done.get(ip) == 1 << 20 for ip in (2, 3, 4))
        assert r.members_completed == 3


class TestIrnComposition:
    def test_inreduce_with_irn_under_loss(self):
        """Selective repeat composes with the combining plane: a root
        NACK replicates down, each member retransmits only the missing
        PSN, and the slot refills without a full go-back-N stampede."""
        from repro.transport import RoceConfig

        cl = Cluster.fat_tree_cluster(
            4, roce_config=RoceConfig(retransmit_mode="irn", rto=400e-6))
        cl.topo.set_loss_rate(2e-3, layers=("agg", "core"))
        red = InNetworkReduce(cl, [1, 5, 9, 13])
        size = 4 << 20
        r = red.run(size)
        assert red.qps[1].recv.bytes_delivered == size
        assert r.members_completed == 3
        total_retx = sum(red.qps[ip].retransmitted_packets
                         for ip in (5, 9, 13))
        assert total_retx < 200  # selective, not go-back-N floods
