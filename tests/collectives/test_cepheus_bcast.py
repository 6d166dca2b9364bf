"""The Cepheus broadcast primitive end-to-end."""

import pytest

from repro.apps import Cluster
from repro.collectives import (BinomialTreeBcast, CepheusBcast, ChainBcast,
                               MultiUnicastBcast)
from repro.core.accelerator import AcceleratorConfig
from repro.errors import (ConfigurationError, RegistrationError,
                          TransportError)
from repro.net.failures import FailureInjector


class TestBasics:
    def test_delivers_to_all(self, testbed):
        r = CepheusBcast(testbed, testbed.host_ips).run(1 << 20)
        assert set(r.recv_times) == {2, 3, 4}
        assert r.sender_done is not None

    def test_requires_fabric(self):
        cl = Cluster.testbed(4, cepheus=False)
        with pytest.raises(ConfigurationError):
            CepheusBcast(cl, cl.host_ips)

    def test_one_qp_per_member(self, testbed):
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.prepare()
        assert len(algo.qps) == 4  # exactly one RC connection per member

    def test_registration_excluded_from_jct(self, testbed):
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.prepare()
        t_reg = testbed.sim.now
        r = algo.run(64)
        assert r.start >= t_reg
        assert r.jct < 10e-6  # pure data-path time

    def test_repeat_runs_reuse_group(self, testbed):
        algo = CepheusBcast(testbed, testbed.host_ips)
        a = algo.run(8192)
        b = algo.run(8192)
        assert b.jct == pytest.approx(a.jct, rel=0.05)
        assert len(testbed.fabric.groups) == 1

    def test_receivers_all_within_one_replication(self, testbed):
        """All receivers complete nearly simultaneously (one MDT)."""
        r = CepheusBcast(testbed, testbed.host_ips).run(4 << 20)
        spread = max(r.recv_times.values()) - min(r.recv_times.values())
        assert spread < 2e-6


@pytest.mark.slow  # Tier-2: 64MB broadcasts for the headline bands
class TestPerformanceClaims:
    """The §V-A headline comparisons, asserted as bands."""

    @pytest.fixture(scope="class")
    def jcts(self):
        out = {}
        for size in (64, 64 << 20):
            cl = Cluster.testbed(4)
            out[size] = {
                "cepheus": CepheusBcast(cl, cl.host_ips).run(size).jct,
                "bt": BinomialTreeBcast(cl, cl.host_ips).run(size).jct,
                "chain": ChainBcast(cl, cl.host_ips, slices=4).run(size).jct,
                "unicast": MultiUnicastBcast(cl, cl.host_ips).run(size).jct,
            }
        return out

    def test_small_message_vs_bt(self, jcts):
        ratio = jcts[64]["bt"] / jcts[64]["cepheus"]
        assert 2.0 <= ratio <= 4.0  # paper band 2.5-3.5

    def test_small_message_vs_chain(self, jcts):
        ratio = jcts[64]["chain"] / jcts[64]["cepheus"]
        assert 3.0 <= ratio <= 5.5  # paper band 3-5.2

    def test_large_message_vs_bt(self, jcts):
        ratio = jcts[64 << 20]["bt"] / jcts[64 << 20]["cepheus"]
        assert 1.8 <= ratio <= 3.2  # paper band 2-2.8

    def test_large_message_vs_chain(self, jcts):
        ratio = jcts[64 << 20]["chain"] / jcts[64 << 20]["cepheus"]
        assert 1.3 <= ratio <= 2.8  # paper band

    def test_near_line_rate_goodput(self, jcts):
        size = 64 << 20
        goodput = size * 8 / jcts[size]["cepheus"] / 1e9
        assert goodput > 90  # multicast at ~unicast line rate

    def test_beats_unicast_everywhere(self, jcts):
        for size in jcts:
            assert jcts[size]["cepheus"] < jcts[size]["unicast"]


class TestSourceRotation:
    def test_set_source_keeps_working(self, testbed):
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.run(8192)
        algo.set_source(3)
        r = algo.run(8192)
        assert set(r.recv_times) == {1, 2, 4}
        assert algo.coordinator.switch_count == 1

    def test_rotation_does_not_reregister(self, testbed):
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.run(4096)
        groups_before = len(testbed.fabric.groups)
        for src in (2, 3, 4, 1):
            algo.set_source(src)
            algo.run(4096)
        assert len(testbed.fabric.groups) == groups_before


DEPLOYMENTS = ("inline", "lookaside", "source_routed")


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
@pytest.mark.parametrize("paths", (1, 2, 4))
class TestMulticastEndpoint:
    """post / on_delivery / start_join / start_leave / send_idle: the
    same calls and the same contract whatever the lane count."""

    SIZE = 64 << 10

    def _endpoint(self, deployment, paths, **kw):
        # four lanes need fat_tree(8)'s four edge-disjoint uplink stages
        cl = Cluster.fat_tree_cluster(
            8 if paths == 4 else 4, hosts_limit=16,
            accel_config=AcceleratorConfig(deployment=deployment, **kw))
        members = cl.host_ips[:6]
        algo = CepheusBcast(cl, members, paths=paths)
        log = []          # (ip, handle, nbytes) per delivery
        algo.on_delivery = (
            lambda ip, handle, nbytes, now, meta: log.append(
                (ip, handle, nbytes)))
        return cl, algo, members, log

    def test_post_delivers_once_per_receiver_with_its_handle(
            self, deployment, paths):
        cl, algo, members, log = self._endpoint(deployment, paths)
        completed = []
        handle = algo.post(self.SIZE, on_complete=lambda h, now:
                           completed.append((h, len(log))))
        assert not algo.send_idle      # in flight from post ...
        cl.sim.run()
        assert algo.send_idle          # ... to completion
        assert sorted(log) == [(ip, handle, self.SIZE)
                               for ip in sorted(members[1:])]
        # the sender completes once, with the same handle, after every
        # receiver had the message
        assert completed == [(handle, len(members) - 1)]
        assert cl.sim.peek_next_time() is None

    def test_meta_reaches_every_receiver(self, deployment, paths):
        cl, algo, members, _ = self._endpoint(deployment, paths)
        seen = []
        algo.on_delivery = (
            lambda ip, handle, nbytes, now, meta: seen.append(meta))
        algo.post(self.SIZE, meta="tag")
        cl.sim.run()
        assert seen == ["tag"] * (len(members) - 1)

    def test_start_join_mid_stream_serves_the_next_message(
            self, deployment, paths):
        cl, algo, members, log = self._endpoint(deployment, paths)
        joiner = cl.host_ips[6]
        h1 = algo.post(self.SIZE)
        txn = algo.start_join(joiner)      # races message 1; no QP in sight
        cl.sim.run()
        assert txn.failed_reason is None
        assert joiner in algo.group.members and joiner in algo.qps
        h2 = algo.post(self.SIZE)
        cl.sim.run()
        assert [(h, n) for ip, h, n in log if ip == joiner] \
            == [(h2, self.SIZE)]
        for ip in members[1:]:
            assert [h for i, h, _ in log if i == ip] == [h1, h2]

    def test_start_leave_stops_deliveries_and_frees_state(
            self, deployment, paths):
        cl, algo, members, log = self._endpoint(deployment, paths)
        leaver = members[2]
        algo.prepare()
        assert (leaver in algo.reassemblers) == (paths > 1)
        txn = algo.start_leave(leaver)
        cl.sim.run()
        assert txn.failed_reason is None
        assert leaver not in algo.reassemblers and leaver not in algo.qps
        handle = algo.post(self.SIZE)
        cl.sim.run()
        assert sorted(log) == [(ip, handle, self.SIZE)
                               for ip in sorted(members[1:]) if ip != leaver]
        assert algo.send_idle

    def test_failed_join_leaves_the_old_members_served(
            self, deployment, paths):
        cl, algo, members, _ = self._endpoint(deployment, paths)
        joiner = cl.host_ips[6]
        algo.prepare()
        FailureInjector(cl.topo).fail_host_link(joiner)
        with pytest.raises(RegistrationError):
            algo.join(joiner)
        assert joiner not in algo.ranks and joiner not in algo.qps
        assert joiner not in algo.reassemblers
        assert joiner not in algo.group.members
        # rolled back: the group serves whom it served before
        assert set(algo.run(self.SIZE).recv_times) == set(members[1:])

    def test_run_is_the_blocking_form_of_post(self, deployment, paths):
        cl, algo, members, log = self._endpoint(deployment, paths)
        r = algo.run(self.SIZE)
        assert set(r.recv_times) == set(members[1:])
        assert r.sender_done is not None
        # the user hook sees run()'s message too, and keeps working after
        assert sorted(ip for ip, _, _ in log) == sorted(members[1:])
        algo.post(self.SIZE)
        cl.sim.run()
        assert len(log) == 2 * (len(members) - 1)

    def test_post_after_amcast_fallback_is_refused(self, deployment, paths):
        cl, algo, members, _ = self._endpoint(deployment, paths,
                                              max_groups=0)
        algo.prepare()
        assert algo.fell_back and "registration failed" in algo.fallback_reason
        with pytest.raises(ConfigurationError):
            algo.post(self.SIZE)
        with pytest.raises(ConfigurationError):
            algo.start_join(cl.host_ips[6])
        # run() still serves everyone, over the AMcast algorithm
        assert set(algo.run(self.SIZE).recv_times) == set(members[1:])

    def test_one_sprayed_message_in_flight(self, deployment, paths):
        cl, algo, members, log = self._endpoint(deployment, paths)
        completed = []
        first = algo.post(self.SIZE, on_complete=lambda h, now:
                          completed.append(h))
        if paths == 1:
            algo.post(self.SIZE)       # plain RC: messages queue
        else:
            with pytest.raises(TransportError):
                algo.post(self.SIZE)
        cl.sim.run()
        assert len(log) == (2 if paths == 1 else 1) * (len(members) - 1)
        assert completed == [first]    # the refused post disturbed nothing
