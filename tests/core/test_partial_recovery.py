"""Fine-grained fallback: partial registration + survivor re-forming."""

import pytest

from repro.apps import Cluster
from repro.collectives import CepheusBcast
from repro.errors import RegistrationError
from repro.net import FailureInjector


class TestPartialRegistration:
    def test_all_alive_returns_empty_missing(self, testbed):
        qps = {ip: testbed.ctx(ip).create_qp() for ip in testbed.host_ips}
        g = testbed.fabric.create_group(qps, leader_ip=1)
        missing = testbed.fabric.register_partial_sync(g)
        assert missing == set()
        assert g.registered

    def test_silent_member_reported(self, testbed):
        qps = {ip: testbed.ctx(ip).create_qp() for ip in testbed.host_ips}
        g = testbed.fabric.create_group(qps, leader_ip=1)
        testbed.topo.nic(3).control_handler = None
        missing = testbed.fabric.register_partial_sync(g, timeout=1e-3)
        assert missing == {3}
        assert g.registered  # partial success is success

    def test_everyone_silent_fails(self, testbed):
        qps = {ip: testbed.ctx(ip).create_qp() for ip in testbed.host_ips}
        g = testbed.fabric.create_group(qps, leader_ip=1)
        for ip in (2, 3, 4):
            testbed.topo.nic(ip).control_handler = None
        with pytest.raises(RegistrationError):
            testbed.fabric.register_partial_sync(g, timeout=1e-3)

    def test_unregister_frees_switch_state(self, testbed):
        qps = {ip: testbed.ctx(ip).create_qp() for ip in testbed.host_ips}
        g = testbed.fabric.create_group(qps, leader_ip=1)
        testbed.fabric.register_sync(g)
        accel = testbed.fabric.accelerators["sw0"]
        assert accel.mft_of(g.mcst_id) is not None
        testbed.fabric.unregister(g)
        assert accel.mft_of(g.mcst_id) is None
        assert g.mcst_id not in testbed.fabric.groups


class TestPartialRecovery:
    def _run(self, fail_ip):
        cl = Cluster.fat_tree_cluster(4)
        inj = FailureInjector(cl.topo)
        members = [1, 2, 3, 5]
        algo = CepheusBcast(cl, members, safeguard=True,
                            expected_bps=90e9, recovery="partial")
        algo.prepare()
        inj.fail_host_link(fail_ip, at=100e-6)
        result = algo.run(16 << 20)
        return cl, algo, result

    def test_survivors_served_in_network(self):
        cl, algo, r = self._run(fail_ip=5)
        assert algo.fell_back
        assert algo.unreachable == {5}
        assert set(r.recv_times) == {2, 3}
        assert r.algorithm == "cepheus+partial"
        assert r.sender_done is not None

    def test_simulation_drains_cleanly(self):
        cl, algo, r = self._run(fail_ip=5)
        assert cl.sim.pending == 0 or cl.sim.peek_next_time() is None

    def test_recovered_group_is_fresh(self):
        cl, algo, r = self._run(fail_ip=5)
        assert 5 not in algo.group.members
        assert set(algo.group.members) == {1, 2, 3}

    def test_second_broadcast_after_recovery_serves_survivors(self):
        """A successful partial recovery leaves an in-network group of
        survivors behind: the next run() posts on it (no AMcast
        algorithm was ever built) and excuses the unreachable member."""
        cl, algo, _ = self._run(fail_ip=5)
        r2 = algo.run(1 << 20)
        assert set(r2.recv_times) == {2, 3}
        assert r2.sender_done is not None
        assert cl.sim.peek_next_time() is None
        # what the first recovery reported stays reported
        assert algo.fell_back and algo.unreachable == {5}
        assert "goodput" in algo.fallback_reason
        assert r2.algorithm == "cepheus+partial"

    def test_invalid_recovery_mode(self, testbed):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            CepheusBcast(testbed, testbed.host_ips, recovery="seance")

    def test_healthy_run_untouched_by_mode(self, testbed):
        algo = CepheusBcast(testbed, testbed.host_ips, safeguard=True,
                            recovery="partial")
        r = algo.run(8 << 20)
        assert not algo.fell_back
        assert algo.unreachable == set()
        assert r.algorithm == "cepheus"
