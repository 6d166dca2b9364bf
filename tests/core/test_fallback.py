"""Safeguard fallback (§V-D): registration failure + goodput collapse."""

import pytest

from repro import constants
from repro.apps import Cluster
from repro.collectives import CepheusBcast, ChainBcast
from repro.core.accelerator import AcceleratorConfig
from repro.core.fallback import SafeguardMonitor


class TestMonitor:
    def _transfer(self, loss=0.0):
        cl = Cluster.testbed(2)
        cl.topo.set_loss_rate(loss)
        qa = cl.qp_to(1, 2)
        return cl, qa

    def test_healthy_transfer_never_trips(self):
        cl, qa = self._transfer()
        tripped = []
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9,
                               on_fallback=tripped.append)
        qa.post_send(32 << 20)
        mon.start()
        cl.run()
        assert tripped == [] and not mon.triggered

    def test_collapsed_goodput_trips(self):
        """A catastrophic loss rate starves snd_una: the watchdog fires."""
        cl, qa = self._transfer(loss=0.4)
        tripped = []
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9,
                               window=200e-6,
                               on_fallback=tripped.append)
        qa.post_send(32 << 20)
        mon.start()
        cl.run(until=20e-3)
        assert mon.triggered
        assert len(tripped) == 1
        assert "Gbps" in tripped[0]

    def test_trip_idempotent(self):
        cl, qa = self._transfer()
        count = []
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9,
                               on_fallback=count.append)
        mon.trip("first")
        mon.trip("second")
        assert count == ["first"]
        assert mon.trigger_reason == "first"

    def test_monitor_stands_down_when_idle(self):
        cl, qa = self._transfer()
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9)
        qa.post_send(4096)
        mon.start()
        cl.run()
        assert cl.sim.peek_next_time() is None  # no orphaned timers

    def test_bounded_idle_rearm_then_stand_down(self):
        """The watchdog re-arms through idle windows (a gap between
        back-to-back sends is not the end of the transfer), but only
        ``idle_grace_windows`` times — then it drains for good."""
        cl, qa = self._transfer()
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9, window=100e-6,
                               idle_grace_windows=4)
        qa.post_send(4096)
        mon.start()
        cl.run()
        assert not mon.triggered
        assert mon._idle_windows == 4          # re-armed exactly 4 times
        assert cl.sim.peek_next_time() is None

    def test_guards_send_posted_during_idle_gap(self):
        """A transfer that starts inside the idle grace period is still
        watched: if its goodput collapses, the monitor trips — the old
        behavior stood down permanently on the first idle window."""
        cl, qa = self._transfer()
        tripped = []
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9, window=200e-6,
                               idle_grace_windows=50,
                               on_fallback=tripped.append)
        qa.post_send(4096)                      # finishes almost instantly
        mon.start()
        # Mid-grace: cripple the path, then post a doomed second send.
        cl.sim.schedule(1e-3, cl.topo.set_loss_rate, 0.9)
        cl.sim.schedule(1.1e-3, qa.post_send, 8 << 20)
        cl.run(until=30e-3)
        assert mon.triggered
        assert len(tripped) == 1

    def test_active_window_resets_idle_budget(self):
        """Idle windows interleaved with traffic never exhaust the
        grace budget — only a *consecutive* run of them stands down."""
        cl, qa = self._transfer()
        mon = SafeguardMonitor(cl.sim, qa, expected_bps=90e9, window=100e-6,
                               idle_grace_windows=3)
        qa.post_send(4096)
        mon.start()
        # Re-post inside the grace period a few times: each active
        # window must zero the idle counter.
        for i in range(1, 4):
            cl.sim.schedule(i * 150e-6, qa.post_send, 4096)
        cl.run()
        assert not mon.triggered
        assert cl.sim.peek_next_time() is None  # still drains eventually


class TestRegistrationFallback:
    def test_falls_back_to_chain_when_mft_full(self):
        cl = Cluster.testbed(4, accel_config=AcceleratorConfig(max_groups=0))
        algo = CepheusBcast(cl, cl.host_ips)
        r = algo.run(1 << 20)
        assert algo.fell_back
        assert "registration failed" in algo.fallback_reason
        assert r.algorithm == "cepheus+fallback"
        assert set(r.recv_times) == {2, 3, 4}

    def test_fallback_jct_is_amcast_class(self):
        """Fallback runs must look like Chain, not like Cepheus."""
        size = 8 << 20
        cl_ok = Cluster.testbed(4)
        native = CepheusBcast(cl_ok, cl_ok.host_ips).run(size).jct
        cl_chain = Cluster.testbed(4)
        chain_jct = ChainBcast(cl_chain, cl_chain.host_ips,
                               slices=4).run(size).jct
        cl_bad = Cluster.testbed(4, accel_config=AcceleratorConfig(max_groups=0))
        fallen = CepheusBcast(cl_bad, cl_bad.host_ips).run(size).jct
        assert fallen > 1.2 * native
        assert fallen == pytest.approx(chain_jct, rel=0.15)


    def test_failed_lane_fails_the_whole_family(self):
        """One MFT slot per switch, two lanes: lane 1 is rejected at the
        shared leaf.  The registration must fail once, as a whole — not
        let the surviving lane mark the group registered later."""
        cl = Cluster.fat_tree_cluster(
            4, accel_config=AcceleratorConfig(max_groups=1))
        members = cl.host_ips[:6]
        lanes = [{ip: cl.ctx(ip).create_qp() for ip in members}
                 for _ in range(2)]
        group = cl.fabric.create_group(lanes[0], leader_ip=members[0],
                                       lane_members=lanes)
        failures, successes = [], []
        cl.fabric.register(group, on_failure=failures.append,
                           on_success=lambda: successes.append(True))
        cl.sim.run()
        assert len(failures) == 1 and "exhausted" in failures[0]
        assert not successes
        assert group.registered is False
        assert cl.sim.peek_next_time() is None


class TestMidFlightFallback:
    def test_goodput_collapse_reissues_over_amcast(self):
        """Accelerators vanish mid-flight (model of a fabric fault): the
        watchdog trips and the payload is re-sent over Chain."""
        cl = Cluster.testbed(4)
        algo = CepheusBcast(cl, cl.host_ips, safeguard=True,
                            expected_bps=90e9)
        algo.prepare()

        def sabotage():
            # Unregister the group from the switch: multicast data and
            # feedback now hit 'unregistered' drops -> zero goodput.
            accel = cl.fabric.accelerators["sw0"]
            accel.table.remove(algo.group.mcst_id)

        cl.sim.schedule(50e-6, sabotage)
        r = algo.run(64 << 20)
        assert algo.fell_back
        assert "goodput" in algo.fallback_reason
        assert set(r.recv_times) == {2, 3, 4}
        assert r.algorithm == "cepheus+fallback"
