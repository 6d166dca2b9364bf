"""MRP transaction recovery: confirmation timeouts, retries, switch
errors — the one state machine, checked for every op it runs."""

import pytest

from repro.apps import Cluster
from repro.core.accelerator import AcceleratorConfig
from repro.core.mrp import MrpError, MrpTransaction
from repro.errors import RegistrationError
from repro.net.packet import Packet, PacketType


def _start(cl, op, *, timeout=10e-3, retries=0, joiner=3):
    """Start one ``op`` transaction on a group led by host 1: a full
    registration of hosts 1-4, ``joiner`` joining {1, 2, 4}, or member 3
    leaving {1, 2, 3, 4}."""
    fabric = cl.fabric
    outcome = {"ok": False, "reason": None}

    def done(txn):
        outcome.update(ok=txn.failed_reason is None, reason=txn.failed_reason)

    ips = [1, 2, 4] if op == "join" else [1, 2, 3, 4]
    group = fabric.create_group(
        {ip: cl.ctx(ip).create_qp() for ip in ips}, leader_ip=1)
    if op == "register":
        txn = MrpTransaction(cl.sim, group, cl.topo.nic(1),
                             timeout=timeout, retries=retries, on_done=done)
        fabric.agents[1].attach_controller(txn)
        txn.start()
        return group, txn, outcome
    fabric.register_sync(group)
    mm = fabric.membership(group)
    mm.delta_timeout, mm.delta_retries = timeout, retries
    if op == "join":
        txn = mm.join(joiner, cl.ctx(joiner).create_qp(), on_done=done)
    else:
        txn = mm.leave(3, on_done=done)
    return group, txn, outcome


def _deaf_nic(cl, op):
    """The NIC whose silence loses member 3's confirmation: member 3
    itself — except for a LEAVE, which the leaf confirms on the
    member's behalf, so only the leader can fail to hear it."""
    return cl.topo.nic(1 if op == "leave" else 3)


class TestTimeout:
    """Every case runs once per op: the subclasses below re-bind ``op``."""

    op = "register"

    def test_silent_member_times_out_without_retries(self, testbed):
        group, txn, outcome = _start(testbed, self.op, timeout=500e-6)
        _deaf_nic(testbed, self.op).control_handler = None
        testbed.sim.run()
        assert not outcome["ok"]
        assert "timeout" in outcome["reason"]
        assert txn.resends == 0
        assert "[3]" in outcome["reason"]   # names the silent member
        assert txn.unconfirmed() == [3]
        assert testbed.sim.peek_next_time() is None

    def test_retry_resends_and_recovers(self, testbed):
        group, txn, outcome = _start(testbed, self.op,
                                     timeout=500e-6, retries=1)
        nic = _deaf_nic(testbed, self.op)
        saved, nic.control_handler = nic.control_handler, None
        # Heal before the retry window fires: the re-sent (idempotent)
        # MRP packets must complete the transaction.
        testbed.sim.schedule(
            400e-6, lambda: setattr(nic, "control_handler", saved))
        testbed.sim.run()
        assert outcome["ok"]
        assert txn.resends == 1
        assert txn.unconfirmed() == []
        assert group.registered
        assert (3 in group.members) == (self.op != "leave")

    def test_retries_exhausted_still_fails(self, testbed):
        group, txn, outcome = _start(testbed, self.op,
                                     timeout=300e-6, retries=2)
        _deaf_nic(testbed, self.op).control_handler = None
        testbed.sim.run()
        assert not outcome["ok"]
        assert txn.resends == 2
        assert "timeout" in outcome["reason"]


class TestJoinTimeout(TestTimeout):
    op = "join"


class TestLeaveTimeout(TestTimeout):
    op = "leave"


def _start_rejected(op, **kwargs):
    """Start ``op`` where it hits a switch with no MFT memory left."""
    if op == "register":
        cl = Cluster.testbed(4, accel_config=AcceleratorConfig(max_groups=0))
        return cl, *_start(cl, op, **kwargs)
    # One MFT per switch: a squatter group fills edge1_0 (hosts 5, 6), so
    # the JOIN that must extend the tree to host 5 is rejected there.
    cl = Cluster.fat_tree_cluster(
        4, accel_config=AcceleratorConfig(max_groups=1))
    squat = cl.fabric.create_group(
        {ip: cl.ctx(ip).create_qp() for ip in (5, 6)}, leader_ip=5)
    cl.fabric.register_sync(squat)
    return cl, *_start(cl, op, joiner=5, **kwargs)


class _RejectedBySwitch:
    op: str
    switch: str

    def test_mft_capacity_error_names_the_switch(self):
        cl, group, txn, outcome = _start_rejected(self.op)
        cl.sim.run()
        assert not outcome["ok"]
        assert self.switch in outcome["reason"]
        assert "exhausted" in outcome["reason"]
        assert group.registered == (self.op != "register")

    def test_switch_error_fails_fast_no_retry_storm(self):
        """A hard switch rejection must not burn the retry budget — the
        error is deterministic, not a lost packet."""
        cl, group, txn, outcome = _start_rejected(self.op, retries=3)
        cl.sim.run()
        assert not outcome["ok"]
        assert txn.resends == 0
        assert cl.sim.peek_next_time() is None   # timer cancelled


class TestSwitchError(_RejectedBySwitch):
    op, switch = "register", "sw0"

    def test_register_sync_raises_on_switch_error(self):
        cl = Cluster.testbed(4, accel_config=AcceleratorConfig(max_groups=0))
        fabric = cl.fabric
        qps = {ip: cl.ctx(ip).create_qp() for ip in cl.host_ips}
        group = fabric.create_group(qps, leader_ip=cl.host_ips[0])
        with pytest.raises(RegistrationError):
            fabric.register_sync(group)


class TestJoinSwitchError(_RejectedBySwitch):
    op, switch = "join", "edge1_0"


def test_switch_error_fails_an_inflight_leave(testbed):
    """No switch rejects a removal (it allocates nothing), but an error
    naming the group fails every delta in flight on it."""
    group, txn, outcome = _start(testbed, "leave", retries=3)
    err = MrpError(group.mcst_id, "switch MFT memory exhausted", "sw0")
    testbed.topo.nic(1).control_handler(
        Packet(PacketType.CTRL, 0, 1, payload=32, meta=err))
    assert txn.finished and not outcome["ok"]
    assert "sw0" in outcome["reason"]
    assert txn.resends == 0
