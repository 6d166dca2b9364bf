"""Membership delta coalescing: batched MRP deltas must converge to the
same fabric state as the op-at-a-time sequence.

The broker-fabric scenario retires/admits subscribers by the thousand;
coalescing folds every op arriving within one window into a single
multi-record MRP delta.  These tests pin the two properties that make
that safe:

* **convergence** — for any batch of join/leave ops, the final group
  membership, epoch, and per-switch MFT state (path entries, member
  sets, reverse index) are identical to the uncoalesced sequence;
* **aggregate release** — a coalesced LEAVE that removes the member
  gating a pending min-AckPSN aggregate unsticks the in-flight transfer
  exactly like the uncoalesced LEAVE does.
"""

import random
from dataclasses import replace

import pytest

from repro.apps import Cluster
from repro.check import InvariantMonitor
from repro.collectives import CepheusBcast
from repro.errors import ConfigurationError, GroupError
from repro.net.failures import FailureInjector

WINDOW = 200e-6


def _cluster(n=10):
    return Cluster.testbed(n)


def _group_of(cl, n_members):
    algo = CepheusBcast(cl, cl.host_ips[:n_members])
    algo.prepare()
    return algo


def _drain(cl, mm):
    """Run the sim until every pending/in-flight delta settles."""
    mm.flush_pending()
    for _ in range(10_000):
        if not mm._inflight and not mm._pending:
            return
        nxt = cl.sim.peek_next_time()
        if nxt is None:
            break
        cl.sim.run(until=nxt)
    assert not mm._inflight and not mm._pending, "deltas never settled"


def _mft_state(cl):
    """JSON-able snapshot of every accelerator's per-group MDT state."""
    state = {}
    for name, accel in sorted(cl.fabric.accelerators.items()):
        for gid, mft in accel.table.items():
            rows = sorted((e.port, e.is_host, e.dst_ip, e.dst_qp)
                          for e in mft.entries())
            members = {p: sorted(s) for p, s in
                       sorted(mft.port_members.items())}
            state[(name, gid)] = (rows, members,
                                  dict(sorted(mft.member_port.items())),
                                  mft.epoch)
    return state


def _apply_ops(cl, algo, ops, window):
    """Apply (kind, ip) ops; coalesced when window is not None."""
    mm = cl.fabric.membership(algo.group, coalesce_window=window)
    for kind, ip in ops:
        if kind == "join":
            qp = cl.ctx(ip).create_qp()
            if window is None:
                mm.join_sync(ip, qp)
            else:
                mm.join(ip, qp)
        else:
            if window is None:
                mm.leave_sync(ip)
            else:
                mm.leave(ip)
    _drain(cl, mm)
    return mm


def _draw_ops(rng, initial, outsiders):
    """A random conflict-free batch: distinct targets, never the leader,
    never below the 2-member floor."""
    members = set(initial)
    ops = []
    leader = initial[0]
    join_pool = list(outsiders)
    leave_pool = [ip for ip in initial[1:]]
    rng.shuffle(join_pool)
    rng.shuffle(leave_pool)
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(("join", "leave"))
        if kind == "join" and join_pool:
            ip = join_pool.pop()
            ops.append(("join", ip))
            members.add(ip)
        elif leave_pool and len(members) > 3:
            ip = leave_pool.pop()
            ops.append(("leave", ip))
            members.discard(ip)
    return ops


class TestConvergence:
    def test_batched_ops_converge_to_uncoalesced_state(self):
        """Property: over seeded random batches, coalesced == sequential
        for membership, epoch, and every switch's MFT/member state."""
        for seed in range(8):
            rng = random.Random(seed)
            cl_a, cl_b = _cluster(), _cluster()
            algo_a, algo_b = _group_of(cl_a, 5), _group_of(cl_b, 5)
            initial = cl_a.host_ips[:5]
            outsiders = cl_a.host_ips[5:]
            ops = _draw_ops(rng, initial, outsiders)
            _apply_ops(cl_a, algo_a, ops, window=None)
            _apply_ops(cl_b, algo_b, ops, window=WINDOW)

            assert sorted(algo_a.group.members) == sorted(algo_b.group.members)
            assert algo_a.group.epoch == algo_b.group.epoch
            sa, sb = _mft_state(cl_a), _mft_state(cl_b)
            assert set(sa) == set(sb)
            for key in sa:
                rows_a, mem_a, idx_a, _ = sa[key]
                rows_b, mem_b, idx_b, _ = sb[key]
                assert rows_a == rows_b, (seed, key)
                assert mem_a == mem_b, (seed, key)
                assert idx_a == idx_b, (seed, key)

    def test_epoch_log_matches_op_order(self):
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
        ip_a, ip_b = cl.host_ips[4], cl.host_ips[5]
        mm.join(ip_a, cl.ctx(ip_a).create_qp())
        mm.join(ip_b, cl.ctx(ip_b).create_qp())
        mm.leave(cl.host_ips[1])
        _drain(cl, mm)
        assert mm.epoch_log == [(1, "join", ip_a), (2, "join", ip_b),
                                (3, "leave", cl.host_ips[1])]
        assert algo.group.epoch == 3

    def test_coalesced_window_emits_one_delta_per_op_kind(self):
        """Three joins in one window ride a single MRP delta packet;
        uncoalesced they cost three."""
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
        for ip in cl.host_ips[4:7]:
            mm.join(ip, cl.ctx(ip).create_qp())
        assert mm.mrp_deltas_sent == 0     # window still open
        _drain(cl, mm)
        assert mm.mrp_deltas_sent == 1
        assert mm.membership_ops == 3
        assert mm.mrp_confirms_rx == 3     # every joiner confirms
        for ip in cl.host_ips[4:7]:
            assert ip in algo.group.members

    def test_uncoalesced_counterpart_costs_one_delta_per_op(self):
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group)
        for ip in cl.host_ips[4:7]:
            mm.join_sync(ip, cl.ctx(ip).create_qp())
        assert mm.mrp_deltas_sent == 3
        assert mm.membership_ops == 3

    def test_changing_the_window_of_a_live_manager_is_refused(self):
        """The window is fixed when the manager is created: asking for a
        different one later must not be silently ignored."""
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
        assert cl.fabric.membership(algo.group) is mm             # None: as is
        assert cl.fabric.membership(algo.group, WINDOW) is mm
        with pytest.raises(ConfigurationError, match="0.0002.*0.001"):
            cl.fabric.membership(algo.group, coalesce_window=1e-3)
        assert mm.coalesce_window == WINDOW

    def test_conflicting_op_in_window_rejected_without_side_effects(self):
        """join(ip) then leave(ip) inside one window is rejected BEFORE
        the host-side group mutation, so membership and MDT never
        diverge — callers serialize via has_inflight()."""
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
        ip = cl.host_ips[4]
        mm.join(ip, cl.ctx(ip).create_qp())
        epoch = algo.group.epoch
        with pytest.raises(GroupError):
            mm.leave(ip)
        assert ip in algo.group.members      # leave did NOT half-apply
        assert algo.group.epoch == epoch
        _drain(cl, mm)
        mm.leave(ip)                          # serialized: now legal
        _drain(cl, mm)
        assert ip not in algo.group.members

    def test_duplicate_op_in_window_rejected(self):
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
        ip = cl.host_ips[4]
        mm.join(ip, cl.ctx(ip).create_qp())
        assert mm.has_inflight(ip)
        with pytest.raises(GroupError):
            mm.join(ip, cl.ctx(ip).create_qp())
        _drain(cl, mm)
        assert not mm.has_inflight(ip)

    def test_join_sync_pumps_through_the_window(self):
        cl = _cluster()
        algo = _group_of(cl, 4)
        mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
        ip = cl.host_ips[4]
        mm.join_sync(ip, cl.ctx(ip).create_qp())
        assert ip in algo.group.members
        assert not mm._inflight and not mm._pending


class TestAggregateRelease:
    def test_coalesced_leave_unsticks_pending_aggregate(self):
        """A receiver stops acking mid-transfer; a coalesced LEAVE batch
        retiring it must release the min-AckPSN aggregate exactly like
        the uncoalesced path (same completion, same final aggregate)."""
        results = {}
        for window in (None, WINDOW):
            cl = _cluster(8)
            algo = _group_of(cl, 5)
            mm = cl.fabric.membership(algo.group, coalesce_window=window)
            injector = FailureInjector(cl.topo)
            victim = cl.host_ips[3]
            done = []
            src = algo.group.members[algo.group.current_source]

            def cut(cl=cl, injector=injector, victim=victim):
                sw, port = cl.topo.leaf_of(victim)
                injector.fail_link(sw, port)

            def retire(mm=mm, victim=victim):
                mm.prune(victim)

            cl.sim.schedule(20e-6, cut)
            cl.sim.schedule(400e-6, retire)
            src.post_send(256_000,
                          on_complete=lambda mid, now: done.append(now))
            cl.sim.run(until=cl.sim.now + 0.02)
            assert done, f"transfer stuck with window={window}"
            assert src.send_idle
            sw0 = next(iter(cl.fabric.accelerators.values()))
            mft = sw0.table.get(algo.group.mcst_id)
            results[window] = (len(done), mft.agg_ack_psn,
                               sorted(algo.group.members))
        assert results[None] == results[WINDOW]


class TestChurnHarnessWithCoalescing:
    def test_churn_campaign_clean_under_invariant_checker(self):
        """The fuzz campaign's churn preset (joins, leaves, a crash
        auto-pruned by the failure detector) with coalescing enabled:
        exactly-once delivery, no failed delta and every invariant —
        including the member-index sync check — must hold."""
        from repro.harness.fuzz import CAMPAIGN, CHURN

        cfg = replace(CHURN, coalesce_window=WINDOW)
        doc = CAMPAIGN.run(cfg, seed=11, trials=2, shrink=False)
        assert doc["failing_trials"] == []
        for r in doc["records"]:
            assert r["fail_reasons"] == []
            (run,) = r["deployments"]
            assert run["violations"] == []
        assert any(r["deployments"][0]["pruned"] for r in doc["records"])

    def test_fat_tree_churn_with_coalescing(self):
        from repro.harness.fuzz import CAMPAIGN, CHURN

        cfg = replace(CHURN, topo="fat_tree", hosts=8, k=4,
                      coalesce_window=WINDOW)
        doc = CAMPAIGN.run(cfg, seed=7, trials=1, shrink=False)
        assert doc["failing_trials"] == []


class TestBatchFailure:
    def test_partial_batch_failure_names_only_missing_members(self):
        """Two joiners in one batch; one never confirms — the failure
        entries must name the silent member only, and the landed state
        stays consistent (the monitor's sweep passes)."""
        cl = _cluster()
        algo = _group_of(cl, 4)
        monitor = InvariantMonitor()
        monitor.attach_cluster(cl)
        try:
            mm = cl.fabric.membership(algo.group, coalesce_window=WINDOW)
            good, bad = cl.host_ips[4], cl.host_ips[5]
            cl.topo.nic(bad).control_handler = None   # silent joiner
            mm.join(good, cl.ctx(good).create_qp())
            mm.join(bad, cl.ctx(bad).create_qp())
            mm.flush_pending()
            cl.sim.run(until=cl.sim.now + 0.02)
            assert mm.delta_failures
            assert all(ip == bad for _, ip, _ in mm.delta_failures)
            assert good in algo.group.members
            monitor.check_mft_consistency(cl.fabric, expect_connected=True)
            assert monitor.violations == []
        finally:
            monitor.detach()
