"""InvariantMonitor unit tests + the mutation smoke tests.

A checker that never fires is worse than no checker: the mutation tests
deliberately corrupt one protocol invariant at a time (via the
``psn_tx_hook`` fault hook and hand-built broken MFTs) and assert the
monitor flags exactly that violation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import constants
from repro.apps import Cluster
from repro.check import InvariantMonitor, InvariantViolationError
from repro.check.invariants import _mft_clean
from repro.collectives import CepheusBcast
from repro.core.feedback import FeedbackEngine
from repro.core.mft import Mft, PathEntry
from repro.net.packet import PacketType
from repro.transport import qp as qp_state
from repro.transport.roce import RoceConfig


# ---------------------------------------------------------------------------
# clean runs stay clean
# ---------------------------------------------------------------------------

def test_clean_broadcast_produces_no_violations(testbed):
    monitor = InvariantMonitor()
    monitor.attach_cluster(testbed)
    try:
        algo = CepheusBcast(testbed, testbed.host_ips)
        r = algo.run(16 * constants.MTU_BYTES)
        assert len(r.recv_times) == 3
        assert monitor.ok
        assert monitor.events_checked > 0
        monitor.check_mft_consistency(testbed.fabric, expect_connected=True)
        monitor.assert_clean()
    finally:
        monitor.detach()


def test_detach_removes_every_bus_subscription(testbed):
    bus = testbed.sim.bus
    before = bus.subscriber_count()
    monitor = InvariantMonitor()
    monitor.attach_cluster(testbed)
    assert bus.is_subscribed("qp_send", monitor.on_qp_send)
    assert bus.is_subscribed("deliver", monitor.on_qp_deliver)
    assert bus.is_subscribed("feedback", monitor.on_feedback)
    assert bus.is_subscribed("replicate", monitor.on_replicate)
    assert bus.is_subscribed("membership_epoch", monitor.on_membership_epoch)
    assert bus.is_subscribed("event", monitor.on_event)
    # attach is idempotent: a second walk over overlapping components
    # (fabric + per-QP + cluster-wide) must not duplicate subscriptions
    n = bus.subscriber_count()
    monitor.attach_cluster(testbed)
    assert bus.subscriber_count() == n
    monitor.detach()
    assert bus.subscriber_count() == before


def test_summary_shape(testbed):
    monitor = InvariantMonitor()
    monitor.attach_cluster(testbed)
    try:
        CepheusBcast(testbed, testbed.host_ips).run(constants.MTU_BYTES)
    finally:
        monitor.detach()
    s = monitor.summary()
    assert s["violations"] == []
    assert s["events_checked"] == monitor.events_checked


# ---------------------------------------------------------------------------
# mutation smoke: a seeded PSN skip must be detected
# ---------------------------------------------------------------------------

def test_mutation_psn_skip_is_flagged(testbed):
    """THE checker-vs-checker guard: corrupt the wire PSN stream (skip
    one PSN mid-message) and require the monitor to notice."""
    monitor = InvariantMonitor()
    monitor.attach_cluster(testbed)
    skip_at = 5
    qp_state.psn_tx_hook = (
        lambda qp, psn: psn + 1 if psn >= skip_at else psn)
    try:
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.prepare()
        algo.qps[1].post_send(10 * constants.MTU_BYTES)
        # The transfer can never complete (the skipped PSN is a
        # permanent hole) — run a bounded window instead of draining.
        testbed.sim.run(until=testbed.sim.now + 2e-3)
    finally:
        qp_state.psn_tx_hook = None
        monitor.detach()
    kinds = {v.invariant for v in monitor.violations}
    assert "psn-contiguity" in kinds, monitor.summary()
    with pytest.raises(InvariantViolationError):
        monitor.assert_clean()


def test_strict_mode_raises_at_first_violation(testbed):
    monitor = InvariantMonitor(strict=True)
    monitor.attach_cluster(testbed)
    qp_state.psn_tx_hook = lambda qp, psn: psn + 1 if psn >= 3 else psn
    try:
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.prepare()
        algo.qps[1].post_send(8 * constants.MTU_BYTES)
        with pytest.raises(InvariantViolationError):
            testbed.sim.run(until=testbed.sim.now + 2e-3)
    finally:
        qp_state.psn_tx_hook = None
        monitor.detach()


def test_without_monitor_the_corruption_is_silent(testbed):
    """Why the monitor exists: the same mutation without it produces no
    exception at all — just a transfer that quietly never finishes."""
    qp_state.psn_tx_hook = lambda qp, psn: psn + 1 if psn >= 5 else psn
    try:
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.prepare()
        done = {}
        algo.qps[1].post_send(10 * constants.MTU_BYTES,
                              on_complete=lambda m, t: done.setdefault("t", t))
        testbed.sim.run(until=testbed.sim.now + 2e-3)
        assert not done  # stalled forever, no error raised anywhere
    finally:
        qp_state.psn_tx_hook = None


# ---------------------------------------------------------------------------
# feedback-rule mutations (hand-driven engine)
# ---------------------------------------------------------------------------

GID = constants.MCSTID_BASE


def _mft(n_ports):
    mft = Mft(GID, n_ports + 1)
    mft.add_entry(PathEntry(port=n_ports, is_host=False))
    mft.ack_out_port = n_ports
    for p in range(n_ports):
        mft.add_entry(PathEntry(port=p, is_host=True))
    return mft


def test_ack_overclaim_mutation_is_flagged():
    """Force an over-claimed aggregated ACK through the observer path
    (as a buggy engine would emit it) and require `ack-overclaim`."""
    eng = FeedbackEngine()
    monitor = InvariantMonitor()
    monitor.attach_engine(eng)
    mft = _mft(3)
    # only port 0 has acked psn 9; ports 1-2 are at NO_ACK
    eng.on_ack(mft, 0, 9)
    assert monitor.ok
    # a buggy aggregation emitting ACK(9) anyway:
    monitor.on_feedback(eng, mft, PacketType.ACK, 0, 9,
                        [(PacketType.ACK, 9)])
    assert {v.invariant for v in monitor.violations} == {"ack-overclaim"}


def test_ack_regression_mutation_is_flagged():
    eng = FeedbackEngine()
    monitor = InvariantMonitor()
    monitor.attach_engine(eng)
    mft = _mft(2)
    for p in (0, 1):
        eng.on_ack(mft, p, 7)
    assert monitor.ok  # legitimate aggregate ACK(7) observed
    monitor.on_feedback(eng, mft, PacketType.ACK, 0, 3,
                        [(PacketType.ACK, 3)])
    assert "ack-regression" in {v.invariant for v in monitor.violations}


def test_nack_covering_mutation_is_flagged():
    eng = FeedbackEngine()
    monitor = InvariantMonitor()
    monitor.attach_engine(eng)
    mft = _mft(3)
    eng.on_ack(mft, 0, 5)   # ports 1-2 still at NO_ACK
    assert monitor.ok
    monitor.on_feedback(eng, mft, PacketType.NACK, 0, 6,
                        [(PacketType.NACK, 6)])
    assert "nack-covers-loss" in {v.invariant for v in monitor.violations}


# ---------------------------------------------------------------------------
# structural sweeps
# ---------------------------------------------------------------------------

def test_mft_consistency_flags_dangling_index(testbed):
    algo = CepheusBcast(testbed, testbed.host_ips)
    algo.prepare()
    monitor = InvariantMonitor()
    accel = next(iter(testbed.fabric.accelerators.values()))
    mft = accel.mft_of(algo.group.mcst_id)
    mft.path_index[0] = 99  # corrupt: index points past the path table
    monitor.check_mft_consistency(testbed.fabric)
    kinds = {v.invariant for v in monitor.violations}
    assert "mft-dangling-index" in kinds


def test_mft_consistency_flags_severed_path(testbed):
    from repro.net.failures import FailureInjector

    algo = CepheusBcast(testbed, testbed.host_ips)
    algo.prepare()
    inj = FailureInjector(testbed.topo)
    inj.fail_host_link(2)
    monitor = InvariantMonitor()
    # online sweeps tolerate severed links ...
    monitor.check_mft_consistency(testbed.fabric, expect_connected=False)
    assert monitor.ok
    # ... the post-repair sweep does not
    monitor.check_mft_consistency(testbed.fabric, expect_connected=True)
    assert "mft-severed-path" in {v.invariant for v in monitor.violations}

# ---------------------------------------------------------------------------
# structural sweep: the corruption table for all twelve mft-* rules
# ---------------------------------------------------------------------------

GA, GB = GID, GID + 1


def _fat_tree_two_groups():
    """fat_tree(4) with two registered groups: A (hosts 1-6, one
    broadcast, host 9 joined, host 4 left — epochs, AckPSNs and member
    records all populated) and B (hosts 5-10, registered only)."""
    cl = Cluster.fat_tree_cluster(4)
    ips = cl.host_ips
    a = CepheusBcast(cl, ips[:6])
    a.run(64 * 1024)
    a.join(ips[8])
    a.leave(ips[3])
    b = CepheusBcast(cl, ips[4:10])
    b.prepare()
    assert (a.group.mcst_id, b.group.mcst_id) == (GA, GB)
    return cl


def _x(cl, switch="edge0_0", gid=GA):
    """The MFT a row corrupts.  Default edge0_0/A: rows (port 0, host
    1), (port 1, host 2), (port 2, uplink); Path Index [1, 2, 3, 0];
    AckOutPort 0; AggAckPSN 15; epoch 2; ports 0-1 are host ports."""
    return cl.fabric.accelerators[switch].mft_of(gid)


def _swap_index(cl):
    m = _x(cl)
    m.path_index[0], m.path_index[1] = m.path_index[1], m.path_index[0]


def _sever_host_2(cl):
    from repro.net.failures import FailureInjector
    FailureInjector(cl.topo).fail_host_link(2)


def _listing(monitor):
    return [(v.invariant, v.where, v.detail) for v in monitor.violations]


def _many(*steps):
    def corrupt(cl):
        for step in steps:
            step(cl)
    return corrupt


_radix = lambda cl: _x(cl).path_table.extend(
    [PathEntry(port=3, is_host=False), PathEntry(port=3, is_host=False)])
_dup_port = lambda cl: _x(cl).path_table.append(
    PathEntry(port=1, is_host=False))
_dangling = lambda cl: _x(cl).path_index.__setitem__(3, 9)
_ackout = lambda cl: setattr(_x(cl), "ack_out_port", 3)
_agg = lambda cl: setattr(_x(cl), "agg_ack_psn", 16)
_epoch = lambda cl: setattr(_x(cl), "epoch", 1)
_orphan_port = lambda cl: _x(cl).port_members.__setitem__(3, {77})
_orphan_row = lambda cl: setattr(_x(cl).path_table[1], "dst_ip", 77)

X = "edge0_0/mft 0xe0000000"

# (id, corruption, expect_connected)
CORRUPTIONS = [
    ("radix", _radix, False),
    ("duplicate-port", _dup_port, False),
    ("bad-port", lambda cl: setattr(_x(cl).path_table[1], "port", 7),
     False),
    # -2 wraps onto slot 2, which holds exactly row 2's index
    ("bad-port-negative",
     lambda cl: setattr(_x(cl).path_table[2], "port", -2), False),
    ("index-mismatch", _swap_index, False),
    ("bridging-port",
     lambda cl: setattr(_x(cl).path_table[2], "is_host", True), False),
    ("severed-path", _sever_host_2, True),
    ("severed-path-online", _sever_host_2, False),
    ("dangling-index", _dangling, False),
    # a stray slot that points inside the table: no rule names it
    ("stray-index-in-range",
     lambda cl: _x(cl).path_index.__setitem__(3, 2), False),
    ("ackout-unknown", _ackout, False),
    ("ackout-none", lambda cl: setattr(_x(cl), "ack_out_port", None),
     False),
    ("agg-above-min", _agg, False),
    ("epoch-regression", _epoch, False),
    ("member-orphan-port", _orphan_port, False),
    # ... and the reverse index agrees with the orphaned set
    ("member-orphan-port-indexed",
     _many(_orphan_port, lambda cl: _x(cl).member_port.__setitem__(77, 3)),
     False),
    ("member-orphan-row", _orphan_row, False),
    ("member-records-absent",
     lambda cl: (_x(cl).port_members.clear(), _x(cl).member_port.clear()),
     False),
    ("member-index-wrong-port",
     lambda cl: _x(cl).member_port.__setitem__(5, 1), False),
    ("member-index-port-without-set",
     lambda cl: _x(cl).member_port.__setitem__(5, 3), False),
    ("member-index-only",
     lambda cl: _x(cl).member_port.__setitem__(77, 0), False),
    ("member-set-only", lambda cl: _x(cl).member_port.pop(9), False),
    ("member-in-two-sets",
     lambda cl: _x(cl).port_members[1].add(1), False),
    # two or more corruptions in one MFT: order within an MFT
    ("dangling+agg+epoch", _many(_epoch, _agg, _dangling), False),
    ("swap+ackout+orphans",
     _many(_orphan_row, _orphan_port, _ackout, _swap_index), False),
    ("radix+severed+members",
     _many(_radix, _sever_host_2,
           lambda cl: _x(cl).member_port.__setitem__(5, 1)), True),
    # corruptions in three MFTs: order across switches and groups
    ("three-mfts",
     _many(lambda cl: setattr(_x(cl, "edge1_0", GB), "agg_ack_psn", 4),
           lambda cl: _x(cl, "edge1_0", GA).path_index.__setitem__(3, 5),
           lambda cl: setattr(_x(cl, "core0", GB), "ack_out_port", 3),
           _dangling), False),
]


# id -> [(invariant, where, detail), ...] in the order the sweep reports
# them, recorded from the per-rule sweep at the parent of the PR that
# gave clean MFTs a quick path and required byte-for-byte ever since.
EXPECTED = {
    "radix": [
        ("mft-radix", X, "5 paths exceed radix 4"),
        ("mft-index-mismatch", X, "path_index[3] = 0, row is 3"),
        ("mft-duplicate-port", X, "port 3 appears twice in the path table"),
        ("mft-index-mismatch", X, "path_index[3] = 0, row is 4"),
        ("mft-agg-above-min", X,
         "AggAckPSN 15 above min downstream AckPSN -1"),
    ],
    "duplicate-port": [
        ("mft-duplicate-port", X, "port 1 appears twice in the path table"),
        ("mft-index-mismatch", X, "path_index[1] = 2, row is 3"),
        ("mft-agg-above-min", X,
         "AggAckPSN 15 above min downstream AckPSN -1"),
    ],
    "bad-port": [
        ("mft-bad-port", X, "path row 1 references port 7"),
        ("mft-member-orphan", X,
         "host entry for 2 on port 7 has no member-set record"),
    ],
    "bad-port-negative": [
        ("mft-bad-port", X, "path row 2 references port -2"),
    ],
    "index-mismatch": [
        ("mft-index-mismatch", X, "path_index[0] = 2, row is 0"),
        ("mft-index-mismatch", X, "path_index[1] = 1, row is 1"),
    ],
    "bridging-port": [
        ("mft-bridging-port", X, "host-facing entry on non-host port 2"),
    ],
    "severed-path": [
        ("mft-severed-path", X, "MDT port 1 has no live link"),
    ],
    "severed-path-online": [],
    "dangling-index": [
        ("mft-dangling-index", X, "path_index[3] = 9 but table has 3 rows"),
    ],
    "stray-index-in-range": [],
    "ackout-unknown": [
        ("mft-ackout-unknown", X, "AckOutPort 3 is not a tree port"),
        ("mft-agg-above-min", X,
         "AggAckPSN 15 above min downstream AckPSN -1"),
    ],
    "ackout-none": [
        ("mft-agg-above-min", X,
         "AggAckPSN 15 above min downstream AckPSN -1"),
    ],
    "agg-above-min": [
        ("mft-agg-above-min", X,
         "AggAckPSN 16 above min downstream AckPSN 15"),
    ],
    "epoch-regression": [
        ("mft-epoch-regression", X, "membership epoch went backwards: 2 -> 1"),
    ],
    "member-orphan-port": [
        ("mft-member-orphan", X,
         "port 3 serves members [77] but has no path entry"),
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[77] wrong-port=[]"),
    ],
    "member-orphan-port-indexed": [
        ("mft-member-orphan", X,
         "port 3 serves members [77] but has no path entry"),
    ],
    "member-orphan-row": [
        ("mft-member-orphan", X,
         "host entry for 77 on port 1 has no member-set record"),
    ],
    "member-records-absent": [],
    "member-index-wrong-port": [
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[] wrong-port=[5]"),
    ],
    "member-index-port-without-set": [
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[] "
         "wrong-port=[5]"),
    ],
    "member-index-only": [
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[77] set-only=[] wrong-port=[]"),
    ],
    "member-set-only": [
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[9] wrong-port=[]"),
    ],
    "member-in-two-sets": [
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[] wrong-port=[1]"),
    ],
    "dangling+agg+epoch": [
        ("mft-dangling-index", X, "path_index[3] = 9 but table has 3 rows"),
        ("mft-agg-above-min", X,
         "AggAckPSN 16 above min downstream AckPSN 15"),
        ("mft-epoch-regression", X, "membership epoch went backwards: 2 -> 1"),
    ],
    "swap+ackout+orphans": [
        ("mft-index-mismatch", X, "path_index[0] = 2, row is 0"),
        ("mft-index-mismatch", X, "path_index[1] = 1, row is 1"),
        ("mft-ackout-unknown", X, "AckOutPort 3 is not a tree port"),
        ("mft-agg-above-min", X,
         "AggAckPSN 15 above min downstream AckPSN -1"),
        ("mft-member-orphan", X,
         "port 3 serves members [77] but has no path entry"),
        ("mft-member-orphan", X,
         "host entry for 77 on port 1 has no member-set record"),
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[77] wrong-port=[]"),
    ],
    "radix+severed+members": [
        ("mft-radix", X, "5 paths exceed radix 4"),
        ("mft-severed-path", X, "MDT port 1 has no live link"),
        ("mft-index-mismatch", X, "path_index[3] = 0, row is 3"),
        ("mft-duplicate-port", X, "port 3 appears twice in the path table"),
        ("mft-index-mismatch", X, "path_index[3] = 0, row is 4"),
        ("mft-agg-above-min", X,
         "AggAckPSN 15 above min downstream AckPSN -1"),
        ("mft-member-index-divergence", X,
         "member_port out of sync: index-only=[] set-only=[] wrong-port=[5]"),
    ],
    "three-mfts": [
        ("mft-ackout-unknown", 'core0/mft 0xe0000001',
         "AckOutPort 3 is not a tree port"),
        ("mft-dangling-index", X, "path_index[3] = 9 but table has 3 rows"),
        ("mft-dangling-index", 'edge1_0/mft 0xe0000000',
         "path_index[3] = 5 but table has 3 rows"),
        ("mft-agg-above-min", 'edge1_0/mft 0xe0000001',
         "AggAckPSN 4 above min downstream AckPSN -1"),
    ],
}


@pytest.mark.parametrize("corrupt,expect_connected",
                         [row[1:] for row in CORRUPTIONS],
                         ids=[row[0] for row in CORRUPTIONS])
def test_mft_corruption_table(request, corrupt, expect_connected):
    cl = _fat_tree_two_groups()
    monitor = InvariantMonitor()
    monitor.check_mft_consistency(cl.fabric, expect_connected=True)
    assert monitor.violations == []
    corrupt(cl)
    monitor.check_mft_consistency(cl.fabric, expect_connected)
    assert _listing(monitor) == EXPECTED[request.node.callspec.id]


def test_every_mft_rule_has_a_table_row():
    assert {row[0] for row in CORRUPTIONS} == set(EXPECTED)
    assert {inv for rows in EXPECTED.values() for inv, _, _ in rows} == {
        "mft-radix", "mft-duplicate-port", "mft-bad-port",
        "mft-index-mismatch", "mft-bridging-port", "mft-severed-path",
        "mft-dangling-index", "mft-ackout-unknown", "mft-agg-above-min",
        "mft-epoch-regression", "mft-member-orphan",
        "mft-member-index-divergence"}


# ---------------------------------------------------------------------------
# structural sweep: the quick test vouches only for what the rules pass
# ---------------------------------------------------------------------------

def _all_mfts(cl):
    """(where, switch, mft) of every MFT, in the sweep's report order."""
    return [(f"{name}/mft {gid:#x}", accel.switch, mft)
            for name, accel in sorted(cl.fabric.accelerators.items())
            for gid, mft in sorted(accel.table.items())]


def _per_rule_sweep(monitor, cl):
    """The per-rule code run unconditionally: the sweep's reference."""
    for where, sw, mft in _all_mfts(cl):
        monitor._check_mft(where, sw, mft, False)


class _CountingRows(list):
    """A Path Table that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_every_sweep_walks_every_mft_and_vouches_for_the_clean_ones():
    cl = _fat_tree_two_groups()
    mfts = [mft for _, _, mft in _all_mfts(cl)]
    assert len(mfts) == 14
    for mft in mfts:
        mft.path_table = _CountingRows(mft.path_table)
    monitor = InvariantMonitor()
    seen = [0] * len(mfts)
    for _ in range(2):   # no traffic in between: nothing announces a change
        monitor.check_mft_consistency(cl.fabric)
        walks = [mft.path_table.walks for mft in mfts]
        assert all(now > before for now, before in zip(walks, seen)), walks
        seen = walks
    assert monitor.violations == []
    # ... and the registered state takes the quick path, not the rules
    assert all(_mft_clean(mft, sw, {})
               for _, sw, mft in _all_mfts(cl))


def test_torn_down_group_leaves_no_history_to_inherit():
    """The monitor keyed per-MFT history by ``id(mft)`` without holding
    the object: after ``unregister`` a new group's MFT on a recycled
    address inherited the dead group's aggregated ACK and epoch."""
    cl = Cluster.fat_tree_cluster(4)
    ips = cl.host_ips
    monitor = InvariantMonitor()
    monitor.attach_cluster(cl)
    try:
        for _ in range(3):      # address reuse is the allocator's choice
            algo = CepheusBcast(cl, ips[:6])
            algo.run(64 * 1024)
            algo.join(ips[8])
            algo.join(ips[12])
            algo.leave(ips[3])
            algo.run(64 * 1024)
            monitor.check_mft_consistency(cl.fabric)
            assert _listing(monitor) == []
            cl.fabric.unregister(algo.group)
            del algo
        algo = CepheusBcast(cl, ips[:6])
        algo.run(64 * 1024)
        monitor.check_mft_consistency(cl.fabric)
        assert _listing(monitor) == []
        # history is pinned only while some table holds the MFT
        live = {mft for _, _, mft in _all_mfts(cl)}
        assert set(monitor._mft_epoch) == live
        assert set(monitor._agg_seen) <= live
    finally:
        monitor.detach()


def _row(mft, i):
    return mft.path_table[i % len(mft.path_table)] if mft.path_table else None


def _set_row(field):
    def op(mft, i, value):
        if mft.path_table:
            setattr(_row(mft, i), field, value)
    return op


def _dup_row(mft, i, _):
    if mft.path_table:
        e = _row(mft, i)
        mft.path_table.append(PathEntry(e.port, e.is_host, e.dst_ip,
                                        ack_psn=e.ack_psn))


# name -> fn(mft, a, b); a is a small index (slot, row, port, ip), b a value
_FIELD_OPS = {
    "path_index": lambda m, a, b: m.path_index.__setitem__(a % 4, b),
    "row.port": _set_row("port"),
    "row.is_host": lambda m, a, b: _set_row("is_host")(m, a, bool(b % 2)),
    "row.dst_ip": _set_row("dst_ip"),
    "row.ack_psn": _set_row("ack_psn"),
    "row-append": lambda m, a, b: m.path_table.append(
        PathEntry(a, bool(b % 2), dst_ip=max(b, 0))),
    "row-duplicate": _dup_row,
    "row-pop": lambda m, a, b: m.path_table and m.path_table.pop(
        a % len(m.path_table)),
    # the real LEAVE/PRUNE path, where the slot still names a row
    "remove_entry": lambda m, a, b: (
        0 <= m.path_index[a % 4] <= len(m.path_table)
        and m.remove_entry(a % 4)),
    "agg_ack_psn": lambda m, a, b: setattr(m, "agg_ack_psn", b),
    # has_port() indexes with these two, so they stay inside the radix
    # (negative values wrap, as they do for the rules)
    "ack_out_port": lambda m, a, b: setattr(
        m, "ack_out_port", None if b < -4 else b % 8 - 4),
    "members-add": lambda m, a, b: m.port_members.setdefault(
        a % 8 - 4, set()).add(max(b, 0)),
    "members-discard": lambda m, a, b: m.port_members.get(
        a % 8 - 4, set()).discard(b),
    "members-drop-port": lambda m, a, b: m.port_members.pop(a % 8 - 4, None),
    "epoch": lambda m, a, b: setattr(m, "epoch", b),
    "member_port-set": lambda m, a, b: m.member_port.__setitem__(a, b),
    "member_port-del": lambda m, a, b: m.member_port.pop(a, None),
}

_ops = st.lists(st.tuples(st.integers(0, 13), st.sampled_from(
    sorted(_FIELD_OPS)), st.integers(0, 12), st.integers(-6, 40)),
    max_size=8)


@given(ops=_ops, second=_ops)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sweep_equals_the_per_rule_code_on_corrupted_mfts(ops, second):
    """Random field corruptions: the quick test never vouches for an MFT
    a rule flags, and the sweep's violation list is the per-rule code's,
    run unconditionally on the same state — twice over, so the second
    round also meets the epoch history the first one left."""
    cl = _fat_tree_two_groups()
    sweep, rules = InvariantMonitor(), InvariantMonitor()
    for round_ops in ([], ops, second):
        mfts = _all_mfts(cl)
        for k, name, a, b in round_ops:
            _FIELD_OPS[name](mfts[k][2], a, b)
        for where, sw, mft in mfts:
            probe = InvariantMonitor()
            probe._mft_epoch = dict(rules._mft_epoch)
            probe._check_mft(where, sw, mft, False)
            if probe.violations:
                assert not _mft_clean(
                    mft, sw, dict(sweep._mft_epoch)), _listing(probe)
        sweep.check_mft_consistency(cl.fabric)
        _per_rule_sweep(rules, cl)
        assert _listing(sweep) == _listing(rules)
        assert sweep._mft_epoch == rules._mft_epoch
