"""The collective skeleton's contract: BroadcastAlgorithm/BroadcastResult,
the one stall check, and exact timings of every non-broadcast collective."""

import pytest

from repro.apps import Cluster, Communicator
from repro.collectives import (Allgather, Alltoall, Barrier, BinomialReduce,
                               CepheusBcast, Gather, InNetworkReduce,
                               RingReduceScatter, Scatter)
from repro.collectives.base import BroadcastAlgorithm, BroadcastResult
from repro.errors import ConfigurationError, StallError
from repro.net import FailureInjector


class TestBroadcastResult:
    def _result(self):
        r = BroadcastResult(algorithm="x", root=1, size=1000, start=2.0)
        r.recv_times = {2: 2.5, 3: 2.3, 4: 2.9}
        return r

    def test_jct_is_last_receiver(self):
        assert self._result().jct == pytest.approx(0.9)

    def test_min_recv_latency(self):
        assert self._result().min_recv_latency == pytest.approx(0.3)

    def test_receiver_latency(self):
        assert self._result().receiver_latency(3) == pytest.approx(0.3)

    def test_goodput(self):
        r = self._result()
        assert r.goodput_gbps() == pytest.approx(1000 * 8 / 0.9 / 1e9)

    def test_empty_result_raises(self):
        r = BroadcastResult(algorithm="x", root=1, size=1, start=0.0)
        with pytest.raises(ConfigurationError):
            _ = r.jct


class TestAlgorithmContract:
    def test_root_must_be_member(self, testbed):
        from repro.collectives import ChainBcast
        with pytest.raises(ConfigurationError):
            ChainBcast(testbed, [1, 2], root=3)

    def test_rank_zero_is_root(self, testbed):
        from repro.collectives import ChainBcast
        algo = ChainBcast(testbed, [2, 3, 4], root=3)
        assert algo.ranks[0] == 3
        assert set(algo.ranks) == {2, 3, 4}

    def test_prepare_idempotent(self, testbed):
        from repro.collectives import BinomialTreeBcast
        algo = BinomialTreeBcast(testbed, testbed.host_ips)
        algo.prepare()
        pairs_before = len(testbed._pairs)
        algo.prepare()
        assert len(testbed._pairs) == pairs_before

    @pytest.mark.parametrize(
        "family", [BroadcastAlgorithm, BinomialReduce, Gather],
        ids=["broadcast", "reduction", "mpi-op"])
    def test_incomplete_run_detected(self, testbed, family):
        """An engine that never finishes must raise, not hang silently
        with a partial result — whichever family it belongs to."""

        class Broken(family):
            name = "broken"

            def _setup(self):
                pass

            def _launch(self, size, result):
                pass  # never delivers anything

        with pytest.raises(StallError, match="never completed"):
            Broken(testbed, testbed.host_ips).run(64)

    def test_real_stall_is_a_stall_error(self, testbed):
        """A receiver cut off the fabric with nothing to recover it: once
        the sender gives up, the drain ends with that receiver owed."""
        algo = CepheusBcast(testbed, testbed.host_ips)
        algo.prepare()
        FailureInjector(testbed.topo).fail_host_link(algo.ranks[-1])
        testbed.sim.schedule(2e-3, algo.qps[algo.root].abort_sends)
        with pytest.raises(StallError, match=rf"\[{algo.ranks[-1]}\]"):
            algo.run(1 << 16)

    def test_events_accounted(self, testbed):
        from repro.collectives import CepheusBcast
        algo = CepheusBcast(testbed, testbed.host_ips)
        r = algo.run(1 << 16)
        assert r.events > 0


KB = 1 << 10

#: (duration, rounds or combines or members_completed, sim.events_run,
#: sim.now) of one run on a fresh cluster.  Recorded before the
#: collectives shared a skeleton; any change to an event's order or
#: timing shows up here.
PINNED = {
    "scatter": (
        lambda: Cluster.testbed(8), lambda cl: Scatter(cl, cl.host_ips).run(64 * KB),
        "rounds", (4.095216000000002e-05, 7, 673, 4.116208000000003e-05)),
    "gather": (
        lambda: Cluster.testbed(8), lambda cl: Gather(cl, cl.host_ips).run(64 * KB),
        "rounds", (4.095216000000002e-05, 1, 697, 4.116208000000003e-05)),
    "alltoall": (
        lambda: Cluster.testbed(8), lambda cl: Alltoall(cl, cl.host_ips).run(64 * KB),
        "rounds", (8.141552000000015e-05, 7, 5385, 8.561552000000016e-05)),
    "allgather-ring": (
        lambda: Cluster.testbed(8),
        lambda cl: Allgather(cl, cl.host_ips, engine="ring").run(64 * KB),
        "rounds", (8.141552000000015e-05, 7, 5425, 8.162544000000014e-05)),
    "allgather-cepheus": (
        lambda: Cluster.testbed(8),
        lambda cl: Allgather(cl, cl.host_ips, engine="cepheus").run(64 * KB),
        "rounds", (7.887488000000016e-05, 8, 3094, 8.664464000000016e-05)),
    "barrier-dissemination": (
        lambda: Cluster.testbed(8), lambda cl: Barrier(cl, cl.host_ips).run(),
        "rounds", (1.6228319999999996e-05, 3, 220, 2.0428319999999997e-05)),
    "barrier-cepheus": (
        lambda: Cluster.testbed(8),
        lambda cl: Barrier(cl, cl.host_ips, engine="cepheus").run(),
        "rounds", (8.43872000000002e-06, 2, 182, 2.397824000000002e-05)),
    "binomial-reduce": (
        lambda: Cluster.testbed(8),
        lambda cl: BinomialReduce(cl, cl.host_ips).run(64 * KB),
        "combines", (3.208048000000004e-05, 7, 686, 3.108048000000004e-05)),
    "ring-reduce-scatter": (
        lambda: Cluster.testbed(8),
        lambda cl: RingReduceScatter(cl, cl.host_ips).run(64 * KB),
        "combines", (3.192560000000002e-05, 56, 833, 3.197168000000002e-05)),
    "in-network-reduce-testbed": (
        lambda: Cluster.testbed(8),
        lambda cl: InNetworkReduce(cl, cl.host_ips).run(64 * KB),
        "members_completed",
        (9.349440000000002e-06, 7, 595, 1.7629120000000005e-05)),
    # The root is not members[0]: the group is still built in the
    # caller's member order.
    "in-network-reduce-fat-tree": (
        lambda: Cluster.fat_tree_cluster(4),
        lambda cl: InNetworkReduce(cl, [1, 5, 9, 13], root=9).run(64 * KB),
        "members_completed",
        (1.4278720000000043e-05, 3, 811, 3.220640000000006e-05)),
    "communicator-reduce-root3": (
        lambda: Cluster.testbed(8),
        lambda cl: Communicator(cl, cl.host_ips).reduce(64 * KB, root=3),
        "members_completed",
        (9.349440000000002e-06, 7, 595, 1.7629120000000005e-05)),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_collective_timings_are_pinned(case):
    make_cluster, run, counter, expected = PINNED[case]
    cl = make_cluster()
    r = run(cl)
    assert (r.duration, getattr(r, counter), cl.sim.events_run,
            cl.sim.now) == expected
