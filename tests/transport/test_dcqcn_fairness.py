"""DCQCN end-to-end behaviour on shared bottlenecks."""

import pytest

pytestmark = pytest.mark.slow  # Tier-2: 20ms virtual congestion runs are packet-heavy.

from repro.apps import Cluster
from repro.net.trace import ThroughputSampler


def _two_flows_share_bottleneck(duration=20e-3):
    """Two unicast senders into one 100G receiver downlink."""
    cl = Cluster.testbed(4)
    samplers = {}
    for src in (2, 3):
        samplers[src] = ThroughputSampler(1e-3).attach(cl.qp_to(1, src))
        cl.qp_to(src, 1).post_send(256 << 20)
    cl.run(until=duration)
    return cl, samplers


class TestPairwiseFairness:
    def test_shares_converge(self):
        cl, samplers = _two_flows_share_bottleneck()
        late = {src: s.average_gbps(12e-3, 20e-3)
                for src, s in samplers.items()}
        total = sum(late.values())
        assert total > 85            # bottleneck stays utilized
        ratio = max(late.values()) / max(min(late.values()), 1e-9)
        assert ratio < 2.0           # converging toward 50/50

    def test_rates_bounded_by_line(self):
        cl, _ = _two_flows_share_bottleneck(duration=5e-3)
        for src in (2, 3):
            assert cl.qp_to(src, 1).cc.rate <= 100e9


class TestLateJoiner:
    def test_new_flow_carves_out_share(self):
        cl = Cluster.testbed(4)
        s2 = ThroughputSampler(1e-3).attach(cl.qp_to(1, 2))
        s3 = ThroughputSampler(1e-3).attach(cl.qp_to(1, 3))
        cl.qp_to(2, 1).post_send(256 << 20)
        cl.sim.schedule(5e-3, lambda: cl.qp_to(3, 1).post_send(64 << 20))
        cl.run(until=20e-3)
        before = s2.average_gbps(2e-3, 5e-3)
        after_join = s3.average_gbps(12e-3, 18e-3)
        assert before > 90           # alone: near line rate
        assert after_join > 20       # the late joiner got a real share

    def test_flow_reclaims_after_competitor_ends(self):
        cl = Cluster.testbed(4)
        s2 = ThroughputSampler(1e-3).attach(cl.qp_to(1, 2))
        cl.qp_to(2, 1).post_send(512 << 20)
        cl.sim.schedule(3e-3, lambda: cl.qp_to(3, 1).post_send(32 << 20))
        cl.run(until=35e-3)
        shared = s2.average_gbps(5e-3, 8e-3)
        reclaimed = s2.average_gbps(28e-3, 34e-3)
        assert reclaimed > shared + 10
