"""Telemetry: the LatencyStats percentile accumulator."""

import pytest

from repro.net.telemetry import LatencyStats


class TestLatencyStats:
    def test_empty(self):
        s = LatencyStats()
        assert s.mean == 0.0 and s.percentile(50) == 0.0

    def test_mean_and_max(self):
        s = LatencyStats()
        for v in (1.0, 2.0, 3.0):
            s.record(v)
        assert s.mean == pytest.approx(2.0)
        assert s.max_value == 3.0 and s.count == 3

    def test_percentiles_exact(self):
        s = LatencyStats()
        for v in range(1, 101):
            s.record(float(v))
        assert s.percentile(0) == 1.0
        assert s.percentile(100) == 100.0
        assert s.percentile(50) == pytest.approx(50.5)

    def test_percentile_range_checked(self):
        s = LatencyStats()
        s.record(1.0)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_retention_bound(self):
        s = LatencyStats(max_samples=10)
        for v in range(100):
            s.record(float(v))
        assert s.count == 100
        assert len(s._samples) == 10

    def test_reservoir_is_unbiased_across_the_stream(self):
        """The retained window must sample the whole stream, not its
        head: feed 10k values where the second half is 100x larger and
        require the median to reflect both halves.  Pure head retention
        (the old behaviour) would report a p50 from the small first
        half only."""
        s = LatencyStats(max_samples=100, seed=7)
        for v in range(5_000):
            s.record(1.0)
        for v in range(5_000):
            s.record(100.0)
        tail_fraction = sum(1 for v in s._samples if v == 100.0) / 100
        assert 0.3 < tail_fraction < 0.7  # ~0.5 for an unbiased reservoir
        assert s.percentile(99) == 100.0

    def test_reservoir_is_deterministic_for_a_seed(self):
        def fill(seed):
            s = LatencyStats(max_samples=50, seed=seed)
            for v in range(2_000):
                s.record(float(v))
            return list(s._samples)

        assert fill(3) == fill(3)
        assert fill(3) != fill(4)

    def test_reservoir_exact_below_capacity(self):
        """Under capacity the reservoir is the full sample set: exact
        percentiles, no sampling error."""
        s = LatencyStats(max_samples=1_000, seed=9)
        for v in range(1, 101):
            s.record(float(v))
        assert sorted(s._samples) == [float(v) for v in range(1, 101)]
        assert s.percentile(50) == pytest.approx(50.5)

    def test_summary_keys(self):
        s = LatencyStats()
        s.record(5.0)
        assert set(s.summary()) == {"count", "mean", "p50", "p99", "p999",
                                    "max"}

    def test_summary_matches_percentile_calls(self):
        """summary() sorts the window once; its percentiles must agree
        with the per-call percentile() path exactly."""
        s = LatencyStats()
        for v in (9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0):
            s.record(v)
        out = s.summary()
        assert out["p50"] == s.percentile(50)
        assert out["p99"] == s.percentile(99)
        assert out["p999"] == s.percentile(99.9)
        assert out["mean"] == pytest.approx(s.mean)
        assert out["max"] == s.max_value

    def test_p999_separates_from_p99_on_heavy_tails(self):
        """One outlier in 10k samples: p99 stays at the body, p999 climbs
        toward the tail — the SLO metric the broker-fabric scenario
        reports."""
        s = LatencyStats(max_samples=2_000)
        for _ in range(995):
            s.record(1.0)
        for _ in range(5):
            s.record(1_000.0)
        out = s.summary()
        assert out["p99"] == 1.0
        assert out["p999"] > out["p99"]

    def test_summary_of_empty_window(self):
        out = LatencyStats().summary()
        assert out["p50"] == 0.0 and out["p99"] == 0.0
        assert out["p999"] == 0.0
