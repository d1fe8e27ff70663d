"""Unit tests for the latency-statistics machinery."""

import pytest

from repro.bench.timing import (
    LatencyStats,
    measure_interleaved,
    measure_latency,
    overhead_percent,
)


class TestLatencyStats:
    def test_mean_median(self):
        stats = LatencyStats([0.001, 0.002, 0.003])
        assert stats.mean == pytest.approx(0.002)
        assert stats.median == pytest.approx(0.002)
        assert stats.mean_ms == pytest.approx(2.0)

    def test_even_median(self):
        stats = LatencyStats([1.0, 2.0, 3.0, 4.0])
        assert stats.median == pytest.approx(2.5)

    def test_stdev(self):
        stats = LatencyStats([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.stdev == pytest.approx(2.138, abs=0.01)

    def test_single_sample(self):
        stats = LatencyStats([1.0])
        assert stats.stdev == 0.0
        assert stats.ci95_half_width == 0.0

    def test_percentile(self):
        stats = LatencyStats(list(range(1, 101)))
        assert stats.percentile(0.0) == 1
        assert stats.percentile(1.0) == 100
        assert stats.percentile(0.5) == 50 or stats.percentile(0.5) == 51

    def test_ci95_shrinks_with_samples(self):
        small = LatencyStats([1.0, 2.0] * 5)
        large = LatencyStats([1.0, 2.0] * 500)
        assert large.ci95_half_width < small.ci95_half_width

    def test_ci95_relative_for_zero_mean(self):
        assert LatencyStats([0.0, 0.0]).ci95_relative == 0.0

    def test_repr(self):
        assert "mean=" in repr(LatencyStats([0.001]))


class TestMeasureLatency:
    def test_runs_operation(self):
        calls = []
        stats = measure_latency(lambda: calls.append(1), iterations=50, warmup=5)
        assert len(calls) == 55
        assert stats.count == 50
        assert stats.mean >= 0


class TestMeasureInterleaved:
    def test_alternates_every_operation_and_rotates_the_first(self):
        calls = []
        stats = measure_interleaved(
            lambda: calls.append("a"), lambda: calls.append("b"), lambda: calls.append("c"),
            iterations=4, warmup=2,
        )
        assert [s.count for s in stats] == [4, 4, 4]
        rounds = ["".join(calls[i : i + 3]) for i in range(0, len(calls), 3)]
        assert len(rounds) == 6 and all(sorted(r) == ["a", "b", "c"] for r in rounds)
        assert set(rounds) == {"abc", "bca", "cab"}  # nobody always runs first

    def test_prepare_runs_untimed_before_every_round(self):
        calls = []
        (stats,) = measure_interleaved(
            lambda: calls.append("op"), iterations=3, warmup=1,
            prepare=lambda: calls.append("prepare"),
        )
        assert calls == ["prepare", "op"] * 4
        assert stats.count == 3


class TestOverheadPercent:
    def test_positive(self):
        assert overhead_percent(100.0, 114.0) == pytest.approx(14.0)

    def test_negative(self):
        assert overhead_percent(100.0, 86.0) == pytest.approx(-14.0)

    def test_zero_baseline(self):
        assert overhead_percent(0.0, 5.0) == 0.0
