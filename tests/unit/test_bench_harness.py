"""Unit tests for the paper experiments' shared harness (``benchmarks/harness.py``)."""

from types import SimpleNamespace

import pytest

from benchmarks import harness
from benchmarks.harness import (
    Samples,
    comparison_table,
    format_table,
    measure_interleaved,
    overhead_percent,
)


class TestSamples:
    def test_median(self):
        assert Samples([0.003, 0.001, 0.002]).median == pytest.approx(0.002)

    def test_even_median(self):
        assert Samples([1.0, 2.0, 3.0, 4.0]).median == pytest.approx(2.5)

    def test_count(self):
        assert Samples([1.0, 2.0, 3.0]).count == 3

    def test_ci95_relative(self):
        # mean 5, sample stdev 2.138, n 8: 1.96 × 2.138 / √8 / 5.
        stats = Samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.ci95_relative == pytest.approx(0.2963, abs=1e-3)

    def test_single_sample(self):
        assert Samples([1.0]).ci95_relative == 0.0

    def test_ci95_shrinks_with_samples(self):
        small = Samples([1.0, 2.0] * 5)
        large = Samples([1.0, 2.0] * 500)
        assert large.ci95_relative < small.ci95_relative

    def test_ci95_relative_for_zero_mean(self):
        assert Samples([0.0, 0.0]).ci95_relative == 0.0


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

    def test_one_operation_drops_its_warmup(self, monkeypatch):
        # A one-operation call is the single-operation latency timing: the
        # warm-up calls run and are dropped, and *iterations* samples stay.
        clock = SimpleNamespace(now=0.0, calls=0)

        def operation():
            clock.calls += 1
            clock.now += 10.0 if clock.calls <= 5 else 1.0

        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock.now))
        (stats,) = measure_interleaved(operation, iterations=50, warmup=5)
        assert clock.calls == 55
        assert stats.count == 50
        assert stats.times == [1.0] * 50

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


class TestFormatTable:
    def test_alignment(self):
        lines = format_table(("a", "bbbb"), [("x", 1), ("yyyy", 22)]).splitlines()
        assert lines == ["a     bbbb", "----  ----", "x     1   ", "yyyy  22  "]

    def test_empty_rows(self):
        assert format_table(("col",), []) == "col\n---"


class TestComparisonTable:
    def test_shares_sum_to_100(self):
        table = comparison_table("T", {"a": 50.0, "b": 50.0}, {"a": 1.0, "b": 3.0})
        assert table.startswith("T\n")
        assert "50%" in table
        assert "25%" in table and "75%" in table
        assert "TOTAL" in table

    def test_missing_measured_component_is_zero(self):
        table = comparison_table("T", {"a": 1.0, "b": 1.0}, {"a": 1.0})
        assert "0.0000" in table
