"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json
import math
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.run import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]


class TestTailPercentile:
    def test_picks_highest_level_with_ten_beyond(self):
        tail = stats.tail_percentile(range(1, 201))
        # p95 of 200 leaves exactly 10 samples beyond; p99 leaves 2.
        assert (tail.level, tail.value, tail.count, tail.beyond) == (
            95.0, 190, 200, 10)
        assert tail.label == "p95"

    def test_one_sample_short_drops_a_level(self):
        tail = stats.tail_percentile(range(1, 200))
        # 199 samples: p95 sits at rank 190 with only 9 beyond.
        assert tail.level == 90.0
        assert tail.beyond >= stats.MIN_BEYOND

    def test_every_reported_tail_has_ten_beyond(self):
        for n in (20, 21, 57, 100, 999, 1000, 1001, 5000):
            tail = stats.tail_percentile(range(n))
            assert tail.beyond >= 10
            assert tail.count == n
            assert tail.value == sorted(range(n))[n - 1 - tail.beyond]

    def test_small_sample_reports_its_maximum(self):
        tail = stats.tail_percentile([3.0, 1.0, 2.0])
        assert (tail.level, tail.value, tail.count, tail.beyond) == (
            100.0, 3.0, 3, 0)
        assert tail.label == "max"

    def test_order_of_samples_does_not_matter(self):
        values = [float(v) for v in range(100)]
        assert (stats.tail_percentile(values)
                == stats.tail_percentile(list(reversed(values))))

    def test_nearest_rank_median(self):
        assert stats.percentile([5, 1, 3, 2, 4], 50).value == 3
        assert stats.percentile([1, 2, 3, 4], 50).value == 2

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            stats.tail_percentile([])


class TestMaxRateWithinSlo:
    def test_highest_passing_rate(self):
        per_rate = {20: [0.1] * 100, 40: [0.5] * 100, 60: [1.5] * 100}
        assert stats.max_rate_within_slo(per_rate, slo=1.0) == 40.0

    def test_shed_counts_as_missing(self):
        # 98 fast answers and 2 shed queries: p99 is a shed query.
        per_rate = {20: [0.1] * 100, 40: [0.1] * 98 + [None, None]}
        assert stats.max_rate_within_slo(per_rate, slo=1.0) == 20.0

    def test_one_shed_in_a_hundred_still_meets_p99(self):
        per_rate = {20: [0.1] * 99 + [None]}
        assert stats.max_rate_within_slo(per_rate, slo=1.0) == 20.0

    def test_stops_at_first_miss(self):
        per_rate = {20: [0.1] * 10, 40: [None] * 10, 60: [0.1] * 10}
        assert stats.max_rate_within_slo(per_rate, slo=1.0) == 20.0

    def test_zero_when_lowest_rate_misses(self):
        assert stats.max_rate_within_slo({20: [None] * 10}, slo=1.0) == 0.0

    def test_rate_with_nothing_returned_misses(self):
        assert not stats.meets_slo([], slo=1.0)


class TestFailedShare:
    def test_base_is_every_attempted_query(self):
        statuses = {"done": 90, "shed": 6, "rejected": 1, "timed_out": 2,
                    "failed": 1}
        assert stats.failed_share(statuses) == pytest.approx(0.10)

    def test_shed_queries_stay_in_the_denominator(self):
        # Shedding half the load is a 50 % failed share, not 0 % of
        # the admitted half.
        assert stats.failed_share({"done": 5, "shed": 5}) == 0.5

    def test_cancelled_is_attempted_but_not_failed(self):
        assert stats.failed_share({"done": 3, "cancelled": 1}) == 0.0

    def test_all_done_is_zero(self):
        assert stats.failed_share({"done": 8}) == 0.0

    def test_nothing_attempted_raises(self):
        with pytest.raises(ValueError):
            stats.failed_share({})


class TestMetricNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "wall_latency_p50_ms", "engine.poll_efficiency",
        "obs.report_ms", "9lives", "a-b.c_d", "x" * 64])
    def test_valid(self, name):
        assert stats.check_metric_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "_setup", ".hidden", "-dash", "wall s", "latency/ms",
        "p99%", "naïve", "x" * 65, None])
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            stats.check_metric_name(name)

    @pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "MB"])
    def test_valid_units(self, unit):
        assert stats.check_unit(unit) == unit

    @pytest.mark.parametrize("unit", ["", "q per s", "x" * 17])
    def test_invalid_units(self, unit):
        with pytest.raises(ValueError):
            stats.check_unit(unit)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for section, table in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"])
                      for m in spec[section]}
            assert listed == table
            for name, (unit, _) in listed.items():
                stats.check_metric_name(name)
                stats.check_unit(unit)


class TestSpread:
    def test_quartile_distance_over_median(self):
        assert stats.spread([1, 2, 3, 4, 5]) == pytest.approx(
            (4.5 - 1.5) / 3)

    def test_constant_sample_has_zero_spread(self):
        assert stats.spread([2.0] * 10) == 0.0

    def test_zero_median_with_spread_is_infinite(self):
        assert math.isinf(stats.spread([-1.0, 0.0, 0.0, 1.0]))
