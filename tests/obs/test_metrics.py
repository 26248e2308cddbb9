"""MetricsRegistry: counters, gauges, and the log2 histogram buckets."""

import pytest

from repro.obs.metrics import (
    N_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_add_records_occurrences_and_units(self):
        c = Counter()
        c.add(3.0)
        c.add(4.0)
        assert c.count == 2
        assert c.total == 7.0

    def test_inc_bumps_both_together(self):
        c = Counter()
        c.inc()
        c.inc(5)
        assert c.count == 6
        assert c.total == 6.0

    def test_as_json(self):
        assert Counter(1, 2.5).as_json() == {"count": 1, "total": 2.5}


class TestGauge:
    def test_last_set_wins(self):
        g = Gauge()
        g.set(7.0)
        g.set(5.0)
        assert g.value == 5.0


class TestHistogramBuckets:
    """The fixed log2 edges: bucket 0 = [0, 1], bucket k = (2^(k-1), 2^k]."""

    def test_zero_and_one_share_bucket_zero(self):
        assert Histogram.bucket_index(0) == 0
        assert Histogram.bucket_index(1) == 0

    def test_two_starts_bucket_one(self):
        assert Histogram.bucket_index(2) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 20])
    def test_power_of_two_lands_in_its_bucket(self, k):
        assert Histogram.bucket_index(2 ** k) == k

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 20])
    def test_power_of_two_plus_one_spills_to_next(self, k):
        assert Histogram.bucket_index(2 ** k + 1) == k + 1

    def test_fractional_values_use_ceiling(self):
        assert Histogram.bucket_index(1.5) == 1
        assert Histogram.bucket_index(2.5) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Histogram.bucket_index(-1)

    def test_huge_values_clamp_to_last_bucket(self):
        assert Histogram.bucket_index(2 ** 200) == N_BUCKETS - 1

    def test_upper_bounds(self):
        assert Histogram.upper_bound(0) == 1
        assert Histogram.upper_bound(5) == 32

    def test_observe_tracks_stats(self):
        h = Histogram()
        for v in (0, 1, 2, 1024):
            h.observe(v)
        assert h.count == 4
        assert h.total == 1027
        assert (h.min, h.max) == (0, 1024)
        j = h.as_json()
        assert j["buckets"] == {"1": 2, "2": 1, "1024": 1}


class TestRegistry:
    def test_create_on_first_use(self):
        r = MetricsRegistry()
        r.counter("tcio.flush.remote").inc()
        assert list(r.names()) == ["tcio.flush.remote"]
        assert r.counter("tcio.flush.remote").count == 1

    def test_kind_conflict_raises(self):
        r = MetricsRegistry()
        r.counter("a.b")
        with pytest.raises(TypeError):
            r.gauge("a.b")

    def test_bad_names_rejected(self):
        r = MetricsRegistry()
        for bad in ("", ".x", "x.", "A.b", "a b", "a..b"):
            with pytest.raises(ValueError):
                r.counter(bad)

    def test_get_never_creates(self):
        r = MetricsRegistry()
        assert r.get("nope") is None
        assert list(r.names()) == []

    def test_flat_groups_by_kind(self):
        r = MetricsRegistry()
        r.counter("c").inc()
        r.gauge("g").set(2.0)
        r.histogram("h").observe(3)
        flat = r.flat()
        assert set(flat) == {"counters", "gauges", "histograms"}
        assert flat["counters"]["c"]["count"] == 1
        assert flat["gauges"]["g"]["value"] == 2.0
        assert flat["histograms"]["h"]["count"] == 1
