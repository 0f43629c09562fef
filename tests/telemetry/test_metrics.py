import math

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import (
    FRONTIER_BUCKETS,
    MetricsRegistry,
)


class TestCounter:
    def test_monotone_accumulation(self):
        reg = MetricsRegistry()
        c = reg.counter("edges_total")
        c.inc()
        c.inc(4)
        assert c.value == 5.0

    def test_negative_inc_raises(self):
        c = MetricsRegistry().counter("edges_total")
        with pytest.raises(TelemetryError):
            c.inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("frontier_size")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value == 12.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        h = MetricsRegistry().histogram("path_length", buckets=(1, 3, 5))
        for value in (1, 2, 4, 99):
            h.observe(value)
        # non-cumulative: <=1, (1,3], (3,5], +Inf
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.cumulative_counts() == [1, 2, 3, 4]
        assert h.count == 4
        assert h.sum == pytest.approx(106.0)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1, 2, 4, 99],
            [0, 1, 3, 3, 5, 5, 6, -2],
            [0.5, 1.0, 1.0000001, 2.9999, 3.0, 4.75, 1e9, float("nan")],
            list(range(1, 200, 2)),
        ],
    )
    def test_observe_many_matches_observe(self, values):
        one = MetricsRegistry().histogram("a", buckets=(1, 3, 5))
        many = MetricsRegistry().histogram("a", buckets=(1, 3, 5))
        for value in values:
            one.observe(value)
        many.observe(7)  # lands on top of earlier observations
        one.observe(7)
        many.observe_many(values)
        assert many.bucket_counts == one.bucket_counts
        assert all(type(c) is int for c in many.bucket_counts)
        assert many.count == one.count
        if any(math.isnan(v) for v in values):
            assert math.isnan(many.sum) and math.isnan(one.sum)
        else:
            assert many.sum == pytest.approx(one.sum)

    def test_observe_many_integer_sum_is_exact(self):
        values = np.arange(1, 10_001, 2)
        one = MetricsRegistry().histogram("a", buckets=(1, 3, 5, 9, 93))
        many = MetricsRegistry().histogram("a", buckets=(1, 3, 5, 9, 93))
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert (many.bucket_counts, many.sum, many.count) == (
            one.bucket_counts, one.sum, one.count
        )

    def test_boundary_value_is_inclusive(self):
        h = MetricsRegistry().histogram("x", buckets=(1.0, 2.0))
        h.observe(1.0)
        assert h.bucket_counts[0] == 1

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("x", buckets=(3, 1, 2))

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("x", buckets=(1, 1, 2))

    def test_explicit_inf_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("x", buckets=(1, float("inf")))

    def test_empty_bounds_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().histogram("x", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", labels={"status": "done"})
        b = reg.counter("jobs_total", labels={"status": "done"})
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", labels={"status": "done"})
        b = reg.counter("jobs_total", labels={"status": "failed"})
        assert a is not b

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("t_total", labels={"a": "1", "b": "2"})
        b = reg.counter("t_total", labels={"b": "2", "a": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(TelemetryError):
            reg.gauge("x_total")

    def test_histogram_bucket_conflict_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1, 2))
        with pytest.raises(TelemetryError):
            reg.histogram("h", buckets=(1, 2, 3))

    def test_bad_metric_name_raises(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("bad name")

    def test_bad_label_name_raises(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("ok_total", labels={"bad-label": "x"})

    def test_families_sorted_with_members(self):
        reg = MetricsRegistry()
        reg.gauge("zeta")
        reg.counter("alpha_total", help="first")
        reg.counter("alpha_total", labels={"k": "v"})
        families = reg.families()
        assert [f[0] for f in families] == ["alpha_total", "zeta"]
        name, kind, help_text, members = families[0]
        assert kind == "counter"
        assert help_text == "first"
        assert len(members) == 2

    def test_get_existing_and_missing(self):
        reg = MetricsRegistry()
        created = reg.histogram("frontier", buckets=FRONTIER_BUCKETS)
        assert reg.get("frontier") is created
        with pytest.raises(TelemetryError):
            reg.get("never_registered")


class TestQuantileEdgeCases:
    def test_empty_histogram_has_no_quantile(self):
        import math

        h = MetricsRegistry().histogram("h", buckets=(1, 2))
        assert math.isnan(h.quantile(0.5))
        assert math.isnan(h.quantile(0.0))
        assert math.isnan(h.quantile(1.0))

    def test_all_samples_in_overflow_clamp_to_top_bound(self):
        h = MetricsRegistry().histogram("h", buckets=(0.5, 1.0))
        for _ in range(10):
            h.observe(99.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(0.99) == 1.0

    def test_partial_overflow_clamps_only_upper_tail(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(50.0)
        # p25 interpolates inside the first bucket; p99's rank falls in the
        # +Inf bucket and clamps to the top finite bound.
        assert 0.0 < h.quantile(0.25) <= 1.0
        assert h.quantile(0.99) == 2.0

    def test_out_of_range_q_still_raises(self):
        h = MetricsRegistry().histogram("h", buckets=(1,))
        with pytest.raises(TelemetryError):
            h.quantile(1.5)

    def test_interpolation_unchanged_for_populated_histogram(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        # rank 2 sits at the top of the (1, 2] bucket
        assert h.quantile(0.5) == pytest.approx(2.0)


class TestLabelCardinalityGuard:
    def test_distinct_label_sets_capped_per_family(self):
        import warnings

        reg = MetricsRegistry(max_label_sets=2)
        a = reg.counter("req_total", labels={"s": "a"})
        b = reg.counter("req_total", labels={"s": "b"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            c = reg.counter("req_total", labels={"s": "c"})
        assert [str(w.message) for w in caught if w.category is RuntimeWarning]
        # the overflow instrument still works, but is not registered
        c.inc(7)
        assert c.value == 7.0
        family = next(f for f in reg.families() if f[0] == "req_total")
        assert len(family[3]) == 2
        assert reg.dropped_label_sets == {"req_total": 1}
        assert a is not c and b is not c

    def test_existing_label_sets_unaffected_by_cap(self):
        reg = MetricsRegistry(max_label_sets=1)
        a = reg.counter("req_total", labels={"s": "a"})
        # re-fetching the registered set returns the same instrument, no warn
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = reg.counter("req_total", labels={"s": "a"})
        assert again is a

    def test_warning_emitted_once_per_family(self):
        import warnings

        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("req_total", labels={"s": "a"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reg.counter("req_total", labels={"s": "b"})
            reg.counter("req_total", labels={"s": "c"})
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1
        assert reg.dropped_label_sets == {"req_total": 2}

    def test_unlabelled_families_never_hit_the_cap(self):
        reg = MetricsRegistry(max_label_sets=1)
        reg.counter("a_total")
        reg.gauge("b")
        reg.histogram("c", buckets=(1,))
        assert reg.dropped_label_sets == {}

    def test_invalid_cap_rejected(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry(max_label_sets=0)
