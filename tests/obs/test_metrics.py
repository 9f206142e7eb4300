"""Instruments and the registry: counters, gauges, histograms, families."""

from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

#: the promised relative error: 32 linear sub-buckets per octave
REL_ERROR = 1 / 32


class TestCounter:
    def test_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)


class TestGauge:
    def test_goes_anywhere(self):
        g = Gauge()
        g.set(5)
        g.dec(7)
        g.inc(1)
        assert g.value == -1.0


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(0.0) == 0.0
        assert h.percentile(1.0) == 0.0
        assert h.buckets()[-1] == (float("inf"), 0)

    def test_quantile_bounds(self):
        h = Histogram()
        h.observe(3e-6)
        with pytest.raises(ConfigurationError):
            h.percentile(-0.01)
        with pytest.raises(ConfigurationError):
            h.percentile(1.01)

    def test_q0_and_q1(self):
        h = Histogram()
        for v in (1.5e-6, 1e-4, 3e-3):
            h.observe(v)
        # q=0 clamps to rank 1 -> smallest occupied sub-bucket's upper bound
        assert 1.5e-6 < h.percentile(0.0) <= 1.5e-6 * (1 + REL_ERROR)
        # the top rank is capped at the observed maximum
        assert h.percentile(1.0) == 3e-3

    def test_overflow_rank_reports_observed_max(self):
        h = Histogram(base=1e-6, num_buckets=3)  # top finite bound 4µs
        h.observe(2e-6)
        h.observe(123.0)
        assert h.percentile(1.0) == pytest.approx(123.0)
        bounds = [b for b, _ in h.buckets()]
        assert bounds == [1e-6, 2e-6, 4e-6, float("inf")]

    def test_buckets_are_cumulative(self):
        h = Histogram(base=1.0, num_buckets=3)  # bounds 1, 2, 4
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.buckets() == [(1.0, 1), (2.0, 2), (4.0, 3), (float("inf"), 4)]

    def test_negative_values_clamped_to_zero(self):
        h = Histogram()
        h.observe(-1.0)
        assert h.count == 1
        assert h.total == 0.0
        assert h.max == 0.0

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(base=0.0)
        with pytest.raises(ConfigurationError):
            Histogram(num_buckets=0)

    def test_merge_rejects_other_shapes(self):
        with pytest.raises(ConfigurationError):
            Histogram(num_buckets=24).merge(Histogram(num_buckets=30))
        with pytest.raises(ConfigurationError):
            Histogram(base=1e-6).merge(Histogram(base=1e-3))


# -- properties ---------------------------------------------------------------

BASE, OCTAVES = 1e-6, 24
TOP = BASE * (1 << (OCTAVES - 1))
#: float slack for ``upper bound <= value * (1 + 1/32)`` at a sub-bucket's low edge
ROUNDING = 1e-12

#: octave edges are where the log₂ and log-linear layouts must agree exactly
edges = st.sampled_from([BASE * (1 << i) for i in range(OCTAVES)])
samples = st.lists(
    st.one_of(st.floats(min_value=BASE, max_value=TOP), edges), min_size=1, max_size=200
)
quantiles = st.floats(min_value=0.0, max_value=1.0)


def _filled(values) -> Histogram:
    h = Histogram(base=BASE, num_buckets=OCTAVES)
    for v in values:
        h.observe(v)
    return h


class _Log2Histogram:
    """The earlier log₂ layout: one bucket per octave, bound ``base*2**i``."""

    def __init__(self, values):
        self.bounds = [BASE * (1 << i) for i in range(OCTAVES)]
        self.counts = [0] * (OCTAVES + 1)
        for v in values:
            self.counts[bisect_right(self.bounds, max(0.0, v))] += 1

    def buckets(self):
        out, seen = [], 0
        for bound, c in zip(self.bounds, self.counts):
            seen += c
            out.append((bound, seen))
        out.append((float("inf"), sum(self.counts)))
        return out


class TestHistogramProperties:
    @given(samples, quantiles)
    @settings(max_examples=200, deadline=None)
    def test_percentile_error_bound(self, values, q):
        h = _filled(values)
        ordered = sorted(values)
        exact = ordered[max(1, int(q * len(values) + 0.5)) - 1]
        estimate = h.percentile(q)
        assert exact <= estimate
        assert estimate <= exact * (1 + REL_ERROR) * (1 + ROUNDING)
        assert estimate <= h.max

    @given(samples, samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_associative_and_pools(self, a, b, c):
        def shape(h):
            # the estimate at every rank pins every occupied sub-bucket
            ranks = [h.percentile(r / h.count) for r in range(1, h.count + 1)]
            return h.count, h.max, h.buckets(), ranks

        left = _filled(a).merge(_filled(b)).merge(_filled(c))
        right = _filled(a).merge(_filled(b).merge(_filled(c)))
        pooled = _filled(a + b + c)
        assert shape(left) == shape(right) == shape(pooled)
        assert left.total == pytest.approx(pooled.total, rel=1e-12)
        assert right.total == pytest.approx(pooled.total, rel=1e-12)

    @given(st.lists(st.one_of(st.floats(min_value=-1.0, max_value=4 * TOP), edges),
                    max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_buckets_match_log2_octave_edges(self, values):
        assert _filled(values).buckets() == _Log2Histogram(values).buckets()


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")
        assert reg.counter("a_total", labels={"op": "get"}) is not reg.counter("a_total")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ConfigurationError):
            reg.gauge("x_total")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("0bad")
        with pytest.raises(ConfigurationError):
            reg.counter("ok_total", labels={"0bad": "v"})

    def test_register_live_instrument(self):
        reg = MetricsRegistry()
        h = Histogram(base=1.0, num_buckets=2)
        reg.register("live_seconds", h, "live")
        h.observe(1.5)  # mutate after registration: collect sees it
        (family,) = [f for f in reg.collect() if f.name == "live_seconds"]
        count_sample = [s for s in family.samples if s.suffix == "_count"][0]
        assert count_sample.value == 1.0

    def test_collect_expands_histograms(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", base=1.0, num_buckets=2).observe(1.5)
        (family,) = reg.collect()
        suffixes = [s.suffix for s in family.samples]
        assert suffixes == ["_bucket", "_bucket", "_bucket", "_sum", "_count"]
        inf_bucket = family.samples[2]
        assert ("le", "+Inf") in inf_bucket.labels
        assert inf_bucket.value == 1.0

    def test_render_smoke(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "hits").inc(5)
        text = reg.render()
        assert "# TYPE hits_total counter" in text
        assert "hits_total 5" in text
