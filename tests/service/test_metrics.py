"""Latency histogram and metrics counters."""

from __future__ import annotations

import pytest

from repro.service.metrics import LatencyHistogram, ServiceMetrics


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.99) == 0.0
        assert hist.snapshot()["count"] == 0

    def test_percentile_monotone_and_bounding(self):
        hist = LatencyHistogram()
        for us in (1, 2, 4, 50, 50, 50, 400, 2000, 100000, 100000):
            hist.record(us * 1e-6)
        p50, p90, p99 = (hist.percentile(q) for q in (0.5, 0.9, 0.99))
        assert p50 <= p90 <= p99
        # sub-bucket upper bounds: at most 1/32 above the true value
        assert 50e-6 <= p50 <= 50e-6 * (1 + 1 / 32)
        assert p99 == pytest.approx(0.1)  # capped at the observed max
        assert hist.max == pytest.approx(0.1)

    def test_overflow_bucket(self):
        hist = LatencyHistogram(base=1e-6, num_buckets=4)  # top bound: 8µs
        hist.record(1.0)
        assert hist.percentile(1.0) == pytest.approx(1.0)  # reports observed max

    def test_negative_clamped(self):
        hist = LatencyHistogram()
        hist.record(-5.0)
        assert hist.count == 1
        assert hist.max == 0.0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(base=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(num_buckets=0)

    def test_mean_tracks_total(self):
        hist = LatencyHistogram()
        hist.record(0.002)
        hist.record(0.004)
        assert hist.mean == pytest.approx(0.003)


class TestServiceMetrics:
    def test_hit_rate(self):
        metrics = ServiceMetrics()
        assert metrics.hit_rate == 0.0
        metrics.hits, metrics.misses = 3, 1
        assert metrics.accesses == 4
        assert metrics.hit_rate == 0.75

    def test_snapshot_is_json_shaped(self):
        import json

        metrics = ServiceMetrics()
        metrics.latency.record(1e-4)
        snap = metrics.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["connections_open"] == 0
        assert snap["latency"]["count"] == 1


class TestHistogramSnapshot:
    def test_snapshot_carries_sum_and_buckets(self):
        hist = LatencyHistogram(base=1e-6, num_buckets=3)  # bounds 1,2,4 µs
        hist.record(1.5e-6)
        hist.record(1.0)  # overflow
        snap = hist.snapshot()
        assert snap["sum_us"] == pytest.approx(1.5 + 1e6)
        bounds = [b for b, _ in snap["buckets"]]
        assert bounds == [pytest.approx(1.0), pytest.approx(2.0), pytest.approx(4.0), None]
        counts = [c for _, c in snap["buckets"]]
        assert counts == [0, 1, 1, 2]  # cumulative; overflow folded into None

    def test_quantile_edges(self):
        hist = LatencyHistogram()
        for us in (1, 10, 100):
            hist.record(us * 1e-6)
        assert 1e-6 <= hist.percentile(0.0) <= 1e-6 * (1 + 1 / 32)
        assert hist.percentile(1.0) == pytest.approx(100e-6)  # capped at max

    def test_empty_snapshot_buckets_all_zero(self):
        snap = LatencyHistogram(num_buckets=4).snapshot()
        assert snap["sum_us"] == 0.0
        assert all(count == 0 for _, count in snap["buckets"])


class TestPerOpLatency:
    def test_record_op_feeds_combined_and_per_op(self):
        metrics = ServiceMetrics()
        metrics.record_op("GET", 1e-4)
        metrics.record_op("PUT", 2e-4)
        metrics.record_op("GET", 3e-4)
        assert metrics.latency.count == 3
        assert metrics.latency_by_op["GET"].count == 2
        assert metrics.latency_by_op["PUT"].count == 1
        assert metrics.latency_by_op["DEL"].count == 0

    def test_unknown_and_none_ops_hit_only_combined(self):
        metrics = ServiceMetrics()
        metrics.record_op(None, 1e-4)  # unparseable request
        metrics.record_op("STATS", 1e-4)  # no per-op histogram
        assert metrics.latency.count == 2
        assert all(h.count == 0 for h in metrics.latency_by_op.values())

    def test_snapshot_includes_per_op_section(self):
        import json

        metrics = ServiceMetrics()
        metrics.record_op("GET", 5e-5)
        snap = metrics.snapshot()
        json.dumps(snap)  # must stay JSON-able
        assert set(snap["latency_by_op"]) == {"get", "put", "del", "mget", "mput"}
        assert snap["latency_by_op"]["get"]["count"] == 1
        assert snap["latency"]["count"] == 1


class TestBuildRegistry:
    def test_scrape_matches_counters(self):
        from repro.obs.exposition import parse_prometheus
        from repro.service.metrics import build_registry

        metrics = ServiceMetrics()
        metrics.gets, metrics.puts, metrics.dels = 7, 2, 1
        metrics.hits, metrics.misses = 6, 4
        metrics.connections_opened, metrics.connections_closed = 3, 2
        metrics.record_op("GET", 1e-4)
        parsed = parse_prometheus(
            build_registry(
                metrics,
                gauges={"repro_resident_pages": 5.0},
                counters={"repro_evictions_total": 2.0},
            ).render()
        )
        assert parsed.value("repro_ops_total", op="get") == 7.0
        assert parsed.value("repro_ops_total", op="put") == 2.0
        assert parsed.value("repro_hits_total") == 6.0
        assert parsed.value("repro_misses_total") == 4.0
        assert parsed.value("repro_hit_ratio") == 0.6
        assert parsed.value("repro_connections_open") == 1.0
        assert parsed.value("repro_resident_pages") == 5.0
        assert parsed.value("repro_evictions_total") == 2.0
        assert parsed.value("repro_request_latency_seconds_count") == 1.0
        assert parsed.value("repro_op_latency_seconds_count", op="get") == 1.0
        assert parsed.value("repro_op_latency_seconds_count", op="put") == 0.0
        assert parsed.types["repro_op_latency_seconds"] == "histogram"

    def test_registered_histograms_are_live_not_copied(self):
        from repro.service.metrics import build_registry

        metrics = ServiceMetrics()
        reg = build_registry(metrics)
        metrics.record_op("GET", 1e-4)  # after registry construction
        text = reg.render()
        assert 'repro_op_latency_seconds_count{op="get"} 1' in text


class TestRecentWindow:
    """The sliding window behind STATS' `recent` block (fake clock throughout)."""

    def test_bad_shape_rejected(self):
        from repro.service.metrics import RecentWindow

        with pytest.raises(ValueError):
            RecentWindow(window_s=0)
        with pytest.raises(ValueError):
            RecentWindow(slices=1)

    def test_snapshot_counts_and_rate(self):
        from repro.service.metrics import RecentWindow

        window = RecentWindow(window_s=30.0, slices=6)
        base = window._born + 100.0
        for i in range(60):
            window.record(1e-4, now=base + i * 0.1)  # 10/s for 6s
        snap = window.snapshot(now=base + 6.0)
        assert snap["count"] == 60
        assert snap["rate"] > 0
        assert snap["p50_us"] >= 100.0  # bucket upper bound of 100µs
        assert snap["max_us"] == pytest.approx(100.0)

    def test_old_observations_expire(self):
        from repro.service.metrics import RecentWindow

        window = RecentWindow(window_s=30.0, slices=6)
        base = window._born + 100.0
        window.record(5e-3, now=base)           # one slow request
        inside = window.snapshot(now=base + 10.0)
        assert inside["count"] == 1
        after = window.snapshot(now=base + 40.0)  # > window_s later
        assert after["count"] == 0
        assert after["max_us"] == 0.0

    def test_spike_decays_but_recent_traffic_stays(self):
        from repro.service.metrics import RecentWindow

        window = RecentWindow(window_s=30.0, slices=6)
        base = window._born + 100.0
        window.record(1.0, now=base)  # pathological 1s request
        for i in range(20):
            window.record(1e-4, now=base + 25.0 + i * 0.01)
        snap = window.snapshot(now=base + 40.0)  # spike slice rotated out
        assert snap["count"] == 20
        assert snap["max_us"] == pytest.approx(100.0)

    def test_window_s_clamped_to_age_when_young(self):
        from repro.service.metrics import RecentWindow

        window = RecentWindow(window_s=30.0, slices=6)
        snap = window.snapshot(now=window._born + 2.0)
        assert snap["window_s"] <= 2.0 + 1e-6

    def test_service_metrics_snapshot_carries_recent(self):
        metrics = ServiceMetrics()
        metrics.record_op("GET", 2e-4)
        snap = metrics.snapshot()
        assert snap["recent"]["count"] == 1
        assert snap["recent"]["p99_us"] > 0
