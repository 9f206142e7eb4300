"""Streamed replay against a live server: parity and O(chunk) plumbing."""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.core.registry import make_policy
from repro.errors import ConfigurationError
from repro.service.loadgen import replay_trace
from repro.service.openloop import open_loop_replay
from repro.service.server import running_server
from repro.service.store import PolicyStore
from repro.traces.streaming import ArrayTraceStream, ZipfTraceStream


def make(name, capacity, *, seed):
    try:
        return make_policy(name, capacity, seed=seed)
    except TypeError:
        return make_policy(name, capacity)


def serve_and_replay(policy, trace, **kwargs):
    async def scenario():
        async with running_server(PolicyStore(policy)) as server:
            return await replay_trace(
                trace, host="127.0.0.1", port=server.port, **kwargs
            )

    return asyncio.run(scenario())


class TestStreamedLoadgen:
    """A streamed pipeline replay reaches the policy in trace order, so it
    must keep the *exact* offline hit parity the materialized path has."""

    @pytest.mark.parametrize("name", ["heatsink", "2-random"])
    def test_streamed_replay_matches_simresult(self, name):
        stream = ZipfTraceStream(1024, 8_000, alpha=1.0, seed=21, chunk=700)
        offline = make(name, 256, seed=9).run(stream.materialize())
        report = serve_and_replay(
            make(name, 256, seed=9), stream, mode="pipeline", concurrency=64
        )
        assert report.ops == 8_000
        assert report.errors == 0
        assert report.hits == offline.num_hits
        assert report.server_stats["hits"] == offline.num_hits
        assert report.server_stats["hit_rate"] == offline.hit_rate

    def test_streamed_equals_materialized_replay(self):
        stream = ZipfTraceStream(512, 4_000, alpha=1.0, seed=6, chunk=333)
        streamed = serve_and_replay(make("heatsink", 128, seed=2), stream)
        plain = serve_and_replay(make("heatsink", 128, seed=2), stream.materialize())
        assert streamed.hits == plain.hits
        assert streamed.ops == plain.ops

    def test_batched_streamed_replay(self):
        stream = ZipfTraceStream(512, 4_000, alpha=1.0, seed=3, chunk=450)
        offline = make("heatsink", 256, seed=1).run(stream.materialize())
        report = serve_and_replay(
            make("heatsink", 256, seed=1), stream, batch=32, concurrency=16
        )
        assert report.errors == 0
        assert report.hits == offline.num_hits

    def test_window_straddles_chunk_boundaries(self):
        # chunk=7 with batch=4: nearly every request window crosses a chunk
        stream = ArrayTraceStream(
            repro.zipf_trace(64, 500, alpha=1.0, seed=8).pages, chunk=7
        )
        offline = make("lru", 32, seed=0).run(stream.materialize())
        report = serve_and_replay(make("lru", 32, seed=0), stream, batch=4)
        assert report.ops == 500
        assert report.hits == offline.num_hits

    def test_workers_mode_rejected_for_streams(self):
        stream = ZipfTraceStream(16, 100, seed=0)
        with pytest.raises(ConfigurationError, match="pipeline"):
            serve_and_replay(make("lru", 8, seed=0), stream, mode="workers")

    def test_multiple_connections_rejected_for_streams(self):
        stream = ZipfTraceStream(16, 100, seed=0)
        with pytest.raises(ConfigurationError, match="connections=1"):
            serve_and_replay(make("lru", 8, seed=0), stream, connections=2)


class TestStreamedOpenLoop:
    def _run(self, stream, **kwargs):
        async def scenario():
            async with running_server(PolicyStore(make("heatsink", 128, seed=1))) as srv:
                return await open_loop_replay(
                    stream, host="127.0.0.1", port=srv.port, **kwargs
                )

        return asyncio.run(scenario())

    def test_streamed_open_loop_smoke(self):
        stream = ZipfTraceStream(256, 2_000, alpha=1.0, seed=5, chunk=300)
        report = self._run(stream, rate=50_000.0, connections=2, slo_ms=1_000.0)
        assert report.ops == 2_000
        assert report.errors == 0
        assert report.rate == 50_000.0
        assert report.p50_ms >= 0
        assert 0 <= report.violations <= 2_000

    def test_streamed_hit_count_matches_offline(self):
        # arrivals are paced but order is preserved per round-robin lane;
        # the *total* hits observed by the server equal the offline run
        # only when a single connection preserves global order
        stream = ZipfTraceStream(256, 1_500, alpha=1.0, seed=7, chunk=200)
        offline = make("heatsink", 128, seed=1).run(stream.materialize())
        report = self._run(stream, rate=100_000.0, connections=1)
        assert report.hits == offline.num_hits
