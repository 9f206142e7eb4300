"""Client resilience and server backpressure.

Covers the hang-fix satellite (every awaited connect/read has a default
timeout surfaced as ServiceError), idempotency-aware retry rules, the
reconnecting wrapper, overload shedding, the in-flight window,
slow-client write timeouts, and the connection behaviour both front ends
(plain server and cluster router) share.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import socket

import pytest

import repro
from repro.cluster.router import running_router
from repro.errors import (
    ConfigurationError,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.obs.exposition import parse_prometheus
from repro.service.client import DEFAULT_TIMEOUT, ResilientClient, RetryPolicy, ServiceClient
from repro.service.protocol import MAX_LINE_BYTES
from repro.service.server import CacheServer, running_server
from repro.service.store import PolicyStore


def run(coro):
    return asyncio.run(coro)


def make_store(capacity=8):
    return PolicyStore(repro.LRUCache(capacity))


@contextlib.asynccontextmanager
async def front_end(kind, **knobs):
    """``(port, connection metrics)`` of a plain server, or of a router in
    front of one worker server; ``knobs`` configure the front end named."""
    async with running_server(make_store(), **(knobs if kind == "server" else {})) as server:
        if kind == "server":
            yield server.port, server.store.metrics
        else:
            async with running_router(
                [("w0", "127.0.0.1", server.port)], **knobs
            ) as router:
                yield router.port, router.metrics


async def send_and_stall(port):
    """Send :data:`STALLING_REQUESTS`, then neither read nor send.

    The raw socket's small fixed receive buffer and small MSS (which
    keeps the server's send buffer small too) mean one ~900 KB response
    cannot drain. Returns the socket; the caller closes it.
    """
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_MAXSEG, 536)
    sock.setblocking(False)
    await loop.sock_connect(sock, ("127.0.0.1", port))
    await loop.sock_sendall(sock, STALLING_REQUESTS)
    return sock


#: A 900 KB PUT, then a few GETs of it: the first GET answer cannot drain
#: to :func:`send_and_stall`'s client, and the server's reader has read
#: every frame and waits on the socket.
STALLING_REQUESTS = (
    f'{{"op":"PUT","key":1,"value":"{"x" * 900_000}"}}\n'.encode()
    + b'{"op":"GET","key":1}\n' * 3
)


async def wait_until(predicate, timeout):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.01)


class silent_server:
    """Accepts TCP connections and never answers — the pathological peer."""

    def __init__(self):
        self._server = None
        self._blockers = []
        self.port = None

    async def __aenter__(self):
        async def handler(reader, writer):
            blocker = asyncio.Event()
            self._blockers.append(blocker)
            await blocker.wait()

        self._server = await asyncio.start_server(handler, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        for blocker in self._blockers:
            blocker.set()
        self._server.close()
        await self._server.wait_closed()


class TestTimeouts:
    """The fix for `connect`/`get_window` hanging forever."""

    def test_clients_have_a_default_timeout(self):
        # the guard must be on by default — an unconfigured client can
        # no longer hang forever on an unresponsive peer
        assert DEFAULT_TIMEOUT is not None and DEFAULT_TIMEOUT > 0

        async def scenario():
            async with running_server(make_store()) as server:
                client = await ServiceClient.connect("127.0.0.1", server.port)
                assert client.timeout == DEFAULT_TIMEOUT
                await client.close()

        run(scenario())

    def test_request_to_silent_server_times_out(self):
        async def scenario():
            async with silent_server() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=0.05
                ) as client:
                    with pytest.raises(ServiceTimeout):
                        await client.get(1)

        run(scenario())

    def test_get_window_to_silent_server_times_out(self):
        async def scenario():
            async with silent_server() as peer:
                async with await ServiceClient.connect(
                    "127.0.0.1", peer.port, timeout=0.05
                ) as client:
                    with pytest.raises(ServiceTimeout):
                        await client.get_window([1, 2, 3])

        run(scenario())

    def test_timeout_is_a_service_error(self):
        # callers catching the documented ServiceError must see timeouts too
        assert issubclass(ServiceTimeout, ServiceError)
        assert issubclass(ServiceTimeout, TimeoutError)

    def test_connect_refused_is_service_error(self):
        async def scenario():
            async with running_server(make_store()) as server:
                free_port = server.port
            with pytest.raises(ServiceError):
                await ServiceClient.connect("127.0.0.1", free_port, timeout=0.5)

        run(scenario())


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)

    def test_backoffs_start_at_base_and_stay_bounded(self):
        policy = RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=0.2, seed=1)
        delays = list(itertools.islice(policy.backoffs(), 50))
        assert delays[0] == 0.01
        assert all(0.01 <= d <= 0.2 for d in delays[1:])

    def test_seeded_backoffs_are_reproducible(self):
        policy = RetryPolicy(seed=42)
        a = list(itertools.islice(policy.backoffs(), 20))
        b = list(itertools.islice(policy.backoffs(), 20))
        assert a == b

    def test_backoffs_jitter_grows_from_previous_delay(self):
        # decorrelated jitter must eventually explore above 3 * base
        policy = RetryPolicy(max_attempts=8, base_delay=0.01, max_delay=10.0, seed=3)
        delays = list(itertools.islice(policy.backoffs(), 200))
        assert max(delays) > 0.03


class flaky_server:
    """Kills the first ``failures`` connections after one read, then serves."""

    def __init__(self, store, failures):
        self.store = store
        self.failures = failures
        self.connections = 0
        self._inner = CacheServer(store)
        self._front = None
        self.port = None

    async def __aenter__(self):
        await self._inner.start()

        async def handler(reader, writer):
            self.connections += 1
            if self.connections <= self.failures:
                await reader.readline()  # swallow one request, then vanish
                writer.transport.abort()
                return
            # transparent relay to the real server
            upstream_r, upstream_w = await asyncio.open_connection("127.0.0.1", self._inner.port)

            async def pump(src, dst):
                try:
                    while chunk := await src.read(4096):
                        dst.write(chunk)
                        await dst.drain()
                except OSError:
                    pass

            await asyncio.gather(pump(reader, upstream_w), pump(upstream_r, writer))

        self._front = await asyncio.start_server(handler, "127.0.0.1", 0)
        self.port = self._front.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info):
        self._front.close()
        await self._front.wait_closed()
        await self._inner.stop()


class TestResilientClient:
    def retry(self, **kwargs):
        defaults = dict(max_attempts=4, base_delay=0.005, max_delay=0.02, seed=0)
        defaults.update(kwargs)
        return RetryPolicy(**defaults)

    def test_get_retries_through_connection_failures(self):
        async def scenario():
            async with flaky_server(make_store(), failures=2) as peer:
                async with ResilientClient(
                    "127.0.0.1", peer.port, retry=self.retry(), timeout=0.5
                ) as client:
                    response = await client.get(1)
            return response, client.counters

        response, counters = run(scenario())
        assert response["ok"] is True
        assert counters.retries == 2
        assert counters.connects == 3  # original + 2 reconnects
        assert counters.reconnects == 2
        assert counters.failures == 0

    def test_put_not_retried_by_default(self):
        async def scenario():
            async with flaky_server(make_store(), failures=1) as peer:
                async with ResilientClient(
                    "127.0.0.1", peer.port, retry=self.retry(), timeout=0.5
                ) as client:
                    with pytest.raises(ServiceError):
                        await client.put(1, "v")
            return client.counters

        counters = run(scenario())
        assert counters.retries == 0
        assert counters.failures == 1

    def test_put_retried_with_opt_in(self):
        async def scenario():
            async with flaky_server(make_store(), failures=1) as peer:
                async with ResilientClient(
                    "127.0.0.1", peer.port, retry=self.retry(), timeout=0.5, retry_unsafe=True
                ) as client:
                    response = await client.put(1, "v")
            return response, client.counters

        response, counters = run(scenario())
        assert response["ok"] is True
        assert counters.retries == 1

    def test_per_call_idempotent_override(self):
        async def scenario():
            async with flaky_server(make_store(), failures=1) as peer:
                async with ResilientClient(
                    "127.0.0.1", peer.port, retry=self.retry(), timeout=0.5
                ) as client:
                    return await client.delete(1, idempotent=True), client.counters

        response, counters = run(scenario())
        assert response["ok"] is True
        assert counters.retries == 1

    def test_exhausted_attempts_raise_last_error(self):
        async def scenario():
            async with flaky_server(make_store(), failures=99) as peer:
                async with ResilientClient(
                    "127.0.0.1", peer.port, retry=self.retry(max_attempts=3), timeout=0.2
                ) as client:
                    with pytest.raises(ServiceError):
                        await client.get(1)
            return client.counters

        counters = run(scenario())
        assert counters.attempts == 3
        assert counters.failures == 1

    def test_window_retry_completes_with_correct_responses(self):
        async def scenario():
            async with flaky_server(make_store(4), failures=1) as peer:
                async with ResilientClient(
                    "127.0.0.1", peer.port, retry=self.retry(), timeout=0.5
                ) as client:
                    return await client.get_window([1, 1, 2])

        responses = run(scenario())
        assert [r["ok"] for r in responses] == [True, True, True]
        assert len(responses) == 3


class TestOverload:
    def test_excess_connection_rejected_fast(self):
        async def scenario():
            async with running_server(make_store(), max_connections=1) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as holder:
                    await holder.ping()  # connection is established and counted
                    async with await ServiceClient.connect(
                        "127.0.0.1", server.port, timeout=1.0
                    ) as excess:
                        response = await excess.get(1)
                assert server.store.metrics.rejected == 1
            return response

        response = run(scenario())
        assert response["ok"] is False
        assert response["code"] == "overloaded"

    def test_resilient_client_rides_out_overload(self):
        async def scenario():
            async with running_server(make_store(), max_connections=1) as server:
                holder = await ServiceClient.connect("127.0.0.1", server.port)
                await holder.ping()

                async def release_soon():
                    await asyncio.sleep(0.05)
                    await holder.close()

                releaser = asyncio.create_task(release_soon())
                async with ResilientClient(
                    "127.0.0.1",
                    server.port,
                    retry=RetryPolicy(max_attempts=8, base_delay=0.02, max_delay=0.05, seed=0),
                    timeout=1.0,
                ) as client:
                    # PUT is not idempotent, but overload rejections happen
                    # before the request is read, so it retries anyway
                    response = await client.put(7, "v")
                await releaser
            return response, client.counters

        response, counters = run(scenario())
        assert response["ok"] is True
        assert counters.overloaded >= 1

    def test_overload_exhaustion_raises_service_overloaded(self):
        async def scenario():
            async with running_server(make_store(), max_connections=1) as server:
                async with await ServiceClient.connect("127.0.0.1", server.port) as holder:
                    await holder.ping()
                    async with ResilientClient(
                        "127.0.0.1",
                        server.port,
                        retry=RetryPolicy(max_attempts=2, base_delay=0.005, seed=0),
                        timeout=0.5,
                    ) as client:
                        with pytest.raises(ServiceOverloaded):
                            await client.get(1)
                    return client.counters

        counters = run(scenario())
        assert counters.overloaded == 2
        assert counters.failures == 1


class TestBackpressure:
    def test_small_inflight_window_preserves_order_and_parity(self):
        trace = repro.zipf_trace(64, 600, alpha=1.0, seed=5)
        offline = repro.LRUCache(32).run(trace)

        async def scenario():
            store = PolicyStore(repro.LRUCache(32))
            async with running_server(store, max_inflight=2) as server:
                async with await ServiceClient.connect(
                    "127.0.0.1", server.port, timeout=5.0
                ) as client:
                    hits = 0
                    pages = trace.pages.tolist()
                    for lo in range(0, len(pages), 64):  # window >> max_inflight
                        for r in await client.get_window(pages[lo : lo + 64]):
                            hits += r["hit"]
            return hits

        assert run(scenario()) == offline.num_hits

    def test_slow_client_dropped_after_write_timeout(self):
        async def scenario():
            store = make_store(4)
            async with running_server(store, write_timeout=0.1) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                # park a large payload, then pipeline GETs for it without
                # ever reading: the server's drain() must eventually wedge
                big = "x" * 900_000
                writer.write(
                    (f'{{"op":"PUT","key":1,"value":"{big}"}}\n').encode()
                    + b'{"op":"GET","key":1}\n' * 64
                )
                await writer.drain()
                await asyncio.sleep(1.5)  # never read; let the deadline fire
                assert store.metrics.write_timeouts >= 1
                writer.close()

        run(scenario())

    def test_server_validates_backpressure_knobs(self):
        with pytest.raises(ConfigurationError):
            CacheServer(make_store(), max_connections=0)
        with pytest.raises(ConfigurationError):
            CacheServer(make_store(), max_inflight=0)
        with pytest.raises(ConfigurationError):
            CacheServer(make_store(), write_timeout=0)

    def test_undrained_response_records_no_latency(self):
        """Latency runs from dispatch to a *successful* drain: the response
        the write timeout cut off adds no sample."""

        async def scenario():
            store = make_store(4)
            async with running_server(store, write_timeout=0.1) as server:
                sock = await send_and_stall(server.port)
                await wait_until(lambda: store.metrics.write_timeouts > 0, 10.0)
                sock.close()
                m = store.metrics
                return m.write_timeouts, m.latency.count, m.latency_by_op["GET"].count

        # the PUT answer drained; the first GET answer was cut off
        assert run(scenario()) == (1, 1, 0)


class TestFrontEnds:
    """What a plain server and a router share: one connection core."""

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_oversized_frame_answered_once_then_closed(self, kind):
        async def scenario():
            async with front_end(kind) as (port, metrics):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(b"x" * (MAX_LINE_BYTES + 1))  # no newline, one byte too long
                await writer.drain()
                first = await asyncio.wait_for(reader.readline(), 5.0)
                rest = await asyncio.wait_for(reader.read(), 5.0)
                writer.close()
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 1.0
                while (
                    metrics.connections_opened > metrics.connections_closed
                    and loop.time() < deadline
                ):
                    await asyncio.sleep(0.01)
                return first, rest, metrics.connections_opened - metrics.connections_closed

        first, rest, still_open = run(scenario())
        assert json.loads(first)["code"] == "overflow"
        assert rest == b""  # EOF: nothing after the one answer
        assert still_open == 0

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_stalled_client_dropped_after_write_timeout(self, kind):
        """A client that stops reading and sending is closed once a
        response misses ``write_timeout``, though the connection's reader
        is waiting on the socket, not on a full response queue."""

        async def scenario():
            async with front_end(kind, write_timeout=0.2) as (port, metrics):
                sock = await send_and_stall(port)
                await wait_until(lambda: metrics.write_timeouts > 0, 10.0)
                await wait_until(
                    lambda: metrics.connections_opened == metrics.connections_closed, 1.0
                )
                sock.close()
                return (
                    metrics.write_timeouts,
                    metrics.connections_opened - metrics.connections_closed,
                )

        assert run(scenario()) == (1, 0)

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_connection_families_exposed(self, kind):
        async def scenario():
            async with front_end(kind) as (port, _):
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    await client.get(1)
                    return await client.metrics()

        parsed = parse_prometheus(run(scenario()))
        for family in (
            "repro_errors_total",
            "repro_rejected_total",
            "repro_write_timeouts_total",
            "repro_connections_total",
            "repro_connections_open",
            "repro_request_latency_seconds",
            "repro_op_latency_seconds",
        ):
            assert family in parsed.types, f"{kind} lacks {family}"
