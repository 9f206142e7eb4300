"""Inline writes: the reader answers an idle connection itself.

When a response slot is already bytes, carries no span, and the flusher
holds nothing, :class:`~repro.service.frontend.FrontEnd` writes it from
the reader. A response the socket does not take whole is queued as a
"written, drain me" slot that the flusher drains under ``write_timeout``.
Order, latency accounting and slow-client drops must not change.
"""

from __future__ import annotations

import asyncio
import json
import socket

import repro
from repro.obs import tracing
from repro.obs.sinks import ListSink
from repro.service.protocol import Request, encode_request
from repro.service.server import CacheServer
from repro.service.store import PolicyStore

BIG = "x" * 900_000


def run(coro):
    return asyncio.run(coro)


class SpyServer(CacheServer):
    """Counts inline writes, and those that left bytes for the flusher."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.inline = 0
        self.handed_over = 0

    async def _write_inline(self, conn, start, op, slot):
        queued = conn.responses.qsize()
        await super()._write_inline(conn, start, op, slot)
        self.inline += 1
        self.handed_over += conn.responses.qsize() > queued


async def started(**knobs) -> SpyServer:
    server = SpyServer(PolicyStore(repro.LRUCache(512)), **knobs)
    await server.start()
    return server


async def open_small_window(port: int, data: bytes) -> socket.socket:
    """A raw client that sends ``data`` and reads nothing until asked.

    Its small receive buffer and small MSS (which keeps the server's send
    buffer small too) keep a ~900 KB response from leaving the server's
    socket in one write.
    """
    loop = asyncio.get_running_loop()
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_MAXSEG, 536)
    sock.setblocking(False)
    await loop.sock_connect(sock, ("127.0.0.1", port))
    await loop.sock_sendall(sock, data)
    return sock


async def read_lines(sock: socket.socket, n: int) -> list[bytes]:
    loop = asyncio.get_running_loop()
    data = b""
    while data.count(b"\n") < n:
        chunk = await loop.sock_recv(sock, 1 << 16)
        assert chunk, "server closed the connection early"
        data += chunk
    return data.split(b"\n")[:n]


async def read_to_end(sock: socket.socket) -> None:
    loop = asyncio.get_running_loop()
    try:
        while await loop.sock_recv(sock, 1 << 16):
            pass
    except ConnectionError:
        pass


async def wait_until(predicate, timeout):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate() and loop.time() < deadline:
        await asyncio.sleep(0.01)


class TestInlineWrites:
    def test_pipelined_mix_with_traced_requests_keeps_request_order(self):
        requests, expected = [], []
        for i in range(128):
            trace = f"{i:016x}:{i:016x}" if i % 3 == 0 else None
            requests.append(Request("PUT", key=i, value=f"v{i}"))
            expected.append({"ok": True, "hit": False})
            requests.append(Request("GET", key=i, trace=trace))
            expected.append({"ok": True, "hit": True, "value": f"v{i}"})
        traced = sum(r.trace is not None for r in requests)

        async def scenario():
            server = await started()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"".join(encode_request(r) for r in requests))
                await writer.drain()
                responses = [json.loads(await reader.readline()) for _ in requests]
                writer.close()
                return responses, server.inline
            finally:
                await server.stop()

        with tracing.recording(ListSink(), service="server") as sink:
            responses, inline = run(scenario())
        assert responses == expected
        assert 0 < inline <= len(requests) - traced
        names = [event["name"] for event in sink.events]
        assert names.count("server.request") == traced

    def test_handed_over_response_counts_once(self):
        """A response the socket did not take whole is drained by the
        flusher and recorded once, like every inline one."""
        frames = [Request("PUT", key=1, value=BIG), Request("GET", key=1)]
        frames += [Request("GET", key=k) for k in range(2, 10)]

        async def scenario():
            server = await started()
            try:
                sock = await open_small_window(
                    server.port, b"".join(encode_request(r) for r in frames)
                )
                await asyncio.sleep(0.2)  # let the big answer back up first
                responses = [json.loads(line) for line in await read_lines(sock, len(frames))]
                metrics = server.store.metrics
                await wait_until(lambda: metrics.latency.count >= len(frames), 10.0)
                await asyncio.sleep(0.05)  # a double count would land by now
                stats = (metrics.requests, metrics.latency.count)
                by_op = (metrics.latency_by_op["PUT"].count, metrics.latency_by_op["GET"].count)
                sock.close()
                return responses, stats, by_op, server.handed_over
            finally:
                await server.stop()

        responses, stats, by_op, handed_over = run(scenario())
        assert responses[1] == {"ok": True, "hit": True, "value": BIG}
        assert [r["hit"] for r in responses[2:]] == [False] * 8
        assert handed_over >= 1
        assert stats == (len(frames), len(frames))
        assert by_op == (1, len(frames) - 1)

    def test_stalled_reader_dropped_at_write_timeout(self):
        """The first answer that cannot drain went out inline; the flusher
        still drops the connection at ``write_timeout`` and counts it."""
        write_timeout = 0.2
        stall = encode_request(Request("PUT", key=1, value=BIG))
        stall += encode_request(Request("GET", key=1)) * 3

        async def scenario():
            server = await started(write_timeout=write_timeout)
            try:
                loop = asyncio.get_running_loop()
                sock = await open_small_window(server.port, stall)
                start = loop.time()
                metrics = server.store.metrics
                await wait_until(lambda: metrics.write_timeouts > 0, 10.0)
                dropped_after = loop.time() - start
                # the server aborted the connection: reading ends, never hangs
                await asyncio.wait_for(read_to_end(sock), 10.0)
                await wait_until(
                    lambda: metrics.connections_closed == metrics.connections_opened, 10.0
                )
                sock.close()
                return (
                    dropped_after,
                    metrics.write_timeouts,
                    metrics.connections_opened - metrics.connections_closed,
                    metrics.latency.count,
                    server.handed_over,
                )
            finally:
                await server.stop()

        dropped_after, timeouts, still_open, recorded, handed_over = run(scenario())
        assert handed_over >= 1
        assert timeouts == 1
        assert write_timeout * 0.9 <= dropped_after < write_timeout + 2.0
        assert still_open == 0
        assert recorded == 1  # the PUT answer; the cut-off GET records nothing
