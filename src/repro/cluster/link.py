"""Persistent router→worker connections (the cluster's upstream plane).

A :class:`WorkerLink` is one long-lived TCP connection to one worker,
speaking the binary framing only (the router re-frames client NDJSON as
needed — the JSON body is identical in both framings, so re-framing is a
header swap, never a re-serialization). Requests are pipelined FIFO: a
send appends a future to a pending deque and writes the frame in the
same event-loop step, the reader task resolves futures in arrival order.
There are no request ids on the wire — the worker answers in order, the
same contract every client of :class:`~repro.service.server.CacheServer`
relies on.

FIFO correlation makes a *lost or unmatched frame fatal to the link*: a
response that never arrives would misalign every later pairing. So any
timeout, truncated frame, or transport error resets the whole link —
pending futures fail fast with :class:`~repro.errors.ServiceError`, the
next send reconnects, and the router's retry layer decides per request
whether a replay is safe (idempotent ops only, mirroring
:class:`~repro.service.client.ResilientClient`).

Deadline: one timer per link, not one per request. Responses arrive in
send order, so the oldest outstanding request is always the first to
run out of time: the timer is armed for its deadline (its send time plus
``timeout``) and, when it fires, either resets the link with
:class:`~repro.errors.ServiceTimeout` (that request is overdue) or re-arms
for the request now at the head. Awaiting a response is a plain await.

Backpressure: a semaphore caps in-flight requests per link; when the
worker falls behind, senders block, the router's per-connection response
queues fill, its client-socket pumps stop reading, and TCP pushes back on
the clients — the same three-layer cascade the single server documents,
stretched across two processes.

A :class:`WorkerChannel` owns a small pool of links to one worker.
Callers pin themselves to a link (``link_for(i)``), so each client
connection's ops reach the worker over one link, in order — which is what
keeps single-connection replays bit-identical to the offline reference.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Any

from repro.errors import ProtocolError, ServiceError, ServiceTimeout
from repro.service.client import DEFAULT_CONNECT_TIMEOUT
from repro.service.protocol import (
    BINARY_HEADER_SIZE,
    BINARY_TAG,
    MAX_FRAME_BYTES,
    MAX_LINE_BYTES,
    decode_response,
    encode_frame,
)

__all__ = ["DEFAULT_UPSTREAM_TIMEOUT", "DEFAULT_MAX_PENDING", "WorkerLink", "WorkerChannel"]

#: Default deadline for one worker response, seconds. Workers are local
#: processes doing O(1) work per op; multi-second silence means trouble.
DEFAULT_UPSTREAM_TIMEOUT = 10.0

#: Default in-flight request cap per link (backpressure bound).
DEFAULT_MAX_PENDING = 1024

#: The deadline of a request on a link with no timeout.
_NEVER = float("inf")


class WorkerLink:
    """One pipelined binary connection to one worker (lazy connect)."""

    def __init__(
        self,
        node: str,
        host: str,
        port: int,
        *,
        timeout: float | None = DEFAULT_UPSTREAM_TIMEOUT,
        connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        self.node = node
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._sem = asyncio.Semaphore(max_pending)
        self._connect_lock = asyncio.Lock()
        # (deadline, future) per outstanding request, in send order
        self._pending: deque[tuple[float, asyncio.Future]] = deque()
        self._timer: asyncio.TimerHandle | None = None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._generation = 0  # bumped on every reset; stale failures are ignored
        self.connects = 0

    @property
    def connected(self) -> bool:
        return self._writer is not None

    @property
    def pending(self) -> int:
        return len(self._pending)

    # -- request path --------------------------------------------------------
    async def send(self, frame: bytes) -> asyncio.Future:
        """Write one binary frame; return the future of its response body.

        The (append future, write bytes) pair happens with no await
        between them, so concurrent senders can never interleave a write
        with someone else's future — FIFO pairing is preserved no matter
        how many tasks share the link.
        """
        await self._sem.acquire()
        try:
            await self._ensure_connected()
        except BaseException:
            self._sem.release()
            raise
        writer = self._writer
        assert writer is not None
        generation = self._generation
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        if self.timeout is None:
            self._pending.append((_NEVER, future))
        else:
            deadline = loop.time() + self.timeout
            self._pending.append((deadline, future))
            if self._timer is None:
                self._timer = loop.call_at(deadline, self._expire, generation, deadline)
        writer.write(frame)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._reset(
                ServiceError(f"worker {self.node} link lost while writing: {exc}"),
                generation=generation,
            )
        return future

    async def settle(self, future: asyncio.Future) -> bytes:
        """Await one response body.

        The link's deadline fails it with
        :class:`~repro.errors.ServiceTimeout` if the worker does not
        answer within ``timeout`` of its send; that timeout has already
        reset the link (FIFO desync), so the next send reconnects.
        """
        return await future

    async def call(self, frame: bytes) -> bytes:
        """``send`` + ``settle`` in one step (admin/fan-out convenience)."""
        return await self.settle(await self.send(frame))

    async def call_json(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Encode a request body, round-trip it, decode the response body."""
        body = await self.call(encode_frame(payload))
        return decode_response(body)

    # -- lifecycle -----------------------------------------------------------
    async def close(self) -> None:
        self._reset(ServiceError(f"worker {self.node} link closed"))

    async def _ensure_connected(self) -> None:
        if self._writer is not None:
            return
        async with self._connect_lock:
            if self._writer is not None:
                return  # a concurrent sender connected while we waited
            await self._connect()

    async def _connect(self) -> None:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port, limit=MAX_LINE_BYTES),
                self.connect_timeout,
            )
        except asyncio.TimeoutError:
            raise ServiceTimeout(
                f"connecting to worker {self.node} at {self.host}:{self.port} "
                f"timed out after {self.connect_timeout}s"
            ) from None
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to worker {self.node} at {self.host}:{self.port}: {exc}"
            ) from exc
        self._reader, self._writer = reader, writer
        self.connects += 1
        self._reader_task = asyncio.create_task(
            self._read_responses(reader, self._generation)
        )

    async def _read_responses(self, reader: asyncio.StreamReader, generation: int) -> None:
        """Resolve pending futures with response bodies, FIFO."""
        try:
            while True:
                header = await reader.readexactly(BINARY_HEADER_SIZE)
                tag, length = header[0], int.from_bytes(header[1:], "big")
                if tag != BINARY_TAG:
                    raise ProtocolError(
                        f"worker {self.node} sent frame tag 0x{tag:02x}, "
                        f"expected 0x{BINARY_TAG:02x}"
                    )
                if BINARY_HEADER_SIZE + length > MAX_FRAME_BYTES:
                    raise ProtocolError(
                        f"worker {self.node} frame of {BINARY_HEADER_SIZE + length} "
                        f"bytes exceeds {MAX_FRAME_BYTES}"
                    )
                body = await reader.readexactly(length)
                if not self._pending:
                    raise ProtocolError(f"worker {self.node} sent an unsolicited frame")
                _, future = self._pending.popleft()
                self._sem.release()
                if not future.done():
                    future.set_result(body)
        except asyncio.CancelledError:
            raise
        except asyncio.IncompleteReadError:
            self._reset(
                ServiceError(f"worker {self.node} closed the connection"),
                generation=generation,
            )
        except (ProtocolError, ConnectionResetError, BrokenPipeError, OSError) as exc:
            self._reset(
                ServiceError(f"worker {self.node} link failed: {exc}"),
                generation=generation,
            )

    def _expire(self, generation: int, deadline: float) -> None:
        """The link timer, armed for ``deadline``: reset or re-arm."""
        self._timer = None
        if generation != self._generation or not self._pending:
            return
        head = self._pending[0][0]
        if head <= deadline:
            self._reset(
                ServiceTimeout(f"worker {self.node} did not answer within {self.timeout}s"),
                generation=generation,
            )
        else:
            loop = asyncio.get_running_loop()
            self._timer = loop.call_at(head, self._expire, generation, head)

    def _reset(self, error: ServiceError, *, generation: int | None = None) -> None:
        """Tear the link down; fail every pending request with ``error``."""
        if generation is not None and generation != self._generation:
            return  # a newer connection already replaced the one that failed
        self._generation += 1
        writer, self._writer, self._reader = self._writer, None, None
        task, self._reader_task = self._reader_task, None
        pending, self._pending = self._pending, deque()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for _, future in pending:
            self._sem.release()
            if future.cancelled():
                continue
            if not future.done():
                future.set_exception(error)
            # mark the exception retrieved: nobody may ever settle it
            # (a request whose caller was cancelled, a link closed early)
            future.exception()
        if writer is not None:
            writer.close()
        if task is not None and task is not asyncio.current_task():
            task.cancel()


class WorkerChannel:
    """A pool of :class:`WorkerLink` to one worker.

    ``link_for(i)`` pins caller ``i`` (the router uses its client
    connection index) to one pool member, so per-caller FIFO order is
    preserved end to end while independent callers still spread across
    the pool.
    """

    def __init__(
        self,
        node: str,
        host: str,
        port: int,
        *,
        pool: int = 2,
        timeout: float | None = DEFAULT_UPSTREAM_TIMEOUT,
        connect_timeout: float | None = DEFAULT_CONNECT_TIMEOUT,
        max_pending: int = DEFAULT_MAX_PENDING,
    ):
        if pool < 1:
            raise ServiceError(f"link pool must be >= 1, got {pool}")
        self.node = node
        self.host = host
        self.port = port
        self.links = [
            WorkerLink(
                node,
                host,
                port,
                timeout=timeout,
                connect_timeout=connect_timeout,
                max_pending=max_pending,
            )
            for _ in range(pool)
        ]

    def link_for(self, index: int) -> WorkerLink:
        return self.links[index % len(self.links)]

    @property
    def admin(self) -> WorkerLink:
        """The link admin traffic (STATS fan-out, migration sweeps) rides."""
        return self.links[0]

    @property
    def connects(self) -> int:
        return sum(link.connects for link in self.links)

    async def close(self) -> None:
        for link in self.links:
            await link.close()
