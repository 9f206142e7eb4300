"""The connection core of both serving front ends.

:class:`~repro.service.server.CacheServer` (one store) and
:class:`~repro.cluster.router.RouterServer` (a ring of worker processes)
differ only in how they answer a request. Everything between the socket
and that answer is :class:`FrontEnd`, written once:

- **Lifecycle.** :meth:`FrontEnd.start` binds, :meth:`FrontEnd.serve_forever`
  blocks, and :meth:`FrontEnd.stop` stops accepting, optionally lets
  open connections finish for ``drain`` seconds, cancels the rest, and
  awaits every connection task, so counters are final when it returns.
- **Per-frame framing.** A connection's reader splits the byte stream
  with :class:`~repro.service.framing.FrameSplitter`, which tells the
  NDJSON and binary framings apart by each frame's first byte, and every
  request is answered in the framing it arrived in. There is no
  per-connection mode to negotiate or to race against pipelined bytes.
  The reader answers ``PING`` and ``HELLO`` (pure capability discovery,
  reachable in any framing) itself; a data request in a framing outside
  ``frames`` gets a ``bad-request`` answer in that framing.
- **Response slots, one ordered flusher.** For any other request the
  reader asks the subclass (:meth:`FrontEnd._respond`) for a *slot*:
  the final response bytes, or a coroutine that returns them. Slots go
  in frame order through one queue of at most ``max_inflight`` entries
  to one flusher task per connection, which settles each slot, writes
  it and drains it. A coroutine slot lets the reader move on while the
  work completes: the router sends each request to its worker in frame
  order and settles the reply in the flusher, which keeps the upstream
  pipelined and every connection's responses in request order.
- **Inline writes.** When a slot is already bytes, carries no span, and
  the flusher is parked on an empty queue (every earlier response is
  written and drained), the reader writes it itself and skips the task
  hop — every ``CacheServer`` GET and PUT on an idle connection. If the
  socket does not take all of it, the reader queues an empty
  "written, drain me" slot, and the flusher drains the rest under
  ``write_timeout`` like any other response.
- **Backpressure, three layers.** ``max_connections`` caps concurrent
  connections; an excess connection gets one ``overloaded`` response
  and is closed (load shedding beats queueing collapse). When a
  connection's response queue is full its reader stops reading, and TCP
  flow control pushes back on the sender, bounding memory per
  connection. Every response drains under ``write_timeout``: a client
  that stops reading throttles only its own connection, and one wedged
  past the deadline is dropped (its unsent bytes discarded) and counted
  in ``write_timeouts``.
- **Error isolation.** A malformed frame gets an error response and the
  connection keeps serving. An exception in a subclass handler is
  answered with ``rejected`` (a :class:`~repro.errors.ReproError`) or
  ``internal-error``: one bad client, or one bug tickled by one request,
  never takes the server down. Only an oversized frame (answered
  ``overflow``: the stream is no longer parseable), a dead socket, a
  write timeout, or a slot that fails while settling closes a
  connection.
- **One latency interval.** ``record_op`` runs once per response, after
  a successful drain (in the flusher, or in the reader when an inline
  write left nothing buffered), so the request latency histograms time
  "frame dispatched → response drained" in every process, and a
  response that never drains records no sample.
- **Tracing.** A request that carries a wire context gets a
  ``request_span`` child of it (``server.request`` / ``router.request``),
  ambient while the subclass computes the slot so spans opened there
  nest under it, and ended by the flusher after the drain. A subclass
  may name a back-dated ``parse_span`` child (decode time) and a
  ``queue_span`` child (enqueue → flusher pickup).
- **Teardown.** When the reader stops (EOF, overflow, a dropped
  connection) the flusher finishes what is already queued. A cancelled
  connection closes every slot coroutine it will never settle and ends
  its spans as aborted.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Coroutine, Mapping, Union

from repro.errors import ConfigurationError, ProtocolError, ReproError, ServiceError
from repro.obs import tracing
from repro.service.framing import Frame, FrameSplitter
from repro.service.metrics import ConnectionMetrics
from repro.service.protocol import (
    CODE_INTERNAL,
    CODE_OVERFLOW,
    CODE_REJECTED,
    FEATURES,
    FRAME_BINARY,
    FRAME_NDJSON,
    FRAMES,
    MAX_LINE_BYTES,
    Request,
    decode_request,
    encode_response,
    error_payload,
    overload_payload,
)

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "DEFAULT_WRITE_TIMEOUT",
    "FrontEnd",
    "Slot",
    "encode_payload",
]

#: Default deadline for draining one response to a slow client, seconds.
DEFAULT_WRITE_TIMEOUT = 30.0

#: Default per-connection bound on responses queued ahead of the flusher
#: (beyond it the reader stops reading that connection).
DEFAULT_MAX_INFLIGHT = 32

#: Socket read size of a connection's reader.
_READ_CHUNK = 1 << 16

#: A response slot: final framed bytes, or a coroutine returning them.
Slot = Union[bytes, Coroutine[Any, Any, bytes]]

#: Closes a connection's response queue.
_EOF = object()

#: The slot queued after an inline write the socket did not take whole:
#: writing it is a no-op, so the flusher only drains.
_WRITTEN = b""


def encode_payload(payload: Mapping[str, Any], binary: bool) -> bytes:
    """A response mapping, framed like the request it answers."""
    return encode_response(payload, frame=FRAME_BINARY if binary else FRAME_NDJSON)


_PONG = tuple(encode_payload({"ok": True, "pong": True}, binary) for binary in (False, True))
_OVERFLOW = encode_payload(error_payload("frame too long", code=CODE_OVERFLOW), False)


class _Connection:
    """One client connection's state, shared by its reader and flusher."""

    __slots__ = ("index", "writer", "responses", "idle", "broken", "closing")

    def __init__(self, index: int, writer: asyncio.StreamWriter, max_inflight: int):
        self.index = index
        self.writer = writer
        self.responses: asyncio.Queue[Any] = asyncio.Queue(maxsize=max_inflight)
        self.idle = False  # the flusher waits for a slot, holding none
        self.broken = False  # a write or a slot failed: stop reading
        self.closing = False  # torn down: the flusher stops at its next slot


class FrontEnd:
    """Listener and per-connection pipeline; see the module docs.

    Subclasses implement :meth:`_respond` and may override
    :meth:`_shutdown`.

    Parameters
    ----------
    metrics:
        The counters this front end updates.
    host, port:
        Bind address. ``port=0`` binds an ephemeral port; read
        :attr:`port` after :meth:`start` for the actual one.
    max_connections:
        Concurrent-connection cap; connections beyond it receive one
        ``overloaded`` error response and are closed immediately.
        ``None`` = unlimited.
    max_inflight:
        Per-connection bound on responses queued ahead of the flusher;
        TCP flow control enforces the excess.
    write_timeout:
        Deadline for draining one response; a client that will not read
        for this long is disconnected. ``None`` = wait forever.
    frames:
        Framings accepted for data operations. ``HELLO`` is exempt (it is
        the negotiation op and must be reachable in any framing).
    """

    #: Span opened per traced request, and its optional children.
    request_span: str
    parse_span: str | None = None
    queue_span: str | None = None

    def __init__(
        self,
        metrics: ConnectionMetrics,
        *,
        host: str,
        port: int,
        max_connections: int | None,
        max_inflight: int,
        write_timeout: float | None,
        frames: tuple[str, ...],
    ):
        if max_connections is not None and max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1 or None, got {max_connections}"
            )
        if max_inflight < 1:
            raise ConfigurationError(f"max_inflight must be >= 1, got {max_inflight}")
        if write_timeout is not None and write_timeout <= 0:
            raise ConfigurationError(
                f"write_timeout must be positive or None, got {write_timeout}"
            )
        if not frames or any(f not in FRAMES for f in frames):
            raise ConfigurationError(
                f"frames must be a non-empty subset of {list(FRAMES)}, got {frames!r}"
            )
        self.metrics = metrics
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.write_timeout = write_timeout
        self.frames = tuple(frames)
        self._server: asyncio.Server | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_counter = 0

    # -- subclass hooks --------------------------------------------------------
    async def _respond(self, request: Request, frame: Frame, index: int) -> Slot:
        """The response slot of one decoded, accepted request.

        ``frame`` is the request's wire frame (its framing and raw
        bytes); ``index`` numbers the connection. Exceptions are answered
        as ``rejected`` / ``internal-error`` responses.
        """
        raise NotImplementedError

    async def _shutdown(self) -> None:
        """Release subclass resources once every connection has closed."""

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        if self._server is not None:
            raise ServiceError("server is already running")
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=MAX_LINE_BYTES
            )
        except OSError as exc:
            raise ServiceError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or task cancellation)."""
        if self._server is None:
            raise ServiceError("call start() before serve_forever()")
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def stop(self, *, drain: float | None = None) -> None:
        """Stop accepting; optionally let open connections finish first.

        ``drain`` waits up to that many seconds for open connections to
        end on their own (idle clients are cut at the deadline); ``None``
        cancels them at once. Returns once every connection task has
        finished and the port is released.
        """
        server = self._server
        if server is None:
            return
        server.close()
        if drain and self._conn_tasks:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    asyncio.gather(*tuple(self._conn_tasks), return_exceptions=True),
                    drain,
                )
        for task in tuple(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        await server.wait_closed()
        await self._shutdown()
        self._server = None

    @property
    def is_serving(self) -> bool:
        return self._server is not None

    # -- connections -----------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        index = self._conn_counter
        self._conn_counter += 1
        metrics = self.metrics
        metrics.connections_opened += 1
        try:
            if self.max_connections is not None and len(self._conn_tasks) > self.max_connections:
                # Load shedding: answer fast so the client can back off and
                # retry, instead of silently queueing into a death spiral.
                metrics.rejected += 1
                writer.write(encode_response(overload_payload()))
                await self._drain(writer)
            else:
                await self._serve(reader, _Connection(index, writer, self.max_inflight))
        except asyncio.CancelledError:
            pass  # server shutting down
        finally:
            metrics.connections_closed += 1
            self._conn_tasks.discard(task)
            writer.close()
            # CancelledError is a BaseException: during shutdown the task
            # is cancelled while awaiting wait_closed, and letting it
            # escape here prints "exception never retrieved" noise.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _serve(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        flusher = asyncio.create_task(self._flush(conn))
        try:
            await self._read(reader, conn)
            await conn.responses.put(_EOF)  # the flusher finishes what is queued
            await flusher
        finally:
            # wait_for (a link reconnect inside a router slot) can swallow a
            # cancel that races its completion; the flag still stops the flusher
            conn.closing = True
            flusher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await flusher

    async def _read(self, reader: asyncio.StreamReader, conn: _Connection) -> None:
        """Read, split and dispatch frames until EOF, overflow or a broken write."""
        splitter = FrameSplitter()
        while not conn.broken:
            try:
                chunk = await reader.read(_READ_CHUNK)
            except OSError:
                return
            if not chunk:
                return
            try:
                frames = splitter.feed(chunk)
            except ProtocolError:
                # frame too large: the stream is no longer parseable, so
                # answer once and close only this connection
                self.metrics.errors += 1
                start = asyncio.get_running_loop().time()
                await self._enqueue(conn, start, None, _OVERFLOW, None)
                return
            for frame in frames:
                if conn.broken:
                    return
                await self._dispatch_frame(frame, conn)

    async def _dispatch_frame(self, frame: Frame, conn: _Connection) -> None:
        """Decode one frame, get its slot, queue it for the flusher."""
        start = asyncio.get_running_loop().time()
        t0 = tracing.clock() if tracing.ENABLED else 0
        self.metrics.requests += 1
        binary = frame.binary
        try:
            request = decode_request(frame.payload)
        except ProtocolError as exc:
            self.metrics.errors += 1
            slot = encode_payload(error_payload(str(exc)), binary)
            await self._enqueue(conn, start, None, slot, None)
            return
        span = None
        if tracing.ENABLED:
            # a traced binary frame carries the context in its header, an
            # NDJSON request in its "trace" field; the header wins
            span = tracing.start_remote(
                frame.trace or request.trace, self.request_span, op=request.op
            )
            if span is not None and self.parse_span is not None:
                span.child(self.parse_span, start_ns=t0)
        try:
            slot = await self._answer(request, frame, conn.index)
        finally:
            if span is not None:
                span.detach()
        await self._enqueue(conn, start, request.op, slot, span)

    async def _answer(self, request: Request, frame: Frame, index: int) -> Slot:
        binary = frame.binary
        arrived = FRAME_BINARY if binary else FRAME_NDJSON
        if arrived not in self.frames and request.op != "HELLO":
            self.metrics.errors += 1
            return encode_payload(
                error_payload(f"{arrived} framing not accepted here; negotiate via HELLO"),
                binary,
            )
        if request.op == "PING":
            self.metrics.local += 1
            return _PONG[binary]
        if request.op == "HELLO":
            self.metrics.local += 1
            return encode_payload(self._hello(request), binary)
        try:
            return await self._respond(request, frame, index)
        except ReproError as exc:
            self.metrics.errors += 1
            return encode_payload(error_payload(str(exc), code=CODE_REJECTED), binary)
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            self.metrics.errors += 1
            return encode_payload(
                error_payload(f"{type(exc).__name__}: {exc}", code=CODE_INTERNAL), binary
            )

    def _hello(self, request: Request) -> dict[str, Any]:
        requested = request.frame or FRAME_NDJSON
        if requested not in self.frames:
            return error_payload(
                f"{requested} framing not accepted here; accepted: {list(self.frames)}"
            )
        return {
            "ok": True,
            "frame": requested,
            "frames": list(self.frames),
            "features": list(FEATURES),
        }

    async def _enqueue(
        self, conn: _Connection, start: float, op: str | None, slot: Slot, span: Any
    ) -> None:
        responses = conn.responses
        if span is None:
            if conn.idle and responses.empty() and isinstance(slot, bytes) and not conn.broken:
                await self._write_inline(conn, start, op, slot)
            else:
                await responses.put((start, op, slot, None, None))
            return
        # the queue span opens here and ends when the flusher pops the
        # slot, so head-of-line blocking shows as its own tree node
        qspan = span.start_child(self.queue_span) if self.queue_span is not None else None
        await responses.put((start, op, slot, span, qspan))

    async def _write_inline(
        self, conn: _Connection, start: float, op: str | None, slot: bytes
    ) -> None:
        """Write ``slot`` from the reader; the flusher is idle, so order holds."""
        writer = conn.writer
        writer.write(slot)
        if writer.transport.get_write_buffer_size():
            # the queue is empty, so put_nowait cannot overflow it
            conn.responses.put_nowait((start, op, _WRITTEN, None, None))
        elif await self._drain(writer):
            self.metrics.record_op(op, asyncio.get_running_loop().time() - start)
        else:
            conn.broken = True

    async def _flush(self, conn: _Connection) -> None:
        """Settle, write and drain slots in frame order until ``_EOF``.

        A failed drain or slot drops the connection: the transport is
        aborted, which discards its unsent bytes and wakes a reader parked
        in ``read()`` with EOF. From then on the flusher keeps consuming
        and settling slots without writing them, so the reader can never
        block on a full queue; the reader stops at its next frame.
        """
        clock = asyncio.get_running_loop().time
        metrics = self.metrics
        writer = conn.writer
        responses = conn.responses
        try:
            while not conn.closing:
                conn.idle = True
                item = await responses.get()
                conn.idle = False
                if item is _EOF:
                    return
                start, op, slot, span, qspan = item
                if qspan is not None:
                    qspan.end()
                drained = False
                try:
                    if not isinstance(slot, bytes):
                        slot = await slot
                    if not conn.broken:
                        writer.write(slot)
                        drained = await self._drain(writer)
                        conn.broken = not drained
                except Exception:
                    # backstop: a slot that fails while settling drops the
                    # connection instead of leaving its client waiting
                    metrics.errors += 1
                    conn.broken = True
                    writer.transport.abort()
                finally:
                    if span is not None:
                        if drained:
                            span.end()
                        else:
                            span.end(aborted=True)
                if drained:
                    metrics.record_op(op, clock() - start)
        finally:
            _discard(responses)

    async def _drain(self, writer: asyncio.StreamWriter) -> bool:
        """Flush to the client under ``write_timeout``.

        On a timeout or a dead socket the transport is aborted (the
        connection is dropped) and the result is False.
        """
        try:
            if self.write_timeout is None or not writer.transport.get_write_buffer_size():
                await writer.drain()  # with nothing buffered, drain never blocks
                return True
            # asyncio.wait, not wait_for: wait_for (before 3.12) can swallow
            # a cancel that races the drain, and teardown cancels this task
            drain = asyncio.ensure_future(writer.drain())
            try:
                done, _ = await asyncio.wait((drain,), timeout=self.write_timeout)
            finally:
                drain.cancel()
            if done:
                drain.result()
                return True
            self.metrics.write_timeouts += 1
        except OSError:  # reset or broken pipe: the client is gone
            pass
        writer.transport.abort()
        return False


def _discard(responses: asyncio.Queue) -> None:
    """Close the slots nobody will settle; end their spans as aborted."""
    while not responses.empty():
        item = responses.get_nowait()
        if item is _EOF:
            continue
        _, _, slot, span, qspan = item
        if not isinstance(slot, bytes):
            slot.close()
        for sp in (qspan, span):
            if sp is not None:
                sp.end(aborted=True)
