"""The asyncio TCP server.

One :class:`CacheServer` owns one store — a
:class:`~repro.service.store.PolicyStore` or a
:class:`~repro.service.sharding.ShardedPolicyStore` — and speaks both
wire framings of :mod:`repro.service.protocol` (newline-delimited JSON
and tag + length binary). The connection lifecycle — framing, HELLO,
backpressure, the ordered response flusher, drain and teardown — is
:class:`~repro.service.frontend.FrontEnd`, shared with the cluster
router and described there. What is this server's own is the store
dispatch: each request is answered in the reader, so its response slot
is always final bytes.

The dominant responses — GET-hit and GET-miss with no stored payload —
are shared singleton dicts
(:data:`~repro.service.protocol.RESPONSE_GET_HIT` /
:data:`~repro.service.protocol.RESPONSE_GET_MISS`); the server spots them
by identity and sends pre-encoded bytes, never re-serializing.
"""

from __future__ import annotations

import contextlib
from typing import Any, AsyncIterator, Union

from repro.service.framing import Frame
from repro.service.frontend import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_WRITE_TIMEOUT,
    FrontEnd,
    encode_payload,
)
from repro.service.protocol import (
    CODE_REJECTED,
    FRAMES,
    RESPONSE_GET_HIT,
    RESPONSE_GET_MISS,
    Request,
    error_payload,
)
from repro.service.sharding import ShardedPolicyStore
from repro.service.store import PolicyStore

__all__ = ["DEFAULT_WRITE_TIMEOUT", "DEFAULT_MAX_INFLIGHT", "CacheServer", "running_server"]

Store = Union[PolicyStore, ShardedPolicyStore]

#: Pre-encoded bytes of the template GET responses, indexed by ``binary``.
_HIT_BYTES = (encode_payload(RESPONSE_GET_HIT, False), encode_payload(RESPONSE_GET_HIT, True))
_MISS_BYTES = (encode_payload(RESPONSE_GET_MISS, False), encode_payload(RESPONSE_GET_MISS, True))


class CacheServer(FrontEnd):
    """Serve one policy store over TCP.

    Parameters
    ----------
    store:
        The policy-backed store all connections share (single
        :class:`PolicyStore` or :class:`ShardedPolicyStore`); its
        ``metrics`` carry the connection counters too.
    host, port, max_connections, max_inflight, write_timeout, frames:
        Front-end knobs; see :class:`~repro.service.frontend.FrontEnd`.
    """

    request_span = "server.request"
    parse_span = "server.parse"

    def __init__(
        self,
        store: Store,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        write_timeout: float | None = DEFAULT_WRITE_TIMEOUT,
        frames: tuple[str, ...] = FRAMES,
    ):
        super().__init__(
            store.metrics,
            host=host,
            port=port,
            max_connections=max_connections,
            max_inflight=max_inflight,
            write_timeout=write_timeout,
            frames=frames,
        )
        self.store = store

    async def _respond(self, request: Request, frame: Frame, index: int) -> bytes:
        response = await self._dispatch(request)
        if response is RESPONSE_GET_HIT:
            return _HIT_BYTES[frame.binary]
        if response is RESPONSE_GET_MISS:
            return _MISS_BYTES[frame.binary]
        return encode_payload(response, frame.binary)

    async def _dispatch(self, request: Request) -> dict[str, Any]:
        op = request.op
        if op == "GET":
            assert request.key is not None
            hit, value = await self.store.get(request.key)
            if value is None:
                # template singletons: _respond recognizes these by
                # identity and sends pre-encoded bytes
                return RESPONSE_GET_HIT if hit else RESPONSE_GET_MISS
            return {"ok": True, "hit": hit, "value": value}
        if op == "PUT":
            assert request.key is not None
            hit = await self.store.put(request.key, request.value)
            return {"ok": True, "hit": hit}
        if op == "DEL":
            assert request.key is not None
            existed = await self.store.delete(request.key)
            return {"ok": True, "deleted": existed}
        if op == "MGET":
            assert request.keys is not None
            results = await self.store.get_many(request.keys)
            return {
                "ok": True,
                "hits": [hit for hit, _ in results],
                "values": [value for _, value in results],
            }
        if op == "MPUT":
            assert request.keys is not None and request.values is not None
            hits = await self.store.put_many(request.keys, request.values)
            return {"ok": True, "hits": list(hits)}
        if op == "PEEK":
            assert request.key is not None
            resident, value, stored = await self.store.peek(request.key)
            return {"ok": True, "hit": resident, "value": value, "stored": stored}
        if op == "KEYS":
            return {"ok": True, "keys": [int(k) for k in await self.store.keys()]}
        if op == "RESHARD":
            return error_payload(
                "RESHARD is a cluster-router operation; this server fronts a single store",
                code=CODE_REJECTED,
            )
        if op == "STATS":
            return {"ok": True, "stats": await self.store.stats()}
        assert op == "METRICS"
        return {"ok": True, "text": await self.store.metrics_text()}


@contextlib.asynccontextmanager
async def running_server(
    store: Store, *, host: str = "127.0.0.1", port: int = 0, **kwargs: Any
) -> AsyncIterator[CacheServer]:
    """``async with running_server(store) as server:`` — start/stop bracket.

    Keyword arguments (``max_connections``, ``max_inflight``,
    ``write_timeout``, ``frames``) pass through to :class:`CacheServer`.
    """
    server = CacheServer(store, host=host, port=port, **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()
