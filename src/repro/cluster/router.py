"""The cluster's front door: an asyncio router over worker processes.

One :class:`RouterServer` listens where a plain
:class:`~repro.service.server.CacheServer` would, speaks the same two
wire framings (clients cannot tell them apart short of ``STATS``), and
owns no policy at all — every data operation is forwarded to the worker
that owns the key on the consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`), over persistent pipelined
binary links (:class:`~repro.cluster.link.WorkerChannel`).

The connection lifecycle — framing, HELLO, backpressure, the ordered
response flusher, drain under ``write_timeout`` and teardown — is
:class:`~repro.service.frontend.FrontEnd`, shared with the worker's
:class:`~repro.service.server.CacheServer` and described there. What is
the router's own:

- **Pipelined forwarding in frame order.** A forwarded request is sent
  upstream while its frame is dispatched, and its response slot is a
  coroutine the flusher settles later, so the reader never waits on a
  worker. A client connection is pinned to one link per worker, so each
  worker sees that connection's ops in order — which is what keeps a
  one-connection replay through the router bit-identical to the
  ring-partitioned offline reference.
- **Cheap re-framing, no re-serialization.** Both framings carry the
  same JSON body, so NDJSON→binary is "strip the newline, prepend the
  5-byte header" and back — a forwarded GET's body bytes are the exact
  bytes the client sent.
- **MGET/MPUT fan out per owner** and reassemble in key order; a batch
  whose keys all land on one worker is forwarded as-is.
- **Backpressure propagates.** A slow worker stalls the flusher, the
  connection's response queue fills, its reader stops reading, and TCP
  pushes back on the client; each worker link bounds its own in-flight
  window.
- **Failure isolation + retry accounting.** A worker timeout or link
  failure fails only the requests riding that link; idempotent ops
  (GET/MGET/PEEK and the admin reads) are retried on a fresh connection,
  everything else surfaces as an ``upstream-error`` response. All of it
  is counted (``router`` section of STATS).

Live resharding (the ``RESHARD`` op) — see ``docs/service.md``:

1. the ring is updated and the previous ring is frozen as ``old_ring``;
2. during the **migration window** every single-key op consults both
   owners: GET reads the new owner first and falls back to a
   non-mutating ``PEEK`` on the old owner (migrating the key on the
   spot), PUT writes the new owner and invalidates the old, DEL hits
   both — so acknowledged writes are never lost and reads never miss a
   value that exists anywhere;
3. a background sweep walks the old owners' resident keys (``KEYS``) and
   moves every key whose owner changed (PEEK old → PUT new → DEL old),
   each key under a lock shared with the client path;
4. the window closes, routing goes back to single-owner lookups.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, AsyncIterator, Sequence

from repro.errors import ConfigurationError, ProtocolError, ServiceError, ServiceTimeout
from repro.cluster.link import (
    DEFAULT_MAX_PENDING,
    DEFAULT_UPSTREAM_TIMEOUT,
    WorkerChannel,
    WorkerLink,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.hashing import splitmix64
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.service.framing import Frame
from repro.service.frontend import (
    DEFAULT_MAX_INFLIGHT,
    DEFAULT_WRITE_TIMEOUT,
    FrontEnd,
    Slot,
    encode_payload,
)
from repro.service.metrics import ConnectionMetrics, add_connection_families
from repro.service.protocol import (
    BINARY_TAG,
    CODE_REJECTED,
    CODE_UPSTREAM,
    FRAMES,
    IDEMPOTENT_OPS,
    Request,
    decode_response,
    encode_frame,
    encode_response,
    encode_traced_frame,
    error_payload,
    wrap_traced_body,
)

__all__ = ["RouterMetrics", "RouterServer", "running_router"]

#: Single-key data ops the router forwards to exactly one worker.
_SINGLE_KEY_OPS = frozenset({"GET", "PUT", "DEL", "PEEK"})

#: Route-cache bound: key → owner entries kept before the cache is cleared.
_ROUTE_CACHE_MAX = 1 << 16


def _json_body(payload: dict[str, Any]) -> bytes:
    """A response's bare JSON body (no framing)."""
    return encode_response(payload)[:-1]  # NDJSON encoding minus the newline


def _frame_body(body: bytes, binary: bool) -> bytes:
    """Wrap a JSON body in the client's framing."""
    if binary:
        return BINARY_TAG.to_bytes(1, "big") + len(body).to_bytes(4, "big") + body
    return body + b"\n"


def _to_binary_frame(frame: Frame) -> bytes:
    """Re-frame a client frame for the binary-only upstream links."""
    if frame.binary:
        return frame.raw
    body = frame.payload.rstrip(b"\r\n")
    return BINARY_TAG.to_bytes(1, "big") + len(body).to_bytes(4, "big") + body


def _upstream_frame(frame: Frame, ctx: str | None) -> bytes:
    """The upstream bytes for a forwarded frame, splicing ``ctx`` if tracing.

    With a context, the body bytes are still forwarded verbatim — only
    the traced-frame header around them changes, so the worker's spans
    parent to the router's link span instead of the client's root.
    """
    if ctx is None:
        return _to_binary_frame(frame)
    body = frame.payload if frame.binary else frame.payload.rstrip(b"\r\n")
    return wrap_traced_body(body, ctx)


class RouterMetrics(ConnectionMetrics):
    """Router-side counters; worker counters live in the workers."""

    def __init__(self) -> None:
        super().__init__()
        self.forwarded = 0  # single-worker forwards (single-key + whole batches)
        self.fanouts = 0  # multi-worker batch/admin fan-outs
        self.migration_ops = 0  # data ops served through the double-read path
        self.upstream_retries = 0
        self.upstream_timeouts = 0
        self.upstream_errors = 0
        self.migrated_keys = 0
        self.reshards = 0


class _Migration:
    """State of one live reshard (exists only while the window is open)."""

    def __init__(self, old_ring: HashRing, node: str, removing: bool):
        self.old_ring = old_ring
        self.node = node
        self.removing = removing
        self.moved_keys: list[int] = []
        self.error: str | None = None
        self.task: asyncio.Task | None = None
        self.done = asyncio.Event()


class RouterServer(FrontEnd):
    """Route cache traffic across worker processes; see module docs.

    Parameters
    ----------
    workers:
        ``(node, host, port)`` triples of the initial worker tier. Node
        names are the ring identities — the offline reference partition
        must use the same names (the supervisor uses ``w0..wN-1``).
    ring:
        Pre-built :class:`HashRing` (defaults to one over ``workers``'
        node names with ``vnodes`` virtual nodes each).
    pool:
        Persistent connections per worker.
    upstream_timeout / upstream_retries:
        Per-response worker deadline (from the request's send to the
        worker), and how many times an idempotent
        request is replayed after a link failure before answering
        ``upstream-error``.
    host, port, max_connections, max_inflight, write_timeout, frames:
        Front-end knobs; see :class:`~repro.service.frontend.FrontEnd`.
    """

    request_span = "router.request"
    queue_span = "router.queue"
    metrics: RouterMetrics

    def __init__(
        self,
        workers: Sequence[tuple[str, str, int]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        ring: HashRing | None = None,
        vnodes: int = DEFAULT_VNODES,
        pool: int = 2,
        upstream_timeout: float | None = DEFAULT_UPSTREAM_TIMEOUT,
        upstream_retries: int = 1,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_connections: int | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        write_timeout: float | None = DEFAULT_WRITE_TIMEOUT,
        frames: tuple[str, ...] = FRAMES,
    ):
        super().__init__(
            RouterMetrics(),
            host=host,
            port=port,
            max_connections=max_connections,
            max_inflight=max_inflight,
            write_timeout=write_timeout,
            frames=frames,
        )
        if not workers:
            raise ConfigurationError("RouterServer needs at least one worker")
        if upstream_retries < 0:
            raise ConfigurationError(f"upstream_retries must be >= 0, got {upstream_retries}")
        names = [node for node, _, _ in workers]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate worker node names: {names}")
        self.pool = pool
        self.upstream_timeout = upstream_timeout
        self.upstream_retries = upstream_retries
        self.max_pending = max_pending
        self.ring = ring if ring is not None else HashRing(names, vnodes=vnodes)
        if self.ring.nodes != set(names):
            raise ConfigurationError(
                f"ring nodes {sorted(self.ring.nodes)} != worker nodes {sorted(names)}"
            )
        self._worker_order: list[str] = list(names)
        self._channels: dict[str, WorkerChannel] = {
            node: self._make_channel(node, whost, wport) for node, whost, wport in workers
        }
        self._route_cache: dict[int, str] = {}
        self._migration: _Migration | None = None
        self._admin_lock = asyncio.Lock()
        self._key_locks = [asyncio.Lock() for _ in range(256)]
        self.last_reshard: dict[str, Any] | None = None

    def _make_channel(self, node: str, host: str, port: int) -> WorkerChannel:
        return WorkerChannel(
            node,
            host,
            port,
            pool=self.pool,
            timeout=self.upstream_timeout,
            max_pending=self.max_pending,
        )

    # -- lifecycle -----------------------------------------------------------
    async def _shutdown(self) -> None:
        migration = self._migration
        if migration is not None and migration.task is not None:
            migration.task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await migration.task
        for channel in self._channels.values():
            await channel.close()

    @property
    def workers(self) -> list[str]:
        return list(self._worker_order)

    @property
    def migrating(self) -> bool:
        return self._migration is not None

    # -- dispatch ------------------------------------------------------------
    async def _respond(self, request: Request, frame: Frame, index: int) -> Slot:
        """Start one request's work; return its slot.

        Forwarded requests are *sent here*, in frame order, and settled by
        the flusher, which is what pipelines the upstream.
        """
        metrics = self.metrics
        binary = frame.binary
        op = request.op
        if op in _SINGLE_KEY_OPS:
            assert request.key is not None
            if self._migration is not None:
                metrics.migration_ops += 1
                return self._finish_migrating_single(request, binary)
            link = self._channels[self._owner_of(request.key)].link_for(index)
            return await self._forward(request, frame, link)
        if op in ("MGET", "MPUT"):
            assert request.keys is not None
            if self._migration is not None:
                metrics.migration_ops += 1
                return self._finish_migrating_batch(request, binary)
            return await self._forward_batch(request, frame, index)
        if op == "STATS":
            return self._finish_stats(binary)
        if op == "METRICS":
            return self._finish_metrics(binary)
        if op == "KEYS":
            return self._finish_keys(binary)
        assert op == "RESHARD"
        return self._finish_reshard(request, binary)

    # -- routing -------------------------------------------------------------
    def _owner_of(self, key: int) -> str:
        cache = self._route_cache
        node = cache.get(key)
        if node is None:
            node = self.ring.owner(key)
            if len(cache) >= _ROUTE_CACHE_MAX:
                cache.clear()
            cache[key] = node
        return node

    def _key_lock(self, key: int) -> asyncio.Lock:
        return self._key_locks[int(splitmix64(key)) & 0xFF]

    async def _forward(self, request: Request, frame: Frame, link: WorkerLink) -> Slot:
        """Send the client's frame whole to ``link`` now; return the settle slot."""
        lspan = tracing.start_span("router.link", activate=False, node=link.node)
        upstream = _upstream_frame(frame, lspan.ctx if lspan is not None else None)
        retryable = request.op in IDEMPOTENT_OPS
        self.metrics.forwarded += 1
        try:
            future = await link.send(upstream)
        except ServiceError:
            self.metrics.upstream_errors += 1
            return self._finish_resend(link, upstream, retryable, frame.binary, lspan)
        return self._finish_forward(link, future, upstream, retryable, frame.binary, lspan)

    async def _forward_batch(self, request: Request, frame: Frame, index: int) -> Slot:
        """Split an MGET/MPUT by owner; send sub-batches now, merge later."""
        assert request.keys is not None
        keys = request.keys
        groups: dict[str, list[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self._owner_of(key), []).append(position)
        if len(groups) == 1:
            # one owner: the worker's response is exactly the client's
            (node,) = groups
            return await self._forward(request, frame, self._channels[node].link_for(index))
        retryable = request.op in IDEMPOTENT_OPS
        self.metrics.fanouts += 1
        parts: list[tuple[WorkerLink, asyncio.Future | None, bytes, list[int], Any]] = []
        for node, positions in groups.items():
            sub_payload: dict[str, Any] = {
                "op": request.op,
                "keys": [keys[i] for i in positions],
            }
            if request.op == "MPUT":
                assert request.values is not None
                sub_payload["values"] = [request.values[i] for i in positions]
            link = self._channels[node].link_for(index)
            lspan = tracing.start_span(
                "router.link", activate=False, node=link.node, n=len(positions)
            )
            if lspan is not None:
                sub_frame = encode_traced_frame(sub_payload, lspan.ctx)
            else:
                sub_frame = encode_frame(sub_payload)
            try:
                future: asyncio.Future | None = await link.send(sub_frame)
            except ServiceError:
                self.metrics.upstream_errors += 1
                future = None  # the finisher will retry or fail this part
            parts.append((link, future, sub_frame, positions, lspan))
        return self._finish_batch(request.op, parts, len(keys), retryable, frame.binary)

    # -- response finishers (run inside the flusher, in request order) -------
    async def _finish_forward(
        self,
        link: WorkerLink,
        future: asyncio.Future,
        upstream: bytes,
        retryable: bool,
        binary: bool,
        lspan: Any = None,
    ) -> bytes:
        try:
            body = await self._settle_or_retry(link, future, upstream, retryable)
        finally:
            if lspan is not None:
                lspan.end()
        return _frame_body(body, binary)

    async def _finish_resend(
        self,
        link: WorkerLink,
        upstream: bytes,
        retryable: bool,
        binary: bool,
        lspan: Any = None,
    ) -> bytes:
        """The send itself failed (e.g. worker down): retry path only."""
        try:
            body = await self._retry_body(link, upstream, retryable, "link unavailable")
        finally:
            if lspan is not None:
                lspan.end()
        return _frame_body(body, binary)

    async def _settle_or_retry(
        self, link: WorkerLink, future: asyncio.Future, upstream: bytes, retryable: bool
    ) -> bytes:
        try:
            return await link.settle(future)
        except ServiceTimeout:
            self.metrics.upstream_timeouts += 1
            return await self._retry_body(link, upstream, retryable, "response timed out")
        except ServiceError as exc:
            self.metrics.upstream_errors += 1
            return await self._retry_body(link, upstream, retryable, str(exc))

    async def _retry_body(
        self, link: WorkerLink, upstream: bytes, retryable: bool, why: str
    ) -> bytes:
        if retryable:
            for _ in range(self.upstream_retries):
                self.metrics.upstream_retries += 1
                try:
                    return await link.call(upstream)
                except ServiceTimeout:
                    self.metrics.upstream_timeouts += 1
                    why = "response timed out"
                except ServiceError as exc:
                    self.metrics.upstream_errors += 1
                    why = str(exc)
        self.metrics.errors += 1
        return _json_body(
            error_payload(f"worker {link.node} unavailable: {why}", code=CODE_UPSTREAM)
        )

    async def _finish_batch(
        self,
        op: str,
        parts: list[tuple[WorkerLink, asyncio.Future | None, bytes, list[int], Any]],
        total: int,
        retryable: bool,
        binary: bool,
    ) -> bytes:
        try:
            return await self._finish_batch_inner(op, parts, total, retryable, binary)
        finally:
            # early-error returns above leave later parts unsettled in span
            # terms only (FIFO links still deliver); close their link spans
            for part in parts:
                if part[4] is not None:
                    part[4].end()

    async def _finish_batch_inner(
        self,
        op: str,
        parts: list[tuple[WorkerLink, asyncio.Future | None, bytes, list[int], Any]],
        total: int,
        retryable: bool,
        binary: bool,
    ) -> bytes:
        hits: list[Any] = [False] * total
        values: list[Any] = [None] * total
        for index, (link, future, upstream, positions, lspan) in enumerate(parts):
            if future is None:
                body = await self._retry_body(link, upstream, retryable, "link unavailable")
            else:
                body = await self._settle_or_retry(link, future, upstream, retryable)
            if lspan is not None:
                lspan.end()
                parts[index] = (link, future, upstream, positions, None)
            try:
                payload = decode_response(body)
            except ProtocolError as exc:
                # a garbled-but-well-framed body (FIFO alignment is intact,
                # so the link survives); fail the frame, not the connection
                self.metrics.upstream_errors += 1
                self.metrics.errors += 1
                return encode_payload(
                    error_payload(
                        f"worker {link.node} answered an unparseable body: {exc}",
                        code=CODE_UPSTREAM,
                    ),
                    binary,
                )
            if not payload.get("ok"):
                # one failed sub-batch fails the whole frame (the client's
                # batch_responses explodes it into per-key errors)
                return encode_payload(payload, binary)
            part_hits = payload.get("hits") or []
            part_values = payload.get("values") or [None] * len(positions)
            if len(part_hits) != len(positions):
                self.metrics.errors += 1
                return encode_payload(
                    error_payload(
                        f"worker {link.node} answered {len(part_hits)} hits "
                        f"for {len(positions)} keys",
                        code=CODE_UPSTREAM,
                    ),
                    binary,
                )
            for position, hit, value in zip(positions, part_hits, part_values):
                hits[position] = hit
                values[position] = value
        payload = {"ok": True, "hits": hits}
        if op == "MGET":
            payload["values"] = values
        return encode_payload(payload, binary)

    # -- admin calls (retried; ride each channel's admin link) ---------------
    async def _admin_call(
        self, channel: WorkerChannel, payload: dict[str, Any], *, retryable: bool = True
    ) -> dict[str, Any]:
        upstream = encode_frame(payload)
        attempts = 1 + (self.upstream_retries if retryable else 0)
        last: ServiceError | None = None
        for attempt in range(attempts):
            if attempt:
                self.metrics.upstream_retries += 1
            try:
                return decode_response(await channel.admin.call(upstream))
            except ServiceTimeout as exc:
                self.metrics.upstream_timeouts += 1
                last = exc
            except ServiceError as exc:
                self.metrics.upstream_errors += 1
                last = exc
        assert last is not None
        raise last

    async def _checked_admin_call(
        self, channel: WorkerChannel, payload: dict[str, Any], *, retryable: bool = True
    ) -> dict[str, Any]:
        response = await self._admin_call(channel, payload, retryable=retryable)
        if not response.get("ok"):
            raise ServiceError(
                f"worker {channel.node} rejected {payload.get('op')}: "
                f"{response.get('error')}"
            )
        return response

    # -- aggregation ---------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        """Merged cluster snapshot, shaped like ``ShardedPolicyStore.stats``.

        Worker op/hit/miss counters are summed; a ``per_worker`` section
        carries each worker's gauges; router-side counters (latency as
        observed at the front door, upstream retry/timeout accounting,
        migration state) ride in the top level and the ``router`` section.
        An unreachable worker degrades the snapshot (its entry carries an
        ``error`` field and ``degraded`` is set) instead of failing it.
        """
        totals = dict.fromkeys(("gets", "puts", "dels", "hits", "misses"), 0)
        per_worker: list[dict[str, Any]] = []
        resident = capacity = evictions = worker_errors = 0
        policy: str | None = None
        occupancies: list[float] = []
        degraded = False
        for node in list(self._worker_order):
            channel = self._channels.get(node)
            if channel is None:
                continue
            try:
                snap = (await self._checked_admin_call(channel, {"op": "STATS"}))["stats"]
            except ServiceError as exc:
                degraded = True
                per_worker.append({"node": node, "error": str(exc)})
                continue
            for field in totals:
                totals[field] += snap[field]
            worker_errors += snap["errors"]
            resident += snap["resident"]
            capacity += snap["capacity"]
            evictions += snap["evictions"]
            policy = snap["policy"]
            entry = {
                "node": node,
                "capacity": snap["capacity"],
                "resident": snap["resident"],
                "hits": snap["hits"],
                "misses": snap["misses"],
                "evictions": snap["evictions"],
                "connections_open": snap["connections_open"],
            }
            if "sink_occupancy" in snap:
                entry["sink_occupancy"] = snap["sink_occupancy"]
                occupancies.append(snap["sink_occupancy"])
            per_worker.append(entry)
        m = self.metrics
        accesses = totals["hits"] + totals["misses"]
        merged: dict[str, Any] = {
            **totals,
            "accesses": accesses,
            "hit_rate": totals["hits"] / accesses if accesses else 0.0,
            **m.snapshot(),
            "errors": m.errors + worker_errors,
            "policy": policy,
            "capacity": capacity,
            "resident": resident,
            "evictions": evictions,
            "workers": len(self._worker_order),
            "per_worker": per_worker,
            "router": {
                "requests": m.requests,
                "forwarded": m.forwarded,
                "fanouts": m.fanouts,
                "local": m.local,
                "migration_ops": m.migration_ops,
                "upstream_retries": m.upstream_retries,
                "upstream_timeouts": m.upstream_timeouts,
                "upstream_errors": m.upstream_errors,
                "upstream_connects": sum(c.connects for c in self._channels.values()),
                "migrated_keys": m.migrated_keys,
                "reshards": m.reshards,
                "migrating": self._migration is not None,
            },
        }
        if occupancies and len(occupancies) == len(per_worker):
            merged["sink_occupancy"] = sum(occupancies) / len(occupancies)
        if degraded:
            merged["degraded"] = True
        return merged

    async def metrics_registry(self) -> MetricsRegistry:
        """Prometheus exposition of the merged snapshot + router counters."""
        snap = await self.stats()
        reg = MetricsRegistry()
        add_connection_families(reg, self.metrics, errors=snap["errors"])
        for op in ("get", "put", "del"):
            reg.counter(
                "repro_ops_total", "operations served, by op", labels={"op": op}
            ).inc(snap[f"{op}s"])
        reg.counter("repro_hits_total", "policy-access hits").inc(snap["hits"])
        reg.counter("repro_misses_total", "policy-access misses").inc(snap["misses"])
        reg.gauge("repro_hit_ratio", "hits / accesses since start").set(snap["hit_rate"])
        reg.gauge("repro_resident_pages", "resident pages, cluster-wide").set(
            float(snap["resident"])
        )
        reg.gauge("repro_capacity_slots", "capacity slots, cluster-wide").set(
            float(snap["capacity"])
        )
        reg.gauge("repro_cluster_workers", "workers on the ring").set(
            float(snap["workers"])
        )
        reg.gauge("repro_cluster_migrating", "1 while a reshard window is open").set(
            1.0 if snap["router"]["migrating"] else 0.0
        )
        for name in (
            "forwarded",
            "fanouts",
            "local",
            "upstream_retries",
            "upstream_timeouts",
            "upstream_errors",
            "migrated_keys",
            "reshards",
        ):
            reg.counter(f"repro_router_{name}_total", f"router {name.replace('_', ' ')}").inc(
                snap["router"][name]
            )
        for entry in snap["per_worker"]:
            labels = {"node": entry["node"]}
            if "error" in entry:
                reg.gauge(
                    "repro_worker_up", "1 when the worker answered STATS", labels=labels
                ).set(0)
                continue
            reg.gauge(
                "repro_worker_up", "1 when the worker answered STATS", labels=labels
            ).set(1)
            reg.gauge(
                "repro_worker_resident_pages", "resident pages, by worker", labels=labels
            ).set(float(entry["resident"]))
            reg.gauge(
                "repro_worker_capacity_slots", "capacity slots, by worker", labels=labels
            ).set(float(entry["capacity"]))
        return reg

    async def metrics_text(self) -> str:
        return (await self.metrics_registry()).render()

    async def _finish_stats(self, binary: bool) -> bytes:
        try:
            payload: dict[str, Any] = {"ok": True, "stats": await self.stats()}
            self.metrics.fanouts += 1
        except ServiceError as exc:
            self.metrics.errors += 1
            payload = error_payload(str(exc), code=CODE_UPSTREAM)
        return encode_payload(payload, binary)

    async def _finish_metrics(self, binary: bool) -> bytes:
        try:
            payload: dict[str, Any] = {"ok": True, "text": await self.metrics_text()}
            self.metrics.fanouts += 1
        except ServiceError as exc:
            self.metrics.errors += 1
            payload = error_payload(str(exc), code=CODE_UPSTREAM)
        return encode_payload(payload, binary)

    async def _finish_keys(self, binary: bool) -> bytes:
        merged: list[int] = []
        try:
            for node in list(self._worker_order):
                response = await self._checked_admin_call(
                    self._channels[node], {"op": "KEYS"}
                )
                merged.extend(response.get("keys", []))
            self.metrics.fanouts += 1
            # dedup: a migrated key stays *resident* on its old owner with
            # the payload dropped (DEL never evicts), so two workers may
            # both report it
            payload: dict[str, Any] = {"ok": True, "keys": sorted(set(merged))}
        except ServiceError as exc:
            self.metrics.errors += 1
            payload = error_payload(str(exc), code=CODE_UPSTREAM)
        return encode_payload(payload, binary)

    # -- resharding ----------------------------------------------------------
    async def _finish_reshard(self, request: Request, binary: bool) -> bytes:
        async with self._admin_lock:
            try:
                if request.node is None:
                    payload = {"ok": True, **self.reshard_status()}
                elif request.remove:
                    payload = await self._begin_reshard_remove(request.node)
                else:
                    assert request.host is not None and request.port is not None
                    payload = await self._begin_reshard_add(
                        request.node, request.host, request.port
                    )
            except ServiceError as exc:
                self.metrics.errors += 1
                payload = error_payload(str(exc), code=CODE_REJECTED)
        return encode_payload(payload, binary)

    def reshard_status(self) -> dict[str, Any]:
        """Migration state (also the bare-``RESHARD`` response body)."""
        status: dict[str, Any] = {
            "migrating": self._migration is not None,
            "workers": list(self._worker_order),
            "migrated_keys": self.metrics.migrated_keys,
            "reshards": self.metrics.reshards,
        }
        if self._migration is not None:
            status["node"] = self._migration.node
            status["removing"] = self._migration.removing
        if self.last_reshard is not None:
            status["last_reshard"] = self.last_reshard
        return status

    async def reshard_add(self, node: str, host: str, port: int) -> dict[str, Any]:
        """Programmatic RESHARD-add (the wire op calls this under the lock)."""
        async with self._admin_lock:
            return await self._begin_reshard_add(node, host, port)

    async def reshard_remove(self, node: str) -> dict[str, Any]:
        """Programmatic RESHARD-remove."""
        async with self._admin_lock:
            return await self._begin_reshard_remove(node)

    async def wait_reshard(self, timeout: float | None = None) -> None:
        """Block until the open migration window (if any) closes."""
        migration = self._migration
        if migration is None:
            return
        if timeout is None:
            await migration.done.wait()
        else:
            await asyncio.wait_for(migration.done.wait(), timeout)

    async def _begin_reshard_add(self, node: str, host: str, port: int) -> dict[str, Any]:
        if self._migration is not None:
            raise ServiceError(
                f"a reshard is already migrating ({self._migration.node}); retry later"
            )
        if node in self.ring:
            raise ServiceError(f"node {node!r} is already on the ring")
        channel = self._make_channel(node, host, port)
        try:
            await self._checked_admin_call(channel, {"op": "PING"})
        except ServiceError:
            await channel.close()
            raise ServiceError(f"new worker {node!r} at {host}:{port} is not answering")
        old_ring = self.ring.copy()
        self.ring.add_node(node)
        self._channels[node] = channel
        self._worker_order.append(node)
        self._route_cache.clear()
        self._start_migration(old_ring, node, removing=False)
        return {"ok": True, "node": node, "migrating": True, "workers": self.workers}

    async def _begin_reshard_remove(self, node: str) -> dict[str, Any]:
        if self._migration is not None:
            raise ServiceError(
                f"a reshard is already migrating ({self._migration.node}); retry later"
            )
        if node not in self.ring:
            raise ServiceError(f"node {node!r} is not on the ring")
        if len(self.ring) == 1:
            raise ServiceError("cannot remove the last worker")
        old_ring = self.ring.copy()
        self.ring.remove_node(node)
        self._route_cache.clear()
        self._start_migration(old_ring, node, removing=True)
        return {"ok": True, "node": node, "migrating": True, "workers": self.workers}

    def _start_migration(self, old_ring: HashRing, node: str, *, removing: bool) -> None:
        migration = _Migration(old_ring, node, removing)
        self._migration = migration
        self.metrics.reshards += 1
        migration.task = asyncio.create_task(self._run_migration(migration))

    async def _run_migration(self, migration: _Migration) -> None:
        """Background sweep: move every resident key whose owner changed."""
        try:
            if migration.removing:
                sources = [migration.node]
            else:
                sources = [n for n in self._worker_order if n != migration.node]
            for source in sources:
                channel = self._channels[source]
                response = await self._checked_admin_call(channel, {"op": "KEYS"})
                for key in response.get("keys", []):
                    if self.ring.owner(key) == source:
                        continue
                    async with self._key_lock(key):
                        await self._migrate_key(int(key), source, migration)
        except asyncio.CancelledError:
            migration.error = "migration cancelled by shutdown"
            raise
        except ServiceError as exc:
            # the window closes anyway: unmoved keys simply surface as
            # cluster-level misses, which cache semantics tolerate
            migration.error = str(exc)
        finally:
            await self._end_migration(migration)

    async def _migrate_key(self, key: int, source: str, migration: _Migration) -> None:
        source_channel = self._channels.get(source)
        if source_channel is None:
            return
        peek = await self._checked_admin_call(source_channel, {"op": "PEEK", "key": key})
        if not peek.get("stored"):
            # Nothing to move: either the key never had a payload (DEL drops
            # payloads while residency persists) or the double-read window
            # already migrated it — in which case the old owner is resident
            # but payload-less, and re-migrating would clobber the real
            # value on the new owner with None.
            return
        target = self._channels[self.ring.owner(key)]
        await self._checked_admin_call(
            target, {"op": "PUT", "key": key, "value": peek.get("value")}, retryable=False
        )
        await self._checked_admin_call(source_channel, {"op": "DEL", "key": key})
        migration.moved_keys.append(key)
        self.metrics.migrated_keys += 1

    async def _end_migration(self, migration: _Migration) -> None:
        self.last_reshard = {
            "node": migration.node,
            "removing": migration.removing,
            "moved": len(migration.moved_keys),
            "error": migration.error,
        }
        if migration.removing:
            self._worker_order.remove(migration.node)
            channel = self._channels.pop(migration.node, None)
            if channel is not None:
                await channel.close()
        self._migration = None
        self._route_cache.clear()
        migration.done.set()

    # -- migration-window data path ------------------------------------------
    async def _finish_migrating_single(self, request: Request, binary: bool) -> bytes:
        assert request.key is not None
        try:
            payload = await self._migrating_single(request)
        except ServiceError as exc:
            self.metrics.errors += 1
            payload = error_payload(str(exc), code=CODE_UPSTREAM)
        return encode_payload(payload, binary)

    async def _migrating_single(self, request: Request) -> dict[str, Any]:
        """One single-key op under the double-read window (module docs §2)."""
        key = request.key
        assert key is not None
        migration = self._migration
        if migration is None:
            # the window closed while this frame sat in the queue
            channel = self._channels[self.ring.owner(key)]
            return await self._admin_call(
                channel,
                _request_body(request),
                retryable=request.op in IDEMPOTENT_OPS,
            )
        async with self._key_lock(key):
            new_owner = self.ring.owner(key)
            old_owner = migration.old_ring.owner(key)
            new_channel = self._channels[new_owner]
            old_channel = self._channels.get(old_owner)
            if old_owner == new_owner or old_channel is None:
                return await self._admin_call(
                    new_channel,
                    _request_body(request),
                    retryable=request.op in IDEMPOTENT_OPS,
                )
            op = request.op
            if op == "GET":
                response = await self._admin_call(new_channel, {"op": "GET", "key": key})
                if not response.get("ok") or response.get("hit"):
                    return response
                peek = await self._admin_call(old_channel, {"op": "PEEK", "key": key})
                if not (peek.get("ok") and peek.get("hit")):
                    return response  # a true cluster-wide miss
                value = peek.get("value")
                await self._checked_admin_call(
                    new_channel, {"op": "PUT", "key": key, "value": value}, retryable=False
                )
                await self._checked_admin_call(old_channel, {"op": "DEL", "key": key})
                self.metrics.migrated_keys += 1
                return {"ok": True, "hit": True, "value": value}
            if op == "PUT":
                response = await self._admin_call(
                    new_channel,
                    {"op": "PUT", "key": key, "value": request.value},
                    retryable=False,
                )
                if response.get("ok"):
                    # the old copy is now stale; drop it before acking so a
                    # later fallback read can never resurrect the old value
                    await self._checked_admin_call(old_channel, {"op": "DEL", "key": key})
                return response
            if op == "DEL":
                response = await self._admin_call(new_channel, {"op": "DEL", "key": key})
                old = await self._admin_call(old_channel, {"op": "DEL", "key": key})
                if response.get("ok") and old.get("ok"):
                    return {
                        "ok": True,
                        "deleted": bool(response.get("deleted") or old.get("deleted")),
                    }
                return response if not response.get("ok") else old
            assert op == "PEEK"
            response = await self._admin_call(new_channel, {"op": "PEEK", "key": key})
            if not response.get("ok") or response.get("hit"):
                return response
            return await self._admin_call(old_channel, {"op": "PEEK", "key": key})

    async def _finish_migrating_batch(self, request: Request, binary: bool) -> bytes:
        """MGET/MPUT during the window: per-key double-read path, in order."""
        assert request.keys is not None
        hits: list[Any] = []
        values: list[Any] = []
        try:
            for position, key in enumerate(request.keys):
                if request.op == "MGET":
                    sub = Request("GET", key=key)
                else:
                    assert request.values is not None
                    sub = Request("PUT", key=key, value=request.values[position])
                response = await self._migrating_single(sub)
                if not response.get("ok"):
                    raise ServiceError(
                        f"key {key}: {response.get('error', 'worker error')}"
                    )
                hits.append(bool(response.get("hit")))
                values.append(response.get("value"))
            payload: dict[str, Any] = {"ok": True, "hits": hits}
            if request.op == "MGET":
                payload["values"] = values
        except ServiceError as exc:
            self.metrics.errors += 1
            payload = error_payload(str(exc), code=CODE_UPSTREAM)
        return encode_payload(payload, binary)


def _request_body(request: Request) -> dict[str, Any]:
    """The upstream JSON body of a single-key request."""
    body: dict[str, Any] = {"op": request.op, "key": request.key}
    if request.op == "PUT":
        body["value"] = request.value
    return body


@contextlib.asynccontextmanager
async def running_router(
    workers: Sequence[tuple[str, str, int]],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> AsyncIterator[RouterServer]:
    """``async with running_router(workers) as router:`` start/stop bracket."""
    router = RouterServer(workers, host=host, port=port, **kwargs)
    await router.start()
    try:
        yield router
    finally:
        await router.stop()
