"""Cluster lifecycle: spawn the worker tier, front it with a router.

:class:`ClusterSupervisor` is the piece the CLI ``cluster`` command and
the benchmarks drive: it spawns ``N`` worker processes (concurrently,
via threads — ``spawn`` blocks), waits for each to report its port,
builds a :class:`~repro.cluster.router.RouterServer` over them, and
tears everything down in reverse on :meth:`stop` (router drains client
connections, then workers get SIGTERM and drain theirs).

:meth:`add_worker` and :meth:`remove_worker` are the live-resharding
entry points: they spawn/terminate the process *and* drive the router's
``RESHARD`` protocol, so callers get the whole
"new worker joins, keys migrate, window closes" arc in one await.
"""

from __future__ import annotations

import asyncio
import contextlib
from pathlib import Path
from typing import Any, AsyncIterator

from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.router import RouterServer
from repro.cluster.worker import (
    WORKER_MAX_INFLIGHT,
    WorkerHandle,
    WorkerSpec,
    build_specs,
    spawn_worker,
)
from repro.errors import ConfigurationError, ServiceError
from repro.obs import tracing
from repro.rng import derive_seed
from repro.service.protocol import FRAMES
from repro.service.frontend import DEFAULT_MAX_INFLIGHT, DEFAULT_WRITE_TIMEOUT

__all__ = ["ClusterSupervisor", "running_cluster"]


class ClusterSupervisor:
    """Own a worker tier and its router; see module docs.

    Parameters mirror the single-process server where they overlap:
    ``policy``/``capacity``/``seed`` shape the store (split and derived
    per worker exactly as ``ShardedPolicyStore.build`` would), the rest
    are the router's client-facing knobs.
    """

    def __init__(
        self,
        policy: str,
        capacity: int,
        *,
        workers: int = 4,
        seed: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        vnodes: int = DEFAULT_VNODES,
        frames: tuple[str, ...] = FRAMES,
        max_connections: int | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        write_timeout: float | None = DEFAULT_WRITE_TIMEOUT,
        worker_max_inflight: int = WORKER_MAX_INFLIGHT,
        pool: int = 2,
        upstream_retries: int = 1,
        upstream_timeout: float | None = None,
        trace_dir: str | None = None,
        trace_sample: float = 1.0,
        batch_kernel: bool = True,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.policy = policy
        self.capacity = capacity
        self.seed = seed
        self.host = host
        self._port = port
        self.vnodes = vnodes
        self.frames = tuple(frames)
        self.max_connections = max_connections
        self.max_inflight = max_inflight
        self.write_timeout = write_timeout
        self.worker_max_inflight = worker_max_inflight
        self.pool = pool
        self.upstream_retries = upstream_retries
        self.upstream_timeout = upstream_timeout
        self.trace_dir = trace_dir
        self.trace_sample = trace_sample
        self.batch_kernel = batch_kernel
        self.specs = build_specs(
            policy,
            capacity,
            workers,
            seed=seed,
            max_inflight=worker_max_inflight,
            trace_dir=trace_dir,
            trace_sample=trace_sample,
            batch_kernel=batch_kernel,
        )
        self._next_index = workers  # reshard-added workers continue the series
        self.handles: dict[str, WorkerHandle] = {}
        self.router: RouterServer | None = None
        self._trace_sink: Any = None

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        return self.router.port if self.router is not None else self._port

    @property
    def workers(self) -> list[str]:
        return self.router.workers if self.router is not None else [s.node for s in self.specs]

    async def start(self) -> None:
        if self.router is not None:
            raise ServiceError("cluster is already running")
        if self.trace_dir is not None and self._trace_sink is None:
            # one tracing config per process: the supervisor's process hosts
            # the router (and often the driving client), so its spans —
            # client roots included — land in spans-router.ndjson
            Path(self.trace_dir).mkdir(parents=True, exist_ok=True)
            self._trace_sink = tracing.configure(
                path=str(Path(self.trace_dir) / "spans-router.ndjson"),
                service="router",
                seed=self.seed,
                sample=self.trace_sample,
            )
        results = await asyncio.gather(
            *(asyncio.to_thread(spawn_worker, spec) for spec in self.specs),
            return_exceptions=True,
        )
        handles = [h for h in results if isinstance(h, WorkerHandle)]
        failures = [r for r in results if not isinstance(r, WorkerHandle)]
        if failures:
            await asyncio.gather(
                *(asyncio.to_thread(handle.terminate) for handle in handles)
            )
            raise ServiceError(f"worker tier failed to start: {failures[0]}")
        self.handles = {handle.node: handle for handle in handles}
        router = RouterServer(
            [(handle.node, handle.host, handle.port) for handle in handles],
            host=self.host,
            port=self._port,
            vnodes=self.vnodes,
            pool=self.pool,
            upstream_retries=self.upstream_retries,
            max_connections=self.max_connections,
            max_inflight=self.max_inflight,
            write_timeout=self.write_timeout,
            frames=self.frames,
            **(
                {"upstream_timeout": self.upstream_timeout}
                if self.upstream_timeout is not None
                else {}
            ),
        )
        try:
            await router.start()
        except ServiceError:
            await asyncio.gather(
                *(asyncio.to_thread(handle.terminate) for handle in handles)
            )
            self.handles = {}
            raise
        self.router = router

    async def serve_forever(self) -> None:
        if self.router is None:
            raise ServiceError("call start() before serve_forever()")
        await self.router.serve_forever()

    async def stop(self, *, drain: float | None = None) -> None:
        """Router first (client-visible drain), then SIGTERM the workers."""
        router, self.router = self.router, None
        if router is not None:
            await router.stop(drain=drain)
        handles, self.handles = list(self.handles.values()), {}
        if handles:
            await asyncio.gather(
                *(asyncio.to_thread(handle.terminate) for handle in handles)
            )
        sink, self._trace_sink = self._trace_sink, None
        if sink is not None:
            tracing.uninstall(sink)
            with contextlib.suppress(Exception):
                sink.close()

    # -- live resharding -----------------------------------------------------
    async def add_worker(self, *, capacity: int | None = None) -> WorkerHandle:
        """Spawn one more worker and reshard it into the live ring.

        The new worker's capacity defaults to the first worker's share
        (the largest split slice), and its seed continues the
        ``derive_seed(seed, "shard", index)`` series, so a cluster grown
        from ``N`` to ``N+1`` matches a fresh ``N+1`` tier's seeds on
        every index (capacities may differ by the split remainder).
        Returns once migration *starts*; ``router.wait_reshard()`` waits
        for the window to close.
        """
        if self.router is None:
            raise ServiceError("cluster is not running")
        index = self._next_index
        spec = WorkerSpec(
            index=index,
            node=f"w{index}",
            policy=self.policy,
            capacity=capacity if capacity is not None else self.specs[0].capacity,
            seed=derive_seed(self.seed, "shard", index),
            host=self.host if self.host != "0.0.0.0" else "127.0.0.1",
            max_inflight=self.worker_max_inflight,
            trace_path=(
                str(Path(self.trace_dir) / f"spans-w{index}.ndjson")
                if self.trace_dir is not None
                else None
            ),
            trace_sample=self.trace_sample,
            batch_kernel=self.batch_kernel,
        )
        handle = await asyncio.to_thread(spawn_worker, spec)
        try:
            await self.router.reshard_add(handle.node, handle.host, handle.port)
        except ServiceError:
            await asyncio.to_thread(handle.terminate)
            raise
        self._next_index += 1
        self.handles[handle.node] = handle
        return handle

    async def remove_worker(self, node: str, *, timeout: float | None = 60.0) -> None:
        """Reshard a worker's keys away, wait for the sweep, stop it."""
        if self.router is None:
            raise ServiceError("cluster is not running")
        handle = self.handles.get(node)
        if handle is None:
            raise ServiceError(f"no worker named {node!r}")
        await self.router.reshard_remove(node)
        await self.router.wait_reshard(timeout)
        del self.handles[node]
        await asyncio.to_thread(handle.terminate)

    # -- introspection -------------------------------------------------------
    async def stats(self) -> dict[str, Any]:
        if self.router is None:
            raise ServiceError("cluster is not running")
        return await self.router.stats()


@contextlib.asynccontextmanager
async def running_cluster(
    policy: str, capacity: int, **kwargs: Any
) -> AsyncIterator[ClusterSupervisor]:
    """``async with running_cluster("lru", 4096, workers=4) as cluster:``."""
    supervisor = ClusterSupervisor(policy, capacity, **kwargs)
    await supervisor.start()
    try:
        yield supervisor
    finally:
        await supervisor.stop()
