"""The benchmark's three workloads, each a closed loop on one event loop.

- ``sim-phase``: :func:`repro.sim.engine.run_policy` over an in-memory
  trace of alternating hot and turnover phases. No serving code runs.
- ``serve-point``: two connections doing single-key look-aside (GET, and
  PUT on a miss) through a :class:`RouterServer` in front of two
  :class:`CacheServer` workers.
- ``serve-batch``: two connections doing 128-key look-aside MGET, then
  MPUT of the misses, straight to one :class:`CacheServer`.

Every tier lives on the benchmark's own event loop: spawned worker
processes made the throughput spread too wide to gate on (see README).
The program only ever sees the generated keys or traces; the seed stays
here.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cluster.router import RouterServer
from repro.cluster.worker import build_specs, build_worker_store
from repro.core.assoc.heatsink import HeatSinkLRU
from repro.core.registry import make_policy
from repro.errors import ServiceError
from repro.obs import tracing
from repro.rng import derive_seed
from repro.service.client import ServiceClient
from repro.service.server import CacheServer
from repro.service.store import PolicyStore
from repro.sim.engine import run_policy
from repro.traces.synthetic import zipf_trace

from measure import SelfTimeSink, median, percentile


@dataclass(frozen=True)
class Scale:
    """Input sizes. ``FULL`` is the benchmark; ``TINY`` is for the smoke test."""

    sim_nominal: int  # HeatSinkLRU nominal size n (capacity is (1+eps)n)
    sim_turn_len: int  # accesses per turnover phase; hot phases are twice this
    sim_cycles: int  # (hot, turnover) pairs
    capacity: int  # serving cache capacity
    keys: int  # key universe of the serve workloads
    batch: int  # keys per MGET
    warm_keys: int  # keys PUT during the warm-up pass
    stream: int  # generated keys per connection (cycled if a run uses more)
    setup_reps: int  # set-ups per run; setup_s reports their median
    hop_keys: int  # GETs per side when measuring the router hop


FULL = Scale(
    sim_nominal=1024,
    sim_turn_len=16384,
    sim_cycles=4,
    capacity=16384,
    keys=4 * 16384,
    batch=128,
    warm_keys=4 * 16384,
    stream=1 << 18,
    setup_reps=3,
    hop_keys=2000,
)
TINY = Scale(
    sim_nominal=256,
    sim_turn_len=2048,
    sim_cycles=2,
    capacity=1024,
    keys=4096,
    batch=128,
    warm_keys=4096,
    stream=1 << 13,
    setup_reps=2,
    hop_keys=200,
)

#: keys per warm-up MPUT (the protocol's batch limit): few, large kernel calls
WARM_CHUNK = 4096

SIM_EPSILON = 0.25
CONNECTIONS = 2
SERVE_ALPHA = 0.9


def value_of(key: int, salt: int) -> str:
    """The payload a key must always carry: derived from the key alone."""
    return f"v{(key * 2654435761 + salt) & 0xFFFFFFFF:08x}"


@dataclass
class Timed:
    """What one timed phase produced.

    Latencies live in a flat ``array`` (8 bytes each) so a faster program,
    which completes more operations, barely grows ``peak_rss_mb``.
    """

    latencies: array = field(default_factory=lambda: array("d"))  # per operation, s
    keys: int = 0  # keys (or accesses) the operations carried
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    hits: int = 0
    accesses: int = 0
    kernel_batches: int = 0
    start: float = 0.0
    end: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def record(self, t0: float, t1: float, keys: int, requests: int = 1) -> None:
        """One closed-loop operation of ``requests`` requests carrying ``keys`` keys."""
        self.attempted += requests
        self.latencies.append(t1 - t0)
        self.keys += keys

    def ops_per_s(self) -> float:
        return self.keys / (self.end - self.start)


# -- sim-phase -----------------------------------------------------------------

def _timed_method(method: Any, sink: list[float]) -> Any:
    """``method`` wrapped to append each call's duration to ``sink``."""

    def timed(*args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    return timed


def compare_hits(kernel: Any, reference: Any) -> str | None:
    """``None`` when the kernel's hit flags equal the reference loop's."""
    kernel, reference = np.asarray(kernel, dtype=bool), np.asarray(reference, dtype=bool)
    if kernel.shape != reference.shape:
        return f"kernel gave {kernel.size} hit flags, the reference loop {reference.size}"
    differ = np.flatnonzero(kernel != reference)
    if differ.size:
        return f"kernel hits differ from the reference loop at access {int(differ[0])}"
    return None


class SimPhase:
    """``run_policy(HeatSinkLRU.from_epsilon(n, 0.25, seed), trace)`` in memory.

    Hot phases: Zipf(1.0) over n/2 pages, twice as long as a turnover
    phase. Turnover phases: Zipf(0.6) over 16n pages. Every phase has its
    own page range, so each hot phase faults in a fresh working set.
    """

    name = "sim-phase"

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed
        self.trace: np.ndarray | None = None
        self.hot: np.ndarray | None = None
        self.phases: list[tuple[str, int, int]] = []
        self.build_s: list[float] = []
        self.misses: list[int] = []

    def build_trace(self) -> None:
        s = self.scale
        n = s.sim_nominal
        t0 = time.perf_counter()
        parts, phases = [], []
        base = pos = 0
        for cycle in range(s.sim_cycles):
            for kind, pages, length, alpha in (
                ("hot", n // 2, 2 * s.sim_turn_len, 1.0),
                ("turnover", 16 * n, s.sim_turn_len, 0.6),
            ):
                seed = derive_seed(self.seed, self.name, cycle, kind)
                parts.append(zipf_trace(pages, length, alpha=alpha, seed=seed).pages + base)
                phases.append((kind, pos, pos + length))
                base += pages
                pos += length
        self.trace = np.concatenate(parts)
        self.phases = phases
        hot = np.zeros(self.trace.size, dtype=bool)
        for kind, lo, hi in phases:
            if kind == "hot":
                hot[lo:hi] = True
        self.hot = hot
        self.build_s.append(time.perf_counter() - t0)

    def new_policy(self) -> HeatSinkLRU:
        return HeatSinkLRU.from_epsilon(self.scale.sim_nominal, SIM_EPSILON, seed=self.seed)

    async def setup(self) -> None:
        self.build_trace()
        # warm-up pass: first-call costs (lazy imports, allocator growth)
        self.misses.append(run_policy(self.new_policy(), self.trace)["misses"])

    async def teardown(self) -> None:
        pass

    async def timed(self, seconds: float, *, traced: bool = False) -> Timed:
        out = Timed()
        trace = self.trace
        run_s: list[float] = []
        self.engine_overhead_s = []
        clock = time.perf_counter
        out.start = clock()
        deadline = out.start + seconds
        while True:
            t0 = clock()
            # a fresh policy per run: reset() keeps the coin stream going,
            # so only a new instance replays the seed's exact run
            policy = self.new_policy()
            if traced:
                policy.run = _timed_method(policy.run, run_s)
            t_call = clock()
            row = run_policy(policy, trace)
            t1 = clock()
            out.record(t0, t1, int(row["accesses"]))
            out.accesses += int(row["accesses"])
            out.hits += int(row["accesses"] - row["misses"])
            self.misses.append(int(row["misses"]))
            if row["misses"] != self.misses[0]:
                out.fail(f"run {out.attempted}: {row['misses']} misses, first run had {self.misses[0]}")
            if traced:
                # run_policy time minus policy.run time: the engine's own work
                self.engine_overhead_s.append(t1 - t_call - run_s[-1])
            if t1 >= deadline:
                break
        out.end = clock()
        return out

    def ops_per_s(self, out: Timed) -> float:
        # one sample per run_policy call, each ~0.05-0.1 s of work
        return median(self.trace.size / lat for lat in out.latencies)

    async def check(self) -> list[str]:
        """Kernel ≡ reference loop on a prefix spanning the first phase changes.

        The prefix runs through the second hot phase: long enough for the
        adaptive driver to probe, scan the first hot phase and bail out in
        the turnover after it.
        """
        problems = []
        prefix = self.trace[: self.phases[2][2]]
        problem = compare_hits(
            self.new_policy().run(prefix, fast=True).hits,
            self.new_policy().run(prefix, fast=False).hits,
        )
        if problem:
            problems.append(problem)
        if len(set(self.misses)) != 1:
            problems.append(f"miss count varies across runs of one seed: {sorted(set(self.misses))}")
        return problems


# -- serving -------------------------------------------------------------------

class _Serve:
    """Shared set-up, look-aside loops and checks of the serve workloads."""

    name = ""

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed
        self.salt = derive_seed(seed, "values") & 0xFFFFFFFF
        self.build_s: list[float] = []
        self.clients: list[ServiceClient] = []
        self.servers: list[CacheServer] = []
        self.router: RouterServer | None = None
        self.cursor = [0] * CONNECTIONS
        self.log: list[tuple[Any, dict[str, Any]]] = []  # (request, response) of a traced phase
        self.log_limit = 0

    def build_keys(self) -> None:
        s = self.scale
        t0 = time.perf_counter()
        # one draw, so every connection shares one rank -> key mapping
        total = s.warm_keys + CONNECTIONS * s.stream
        keys = zipf_trace(
            s.keys, total, alpha=SERVE_ALPHA, seed=derive_seed(self.seed, self.name, "keys")
        ).pages.tolist()
        self.warm = keys[: s.warm_keys]
        self.streams = [
            keys[s.warm_keys + c * s.stream : s.warm_keys + (c + 1) * s.stream]
            for c in range(CONNECTIONS)
        ]
        salt = self.salt
        self.values = [value_of(k, salt) for k in range(s.keys)]
        self.build_s.append(time.perf_counter() - t0)

    async def setup(self) -> None:
        self.build_keys()
        await self.start_tier()
        self.clients = [
            await ServiceClient.connect("127.0.0.1", self.port) for _ in range(CONNECTIONS)
        ]
        # warm-up pass: PUT the warm-up keys in batches until the cache is full
        values = self.values
        for lo in range(0, len(self.warm), WARM_CHUNK):
            chunk = self.warm[lo : lo + WARM_CHUNK]
            response = await self.clients[0].mput(chunk, [values[k] for k in chunk])
            if not response.get("ok"):
                raise ServiceError(f"warm-up MPUT failed: {response}")

    async def teardown(self) -> None:
        for client in self.clients:
            await client.close()
        self.clients = []
        if self.router is not None:
            await self.router.stop()
            self.router = None
        for server in self.servers:
            await server.stop()
        self.servers = []

    async def stats(self) -> dict[str, Any]:
        return await self.clients[0].stats()

    async def check(self) -> list[str]:
        return []  # serve checks run on every response, inside the timed loops

    async def timed(self, seconds: float, *, traced: bool = False) -> Timed:
        """One timed phase; ``traced`` records spans and logs the traffic."""
        if not traced:
            return await self._timed(seconds)
        self.sink = SelfTimeSink()
        self.log = []
        self.log_limit = self.LOG_LIMIT
        tracing.configure(self.sink, service="perfbench", seed=self.seed, sample=1.0)
        try:
            return await self._timed(seconds)
        finally:
            tracing.shutdown()
            self.log_limit = 0

    async def _timed(self, seconds: float) -> Timed:
        out = Timed()
        before = await self.stats()
        loop = self._point_loop if self.name == "serve-point" else self._batch_loop
        out.start = time.perf_counter()
        deadline = out.start + seconds
        await asyncio.gather(
            *(loop(c, self.clients[c], deadline, out) for c in range(CONNECTIONS))
        )
        out.end = time.perf_counter()
        after = await self.stats()
        accesses = after["accesses"] - before["accesses"]
        if accesses != out.keys:
            out.fail(f"server counted {accesses} accesses for {out.keys} keys sent")
        out.accesses = accesses
        out.hits = after["hits"] - before["hits"]
        out.kernel_batches = after.get("kernel_batches", 0) - before.get("kernel_batches", 0)
        return out

    def ops_per_s(self, out: Timed) -> float:
        return out.ops_per_s()

    def _log(self, request: Any, response: dict[str, Any]) -> None:
        if len(self.log) < self.log_limit:
            self.log.append((request, response))

    async def _point_loop(self, c: int, client: ServiceClient, deadline: float, out: Timed) -> None:
        keys = self.streams[c]
        values = self.values
        n = len(keys)
        i = self.cursor[c]
        clock = time.perf_counter
        try:
            while True:
                key = keys[i % n]
                i += 1
                t0 = clock()
                response = await client.get(key)
                t1 = clock()
                out.record(t0, t1, 1)
                self._log(("GET", key), response)
                if not response.get("ok"):
                    out.fail(f"GET {key}: {response}")
                elif response["hit"]:
                    value = response.get("value")
                    if value is not None and value != values[key]:
                        out.fail(f"GET {key} returned {value!r}, expected {values[key]!r}")
                else:
                    t0 = clock()
                    response = await client.put(key, values[key])
                    t1 = clock()
                    out.record(t0, t1, 1)
                    self._log(("PUT", key, values[key]), response)
                    if not response.get("ok"):
                        out.fail(f"PUT {key}: {response}")
                if t1 >= deadline:
                    break
        except ServiceError as exc:
            out.attempted += 1
            out.fail(f"connection {c}: {exc}")
        self.cursor[c] = i

    async def _batch_loop(self, c: int, client: ServiceClient, deadline: float, out: Timed) -> None:
        keys = self.streams[c]
        values = self.values
        size = self.scale.batch
        n = len(keys) - len(keys) % size
        i = self.cursor[c]
        clock = time.perf_counter
        try:
            while True:
                lo = i % n
                group = keys[lo : lo + size]
                i += size
                t0 = clock()
                response = await client.mget(group)
                t1 = clock()
                self._log(("MGET", group), response)
                problem = check_mget(group, response, values)
                if problem:
                    out.fail(problem)
                    missed = []
                else:
                    missed = [k for k, hit in zip(group, response["hits"]) if not hit]
                if missed:
                    response = await client.mput(missed, [values[k] for k in missed])
                    t1 = clock()
                    self._log(("MPUT", missed, [values[k] for k in missed]), response)
                    if not response.get("ok") or len(response.get("hits", ())) != len(missed):
                        out.fail(f"MPUT of {len(missed)} keys: {response}")
                # one look-aside round: the MGET and the MPUT that fills its misses
                out.record(t0, t1, len(group) + len(missed), 2 if missed else 1)
                if t1 >= deadline:
                    break
        except ServiceError as exc:
            out.attempted += 1
            out.fail(f"connection {c}: {exc}")
        self.cursor[c] = i


def check_mget(keys: list[int], response: dict[str, Any], values: list[str]) -> str | None:
    """``None`` when an MGET response is right for ``keys``, else the problem.

    Hits and values must line up key for key; a hit carries its own key's
    value (or ``None`` when the key was admitted but not yet written), a
    miss carries ``None``.
    """
    if not response.get("ok"):
        return f"MGET failed: {response}"
    hits, got = response.get("hits"), response.get("values")
    if not isinstance(hits, list) or not isinstance(got, list):
        return "MGET response lacks hits/values lists"
    if len(hits) != len(keys) or len(got) != len(keys):
        return f"MGET of {len(keys)} keys answered {len(hits)} hits and {len(got)} values"
    for key, hit, value in zip(keys, hits, got):
        if value is None:
            continue
        if not hit:
            return f"MGET key {key} missed but carried value {value!r}"
        if value != values[key]:
            return f"MGET key {key} returned {value!r}, expected {values[key]!r}"
    return None


class ServePoint(_Serve):
    """Router in front of two workers, split and seeded like the cluster."""

    name = "serve-point"
    LOG_LIMIT = 20_000  # requests logged for the per-layer replay

    async def start_tier(self) -> None:
        self.specs = build_specs("heatsink", self.scale.capacity, 2, seed=self.seed)
        for spec in self.specs:
            server = CacheServer(build_worker_store(spec), max_inflight=spec.max_inflight)
            await server.start()
            self.servers.append(server)
        self.router = RouterServer(
            [(spec.node, "127.0.0.1", server.port) for spec, server in zip(self.specs, self.servers)]
        )
        await self.router.start()
        self.port = self.router.port

    def new_stores(self) -> dict[str, PolicyStore]:
        """Fresh stores identical to the workers' (for offline replays)."""
        return {spec.node: build_worker_store(spec) for spec in self.specs}

class ServeBatch(_Serve):
    """One ``CacheServer(PolicyStore(heatsink, capacity))``, default configuration."""

    name = "serve-batch"
    LOG_LIMIT = 400

    def new_policy(self):
        return make_policy("heatsink", self.scale.capacity, seed=self.seed)

    async def start_tier(self) -> None:
        server = CacheServer(PolicyStore(self.new_policy()))
        await server.start()
        self.servers.append(server)
        self.port = server.port

    async def check(self) -> list[str]:
        return await self.replay_check(groups=64 if self.scale is FULL else 16)

    async def replay_check(self, groups: int) -> list[str]:
        """Kernel-served MGET hit flags ≡ an offline per-key replay.

        A fresh default server gets the warm-up and ``groups`` look-aside
        rounds over one connection (so the access order is known); the
        same accesses then replay through ``PolicyStore(batch_kernel=False)``.
        """
        problems: list[str] = []
        values = self.values
        server = CacheServer(PolicyStore(self.new_policy()))
        await server.start()
        offline = PolicyStore(self.new_policy(), batch_kernel=False)
        kernel_groups = 0
        try:
            async with await ServiceClient.connect("127.0.0.1", server.port) as client:
                for lo in range(0, len(self.warm), WARM_CHUNK):
                    chunk = self.warm[lo : lo + WARM_CHUNK]
                    vals = [values[k] for k in chunk]
                    served = (await client.mput(chunk, vals))["hits"]
                    if served != await offline.put_many(chunk, vals):
                        problems.append(f"warm-up MPUT at {lo}: hit flags differ offline")
                keys = self.streams[0]
                size = self.scale.batch
                for g in range(groups):
                    group = keys[g * size : (g + 1) * size]
                    response = await client.mget(group)
                    problem = check_mget(group, response, values)
                    if problem:
                        problems.append(problem)
                        break
                    offline_hits = [hit for hit, _ in await offline.get_many(group)]
                    if response["hits"] != offline_hits:
                        problems.append(f"MGET group {g}: hit flags differ from the per-key replay")
                        break
                    missed = [k for k, hit in zip(group, offline_hits) if not hit]
                    if missed:
                        vals = [values[k] for k in missed]
                        served = (await client.mput(missed, vals))["hits"]
                        if served != await offline.put_many(missed, vals):
                            problems.append(f"MPUT group {g}: hit flags differ offline")
                            break
                kernel_groups = (await client.stats())["kernel_batches"]
        finally:
            await server.stop()
        if not problems and kernel_groups == 0:
            problems.append("the replayed MGET groups never reached the batch kernel")
        return problems


WORKLOADS = {cls.name: cls for cls in (SimPhase, ServePoint, ServeBatch)}


def latency_ms(out: Timed, q: float) -> float:
    """The ``q``-th percentile of per-operation latency, in ms."""
    return percentile(out.latencies, q) * 1e3
