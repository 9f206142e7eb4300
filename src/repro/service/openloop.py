"""Open-loop SLO load generation: fixed arrival rate, honest tails.

The replay generator (:mod:`repro.service.loadgen`) is *closed-loop*:
each window of requests waits for the previous window's responses, so
when the server slows down the generator slows down with it — the
classic *coordinated omission* failure mode, where the measured p99
politely excludes exactly the moments the server was drowning.

This module measures the question an SLO actually asks: **at a fixed
offered rate, what latency do clients see?** Requests are released on a
seeded arrival process regardless of completions (Poisson arrivals
at ``rate``/s, or bursty clumps with ``burst`` mean size at the same
long-run rate), and every request's latency is measured from its
*scheduled* arrival time — a request that queued behind a stall is
charged the stall, exactly as a real client would experience it.

Honesty requires one more check: if the *generator* cannot keep up (the
event loop scheduled a send late), the run is measuring the load
generator and not the server. Each send records its scheduler lag, and
the report carries the p99 lag plus a ``lag_ok`` verdict against
:data:`MAX_LAG_FRACTION` of the SLO (absolute floor
:data:`MAX_LAG_SECONDS`); a report with ``lag_ok == False`` should be
discarded, not celebrated.

Tails come from one place: latency and lag aggregate into log-linear
histograms (:class:`~repro.obs.metrics.Histogram`), so every percentile
is at most 1/32 above the exact nearest-rank value and never above the
observed maximum, memory stays O(1) at any trace length, and an
in-memory trace and a stream of the same keys go through one driver.

Determinism: the schedule is drawn from a seeded generator
(``derive_seed(seed, "open-loop")``), so two runs at the same rate
offer byte-identical arrival processes; :func:`arrival_schedule` returns
a prefix of that same generator.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.metrics import Histogram
from repro.rng import derive_seed
from repro.service.client import DEFAULT_TIMEOUT, ServiceClient
from repro.service.protocol import FRAME_NDJSON, FRAMES, Request, encode_request
from repro.traces.base import Trace
from repro.traces.streaming import ArrayTraceStream, TraceStream

__all__ = ["SLOReport", "arrival_schedule", "open_loop_replay", "run_open_loop"]

#: Scheduler lag p99 must stay under this fraction of the SLO bound...
MAX_LAG_FRACTION = 0.25
#: ...and under this absolute floor when no SLO bound was given (seconds).
MAX_LAG_SECONDS = 0.005


def _check_arrivals(rate: float, burst: float) -> None:
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    if burst < 1.0:
        raise ConfigurationError(f"burst must be >= 1, got {burst}")


def _arrival_offsets(rate: float, burst: float, seed: int) -> Iterator[float]:
    """Unbounded arrival offsets (seconds from start) at ``rate`` requests/s.

    ``burst == 1`` gives a Poisson process (i.i.d. exponential gaps).
    ``burst > 1`` clumps arrivals: burst sizes are geometric with mean
    ``burst``, burst gaps exponential with mean ``burst / rate``, so the
    long-run rate is still ``rate`` but arrivals land in simultaneous
    spikes — the adversarial shape for queue-depth tails.
    """
    rng = np.random.default_rng(derive_seed(seed, "open-loop"))
    t = 0.0
    if burst == 1.0:
        while True:
            for gap in rng.exponential(1.0 / rate, size=4096).tolist():
                t += gap
                yield t
    while True:
        t += float(rng.exponential(burst / rate))
        for _ in range(int(rng.geometric(1.0 / burst))):
            yield t


def arrival_schedule(
    n: int, rate: float, *, burst: float = 1.0, seed: int = 0
) -> np.ndarray:
    """The first ``n`` offsets of the open loop's arrival process (see
    :func:`_arrival_offsets`) — exactly what a replay at the same
    ``rate``/``burst``/``seed`` schedules."""
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    _check_arrivals(rate, burst)
    return np.fromiter(islice(_arrival_offsets(rate, burst, seed), n), float, count=n)


@dataclass(frozen=True)
class SLOReport:
    """One open-loop run: offered rate, observed tails, SLO verdict."""

    ops: int
    hits: int
    errors: int
    seconds: float
    rate: float  # offered (requested) arrival rate, req/s
    burst: float
    connections: int
    frame: str
    #: Client-observed latencies (scheduled arrival → response), ms, from a
    #: log-linear histogram: at most 1/32 above exact, never above max_ms.
    p50_ms: float
    p90_ms: float
    p99_ms: float
    p999_ms: float
    max_ms: float
    mean_ms: float
    #: SLO accounting (zero / 0.0 when no bound was given).
    slo_ms: float | None = None
    violations: int = 0
    violation_fraction: float = 0.0
    #: Generator self-check: p99 lag between scheduled and actual send.
    lag_p99_ms: float = 0.0
    lag_max_ms: float = 0.0
    lag_ok: bool = True
    server_stats: dict[str, Any] = field(default_factory=dict)

    @property
    def achieved_rate(self) -> float:
        return self.ops / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-able form (``--slo-json`` / ``BENCH_slo.json``)."""
        return {
            "ops": self.ops,
            "hits": self.hits,
            "errors": self.errors,
            "seconds": round(self.seconds, 6),
            "rate": self.rate,
            "achieved_rate": round(self.achieved_rate, 3),
            "burst": self.burst,
            "connections": self.connections,
            "frame": self.frame,
            "p50_ms": round(self.p50_ms, 4),
            "p90_ms": round(self.p90_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "p999_ms": round(self.p999_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "mean_ms": round(self.mean_ms, 4),
            "slo_ms": self.slo_ms,
            "violations": self.violations,
            "violation_fraction": round(self.violation_fraction, 6),
            "lag_p99_ms": round(self.lag_p99_ms, 4),
            "lag_max_ms": round(self.lag_max_ms, 4),
            "lag_ok": self.lag_ok,
        }

    def summary(self) -> str:
        lines = [
            f"open-loop  : {self.rate:,.0f} req/s offered "
            f"(achieved {self.achieved_rate:,.0f}/s, burst {self.burst:g}, "
            f"{self.connections} connections, frame={self.frame})",
            f"ops        : {self.ops}  ({self.hits} hits, {self.errors} errors, "
            f"{self.seconds:.2f}s)",
            f"latency    : p50 {self.p50_ms:.3f}ms  p90 {self.p90_ms:.3f}ms  "
            f"p99 {self.p99_ms:.3f}ms  p99.9 {self.p999_ms:.3f}ms  "
            f"max {self.max_ms:.3f}ms",
        ]
        if self.slo_ms is not None:
            lines.append(
                f"SLO {self.slo_ms:g}ms : {self.violations} violations "
                f"({100.0 * self.violation_fraction:.3f}% of requests)"
            )
        lag = (
            f"lag        : p99 {self.lag_p99_ms:.3f}ms  max {self.lag_max_ms:.3f}ms"
        )
        lines.append(lag + ("" if self.lag_ok else "  ** GENERATOR LAGGED — discard **"))
        return "\n".join(lines)


async def open_loop_replay(
    trace: "Trace | np.ndarray | TraceStream",
    *,
    host: str,
    port: int,
    rate: float,
    burst: float = 1.0,
    connections: int = 4,
    frame: str = FRAME_NDJSON,
    slo_ms: float | None = None,
    timeout: float | None = DEFAULT_TIMEOUT,
    seed: int = 0,
    fetch_stats: bool = True,
) -> SLOReport:
    """Offer ``trace`` as GETs at a fixed arrival rate; see module docs.

    Arrivals round-robin across ``connections`` pipelined connections
    (each connection is FIFO, so per-connection response matching is
    positional); sends never wait for completions, so queueing delay
    under overload lands in the measured latency instead of silently
    throttling the offered load.

    Every trace runs at O(chunk) memory: an in-memory trace is wrapped in
    an :class:`~repro.traces.streaming.ArrayTraceStream`, a feeder task
    pulls keys off the stream into per-connection bounded queues, and
    latency and lag aggregate into bounded histograms. SLO violation
    counts are exact per response.
    """
    _check_arrivals(rate, burst)
    if connections < 1:
        raise ConfigurationError(f"connections must be >= 1, got {connections}")
    if frame not in FRAMES:
        raise ConfigurationError(f"unknown frame {frame!r}; expected one of {list(FRAMES)}")
    if slo_ms is not None and slo_ms <= 0:
        raise ConfigurationError(f"slo_ms must be > 0, got {slo_ms}")
    stream = trace if isinstance(trace, TraceStream) else ArrayTraceStream(trace)

    clients = [
        await ServiceClient.connect(host, port, timeout=timeout, frame=frame)
        for _ in range(connections)
    ]
    # 30 octaves from 1 µs: overflow starts around 9 minutes of latency
    lat_hist = Histogram(base=1e-6, num_buckets=30)
    lag_hist = Histogram(base=1e-6, num_buckets=30)
    counts = {"hits": 0, "errors": 0, "violations": 0}
    slo_bound = slo_ms / 1e3 if slo_ms is not None else None
    # short per-connection lookahead: the feeder's first fill runs before
    # any send and must finish well inside the start lead below
    queues: list[asyncio.Queue] = [asyncio.Queue(maxsize=256) for _ in range(connections)]

    async def _feed() -> None:
        offsets = _arrival_offsets(rate, burst, seed)
        i = 0
        for chunk in stream.chunks():
            for key in chunk.tolist():
                await queues[i % connections].put((next(offsets), key))
                i += 1
        for q in queues:
            await q.put(None)

    try:
        start = time.perf_counter() + 0.01  # small lead so arrival 0 is not late
        tasks = [asyncio.create_task(_feed())] + [
            asyncio.create_task(
                _drive_connection(
                    clients[c], queues[c], start, lat_hist, lag_hist, counts, slo_bound
                )
            )
            for c in range(connections)
        ]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            for task in tasks:
                task.cancel()
            raise
        seconds = time.perf_counter() - start
        server_stats: dict[str, Any] = {}
        if fetch_stats:
            server_stats = await clients[0].stats()
    finally:
        await asyncio.gather(*(c.close() for c in clients), return_exceptions=True)

    lag_p99 = lag_hist.percentile(0.99)
    lag_bound = (
        MAX_LAG_FRACTION * slo_ms / 1e3 if slo_ms is not None else MAX_LAG_SECONDS
    )
    ops = lat_hist.count
    return SLOReport(
        ops=ops,
        hits=counts["hits"],
        errors=counts["errors"],
        seconds=seconds,
        rate=rate,
        burst=burst,
        connections=connections,
        frame=frame,
        p50_ms=lat_hist.percentile(0.50) * 1e3,
        p90_ms=lat_hist.percentile(0.90) * 1e3,
        p99_ms=lat_hist.percentile(0.99) * 1e3,
        p999_ms=lat_hist.percentile(0.999) * 1e3,
        max_ms=lat_hist.max * 1e3,
        mean_ms=lat_hist.mean * 1e3,
        slo_ms=slo_ms,
        violations=counts["violations"],
        violation_fraction=counts["violations"] / ops if ops else 0.0,
        lag_p99_ms=lag_p99 * 1e3,
        lag_max_ms=lag_hist.max * 1e3,
        lag_ok=lag_p99 <= lag_bound,
        server_stats=server_stats,
    )


async def _drive_connection(
    client: ServiceClient,
    feed: asyncio.Queue,
    start: float,
    lat_hist: Histogram,
    lag_hist: Histogram,
    counts: dict[str, int],
    slo_bound: float | None,
) -> None:
    """Send this connection's arrivals on schedule; read responses FIFO.

    The reader runs as its own task so a slow response never delays the
    next send — that decoupling *is* the open loop. Latency is measured
    from the scheduled arrival, so send-queue time counts too. The
    reader pairs responses with scheduled offsets through a second
    queue: the sender enqueues an offset before each send and a sentinel
    at the end, so the reader reads exactly one response per real entry —
    no total count needed up front, no race on shutdown.
    """
    pending: asyncio.Queue = asyncio.Queue()

    async def _read_all() -> None:
        while True:
            scheduled = await pending.get()
            if scheduled is None:
                return
            response = await client._read_response()
            latency = time.perf_counter() - (start + scheduled)
            lat_hist.observe(latency)
            if slo_bound is not None and latency > slo_bound:
                counts["violations"] += 1
            if not response.get("ok"):
                counts["errors"] += 1
            elif response.get("hit"):
                counts["hits"] += 1

    reader = asyncio.create_task(_read_all())
    try:
        while True:
            item = await feed.get()
            if item is None:
                break
            offset, key = item
            delay = start + offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lag_hist.observe(max(0.0, time.perf_counter() - (start + offset)))
            pending.put_nowait(offset)
            await client._send(encode_request(Request("GET", key=key), frame=client.frame))
        pending.put_nowait(None)
        await reader
    except BaseException:
        reader.cancel()
        raise


def run_open_loop(trace: "Trace | np.ndarray | TraceStream", **kwargs: Any) -> SLOReport:
    """Synchronous wrapper: ``asyncio.run`` the open-loop run (CLI entry)."""
    return asyncio.run(open_loop_replay(trace, **kwargs))
