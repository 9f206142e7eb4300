"""repro.service — serve any registered policy to live traffic.

The batch simulator answers "how would policy P have done on trace T";
this package puts the same policy state machine behind an asyncio TCP
server so it can field concurrent GET/PUT traffic, with metrics, and a
load generator that replays any trace against it. The serving layer and
the simulator share one definition of the policy (one ``access()`` call
per GET/PUT), so served hit rates and simulated hit rates are mutually
checkable — and checked, exactly, by the test suite.

On top sits a robustness layer: clients carry timeouts, bounded retries
with decorrelated jitter and reconnection (:class:`ResilientClient`); the
server sheds load past a connection cap, bounds per-connection pipelining
and drops wedged clients; and a seeded fault-injection harness
(:class:`FaultPlan` + :class:`ChaosProxy`) produces deterministic network
misbehaviour so all of it is testable with exact assertions.

Layout::

    protocol.py   message vocabulary + validation; two framings (NDJSON
                  and tag+length binary), batched MGET/MPUT, HELLO
    framing.py    FrameSplitter: incremental splitter that tells the
                  framings apart per frame (shared by server and proxy)
    metrics.py    counters, latency histograms (combined + per-op),
                  gauges, Prometheus registry assembly
    store.py      PolicyStore: single-writer policy + payload dict
    sharding.py   ShardedPolicyStore: keyspace split across N
                  independent shards, merged stats/metrics
    frontend.py   FrontEnd: the connection core shared with the cluster
                  router (framing, HELLO, error isolation, backpressure,
                  ordered response flusher, drain, teardown)
    server.py     CacheServer: FrontEnd over one store
    client.py     ServiceClient (timeouts, pipelining, batching, frame
                  negotiation) and ResilientClient (retries, backoff,
                  reconnect)
    faults.py     FaultPlan / ChaosProxy: seeded fault injection
    loadgen.py    closed-loop trace replay at a target concurrency
    openloop.py   open-loop arrivals at a fixed rate, SLO latency report
    loop.py       optional uvloop installation for the CLI entry points

CLI: ``repro-experiment serve`` / ``repro-experiment loadgen`` /
``repro-experiment stats``.
Protocol, consistency model, failure modes: ``docs/service.md``.
Metric names, event schema, scrape endpoints: ``docs/observability.md``.
"""

from repro.service.client import (
    ClientStats,
    ResilientClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.faults import ChaosProxy, FaultPlan, FaultStats, running_proxy
from repro.service.framing import Frame, FrameSplitter
from repro.service.loadgen import LoadReport, replay_trace, run_replay
from repro.service.loop import install_best_event_loop
from repro.service.metrics import (
    LatencyHistogram,
    RecentWindow,
    ServiceMetrics,
    build_registry,
)
from repro.service.openloop import SLOReport, open_loop_replay, run_open_loop
from repro.service.protocol import (
    FRAME_BINARY,
    FRAME_NDJSON,
    FRAMES,
    Request,
    batch_responses,
    decode_frame,
    decode_request,
    decode_response,
    encode_frame,
    encode_request,
    encode_response,
)
from repro.service.server import CacheServer, running_server
from repro.service.sharding import ShardedPolicyStore, split_capacity
from repro.service.store import PolicyStore

__all__ = [
    "Request",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "encode_frame",
    "decode_frame",
    "batch_responses",
    "FRAME_NDJSON",
    "FRAME_BINARY",
    "FRAMES",
    "Frame",
    "FrameSplitter",
    "ShardedPolicyStore",
    "split_capacity",
    "install_best_event_loop",
    "LatencyHistogram",
    "ServiceMetrics",
    "build_registry",
    "PolicyStore",
    "CacheServer",
    "running_server",
    "ServiceClient",
    "ResilientClient",
    "RetryPolicy",
    "ClientStats",
    "FaultPlan",
    "FaultStats",
    "ChaosProxy",
    "running_proxy",
    "LoadReport",
    "replay_trace",
    "run_replay",
    "RecentWindow",
    "SLOReport",
    "open_loop_replay",
    "run_open_loop",
]
