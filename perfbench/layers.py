"""Per-layer metrics of the traced run.

Each layer is measured from outside: the benchmark times calls into the
layer's public functions on the exact keys, requests and responses the
workload produced, and reads span self times from the program's own
tracing (``repro.obs.tracing``) for the serving tiers. Every workload
reports every metric; a layer that is not on a workload's path reports 0
(it costs that workload nothing), so one name keeps one meaning.

The serve workloads' per-operation figures add up: the per-call costs of
the named layers, each times its calls per operation, plus
``loop.residual_us`` equal the traced client round trip divided by the
number of connections. With every tier on one event loop and every
connection always waiting on one operation, that quotient is the loop
time one operation costs (Little's law).
"""

from __future__ import annotations

import copy
import sys
import time
from typing import Any

import numpy as np

from repro.cluster.ring import HashRing
from repro.service.framing import FrameSplitter
from repro.service.protocol import (
    FRAME_BINARY,
    FRAME_NDJSON,
    Request,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.service.store import PolicyStore
from repro.sim.engine import run_policy
from repro.sim.kernels import tracelevel
from repro.sim.kernels.batched import batch_hits
from repro.sim.kernels.heatsink import run_heatsink

from measure import median, per_call_us, timer_overhead_ns
from workloads import CONNECTIONS, WARM_CHUNK

#: (name, unit) of every per-layer metric, in report order
PER_LAYER: list[tuple[str, str]] = [
    ("traces.build_s", "s"),
    ("engine.overhead_s", "s"),
    ("kernels.peraccess.hot_aps", "1/s"),
    ("kernels.scan.hot_aps", "1/s"),
    ("kernels.scan.hot_consumed_frac", "ratio"),
    ("kernels.peraccess.turnover_aps", "1/s"),
    ("kernels.batch.us_per_key", "us"),
    ("store.perkey.us_per_key", "us"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.get_many_us", "us"),
    ("store.put_many_us", "us"),
    ("store.kernel_batches", "count"),
    ("store.lock_wait_us", "us"),
    ("policy.step_us", "us"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("framing.split_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("server.request_us", "us"),
    ("server.parse_us", "us"),
    ("ring.lookup_us", "us"),
    ("router.hop_us", "us"),
    ("router.request_us", "us"),
    ("router.queue_us", "us"),
    ("router.link_us", "us"),
    ("loop.residual_us", "us"),
    ("trace.round_trip_us", "us"),
    ("sim.misses.hot", "count"),
    ("sim.misses.turnover", "count"),
    ("serve.errors", "count"),
    ("trace.overhead_frac", "ratio"),
]

#: span name -> per-layer metric (mean self time per span)
SPAN_METRICS = {
    "router.request": "router.request_us",
    "router.queue": "router.queue_us",
    "router.link": "router.link_us",
    "server.request": "server.request_us",
    "server.parse": "server.parse_us",
    "store.lock.wait": "store.lock_wait_us",
}

def empty() -> dict[str, float]:
    return {name: 0.0 for name, _ in PER_LAYER}


# -- sim-phase -----------------------------------------------------------------

def sim_layers(wl: Any, untraced: Any, traced: Any) -> dict[str, float]:
    """Kernel, engine and trace-builder layers on the phase trace."""
    m = empty()
    m["trace.overhead_frac"] = wl.ops_per_s(traced) / wl.ops_per_s(untraced)
    m["traces.build_s"] = median(wl.build_s)
    m["engine.overhead_s"] = median(wl.engine_overhead_s)
    trace = wl.trace

    hits = np.asarray(wl.new_policy().run(trace).hits)
    m["sim.misses.hot"] = float(np.count_nonzero(~hits & wl.hot))
    m["sim.misses.turnover"] = float(np.count_nonzero(~hits & ~wl.hot))

    # walk the trace phase by phase through the per-access kernel (a
    # bit-exact continuation), timing each kernel on the state the real
    # run has at that point
    policy = wl.new_policy()
    hot_s = hot_n = scan_s = scan_n = turn_s = turn_n = 0.0
    clock = time.perf_counter
    for kind, lo, hi in wl.phases:
        if kind == "turnover":
            t0 = clock()
            run_heatsink(policy, trace[lo:hi])
            turn_s += clock() - t0
            turn_n += hi - lo
            continue
        mid = lo + (hi - lo) // 2
        run_heatsink(policy, trace[lo:mid])  # fault the phase's working set in
        warmed = trace[mid:hi]
        scanned = copy.deepcopy(policy)
        t0 = clock()
        _, consumed = tracelevel.scan_heatsink(scanned, warmed)
        scan_s += clock() - t0
        scan_n += consumed
        t0 = clock()
        run_heatsink(policy, warmed)
        hot_s += clock() - t0
        hot_n += warmed.size
    m["kernels.peraccess.hot_aps"] = hot_n / hot_s
    m["kernels.scan.hot_aps"] = scan_n / scan_s if scan_s else 0.0
    m["kernels.peraccess.turnover_aps"] = turn_n / turn_s
    m["kernels.scan.hot_consumed_frac"] = scan_share(wl)
    return m


def scan_share(wl: Any) -> float:
    """Accesses the scan consumed over accesses offered to it, in one real run.

    A profile hook watches ``scan_heatsink`` calls made by ``run_policy``
    (whatever driver makes them) and sums what each was offered and what
    it consumed before bailing out. Untimed: the hook slows the run.
    """
    code = tracelevel.scan_heatsink.__code__
    offered = consumed = 0

    def hook(frame: Any, event: str, arg: Any) -> None:
        nonlocal offered, consumed
        if frame.f_code is code:
            if event == "call":
                offered += len(frame.f_locals["pages"])
            elif event == "return" and arg is not None:
                consumed += int(arg[1])

    sys.setprofile(hook)
    try:
        run_policy(wl.new_policy(), wl.trace)
    finally:
        sys.setprofile(None)
    return consumed / offered if offered else 0.0


# -- serving -------------------------------------------------------------------

def _requests(log: list[tuple[Any, dict[str, Any]]]) -> list[Request]:
    out = []
    for entry, _ in log:
        op = entry[0]
        if op == "GET":
            out.append(Request("GET", key=entry[1]))
        elif op == "PUT":
            out.append(Request("PUT", key=entry[1], value=entry[2]))
        elif op == "MGET":
            out.append(Request("MGET", keys=tuple(entry[1])))
        else:
            out.append(Request("MPUT", keys=tuple(entry[1]), values=tuple(entry[2])))
    return out


def wire_layers(log: list[tuple[Any, dict[str, Any]]], response_frame: str) -> tuple[dict[str, float], float]:
    """Client, framing and protocol per-call costs on the logged traffic.

    Returns the metrics and the share of responses the server encodes
    (a GET answered with no payload goes out as pre-encoded bytes).
    """
    m: dict[str, float] = {}
    requests = _requests(log)
    responses = [response for _, response in log]
    m["client.encode_us"] = per_call_us(encode_request, requests)
    wire = [encode_request(r) for r in requests]
    splitter = FrameSplitter()
    m["framing.split_us"] = per_call_us(splitter.feed, wire)
    payloads = [frame.payload for b in wire for frame in FrameSplitter().feed(b)]
    m["protocol.decode_us"] = per_call_us(decode_request, payloads)
    encoded = [
        r for (entry, r) in log if not (entry[0] == "GET" and r.get("value") is None)
    ]
    m["protocol.encode_us"] = per_call_us(
        lambda r: encode_response(r, frame=response_frame), encoded
    )
    lines = [encode_response(r) for r in responses]
    m["client.decode_us"] = per_call_us(decode_response, lines)
    return m, len(encoded) / len(log)


async def serve_layers(wl: Any, untraced: Any, traced: Any, errors: int) -> tuple[dict[str, float], list[str], dict[str, Any]]:
    """Serving layers on the logged traffic, span self times, and the budget.

    Returns the metrics, any failed checks, and the per-operation budget
    (an operation is one request on serve-point, one look-aside round —
    an MGET and the MPUT of its misses — on serve-batch).
    """
    m = empty()
    problems: list[str] = []
    log = wl.log
    point = wl.name == "serve-point"
    m["traces.build_s"] = median(wl.build_s)
    # the worker answers the router in binary framing, the plain server NDJSON
    wire, encoded_share = wire_layers(log, FRAME_BINARY if point else FRAME_NDJSON)
    m.update(wire)
    if point:
        ring = HashRing([spec.node for spec in wl.specs])
        m["ring.lookup_us"] = per_call_us(ring.owner, [entry[1] for entry, _ in log])
        gets, puts = await point_store(wl, ring, m)
        m["router.hop_us"] = await router_hop_us(wl, ring)
        requests = 1.0
        share = {
            "ring.lookup_us": 1,
            "store.get_us": gets / len(log),
            "store.put_us": puts / len(log),
        }
    else:
        rounds, puts = await batch_store(wl, m)
        problem = await kernel_vs_perkey(wl, m)
        m["store.kernel_batches"] = float(traced.kernel_batches)
        if problem:
            problems.append(problem)
        requests = len(log) / rounds
        share = {"store.get_many_us": 1, "store.put_many_us": puts / rounds}
    hops = 2 if point else 1  # a routed request is split and decoded twice
    share.update({
        "client.encode_us": requests,
        "client.decode_us": requests,
        "framing.split_us": requests * hops,
        "protocol.decode_us": requests * hops,
        "protocol.encode_us": requests * encoded_share,
    })

    sink = wl.sink
    for span, metric in SPAN_METRICS.items():
        m[metric] = sink.mean_self_us(span)
    m["serve.errors"] = float(errors)
    m["trace.overhead_frac"] = wl.ops_per_s(traced) / wl.ops_per_s(untraced)
    round_trip = sum(traced.latencies) / len(traced.latencies) * 1e6
    m["trace.round_trip_us"] = round_trip
    named = {name: m[name] * share[name] for name in share}
    per_op = round_trip / CONNECTIONS
    m["loop.residual_us"] = per_op - sum(named.values())
    budget = {
        "round_trip_us": round(round_trip, 2),
        "per_op_us": round(per_op, 2),
        "calls_per_op": {k: round(v, 3) for k, v in share.items()},
        "named_us": {k: round(v, 2) for k, v in named.items()},
        "residual_us": round(m["loop.residual_us"], 2),
        "traces": sink.traces,
        "late_spans": sink.late,
    }
    return m, problems, budget


async def _timed_calls(calls: list[tuple[str, Any]]) -> dict[str, tuple[float, int]]:
    """Await ``(label, coroutine factory)`` pairs in order; µs per call and calls per label."""
    clock = time.perf_counter_ns
    overhead = timer_overhead_ns()
    totals: dict[str, list[float]] = {}
    for label, make in calls:
        t0 = clock()
        await make()
        elapsed = clock() - t0 - overhead
        slot = totals.setdefault(label, [0.0, 0])
        slot[0] += elapsed
        slot[1] += 1
    return {label: (total / count / 1e3, count) for label, (total, count) in totals.items()}


async def point_store(wl: Any, ring: HashRing, m: dict[str, float]) -> tuple[int, int]:
    """``PolicyStore.get``/``put`` and ``policy.access`` on the logged keys.

    Fresh worker stores (and policies), warmed like the workload, replay
    the logged accesses in order. Returns the GET and PUT counts.
    """
    stores = wl.new_stores()
    for key in wl.warm:
        await stores[ring.owner(key)].put(key, wl.values[key])
    calls = []
    for entry, _ in wl.log:
        store = stores[ring.owner(entry[1])]
        if entry[0] == "GET":
            calls.append(("get", lambda s=store, k=entry[1]: s.get(k)))
        else:
            calls.append(("put", lambda s=store, k=entry[1], v=entry[2]: s.put(k, v)))
    timed = await _timed_calls(calls)
    m["store.get_us"], gets = timed.get("get", (0.0, 0))
    m["store.put_us"], puts = timed.get("put", (0.0, 0))

    policies = {node: store.policy for node, store in wl.new_stores().items()}
    for key in wl.warm:
        policies[ring.owner(key)].access(key)
    steps = [(policies[ring.owner(entry[1])], entry[1]) for entry, _ in wl.log]
    m["policy.step_us"] = per_call_us(lambda step: step[0].access(step[1]), steps, repeats=1)
    return gets, puts


async def batch_store(wl: Any, m: dict[str, float]) -> tuple[int, int]:
    """``get_many``/``put_many`` of a default store replaying the logged rounds.

    Returns the MGET (round) and MPUT counts.
    """
    store = PolicyStore(wl.new_policy())
    for lo in range(0, len(wl.warm), WARM_CHUNK):
        chunk = wl.warm[lo : lo + WARM_CHUNK]
        await store.put_many(chunk, [wl.values[k] for k in chunk])
    calls = []
    for entry, _ in wl.log:
        if entry[0] == "MGET":
            calls.append(("get", lambda k=entry[1]: store.get_many(k)))
        else:
            calls.append(("put", lambda k=entry[1], v=entry[2]: store.put_many(k, v)))
    timed = await _timed_calls(calls)
    m["store.get_many_us"], rounds = timed.get("get", (0.0, 0))
    m["store.put_many_us"], puts = timed.get("put", (0.0, 0))
    return rounds, puts


async def kernel_vs_perkey(wl: Any, m: dict[str, float]) -> str | None:
    """µs per key of ``batch_hits`` and of a per-key ``get_many`` on the MGET groups.

    Both replay the logged rounds from the same warmed state; the per-key
    store is the reference, so differing hit flags are a failed check
    (the returned problem). The MPUT keys, which are below
    ``BATCH_KERNEL_MIN`` and take the per-key path, time ``policy.access``.
    """
    policy = wl.new_policy()
    reference = PolicyStore(wl.new_policy(), batch_kernel=False)
    for lo in range(0, len(wl.warm), WARM_CHUNK):
        chunk = wl.warm[lo : lo + WARM_CHUNK]
        batch_hits(policy, chunk)
        await reference.put_many(chunk, [wl.values[k] for k in chunk])
    clock = time.perf_counter_ns
    kernel_ns = perkey_ns = step_ns = 0
    keys = steps = 0
    for entry, _ in wl.log:
        if entry[0] == "MGET":
            group = entry[1]
            t0 = clock()
            flags = batch_hits(policy, group)
            t1 = clock()
            served = await reference.get_many(group)
            t2 = clock()
            kernel_ns += t1 - t0
            perkey_ns += t2 - t1
            keys += len(group)
            if flags is None:
                return "batch_hits declined the serving policy"
            if flags.tolist() != [hit for hit, _ in served]:
                return "batch kernel hit flags differ from the per-key store"
        else:
            access = policy.access
            t0 = clock()
            for key in entry[1]:
                access(key)
            step_ns += clock() - t0
            steps += len(entry[1])
            await reference.put_many(entry[1], entry[2])
    m["kernels.batch.us_per_key"] = kernel_ns / keys / 1e3
    m["store.perkey.us_per_key"] = perkey_ns / keys / 1e3
    m["policy.step_us"] = step_ns / steps / 1e3 if steps else 0.0
    return None


async def router_hop_us(wl: Any, ring: HashRing) -> float:
    """p50 GET through the router minus p50 GET sent straight to the owner.

    Same keys on both paths (keys the first worker owns), alternating
    blocks of one connection each, so host drift hits both sides alike.
    """
    from repro.service.client import ServiceClient

    node = wl.specs[0].node
    keys = [k for k in wl.streams[0] if ring.owner(k) == node][: wl.scale.hop_keys]
    samples: dict[str, list[float]] = {"router": [], "direct": []}
    ports = {"router": wl.router.port, "direct": wl.servers[0].port}
    clock = time.perf_counter
    clients = {
        side: await ServiceClient.connect("127.0.0.1", port) for side, port in ports.items()
    }
    try:
        block = max(1, len(keys) // 10)
        for lo in range(0, len(keys), block):
            for side, client in clients.items():
                for key in keys[lo : lo + block]:
                    t0 = clock()
                    await client.get(key)
                    samples[side].append(clock() - t0)
    finally:
        for client in clients.values():
            await client.close()
    return (median(samples["router"]) - median(samples["direct"])) * 1e6
