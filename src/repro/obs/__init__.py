"""repro.obs — unified tracing + metrics across the simulator and service.

The rest of the repo *computes* cache behaviour; this package lets you
*watch* it. Two complementary halves share the namespace:

**Metrics** (aggregates): :class:`MetricsRegistry` holds named counters,
gauges and log-linear histograms (≤ 1/32 percentile error, mergeable)
and renders them in the Prometheus text exposition format
(:func:`render_prometheus`, with a parser for round-trips and CLI
display). The live service registers its loop-local
instruments here per scrape — ``{"op": "METRICS"}`` on the wire, or an
HTTP ``/metrics`` endpoint (:mod:`repro.obs.httpexpo`) for real scrapers.

**Tracing** (events): emission sites in the simulator run loop, the
heat-sink policy, and the service's ``PolicyStore`` produce structured
events — ``access`` / ``route`` / ``evict`` — through the module-level
switchboard in :mod:`repro.obs.hooks`. The hooks are **zero-cost while
disabled** (one module-flag branch, hoisted out of inner loops; bounded
by ``benchmarks/bench_obs.py``), and fan out to composable sinks
(:mod:`repro.obs.sinks`): NDJSON files, bounded ring buffers, seeded
samplers. :mod:`repro.obs.lifetimes` turns captured events into the
placement-lifetime and sink-occupancy distributions that make the
paper's heat-dissipation mechanism (Lemmas 5–8) empirically visible.

Layout::

    hooks.py       module-level enabled flag, sink fan-out, logical clock
    sinks.py       ListSink, RingBufferSink, NDJSONSink, SamplingSink
    tracing.py     distributed request spans (deterministic ids, contextvars)
    spans.py       span-file stitching + tail-latency summaries
    metrics.py     Counter / Gauge / Histogram, MetricsRegistry
    exposition.py  Prometheus text render + parse
    lifetimes.py   placement lifetimes, occupancy series (import lazily)
    httpexpo.py    GET /metrics + /healthz endpoints (import lazily)

A third half arrived with the cluster: **request tracing**
(:mod:`repro.obs.tracing`) — per-request spans with deterministic ids
that propagate client → router → worker over the wire and stitch into
one tree per request (:mod:`repro.obs.spans`, ``repro trace`` CLI). Like
the event hooks it is zero-cost while disabled, and its records flow
through the same sink classes.

Event schema, metric names and overhead numbers: ``docs/observability.md``.
"""

from repro.obs import hooks, tracing
from repro.obs.exposition import (
    CONTENT_TYPE,
    ParsedExposition,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.hooks import TraceSink, capturing
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Sample,
)
from repro.obs.sinks import ListSink, NDJSONSink, NullSink, RingBufferSink, SamplingSink

__all__ = [
    "hooks",
    "tracing",
    "TraceSink",
    "capturing",
    "ListSink",
    "RingBufferSink",
    "NDJSONSink",
    "SamplingSink",
    "NullSink",
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "MetricFamily",
    "MetricsRegistry",
    "CONTENT_TYPE",
    "render_prometheus",
    "parse_prometheus",
    "ParsedExposition",
]
