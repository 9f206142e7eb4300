"""Open-loop SLO benchmark: latency-under-SLO at a fixed offered rate.

``bench_service.py`` measures *throughput* — how fast the closed-loop
generator can push the stack. This file measures the question an SLO
actually asks: at a fixed, modest offered rate, what latency tail do
clients see, and what fraction of requests violate the bound? The
generator is :mod:`repro.service.openloop` (Poisson / bursty arrivals,
latency measured from scheduled arrival, scheduler-lag self-check), so
coordinated omission cannot flatter the numbers.

Two entry points over one measurement core:

1. **Standalone / CI** — emits a machine-readable ``BENCH_slo.json``
   baseline (one row per arrival shape) so the tail-latency trajectory
   is diffable::

       python benchmarks/bench_slo.py --json BENCH_slo.json
       python benchmarks/bench_slo.py --check          # CI gate

   Each row is the **median run by p99** of ``--repeats`` runs (a
   fresh server each), with the worst run's ``worst_p99_ms``,
   ``worst_violation_fraction`` and ``worst_lag_ok`` alongside: a
   best-of tail would be biased low. ``--check`` exits non-zero unless
   every reported run satisfies the SLO contract: generator lag within
   bounds (``lag_ok``, else the run measured the loadgen and is void)
   and the violation fraction at the default 50 ms SLO at or under
   :data:`MAX_VIOLATIONS` (1 %).
   The offered rate is deliberately conservative — far below the
   closed-loop ceiling recorded in ``BENCH_service.json`` — because the
   gate certifies *latency under feasible load*, not peak throughput.

2. **pytest-benchmark** — per-shape timing::

       pytest benchmarks/bench_slo.py --benchmark-only

The rows share one offered rate and differ only in arrival shape:
``burst=1`` (Poisson) and ``burst=4`` (geometric clumps at the same
long-run rate). The bursty row is the adversarial one — clumps land
simultaneously and queue — so its p99 bounds the steady row's.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time

import repro
from repro.service.openloop import open_loop_replay
from repro.service.server import running_server
from repro.service.sharding import ShardedPolicyStore

CAPACITY = 1_024
POLICY = "heatsink"
OPS = 4_000
RATE = 1_000.0  # req/s — feasible by construction, see module docstring
SLO_MS = 50.0
CONNECTIONS = 4
FRAME = "binary"

#: arrival shapes benchmarked (and gated) at the shared offered rate
BURSTS = (1.0, 4.0)
#: gate: the most SLO violations a reported run may have, as a fraction
MAX_VIOLATIONS = 0.01


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def make_trace(length: int) -> "repro.Trace":
    return repro.zipf_trace(8 * CAPACITY, length, alpha=1.0, seed=1)


def _open_loop_once(trace, *, rate: float, burst: float, slo_ms: float):
    async def scenario():
        store = ShardedPolicyStore.build(POLICY, CAPACITY, shards=1, seed=1)
        async with running_server(store) as server:
            return await open_loop_replay(
                trace,
                host="127.0.0.1",
                port=server.port,
                rate=rate,
                burst=burst,
                connections=CONNECTIONS,
                frame=FRAME,
                slo_ms=slo_ms,
                seed=1,
            )

    return asyncio.run(scenario())


def _median_row(trace, *, rate: float, burst: float, slo_ms: float, repeats: int):
    """The median run by p99 of ``repeats`` runs (fresh server per run),
    plus the worst run's tail and verdicts."""
    runs = sorted(
        (_open_loop_once(trace, rate=rate, burst=burst, slo_ms=slo_ms)
         for _ in range(repeats)),
        key=lambda report: report.p99_ms,
    )
    assert all(report.ops == len(trace) for report in runs)
    worst = runs[-1]
    return {
        **runs[len(runs) // 2].as_dict(),
        "worst_p99_ms": round(worst.p99_ms, 4),
        "worst_violation_fraction": round(worst.violation_fraction, 6),
        "worst_lag_ok": worst.lag_ok,
    }


def run_suite(length: int, repeats: int, *, rate: float, slo_ms: float) -> dict:
    """Measure every arrival shape; JSON-ready dict."""
    from repro.service.loop import install_best_event_loop

    event_loop = install_best_event_loop()
    trace = make_trace(length)
    rows = {
        f"rate={rate:g}/burst={burst:g}": _median_row(
            trace, rate=rate, burst=burst, slo_ms=slo_ms, repeats=repeats
        )
        for burst in BURSTS
    }
    return {
        "schema": 2,
        "generated_unix": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": _available_cpus(),
        "event_loop": event_loop,
        "policy": POLICY,
        "capacity": CAPACITY,
        "trace_length": length,
        "repeats": repeats,
        "connections": CONNECTIONS,
        "frame": FRAME,
        "slo_ms": slo_ms,
        "results": rows,
    }


def check(report: dict) -> bool:
    """CI gate: every row's reported (median) run must have kept the
    generator honest (``lag_ok``) and kept SLO violations at or under
    :data:`MAX_VIOLATIONS`."""
    passed = True
    for name, row in report["results"].items():
        ok = row["lag_ok"] and row["violation_fraction"] <= MAX_VIOLATIONS
        passed = passed and ok
        verdict = "OK" if ok else ("FAIL" if row["lag_ok"] else "FAIL (generator lagged)")
        print(
            f"{name:24s} p50 {row['p50_ms']:7.3f}ms  p99 {row['p99_ms']:7.3f}ms  "
            f"p99.9 {row['p999_ms']:7.3f}ms  "
            f"viol {100 * row['violation_fraction']:.3f}%  "
            f"lag p99 {row['lag_p99_ms']:.3f}ms  "
            f"(worst p99 {row['worst_p99_ms']:.3f}ms) -> {verdict}"
        )
    print(
        f"gate: violation fraction <= {100 * MAX_VIOLATIONS:g}% at "
        f"SLO {report['slo_ms']:g}ms, generator lag within bounds -> "
        f"{'OK' if passed else 'FAIL'}"
    )
    return passed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=OPS, help="requests per row")
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per row; the median by p99 is reported"
    )
    parser.add_argument("--rate", type=float, default=RATE, help="offered req/s")
    parser.add_argument("--slo", type=float, default=SLO_MS, metavar="MS", help="SLO bound")
    parser.add_argument(
        "--json", nargs="?", const="BENCH_slo.json", default=None,
        metavar="PATH", help="write the JSON report (default path when bare)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every row meets the SLO contract",
    )
    args = parser.parse_args(argv)

    report = run_suite(args.length, args.repeats, rate=args.rate, slo_ms=args.slo)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    passed = check(report)
    return 0 if (passed or not args.check) else 1


# -- pytest-benchmark entry points -------------------------------------------

import pytest  # noqa: E402

_PYTEST_TRACE = make_trace(OPS)


@pytest.mark.parametrize("burst", BURSTS)
def test_open_loop_slo(benchmark, burst):
    report = benchmark.pedantic(
        lambda: _open_loop_once(_PYTEST_TRACE, rate=RATE, burst=burst, slo_ms=SLO_MS),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert report.ops == OPS
    benchmark.extra_info["p99_ms"] = report.p99_ms
    benchmark.extra_info["violation_fraction"] = report.violation_fraction
    benchmark.extra_info["lag_ok"] = report.lag_ok


if __name__ == "__main__":
    sys.exit(main())
