"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload serve-point --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload and prints its end-to-end metrics.
``--trace 1`` is the separate traced run: it prints the per-layer
metrics instead (see README.md). The program under test is imported from
``src/`` beside this directory; without it the run exits with status 2
and prints no result. A failed correctness check exits with status 1.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time starts before the imports it includes

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("hit_rate", "ratio"),
]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sim-phase", "serve-point", "serve-batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes; 'tiny' exists for the smoke test")
    return parser.parse_args(argv)


async def run(args: argparse.Namespace, import_s: float) -> tuple[dict, dict]:
    import layers
    import workloads
    from measure import median, peak_rss_mb

    scale = workloads.FULL if args.scale == "full" else workloads.TINY
    cls = workloads.WORKLOADS[args.workload]
    setups: list[float] = []
    builds: list[float] = []
    wl = None
    for _ in range(scale.setup_reps):
        if wl is not None:
            await wl.teardown()
        wl = cls(scale, args.seed)
        t0 = time.perf_counter()
        await wl.setup()
        setups.append(time.perf_counter() - t0)
        builds.extend(wl.build_s)
    wl.build_s = builds
    detail: dict = {"setup_reps_s": [round(s, 4) for s in setups], "import_s": round(import_s, 4)}
    try:
        # a traced run splits its time between an untraced and a traced phase
        seconds = args.seconds / 2 if args.trace else args.seconds
        gc.collect()
        out = await wl.timed(seconds)
        phases = [out]
        if args.trace:
            gc.collect()
            phases.append(await wl.timed(seconds, traced=True))
        problems = [p for phase in phases for p in phase.problems]
        failed = sum(phase.failed for phase in phases)
        attempted = sum(phase.attempted for phase in phases)
        checks = await wl.check()
        if args.trace:
            if args.workload == "sim-phase":
                metrics = layers.sim_layers(wl, out, phases[1])
            else:
                metrics, more, detail["budget"] = await layers.serve_layers(
                    wl, out, phases[1], failed
                )
                checks += more
            units = dict(layers.PER_LAYER)
        else:
            metrics = {
                "setup_s": import_s + median(setups),
                "ops_per_s": wl.ops_per_s(out),
                "p50_ms": workloads.latency_ms(out, 50),
                "p90_ms": workloads.latency_ms(out, 90),
                "peak_rss_mb": peak_rss_mb(),
                "hit_rate": out.hits / out.accesses,
            }
            units = dict(END_TO_END)
        detail["samples"] = {"operations": len(out.latencies), "seconds": round(out.end - out.start, 3)}
        detail["p99_ms"] = workloads.latency_ms(out, 99)
        detail["hit_rate"] = out.hits / out.accesses
        if args.workload == "sim-phase":
            detail["misses"] = sorted(set(wl.misses))  # one value: the seed's exact run
        problems += checks
        result = {
            "correct": not problems,
            "attempted": attempted + len(checks),
            "failed": failed + len(checks),
            "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
        }
        detail["problems"] = problems[:20]
        return result, detail
    finally:
        await wl.teardown()


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (imported here so set-up time includes it)

    from repro.service.loop import install_best_event_loop
    import layers  # noqa: F401
    import workloads  # noqa: F401
    from measure import host_probe_ms, provenance

    event_loop = install_best_event_loop()
    import_s = time.perf_counter() - T_START
    probe_before = host_probe_ms()
    result, detail = asyncio.run(run(args, import_s))
    detail["host_probe_ms"] = {"before": probe_before, "after": host_probe_ms()}
    detail["provenance"] = provenance(event_loop)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, scale=args.scale)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
