"""Measure every workload over several seeds and write the baseline file.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For each workload: ``--runs`` timed runs (``--trace 0``, seeds 1..N) give
each end-to-end metric's median and spread (the distance between the
first and third quartile over the median), and one traced run
(``--trace 1``) gives the per-layer metrics and the per-operation budget.
Runs are sequential: each is a separate process, waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}{proc.stdout}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    report: dict = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in (w["name"] for w in contract["workloads"]):
        metrics: dict[str, list[float]] = {}
        probes = []
        for seed in range(1, args.runs + 1):
            result, detail = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {detail['problems']}")
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
            probes.append(detail["host_probe_ms"])
            report["provenance"] = detail["provenance"]
            print(workload, seed, {k: round(v[-1], 4) for k, v in metrics.items()}, flush=True)
        traced, detail = run_once(workload, 1, seconds, 1)
        if not traced["correct"]:
            raise SystemExit(f"{workload} traced run: {detail['problems']}")
        report["workloads"][workload] = {
            "end_to_end": {name: summarize(v) for name, v in metrics.items()},
            "host_probe_ms": probes,
            "per_layer": {name: e["value"] for name, e in traced["metrics"].items()},
            "budget": detail.get("budget"),
            "traced_samples": detail["samples"],
        }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, entry in report["workloads"].items():
        for name, s in entry["end_to_end"].items():
            print(f"{workload:12s} {name:12s} median {s['median']:14.4f} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
