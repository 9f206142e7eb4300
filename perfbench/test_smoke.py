"""Tiny-size smoke test of the benchmark.

    python -m pytest perfbench/test_smoke.py -q

Runs every workload at ``--scale tiny`` in both modes and checks the
result line against ``BENCHMARK.json``; then shows that a second seed
changes the inputs but not the metric names, and that corrupted results
fail the checks.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:] + proc.stdout[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    result, _ = run_bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_second_seed_changes_inputs_not_names():
    a, b, again = (workloads.SimPhase(workloads.TINY, s) for s in (1, 2, 1))
    for wl in (a, b, again):
        wl.build_trace()
    assert not (a.trace == b.trace).all()
    assert (a.trace == again.trace).all()
    p, q = workloads.ServeBatch(workloads.TINY, 1), workloads.ServeBatch(workloads.TINY, 2)
    p.build_keys()
    q.build_keys()
    assert p.streams[0] != q.streams[0] and p.values != q.values
    for workload in WORKLOADS:
        first, _ = run_bench(workload, 1, 0)
        second, _ = run_bench(workload, 2, 0)
        assert second["correct"] is True
        assert list(second["metrics"]) == list(first["metrics"])


def test_corrupted_mget_fails_the_check():
    values = [workloads.value_of(k, 7) for k in range(8)]
    keys = [1, 2, 3]
    good = {"ok": True, "hits": [True, False, True], "values": [values[1], None, None]}
    assert workloads.check_mget(keys, good, values) is None
    flipped = dict(good, hits=[True, False, False], values=[values[1], None, values[3]])
    assert "missed but carried" in workloads.check_mget(keys, flipped, values)
    wrong = dict(good, values=[values[2], None, None])
    assert "expected" in workloads.check_mget(keys, wrong, values)
    short = dict(good, hits=[True, False])
    assert "answered" in workloads.check_mget(keys, short, values)


def test_wrong_served_value_fails_the_run():
    async def scenario():
        wl = workloads.ServePoint(workloads.TINY, 3)
        await wl.setup()
        try:
            hot = {k for k in wl.streams[0][:200]}
            for key in hot:
                await wl.clients[0].put(key, "corrupt")
            return await wl.timed(0.3)
        finally:
            await wl.teardown()

    out = asyncio.run(scenario())
    assert out.failed > 0
    assert any("expected" in p for p in out.problems)


def test_flipped_kernel_hit_fails_the_check():
    ref = [True, False, True, True]
    assert workloads.compare_hits(list(ref), ref) is None
    flipped = [True, False, False, True]
    assert "access 2" in workloads.compare_hits(flipped, ref)


def test_varying_sim_miss_count_fails_the_check():
    wl = workloads.SimPhase(workloads.TINY, 1)
    wl.build_trace()
    wl.misses = [100, 100]
    assert asyncio.run(wl.check()) == []
    wl.misses = [100, 101]
    assert any("varies" in p for p in asyncio.run(wl.check()))
