"""Timing, statistics, provenance and span aggregation shared by the workloads.

Nothing here imports the program under test at module level except
through the functions that need it, so ``run.py`` can time the imports
that belong to set-up.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

#: root of the checkout the benchmark runs from (the parent of this directory)
ROOT = Path(__file__).resolve().parent.parent


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n*q/100), at least 1
    return ordered[int(rank) - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms(rounds: int = 5) -> float:
    """A fixed pure-Python loop, median of ``rounds`` timings, in ms.

    Not a metric: printed before and after each workload so a reader can
    tell a slower host apart from a slower program.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return round(median(times) * 1e3, 3)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(event_loop: str) -> dict[str, Any]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas_name = "unknown"
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = []
    return {
        "cpus": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": np.__version__,
        "blas": blas_name,
        "event_loop": event_loop,
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def timer_overhead_ns(rounds: int = 20_000) -> float:
    """Cost of one empty ``perf_counter_ns`` pair, subtracted from per-call timings."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(5):
        total = 0
        for _ in range(rounds):
            t0 = clock()
            total += clock() - t0
        samples.append(total / rounds)
    return min(samples)


def per_call_us(fn, inputs: Sequence[Any], repeats: int = 3) -> float:
    """Mean µs per ``fn(x)`` over ``inputs``; median of ``repeats`` passes."""
    if not inputs:
        return 0.0
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in inputs:
            fn(x)
        passes.append((time.perf_counter() - t0) / len(inputs))
    return median(passes) * 1e6


class SelfTimeSink:
    """In-memory span sink that folds each finished trace into self times.

    A span's self time is its duration minus the part of its interval
    that its descendants cover. Traces are folded when their root span
    arrives (the client's root ends last), so memory stays bounded by the
    traces in flight rather than growing with the run.
    """

    def __init__(self) -> None:
        self._open: dict[str, list[dict[str, Any]]] = {}
        self.self_us: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.traces = 0
        self.late = 0
        self._closed: set[str] = set()

    def emit(self, record: dict[str, Any]) -> None:
        if record.get("ev") != "span":
            return
        trace = record["trace"]
        if trace in self._closed:
            self.late += 1
            return
        self._open.setdefault(trace, []).append(record)
        if "parent" not in record:
            self._fold(self._open.pop(trace))
            self._closed.add(trace)
            self.traces += 1

    def _fold(self, spans: list[dict[str, Any]]) -> None:
        children: dict[str, list[dict[str, Any]]] = {}
        for sp in spans:
            parent = sp.get("parent")
            if parent is not None:
                children.setdefault(parent, []).append(sp)
        for sp in spans:
            start, end = sp["ts"], sp["ts"] + sp["us"]
            covered = []
            stack = list(children.get(sp["span"], ()))
            while stack:
                child = stack.pop()
                lo, hi = max(start, child["ts"]), min(end, child["ts"] + child["us"])
                if hi > lo:
                    covered.append((lo, hi))
                stack.extend(children.get(child["span"], ()))
            name = sp["name"]
            self.self_us[name] = self.self_us.get(name, 0.0) + sp["us"] - _union(covered)
            self.counts[name] = self.counts.get(name, 0) + 1

    def mean_self_us(self, name: str) -> float:
        count = self.counts.get(name, 0)
        return self.self_us[name] / count if count else 0.0


def _union(intervals: list[tuple[int, int]]) -> int:
    total = 0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total
