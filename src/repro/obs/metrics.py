"""Named instruments — counters, gauges, log-linear histograms — and a
registry that collects them for Prometheus exposition.

The instruments are deliberately plain objects mutated without locks:
everything in this library runs on one thread (the simulator) or one
asyncio event loop (the service), so a counter is an attribute add, a
histogram record is one ``bisect`` — cheap enough for hot paths.

:class:`Histogram` is the one percentile implementation in the library
(the service's ``LatencyHistogram`` is a thin unit-presenting subclass):
log-linear buckets in the HDR-histogram style — each power-of-two octave
above a base value split into 32 equal sub-buckets — so a record is one
``bisect``, memory is bounded, and a percentile overestimates by at most
1/32 of the true value. Histograms of one shape :meth:`~Histogram.merge`
exactly. The octave edges double as the cumulative ``le`` buckets
Prometheus histograms need — :meth:`Histogram.buckets` returns them.

:class:`MetricsRegistry` maps ``(name, labels)`` to instruments,
get-or-create style, and :meth:`MetricsRegistry.collect` flattens
everything into :class:`MetricFamily` rows that
:mod:`repro.obs.exposition` renders as Prometheus text.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Sample",
    "MetricFamily",
    "MetricsRegistry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelSet = tuple[tuple[str, str], ...]


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counters only go up; inc({amount}) rejected")
        self.value += amount


class Gauge:
    """A value that can go anywhere."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


#: Linear sub-buckets per octave; bounds a percentile's relative error at 1/32.
SUB_BUCKETS = 32


@lru_cache(maxsize=None)
def _bucket_bounds(base: float, num_buckets: int) -> tuple[float, ...]:
    """Upper bounds of every finite bucket: ``base``, then each octave
    ``[base·2^(i-1), base·2^i)`` cut into :data:`SUB_BUCKETS` equal widths.

    Each octave edge is written as ``base * 2**i`` itself, so the edges
    :meth:`Histogram.buckets` reports are exact, not summed steps.
    """
    bounds = [base]
    for i in range(1, num_buckets):
        lo, hi = base * (1 << (i - 1)), base * (1 << i)
        step = (hi - lo) / SUB_BUCKETS
        bounds.extend(lo + j * step for j in range(1, SUB_BUCKETS))
        bounds.append(hi)
    return tuple(bounds)


class Histogram:
    """Log-linear histogram of non-negative values.

    Octave edges sit at ``base * 2**i`` for ``i = 0 .. num_buckets-1``
    (default 1e-6 … ~8.4, i.e. 1 µs … ~8.4 s when values are seconds).
    Everything below ``base`` shares one bucket; each octave above it is
    split into :data:`SUB_BUCKETS` equal-width sub-buckets; values at or
    beyond the last edge land in a final overflow bucket whose exposition
    bound is ``+Inf``. A value equal to a bound counts in the bucket above
    it, as in the earlier log₂ layout, so the octave counts are unchanged.

    :meth:`percentile` reports ``min(upper bound of the rank's
    sub-bucket, max)``: an overestimate by at most 1/32 of the true value
    (the right bias for alerting) that never exceeds the observed
    maximum. :meth:`buckets` reports only the octave edges, so the
    Prometheus ``le`` layout is the plain powers of two. :meth:`merge`
    folds in another histogram of the same shape.
    """

    kind = "histogram"

    def __init__(self, *, base: float = 1e-6, num_buckets: int = 24):
        if base <= 0 or num_buckets < 1:
            raise ConfigurationError(
                f"bad histogram shape: base={base}, num_buckets={num_buckets}"
            )
        self._bounds = _bucket_bounds(base, num_buckets)
        self._counts = [0] * (len(self._bounds) + 1)  # +1 overflow bucket
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = max(0.0, value)
        self._counts[bisect_right(self._bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    #: service-layer alias, kept for the original LatencyHistogram API
    record = observe

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> list[int]:
        """Running totals of the bucket counts, overflow bucket last.

        :meth:`percentile` and :meth:`buckets` build this on every call;
        a caller that asks for several views of one unchanged histogram
        builds it once and passes it to each.
        """
        if not self.count:
            return [0] * len(self._counts)
        return list(accumulate(self._counts))

    def percentile(self, q: float, cumulative: list[int] | None = None) -> float:
        """Nearest-rank ``q``-quantile (q in [0,1]), rounded up to its
        sub-bucket's upper bound and capped at :attr:`max`.

        ``q=0`` is rank 1, ``q=1`` the largest value; ranks in the
        overflow bucket return :attr:`max`. ``cumulative`` is
        :meth:`cumulative`, if the caller already has it.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0,1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.5))
        if cumulative is None:
            cumulative = self.cumulative()
        i = bisect_left(cumulative, rank)
        return min(self._bounds[i], self.max) if i < len(self._bounds) else self.max

    def buckets(self, cumulative: list[int] | None = None) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count_le_bound)`` pairs at the octave
        edges, Prometheus-style.

        The final pair has bound ``inf`` and count equal to :attr:`count`
        (the overflow bucket folded in). ``cumulative`` is as for
        :meth:`percentile`.
        """
        if cumulative is None:
            cumulative = self.cumulative()
        out = [
            (self._bounds[i], cumulative[i])
            for i in range(0, len(self._bounds), SUB_BUCKETS)
        ]
        out.append((float("inf"), self.count))
        return out

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s observations into this histogram; returns self.

        Both must have the same ``base`` and ``num_buckets``.
        """
        if other._bounds != self._bounds:
            raise ConfigurationError("cannot merge histograms of different shapes")
        self._counts = list(map(add, self._counts, other._counts))
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        return self


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``<family.name><suffix>{labels} value``."""

    suffix: str
    labels: LabelSet
    value: float


@dataclass(frozen=True)
class MetricFamily:
    """All samples of one metric name, with its type and help text."""

    name: str
    kind: str
    help: str
    samples: tuple[Sample, ...]


def _label_key(labels: Mapping[str, str] | None) -> LabelSet:
    if not labels:
        return ()
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ConfigurationError(f"invalid label name {k!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create instrument store, keyed by ``(name, labels)``.

    One *family* (a metric name) holds one kind and one help string, and
    any number of label sets, each with its own instrument::

        reg = MetricsRegistry()
        reg.counter("repro_hits_total", "policy-access hits").inc()
        reg.histogram("repro_op_latency_seconds", "per-op latency",
                      labels={"op": "get"}).observe(3.2e-5)
        text = reg.render()

    Re-requesting an existing ``(name, labels)`` returns the same
    instrument; re-requesting a name with a different kind raises.
    """

    def __init__(self) -> None:
        # name -> (kind, help, {label_key: instrument})
        self._families: dict[str, tuple[str, str, dict[LabelSet, Any]]] = {}

    # -- get-or-create ------------------------------------------------------
    def counter(
        self, name: str, help: str = "", *, labels: Mapping[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(name, help, labels, Counter)

    def gauge(
        self, name: str, help: str = "", *, labels: Mapping[str, str] | None = None
    ) -> Gauge:
        return self._get_or_create(name, help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
        base: float = 1e-6,
        num_buckets: int = 24,
    ) -> Histogram:
        return self._get_or_create(
            name, help, labels, lambda: Histogram(base=base, num_buckets=num_buckets)
        )

    def register(
        self,
        name: str,
        instrument: Counter | Gauge | Histogram,
        help: str = "",
        *,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        """Attach an *existing* instrument (e.g. a live service histogram).

        This is how the service exposes its loop-local instruments
        without copying them: register, then :meth:`collect` reads the
        live values at scrape time.
        """
        family = self._family(name, instrument.kind, help)
        family[_label_key(labels)] = instrument

    # -- collection ---------------------------------------------------------
    def collect(self) -> list[MetricFamily]:
        """Flatten every instrument into exposition-ready families.

        Counters and gauges yield one sample per label set; histograms
        expand into cumulative ``_bucket`` samples (with ``le`` labels),
        plus ``_sum`` and ``_count``.
        """
        families: list[MetricFamily] = []
        for name, (kind, help, instruments) in self._families.items():
            samples: list[Sample] = []
            for labels, instrument in instruments.items():
                if kind == "histogram":
                    samples.extend(_histogram_samples(labels, instrument))
                else:
                    samples.append(Sample("", labels, float(instrument.value)))
            families.append(MetricFamily(name, kind, help, tuple(samples)))
        return families

    def render(self) -> str:
        """Prometheus text exposition of everything registered."""
        from repro.obs.exposition import render_prometheus

        return render_prometheus(self.collect())

    # -- internals ----------------------------------------------------------
    def _family(self, name: str, kind: str, help: str) -> dict[LabelSet, Any]:
        if not _NAME_RE.match(name):
            raise ConfigurationError(f"invalid metric name {name!r}")
        existing = self._families.get(name)
        if existing is None:
            instruments: dict[LabelSet, Any] = {}
            self._families[name] = (kind, help, instruments)
            return instruments
        if existing[0] != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {existing[0]}, cannot re-register as {kind}"
            )
        if help and not existing[1]:
            self._families[name] = (kind, help, existing[2])
            return existing[2]
        return existing[2]

    def _get_or_create(self, name, help, labels, factory) -> Any:
        kind = factory.kind if isinstance(factory, type) else "histogram"
        family = self._family(name, kind, help)
        key = _label_key(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = factory()
        return instrument


def _histogram_samples(labels: LabelSet, hist: Histogram) -> Iterable[Sample]:
    for bound, cumulative in hist.buckets():
        le = ("le", "+Inf" if bound == float("inf") else _format_bound(bound))
        yield Sample("_bucket", labels + (le,), float(cumulative))
    yield Sample("_sum", labels, hist.total)
    yield Sample("_count", labels, float(hist.count))


def _format_bound(bound: float) -> str:
    # repr round-trips through float() exactly, which the parser relies on
    return repr(bound)
