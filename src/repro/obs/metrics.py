"""Named-metric registry: counters, gauges, histograms, series.

The registry is the machine-readable side of the observability layer:
every quantity the paper tabulates (quartets computed/screened, FI/FJ
flushes, reduce bytes, DLB grants per rank, race checks) lives here as
a named metric, optionally labelled (``counter("dlb.grants", rank=3)``).

:class:`~repro.core.fock_base.FockBuildStats` is a thin attribute view
over one registry per Fock build; a globally installed registry
(:func:`use_metrics`) additionally accumulates run-level totals from
the DLB, DDI, reduction, and perfsim layers.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator, Sequence

LabelKey = tuple[tuple[str, Any], ...]

#: Default histogram bucket upper bounds (seconds-flavoured exponential
#: ladder, microseconds to minutes) — wide enough for both per-quartet
#: kernel timings and whole-job service latencies.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


class Counter:
    """Monotonically incremented (but settable) numeric metric."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def set(self, value: int | float) -> None:
        self.value = value

    def snapshot(self) -> int | float:
        return self.value


class Gauge:
    """Last-value metric."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value: int | float | None = None

    def set(self, value: int | float) -> None:
        self.value = value

    def snapshot(self) -> int | float | None:
        return self.value


class Histogram:
    """Streaming distribution summary with fixed-boundary buckets.

    The mean and variance are maintained with Welford's online update,
    so the spread is available without storing the observations — the
    imbalance metrics report standard deviation, not just min/max.

    Observations are additionally binned against a fixed ladder of
    upper bounds (:data:`DEFAULT_BUCKETS` unless overridden), which
    gives :meth:`quantile` estimates by linear interpolation inside
    the bracketing bucket and drives the Prometheus ``_bucket``/``le``
    exposition — all in O(len(buckets)) memory, never O(count).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_mean", "_m2", "buckets", "bucket_counts")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Sequence[float] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._mean = 0.0
        self._m2 = 0.0
        self.buckets: tuple[float, ...] = tuple(
            sorted(DEFAULT_BUCKETS if buckets is None else buckets))
        # One slot per boundary plus the +Inf overflow slot.
        self.bucket_counts: list[int] = [0] * (len(self.buckets) + 1)

    def set_buckets(self, buckets: Sequence[float]) -> None:
        """Replace the bucket ladder; only legal before any observation."""
        if self.count:
            raise ValueError(
                f"histogram {self.name!r} already has {self.count} "
                "observations; buckets are fixed at first use")
        self.buckets = tuple(sorted(buckets))
        self.bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: int | float) -> None:
        v = float(value)
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        delta = v - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (v - self._mean)
        self.bucket_counts[bisect_left(self.buckets, v)] += 1

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Population variance of the observations (0.0 when empty)."""
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the observations."""
        return math.sqrt(max(self.variance, 0.0))

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        cum = 0
        for le, n in zip(self.buckets, self.bucket_counts):
            cum += n
            out.append((le, cum))
        out.append((math.inf, self.count))
        return out

    def quantile(self, q: float) -> float | None:
        """Estimated q-quantile (0 ≤ q ≤ 1) from the bucket counts.

        Linear interpolation inside the bracketing bucket, clamped to
        the observed ``[min, max]`` so the estimate never invents mass
        outside the data.  ``None`` when the histogram is empty.
        """
        if not self.count:
            return None
        q = min(max(float(q), 0.0), 1.0)
        target = q * self.count
        cum = 0.0
        for i, n in enumerate(self.bucket_counts):
            if not n:
                continue
            prev_cum = cum
            cum += n
            if cum >= target:
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = (self.buckets[i] if i < len(self.buckets)
                      else (self.max if self.max is not None else lo))
                if self.min is not None:
                    lo = max(lo, self.min)
                if self.max is not None:
                    hi = min(hi, self.max)
                if hi < lo:
                    hi = lo
                frac = (target - prev_cum) / n
                return lo + (hi - lo) * frac
        return self.max

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "std": self.std,
            "buckets": [
                ["+Inf" if math.isinf(le) else le, cum]
                for le, cum in self.cumulative_buckets()
            ],
        }


class Series(list):
    """A list-valued metric (e.g. per-rank quartet counts, in rank order)."""

    kind = "series"

    def __init__(self, name: str, labels: LabelKey) -> None:
        super().__init__()
        self.name = name
        self.labels = labels

    def snapshot(self) -> list:
        return list(self)


Metric = Counter | Gauge | Histogram | Series


def _format_key(name: str, labels: LabelKey) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Keyed store of metrics, created on first access.

    ``registry.counter("dlb.grants", rank=2).inc()`` creates the
    labelled counter on first use and reuses it afterwards; asking for
    an existing key with a different metric kind is an error.
    """

    _KINDS = {
        "counter": Counter,
        "gauge": Gauge,
        "histogram": Histogram,
        "series": Series,
    }

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}

    def _get_or_create(self, kind: str, name: str, labels: dict[str, Any]) -> Metric:
        key = (name, tuple(sorted(labels.items())) if labels else ())
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._KINDS[kind](name, key[1])
            self._metrics[key] = metric
        elif metric.kind != kind:
            raise TypeError(
                f"metric {_format_key(name, key[1])!r} already registered "
                f"as a {metric.kind}, requested as a {kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create("counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create("gauge", name, labels)

    def histogram(
        self,
        name: str,
        *,
        buckets: Sequence[float] | None = None,
        **labels: Any,
    ) -> Histogram:
        metric = self._get_or_create("histogram", name, labels)
        if buckets is not None and not metric.count:
            metric.set_buckets(buckets)
        return metric

    def series(self, name: str, **labels: Any) -> Series:
        return self._get_or_create("series", name, labels)

    # -- inspection ----------------------------------------------------------

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """Flat ``{"name{label=v}": value}`` view, key-sorted.

        Deterministic for deterministic instrumentation — the test
        suite diffs snapshots across repeated runs.  Sorting is on the
        *formatted* key string: raw label tuples are not orderable when
        label values mix types (``rank=3`` vs ``rank="io"``).
        """
        return {
            _format_key(m.name, m.labels): m.snapshot()
            for m in sorted(
                self._metrics.values(),
                key=lambda m: _format_key(m.name, m.labels),
            )
        }

    def records(self) -> Iterator[dict[str, Any]]:
        """One JSON-ready record per metric (the NDJSON export unit)."""
        for m in sorted(
            self._metrics.values(),
            key=lambda m: _format_key(m.name, m.labels),
        ):
            yield {
                "metric": m.name,
                "kind": m.kind,
                "labels": dict(m.labels),
                "value": m.snapshot(),
            }


_current_metrics: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    """The globally installed registry, or ``None`` (metering off)."""
    return _current_metrics


def set_metrics(registry: MetricsRegistry | None) -> None:
    """Install a global registry; ``None`` disables run-level metering."""
    global _current_metrics
    _current_metrics = registry


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` for the duration of a ``with`` block."""
    previous = _current_metrics
    set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
