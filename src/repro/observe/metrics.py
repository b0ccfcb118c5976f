"""Counters, gauges, and histograms with per-rank labels.

A :class:`MetricsRegistry` is a flat namespace of named metrics, each
distinguished by a frozen label set (``rank=0``, ``device="gcd1"``,
...). Instrumented layers get-or-create their metrics on every event —
creation is a dict lookup after the first call — so registries can be
queried at any time and merged across ranks at the end of a run.

Merge semantics (:meth:`MetricsRegistry.merge`):

- counters add,
- gauges keep the most recently set value,
- histograms pool their samples.

Every metric carries its labels; :meth:`MetricsRegistry.to_json`
produces the flat machine-readable record the CLI writes as
``--metrics-out`` and the workflow embeds into its FAIR provenance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.util.errors import ObserveError

#: label set, frozen for use as a dict key: (("rank", "0"), ...)
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count (messages, bytes, launches)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObserveError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (allocated bytes, queue depth)."""

    name: str
    labels: LabelKey = ()
    value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """A sample distribution (kernel durations, JIT compile costs)."""

    name: str
    labels: LabelKey = ()
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    @property
    def mean(self) -> float:
        if not self.samples:
            raise ObserveError(f"histogram {self.name!r} has no samples")
        return self.total / len(self.samples)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` in [0, 100]."""
        if not self.samples:
            raise ObserveError(f"histogram {self.name!r} has no samples")
        if not 0 <= q <= 100:
            raise ObserveError(f"percentile {q} outside [0, 100]")
        ordered = sorted(self.samples)
        rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
        return ordered[rank]

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, ``q`` in [0, 1] (see :meth:`percentile`).

        A single-sample histogram returns that sample for every ``q``,
        and the endpoints are exact: ``quantile(0)`` is the minimum,
        ``quantile(1)`` the maximum.
        """
        if not 0 <= q <= 1:
            raise ObserveError(f"quantile {q} outside [0, 1]")
        return self.percentile(q * 100)

    def summary(self) -> dict:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": min(self.samples),
            "max": max(self.samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe flat registry of counters/gauges/histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (kind, name, label key) -> metric
        self._metrics: dict[tuple[str, str, LabelKey], object] = {}
        #: name -> kind, to reject one name used as two kinds
        self._kinds: dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: dict):
        key = (kind, name, _label_key(labels))
        with self._lock:
            known = self._kinds.setdefault(name, kind)
            if known != kind:
                raise ObserveError(
                    f"metric {name!r} already registered as a {known}, "
                    f"requested as a {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = _KINDS[kind](name=name, labels=key[2])
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def all_metrics(self) -> list:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def counters(self) -> list[Counter]:
        return [m for m in self.all_metrics() if isinstance(m, Counter)]

    def gauges(self) -> list[Gauge]:
        return [m for m in self.all_metrics() if isinstance(m, Gauge)]

    def histograms(self) -> list[Histogram]:
        return [m for m in self.all_metrics() if isinstance(m, Histogram)]

    def counter_value(self, name: str, **labels) -> float:
        """Sum of a counter over every label set matching ``labels``."""
        want = dict(_label_key(labels))
        total = 0.0
        for metric in self.counters():
            if metric.name != name:
                continue
            have = dict(metric.labels)
            if all(have.get(k) == v for k, v in want.items()):
                total += metric.value
        return total

    # -- cross-rank merge -------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (returns self)."""
        for metric in other.all_metrics():
            labels = dict(metric.labels)
            if isinstance(metric, Counter):
                self.counter(metric.name, **labels).inc(metric.value)
            elif isinstance(metric, Gauge):
                if metric.value is not None:
                    self.gauge(metric.name, **labels).set(metric.value)
            elif isinstance(metric, Histogram):
                self.histogram(metric.name, **labels).samples.extend(
                    metric.samples
                )
        return self

    @classmethod
    def merged(cls, registries) -> "MetricsRegistry":
        out = cls()
        for registry in registries:
            out.merge(registry)
        return out

    # -- export -----------------------------------------------------------
    def to_json(self) -> dict:
        """Machine-readable snapshot (the ``--metrics-out`` schema)."""
        counters = [
            {"name": m.name, "labels": dict(m.labels), "value": m.value}
            for m in self.counters()
        ]
        gauges = [
            {"name": m.name, "labels": dict(m.labels), "value": m.value}
            for m in self.gauges()
        ]
        histograms = [
            {"name": m.name, "labels": dict(m.labels), **m.summary()}
            for m in self.histograms()
        ]
        return {
            "schema": "repro.observe.metrics/1",
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def summary(self) -> dict:
        """Compact ``name{labels} -> value`` map for provenance records."""
        out: dict[str, float | dict] = {}
        for metric in self.all_metrics():
            labels = ",".join(f"{k}={v}" for k, v in metric.labels)
            key = f"{metric.name}{{{labels}}}" if labels else metric.name
            if isinstance(metric, Histogram):
                out[key] = metric.summary()
            else:
                out[key] = metric.value
        return out

    def render(self, title: str = "metrics") -> str:
        from repro.util.tables import Table

        table = Table(["metric", "labels", "value"], title=title)
        for metric in self.all_metrics():
            labels = ", ".join(f"{k}={v}" for k, v in metric.labels)
            if isinstance(metric, Histogram):
                if metric.count:
                    value = (
                        f"n={metric.count} mean={metric.mean:.3g} "
                        f"p95={metric.percentile(95):.3g}"
                    )
                else:
                    value = "n=0"
            else:
                value = metric.value
            table.add_row([metric.name, labels, value])
        return table.render()
