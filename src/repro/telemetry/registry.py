"""The metrics side of the telemetry subsystem.

A :class:`MetricsRegistry` hands out instruments keyed by ``(name, labels)``
where labels are free-form keyword pairs — by convention every instrument in
the WHISPER stack carries ``node`` (the owning node id, when applicable) and
``layer`` (``"sim"``, ``"net"``, ``"nat"``, ``"pss"``, ``"wcl"``, ``"ppss"``,
``"crypto"``).  Instruments are cached: asking twice for the same key
returns the same object, so hot paths can pre-fetch them.

A registry created with ``enabled=False`` hands out the shared no-op
singletons and stores nothing; the query surface then reports empty.
"""

from __future__ import annotations

from typing import Iterator

from ..metrics.stats import percentile
from .instruments import (
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
)

__all__ = ["MetricsRegistry"]

LabelKey = tuple[tuple[str, object], ...]
MetricKey = tuple[str, LabelKey]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted(labels.items(), key=lambda kv: kv[0]))


class MetricsRegistry:
    """Counters, gauges and histograms, namespaced by name + labels."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[MetricKey, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    # instrument handles
    # ------------------------------------------------------------------
    def _get(self, factory, noop, name: str, labels: dict[str, object]):
        if not self.enabled:
            return noop
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, key[1])
            self._metrics[key] = metric
        elif not isinstance(metric, factory):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} already registered as "
                f"{metric.kind}, requested {factory.kind}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, NOOP_COUNTER, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, NOOP_GAUGE, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, NOOP_HISTOGRAM, name, labels)

    # ------------------------------------------------------------------
    # query surface
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics)

    def items(self) -> Iterator[tuple[MetricKey, Counter | Gauge | Histogram]]:
        """All instruments in deterministic (name, labels) order."""
        return iter(sorted(self._metrics.items(), key=lambda kv: _sort_key(kv[0])))

    def collect(self, name: str) -> dict[LabelKey, Counter | Gauge | Histogram]:
        """Every instrument registered under ``name``, keyed by its labels."""
        return {
            labels: metric
            for (metric_name, labels), metric in self._metrics.items()
            if metric_name == name
        }

    def aggregate(
        self,
        name: str,
        percentiles: tuple[float, ...] = (50.0, 90.0, 99.0),
    ) -> dict[str, float]:
        """Merge every instrument under ``name`` into one summary.

        Counters/gauges aggregate to ``{"count": instruments, "sum": total}``;
        histograms pool their raw samples and add min/max plus the requested
        percentile grid (keys ``"p50"`` etc.).  Returns ``{}`` when nothing
        was recorded under the name.
        """
        metrics = self.collect(name)
        if not metrics:
            return {}
        kinds = {m.kind for m in metrics.values()}
        if kinds == {"histogram"}:
            # count/sum/min/max are exact even past the reservoir cap; the
            # percentile grid pools the retained samples (exact until a
            # histogram saturates, an unbiased estimate afterwards).
            samples: list[float] = []
            count = 0
            total = 0.0
            lows: list[float] = []
            highs: list[float] = []
            for metric in metrics.values():
                samples.extend(metric.samples)  # type: ignore[union-attr]
                count += metric.count
                total += metric.sum
                if metric.min is not None:  # type: ignore[union-attr]
                    lows.append(metric.min)  # type: ignore[union-attr]
                    highs.append(metric.max)  # type: ignore[union-attr]
            summary = {"count": count, "sum": total}
            if samples:
                summary["min"] = min(lows)
                summary["max"] = max(highs)
                for q in percentiles:
                    summary[f"p{q:g}"] = percentile(samples, q)
            return summary
        return {
            "count": len(metrics),
            "sum": sum(m.value for m in metrics.values()),  # type: ignore[union-attr]
        }


def _sort_key(key: MetricKey) -> tuple[str, str]:
    name, labels = key
    return name, repr(labels)
