"""Metrics: counters, gauges and histograms with a no-op fast path.

The registry is *pull-friendly*: hot components (the TCG engine, shadow
memory, the sanitizer runtimes) keep their existing plain-int counters
and the observability layer harvests them at coarse boundaries (target
refresh, campaign end), so an enabled registry adds no per-access work
and a disabled one adds none at all.  Components that have no natural
counter of their own (the campaign loop, the fleet supervisor) hold an
instrument handle instead; when observability is off that handle is the
module-level :data:`NULL_METRIC` singleton, whose methods discard their
arguments — the "no-op fast path" that keeps disabled cost at one
attribute load and an empty call per coarse event.

Metric names are dotted, lowercase, ``component.thing`` (see
``docs/observability.md`` for the full catalog).  Counters are
monotonic within one registry; gauges are last-write-wins; histograms
bucket non-negative samples against fixed upper bounds.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: JSON schema tag written by :meth:`MetricsRegistry.to_json`.
SCHEMA = "repro-metrics/1"

#: default histogram bucket upper bounds (milliseconds-flavoured, but
#: any non-negative quantity works); the implicit +inf bucket is last.
DEFAULT_BUCKETS = (
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram of non-negative samples."""

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(bounds)
        # one slot per bound plus the +inf overflow bucket
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample into its bucket."""
        idx = 0
        for bound in self.bounds:
            if value <= bound:
                break
            idx += 1
        self.counts[idx] += 1
        self.total += value
        self.count += 1

    def to_json(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class _NullMetric:
    """Shared do-nothing instrument: the disabled-observability handle.

    One instance (:data:`NULL_METRIC`) stands in for every counter,
    gauge and histogram when no registry is active, so instrumented
    call sites never branch — they call ``inc``/``set``/``observe`` on
    whatever handle they hold and the disabled case discards it.
    """

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: module-level no-op instrument; identity-comparable (``is NULL_METRIC``).
NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """A namespace of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # instrument access (get-or-create; names are the identity)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    # ------------------------------------------------------------------
    # export / merge
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain ``{name: value}`` view (histograms as dicts)."""
        out: Dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.to_json()
        return out

    def to_json(self) -> dict:
        """Typed JSON document (the ``--metrics FILE`` payload)."""
        counters = {}
        for name, counter in sorted(self._counters.items()):
            counters[name] = counter.value
        gauges = {}
        for name, gauge in sorted(self._gauges.items()):
            gauges[name] = gauge.value
        histograms = {}
        for name, histogram in sorted(self._histograms.items()):
            histograms[name] = histogram.to_json()
        return {
            "schema": SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_json(self, data: dict) -> None:
        """Fold a :meth:`to_json` document (e.g. from a fleet worker)
        into this registry: counters sum, gauges take the incoming
        value, histograms merge bucket-wise when their bounds agree.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in data.get("histograms", {}).items():
            histogram = self.histogram(name, tuple(payload["bounds"]))
            if histogram.bounds != tuple(payload["bounds"]):
                # incompatible shape: keep the coarse aggregates only
                histogram.total += payload["sum"]
                histogram.count += payload["count"]
                continue
            for idx, count in enumerate(payload["counts"]):
                histogram.counts[idx] += count
            histogram.total += payload["sum"]
            histogram.count += payload["count"]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


def format_metrics(data: dict, indent: str = "  ") -> str:
    """Human-readable rendering of a :meth:`MetricsRegistry.to_json`
    document, grouped by the metric name's leading component."""
    groups: Dict[str, List[str]] = {}

    def _add(name: str, rendered: str) -> None:
        group = name.split(".", 1)[0]
        groups.setdefault(group, []).append(rendered)

    for name, value in data.get("counters", {}).items():
        if "centicycles" in name:
            # exact centi-cycle counters read as cycles
            name = name.replace("centicycles", "cycles")
            _add(name, f"{indent}{name:40s} {value / 100:>14,.2f}")
        else:
            _add(name, f"{indent}{name:40s} {value:>14,}")
    for name, value in data.get("gauges", {}).items():
        _add(name, f"{indent}{name:40s} {value:>14,.6g} (gauge)")
    for name, payload in data.get("histograms", {}).items():
        count = payload["count"]
        mean = payload["sum"] / count if count else 0.0
        stat = f"{count:>14,} samples, mean {mean:.3f}"
        _add(name, f"{indent}{name:40s} {stat}")
    lines: List[str] = []
    for group in sorted(groups):
        lines.append(f"{group}:")
        lines.extend(sorted(groups[group]))
    return "\n".join(lines)
