"""The metrics registry: named counters, gauges and sim-time histograms.

Components register instruments once (at construction) and mutate them on
the hot path; the registry renders a deterministic snapshot on demand.
Instruments are identified by a metric name plus a sorted label set, e.g.
``switch.packets_received{switch=R1}`` — the flat naming production SDN
controllers expose, so a run summary can be grepped and diffed.

Determinism contract: snapshots never contain wall-clock quantities, and
every mapping is emitted in sorted key order, so equal runs serialise to
byte-identical JSON regardless of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DELAY_BUCKETS_S",
]

#: Fixed bucket edges (seconds) for end-to-end and control-plane delays:
#: 100 us .. 1 s in 1-2.5-5 steps, bracketing the paper's ~1 ms regime.
DELAY_BUCKETS_S: tuple[float, ...] = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1.0,
)

class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket histogram of sim-time observations.

    ``edges`` are the inclusive upper bounds of the first ``len(edges)``
    buckets; one overflow bucket catches everything above the last edge.
    Fixed edges keep snapshots of different runs structurally comparable.
    """

    __slots__ = ("edges", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, edges: Iterable[float]) -> None:
        self.edges = tuple(sorted(edges))
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.bucket_counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def reset(self) -> None:
        """Zero in place so held references stay valid across resets."""
        self.bucket_counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the q-quantile (1.0 past the last edge
        returns the observed maximum)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for edge, n in zip(self.edges, self.bucket_counts):
            seen += n
            if seen >= target:
                return edge
        return self.max if self.max is not None else self.edges[-1]

    def snapshot(self) -> dict:
        return {
            "edges": list(self.edges),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


def _key(name: str, labels: Mapping[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for every instrument of one deployment."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        key = _key(name, labels)
        found = self._counters.get(key)
        if found is None:
            found = self._counters[key] = Counter()
        return found

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _key(name, labels)
        found = self._gauges.get(key)
        if found is None:
            found = self._gauges[key] = Gauge()
        return found

    def histogram(
        self,
        name: str,
        edges: Iterable[float] = DELAY_BUCKETS_S,
        **labels: str,
    ) -> Histogram:
        key = _key(name, labels)
        found = self._histograms.get(key)
        if found is None:
            found = self._histograms[key] = Histogram(edges)
        return found

    # ------------------------------------------------------------------
    def gauge_values(self, name: str) -> dict[str, float]:
        """Current value of every gauge series of one metric name, keyed
        by the full instrument key, in sorted order.

        The alert engine evaluates its rules over these series: a rule
        names a metric, and every label set of that metric is one
        independently tracked series.
        """
        prefix = name + "{"
        return {
            key: self._gauges[key].value
            for key in sorted(self._gauges)
            if key == name or key.startswith(prefix)
        }

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every counter and histogram (gauges keep their last value).

        Used by ``Network.reset_counters`` to open a fresh measurement
        window after warm-up, mirroring the paper's steady-state runs.
        """
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-compatible dump with deterministically sorted keys."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {
                k: self._gauges[k].value for k in sorted(self._gauges)
            },
            "histograms": {
                k: self._histograms[k].snapshot()
                for k in sorted(self._histograms)
            },
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms)"
        )
