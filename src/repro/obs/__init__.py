"""Sim-time observability: metrics registry, tracing, samplers, exporters.

The layer every other component reports into (see ``docs/observability.md``):

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket sim-time
  histograms, registered by name + labels;
* :mod:`repro.obs.trace` — structured spans for control-plane operations
  (requests, flow-mod batches, tree merges, federation exchanges);
* :mod:`repro.obs.samplers` — the pausable periodic sim-time task the
  telemetry poller runs on;
* :mod:`repro.obs.flight` — the data-plane flight recorder: sampled
  per-packet hop histories (sends, TCAM lookups, link transmissions,
  host arrivals, drops) in a bounded ring buffer;
* :mod:`repro.obs.paths` — path analytics over flight records: delivery
  trees, per-component delay attribution, drop forensics, path stretch,
  duplicate detection and Chrome trace-event export;
* :mod:`repro.obs.telemetry` — the in-band :class:`StatsPoller`, the one
  path for observing the data plane: the controller-side view
  reconstructed purely from OpenFlow statistics replies (no oracle
  reads), with heavy-hitter / churn / loss analytics;
* :mod:`repro.obs.alerts` — declarative threshold alerting with
  fire/clear hysteresis over the polled series;
* :mod:`repro.obs.export` — JSON/CSV/Prometheus exporters and the
  run-report renderer behind ``python -m repro report``;
* :mod:`repro.obs.context` — the :class:`Observability` bundle a deployment
  shares between its components.

:mod:`repro.obs.telemetry` is intentionally *not* imported here: it
depends on :mod:`repro.network.openflow`, which sits above this package
in the layer stack — import it directly where needed.

Everything here is deterministic: snapshots contain only sim-time
quantities and sorted keys, so two runs with the same seed serialise to
byte-identical documents regardless of ``PYTHONHASHSEED``.
"""

from repro.obs.alerts import (
    DEFAULT_ALERT_RULES,
    Alert,
    AlertEngine,
    AlertRule,
)
from repro.obs.context import Observability, live_observabilities
from repro.obs.export import prometheus_text
from repro.obs.flight import (
    DROP_REASONS,
    TRAVERSAL_POINTS,
    FlightRecorder,
    HopRecord,
)
from repro.obs.paths import (
    DeliveryTrace,
    FlightReport,
    analyze_flight,
    chrome_trace,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DELAY_BUCKETS_S,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Observability",
    "live_observabilities",
    "Alert",
    "AlertEngine",
    "AlertRule",
    "DEFAULT_ALERT_RULES",
    "prometheus_text",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DELAY_BUCKETS_S",
    "Span",
    "Tracer",
    "FlightRecorder",
    "HopRecord",
    "TRAVERSAL_POINTS",
    "DROP_REASONS",
    "DeliveryTrace",
    "FlightReport",
    "analyze_flight",
    "chrome_trace",
]
