"""The per-deployment observability bundle.

One :class:`Observability` object is created per deployment (the
``Pleroma`` facade makes one and threads it through the fabric, the
controllers, the federation and the metrics collector).  It owns the
metrics registry, the tracer, the flight recorder and the in-band
telemetry poller, and renders the whole lot into a single snapshot
document.

Live bundles are tracked in a weak map so the benchmark harness
(``benchmarks/conftest.py``) can export whatever registries a benchmark
created without plumbing handles through every fixture.
"""

from __future__ import annotations

import weakref

from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Observability", "live_observabilities"]

# A weak-keyed dict iterates in insertion order, which is creation order.
_live: "weakref.WeakKeyDictionary[Observability, None]" = (
    weakref.WeakKeyDictionary()
)


def live_observabilities() -> list["Observability"]:
    """Every bundle still alive, in creation order."""
    return list(_live)


class Observability:
    """Registry + tracer + flight recorder + telemetry for one deployment."""

    def __init__(self, sim, registry: MetricsRegistry | None = None) -> None:
        self.sim = sim
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(clock=lambda: sim.now)
        self.flight: FlightRecorder | None = None
        self._flight_network = None
        # in-band telemetry (repro.obs.telemetry / repro.obs.alerts);
        # populated by attach_telemetry, typically via
        # Pleroma.enable_telemetry
        self.telemetry = None
        self.alerts = None
        _live[self] = None

    # ------------------------------------------------------------------
    # in-band telemetry
    # ------------------------------------------------------------------
    def poke_telemetry(self) -> None:
        """Re-arm the telemetry poller if a quiet period paused it (call
        on traffic)."""
        if self.telemetry is not None:
            self.telemetry.poke()

    def attach_telemetry(self, poller, engine=None) -> None:
        """Register a started :class:`~repro.obs.telemetry.StatsPoller`
        (and optionally an :class:`~repro.obs.alerts.AlertEngine`) with
        this bundle.

        Traffic pokes (:meth:`poke_telemetry`) re-arm the poller, and the
        engine (if any) is subscribed to completed poll rounds.  The
        snapshot document then grows ``telemetry`` / ``alerts`` sections.
        """
        self.telemetry = poller
        self.alerts = engine
        if engine is not None:
            poller.round_listeners.append(engine.evaluate)

    # ------------------------------------------------------------------
    # data-plane flight recorder
    # ------------------------------------------------------------------
    def enable_flight(
        self,
        network,
        sample_every: int = 1,
        capacity: int = 65_536,
        seed: int = 0,
    ) -> FlightRecorder:
        """Attach a data-plane flight recorder to ``network``: every
        packet it mints from now on is sampled by the new recorder
        (idempotent: re-enabling replaces the recorder)."""
        sim = self.sim
        self.flight = FlightRecorder(
            clock=lambda: sim.now,
            sample_every=sample_every,
            capacity=capacity,
            seed=seed,
        )
        self._flight_network = network
        network.flight = self.flight
        return self.flight

    def disable_flight(self) -> None:
        """Detach the flight recorder (records are discarded).

        Packets minted from now on are not sampled; a packet already in
        flight keeps its stamp and records into the discarded recorder."""
        if self._flight_network is not None:
            self._flight_network.flight = None
        self.flight = None
        self._flight_network = None

    def flight_report(self):
        """Path analytics over the recorded hop histories."""
        from repro.obs.paths import analyze_flight

        if self.flight is None:
            raise ValueError("no flight recorder enabled")
        topology = (
            self._flight_network.topology
            if self._flight_network is not None
            else None
        )
        return analyze_flight(self.flight, topology)

    # ------------------------------------------------------------------
    # snapshotting
    # ------------------------------------------------------------------
    def snapshot(self, include_spans: bool = True) -> dict:
        """The full observability state as a JSON-compatible document."""
        flight_summary = None
        if self.flight is not None:
            report = self.flight_report()
            # summary gauges land in the registry before it is rendered
            report.record_gauges(self.registry)
            flight_summary = report.summary()
        document = {
            "sim_time_s": self.sim.now,
            "metrics": self.registry.snapshot(),
            "trace_summary": self.tracer.summary(),
        }
        if flight_summary is not None:
            document["flight"] = flight_summary
        if self.telemetry is not None:
            document["telemetry"] = self.telemetry.summary()
        if self.alerts is not None:
            document["alerts"] = self.alerts.summary()
        if include_spans:
            document["spans"] = self.tracer.to_dicts()
        return document

    def __repr__(self) -> str:
        return f"Observability({self.registry!r}, {self.tracer!r})"
