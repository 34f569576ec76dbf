"""Periodic samplers driven by the simulator clock.

A :class:`PeriodicSampler` reschedules itself on the discrete-event engine
and runs its probes every ``period_s`` of *simulated* time.  To keep
``sim.run()`` terminating, the sampler pauses whenever a whole period
passes in which the simulator executed nothing but the sampler's own tick
(a quiet network); traffic sources re-arm it via :meth:`poke` (the
``Pleroma`` facade does this on every publish).  It is the one pausable
periodic task: :class:`repro.obs.telemetry.StatsPoller` is a sampler
with its own idle rule.

Two probes ship with the middleware:

* :class:`LinkUtilizationProbe` — byte-counter deltas of every
  switch-to-switch link, converted to a fraction of link capacity;
* :class:`TcamOccupancyProbe` — flow-table fill fraction per switch
  (requirement 3: TCAM capacity is the scarce resource).

Probes write gauges (latest value) and histograms (distribution over the
run) into the shared :class:`~repro.obs.registry.MetricsRegistry`.  The
module only duck-types the simulator and network to stay at the bottom of
the layer stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from collections.abc import Callable, Iterable

from repro.exceptions import TopologyError
from repro.obs.registry import OCCUPANCY_BUCKETS, MetricsRegistry

__all__ = [
    "PeriodicSampler",
    "LinkSample",
    "LinkUtilizationProbe",
    "TcamOccupancyProbe",
]

Probe = Callable[[float], None]


@dataclass(frozen=True)
class LinkSample:
    """One utilization observation for one link."""

    time: float
    utilization: float
    bytes_delta: int


class PeriodicSampler:
    """Runs probes every ``period_s`` of sim time; pauses when idle."""

    def __init__(self, sim, period_s: float, probes: Iterable[Probe]) -> None:
        if period_s <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.period_s = period_s
        self.probes = list(probes)
        self.ticks = 0
        self._handle = None
        self._started = False
        self._processed_at_arm = 0
        self._poked = False

    # ------------------------------------------------------------------
    def start(self) -> "PeriodicSampler":
        self._started = True
        if self._handle is None:
            self._arm()
        return self

    def stop(self) -> None:
        self._started = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def poke(self) -> None:
        """Note traffic; re-arms a sampler paused by a quiet period."""
        if not self._started:
            return
        if self._handle is None:
            self._arm()
        else:
            self._poked = True

    @property
    def running(self) -> bool:
        return self._handle is not None

    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._processed_at_arm = self.sim.processed_events
        self._poked = False
        self._handle = self.sim.schedule(self.period_s, self._tick)

    def _tick(self) -> None:
        self._handle = None
        self.ticks += 1
        for probe in self.probes:
            probe(self.sim.now)
        # A quiet window pauses the sampler so draining the event queue
        # terminates; the next poke re-arms it.
        if self._active_since_arm():
            self._arm()

    def _active_since_arm(self) -> bool:
        """The idle rule: did the simulator run anything but this tick?"""
        return self.sim.processed_events - self._processed_at_arm > 1


class LinkUtilizationProbe:
    """Samples switch-to-switch link load into the registry.

    Per link: gauge ``link.utilization{link=a<->b}`` (load during the last
    window), one shared histogram ``link.utilization`` of every sample,
    and a bounded per-link :class:`LinkSample` history readable through
    :meth:`latest` / :meth:`history` / :meth:`hottest`.  Calling the
    probe takes one sample and returns it per link; the
    :class:`~repro.controller.overload.OverloadManager` reads it that way.
    """

    def __init__(
        self,
        network,
        registry: MetricsRegistry,
        history_maxlen: int = 256,
    ) -> None:
        self.network = network
        self.registry = registry
        self._last_bytes: dict[str, int] = {}
        self._last_time: float | None = None
        self._keys: list[tuple[str, frozenset]] = sorted(
            (("<->".join(sorted(key)), key) for key in network.links
             if all(name in network.switches for name in key)),
        )
        self._histories: dict[frozenset, deque[LinkSample]] = {}
        for label, key in self._keys:
            self._last_bytes[label] = network.links[key].total_bytes
            self._histories[key] = deque(maxlen=history_maxlen)
        self._histogram = registry.histogram(
            "link.utilization", OCCUPANCY_BUCKETS
        )

    def __call__(self, now: float) -> dict[frozenset, LinkSample]:
        window = (
            now - self._last_time if self._last_time is not None else now
        )
        results: dict[frozenset, LinkSample] = {}
        for label, key in self._keys:
            link = self.network.links[key]
            delta = link.total_bytes - self._last_bytes[label]
            self._last_bytes[label] = link.total_bytes
            utilization = (
                (delta * 8.0) / (link.bandwidth_bps * window)
                if window > 0
                else 0.0
            )
            self.registry.gauge("link.utilization", link=label).set(
                utilization
            )
            self._histogram.observe(utilization)
            sample = LinkSample(
                time=now, utilization=utilization, bytes_delta=delta
            )
            self._histories[key].append(sample)
            results[key] = sample
        self._last_time = now
        return results

    # ------------------------------------------------------------------
    # history accessors
    # ------------------------------------------------------------------
    def latest(self, a: str, b: str) -> LinkSample:
        history = self._histories.get(frozenset((a, b)))
        if history is None or not history:
            raise TopologyError(f"no samples for link {a!r}<->{b!r}")
        return history[-1]

    def history(self, a: str, b: str) -> list[LinkSample]:
        history = self._histories.get(frozenset((a, b)))
        if history is None:
            raise TopologyError(f"unknown link {a!r}<->{b!r}")
        return list(history)

    def hottest(self) -> tuple[frozenset, LinkSample]:
        """The link with the highest latest utilization."""
        best_key = None
        best: LinkSample | None = None
        for _label, key in self._keys:
            history = self._histories[key]
            if not history:
                continue
            sample = history[-1]
            if best is None or sample.utilization > best.utilization:
                best_key, best = key, sample
        if best is None or best_key is None:
            raise TopologyError("no samples taken yet")
        return best_key, best


class TcamOccupancyProbe:
    """Samples per-switch flow-table occupancy into the registry."""

    def __init__(self, network, registry: MetricsRegistry) -> None:
        self.network = network
        self.registry = registry
        self._histogram = registry.histogram(
            "switch.tcam_occupancy", OCCUPANCY_BUCKETS
        )

    def __call__(self, now: float) -> None:
        for name in sorted(self.network.switches):
            switch = self.network.switches[name]
            occupancy = len(switch.table) / switch.table.capacity
            self.registry.gauge("switch.tcam_occupancy", switch=name).set(
                occupancy
            )
            self.registry.gauge("switch.flow_entries", switch=name).set(
                float(len(switch.table))
            )
            self._histogram.observe(occupancy)
