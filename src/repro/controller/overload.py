"""Overload detection and reaction.

The paper's conclusion: "beyond the presented algorithms ... new mechanisms
need to be introduced in order to detect and react to overload situations
in the presence of a dynamic workload."  This module implements one such
mechanism on top of the reproduction's primitives:

* **detect** — per-link utilization over the window since the previous
  check, from the port counters a
  :class:`~repro.obs.telemetry.StatsPoller` polled in band (both ends'
  ``tx_bytes``, paired through the poller's ``port_peers`` wiring); a
  link above the configured threshold is *hot*.  The manager reads no
  ``Link`` counter, only what the switches reported (a link's capacity is
  configuration);
* **react** — among the trees routed over the hot edge, try to move the
  busiest one (most installed paths crossing the edge) onto an alternative
  structure avoiding the edge
  (:meth:`~repro.controller.controller.PleromaController.reroute_tree_around_edge`).

Reactions are rate-limited per edge (one reroute per observation window)
and logged so experiments can assert what happened.

Each logged event carries the reroute primitive's
:class:`~repro.controller.controller.RerouteOutcome`, so the log records
*why* a reaction was declined (``EDGE_IS_BRIDGE``), or ``None`` when no
tree routes over the hot edge.  The failure counterpart of this module is
:mod:`repro.resilience`: overload shifts load within a healthy fabric,
resilience repairs trees over a broken one — see ``docs/resilience.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.controller.controller import PleromaController, RerouteOutcome
from repro.controller.tree import SpanningTree
from repro.exceptions import ControllerError
from repro.obs.telemetry import StatsPoller

__all__ = ["OverloadEvent", "OverloadManager"]


@dataclass(frozen=True)
class OverloadEvent:
    """One detection/reaction record."""

    time: float
    edge: tuple[str, str]
    utilization: float
    tree_id: int | None
    outcome: RerouteOutcome | None


@dataclass
class OverloadManager:
    """Watches one controller's partition and reroutes around hot links."""

    controller: PleromaController
    poller: StatsPoller
    threshold: float = 0.8
    log: list[OverloadEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ControllerError("threshold must be in (0, 1]")
        # polled bytes per link, and the time, of the previous measurement
        self._last_bytes: dict[tuple[str, str], int] = {}
        self._last_time: float | None = None

    # ------------------------------------------------------------------
    def measure(self) -> dict[tuple[str, str], float]:
        """Utilization of every intra-partition switch-switch link since
        the previous measurement (or time 0), keyed ``(a, b)`` in
        ``a<->b`` label order.

        A link's bytes are the sum of both ends' polled ``tx_bytes``,
        paired through the poller's ``port_peers`` wiring; the window
        ends at the current sim time.  Each call closes the window: the
        next measurement, including the one :meth:`check` takes, starts
        here.
        """
        partition = self.controller.partition
        totals: dict[tuple[str, str], int] = {}
        for name, view in self.poller.views.items():
            for port, entry in view.ports.items():
                peer = self.poller.port_peers.get((name, port))
                if peer is None or not peer[2]:
                    continue  # host-facing port
                if name not in partition or peer[0] not in partition:
                    continue  # not an internal edge of this partition
                a, b = sorted((name, peer[0]))
                totals[(a, b)] = totals.get((a, b), 0) + entry.tx_bytes
        network = self.controller.network
        now = network.sim.now
        window = now - self._last_time if self._last_time is not None else now
        utilization: dict[tuple[str, str], float] = {}
        for edge in sorted(totals, key="<->".join):
            delta = totals[edge] - self._last_bytes.get(edge, 0)
            self._last_bytes[edge] = totals[edge]
            utilization[edge] = (
                (delta * 8.0)
                / (network.link_between(*edge).bandwidth_bps * window)
                if window > 0
                else 0.0
            )
        self._last_time = now
        return utilization

    def _paths_over_edge(self, tree: SpanningTree, a: str, b: str) -> int:
        """How many publisher->subscriber paths of a tree cross an edge."""
        count = 0
        for pub in tree.publishers.values():
            for sub in tree.subscribers.values():
                if pub.endpoint.name == sub.endpoint.name:
                    continue
                route = tree.path_between(
                    pub.endpoint.switch, sub.endpoint.switch
                )
                if any(
                    {u, v} == {a, b} for u, v in zip(route, route[1:])
                ):
                    count += 1
        return count

    # ------------------------------------------------------------------
    def check(self) -> OverloadEvent | None:
        """Measure every link (:meth:`measure`); if the hottest
        intra-partition link exceeds the threshold, try to reroute the
        busiest tree off it.

        Returns the event when an overload was detected (whether or not a
        reroute succeeded), None when everything is below threshold.
        """
        hot_edge = None
        hot_utilization = 0.0
        for edge, utilization in self.measure().items():
            if hot_edge is None or utilization > hot_utilization:
                hot_edge, hot_utilization = edge, utilization
        if hot_edge is None or hot_utilization < self.threshold:
            return None
        a, b = hot_edge
        candidates = sorted(
            (
                tree
                for tree in self.controller.trees
                if tree.uses_edge(a, b)
            ),
            key=lambda t: self._paths_over_edge(t, a, b),
            reverse=True,
        )
        outcome = None
        chosen = None
        for tree in candidates:
            chosen = tree.tree_id
            outcome = self.controller.reroute_tree_around_edge(
                tree.tree_id, a, b
            )
            if outcome:
                break
        event = OverloadEvent(
            time=self.controller.network.sim.now,
            edge=(a, b),
            utilization=hot_utilization,
            tree_id=chosen,
            outcome=outcome,
        )
        self.log.append(event)
        return event
