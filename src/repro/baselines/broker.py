"""Baselines: broker-overlay publish/subscribe and flooding.

The paper motivates PLEROMA against traditional broker-based systems
(Sec. 1, Sec. 7): brokers filter in software — a per-hop matching delay
that grows with the number of installed filters — and embed all paths in a
single spanning tree, concentrating load on core links.  These baselines
recreate that behaviour on the *same* topology and simulator so the
ablation benchmarks can compare like with like:

* :class:`SingleTreeBrokerOverlay` — one global spanning tree; every switch
  position hosts a software broker with per-filter matching cost; events
  are forwarded only toward subtrees with matching subscribers (perfect
  filtering, zero false positives, but software-speed);
* :class:`FloodingOverlay` — the degenerate baseline: no filtering at all,
  every event reaches every host over the spanning tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.core.events import Event
from repro.core.subscription import Subscription
from repro.exceptions import TopologyError
from repro.network.topology import Topology
from repro.sim.engine import Simulator

__all__ = [
    "BrokerDelivery",
    "SingleTreeBrokerOverlay",
    "FloodingOverlay",
]

#: Fixed per-broker processing cost (queueing + dispatch), seconds.
DEFAULT_BROKER_BASE_DELAY_S = 50e-6
#: Incremental matching cost per installed filter, seconds.  A software
#: matcher scanning thousands of predicates is orders of magnitude slower
#: than a TCAM lookup — this constant encodes that gap.
DEFAULT_PER_FILTER_COST_S = 0.2e-6
#: Per-hop link latency, matching the SDN fabric default.
DEFAULT_HOP_DELAY_S = 50e-6


@dataclass(frozen=True)
class BrokerDelivery:
    """One event delivered by the overlay."""

    host: str
    event: Event
    publish_time: float
    deliver_time: float

    @property
    def delay(self) -> float:
        return self.deliver_time - self.publish_time


@dataclass
class _BrokerNode:
    """A broker co-located with one switch of the spanning tree."""

    name: str
    neighbors: list[str] = field(default_factory=list)
    hosts: list[str] = field(default_factory=list)


class SingleTreeBrokerOverlay:
    """A broker network embedded in one spanning tree of the topology."""

    filtering = True

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        root: str | None = None,
        base_delay_s: float = DEFAULT_BROKER_BASE_DELAY_S,
        per_filter_cost_s: float = DEFAULT_PER_FILTER_COST_S,
        hop_delay_s: float = DEFAULT_HOP_DELAY_S,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.base_delay_s = base_delay_s
        self.per_filter_cost_s = per_filter_cost_s
        self.hop_delay_s = hop_delay_s
        switches = topology.switches()
        if not switches:
            raise TopologyError("topology has no switches")
        self.root = root if root is not None else switches[0]
        if self.root not in switches:
            raise TopologyError(f"unknown root {self.root!r}")
        parents = topology.shortest_path_tree(self.root)
        self.brokers: dict[str, _BrokerNode] = {
            s: _BrokerNode(name=s, hosts=topology.hosts_of(s))
            for s in switches
        }
        for child, parent in parents.items():
            self.brokers[child].neighbors.append(parent)
            self.brokers[parent].neighbors.append(child)
        # state
        self.subscriptions: dict[int, tuple[str, Subscription]] = {}
        self.deliveries: list[BrokerDelivery] = []
        self.link_packets: dict[frozenset[str], int] = {}
        self.events_published = 0

    # ------------------------------------------------------------------
    def subscribe(self, host: str, subscription: Subscription) -> int:
        if not self.topology.is_host(host):
            raise TopologyError(f"unknown host {host!r}")
        sub_id = subscription.number(self.sim.ids)
        self.subscriptions[sub_id] = (host, subscription)
        return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        self.subscriptions.pop(sub_id, None)

    def _matching_hosts(self, event: Event) -> set[str]:
        if not self.filtering:
            return set(self.topology.hosts())
        return {
            host
            for host, sub in self.subscriptions.values()
            if sub.matches(event)
        }

    def _broker_delay(self) -> float:
        """Per-hop broker processing: base cost + software matching over
        every installed filter."""
        if not self.filtering:
            return self.base_delay_s
        return self.base_delay_s + self.per_filter_cost_s * len(
            self.subscriptions
        )

    # ------------------------------------------------------------------
    def publish(self, host: str, event: Event) -> None:
        """Route one event through the broker tree."""
        if not self.topology.is_host(host):
            raise TopologyError(f"unknown host {host!r}")
        self.events_published += 1
        publish_time = self.sim.now
        targets = self._matching_hosts(event) - {host}
        if not targets:
            return
        target_switches = {self.topology.access_switch(h) for h in targets}
        start = self.topology.access_switch(host)
        self._forward(
            event,
            publish_time,
            at=start,
            came_from=None,
            targets=targets,
            target_switches=target_switches,
            elapsed=self.hop_delay_s,  # host -> access switch
        )

    def _subtree_has_target(
        self, node: str, came_from: str | None, target_switches: set[str]
    ) -> bool:
        """Depth-first reachability of any target switch via ``node``."""
        if node in target_switches:
            return True
        return any(
            self._subtree_has_target(nb, node, target_switches)
            for nb in self.brokers[node].neighbors
            if nb != came_from
        )

    def _forward(
        self,
        event: Event,
        publish_time: float,
        at: str,
        came_from: str | None,
        targets: set[str],
        target_switches: set[str],
        elapsed: float,
    ) -> None:
        elapsed += self._broker_delay()
        broker = self.brokers[at]
        if at in target_switches:
            for host in broker.hosts:
                if host in targets:
                    deliver_time = publish_time + elapsed + self.hop_delay_s
                    self.deliveries.append(
                        BrokerDelivery(host, event, publish_time, deliver_time)
                    )
        for neighbor in broker.neighbors:
            if neighbor == came_from:
                continue
            if not self._subtree_has_target(neighbor, at, target_switches):
                continue
            edge = frozenset((at, neighbor))
            self.link_packets[edge] = self.link_packets.get(edge, 0) + 1
            self._forward(
                event,
                publish_time,
                at=neighbor,
                came_from=at,
                targets=targets,
                target_switches=target_switches,
                elapsed=elapsed + self.hop_delay_s,
            )

    # ------------------------------------------------------------------
    def mean_delay(self) -> float:
        if not self.deliveries:
            raise ValueError("no deliveries recorded")
        return sum(d.delay for d in self.deliveries) / len(self.deliveries)

    def link_load_distribution(self) -> list[int]:
        """Per-tree-edge packet counts, descending (load-balance metric)."""
        return sorted(self.link_packets.values(), reverse=True)

    def total_link_packets(self) -> int:
        return sum(self.link_packets.values())


class FloodingOverlay(SingleTreeBrokerOverlay):
    """No filtering: every event reaches every host over the tree."""

    filtering = False

    def hosts_reached(self) -> Iterable[str]:
        return {d.host for d in self.deliveries}
