"""Network fabric: instantiating a topology into live simulated devices.

The :class:`Network` builds :class:`~repro.network.switch.Switch`,
:class:`~repro.network.host.Host` and :class:`~repro.network.link.Link`
objects from a :class:`~repro.network.topology.Topology` and wires them to a
shared :class:`~repro.sim.engine.Simulator`.  Port numbers are assigned
deterministically (sorted neighbor order, starting at 1) so controllers and
tests can reason about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.exceptions import TopologyError
from repro.network.host import DEFAULT_HOST_RATE_EPS, Host
from repro.network.link import (
    DEFAULT_BANDWIDTH_BPS,
    DEFAULT_LINK_DELAY_S,
    Link,
)
from repro.network.packet import Packet
from repro.network.switch import DEFAULT_LOOKUP_DELAY_S, Switch
from repro.network.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.obs.flight import FlightRecorder

__all__ = ["Network", "NetworkParams"]


@dataclass(frozen=True)
class NetworkParams:
    """Tunable device parameters applied across the fabric."""

    link_delay_s: float = DEFAULT_LINK_DELAY_S
    bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS
    switch_lookup_delay_s: float = DEFAULT_LOOKUP_DELAY_S
    switch_lookup_jitter_s: float = 1e-6
    switch_table_capacity: int = 180_000
    host_rate_eps: float = DEFAULT_HOST_RATE_EPS
    host_queue_capacity: int = 1000


class Network:
    """Live simulated devices for one topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        params: NetworkParams | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.params = params or NetworkParams()
        # One registry shared by every device of the fabric; deployments
        # (the Pleroma facade) pass theirs in so the whole system reports
        # into a single snapshot.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.switches: dict[str, Switch] = {}
        self.hosts: dict[str, Host] = {}
        self.links: dict[frozenset[str], Link] = {}
        self._ports: dict[tuple[str, str], int] = {}
        #: The attached data-plane flight recorder (``None``: off).  Read
        #: only by :meth:`packet`; see :mod:`repro.obs.flight`.
        self.flight: FlightRecorder | None = None
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        p = self.params
        for name in self.topology.switches():
            self.switches[name] = Switch(
                self.sim,
                name,
                table_capacity=p.switch_table_capacity,
                lookup_delay_s=p.switch_lookup_delay_s,
                lookup_jitter_s=p.switch_lookup_jitter_s,
                registry=self.registry,
            )
        from repro.network.host import HOST_ADDRESS_BASE

        for index, name in enumerate(self.topology.hosts(), start=1):
            self.hosts[name] = Host(
                self.sim,
                name,
                processing_rate_eps=p.host_rate_eps,
                queue_capacity=p.host_queue_capacity,
                address=HOST_ADDRESS_BASE + index,
                registry=self.registry,
            )
        # deterministic port numbering: sorted neighbors, starting at 1
        for node in sorted(self.topology.graph.nodes):
            for port, neighbor in enumerate(
                sorted(self.topology.graph.neighbors(node)), start=1
            ):
                self._ports[(node, neighbor)] = port
        for spec in self.topology.links():
            link = Link(
                self.sim,
                a=self._node(spec.a),
                a_port=self._ports[(spec.a, spec.b)],
                b=self._node(spec.b),
                b_port=self._ports[(spec.b, spec.a)],
                delay_s=spec.delay_s if spec.delay_s is not None else p.link_delay_s,
                bandwidth_bps=(
                    spec.bandwidth_bps
                    if spec.bandwidth_bps is not None
                    else p.bandwidth_bps
                ),
                registry=self.registry,
            )
            self.links[frozenset((spec.a, spec.b))] = link
            self._node(spec.a).attach_link(self._ports[(spec.a, spec.b)], link)
            self._node(spec.b).attach_link(self._ports[(spec.b, spec.a)], link)

    def _node(self, name: str):
        if name in self.switches:
            return self.switches[name]
        if name in self.hosts:
            return self.hosts[name]
        raise TopologyError(f"unknown node {name!r}")

    # ------------------------------------------------------------------
    # lookups used by controllers and metrics
    # ------------------------------------------------------------------
    def port(self, node: str, neighbor: str) -> int:
        """The local port of ``node`` leading to ``neighbor``."""
        try:
            return self._ports[(node, neighbor)]
        except KeyError:
            raise TopologyError(
                f"{node!r} has no port towards {neighbor!r}"
            ) from None

    def link_between(self, a: str, b: str) -> Link:
        try:
            return self.links[frozenset((a, b))]
        except KeyError:
            raise TopologyError(f"no link {a!r} <-> {b!r}") from None

    def host_by_address(self, address: int) -> Host:
        for host in self.hosts.values():
            if host.address == address:
                return host
        raise TopologyError(f"no host with address {address:#x}")

    def total_link_bytes(self) -> int:
        """Aggregate bytes carried across all links (bandwidth metric)."""
        return sum(link.total_bytes for link in self.links.values())

    def total_link_packets(self) -> int:
        return sum(link.total_packets for link in self.links.values())

    def packet(
        self, dst_address: int, payload: Any, size_bytes: int
    ) -> Packet:
        """Mint a packet: the next ``packet`` id of the deployment, and
        the sampling decision of the attached flight recorder stamped on
        it, so every device and copy on its path reads one decision."""
        flight = self.flight
        return Packet(
            dst_address=dst_address,
            payload=payload,
            size_bytes=size_bytes,
            packet_id=self.sim.ids.next("packet"),
            flight=flight if flight is not None and flight.sample() else None,
        )

    def reset_counters(self) -> None:
        for link in self.links.values():
            link.reset_counters()
        for host in self.hosts.values():
            host.reset_counters()
        for switch in self.switches.values():
            switch.reset_counters()

    def __repr__(self) -> str:
        return (
            f"Network({self.topology.name}: {len(self.switches)} switches, "
            f"{len(self.hosts)} hosts, {len(self.links)} links)"
        )
