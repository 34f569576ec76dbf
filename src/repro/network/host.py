"""End hosts: the machines that publish and subscribe.

Hosts are deliberately the *slow* part of the model: the paper's throughput
experiment (Sec. 6.3) finds that "the switch network is able to successfully
forward every event ... the drop in received events is due to the processing
limitations at the end hosts", with ~170k events/s achievable on faster
machines.  A host therefore has a finite event-processing rate and a finite
ingest queue; arrivals beyond capacity are dropped and counted.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.exceptions import TopologyError
from repro.network.link import Link
from repro.network.packet import EventPayload, Packet
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["Host", "HOST_ADDRESS_BASE", "DEFAULT_HOST_RATE_EPS"]

#: Unicast address block for end hosts (2001::/16, documentation-ish).
HOST_ADDRESS_BASE = 0x2001 << 112

#: Default per-host event processing capacity; the paper's commodity end
#: hosts saturate around 70k events/s (Fig. 7c plateaus below the send rate).
DEFAULT_HOST_RATE_EPS = 70_000.0

DeliveryCallback = Callable[[EventPayload, Packet, float], None]


class Host:
    """A publisher/subscriber end system attached to one switch port."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        processing_rate_eps: float = DEFAULT_HOST_RATE_EPS,
        queue_capacity: int = 1000,
        address: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if processing_rate_eps <= 0:
            raise TopologyError("host processing rate must be positive")
        if queue_capacity < 1:
            raise TopologyError("host queue capacity must be >= 1")
        self.sim = sim
        self.name = name
        # The fabric assigns per-topology addresses; a standalone host
        # takes the next of its simulator's ``host`` sequence.
        self.address = (
            address if address is not None
            else HOST_ADDRESS_BASE + sim.ids.next("host")
        )
        self.processing_rate_eps = processing_rate_eps
        self.queue_capacity = queue_capacity
        self._link: Link | None = None
        self._busy_until = 0.0
        self._on_deliver: DeliveryCallback | None = None
        # statistics (registry-backed)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._arrived = self.registry.counter(
            "host.packets_arrived", host=name
        )
        self._delivered = self.registry.counter(
            "host.packets_delivered", host=name
        )
        # a host drops for exactly one reason — its ingest queue overflowed
        self._dropped = self.registry.counter(
            "host.packets_dropped", host=name, reason="queue-overflow"
        )
        self._sent = self.registry.counter("host.packets_sent", host=name)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def packets_arrived(self) -> int:
        return self._arrived.value

    @property
    def packets_delivered(self) -> int:
        return self._delivered.value

    @property
    def packets_dropped(self) -> int:
        return self._dropped.value

    @property
    def packets_sent(self) -> int:
        return self._sent.value

    # ------------------------------------------------------------------
    def attach_link(self, port: int, link: Link) -> None:
        """Connect the host's single NIC (port number is ignored: hosts
        have exactly one interface)."""
        if self._link is not None:
            raise TopologyError(f"host {self.name} already attached")
        self._link = link

    @property
    def link(self) -> Link:
        if self._link is None:
            raise TopologyError(f"host {self.name} is not attached")
        return self._link

    def set_delivery_callback(self, callback: DeliveryCallback) -> None:
        """Register the application handler invoked per processed event."""
        self._on_deliver = callback

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Transmit a packet into the network."""
        packet.src_address = self.address
        self._sent.inc()
        flight = packet.flight
        if flight is not None:
            flight.add(
                packet.packet_id, "host_send", self.name,
                dst=packet.dst_address, size_bytes=packet.size_bytes,
            )
        self.link.transmit(self, packet)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """NIC arrival: enqueue for application processing or drop."""
        self._arrived.inc()
        flight = packet.flight
        service_time = 1.0 / self.processing_rate_eps
        backlog = max(0.0, self._busy_until - self.sim.now)
        if backlog > self.queue_capacity * service_time:
            self._dropped.inc()
            if flight is not None:
                flight.add(
                    packet.packet_id, "host_recv", self.name,
                    drop="host-queue-overflow", backlog_s=backlog,
                )
            return
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + service_time
        if flight is not None:
            flight.add(
                packet.packet_id, "host_recv", self.name,
                wait_s=start - self.sim.now, service_s=service_time,
            )
        self.sim.schedule_at(self._busy_until, self._process, packet)

    def _process(self, packet: Packet) -> None:
        self._delivered.inc()
        flight = packet.flight
        if flight is not None:
            flight.add(packet.packet_id, "host_deliver", self.name)
        if self._on_deliver is not None and isinstance(
            packet.payload, EventPayload
        ):
            self._on_deliver(packet.payload, packet, self.sim.now)

    def reset_counters(self) -> None:
        for counter in (
            self._arrived, self._delivered, self._dropped, self._sent,
        ):
            counter.reset()

    def __repr__(self) -> str:
        return f"Host({self.name})"
