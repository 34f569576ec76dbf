"""The OpenFlow switch model.

A switch owns a TCAM :class:`~repro.network.flow.FlowTable` and a set of
numbered ports, each attached to a :class:`~repro.network.link.Link`.  Data
packets are matched against the table — in constant time regardless of
occupancy, as the hardware micro-benchmarks the paper cites [5] establish —
and the single highest-priority matching entry's instruction set is executed
(forwarding, optionally rewriting the destination address on terminal
switches, Fig. 3).

Packets addressed to the reserved ``IP_pub/sub`` address never match a flow
(Sec. 2: "No switch will install a flow with respect to IP_pub/sub") and are
handed to the controller over the control channel instead.

Statistics are registry-backed: each switch registers its packet counters
into a :class:`~repro.obs.registry.MetricsRegistry` (its own private one
when none is shared), and the familiar ``packets_*`` attributes read
through to those instruments.
"""

from __future__ import annotations

import random
import zlib
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.core.addressing import PUBSUB_CONTROL_ADDRESS
from repro.exceptions import TopologyError
from repro.network.flow import FlowTable
from repro.network.link import Link
from repro.network.packet import Packet
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = ["Switch", "DEFAULT_LOOKUP_DELAY_S"]

#: Constant TCAM lookup + forwarding-engine latency per packet.  4 us puts
#: a multi-hop software-switch path in the paper's measured ~1 ms regime
#: once link and host costs are added.
DEFAULT_LOOKUP_DELAY_S = 4e-6

ControlHandler = Callable[["Switch", Packet, int], None]


class Switch:
    """A simulated SDN switch."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        table_capacity: int = 180_000,
        lookup_delay_s: float = DEFAULT_LOOKUP_DELAY_S,
        lookup_jitter_s: float = 1e-6,
        rng: random.Random | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.table = FlowTable(
            capacity=table_capacity, clock=lambda: sim.now
        )
        self.lookup_delay_s = lookup_delay_s
        self.lookup_jitter_s = lookup_jitter_s
        # The jitter seed must be a *stable* function of the name:
        # ``hash(str)`` is salted per process (PYTHONHASHSEED), which would
        # silently break cross-run reproducibility of every delay sample.
        self._rng = (
            rng if rng is not None
            else random.Random(zlib.crc32(name.encode("utf-8")))
        )
        self._ports: dict[int, Link] = {}
        self._control_handler: ControlHandler | None = None
        # Liveness: a crashed switch loses its (volatile) TCAM contents and
        # silently eats any packet still arriving on its ports.
        self.up = True
        # statistics
        self.registry = registry if registry is not None else MetricsRegistry()
        self._received = self.registry.counter(
            "switch.packets_received", switch=name
        )
        self._forwarded = self.registry.counter(
            "switch.packets_forwarded", switch=name
        )
        # Drops are counted per reason: a table miss (no subscriber
        # reachable through this switch) and a matched action whose output
        # port has no link are different failure modes.
        self._dropped_table_miss = self.registry.counter(
            "switch.packets_dropped", reason="table-miss", switch=name
        )
        self._dropped_no_link = self.registry.counter(
            "switch.packets_dropped", reason="no-link", switch=name
        )
        self._dropped_switch_down = self.registry.counter(
            "switch.packets_dropped", reason="switch-down", switch=name
        )
        self._to_controller = self.registry.counter(
            "switch.packets_to_controller", switch=name
        )
        self._g_up = self.registry.gauge("switch.up", switch=name)
        self._g_up.set(1.0)

    # ------------------------------------------------------------------
    # statistics (registry-backed)
    # ------------------------------------------------------------------
    @property
    def packets_received(self) -> int:
        return self._received.value

    @property
    def packets_forwarded(self) -> int:
        return self._forwarded.value

    @property
    def packets_dropped(self) -> int:
        return (
            self._dropped_table_miss.value
            + self._dropped_no_link.value
            + self._dropped_switch_down.value
        )

    @property
    def packets_dropped_table_miss(self) -> int:
        return self._dropped_table_miss.value

    @property
    def packets_dropped_no_link(self) -> int:
        return self._dropped_no_link.value

    @property
    def packets_to_controller(self) -> int:
        return self._to_controller.value

    def reset_counters(self) -> None:
        for counter in (
            self._received, self._forwarded, self._dropped_table_miss,
            self._dropped_no_link, self._dropped_switch_down,
            self._to_controller,
        ):
            counter.reset()

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the switch: the TCAM is volatile, so its contents are
        lost; arriving packets are dropped until :meth:`restore`.
        Idempotent."""
        if not self.up:
            return
        self.up = False
        self._g_up.set(0.0)
        self.table.clear()

    def restore(self) -> None:
        """Revive a crashed switch.  It comes back with a *cold* (empty)
        flow table — re-populating it is the control plane's job, which is
        exactly what the resilience orchestrator's repair pass does."""
        if self.up:
            return
        self.up = True
        self._g_up.set(1.0)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_link(self, port: int, link: Link) -> None:
        """Connect a link to a local port (done by the topology builder)."""
        if port in self._ports:
            raise TopologyError(f"{self.name}: port {port} already in use")
        self._ports[port] = link

    def set_control_handler(self, handler: ControlHandler) -> None:
        """Register the controller callback for ``IP_pub/sub`` packets."""
        self._control_handler = handler

    @property
    def control_handler(self) -> ControlHandler | None:
        """The currently registered ``IP_pub/sub`` diversion callback.

        Read by ``Pleroma.enable_telemetry`` so the telemetry control
        channel can take over the diversion while forwarding packet-ins to
        whatever handler (controller, federation) was wired before it.
        """
        return self._control_handler

    @property
    def ports(self) -> dict[int, Link]:
        return dict(self._ports)

    def port_to(self, neighbor_name: str) -> int:
        """The local port leading to a named neighbor."""
        for port, link in self._ports.items():
            far, _ = link.endpoint_for(self)
            if far.name == neighbor_name:
                return port
        raise TopologyError(f"{self.name} has no port to {neighbor_name}")

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """Handle an arriving packet: control diversion or TCAM forwarding."""
        self._received.inc()
        # ``flight`` is None unless this packet was sampled at mint time
        flight = packet.flight
        if not self.up:
            # A crashed switch eats everything, control traffic included.
            self._dropped_switch_down.inc()
            if flight is not None:
                flight.add(
                    packet.packet_id, "switch_recv", self.name,
                    drop="switch-down", in_port=in_port,
                )
            return
        if packet.dst_address == PUBSUB_CONTROL_ADDRESS:
            self._to_controller.inc()
            if flight is not None:
                flight.add(
                    packet.packet_id, "switch_recv", self.name,
                    to_controller=True, in_port=in_port,
                )
            if self._control_handler is not None:
                self._control_handler(self, packet, in_port)
            return
        entry = self.table.lookup(packet.dst_address)
        if entry is None:
            # A table miss for an event means no subscriber is reachable via
            # this switch for that subspace — the packet is discarded (we do
            # not punt data packets to the controller).
            self._dropped_table_miss.inc()
            if flight is not None:
                flight.add(
                    packet.packet_id, "switch_recv", self.name,
                    drop="table-miss", tcam_hit=False, in_port=in_port,
                )
            return
        # per-rule hardware counters (read out-of-band via FlowStatsRequest)
        self.table.record_hit(entry, packet.size_bytes)
        delay = self.lookup_delay_s
        jitter = self.lookup_jitter_s
        if jitter:
            # bit-equal to ``uniform(0.0, jitter)``, which computes
            # ``0.0 + (jitter - 0.0) * random()``
            delay += jitter * self._rng.random()
        if flight is not None:
            flight.add(
                packet.packet_id, "switch_recv", self.name,
                tcam_hit=True, lookup_s=delay, in_port=in_port,
                flow=str(entry.dz),
            )
        original_reused = False
        for action in entry.sorted_actions():
            if action.out_port == in_port and action.set_dest is None:
                # never bounce a packet back out its ingress port
                if flight is not None:
                    flight.add(
                        packet.packet_id, "switch_recv", self.name,
                        drop="ingress-bounce", out_port=action.out_port,
                    )
                continue
            link = self._ports.get(action.out_port)
            if link is None:
                self._dropped_no_link.inc()
                if flight is not None:
                    flight.add(
                        packet.packet_id, "switch_recv", self.name,
                        drop="no-link", out_port=action.out_port,
                    )
                continue
            if action.set_dest is not None:
                outgoing = packet.with_destination(action.set_dest)
            elif not original_reused:
                # No rewrite: forward the packet object itself instead of
                # allocating a copy per action (the hottest data-plane
                # path); only additional no-rewrite actions need a copy so
                # per-copy state (hop counts) stays independent.
                outgoing = packet
                original_reused = True
            else:
                outgoing = packet.with_destination(packet.dst_address)
            self._forwarded.inc()
            self.sim.schedule(delay, link.transmit, self, outgoing)

    # ------------------------------------------------------------------
    def send_via_port(self, port: int, packet: Packet) -> None:
        """Transmit directly out of a port (used by controllers to reach
        neighbouring partitions through border switches, Sec. 4.1)."""
        link = self._ports.get(port)
        if link is None:
            raise TopologyError(f"{self.name}: no link on port {port}")
        link.transmit(self, packet)

    def __repr__(self) -> str:
        return f"Switch({self.name}, flows={len(self.table)})"
