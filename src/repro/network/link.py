"""Point-to-point links with propagation delay, bandwidth and queueing.

Each link is full-duplex: the two directions have independent transmit
queues.  Serialisation delay is ``size / bandwidth``; packets queue behind
earlier transmissions in the same direction (a busy-until model, i.e. an
ideal FIFO output queue of unbounded length — loss under overload is
modelled at the hosts, where the paper located the bottleneck, Sec. 6.3).
Per-direction byte/packet counters feed the bandwidth-efficiency and
link-load metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Protocol

from repro.exceptions import TopologyError
from repro.network.packet import Packet
from repro.obs.registry import Counter, MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.engine import Simulator

__all__ = [
    "Link",
    "NetworkNode",
    "PortCounters",
    "DEFAULT_LINK_DELAY_S",
    "DEFAULT_BANDWIDTH_BPS",
]

#: 50 microseconds of propagation/processing per hop — datacenter scale.
DEFAULT_LINK_DELAY_S = 50e-6
#: 1 Gbit/s links, as in the commodity testbed.
DEFAULT_BANDWIDTH_BPS = 1e9


class NetworkNode(Protocol):
    """Anything attachable to a link end: a switch or a host."""

    name: str

    def receive(self, packet: Packet, in_port: int) -> None:
        """Handle a packet arriving on local port ``in_port``."""


@dataclass
class _Direction:
    """State of one transmit direction of a link.

    The packet/byte counts live in registry counters so the observability
    layer sees them; the busy-until horizon is plain scheduling state.
    ``lost_packets`` counts frames offered while the link was down — the
    per-direction detail behind the aggregate ``link.packets_lost_down``
    counter, surfaced as ``tx_dropped`` in OpenFlow port statistics.
    """

    packets: Counter
    bytes: Counter
    busy_until: float = 0.0
    lost_packets: int = 0


class PortCounters(NamedTuple):
    """One endpoint's view of its link counters (its "port counters")."""

    tx_packets: int
    tx_bytes: int
    tx_dropped: int
    rx_packets: int
    rx_bytes: int


class Link:
    """A bidirectional link between two nodes, with named local ports."""

    def __init__(
        self,
        sim: "Simulator",
        a: NetworkNode,
        a_port: int,
        b: NetworkNode,
        b_port: int,
        delay_s: float = DEFAULT_LINK_DELAY_S,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if delay_s < 0 or bandwidth_bps <= 0:
            raise TopologyError("link delay must be >= 0 and bandwidth > 0")
        self.sim = sim
        self.a, self.a_port = a, a_port
        self.b, self.b_port = b, b_port
        self.delay_s = delay_s
        self.bandwidth_bps = bandwidth_bps
        # Administrative status (operator/chaos intent: fail()/restore())
        # and operational status (carrier: an endpoint device died) are
        # tracked separately, the way real switch ports report them.  The
        # link carries traffic only when both are up.
        self._admin_up = True
        self._oper_up = True
        self.registry = registry if registry is not None else MetricsRegistry()
        label = f"{a.name}<->{b.name}"
        self.label = label
        # Registry-backed so down-loss shows up in snapshots, the report
        # CLI and every exporter — it used to be a plain attribute that no
        # observability surface could see.
        self._lost_down = self.registry.counter(
            "link.packets_lost_down", link=label
        )
        # Status gauges: fail()/restore() used to be silent bit flips that
        # no observability surface (or failure detector) could see.
        self._g_admin = self.registry.gauge("link.admin_up", link=label)
        self._g_oper = self.registry.gauge("link.oper_up", link=label)
        self._g_admin.set(1.0)
        self._g_oper.set(1.0)
        self._status_changes = self.registry.counter(
            "link.status_changes", link=label
        )
        self._dir_ab = _Direction(
            packets=self.registry.counter(
                "link.packets", link=label, direction=f"{a.name}->{b.name}"
            ),
            bytes=self.registry.counter(
                "link.bytes", link=label, direction=f"{a.name}->{b.name}"
            ),
        )
        self._dir_ba = _Direction(
            packets=self.registry.counter(
                "link.packets", link=label, direction=f"{b.name}->{a.name}"
            ),
            bytes=self.registry.counter(
                "link.bytes", link=label, direction=f"{b.name}->{a.name}"
            ),
        )

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def up(self) -> bool:
        """True iff the link carries traffic (admin up AND oper up)."""
        return self._admin_up and self._oper_up

    @property
    def admin_up(self) -> bool:
        return self._admin_up

    @property
    def oper_up(self) -> bool:
        return self._oper_up

    def fail(self) -> None:
        """Administratively take the link down: transmissions are lost.

        Idempotent; the transition is visible as the ``link.admin_up``
        gauge dropping to 0 and a ``link.status_changes`` increment."""
        if not self._admin_up:
            return
        self._admin_up = False
        self._g_admin.set(0.0)
        self._status_changes.inc()

    def restore(self) -> None:
        """Administratively bring the link back up.

        Idempotent.  Scheduling state is reset: transmissions queued
        behind the pre-failure busy horizon died with the failure, so a
        restored link starts with empty output queues instead of delaying
        new traffic behind ghosts of the old."""
        if self._admin_up:
            return
        self._admin_up = True
        self._g_admin.set(1.0)
        self._status_changes.inc()
        self._dir_ab.busy_until = 0.0
        self._dir_ba.busy_until = 0.0

    def set_oper(self, up: bool) -> None:
        """Set operational (carrier) status — driven by endpoint device
        death/revival, not by operator intent.  Idempotent."""
        if self._oper_up == up:
            return
        self._oper_up = up
        self._g_oper.set(1.0 if up else 0.0)
        self._status_changes.inc()
        if up:
            self._dir_ab.busy_until = 0.0
            self._dir_ba.busy_until = 0.0

    @property
    def packets_lost_down(self) -> int:
        """Packets lost to transmissions while the link was down."""
        return self._lost_down.value

    # ------------------------------------------------------------------
    def endpoint_for(self, node: NetworkNode) -> tuple[NetworkNode, int]:
        """The (far node, far port) seen from ``node``."""
        if node is self.a:
            return self.b, self.b_port
        if node is self.b:
            return self.a, self.a_port
        raise TopologyError(f"{node.name} is not an endpoint of this link")

    def port_for(self, node: NetworkNode) -> int:
        """The local port number of ``node`` on this link."""
        if node is self.a:
            return self.a_port
        if node is self.b:
            return self.b_port
        raise TopologyError(f"{node.name} is not an endpoint of this link")

    # ------------------------------------------------------------------
    def transmit(self, sender: NetworkNode, packet: Packet) -> None:
        """Send a packet from ``sender`` to the far end of the link."""
        if sender is self.a:
            direction, receiver, far_port = self._dir_ab, self.b, self.b_port
        elif sender is self.b:
            direction, receiver, far_port = self._dir_ba, self.a, self.a_port
        else:
            raise TopologyError(
                f"{sender.name} is not an endpoint of this link"
            )
        flight = packet.flight
        if not (self._admin_up and self._oper_up):
            self._lost_down.inc()
            direction.lost_packets += 1
            if flight is not None:
                flight.add(
                    packet.packet_id, "link_tx", sender.name,
                    drop="link-down", src=sender.name, dst=receiver.name,
                )
            return
        now = self.sim.now
        serialization = packet.size_bytes * 8.0 / self.bandwidth_bps
        start = max(now, direction.busy_until)
        direction.busy_until = start + serialization
        arrival = direction.busy_until + self.delay_s
        direction.packets.inc()
        direction.bytes.inc(packet.size_bytes)
        packet.hops += 1
        if flight is not None:
            flight.add(
                packet.packet_id, "link_tx", sender.name,
                src=sender.name, dst=receiver.name,
                queueing_s=start - now,
                serialization_s=serialization,
                propagation_s=self.delay_s,
                arrival=arrival,
            )
        self.sim.schedule_at(arrival, receiver.receive, packet, far_port)

    def counters_for(self, node: NetworkNode) -> PortCounters:
        """The link counters as seen from one endpoint's port.

        ``tx_*`` is the direction ``node`` transmits on, ``rx_*`` the
        reverse.  Both endpoints read the same two direction counters, so
        in-model a peer's ``rx`` equals this end's ``tx`` modulo polling
        skew — real loss shows up in ``tx_dropped``.
        """
        if node is self.a:
            tx, rx = self._dir_ab, self._dir_ba
        elif node is self.b:
            tx, rx = self._dir_ba, self._dir_ab
        else:
            raise TopologyError(f"{node.name} is not an endpoint of this link")
        return PortCounters(
            tx_packets=tx.packets.value,
            tx_bytes=tx.bytes.value,
            tx_dropped=tx.lost_packets,
            rx_packets=rx.packets.value,
            rx_bytes=rx.bytes.value,
        )

    # ------------------------------------------------------------------
    @property
    def total_packets(self) -> int:
        return self._dir_ab.packets.value + self._dir_ba.packets.value

    @property
    def total_bytes(self) -> int:
        return self._dir_ab.bytes.value + self._dir_ba.bytes.value

    def reset_counters(self) -> None:
        self._lost_down.reset()
        for direction in (self._dir_ab, self._dir_ba):
            direction.packets.reset()
            direction.bytes.reset()

    def __repr__(self) -> str:
        return (
            f"Link({self.a.name}:{self.a_port} <-> "
            f"{self.b.name}:{self.b_port})"
        )
