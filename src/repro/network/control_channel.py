"""The out-of-band control network between a controller and its switches.

Each switch has a dedicated control connection ("a dedicated control
network", Sec. 1).  The channel delivers OpenFlow messages with a
configurable one-way latency, preserves per-switch FIFO ordering (TCP
semantics) *in both directions* — controller-to-switch and
switch-to-controller messages each arrive no earlier than their
predecessors on the same connection — applies flow-mods to the switch's
table on arrival, and answers barriers/echoes/features requests.
``IP_pub/sub`` packets diverted by a switch travel the reverse direction
as ``PacketIn``.

The channel also keeps counters — messages and bytes per direction, sized
by :func:`~repro.network.openflow.message_size` — that back the
control-overhead measurements (Fig. 7h); they surface through the shared
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.exceptions import FlowTableError, TopologyError
from repro.network.openflow import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    TableStatsReply,
    TableStatsRequest,
    message_size,
)
from repro.network.packet import Packet
from repro.network.switch import Switch
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator

__all__ = ["ControlChannel", "DEFAULT_CONTROL_LATENCY_S"]

#: One-way controller<->switch latency.  Two crossings (request + ack)
#: match the 0.35 ms per-flow-mod round trip used in the delay model.
DEFAULT_CONTROL_LATENCY_S = 175e-6

ControllerHandler = Callable[[PacketIn], None]


@dataclass
class _Connection:
    switch: Switch
    handler: ControllerHandler | None = None
    # FIFO ordering, one horizon per direction: the next message in a
    # direction may not arrive before the previous one did.
    busy_until: float = 0.0
    ctrl_busy_until: float = 0.0
    to_switch_messages: int = 0
    to_controller_messages: int = 0
    to_switch_bytes: int = 0
    to_controller_bytes: int = 0


class ControlChannel:
    """Latency- and order-preserving OpenFlow transport for one controller."""

    def __init__(
        self,
        sim: Simulator,
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if latency_s < 0:
            raise TopologyError("control latency must be >= 0")
        self.sim = sim
        self.latency_s = latency_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self._connections: dict[str, _Connection] = {}
        self.replies: list[OpenFlowMessage] = []
        self.errors: list[ErrorMessage] = []
        # Called as listener(switch_name, message) when a reply arrives at
        # the controller side; the stats poller subscribes here.
        self.reply_listeners: list[
            Callable[[str, OpenFlowMessage], None]
        ] = []
        self._m_to_switch = self.registry.counter(
            "control.messages", direction="to_switch"
        )
        self._m_to_controller = self.registry.counter(
            "control.messages", direction="to_controller"
        )
        self._b_to_switch = self.registry.counter(
            "control.bytes", direction="to_switch"
        )
        self._b_to_controller = self.registry.counter(
            "control.bytes", direction="to_controller"
        )

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(
        self, switch: Switch, handler: ControllerHandler | None = None
    ) -> None:
        """Open the control connection to a switch.

        The switch's ``IP_pub/sub`` diversion is rewired to produce
        ``PacketIn`` messages through this channel.
        """
        if switch.name in self._connections:
            raise TopologyError(f"{switch.name} already connected")
        connection = _Connection(switch=switch, handler=handler)
        self._connections[switch.name] = connection
        switch.set_control_handler(
            lambda sw, packet, in_port: self._packet_in(
                connection, packet, in_port
            )
        )

    def set_handler(self, switch_name: str, handler: ControllerHandler) -> None:
        self._connection(switch_name).handler = handler

    def connected_switches(self) -> list[str]:
        return sorted(self._connections)

    def _connection(self, switch_name: str) -> _Connection:
        try:
            return self._connections[switch_name]
        except KeyError:
            raise TopologyError(
                f"no control connection to {switch_name!r}"
            ) from None

    # ------------------------------------------------------------------
    # controller -> switch
    # ------------------------------------------------------------------
    def send(self, switch_name: str, message: OpenFlowMessage) -> None:
        """Ship one message to a switch; it is applied after the one-way
        latency, in FIFO order with earlier messages."""
        connection = self._connection(switch_name)
        size = message_size(message)
        connection.to_switch_messages += 1
        connection.to_switch_bytes += size
        self._m_to_switch.inc()
        self._b_to_switch.inc(size)
        arrival = max(
            self.sim.now + self.latency_s, connection.busy_until
        )
        connection.busy_until = arrival
        self.sim.schedule_at(arrival, self._apply, connection, message)

    def _apply(self, connection: _Connection, message: OpenFlowMessage) -> None:
        switch = connection.switch
        if isinstance(message, FlowMod):
            try:
                self._apply_flow_mod(switch, message)
            except FlowTableError as exc:
                self._reply(
                    connection,
                    ErrorMessage(
                        failed_xid=message.xid,
                        reason=str(exc),
                        xid=self.sim.ids.next("xid"),
                    ),
                )
        elif isinstance(message, BarrierRequest):
            self._reply(connection, BarrierReply(xid=message.xid))
        elif isinstance(message, EchoRequest):
            self._reply(connection, EchoReply(xid=message.xid))
        elif isinstance(message, FeaturesRequest):
            self._reply(
                connection,
                FeaturesReply(
                    datapath=switch.name,
                    ports=tuple(sorted(switch.ports)),
                    table_capacity=switch.table.capacity,
                    xid=message.xid,
                ),
            )
        elif isinstance(message, FlowStatsRequest):
            self._reply(connection, self._flow_stats(switch, message.xid))
        elif isinstance(message, PortStatsRequest):
            self._reply(connection, self._port_stats(switch, message.xid))
        elif isinstance(message, TableStatsRequest):
            self._reply(connection, self._table_stats(switch, message.xid))
        elif isinstance(message, PacketOut):
            switch.send_via_port(message.out_port, message.packet)
        else:
            self._reply(
                connection,
                ErrorMessage(
                    failed_xid=message.xid,
                    reason=f"unsupported message {type(message).__name__}",
                    xid=self.sim.ids.next("xid"),
                ),
            )

    @staticmethod
    def _apply_flow_mod(switch: Switch, mod: FlowMod) -> None:
        if mod.command in (FlowModCommand.ADD, FlowModCommand.MODIFY):
            assert mod.entry is not None
            switch.table.install(mod.entry)
        else:
            assert mod.match is not None
            switch.table.remove(mod.match)

    # ------------------------------------------------------------------
    # multipart statistics replies (counters read at application time —
    # the controller-side view is stale by at least the return latency)
    # ------------------------------------------------------------------
    def _flow_stats(self, switch: Switch, xid: int) -> FlowStatsReply:
        now = self.sim.now
        entries = tuple(
            FlowStatsEntry(
                match=entry.match,
                priority=entry.priority,
                cookie=entry.cookie,
                packet_count=stats.packets,
                byte_count=stats.bytes,
                duration_s=now - stats.created_at,
            )
            for entry, stats in switch.table.entries_with_stats()
        )
        return FlowStatsReply(datapath=switch.name, entries=entries, xid=xid)

    @staticmethod
    def _port_stats(switch: Switch, xid: int) -> PortStatsReply:
        ports = []
        for port, link in sorted(switch.ports.items()):
            counters = link.counters_for(switch)
            ports.append(
                PortStatsEntry(
                    port=port,
                    rx_packets=counters.rx_packets,
                    tx_packets=counters.tx_packets,
                    rx_bytes=counters.rx_bytes,
                    tx_bytes=counters.tx_bytes,
                    tx_dropped=counters.tx_dropped,
                )
            )
        return PortStatsReply(
            datapath=switch.name, ports=tuple(ports), xid=xid
        )

    @staticmethod
    def _table_stats(switch: Switch, xid: int) -> TableStatsReply:
        table = switch.table
        return TableStatsReply(
            datapath=switch.name,
            active_count=len(table),
            capacity=table.capacity,
            lookup_count=table.lookups,
            matched_count=table.lookups - table.misses,
            xid=xid,
        )

    # ------------------------------------------------------------------
    # switch -> controller
    # ------------------------------------------------------------------
    def _controller_bound(self, connection: _Connection, message) -> float:
        """Account one switch-to-controller message and return its FIFO
        arrival time (TCP semantics: never before an earlier message)."""
        size = message_size(message)
        connection.to_controller_messages += 1
        connection.to_controller_bytes += size
        self._m_to_controller.inc()
        self._b_to_controller.inc(size)
        arrival = max(
            self.sim.now + self.latency_s, connection.ctrl_busy_until
        )
        connection.ctrl_busy_until = arrival
        return arrival

    def _packet_in(
        self, connection: _Connection, packet: Packet, in_port: int
    ) -> None:
        message = PacketIn(
            switch=connection.switch.name,
            in_port=in_port,
            packet=packet,
            xid=self.sim.ids.next("xid"),
        )
        arrival = self._controller_bound(connection, message)
        self.sim.schedule_at(
            arrival, self._deliver_packet_in, connection, message
        )

    def _deliver_packet_in(
        self, connection: _Connection, message: PacketIn
    ) -> None:
        if connection.handler is not None:
            connection.handler(message)

    def _reply(self, connection: _Connection, message: OpenFlowMessage) -> None:
        arrival = self._controller_bound(connection, message)
        self.sim.schedule_at(arrival, self._record_reply, connection, message)

    def _record_reply(
        self, connection: _Connection, message: OpenFlowMessage
    ) -> None:
        self.replies.append(message)
        if isinstance(message, ErrorMessage):
            self.errors.append(message)
        for listener in self.reply_listeners:
            listener(connection.switch.name, message)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def messages_to_switches(self) -> int:
        return sum(c.to_switch_messages for c in self._connections.values())

    def messages_to_controller(self) -> int:
        return sum(
            c.to_controller_messages for c in self._connections.values()
        )

    def bytes_to_switches(self) -> int:
        return sum(c.to_switch_bytes for c in self._connections.values())

    def bytes_to_controller(self) -> int:
        return sum(
            c.to_controller_bytes for c in self._connections.values()
        )

    def per_switch_counters(self) -> dict[str, dict[str, int]]:
        """Message/byte counts per connection (sorted, JSON-friendly)."""
        return {
            name: {
                "to_switch_messages": c.to_switch_messages,
                "to_switch_bytes": c.to_switch_bytes,
                "to_controller_messages": c.to_controller_messages,
                "to_controller_bytes": c.to_controller_bytes,
            }
            for name, c in sorted(self._connections.items())
        }
