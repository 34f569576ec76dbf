"""OpenFlow-style control messages.

PLEROMA "follows the widely accepted OpenFlow standard to perform such
updates" (Sec. 2).  This module models the subset of the protocol the
middleware exercises: flow modifications (add/modify/delete), barriers for
ordering, packet-in diversion of ``IP_pub/sub`` traffic, packet-out for
controller-originated packets (used to reach neighbouring partitions
through border switches), and a features handshake exposing the switch's
table capacity (the TCAM budget of requirement 3).

Messages are plain immutable values; the transport lives in
:mod:`repro.network.control_channel`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


from repro.core.addressing import MulticastPrefix
from repro.network.flow import FlowEntry
from repro.network.packet import Packet

__all__ = [
    "FlowModCommand",
    "OpenFlowMessage",
    "FlowMod",
    "BarrierRequest",
    "BarrierReply",
    "PacketIn",
    "PacketOut",
    "FeaturesRequest",
    "FeaturesReply",
    "EchoRequest",
    "EchoReply",
    "ErrorMessage",
    "FlowStatsRequest",
    "FlowStatsEntry",
    "FlowStatsReply",
    "PortStatsRequest",
    "PortStatsEntry",
    "PortStatsReply",
    "TableStatsRequest",
    "TableStatsReply",
    "message_size",
]


class FlowModCommand(enum.Enum):
    """The three table operations the controller issues."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"


@dataclass(frozen=True)
class OpenFlowMessage:
    """Base class: every message carries a transaction id, minted by its
    sender from ``sim.ids`` or echoed by a reply (hand-built: 0)."""

    xid: int = field(default=0, kw_only=True)


@dataclass(frozen=True)
class FlowMod(OpenFlowMessage):
    """Install, modify or delete one flow entry.

    ``entry`` carries the match/priority/instruction set for ADD and
    MODIFY; DELETE identifies the doomed flow by ``match`` alone.
    """

    command: FlowModCommand
    entry: FlowEntry | None = None
    match: MulticastPrefix | None = None

    def __post_init__(self) -> None:
        if self.command is FlowModCommand.DELETE:
            if self.match is None:
                raise ValueError("DELETE needs a match field")
        elif self.entry is None:
            raise ValueError(f"{self.command.value} needs a flow entry")


@dataclass(frozen=True)
class BarrierRequest(OpenFlowMessage):
    """Fence: the switch replies only after all earlier messages applied."""


@dataclass(frozen=True)
class BarrierReply(OpenFlowMessage):
    """Acknowledges a barrier (same xid as the request)."""


@dataclass(frozen=True)
class PacketIn(OpenFlowMessage):
    """A data-plane packet diverted to the controller.

    PLEROMA switches send every ``IP_pub/sub`` packet up (reason
    ``pubsub``); a table miss would use reason ``no_match`` (the data plane
    never punts events, so this reason only appears in tests).
    """

    switch: str
    in_port: int
    packet: Packet
    reason: str = "pubsub"


@dataclass(frozen=True)
class PacketOut(OpenFlowMessage):
    """A controller-originated packet sent out of a specific port.

    This is how a controller reaches the (anonymous) controller of an
    adjoining partition: out through a border switch port, addressed to
    ``IP_pub/sub`` (Sec. 4.1).
    """

    out_port: int
    packet: Packet


@dataclass(frozen=True)
class FeaturesRequest(OpenFlowMessage):
    """Handshake: ask a switch for its identity and capabilities."""


@dataclass(frozen=True)
class FeaturesReply(OpenFlowMessage):
    """The switch's identity, port count and TCAM capacity."""

    datapath: str
    ports: tuple[int, ...]
    table_capacity: int


@dataclass(frozen=True)
class EchoRequest(OpenFlowMessage):
    """Liveness probe."""


@dataclass(frozen=True)
class EchoReply(OpenFlowMessage):
    """Echo response (same xid)."""


@dataclass(frozen=True)
class ErrorMessage(OpenFlowMessage):
    """Reported when a message cannot be applied (e.g. table full)."""

    failed_xid: int = 0
    reason: str = ""


# ----------------------------------------------------------------------
# multipart statistics (OFPMP_FLOW / OFPMP_PORT_STATS / OFPMP_TABLE)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowStatsRequest(OpenFlowMessage):
    """Ask a switch for the per-rule counters of its flow table.

    This — not any oracle read of switch internals — is how a real SDN
    controller observes data-plane workload; the :mod:`repro.obs.telemetry`
    poller issues these periodically over the control channel.
    """


@dataclass(frozen=True)
class FlowStatsEntry:
    """One rule's counters inside a :class:`FlowStatsReply` (not itself a
    message; mirrors ``struct ofp_flow_stats``)."""

    match: MulticastPrefix
    priority: int
    cookie: int
    packet_count: int
    byte_count: int
    duration_s: float


@dataclass(frozen=True)
class FlowStatsReply(OpenFlowMessage):
    """The switch's per-rule counters at request-application time."""

    datapath: str
    entries: tuple[FlowStatsEntry, ...]


@dataclass(frozen=True)
class PortStatsRequest(OpenFlowMessage):
    """Ask a switch for its per-port packet/byte/drop counters."""


@dataclass(frozen=True)
class PortStatsEntry:
    """One port's counters inside a :class:`PortStatsReply` (mirrors
    ``struct ofp_port_stats``).  ``tx_dropped`` counts frames offered to a
    down link — the signal behind controller-side loss inference."""

    port: int
    rx_packets: int
    tx_packets: int
    rx_bytes: int
    tx_bytes: int
    tx_dropped: int


@dataclass(frozen=True)
class PortStatsReply(OpenFlowMessage):
    """The switch's per-port counters at request-application time."""

    datapath: str
    ports: tuple[PortStatsEntry, ...]


@dataclass(frozen=True)
class TableStatsRequest(OpenFlowMessage):
    """Ask a switch for its flow-table occupancy and lookup counters."""


@dataclass(frozen=True)
class TableStatsReply(OpenFlowMessage):
    """Occupancy/lookup summary of the (single) flow table."""

    datapath: str
    active_count: int
    capacity: int
    lookup_count: int
    matched_count: int


#: OpenFlow 1.3 wire sizes: the common header is 8 bytes; the per-type
#: body sizes below follow the spec's fixed structs (flow-mod body of
#: 48 B plus a 24 B IPv6-prefix match TLV, packet-in/out 24/16 B headers
#: plus the carried frame, multipart messages an 8 B multipart header
#: plus fixed-size stats structs per entry).
_OFP_HEADER = 8
_FLOW_MOD_BODY = 48
_MATCH_TLV = 24  # OXM IPv6-destination match (prefix + mask)
_PACKET_IN_BODY = 24
_PACKET_OUT_BODY = 16
_FEATURES_REPLY_BODY = 24
_ERROR_BODY = 12
_MULTIPART_HEADER = 8
_FLOW_STATS_ENTRY = 56  # ofp_flow_stats sans match TLV
_PORT_STATS_ENTRY = 112
_TABLE_STATS_ENTRY = 24


def _header_only(message: OpenFlowMessage) -> int:
    return _OFP_HEADER


def _multipart_fixed(message: OpenFlowMessage) -> int:
    return _OFP_HEADER + _MULTIPART_HEADER


#: Explicit per-type wire-size rules.  *Every* concrete message type must
#: appear here — :func:`message_size` refuses unknown types so a new
#: message cannot silently ride the control channel without byte
#: accounting (a test enforces completeness).
_SIZE_RULES: dict[type, "object"] = {
    FlowMod: lambda m: _OFP_HEADER + _FLOW_MOD_BODY + _MATCH_TLV,
    BarrierRequest: _header_only,
    BarrierReply: _header_only,
    PacketIn: lambda m: _OFP_HEADER + _PACKET_IN_BODY + m.packet.size_bytes,
    PacketOut: lambda m: _OFP_HEADER + _PACKET_OUT_BODY + m.packet.size_bytes,
    FeaturesRequest: _header_only,
    FeaturesReply: lambda m: (
        _OFP_HEADER + _FEATURES_REPLY_BODY + 8 * len(m.ports)
    ),
    EchoRequest: _header_only,
    EchoReply: _header_only,
    ErrorMessage: lambda m: (
        _OFP_HEADER + _ERROR_BODY + len(m.reason.encode("utf-8"))
    ),
    FlowStatsRequest: _multipart_fixed,
    FlowStatsReply: lambda m: (
        _OFP_HEADER
        + _MULTIPART_HEADER
        + len(m.entries) * (_FLOW_STATS_ENTRY + _MATCH_TLV)
    ),
    PortStatsRequest: _multipart_fixed,
    PortStatsReply: lambda m: (
        _OFP_HEADER + _MULTIPART_HEADER + len(m.ports) * _PORT_STATS_ENTRY
    ),
    TableStatsRequest: _multipart_fixed,
    TableStatsReply: lambda m: (
        _OFP_HEADER + _MULTIPART_HEADER + _TABLE_STATS_ENTRY
    ),
}


def message_size(message: OpenFlowMessage) -> int:
    """Wire size in bytes of one control message.

    The control channel uses this for its per-direction byte counters —
    the quantities behind the Fig. 7h control-traffic measurements.
    Raises :class:`LookupError` for a message type without an explicit
    size rule in ``_SIZE_RULES``.
    """
    try:
        rule = _SIZE_RULES[type(message)]
    except KeyError:
        raise LookupError(
            f"no wire-size rule for {type(message).__name__}; "
            "add one to repro.network.openflow._SIZE_RULES"
        ) from None
    return rule(message)  # type: ignore[operator]
