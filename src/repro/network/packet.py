"""Packets carried by the simulated data plane.

Events are sent as small UDP datagrams (Sec. 6.2: "up to 64 bytes depending
upon the length of dz") whose destination address is the IPv6 multicast
address encoding the event's dz-expression.  Control messages addressed to
``IP_pub/sub`` are diverted by switches to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.dz import Dz
from repro.core.events import Event

if TYPE_CHECKING:
    from repro.core.spatial_index import SpatialIndexer
    from repro.obs.flight import FlightRecorder

__all__ = ["Packet", "EventPayload", "event_packet_size"]

#: Fixed protocol overhead of an event datagram (headers + event id).
_EVENT_BASE_SIZE = 48


def event_packet_size(dz: Dz) -> int:
    """Datagram size in bytes for an event stamped with ``dz``.

    Matches the paper's "up to 64 bytes depending upon the length of dz":
    48 bytes of fixed overhead plus one byte per 8 dz bits, capped at 64.
    """
    return min(64, _EVENT_BASE_SIZE + (len(dz) + 7) // 8)


@dataclass(frozen=True)
class EventPayload:
    """The application content of an event packet.

    ``indexer`` is the spatial indexer that stamped ``dz`` (``None`` for
    a hand-built payload): a receiver compares it with the indexing its
    own subscription regions came from.  It is out of equality, repr and
    wire size.
    """

    event: Event
    dz: Dz
    publisher: str
    publish_time: float
    indexer: "SpatialIndexer | None" = field(
        default=None, compare=False, repr=False
    )


@dataclass
class Packet:
    """A datagram traversing the simulated network.

    ``dst_address`` is a 128-bit integer (IPv6).  ``payload`` is either an
    :class:`EventPayload` or an inter-controller message object.  The
    destination address is rewritten by terminal switches (set-field action)
    to the subscriber host address, exactly as in Fig. 3 of the paper.
    :meth:`Network.packet <repro.network.fabric.Network.packet>` mints
    ``packet_id`` and ``flight``, the flight recorder this packet was
    sampled for (``None``: not sampled); a hand-built packet keeps id 0
    and is never recorded.  ``flight`` is out of equality, repr and
    wire size.
    """

    dst_address: int
    payload: Any
    size_bytes: int = 64
    src_address: int = 0
    packet_id: int = 0
    hops: int = 0
    flight: "FlightRecorder | None" = field(
        default=None, compare=False, repr=False
    )

    def with_destination(self, dst_address: int) -> "Packet":
        """A copy with a rewritten destination (same packet identity)."""
        return Packet(
            dst_address=dst_address,
            payload=self.payload,
            size_bytes=self.size_bytes,
            src_address=self.src_address,
            packet_id=self.packet_id,
            hops=self.hops,
            flight=self.flight,
        )
