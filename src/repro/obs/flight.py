"""The data-plane flight recorder: per-packet hop histories.

PR 1's control-plane spans can explain what the *controller* did to a
request, but not why one delivered event took 4.2 ms or which switch ate a
packet.  This module closes that gap in the NetSight/ndb "postcard" style:
every traversal point of the simulated data plane — :meth:`Host.send`,
:meth:`Switch.receive`, :meth:`Link.transmit`, :meth:`Host.receive` and the
application hand-off — appends a :class:`HopRecord` for sampled packets
into a bounded ring buffer keyed by ``packet_id``.

Design constraints, in priority order:

* **off by default, near-zero cost when off** — the sampling decision is
  made once per packet, when :meth:`Network.packet
  <repro.network.fabric.Network.packet>` mints it, and stamped on
  ``Packet.flight`` (this recorder, or ``None``).  Copies made on the
  path keep the stamp, so every traversal point reads one attribute and
  an unsampled packet runs the same code whether or not a recorder is
  attached;
* **deterministic** — the 1-in-N decision (:meth:`FlightRecorder.sample`)
  is drawn per minted packet from a :class:`random.Random` seeded at
  construction, so two identical-seed runs sample the same packets and
  serialise to byte-identical trace exports (packets are minted in event
  order, which the simulator makes deterministic);
* **bounded** — hop records live in a ``deque(maxlen=capacity)``; old
  packets are evicted oldest-first and the eviction count is reported,
  never silently hidden.

A packet minted before a recorder is attached is never recorded.  One
minted before the recorder is detached keeps its stamp, and records into
the detached recorder for the rest of its path.

Reconstruction of paths, delay attribution and drop forensics on top of
these records lives in :mod:`repro.obs.paths`.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

__all__ = [
    "FlightRecorder",
    "HopRecord",
    "TRAVERSAL_POINTS",
    "DROP_REASONS",
]

#: The instrumented traversal points, in the order a delivery visits them.
TRAVERSAL_POINTS: tuple[str, ...] = (
    "host_send",    # Host.send — the packet enters the network
    "switch_recv",  # Switch.receive — TCAM lookup (hit, miss or diversion)
    "link_tx",      # Link.transmit — serialization + queueing + propagation
    "host_recv",    # Host.receive — NIC arrival, ingest-queue admission
    "host_deliver", # Host._process — handed to the application
)

#: The complete drop taxonomy.  Every lost packet copy is attributed to
#: exactly one of these reasons at the point where it died.
DROP_REASONS: tuple[str, ...] = (
    "table-miss",           # no flow matched at a switch
    "no-link",              # matched action's output port has no link
    "link-down",            # transmitted into a failed link
    "switch-down",          # arrived at a crashed switch
    "host-queue-overflow",  # subscriber ingest queue was full
    "ingress-bounce",       # action would forward back out the ingress port
)


@dataclass
class HopRecord:
    """One observation of one packet at one traversal point.

    ``drop`` is ``None`` for a surviving hop, or one of
    :data:`DROP_REASONS` when this record is where the packet (copy)
    died.  ``detail`` carries point-specific attribution data: lookup
    delay at a switch, the serialization/queueing/propagation split on a
    link, queue wait at a host.
    """

    __slots__ = ("packet_id", "t", "point", "node", "drop", "detail")

    packet_id: int
    t: float
    point: str
    node: str
    drop: str | None
    detail: dict

    def to_dict(self) -> dict:
        return {
            "packet_id": self.packet_id,
            "t": self.t,
            "point": self.point,
            "node": self.node,
            "drop": self.drop,
            "detail": {k: self.detail[k] for k in sorted(self.detail)},
        }


@dataclass
class FlightStats:
    """Bookkeeping the recorder maintains alongside the ring buffer."""

    packets_seen: int = 0      # packets minted while attached (one draw each)
    packets_sampled: int = 0   # ... and how many of them were sampled
    records_appended: int = 0  # total appends (>= len(ring) after eviction)
    records_evicted: int = 0   # appends that pushed an old record out
    drop_counts: dict = field(default_factory=dict)  # reason -> count

    def to_dict(self) -> dict:
        return {
            "packets_seen": self.packets_seen,
            "packets_sampled": self.packets_sampled,
            "records_appended": self.records_appended,
            "records_evicted": self.records_evicted,
            "drop_counts": {
                k: self.drop_counts[k] for k in sorted(self.drop_counts)
            },
        }


class FlightRecorder:
    """Bounded, sampled hop-history store for the simulated data plane.

    :meth:`Network.packet <repro.network.fabric.Network.packet>` calls
    :meth:`sample` once per minted packet, and devices call :meth:`add`
    for the packets it stamped.  Analysis code reads :attr:`records`
    (insertion order equals sim-time order, since the simulator never
    runs backwards) or :meth:`by_packet`.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        sample_every: int = 1,
        capacity: int = 65_536,
        seed: int = 0,
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._clock = clock
        self.sample_every = sample_every
        self.capacity = capacity
        self._rng = random.Random(seed)
        self.records: deque[HopRecord] = deque(maxlen=capacity)
        self.stats = FlightStats()

    # ------------------------------------------------------------------
    # recording (device-facing, hot path)
    # ------------------------------------------------------------------
    def sample(self) -> bool:
        """The 1-in-N sampling decision for one newly minted packet."""
        self.stats.packets_seen += 1
        if self.sample_every == 1:
            decision = True
        else:
            decision = self._rng.randrange(self.sample_every) == 0
        if decision:
            self.stats.packets_sampled += 1
        return decision

    def add(
        self,
        packet_id: int,
        point: str,
        node: str,
        drop: str | None = None,
        **detail,
    ) -> None:
        """Append one hop record for a packet :meth:`sample` chose."""
        if len(self.records) == self.capacity:
            self.stats.records_evicted += 1
        self.stats.records_appended += 1
        if drop is not None:
            counts = self.stats.drop_counts
            counts[drop] = counts.get(drop, 0) + 1
        self.records.append(
            HopRecord(
                packet_id=packet_id,
                t=self._clock(),
                point=point,
                node=node,
                drop=drop,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[HopRecord]:
        return iter(self.records)

    def by_packet(self) -> dict[int, list[HopRecord]]:
        """Hop histories grouped by packet id, each in traversal order.

        Packets whose early hops were evicted from the ring still appear
        (with a truncated history); :mod:`repro.obs.paths` detects and
        reports incomplete histories rather than mis-attributing them.
        """
        grouped: dict[int, list[HopRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.packet_id, []).append(record)
        return grouped

    def clear(self) -> None:
        """Drop all records and stats; keeps the RNG state (clearing
        mid-run must not re-align sampling with a fresh run)."""
        self.records.clear()
        self.stats = FlightStats()

    def to_dicts(self) -> list[dict]:
        """Every record as a JSON-compatible dict, in traversal order."""
        return [record.to_dict() for record in self.records]

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self.records)} records, "
            f"1-in-{self.sample_every} sampling, "
            f"{self.stats.packets_sampled}/{self.stats.packets_seen} "
            f"packets sampled)"
        )
