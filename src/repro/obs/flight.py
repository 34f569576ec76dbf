"""The data-plane flight recorder: per-packet hop histories.

PR 1's control-plane spans can explain what the *controller* did to a
request, but not why one delivered event took 4.2 ms or which switch ate a
packet.  This module closes that gap in the NetSight/ndb "postcard" style:
every traversal point of the simulated data plane — :meth:`Host.send`,
:meth:`Switch.receive`, :meth:`Link.transmit`, :meth:`Host.receive` and the
application hand-off — appends a :class:`HopRecord` for sampled packets
into a bounded ring buffer keyed by ``packet_id``.

Design constraints, in priority order:

* **off by default, near-zero cost when off** — devices hold a
  ``_flight`` attribute that is ``None`` until a recorder is attached;
  the hot-path hook is one attribute load and an ``is not None`` test;
* **deterministic** — the 1-in-N sampling decision is drawn per new
  ``packet_id`` from a :class:`random.Random` seeded at construction, so
  two identical-seed runs sample the same packets and serialise to
  byte-identical trace exports (packet ids are allocated in event order,
  which the simulator makes deterministic);
* **bounded** — hop records live in a ``deque(maxlen=capacity)``; old
  packets are evicted oldest-first and the eviction count is reported,
  never silently hidden.

Reconstruction of paths, delay attribution and drop forensics on top of
these records lives in :mod:`repro.obs.paths`.
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
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

    packets_seen: int = 0      # distinct packet ids a sampling decision
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


class _SamplingMemo(OrderedDict[int, bool]):
    """Sampling decisions per packet id; looking up a new id draws one.

    Bounded FIFO: past ``capacity`` ids the oldest decision is evicted.
    """

    def __init__(self, draw: Callable[[], bool], capacity: int) -> None:
        super().__init__()
        self._draw = draw
        self._capacity = capacity

    def __missing__(self, packet_id: int) -> bool:
        decision = self._draw()
        self[packet_id] = decision
        if len(self) > self._capacity:
            self.popitem(last=False)
        return decision


class FlightRecorder:
    """Bounded, sampled hop-history store for the simulated data plane.

    Devices call :attr:`wants` with a packet id before computing any
    record detail, then :meth:`add` for sampled packets.  Analysis code
    reads :attr:`records` (insertion order equals sim-time order, since
    the simulator never runs backwards) or :meth:`by_packet`.
    """

    #: Decisions memoised per packet id; bounded FIFO so a long run cannot
    #: grow memory without bound (a re-queried evicted id re-draws, which
    #: is deterministic for identical runs).
    DECISION_CAPACITY_FACTOR = 4

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
        self._decisions = _SamplingMemo(
            self._draw, self.DECISION_CAPACITY_FACTOR * capacity
        )
        #: ``wants(packet_id)``: should this packet's hops be recorded?
        #: Memoised 1-in-N.  Bound straight to the memo's C-level
        #: subscript, so a packet already decided costs no Python frame.
        self.wants: Callable[[int], bool] = self._decisions.__getitem__
        self.records: deque[HopRecord] = deque(maxlen=capacity)
        self.stats = FlightStats()

    # ------------------------------------------------------------------
    # recording (device-facing, hot path)
    # ------------------------------------------------------------------
    def _draw(self) -> bool:
        """The sampling decision for a packet id seen for the first time."""
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
        """Append one hop record (caller already checked :meth:`wants`)."""
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
        """Drop all records and decisions; keeps the RNG state (clearing
        mid-run must not re-align sampling with a fresh run)."""
        self.records.clear()
        self._decisions.clear()
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
