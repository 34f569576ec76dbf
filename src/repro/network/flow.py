"""OpenFlow-style flow entries and prioritised TCAM flow tables.

A flow (Sec. 3.3.2) consists of a match field (an IPv6 CIDR prefix carrying
a dz-expression), an instruction set (output ports, optionally a set-field
rewriting the destination address on terminal switches), and a priority
order deciding which of several matching flows applies — PLEROMA assigns
higher priority to longer dz so the most specific subspace wins.

The table model follows TCAM semantics: a packet is matched against all
entries, and only the instruction set of the single highest-priority match
is executed.  Lookup time in hardware is independent of occupancy; the
switch model adds that constant-time cost, this module is purely the
matching semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Iterator

from collections.abc import Callable

from repro.core.addressing import (
    MulticastPrefix,
    dz_to_prefix,
    prefix_fields,
    prefix_to_dz,
)
from repro.core.dz import Dz
from repro.exceptions import FlowTableError

__all__ = [
    "Action",
    "FlowEntry",
    "FlowStats",
    "FlowTable",
    "LOOKUP_MEMO_CAP",
]

#: Most destination addresses one table's lookup memo holds; a full memo
#: is dropped whole.  A 12-bit dz space has 4096 event addresses.
LOOKUP_MEMO_CAP = 4096


@dataclass(frozen=True, order=True)
class Action:
    """One instruction: output on a port, optionally rewriting the dst IP.

    ``set_dest`` models the OpenFlow set-field action used on terminal
    switches to readdress an event to the subscriber host (Fig. 3).
    """

    out_port: int
    set_dest: int | None = None

    def __str__(self) -> str:
        if self.set_dest is None:
            return f"out:{self.out_port}"
        return f"set-dst={self.set_dest:#x},out:{self.out_port}"


@dataclass(frozen=True)
class FlowEntry:
    """An immutable flow-table entry; modifications replace the entry."""

    match: MulticastPrefix
    priority: int
    actions: frozenset[Action]
    cookie: int = 0  # minted by the controller; a hand-built entry keeps 0

    @classmethod
    def for_dz(
        cls,
        dz: Dz,
        actions: frozenset[Action] | set[Action],
        priority: int | None = None,
        cookie: int = 0,
    ) -> "FlowEntry":
        """Build an entry matching subspace ``dz``.

        Default priority is ``|dz|`` — the paper's rule that longer
        dz-expressions take precedence.
        """
        return cls(
            match=dz_to_prefix(dz),
            priority=len(dz) if priority is None else priority,
            actions=frozenset(actions),
            cookie=cookie,
        )

    @property
    def dz(self) -> Dz:
        """The subspace this entry filters for, cached per entry."""
        cached = self.__dict__.get("_dz")
        if cached is None:
            cached = prefix_to_dz(self.match)
            object.__setattr__(self, "_dz", cached)
        return cached

    @property
    def out_ports(self) -> frozenset[int]:
        return frozenset(a.out_port for a in self.actions)

    def sorted_actions(self) -> tuple[Action, ...]:
        """The actions in (port, rewrite) order, cached per entry.

        ``frozenset`` iteration order varies per process (``set_dest`` is
        often ``None``, whose hash is address-derived on CPython < 3.12),
        so the switch must never let it decide the replication order at
        fan-out points — that order is observable in flight records and
        in host arrival sequences.
        """
        cached = self.__dict__.get("_sorted_actions")
        if cached is None:
            cached = tuple(
                sorted(
                    self.actions,
                    key=lambda a: (
                        a.out_port,
                        -1 if a.set_dest is None else a.set_dest,
                    ),
                )
            )
            object.__setattr__(self, "_sorted_actions", cached)
        return cached

    def covers(self, other: "FlowEntry") -> bool:
        """Full flow containment (Sec. 3.3.2): coarser-or-equal match *and*
        a superset of the other's actions."""
        return self.match.covers(other.match) and self.actions >= other.actions

    def partially_covers(self, other: "FlowEntry") -> bool:
        """Partial containment: coarser-or-equal match but missing actions."""
        return self.match.covers(other.match) and not (
            self.actions >= other.actions
        )

    def with_actions(self, actions: frozenset[Action]) -> "FlowEntry":
        return replace(self, actions=frozenset(actions))

    def with_priority(self, priority: int) -> "FlowEntry":
        return replace(self, priority=priority)

    def __str__(self) -> str:
        acts = ", ".join(str(a) for a in self.sorted_actions())
        return f"[{self.match} prio={self.priority} -> {{{acts}}}]"


@dataclass(slots=True)
class FlowStats:
    """Per-rule hardware counters, as real TCAMs keep them (OF 1.3 §A.3.5).

    Updated by :meth:`FlowTable.record_hit` on every TCAM hit in
    ``Switch.receive``; read out-of-band by ``FlowStatsRequest`` over the
    control channel.  The record lives in the table keyed by the match
    field's :attr:`~repro.core.addressing.MulticastPrefix.key`, not on the
    (shared, frozen) :class:`FlowEntry`, so controller shadow copies of an
    entry never alias the data-plane counters.
    """

    packets: int = 0
    bytes: int = 0
    created_at: float = 0.0


class FlowTable:
    """A prioritised prefix-match table with TCAM semantics.

    At most one entry exists per match prefix (the controller aggregates
    ports into a single entry per dz, as Algorithm 1 does).  Lookup returns
    the matching entry with the highest ``(priority, prefix_len)``.

    ``capacity`` models the bounded TCAM of real switches (the paper cites
    40k–180k entries per switch); inserting beyond it raises.

    ``clock`` stamps per-rule install times (``FlowStats.created_at``);
    the owning switch passes its simulator clock, standalone tables
    default to a constant 0.0.

    ``version`` counts the mutations (:meth:`install`, :meth:`remove`,
    :meth:`clear`); lookups and counter updates leave it alone.  The
    warm verifier keys what it remembers about a table on it.

    :meth:`lookup` remembers its answer per destination address until the
    version moves, and forgets everything once it holds
    :data:`LOOKUP_MEMO_CAP` addresses.
    """

    def __init__(
        self,
        capacity: int = 180_000,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise FlowTableError("flow table capacity must be positive")
        self.capacity = capacity
        self.clock = clock if clock is not None else (lambda: 0.0)
        # prefix_len -> network -> entry; keeps lookup O(#distinct lengths).
        self._by_len: dict[int, dict[int, FlowEntry]] = {}
        # per-rule counters, keyed by the match's one-int ``key``
        self._stats: dict[int, FlowStats] = {}
        self._size = 0
        self.version = 0
        self.lookups = 0
        self.misses = 0
        # destination address -> best_match, valid for ``_memo_version``
        self._memo: dict[int, FlowEntry | None] = {}
        self._memo_version = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[FlowEntry]:
        for plen in sorted(self._by_len, reverse=True):
            yield from self._by_len[plen].values()

    def entries(self) -> list[FlowEntry]:
        return list(self)

    def get(self, match: MulticastPrefix) -> FlowEntry | None:
        """The entry with exactly this match field, if installed."""
        return self._by_len.get(match.prefix_len, {}).get(match.network)

    def get_dz(self, dz: Dz) -> FlowEntry | None:
        """The entry matching exactly subspace ``dz``, if installed."""
        return self.get_bits(dz.bits)

    def get_bits(self, bits: str) -> FlowEntry | None:
        """:meth:`get_dz` for the bits of a dz, with no ``Dz`` or prefix
        built: the controller probes every dz a change can move."""
        prefix_len, network = prefix_fields(bits)
        return self._by_len.get(prefix_len, {}).get(network)

    # ------------------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Add or replace the entry for ``entry.match``.

        Replacing keeps the per-rule counters (OpenFlow MODIFY semantics:
        a modified flow retains its statistics); a fresh match starts a
        zeroed :class:`FlowStats` stamped with the current clock.
        """
        bucket = self._by_len.setdefault(entry.match.prefix_len, {})
        if entry.match.network not in bucket:
            if self._size >= self.capacity:
                raise FlowTableError(
                    f"flow table full ({self.capacity} entries)"
                )
            self._size += 1
            self._stats[entry.match.key] = FlowStats(created_at=self.clock())
        bucket[entry.match.network] = entry
        self.version += 1

    def remove(self, match: MulticastPrefix) -> FlowEntry:
        """Delete and return the entry for ``match``."""
        bucket = self._by_len.get(match.prefix_len)
        if bucket is None or match.network not in bucket:
            raise FlowTableError(f"no flow installed for {match}")
        entry = bucket.pop(match.network)
        del self._stats[match.key]
        if not bucket:
            del self._by_len[match.prefix_len]
        self._size -= 1
        self.version += 1
        return entry

    def clear(self) -> None:
        self._by_len.clear()
        self._stats.clear()
        self._size = 0
        self.version += 1

    # ------------------------------------------------------------------
    # per-rule statistics
    # ------------------------------------------------------------------
    def record_hit(self, entry: FlowEntry, size_bytes: int) -> None:
        """Account one TCAM hit against the matched rule's counters.

        Hot path (called per forwarded packet): one dict probe and two
        field writes.  No counter the OpenFlow flow-stats reply carries
        depends on the hit's sim time, so none is passed.
        """
        stats = self._stats[entry.match.key]
        stats.packets += 1
        stats.bytes += size_bytes

    def stats_for(self, match: MulticastPrefix) -> FlowStats | None:
        """The counters of the rule installed for exactly ``match``."""
        return self._stats.get(match.key)

    def entries_with_stats(self) -> list[tuple[FlowEntry, FlowStats]]:
        """Every (entry, counters) pair in canonical order (prefix length
        descending, then network address) — the order stats replies use."""
        out: list[tuple[FlowEntry, FlowStats]] = []
        for plen in sorted(self._by_len, reverse=True):
            bucket = self._by_len[plen]
            for network in sorted(bucket):
                entry = bucket[network]
                out.append((entry, self._stats[entry.match.key]))
        return out

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> FlowEntry | None:
        """TCAM match: the single best entry for a destination address,
        counted in ``lookups``/``misses`` as a packet hitting the table.

        The answer is :meth:`best_match`'s, memoized per address: every
        event of one dz carries the same address, so a hot table answers
        from one dict probe.  The memo is dropped whenever ``version``
        moves (every mutation of ``_by_len`` goes through :meth:`install`,
        :meth:`remove` or :meth:`clear`, which move it) and when it is
        full.
        """
        self.lookups += 1
        memo = self._memo
        if self._memo_version != self.version:
            memo.clear()
            self._memo_version = self.version
        try:
            best = memo[address]
        except KeyError:
            if len(memo) >= LOOKUP_MEMO_CAP:
                memo.clear()
            best = memo[address] = self.best_match(address)
        if best is None:
            self.misses += 1
        return best

    def best_match(self, address: int) -> FlowEntry | None:
        """The entry :meth:`lookup` would return, without counting it.

        For readers that replay the table without a packet (the static
        verifier): the hardware counters stay what the data plane made them.
        """
        best: FlowEntry | None = None
        best_key = (-1, -1)
        masks = _MASKS
        for plen, bucket in self._by_len.items():
            entry = bucket.get(address & masks[plen])
            if entry is not None:
                key = (entry.priority, plen)
                if key > best_key:
                    best, best_key = entry, key
        return best

    def coarser_entries(self, match: MulticastPrefix) -> Iterator[FlowEntry]:
        """The installed entries whose prefix strictly covers ``match``,
        longest prefix first (the order :meth:`entries` lists them in)."""
        for plen in sorted(self._by_len, reverse=True):
            if plen < match.prefix_len:
                entry = self._by_len[plen].get(match.network & _MASKS[plen])
                if entry is not None:
                    yield entry

    def matching_entries(self, address: int) -> list[FlowEntry]:
        """All entries whose prefix matches (most specific first)."""
        hits = []
        for plen in sorted(self._by_len, reverse=True):
            entry = self._by_len[plen].get(address & _MASKS[plen])
            if entry is not None:
                hits.append(entry)
        hits.sort(key=lambda e: (e.priority, e.match.prefix_len), reverse=True)
        return hits


def _mask_of(prefix_len: int) -> int:
    if prefix_len == 0:
        return 0
    return ((1 << prefix_len) - 1) << (128 - prefix_len)


#: ``_MASKS[plen]`` is the network mask of an IPv6 prefix of length ``plen``.
_MASKS: tuple[int, ...] = tuple(_mask_of(plen) for plen in range(129))
