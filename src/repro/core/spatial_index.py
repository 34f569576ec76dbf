"""Spatial indexing: between filters/events and dz-expressions.

Implements the decomposition illustrated in Fig. 2 of the paper.  The event
space is bisected recursively, cycling through the dimensions round-robin:
dz bit ``j`` halves dimension ``j mod k`` (``k`` = number of dimensions).  A
subspace of length-``L`` dz therefore fixes roughly ``L / k`` bits of every
dimension.

Three conversions are provided:

* ``dz -> box``: the normalised half-open hyper-rectangle of a subspace;
* ``event -> dz``: the maximum-length dz containing the event's point
  (this is what a publisher stamps into the packet's destination address);
* ``filter -> DzSet``: an *enclosing approximation* of a subscription or
  advertisement box as a set of subspaces.  Cells entirely inside the box
  are emitted as-is; cells partially overlapping are refined until the dz
  length limit (or a cell budget) is reached and then emitted whole, so the
  approximation never loses events (no false negatives) but may admit false
  positives — the paper's Sec. 6.4 quantifies exactly this effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.dz import Dz, ROOT
from repro.core.dzset import DzSet
from repro.core.events import Event, EventSpace
from repro.core.subscription import Filter
from repro.exceptions import SpatialIndexError

__all__ = ["SpatialIndexer", "DEFAULT_MAX_DZ_LENGTH"]

#: dz bits available inside an IPv6 multicast address after the ff0e prefix
#: is 112; the evaluation typically uses much shorter expressions.
DEFAULT_MAX_DZ_LENGTH = 24

Box = tuple[tuple[float, float], ...]


def _cell_of(dz: Dz, dimensions: int) -> Box:
    """The normalised half-open hyper-rectangle denoted by ``dz``."""
    lows = [0.0] * dimensions
    highs = [1.0] * dimensions
    for j, bit in enumerate(dz.bits):
        dim = j % dimensions
        mid = (lows[dim] + highs[dim]) / 2.0
        if bit == "0":
            highs[dim] = mid
        else:
            lows[dim] = mid
    return tuple(zip(lows, highs))


#: A frontier cell of the filter decomposition: its dz bits, its box, and
#: how many dimensions of the box it still sticks out of (0: inside).
_Cell = tuple[str, Box, int]


def _open_dims(cell: Box, box: Box) -> int:
    """Dimensions along which ``cell`` sticks out of ``box``; -1 if the
    two are disjoint."""
    open_dims = 0
    for (c_lo, c_hi), (b_lo, b_hi) in zip(cell, box):
        if c_lo >= b_hi or b_lo >= c_hi:
            return -1
        if c_lo < b_lo or c_hi > b_hi:
            open_dims += 1
    return open_dims


def _split(
    partial: list[_Cell], box: Box, dimensions: int, max_len: int,
    final: list[str],
) -> list[_Cell]:
    """Halve every partially overlapping cell of one refinement level.

    Children inside ``box`` or at ``max_len`` bits go to ``final``,
    disjoint ones are dropped, and the still partial ones are returned.
    A child halves its parent's box on dimension ``len(bits) % k`` (the
    arithmetic :func:`_cell_of` repeats from the root), and only that
    dimension's relation to ``box`` can change.
    """
    children: list[_Cell] = []
    for bits, cell, open_dims in partial:
        dim = len(bits) % dimensions
        lo, hi = cell[dim]
        b_lo, b_hi = box[dim]
        mid = (lo + hi) / 2.0
        others_open = open_dims - (lo < b_lo or hi > b_hi)
        at_limit = len(bits) + 1 >= max_len
        for bit, c_lo, c_hi in (("0", lo, mid), ("1", mid, hi)):
            if c_lo >= b_hi or b_lo >= c_hi:
                continue
            child_open = others_open + (c_lo < b_lo or c_hi > b_hi)
            if child_open == 0 or at_limit:
                final.append(bits + bit)
            else:
                child_cell = cell[:dim] + ((c_lo, c_hi),) + cell[dim + 1:]
                children.append((bits + bit, child_cell, child_open))
    return children


@dataclass(frozen=True)
class SpatialIndexer:
    """Converts between the event space of a schema and dz-expressions.

    Parameters
    ----------
    space:
        The (possibly dimension-selected) event space to index.
    max_dz_length:
        The ``L_dz`` limit — the number of dz bits the reserved multicast
        address range can carry (Sec. 6.4).
    max_cells:
        Budget on the number of subspaces used to approximate one filter.
        When refinement would exceed the budget, partially-overlapping
        cells are emitted whole (a coarser enclosing approximation).
    """

    space: EventSpace
    max_dz_length: int = DEFAULT_MAX_DZ_LENGTH
    max_cells: int = 64

    def __post_init__(self) -> None:
        if self.max_dz_length < 1:
            raise SpatialIndexError("max_dz_length must be >= 1")
        if self.max_cells < 1:
            raise SpatialIndexError("max_cells must be >= 1")

    # ------------------------------------------------------------------
    # dz -> geometry
    # ------------------------------------------------------------------
    def cell(self, dz: Dz) -> Box:
        """The normalised box of a subspace in this space."""
        return _cell_of(dz, self.space.dimensions)

    # ------------------------------------------------------------------
    # events -> dz
    # ------------------------------------------------------------------
    def point_to_dz(
        self, point: Sequence[float], length: int | None = None
    ) -> Dz:
        """The dz of given length containing a normalised point.

        Bit interleaving: bit ``j`` of the dz is bit ``j // k`` of the binary
        expansion of coordinate ``j mod k``.
        """
        length = self.max_dz_length if length is None else length
        k = self.space.dimensions
        if len(point) != k:
            raise SpatialIndexError(
                f"point has {len(point)} coordinates, space has {k}"
            )
        for coordinate in point:
            if not (0.0 <= coordinate < 1.0):
                raise SpatialIndexError(
                    f"normalised coordinate {coordinate!r} outside [0, 1)"
                )
        lows = [0.0] * k
        highs = [1.0] * k
        bits: list[str] = []
        for j in range(length):
            dim = j % k
            mid = (lows[dim] + highs[dim]) / 2.0
            if point[dim] < mid:
                bits.append("0")
                highs[dim] = mid
            else:
                bits.append("1")
                lows[dim] = mid
        return Dz("".join(bits))

    def event_to_dz(self, event: Event, length: int | None = None) -> Dz:
        """The dz a publisher stamps into an event's destination address."""
        return self.point_to_dz(self.space.point(event), length)

    # ------------------------------------------------------------------
    # filters -> DZ sets
    # ------------------------------------------------------------------
    def filter_to_dzset(
        self, filt: Filter, max_len: int | None = None
    ) -> DzSet:
        """An enclosing approximation of a filter box as a DZ set.

        Breadth-first refinement: a frontier of candidate cells is split as
        long as splitting is allowed by both the dz-length limit and the
        cell budget.  Cells fully inside the box are final; partially
        overlapping cells on a frontier that can no longer refine are
        emitted whole, guaranteeing the result covers the box.
        """
        max_len = self.max_dz_length if max_len is None else max_len
        if max_len < 1:
            raise SpatialIndexError("max_len must be >= 1")
        box = filt.normalized_box(self.space)
        k = self.space.dimensions

        # Partial cells carry their box (see _split), so no cell's box is
        # recomputed from the root; dz objects are made for output only.
        final: list[str] = []
        partial: list[_Cell] = []
        root = _cell_of(ROOT, k)
        open_dims = _open_dims(root, box)
        if open_dims == 0:
            final.append(ROOT.bits)
        elif open_dims > 0:
            partial.append((ROOT.bits, root, open_dims))
        while partial:
            # Each partial cell splits into two; stop refining when the
            # worst-case output would exceed the budget.
            if len(final) + 2 * len(partial) > self.max_cells:
                final.extend(bits for bits, _, _ in partial)
                break
            partial = _split(partial, box, k, max_len, final)
        return DzSet(map(Dz.trusted, final))

    def encloses_matches(self, filt: Filter) -> bool:
        """True iff :meth:`filter_to_dzset` of ``filt`` holds the maximal
        dz of every event ``filt`` matches.

        Normalisation is monotone (a subtraction and a division, each
        correctly rounded), so an event inside the closed filter lands at
        or above the normalised box's low edge and at or below the
        normalised upper bound; and the decomposition keeps every cell
        containing a point of the half-open box.  What can fail is the
        open upper edge: on a continuous attribute (grain 0) bounded below
        its domain's top, an event sitting on the bound normalises onto
        the box's excluded edge.  So the check is, per constrained
        dimension, that the normalised bound lies strictly inside.
        """
        box = filt.normalized_box(self.space)
        for attr, (_low, high) in zip(self.space.attributes, box):
            pred = filt.predicates.get(attr.name)
            if pred is None or high >= 1.0 or pred.high < attr.low:
                continue  # open to the top, or nothing in the domain matches
            if not attr.normalize(pred.high) < high:
                return False
        return True

    def matches(self, dzset: DzSet, event: Event) -> bool:
        """True iff the event's maximal dz falls inside the DZ region.

        This is the network-level matching PLEROMA performs: the TCAM
        compares the event's dz (in the destination IP) against installed
        prefixes, i.e. against the members of a DZ set.
        """
        return dzset.overlaps_dz(self.event_to_dz(event))
