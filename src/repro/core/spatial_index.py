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

The filter decomposition in closed form
---------------------------------------

The decomposition is *defined* by breadth-first refinement from the root.
At each level, if the final cells so far plus two per partially
overlapping cell would exceed ``max_cells``, the partial cells are
emitted whole and refinement stops; otherwise every partial cell is
halved, children inside the box (or at ``max_len`` bits) are final and
disjoint ones are dropped.  :meth:`SpatialIndexer.filter_to_dzset`
computes the same DZ set without visiting a cell:

1. *Exact halving.*  A cell at depth ``d`` has halved dimension ``j``
   ``e_j(d) = ceil((d - j) / k)`` times (0 while ``d <= j``), so its side
   along ``j`` is ``[i / 2**e, (i + 1) / 2**e)``.  The midpoint of such a
   side is ``(2i + 1) / 2**(e + 1)``, which binary64 holds exactly while
   ``e + 1 <= 53``.  Up to :data:`EXACT_HALVINGS` halvings per dimension
   the float bounds of refinement are therefore exactly these dyadic
   values; the indexer refuses a dz length above ``53 * k``, which keeps
   every ``e_j`` within it (beyond it midpoints round, and cells stop
   being subspaces).
2. *Product rule.*  Against the box ``prod_j [lo_j, hi_j)``, a cell is
   disjoint if one of its sides is (``i >= hi * 2**e`` or
   ``i + 1 <= lo * 2**e``) and inside if all its sides are
   (``i >= lo * 2**e`` and ``i + 1 <= hi * 2**e``); scaling by ``2**e``
   is exact.  So per dimension the overlapping sides are the indices
   ``[floor(lo * 2**e), ceil(hi * 2**e))``, ``O_j`` of them, and the
   inside ones ``[ceil(lo * 2**e), floor(hi * 2**e))``,
   ``N_j = max(0, floor(hi * 2**e) - ceil(lo * 2**e))`` of them.  Depth
   ``d`` holds ``X(d) = prod O_j`` overlapping cells, ``I(d) = prod N_j``
   inside ones and ``P(d) = X(d) - I(d)`` partial ones.  (An empty box,
   ``lo == hi``, overlaps the cells holding ``lo`` strictly inside, which
   the same counts give.)
3. *Level counts and the stop level.*  An inside or disjoint cell has
   only inside or disjoint children, so every partial cell descends from
   partial cells: the frontier at depth ``d`` is all ``P(d)`` of them.
   The finals refinement emits at depth ``d`` are the inside cells with a
   partial parent, ``I(d) - 2 * I(d - 1)`` (an inside cell has two inside
   children).  Accumulating these gives the budget test at every level,
   so the stop level ``D`` is the first ``d`` with ``P(d) == 0``, or with
   ``finals(d) + 2 * P(d) > max_cells``, or else ``d == max_len``
   (reached by a split that emits all its children).
4. *The region.*  Whichever test stops it, refinement covers exactly the
   overlapping cells at depth ``D``: inside ones are emitted or lie under
   an emitted ancestor, and partial (or length-limited) ones are emitted
   whole.  That is the dyadic box ``R = prod_j [A_j, B_j)`` with
   ``A_j = floor(lo_j * 2**E_j)`` and ``B_j = ceil(hi_j * 2**E_j)`` at
   ``E_j = e_j(D)``.
5. *Its canonical members.*  A DZ set's canonical form depends only on
   its region (:mod:`repro.core.dzset`): it is the set of cells inside
   ``R`` whose parent is not.  A cell at depth ``t >= 1`` differs from
   its parent only along dimension ``m = (t - 1) mod k``, so it is a
   member iff its sides along the other dimensions are inside ``R`` and
   its side along ``m`` is inside while the parent's is not.  The inside
   sides along ``m`` form an index range whose every index but the first
   and the last has its parent inside too, so at most two qualify.  The
   members at depth ``t`` are those edge indices times the inside ranges
   of the other dimensions, interleaved into dz bits (dz bit ``j + b*k``
   is bit ``b``, from the top, of dimension ``j``'s index); the root is
   the only member when ``R`` is the whole space.  Sorted, their bit
   strings are the canonical run.

Finding ``D`` costs ``O(D)`` integer steps and each member ``O(L)``,
instead of work per frontier cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from functools import lru_cache
from math import ceil, floor, ldexp, prod

from repro.core.dz import Dz, ROOT
from repro.core.dzset import DzSet
from repro.core.events import Event, EventSpace
from repro.core.subscription import Filter
from repro.exceptions import SpatialIndexError

__all__ = ["SpatialIndexer", "DEFAULT_MAX_DZ_LENGTH", "EXACT_HALVINGS"]

#: dz bits available inside an IPv6 multicast address after the ff0e prefix
#: is 112; the evaluation typically uses much shorter expressions.
DEFAULT_MAX_DZ_LENGTH = 24

#: Halvings of one dimension that stay exact in binary64: after ``e`` of
#: them every bound is ``i / 2**e`` with ``i < 2**e``, representable while
#: ``e`` is at most the 53-bit significand.
EXACT_HALVINGS = 53

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


@lru_cache(maxsize=None)
def _stride_table(k: int) -> tuple[int, ...]:
    """For every byte, its bits spread ``k`` apart: bit ``b`` to ``b*k``."""
    return tuple(
        sum(1 << (b * k) for b in range(8) if byte >> b & 1)
        for byte in range(256)
    )


def _spread(index: int, k: int) -> int:
    """``index`` with bit ``b`` moved to bit ``b*k``."""
    table = _stride_table(k)
    code = shift = 0
    while index:
        code |= table[index & 0xFF] << shift
        index >>= 8
        shift += 8 * k
    return code


def _stop_exponents(box: Box, k: int, max_len: int, max_cells: int) -> list[int]:
    """Per dimension, how often the frontier refinement has halved it
    when it stops (the exponents ``E_j`` of the module docstring)."""
    exps = [0] * k
    # Per dimension at its current exponent: the overlapping and the
    # inside cell counts O_j and N_j.
    over = [ceil(hi) - floor(lo) for lo, hi in box]
    inside = [max(0, floor(hi) - ceil(lo)) for lo, hi in box]
    depth = finals = prev_inside = 0
    while True:
        n_inside = prod(inside)
        partial = prod(over) - n_inside
        finals += n_inside - 2 * prev_inside
        if partial == 0 or finals + 2 * partial > max_cells:
            return exps
        dim = depth % k
        depth += 1
        e = exps[dim] = exps[dim] + 1
        lo, hi = box[dim]
        lo, hi = ldexp(lo, e), ldexp(hi, e)
        over[dim] = ceil(hi) - floor(lo)
        inside[dim] = max(0, floor(hi) - ceil(lo))
        if depth >= max_len:
            return exps
        prev_inside = n_inside


def _canonical_bits(box: Box, k: int, max_len: int, max_cells: int) -> list[str]:
    """The sorted member bits of the decomposition of ``box`` (see the
    module docstring for why these are the frontier refinement's)."""
    exps = _stop_exponents(box, k, max_len, max_cells)
    # The dyadic box [A_j, B_j) at exponents E_j that the result covers.
    starts = [floor(ldexp(lo, e)) for (lo, _), e in zip(box, exps)]
    stops = [ceil(ldexp(hi, e)) for (_, hi), e in zip(box, exps)]
    if any(a >= b for a, b in zip(starts, stops)):
        return []
    # Per dimension, the cells inside [A_j, B_j) at its exponent e_j(t)
    # for the current depth t: indices [lows[j], highs[j]).
    cur = [0] * k
    lows = [-(-a >> e) for a, e in zip(starts, exps)]
    highs = [b >> e for b, e in zip(stops, exps)]
    empty = sum(c >= f for c, f in zip(lows, highs))
    if not empty:
        return [ROOT.bits]  # the box fills the whole space
    members: list[str] = []
    for depth in range(1, sum(exps) + 1):
        dim = (depth - 1) % k
        parent_lo, parent_hi = lows[dim], highs[dim]
        e = cur[dim] = cur[dim] + 1
        shift = exps[dim] - e
        lo = lows[dim] = -(-starts[dim] >> shift)
        hi = highs[dim] = stops[dim] >> shift
        empty += (lo >= hi) - (parent_lo >= parent_hi)
        if empty:
            continue
        # Cells of dimension ``dim`` whose parent sticks out of the box:
        # only the first and the last inside one can be such.
        edge = [
            i for i in ((lo, hi - 1) if hi - 1 > lo else (lo,))
            if not parent_lo <= i >> 1 < parent_hi
        ]
        if not edge:
            continue
        # Interleave: bit b (from the top) of dimension j's e_j-bit index
        # is dz bit j + b*k, i.e. weight 2**(depth-1-j-b*k).
        codes = [0]
        for j in range(k):
            e_j = cur[j]
            if e_j == 0:
                continue  # the dimension is not split yet: index 0
            low_bit = depth - 1 - j - (e_j - 1) * k
            if j == dim:
                parts = [_spread(i, k) << low_bit for i in edge]
            else:
                part = _spread(lows[j], k) << low_bit
                parts = [part]
                if highs[j] - lows[j] > 1:
                    mask = _spread((1 << e_j) - 1, k) << low_bit
                    for _ in range(highs[j] - lows[j] - 1):
                        part = (part - mask) & mask  # the next index
                        parts.append(part)
            codes = [code + part for code in codes for part in parts]
        spec = f"0{depth}b"
        members += [format(code, spec) for code in codes]
    members.sort()
    return members


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
        if self.max_dz_length > EXACT_HALVINGS * self.space.dimensions:
            raise SpatialIndexError(
                f"max_dz_length {self.max_dz_length} halves a dimension more "
                f"than {EXACT_HALVINGS} times; cells would not be exact"
            )
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
        k = self.space.dimensions
        if length is None:
            length = self.max_dz_length
        elif length > EXACT_HALVINGS * k:
            raise SpatialIndexError(
                f"length must be at most {EXACT_HALVINGS * k}, got {length}"
            )
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

        The result of breadth-first refinement: a frontier of candidate
        cells is split as long as splitting is allowed by both the
        dz-length limit and the cell budget.  Cells fully inside the box
        are final; partially overlapping cells on a frontier that can no
        longer refine are emitted whole, guaranteeing the result covers
        the box.  It is computed in closed form (module docstring).
        """
        max_len = self.max_dz_length if max_len is None else max_len
        k = self.space.dimensions
        if not 1 <= max_len <= EXACT_HALVINGS * k:
            raise SpatialIndexError(
                f"max_len must be in [1, {EXACT_HALVINGS * k}], got {max_len}"
            )
        box = filt.normalized_box(self.space)
        bits = _canonical_bits(box, k, max_len, self.max_cells)
        return DzSet._from_run(tuple(map(Dz.trusted, bits)))

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
