"""The closed-form filter decomposition checked against the frontier BFS.

``SpatialIndexer.filter_to_dzset`` counts the refinement levels and emits
the canonical cells of the stopping level's dyadic box directly.  The
reference below is the breadth-first refinement it replaced
(``_open_dims``, ``_split`` and the frontier loop), kept verbatim: on
every drawn input both must give the same canonical run, bit for bit.

Inputs cover one to six dimensions, integer attributes over odd-sized
domains and continuous ones over ``[0, 1)`` (whose normalised bounds are
the drawn values themselves), unconstrained dimensions, empty boxes
(``lo == hi``), bounds on dyadic points ``i / 2**e`` up to the 53-bit
limit and on ``0`` and ``1 - ulp``, every ``max_len`` the indexer accepts
up to 64 bits, and cell budgets from 1 to 512.
"""

from __future__ import annotations

from math import ldexp, nextafter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dz import ROOT, Dz
from repro.core.dzset import DzSet
from repro.core.events import Attribute, EventSpace
from repro.core.spatial_index import EXACT_HALVINGS, SpatialIndexer, _cell_of
from repro.core.subscription import Filter

# ----------------------------------------------------------------------
# reference implementation (the replaced code)
# ----------------------------------------------------------------------

Box = tuple[tuple[float, float], ...]

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


def ref_filter_to_dzset(
    indexer: SpatialIndexer, filt: Filter, max_len: int | None = None
) -> DzSet:
    max_len = indexer.max_dz_length if max_len is None else max_len
    box = filt.normalized_box(indexer.space)
    k = indexer.space.dimensions

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
        if len(final) + 2 * len(partial) > indexer.max_cells:
            final.extend(bits for bits, _, _ in partial)
            break
        partial = _split(partial, box, k, max_len, final)
    return DzSet(map(Dz.trusted, final))


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

ONE_MINUS_ULP = nextafter(1.0, 0.0)


@st.composite
def unit_points(draw):
    """A continuous bound in ``[0, 1)``: dyadic, extreme or arbitrary."""
    kind = draw(st.sampled_from(("dyadic", "extreme", "float")))
    if kind == "dyadic":
        e = draw(st.integers(min_value=0, max_value=EXACT_HALVINGS))
        i = draw(st.integers(min_value=0, max_value=(1 << e) - 1))
        return ldexp(i, -e)
    if kind == "extreme":
        return draw(st.sampled_from((0.0, ONE_MINUS_ULP)))
    return draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


@st.composite
def attribute_and_range(draw, name):
    """One attribute and, unless unconstrained, a predicate on it."""
    if draw(st.booleans()):
        low = draw(st.integers(min_value=-50, max_value=50))
        size = draw(st.integers(min_value=1, max_value=2000))
        attr = Attribute(name, low, low + size, grain=1)
        lo = draw(st.integers(min_value=low, max_value=low + size - 1))
        hi = draw(st.integers(min_value=lo, max_value=low + size + 2))
    else:
        attr = Attribute(name, 0.0, 1.0, grain=0.0)
        lo = draw(unit_points())
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            hi = lo  # an empty box along this dimension
        else:
            hi = draw(st.one_of(unit_points(), st.just(1.0)))
            lo, hi = min(lo, hi), max(lo, hi)
    constrained = draw(st.integers(min_value=0, max_value=4)) > 0
    return attr, ((lo, hi) if constrained else None)


@st.composite
def indexed_filters(draw):
    """An indexer over one to six dimensions and a filter on its space."""
    k = draw(st.integers(min_value=1, max_value=6))
    attributes, ranges = [], {}
    for i in range(k):
        attr, bounds = draw(attribute_and_range(f"a{i}"))
        attributes.append(attr)
        if bounds is not None:
            ranges[attr.name] = bounds
    max_len = draw(
        st.integers(min_value=1, max_value=min(EXACT_HALVINGS * k, 64))
    )
    max_cells = draw(st.integers(min_value=1, max_value=512))
    indexer = SpatialIndexer(
        EventSpace(tuple(attributes)),
        max_dz_length=max_len,
        max_cells=max_cells,
    )
    return indexer, Filter.of(**ranges)


def _continuous(k: int) -> EventSpace:
    return EventSpace.of(
        *(Attribute(f"a{i}", 0.0, 1.0, grain=0.0) for i in range(k))
    )


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(indexed_filters())
# the whole space, and an empty box on a dyadic point (disjoint at root)
@example((SpatialIndexer(_continuous(2), 8, 64), Filter.of()))
@example(
    (SpatialIndexer(_continuous(2), 8, 64), Filter.of(a0=(0.0, 0.0)))
)
# an empty box strictly inside every cell down to the length limit
@example(
    (SpatialIndexer(_continuous(1), 53, 512), Filter.of(a0=(0.1, 0.1)))
)
# bounds one ulp below the top, at the 53-bit limit of six dimensions
@example(
    (
        SpatialIndexer(_continuous(6), 64, 512),
        Filter.of(a0=(ONE_MINUS_ULP, 1.0), a5=(0.25, ONE_MINUS_ULP)),
    )
)
# a budget of one cell: the root, or the box at the first level it fits
@example(
    (SpatialIndexer(_continuous(3), 20, 1), Filter.of(a1=(0.3, 0.6)))
)
def test_closed_form_matches_frontier_refinement(case):
    indexer, filt = case
    assert indexer.filter_to_dzset(filt)._bits == (
        ref_filter_to_dzset(indexer, filt)._bits
    )


@settings(max_examples=200, deadline=None)
@given(indexed_filters(), st.data())
def test_max_len_argument_matches_frontier_refinement(case, data):
    """An explicit ``max_len`` (what coarsening passes) overrides the
    indexer's, on both sides."""
    indexer, filt = case
    k = indexer.space.dimensions
    max_len = data.draw(
        st.integers(min_value=1, max_value=min(EXACT_HALVINGS * k, 64))
    )
    assert indexer.filter_to_dzset(filt, max_len)._bits == (
        ref_filter_to_dzset(indexer, filt, max_len)._bits
    )
