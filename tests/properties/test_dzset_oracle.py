"""The sorted-run DZ-set algebra checked against the quadratic originals.

``repro.core.dzset`` keeps each set as a lexicographically sorted run of
bit strings and answers lookups by bisection; ``filter_to_dzset`` carries
each frontier cell's box instead of recomputing it.  The reference
implementations below are the code those replaced, kept verbatim (apart
from being lifted out of their class) as the oracle: every canonical form,
iteration order, rendering and lookup answer must match them exactly.
"""

from __future__ import annotations

from collections.abc import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dz import ROOT, Dz
from repro.core.dzset import DzSet
from repro.core.events import Attribute, EventSpace
from repro.core.spatial_index import Box, SpatialIndexer
from repro.core.subscription import Filter

# ----------------------------------------------------------------------
# reference implementations (the replaced code)
# ----------------------------------------------------------------------


def _canonicalize(members: Iterable[Dz]) -> frozenset[Dz]:
    """Reduce ``members`` to canonical form (cover-free, sibling-merged)."""
    # Drop members covered by another member.  Sorting by length means any
    # cover of m precedes m, so a single pass with a prefix check suffices.
    pending = sorted(set(members), key=lambda d: (len(d), d.bits))
    kept: list[Dz] = []
    for dz in pending:
        if not any(k.covers(dz) for k in kept):
            kept.append(dz)
    # Merge complete sibling pairs to a fixed point.  Each merge may enable
    # another one level up, hence the loop.
    current = set(kept)
    changed = True
    while changed:
        changed = False
        for dz in sorted(current, key=len, reverse=True):
            if dz not in current or dz.is_root:
                continue
            sib = dz.sibling()
            if sib in current:
                current.discard(dz)
                current.discard(sib)
                current.add(dz.parent())
                changed = True
    return frozenset(current)


def ref_iter(members: frozenset[Dz]) -> list[Dz]:
    return sorted(members, key=lambda d: (len(d), d.bits))


def ref_str(members: frozenset[Dz]) -> str:
    return "{" + ", ".join(str(d) for d in ref_iter(members)) + "}"


def ref_covers_dz(members: frozenset[Dz], dz: Dz) -> bool:
    return any(m.covers(dz) for m in members)


def ref_overlaps_dz(members: frozenset[Dz], dz: Dz) -> bool:
    return any(m.overlaps(dz) for m in members)


def ref_covers(members: frozenset[Dz], other: frozenset[Dz]) -> bool:
    return all(ref_covers_dz(members, m) for m in other)


def ref_intersect_dz(members: frozenset[Dz], dz: Dz) -> frozenset[Dz]:
    parts = [m.intersect(dz) for m in members]
    return _canonicalize(frozenset(p for p in parts if p is not None))


def ref_intersect(
    members: frozenset[Dz], other: frozenset[Dz]
) -> frozenset[Dz]:
    parts: set[Dz] = set()
    for m in members:
        for o in other:
            hit = m.intersect(o)
            if hit is not None:
                parts.add(hit)
    return _canonicalize(frozenset(parts))


def ref_subtract_dz(members: frozenset[Dz], dz: Dz) -> frozenset[Dz]:
    parts: list[Dz] = []
    for m in members:
        parts.extend(m.subtract(dz))
    return _canonicalize(frozenset(parts))


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


def _box_relation(cell: Box, box: Box) -> str:
    """Classify ``cell`` against ``box``: 'inside', 'disjoint' or 'partial'."""
    inside = True
    for (c_lo, c_hi), (b_lo, b_hi) in zip(cell, box):
        if c_lo >= b_hi or b_lo >= c_hi:
            return "disjoint"
        if c_lo < b_lo or c_hi > b_hi:
            inside = False
    return "inside" if inside else "partial"


def ref_filter_to_dzset(
    indexer: SpatialIndexer, filt: Filter, max_len: int | None = None
) -> frozenset[Dz]:
    max_len = indexer.max_dz_length if max_len is None else max_len
    box = filt.normalized_box(indexer.space)
    k = indexer.space.dimensions

    final: list[Dz] = []
    frontier: list[Dz] = [ROOT]
    while frontier:
        next_frontier: list[Dz] = []
        for dz in frontier:
            relation = _box_relation(_cell_of(dz, k), box)
            if relation == "disjoint":
                continue
            if relation == "inside" or len(dz) >= max_len:
                final.append(dz)
            else:
                next_frontier.append(dz)
        # Each partial cell splits into two; stop refining when the
        # worst-case output would exceed the budget.
        if len(final) + 2 * len(next_frontier) > indexer.max_cells:
            final.extend(next_frontier)
            break
        frontier = [
            child
            for dz in next_frontier
            for child in (dz.child(0), dz.child(1))
        ]
    return _canonicalize(frozenset(final))


# ----------------------------------------------------------------------
# strategies at benchmark scale
# ----------------------------------------------------------------------

bits = st.text(alphabet="01", min_size=0, max_size=24)


@st.composite
def subtree(draw):
    """Every cell of a complete subtree: merges all the way to its root."""
    root = draw(st.text(alphabet="01", min_size=0, max_size=20))
    depth = draw(st.integers(min_value=1, max_value=3))
    return [
        root + format(i, f"0{depth}b") for i in range(2 ** depth)
    ]


@st.composite
def raw_members(draw):
    """Up to 64 bit strings with duplicates, covered members and subtrees."""
    items = draw(st.lists(bits, min_size=0, max_size=40))
    if items and draw(st.booleans()):
        # duplicates and members covered by (extensions of) other members
        extra = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(items),
                    st.text(alphabet="01", min_size=0, max_size=4),
                ),
                max_size=12,
            )
        )
        items += [(base + tail)[:24] for base, tail in extra]
    for tree in draw(st.lists(subtree(), max_size=2)):
        items += tree
    return items[:64]


@st.composite
def tiling(draw, root=None, depth=5):
    """Cells of mixed depths that exactly tile one subtree."""
    if root is None:
        root = draw(st.text(alphabet="01", min_size=0, max_size=16))
    if depth == 0 or draw(st.booleans()):
        return [root]
    return draw(tiling(root + "0", depth - 1)) + draw(tiling(root + "1", depth - 1))


@st.composite
def split_tilings(draw):
    """Two member lists, each holding part of some tilings: their union
    completes subtrees (merging across both operands, in cascades) that
    neither completes alone."""
    a, b = draw(raw_members()), draw(raw_members())
    for cells in draw(st.lists(tiling(), min_size=1, max_size=3)):
        for cell in cells:
            (a if draw(st.booleans()) else b).append(cell)
    return a, b


dz_sets = raw_members().map(lambda items: DzSet.of(*items))
dzs = bits.map(Dz)


def assert_matches(result: DzSet, members: frozenset[Dz]) -> None:
    assert result.members == members
    assert list(result) == ref_iter(members)
    assert str(result) == ref_str(members)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


class TestCanonicalForm:
    @settings(max_examples=300)
    @given(raw_members())
    def test_matches_reference(self, items):
        raw = frozenset(Dz(b) for b in items)
        assert_matches(DzSet(raw), _canonicalize(raw))

    @given(raw_members())
    def test_of_accepts_duplicates(self, items):
        assert_matches(
            DzSet.of(*items), _canonicalize(Dz(b) for b in items)
        )

    @given(raw_members(), raw_members())
    def test_union_matches_reference(self, a, b):
        left, right = DzSet.of(*a), DzSet.of(*b)
        assert_matches(
            left.union(right), _canonicalize(left.members | right.members)
        )

    @given(st.lists(raw_members(), max_size=6))
    def test_union_all_matches_folded_union(self, items):
        sets = [DzSet.of(*members) for members in items]
        folded = DzSet()
        for s in sets:
            folded = folded.union(s)
        assert DzSet.union_all(sets)._bits == folded._bits
        assert_matches(
            DzSet.union_all(sets),
            _canonicalize(m for s in sets for m in s.members),
        )

    @settings(max_examples=300)
    @given(split_tilings())
    def test_union_completing_subtrees(self, pair):
        left, right = (DzSet.of(*items) for items in pair)
        expected = _canonicalize(left.members | right.members)
        assert_matches(left.union(right), expected)
        assert_matches(right.union(left), expected)

    @given(raw_members(), st.integers(min_value=0, max_value=24))
    def test_truncate_matches_reference(self, items, max_len):
        s = DzSet.of(*items)
        assert_matches(
            s.truncate(max_len),
            _canonicalize(m.truncate(max_len) for m in s.members),
        )


class TestLookups:
    @settings(max_examples=300)
    @given(dz_sets, dzs)
    def test_covers_dz(self, s, dz):
        assert s.covers_dz(dz) == ref_covers_dz(s.members, dz)

    @settings(max_examples=300)
    @given(dz_sets, dzs)
    def test_overlaps_dz(self, s, dz):
        assert s.overlaps_dz(dz) == ref_overlaps_dz(s.members, dz)

    @given(dz_sets)
    def test_lookups_on_own_members_and_neighbours(self, s):
        for m in s.members:
            for probe in (m, Dz(m.bits + "0"), Dz(m.bits[:-1])):
                assert s.covers_dz(probe) == ref_covers_dz(s.members, probe)
                assert s.overlaps_dz(probe) == ref_overlaps_dz(
                    s.members, probe
                )

    @given(dz_sets, dz_sets)
    def test_covers_and_overlaps_sets(self, a, b):
        assert a.covers(b) == ref_covers(a.members, b.members)
        assert a.overlaps(b) == any(
            ref_overlaps_dz(a.members, m) for m in b.members
        )

    @given(dz_sets)
    def test_coarsen_to_common_prefix(self, s):
        members = list(s.members)
        expected = members[0] if members else ROOT
        for m in members[1:]:
            expected = expected.common_prefix(m)
        assert s.coarsen_to_common_prefix() == expected


class TestIntersectSubtract:
    @settings(max_examples=300)
    @given(dz_sets, dzs)
    def test_intersect_dz(self, s, dz):
        assert_matches(s.intersect_dz(dz), ref_intersect_dz(s.members, dz))

    @settings(max_examples=300)
    @given(dz_sets, dz_sets)
    def test_intersect(self, a, b):
        assert_matches(a.intersect(b), ref_intersect(a.members, b.members))

    @settings(max_examples=300)
    @given(dz_sets, dzs)
    def test_subtract_dz(self, s, dz):
        assert_matches(s.subtract_dz(dz), ref_subtract_dz(s.members, dz))

    @given(dz_sets, dz_sets)
    def test_subtract(self, a, b):
        expected = a.members
        for o in b.members:
            expected = ref_subtract_dz(expected, o)
        assert_matches(a.subtract(b), expected)


# ----------------------------------------------------------------------
# filter decomposition
# ----------------------------------------------------------------------


@st.composite
def filters(draw):
    """A space of 1-4 integer dimensions and a random box filter over it.

    Each dimension is constrained with some probability; unconstrained
    dimensions span the whole domain.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    space = EventSpace.of(
        *(Attribute(f"a{i}", 0, 1024, grain=1) for i in range(k))
    )
    ranges = {}
    for i in range(k):
        if draw(st.booleans()):
            low = draw(st.integers(min_value=0, max_value=1023))
            high = draw(st.integers(min_value=low, max_value=1023))
            ranges[f"a{i}"] = (low, high)
    return space, Filter.of(**ranges)


class TestFilterDecomposition:
    @settings(max_examples=300)
    @given(
        filters(),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=256),
    )
    def test_matches_reference(self, space_and_filter, max_len, max_cells):
        space, filt = space_and_filter
        indexer = SpatialIndexer(
            space, max_dz_length=max_len, max_cells=max_cells
        )
        assert_matches(
            indexer.filter_to_dzset(filt),
            ref_filter_to_dzset(indexer, filt),
        )
