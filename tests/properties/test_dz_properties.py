"""Property-based tests for the dz algebra and DZ sets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dz import ROOT, Dz
from repro.core.dzset import DzSet

bits = st.text(alphabet="01", min_size=0, max_size=24)
dzs = bits.map(Dz)
dz_lists = st.lists(bits, min_size=0, max_size=8).map(
    lambda items: DzSet.of(*items)
)


def region_contains(dzset: DzSet, probe: Dz) -> bool:
    """Semantic membership: does the region fully contain the probe cell?"""
    return dzset.covers_dz(probe)


@st.composite
def probes(draw):
    """A probe cell finer than any drawn member, to compare regions
    semantically."""
    return Dz(draw(st.text(alphabet="01", min_size=26, max_size=26)))


class TestCoverPartialOrder:
    @given(dzs)
    def test_reflexive(self, a):
        assert a.covers(a)

    @given(dzs, dzs)
    def test_antisymmetric(self, a, b):
        if a.covers(b) and b.covers(a):
            assert a == b

    @given(dzs, dzs, dzs)
    def test_transitive(self, a, b, c):
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    @given(dzs, dzs)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(dzs, dzs)
    def test_intersect_commutative(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(dzs, dzs)
    def test_intersect_is_the_longer(self, a, b):
        hit = a.intersect(b)
        if hit is not None:
            assert hit in (a, b)
            assert len(hit) == max(len(a), len(b))


class TestSubtract:
    @given(dzs, dzs)
    def test_pieces_disjoint_from_subtrahend(self, a, b):
        for piece in a.subtract(b):
            assert not piece.overlaps(b)

    @given(dzs, dzs)
    def test_pieces_inside_original(self, a, b):
        for piece in a.subtract(b):
            assert a.covers(piece)

    @given(dzs, dzs)
    def test_measure_conserved(self, a, b):
        """|a - b| + |a ∩ b| = |a|."""
        remainder = sum(2.0 ** -len(p) for p in a.subtract(b))
        hit = a.intersect(b)
        overlap = 2.0 ** -len(hit) if hit is not None else 0.0
        assert abs(remainder + overlap - 2.0 ** -len(a)) < 1e-12

    @given(dzs, dzs)
    def test_pieces_pairwise_disjoint(self, a, b):
        pieces = a.subtract(b)
        for i, p in enumerate(pieces):
            for q in pieces[i + 1:]:
                assert not p.overlaps(q)


class TestCommonPrefix:
    @given(dzs, dzs)
    def test_covers_both(self, a, b):
        prefix = a.common_prefix(b)
        assert prefix.covers(a)
        assert prefix.covers(b)

    @given(dzs, dzs)
    def test_is_tightest(self, a, b):
        prefix = a.common_prefix(b)
        if len(prefix) < min(len(a), len(b)):
            # one more bit must fail to cover one of the two
            for bit in (0, 1):
                child = prefix.child(bit)
                assert not (child.covers(a) and child.covers(b))


class TestDzSetCanonical:
    @given(dz_lists)
    def test_canonicalisation_idempotent(self, s):
        assert DzSet(s.members) == s

    @given(dz_lists)
    def test_members_pairwise_disjoint(self, s):
        members = list(s)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert not a.overlaps(b)

    @given(dz_lists)
    def test_no_complete_sibling_pairs(self, s):
        for member in s:
            if not member.is_root:
                assert member.sibling() not in s

    @given(st.lists(bits, min_size=0, max_size=8), probes())
    def test_canonicalisation_preserves_region(self, raw, probe):
        canonical = DzSet.of(*raw)
        naive = any(Dz(b).covers(probe) for b in raw)
        assert region_contains(canonical, probe) == naive


class TestDzSetAlgebra:
    @settings(max_examples=60)
    @given(dz_lists, dz_lists, probes())
    def test_union_semantics(self, a, b, probe):
        assert region_contains(a.union(b), probe) == (
            region_contains(a, probe) or region_contains(b, probe)
        )

    @settings(max_examples=60)
    @given(dz_lists, dz_lists, probes())
    def test_intersect_semantics(self, a, b, probe):
        assert region_contains(a.intersect(b), probe) == (
            region_contains(a, probe) and region_contains(b, probe)
        )

    @settings(max_examples=60)
    @given(dz_lists, dz_lists, probes())
    def test_subtract_semantics(self, a, b, probe):
        assert region_contains(a.subtract(b), probe) == (
            region_contains(a, probe) and not b.overlaps_dz(probe)
        )

    @given(dz_lists, dz_lists)
    def test_subtract_then_union_restores(self, a, b):
        """(a - b) ∪ (a ∩ b) has the same measure as a."""
        rebuilt = a.subtract(b).union(a.intersect(b))
        assert abs(rebuilt.total_measure() - a.total_measure()) < 1e-12

    @given(dz_lists, dz_lists)
    def test_covers_iff_subtract_empty(self, a, b):
        assert b.covers(a) == a.subtract(b).is_empty

    @given(dz_lists)
    def test_measure_bounds(self, a):
        assert 0.0 <= a.total_measure() <= 1.0 + 1e-12

    @given(dz_lists)
    def test_truncate_coarsens(self, a):
        truncated = a.truncate(3)
        assert truncated.covers(a)
        assert all(len(m) <= 3 for m in truncated)
