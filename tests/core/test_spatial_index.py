"""Unit tests for the spatial indexer (Fig. 2 decomposition)."""

import pytest

from repro.core.dz import ROOT, Dz
from repro.core.dzset import OMEGA, DzSet
from repro.core.events import Attribute, Event, EventSpace
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Filter
from repro.exceptions import SpatialIndexError


@pytest.fixture
def fig2_space():
    """Two continuous attributes A and B over [0, 100), as in Fig. 2."""
    return EventSpace.of(Attribute("A", 0, 100), Attribute("B", 0, 100))


@pytest.fixture
def fig2_indexer(fig2_space):
    return SpatialIndexer(fig2_space, max_dz_length=8)


class TestCells:
    def test_root_cell_is_unit_box(self, fig2_indexer):
        assert fig2_indexer.cell(ROOT) == ((0.0, 1.0), (0.0, 1.0))

    def test_first_bit_splits_first_dimension(self, fig2_indexer):
        assert fig2_indexer.cell(Dz("0")) == ((0.0, 0.5), (0.0, 1.0))
        assert fig2_indexer.cell(Dz("1")) == ((0.5, 1.0), (0.0, 1.0))

    def test_second_bit_splits_second_dimension(self, fig2_indexer):
        # Fig. 2 second panel: dz '01' is the top-left quadrant
        assert fig2_indexer.cell(Dz("01")) == ((0.0, 0.5), (0.5, 1.0))

    def test_third_bit_refines_first_dimension_again(self, fig2_indexer):
        # Fig. 2 fourth panel: dz '110' is the top-row cell A in [50,75),
        # B in [50,100); '100' is its bottom-row counterpart
        assert fig2_indexer.cell(Dz("110")) == ((0.5, 0.75), (0.5, 1.0))
        assert fig2_indexer.cell(Dz("100")) == ((0.5, 0.75), (0.0, 0.5))

    def test_cell_volume_halves_per_bit(self, fig2_indexer):
        for bits in ("", "1", "10", "101", "1011"):
            cell = fig2_indexer.cell(Dz(bits))
            volume = 1.0
            for lo, hi in cell:
                volume *= hi - lo
            assert volume == pytest.approx(2.0 ** -len(bits))


class TestPointToDz:
    def test_length(self, fig2_indexer):
        dz = fig2_indexer.point_to_dz((0.3, 0.7), length=6)
        assert len(dz) == 6

    def test_point_lands_in_own_cell(self, fig2_indexer):
        point = (0.34, 0.68)
        dz = fig2_indexer.point_to_dz(point, length=8)
        cell = fig2_indexer.cell(dz)
        for coordinate, (lo, hi) in zip(point, cell):
            assert lo <= coordinate < hi

    def test_rejects_bad_point(self, fig2_indexer):
        with pytest.raises(SpatialIndexError):
            fig2_indexer.point_to_dz((1.5, 0.2))
        with pytest.raises(SpatialIndexError):
            fig2_indexer.point_to_dz((0.1,))

    def test_event_to_dz(self, fig2_space):
        idx = SpatialIndexer(fig2_space, max_dz_length=2)
        # A=60 -> right half (1); B=20 -> bottom half (0)
        assert idx.event_to_dz(Event.of(A=60, B=20)) == Dz("10")

    def test_default_length_is_max(self, fig2_indexer):
        assert len(fig2_indexer.event_to_dz(Event.of(A=1, B=1))) == 8


class TestFilterDecomposition:
    def test_fig2_advertisement(self, fig2_indexer):
        """The paper's running example: Adv {A=[50,75], B=[0,100]} -> {110, 100}.

        {110, 100} canonicalises to... they are disjoint and not siblings, so
        it stays as the two subspaces shown in Fig. 2.
        """
        adv = Filter.of(A=(50, 75), B=(0, 100))
        assert fig2_indexer.filter_to_dzset(adv) == DzSet.of("110", "100")

    def test_whole_space(self, fig2_indexer):
        assert fig2_indexer.filter_to_dzset(Filter.of()) == OMEGA

    def test_half_space(self, fig2_indexer):
        assert fig2_indexer.filter_to_dzset(
            Filter.of(A=(0, 50))
        ) == DzSet.of("0")

    def test_decomposition_covers_filter_events(self, fig2_indexer):
        """Enclosing approximation: every matching event maps inside."""
        filt = Filter.of(A=(12, 37), B=(44, 91))
        region = fig2_indexer.filter_to_dzset(filt)
        for a in range(13, 37, 3):
            for b in range(45, 91, 5):
                event = Event.of(A=a, B=b)
                assert fig2_indexer.matches(region, event)

    def test_respects_max_len(self, fig2_indexer):
        filt = Filter.of(A=(12, 37))
        region = fig2_indexer.filter_to_dzset(filt, max_len=3)
        assert all(len(dz) <= 3 for dz in region)

    def test_cell_budget_coarsens(self, fig2_space):
        tight = SpatialIndexer(fig2_space, max_dz_length=16, max_cells=4)
        loose = SpatialIndexer(fig2_space, max_dz_length=16, max_cells=256)
        filt = Filter.of(A=(12, 37), B=(44, 91))
        region_tight = tight.filter_to_dzset(filt)
        region_loose = loose.filter_to_dzset(filt)
        assert len(region_tight) <= 4
        # the tight budget yields a coarser superset of the fine region
        assert region_tight.covers(region_loose)

    def test_integer_boundary_event_not_lost(self):
        """With integer grain, an event at the subscription's upper bound
        stays inside the decomposition (no false negatives)."""
        space = EventSpace.paper_schema(2)
        idx = SpatialIndexer(space, max_dz_length=12)
        filt = Filter.of(attr0=(0, 10))
        region = idx.filter_to_dzset(filt)
        assert idx.matches(region, Event.of(attr0=10, attr1=500))

    def test_bad_max_len(self, fig2_indexer):
        with pytest.raises(SpatialIndexError):
            fig2_indexer.filter_to_dzset(Filter.of(), max_len=0)

    def test_max_len_beyond_exact_halving(self, fig2_space):
        """Past 53 halvings of one dimension, cell bounds round: at k=2
        the limit is 106 bits, for the indexer and for ``max_len``."""
        SpatialIndexer(fig2_space, max_dz_length=106)
        with pytest.raises(SpatialIndexError):
            SpatialIndexer(fig2_space, max_dz_length=107)
        with pytest.raises(SpatialIndexError):
            SpatialIndexer(
                EventSpace.of(Attribute("A", 0, 1)), max_dz_length=54
            )
        indexer = SpatialIndexer(fig2_space, max_dz_length=8)
        region = indexer.filter_to_dzset(Filter.of(A=(10, 20)), max_len=106)
        assert all(len(dz) <= 106 for dz in region)
        with pytest.raises(SpatialIndexError):
            indexer.filter_to_dzset(Filter.of(A=(10, 20)), max_len=107)
        assert len(indexer.point_to_dz((0.1, 0.2), length=106)) == 106
        with pytest.raises(SpatialIndexError):
            indexer.point_to_dz((0.1, 0.2), length=107)

    def test_exact_regime_points_follow_binary_expansion(self, fig2_space):
        """Within the limit, ``point_to_dz`` gives each coordinate's exact
        binary expansion, bit ``j`` from coordinate ``j mod k``."""
        indexer = SpatialIndexer(fig2_space, max_dz_length=106)
        point = (0.1, 1.0 - 2.0 ** -53)
        expansions = [
            format(int(c * 2 ** 53), "053b") for c in point  # exact scaling
        ]
        interleaved = "".join(a + b for a, b in zip(*expansions))
        assert indexer.point_to_dz(point).bits == interleaved

    def test_bad_parameters(self, fig2_space):
        with pytest.raises(SpatialIndexError):
            SpatialIndexer(fig2_space, max_dz_length=0)
        with pytest.raises(SpatialIndexError):
            SpatialIndexer(fig2_space, max_cells=0)


class TestMatching:
    def test_matches_respects_truncation(self, fig2_space):
        # with a very short dz, distinct filters become indistinguishable:
        # exactly the paper's L_dz false-positive effect (Sec. 6.4)
        idx = SpatialIndexer(fig2_space, max_dz_length=1)
        region = idx.filter_to_dzset(Filter.of(A=(50, 75)))
        # event outside the filter but in the same half-space: false positive
        assert idx.matches(region, Event.of(A=99, B=1))

    def test_matches_rejects_outside(self, fig2_indexer):
        region = fig2_indexer.filter_to_dzset(Filter.of(A=(50, 75)))
        assert not fig2_indexer.matches(region, Event.of(A=10, B=10))
