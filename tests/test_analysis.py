"""Tests for the shared FPR analysis module."""

import pytest

from repro.analysis.fpr import FprReport, assign_round_robin, evaluate_fpr
from repro.core.dzset import DzSet
from repro.core.events import Event, EventSpace
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Subscription
from repro.exceptions import WorkloadError
from repro.workloads.scenarios import paper_zipfian


@pytest.fixture
def indexer():
    return SpatialIndexer(EventSpace.paper_schema(1), max_dz_length=10)


class TestAssignment:
    def test_round_robin(self, indexer):
        subs = [Subscription.of(attr0=(i * 100, i * 100 + 50)) for i in range(5)]
        assignment = assign_round_robin(subs, 2, indexer)
        assert [len(g) for g in assignment.subscriptions] == [3, 2]
        assert len(assignment.regions) == 2
        assert not assignment.regions[0].is_empty

    @pytest.mark.parametrize("hosts", [1, 3, 8])
    @pytest.mark.parametrize("max_cells", [4, 64, 256])
    def test_regions_equal_incremental_union(self, hosts, max_cells):
        """Each host's region, built once from its members' dz, is the
        fold of pairwise unions over its subscriptions' DZ sets."""
        workload = paper_zipfian(dimensions=3, seed=17, width_fraction=0.25)
        indexer = SpatialIndexer(
            workload.space, max_dz_length=15, max_cells=max_cells
        )
        subs = workload.subscriptions(40)
        assignment = assign_round_robin(subs, hosts, indexer)
        for host, region in enumerate(assignment.regions):
            folded = DzSet()
            for sub in subs[host::hosts]:
                folded = folded.union(indexer.filter_to_dzset(sub.filter))
            assert region._bits == folded._bits

    def test_validation(self, indexer):
        with pytest.raises(WorkloadError):
            assign_round_robin([], 2, indexer)
        with pytest.raises(WorkloadError):
            assign_round_robin([Subscription.of(attr0=(0, 1))], 0, indexer)


class TestEvaluate:
    def test_exact_indexing_gives_zero_fpr(self, indexer):
        """With dz-aligned subscriptions the approximation is exact."""
        subs = [Subscription.of(attr0=(0, 511))]  # exactly dz '0'
        assignment = assign_round_robin(subs, 1, indexer)
        events = [Event.of(attr0=v) for v in (0, 100, 511, 512, 1000)]
        report = evaluate_fpr(assignment, events, indexer)
        assert report.delivered == 3
        assert report.unwanted == 0
        assert report.fpr_percent == 0.0

    def test_truncation_produces_false_positives(self):
        coarse = SpatialIndexer(EventSpace.paper_schema(1), max_dz_length=1)
        subs = [Subscription.of(attr0=(0, 255))]
        assignment = assign_round_robin(subs, 1, coarse)
        events = [Event.of(attr0=v) for v in (100, 400)]  # 400 is unwanted
        report = evaluate_fpr(assignment, events, coarse)
        assert report.delivered == 2
        assert report.unwanted == 1
        assert report.fpr_percent == 50.0

    def test_per_host_wanting(self, indexer):
        """An event unwanted by one host may be wanted by another; FPR is
        evaluated per delivery."""
        subs = [
            Subscription.of(attr0=(0, 511)),    # host 0
            Subscription.of(attr0=(0, 127)),    # host 1
        ]
        assignment = assign_round_robin(subs, 2, indexer)
        report = evaluate_fpr(assignment, [Event.of(attr0=300)], indexer)
        # host 0 wants it; host 1's region {0..511}-truncated... host 1's
        # region is {0..127} at this granularity: not delivered there
        assert report.delivered == 1
        assert report.unwanted == 0

    def test_requires_events(self, indexer):
        assignment = assign_round_robin(
            [Subscription.of(attr0=(0, 1))], 1, indexer
        )
        with pytest.raises(WorkloadError):
            evaluate_fpr(assignment, [], indexer)

    def test_empty_report(self):
        assert FprReport(delivered=0, unwanted=0).fpr_percent == 0.0
