"""Two Fig. 7(d) points pinned to their exact outputs.

``benchmarks/test_fig7d_fpr_vs_dzlen.py`` prints the full table but only
asserts its shape.  These cheap points use the same set-up (3-D space,
seed 17, width 0.25, eight hosts, 256-cell budget) on 100 subscriptions
and 300 events, and pin the delivery counts and the size of every host's
DZ region, so a change to indexing or DZ-set algebra that moves the
figure fails here on every commit.
"""

import pytest

from repro.analysis.fpr import FprReport, assign_round_robin, evaluate_fpr
from repro.core.spatial_index import SpatialIndexer
from repro.workloads.scenarios import paper_uniform, paper_zipfian

HOSTS = 8
EVENTS = 300

PINNED = [
    (
        "uniform", 5,
        FprReport(delivered=1943, unwanted=1543),
        [12, 9, 8, 8, 4, 4, 9, 7],
    ),
    (
        "zipfian", 25,
        FprReport(delivered=1804, unwanted=356),
        [340, 280, 317, 255, 223, 410, 168, 238],
    ),
]


@pytest.mark.parametrize(("model", "dz_length", "report", "region_sizes"), PINNED)
def test_fig7d_point_is_pinned(model, dz_length, report, region_sizes):
    factory = paper_uniform if model == "uniform" else paper_zipfian
    workload = factory(dimensions=3, seed=17, width_fraction=0.25)
    indexer = SpatialIndexer(
        workload.space, max_dz_length=dz_length, max_cells=256
    )
    assignment = assign_round_robin(
        workload.subscriptions(100), HOSTS, indexer
    )
    assert [len(region) for region in assignment.regions] == region_sizes
    assert evaluate_fpr(assignment, workload.events(EVENTS), indexer) == report
