"""Fig. 7(d): false positive rate vs. dz length.

Paper setup (Sec. 6.4): 100 and 1,600 subscriptions from the uniform and
zipfian models, divided among the end hosts; FPR = unwanted deliveries /
total deliveries.  Results: FPR falls as dz grows for both distributions,
and with many subscriptions the same event is more often *wanted* by the
receiving host, so the large-subscription curves sit lower at long dz.

The measurement is the pure indexing function: a host receives an event iff
the union of its subscriptions' DZ regions (truncated to the dz budget)
overlaps the event's dz — the packet-level tests establish that the fabric
implements exactly this predicate, so the benchmark evaluates it directly
at scale.
"""

from __future__ import annotations

from conftest import print_table, scaled

from repro.analysis.fpr import (
    FprReport,
    HostAssignment,
    assign_round_robin,
    evaluate_fpr,
)
from repro.core.spatial_index import SpatialIndexer
from repro.middleware.metrics import summarize
from repro.workloads.scenarios import paper_uniform, paper_zipfian

DZ_LENGTHS = scaled([5, 10, 15, 20, 25], [5, 10, 15, 20, 25])
SUB_COUNTS = scaled([100, 1_600], [100, 1_600])
EVENTS = scaled(1_500, 10_000)
HOSTS = 8
DIMENSIONS = 3
WIDTH = 0.25


def evaluate_point(
    model: str, sub_count: int, dz_length: int
) -> tuple[HostAssignment, FprReport]:
    """One table row: the host regions and the delivery counts."""
    workload = (
        paper_uniform(dimensions=DIMENSIONS, seed=17, width_fraction=WIDTH)
        if model == "uniform"
        else paper_zipfian(dimensions=DIMENSIONS, seed=17, width_fraction=WIDTH)
    )
    indexer = SpatialIndexer(
        workload.space, max_dz_length=dz_length, max_cells=256
    )
    assignment = assign_round_robin(
        workload.subscriptions(sub_count), HOSTS, indexer
    )
    return assignment, evaluate_fpr(assignment, workload.events(EVENTS), indexer)


def run_once(model: str, sub_count: int, dz_length: int) -> float:
    return evaluate_point(model, sub_count, dz_length)[1].fpr_percent


def test_fig7d_fpr_vs_dz_length(benchmark):
    rows = []
    curves: dict[tuple[str, int], list[float]] = {}
    configs = [
        (model, count)
        for model in ("uniform", "zipfian")
        for count in SUB_COUNTS
    ]
    for model, count in configs:
        curve = []
        for length in DZ_LENGTHS:
            if (model, count, length) == ("zipfian", SUB_COUNTS[-1], DZ_LENGTHS[-1]):
                fpr = benchmark.pedantic(
                    run_once, args=(model, count, length), rounds=1, iterations=1
                )
            else:
                fpr = run_once(model, count, length)
            curve.append(fpr)
            rows.append((model, count, length, fpr))
        curves[(model, count)] = curve

    print_table(
        "Fig 7(d): false positive rate vs dz length",
        ["model", "subscriptions", "dz length", "FPR (%)"],
        rows,
    )

    for (model, count), curve in curves.items():
        # FPR never grows with dz length, and ends at its minimum
        assert curve[-1] <= curve[0] + 1e-9, (
            f"{model}/{count}: FPR grew ({curve[0]:.1f}% -> {curve[-1]:.1f}%)"
        )
        assert curve[-1] <= min(curve) + 5.0
    # sparse workloads are truncation-bound: their curves fall strictly
    for model in ("uniform", "zipfian"):
        curve = curves[(model, SUB_COUNTS[0])]
        assert curve[-1] < curve[0], f"{model}/100: no decline"
    # more subscriptions -> the receiving host more often wants the event,
    # so the large-subscription curves sit below the small ones at long dz
    for model in ("uniform", "zipfian"):
        assert (
            curves[(model, SUB_COUNTS[-1])][-1]
            <= curves[(model, SUB_COUNTS[0])][-1]
        )
    stats = summarize(curves[("uniform", SUB_COUNTS[0])])
    assert stats["min"] < stats["max"]
