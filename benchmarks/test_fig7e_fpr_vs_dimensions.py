"""Fig. 7(e): false positive rate vs. number of selected dimensions.

Paper setup (Sec. 6.4): a 7-dimensional event space, zipfian subscriptions
divided among end hosts, three zipfian workload types differing in the
per-dimension variance restrictions on the event traffic.  Dimension
selection (Sec. 5) indexes only the k top-ranked dimensions; because the dz
bit budget is shared across indexed dimensions, picking the few
*informative* ones sharpens filtering: "reduction of dimensions proves to
be an effective way for decreasing false positives".
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
from repro.dimsel.selection import select_dimensions
from repro.workloads.scenarios import zipfian_type

KS = scaled([1, 2, 3, 5, 7], [1, 2, 3, 4, 5, 6, 7])
SUBSCRIPTIONS = scaled(100, 400)
EVENTS = scaled(1_200, 5_000)
TRAINING_EVENTS = scaled(400, 1_000)
HOSTS = 8
DZ_BUDGET = 14  # total dz bits available, shared across indexed dimensions


def evaluate_type(
    type_id: int,
) -> list[tuple[int, HostAssignment, FprReport]]:
    """One workload type's rows: per k, the host regions and the counts."""
    workload = zipfian_type(type_id, seed=23)
    subs = workload.subscriptions(SUBSCRIPTIONS)
    training = workload.events(TRAINING_EVENTS)
    evaluation = workload.events(EVENTS)
    results = []
    for k in KS:
        selection = select_dimensions(workload.space, subs, training, k=k)
        reduced = workload.space.restrict(selection.selected)
        indexer = SpatialIndexer(
            reduced, max_dz_length=DZ_BUDGET, max_cells=128
        )
        assignment = assign_round_robin(subs, HOSTS, indexer)
        report = evaluate_fpr(assignment, evaluation, indexer)
        results.append((k, assignment, report))
    return results


def run_type(type_id: int) -> list[tuple[int, float]]:
    return [
        (k, report.fpr_percent) for k, _, report in evaluate_type(type_id)
    ]


def test_fig7e_fpr_vs_selected_dimensions(benchmark):
    curves: dict[int, list[tuple[int, float]]] = {}
    for type_id in (1, 2):
        curves[type_id] = run_type(type_id)
    curves[3] = benchmark.pedantic(run_type, args=(3,), rounds=1, iterations=1)

    rows = [
        (f"zipfian-{type_id}", k, fpr)
        for type_id, curve in sorted(curves.items())
        for k, fpr in curve
    ]
    print_table(
        "Fig 7(e): false positive rate vs number of selected dimensions",
        ["workload", "k (selected dims)", "FPR (%)"],
        rows,
    )

    for type_id, curve in curves.items():
        fprs = [fpr for _, fpr in curve]
        # selecting the informative dimensions beats indexing only one
        assert min(fprs) <= fprs[0] + 1e-9, f"type {type_id}: no improvement"
    # the workload with variance confined to 2 dimensions reaches its best
    # FPR with few selected dimensions (its optimum is at small k)
    type1 = dict(curves[1])
    best_k_type1 = min(type1, key=type1.get)
    assert best_k_type1 <= 3, f"type 1 optimum at k={best_k_type1}"
    # restricted workloads filter better at k=2 than the unrestricted one
    type3 = dict(curves[3])
    assert type1[2] <= type3[2] + 5.0
