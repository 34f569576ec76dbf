#!/usr/bin/env python3
"""Print the Fig 7(d) and Fig 7(e) FPR tables as JSON, every value in full.

The quick-scale benchmarks (``benchmarks/test_fig7d_fpr_vs_dzlen.py`` and
``benchmarks/test_fig7e_fpr_vs_dimensions.py``) print their tables rounded;
this script runs the same rows for the current ``REPRO_BENCH_SCALE`` and
writes each one's delivery counts, its unrounded FPR and the member count
of every host's DZ region, so two runs can be byte-compared.  All of it is
indexing output: no wall-clock figure appears.

    PYTHONPATH=src python tools/fig7d_table.py > fig7d.json
    cmp fig7d.json benchmarks/_snapshots/FIG7D_QUICK.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import test_fig7d_fpr_vs_dzlen as fig7d  # noqa: E402
import test_fig7e_fpr_vs_dimensions as fig7e  # noqa: E402

from repro.analysis.fpr import FprReport, HostAssignment  # noqa: E402


def row(assignment: HostAssignment, report: FprReport) -> dict:
    return {
        "delivered": report.delivered,
        "unwanted": report.unwanted,
        "fpr_percent": report.fpr_percent,
        "region_sizes": [len(region) for region in assignment.regions],
    }


def table() -> dict:
    fig7d_rows = [
        {
            "model": model,
            "subscriptions": count,
            "dz_length": length,
            **row(*fig7d.evaluate_point(model, count, length)),
        }
        for model in ("uniform", "zipfian")
        for count in fig7d.SUB_COUNTS
        for length in fig7d.DZ_LENGTHS
    ]
    fig7e_rows = [
        {"workload": f"zipfian-{type_id}", "k": k, **row(assignment, report)}
        for type_id in (1, 2, 3)
        for k, assignment, report in fig7e.evaluate_type(type_id)
    ]
    return {"fig7d": fig7d_rows, "fig7e": fig7e_rows}


def main() -> None:
    json.dump(table(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
