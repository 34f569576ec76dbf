#!/usr/bin/env python3
"""Print the sim-time side of Fig 7(f) as JSON.

The quick-scale benchmark (``benchmarks/test_fig7f_reconfig_delay.py``)
reports reconfiguration delays, which include the controller's measured
compute time and so differ from run to run.  This script runs the same
deployments (``probe`` at each installed size of the current
``REPRO_BENCH_SCALE``) and prints only what must not move: each probe
subscription's flow-mod count, and a sha256 over every switch table
afterwards (each entry's match, priority, sorted actions and cookie, in
switch-name and match order).  No wall-clock figure appears, so two runs
can be byte-compared.

    PYTHONPATH=src python tools/fig7f_table.py > fig7f.json
    cmp fig7f.json benchmarks/_snapshots/FIG7F_QUICK.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import test_fig7f_reconfig_delay as fig7f  # noqa: E402

from repro.middleware.pleroma import Pleroma  # noqa: E402


def tables_sha256(middleware: Pleroma) -> str:
    digest = hashlib.sha256()
    for name, switch in sorted(middleware.network.switches.items()):
        for entry in sorted(
            switch.table,
            key=lambda e: (e.match.prefix_len, e.match.network),
        ):
            actions = ",".join(
                f"{a.out_port}/{a.set_dest}" for a in entry.sorted_actions()
            )
            digest.update(
                f"{name} {entry.match.prefix_len} {entry.match.network} "
                f"{entry.priority} {actions} {entry.cookie}\n".encode()
            )
    return digest.hexdigest()


def table() -> dict:
    rows = []
    for installed in fig7f.INSTALLED:
        middleware, probes = fig7f.probe(installed)
        rows.append(
            {
                "installed": installed,
                "probe_flow_mods": [s.flow_mods for s in probes],
                "tables_sha256": tables_sha256(middleware),
            }
        )
    return {"fig7f": rows}


def main() -> None:
    json.dump(table(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
