#!/usr/bin/env python3
"""Print the Fig 7(c) throughput tables as JSON, every value in full.

The quick-scale benchmark (``benchmarks/test_fig7c_throughput.py``)
prints its tables rounded to four digits; this script runs the same
``run_once`` rows (the send rates of the current ``REPRO_BENCH_SCALE``
with the paper's 70k ev/s hosts, then the Sec. 6.3 fast-host row) and
writes every figure unrounded, so two runs can be byte-compared.  All of
it is sim-time output: no wall-clock figure appears.

    PYTHONPATH=src python tools/fig7c_table.py > fig7c.json
    cmp fig7c.json benchmarks/_snapshots/FIG7C_QUICK.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import test_fig7c_throughput as fig7c  # noqa: E402


def table() -> dict:
    rows = [
        {"rate_eps": rate, **fig7c.run_once(rate, fig7c.HOST_RATE)}
        for rate in fig7c.SEND_RATES
    ]
    fast = fig7c.run_once(fig7c.SEND_RATES[-1], fig7c.FAST_HOST_RATE)
    return {
        "fig7c": rows,
        "sec63_fast_hosts": {
            "host_rate_eps": fig7c.FAST_HOST_RATE,
            "rate_eps": fig7c.SEND_RATES[-1],
            **fast,
        },
    }


def main() -> None:
    json.dump(table(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
