"""Record the expected outputs of the default and held-out seeds.

Run from the root of a checkout, after a change that is meant to alter
the program's outputs::

    python3 perfbench/record_digests.py

Each workload runs in a fresh interpreter, as in a benchmark run, for the
first ``run.MIN_ROUNDS`` rounds of both seeds; the digests go to
``perfbench/digests.json``, which ``run.py`` checks every round against.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 2


def digests_of(name: str) -> dict:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from run import MIN_ROUNDS
    from workloads import WORKLOADS, round_seed

    workload = WORKLOADS[name]
    found = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        rounds = []
        for index in range(MIN_ROUNDS):
            state = workload.setup(round_seed(seed, index), index)
            out = workload.run(state)
            problems = workload.check(state, out, index)
            if problems or out.failed:
                raise SystemExit(f"{name} seed {seed} round {index}: {problems}")
            rounds.append(out.digest)
        found[str(seed)] = rounds
    return found


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--one":
        print(json.dumps(digests_of(sys.argv[2])))
        return 0
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import WORKLOADS

    document = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--one", name],
            capture_output=True, text=True, check=True,
        )
        document[name] = {
            "default_seed": DEFAULT_SEED,
            "held_out_seed": HELD_OUT_SEED,
            "digests": json.loads(out.stdout.strip().splitlines()[-1]),
        }
        print(f"{name}: recorded")
    (HERE / "digests.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
