"""Wall-clock benchmark of the PLEROMA reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload publish_fanout --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the workload's round (set-up, timed phase, correctness
check; see ``workloads.py``) repeats until ``--seconds`` have passed, at
least :data:`MIN_ROUNDS` times, and the end-to-end metrics are printed.
Their times are scaled to a nominal machine speed (see
:class:`Reference`); the unscaled values are printed too.  No round
starts that would, by the length of the one before it, end past the time.
With ``--trace 1`` one untraced and one traced copy of round 0 alternate
for the same time, and the per-layer metrics of the traced copies are
printed, with the tracing overhead.  The last line of standard output is
always one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The program under test is imported from ``src/`` of the current directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
TRACE_DIR = Path(".perfbench")

class _Cell:
    """A small object of the kind the program makes by the million."""

    __slots__ = ("key", "depth")

    def __init__(self, key: int, depth: int) -> None:
        self.key = key
        self.depth = depth

    def code(self, salt: int) -> int:
        return (self.key ^ salt) & 1023


class Reference:
    """Two fixed loops that never touch the program.

    On a shared machine the speed a process gets drifts by tens of per
    cent from minute to minute, through contention for cores, caches and
    memory, far more than the changes the benchmark must resolve.  The
    runner times these loops before and after every set-up and after every
    timed phase, and divides each run's times by its slowdown: the
    geometric mean, over the loops, of the median loop time over the
    loop's nominal time.  Each loop is slowed by a different kind of
    contention, as the program is by both: scattered lookups in a table
    larger than a core's private caches, and interpreted method calls on
    small objects.  Their own quirks partly cancel in the mean, where any
    single loop's drift would move every figure of a run.  The collector
    is off while they run, so the size of the program's heap cannot change
    their cost, and each timing follows an untimed pass, so neither can
    what the program left in the caches.  The table adds about 10 MB to
    ``peak_rss_mb``.
    """

    SIZE = 1 << 17
    #: Each loop's time at nominal speed: about what it takes on an idle
    #: 2.1 GHz Xeon core under CPython 3.11.
    NOMINAL_S = {"lookup": 0.02, "calls": 0.009}

    def __init__(self) -> None:
        # values are small ints, which CPython never allocates
        self.table = {i: i & 255 for i in range(self.SIZE)}
        self.keys = [(i * 40503) % self.SIZE for i in range(self.SIZE // 2)]
        self.members = frozenset(range(20))
        self.loops = {"lookup": self._lookup, "calls": self._calls}
        self.timings: dict[str, list[float]] = {name: [] for name in self.loops}

    def _lookup(self) -> int:
        table = self.table
        acc = 0
        for key in self.keys:
            acc ^= table[key]
        return acc

    def _calls(self) -> int:
        members = self.members
        acc = 0
        for i in range(12_500):
            acc += _Cell(i, i >> 3).code(i)
            if (i & 31) in members:
                acc ^= hash((i, acc & 7)) & 3
        return acc

    def time(self) -> None:
        gc.disable()
        try:
            for name, loop in self.loops.items():
                loop()
                started = perf_counter()
                loop()
                self.timings[name].append(perf_counter() - started)
        finally:
            gc.enable()

    def loop_slowdowns(self) -> dict[str, float]:
        return {
            name: statistics.median(times) / self.NOMINAL_S[name]
            for name, times in self.timings.items()
        }

    def slowdown(self) -> float:
        """Machine time per nominal time over this run."""
        return statistics.geometric_mean(self.loop_slowdowns().values())


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    for percentile in (99.9, 99.0, 90.0):
        if samples * (100.0 - percentile) / 100.0 >= 10 - 1e-9:
            return percentile
    return 50.0


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when it is empty,
    which only a failed run produces)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def digest_problems(recorded: dict, seed: int, round_index: int,
                    digest: dict) -> list[str]:
    """Compare a round's digest with the one recorded for its seed, if any."""
    rounds = recorded.get("digests", {}).get(str(seed), [])
    if round_index >= len(rounds) or rounds[round_index] == digest:
        return []
    return [f"round {round_index} digest {digest} != recorded "
            f"{rounds[round_index]}"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def frozen_heap():
    """Freeze everything alive out of the cyclic collector for a timed
    phase.  Otherwise each full collection walks the whole deployment, and
    where those pauses land decides the tail latency."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_round(workload, seed: int, round_index: int, recorded: dict,
              reference: Reference | None = None):
    """One round: returns (set-up seconds, outputs, problems).  With a
    ``reference``, its loop is timed around each phase."""
    from workloads import round_seed

    if reference is not None:
        reference.time()
    t0 = perf_counter()
    state = workload.setup(round_seed(seed, round_index), round_index)
    setup_s = perf_counter() - t0
    if reference is not None:
        reference.time()
    with frozen_heap():
        out = workload.run(state)
    if reference is not None:
        reference.time()
    problems = workload.check(state, out, round_index)
    problems += digest_problems(recorded, seed, round_index, out.digest)
    return setup_s, out, problems


def measure(workload, seed: int, seconds: float, recorded: dict) -> dict:
    deadline = perf_counter() + seconds
    setups: list[float] = []
    outs = []
    problems: list[str] = []
    reference = Reference()
    round_s = 0.0
    # no round starts that the last one's length says would end late
    while len(outs) < MIN_ROUNDS or perf_counter() + round_s < deadline:
        started = perf_counter()
        setup_s, out, found = run_round(
            workload, seed, len(outs), recorded, reference
        )
        round_s = perf_counter() - started
        setups.append(setup_s)
        outs.append(out)
        problems += found
    attempted = sum(o.attempted for o in outs)
    failed = sum(o.failed for o in outs) + len(problems)
    latencies = sorted(x for o in outs for x in o.latencies_s)
    tail = tail_percentile(len(latencies))
    raw = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(
            (o.attempted - o.failed) / o.timed_s for o in outs), "1/s"),
        "op_p50_ms": (percentile(latencies, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # times shrink and rates grow by the run's slowdown
    slowdown = reference.slowdown()
    metrics = {
        name: (value * slowdown if unit == "1/s"
               else value / slowdown if unit in ("s", "ms") else value, unit)
        for name, (value, unit) in raw.items()
    }
    # the workload's own names, so each figure reads in its own terms
    named = {
        name: (statistics.median(o.named[name] for o in outs), _unit(name))
        for name in outs[0].named
    }
    named["error_rate"] = (failed / max(attempted, 1), "ratio")
    if workload.name == "subscribe_churn":
        named["subscribe_p50_ms"] = raw["op_p50_ms"]
        named[f"subscribe_p{tail:g}_ms"] = raw["op_tail_ms"]
    elif workload.name == "chaos_repair":
        named["repair_p50_ms"] = raw["op_p50_ms"]
        named[f"repair_p{tail:g}_ms"] = raw["op_tail_ms"]
    named["setup_s"] = raw["setup_s"]
    named["peak_rss_mb"] = raw["peak_rss_mb"]

    print(f"workload {workload.name}, seed {seed}: {len(outs)} rounds, "
          f"{attempted} operations ({workload.op_name}), {failed} failed")
    print(f"latency samples: {len(latencies)} x {workload.latency_name}; "
          f"tail is p{tail:g}")
    loops = ", ".join(
        f"{name} {value:.3f}x"
        for name, value in reference.loop_slowdowns().items()
    )
    print(f"reference loops: {len(reference.timings['lookup'])} timings; "
          f"machine {slowdown:.3f}x slower than nominal ({loops})")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"  {'end-to-end metric':<22} {'at nominal':>14} {'unscaled':>14}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<22} {value:14.6g} {raw[name][0]:14.6g} {unit}")
    print(f"{workload.name} figures (unscaled):")
    for name, (value, unit) in named.items():
        print(f"  {name:<22} {value:14.6g} {unit}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def _unit(name: str) -> str:
    return "1/s" if name.endswith("_per_s") else "s"


def measure_traced(workload, seed: int, seconds: float, recorded: dict) -> dict:
    import layers
    import tracer as tracing

    deadline = perf_counter() + seconds
    tracer = tracing.Tracer()
    installed = tracing.install(tracer, layers.TARGETS)
    root = f"workload.{workload.name}"
    untraced_s = 0.0
    pairs = 0
    problems: list[str] = []
    counts: dict[str, float] = {}
    attempted = failed = 0
    pair_s = 0.0
    try:
        while pairs < 1 or perf_counter() + pair_s < deadline:
            from workloads import round_seed

            started = perf_counter()

            # the same round twice: untraced, then traced
            _setup, plain, found = run_round(workload, seed, 0, recorded)
            problems += found
            untraced_s += plain.timed_s
            state = workload.setup(round_seed(seed, 0), 0)
            # tag spans with the operation that was running
            workload.begin_op = lambda op_id: setattr(tracer, "op_id", op_id)
            tracer.active = True
            try:
                with frozen_heap(), tracer.span(root):
                    traced = workload.run(state)
            finally:
                tracer.active = False
                del workload.begin_op
            problems += workload.check(state, traced, 0)
            if traced.digest != plain.digest:
                problems.append("traced round's outputs differ from untraced")
            for key, value in traced.counts.items():
                counts[key] = counts.get(key, 0) + value
            attempted += plain.attempted + traced.attempted
            failed += plain.failed + traced.failed
            pairs += 1
            pair_s = perf_counter() - started
    finally:
        tracing.restore(installed)
    if not installed.originals_back():
        problems.append("wrapped functions not restored")
    by_name = tracer.by_name()
    # per round: every traced round ran the same inputs
    per_round = {
        name: (calls / pairs, total / pairs, own / pairs)
        for name, (calls, total, own) in by_name.items()
    }
    metrics = layers.per_layer_metrics(
        per_round,
        tracer.probes,
        {k: v / pairs for k, v in counts.items()},
        root,
        untraced_s / pairs,
    )
    TRACE_DIR.mkdir(exist_ok=True)
    trace_path = TRACE_DIR / f"trace-{workload.name}-{seed}.json"
    tracer.write(trace_path)

    _calls, wall, _own = by_name[root]
    print(f"workload {workload.name}, seed {seed}: {pairs} traced round(s); "
          f"traced {wall:.4f} s vs untraced {untraced_s:.4f} s "
          f"(tracing overhead {wall - untraced_s:+.4f} s, "
          f"{metrics['trace.overhead_share']:+.1%})")
    print(f"spans written to {trace_path}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"  {'layer':<42} {'calls/round':>12} {'self us/call':>13} "
          f"{'self share':>10}")
    total_self = 0.0
    for name, (calls, _total, own) in sorted(
        by_name.items(), key=lambda kv: -kv[1][2]
    ):
        total_self += own
        label = "(unattributed: benchmark and untraced code)" \
            if name == root else name
        print(f"  {label:<42} {calls / pairs:12.1f} "
              f"{own / calls * 1e6:13.2f} {own / wall:10.1%}")
    print(f"  self times sum to {total_self:.4f} s of {wall:.4f} s traced "
          f"wall time")
    failed += len(problems)
    units = dict(layers.METRICS)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name, _unit in layers.METRICS
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {source}/repro; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    recorded = json.loads((HERE / "digests.json").read_text()).get(
        workload.name, {}
    )
    measure_fn = measure_traced if args.trace else measure
    result = measure_fn(workload, args.seed, args.seconds, recorded)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
