"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the tail
percentile rule, that a wrong recorded digest raises the error rate, and
that a traced run leaves every wrapped function as it found it.  Exits 1
on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


class TinyFpr(workloads.FprSweep):
    """The real fpr_sweep code path on inputs small enough for a test."""

    SUBSCRIPTIONS = 8
    EVENTS = 20


def test_self_time_on_synthetic_tree() -> None:
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    real = tracing.perf_counter
    tracing.perf_counter = lambda: next(ticks)
    try:
        t = tracing.Tracer()
        a = t.enter("A")
        b = t.enter("B")
        c = t.enter("C")
        t.exit(c)
        t.exit(b)
        d = t.enter("D")
        t.exit(d)
        t.exit(a)
    finally:
        tracing.perf_counter = real
    by_name = t.by_name()
    expect({n: row[2] for n, row in by_name.items()}
           == {"A": 3.0, "B": 2.0, "C": 1.0, "D": 4.0},
           f"self times {by_name}")
    expect(sum(row[2] for row in by_name.values()) == by_name["A"][1],
           "self times do not add up to the root's wall time")
    expect(t.agg[("C", "B")] == [1, 1.0, 1.0], f"aggregate {t.agg}")


def test_tail_percentile_rule() -> None:
    cases = {10_000: 99.9, 1000: 99.0, 999: 90.0, 100: 90.0, 99: 50.0, 5: 50.0}
    for samples, expected in cases.items():
        got = run.tail_percentile(samples)
        expect(got == expected, f"{samples} samples gave p{got}")
    expect(run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0, "nearest rank")


def test_wrong_digest_counts_as_failure() -> None:
    tiny = TinyFpr()
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        clean = run.measure(tiny, 3, 0.0, {})
    expect(clean["correct"] and clean["failed"] == 0, f"clean run {clean}")
    wrong = {"digests": {"3": [{"delivered": -1}]}}
    with contextlib.redirect_stdout(quiet):
        dirty = run.measure(tiny, 3, 0.0, wrong)
    expect(not dirty["correct"] and dirty["failed"] == 1,
           f"wrong digest not counted: {dirty}")


def test_traced_run_restores_originals() -> None:
    import importlib

    def current():
        found = {}
        for target in layers.TARGETS:
            module = importlib.import_module(target.module)
            owner = getattr(module, target.cls) if target.cls else module
            found[target.name] = vars(owner)[target.attr]
        return found

    tracing_dir = run.TRACE_DIR
    before = current()
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet):
        result = run.measure_traced(TinyFpr(), 3, 0.0, {})
    expect(result["correct"], f"traced run failed: {quiet.getvalue()}")
    expect(current() == before, "a wrapped function was not restored")
    calls = result["metrics"]["analysis.fpr.evaluate_fpr.calls"]["value"]
    expect(calls == TinyFpr.EVENTS / TinyFpr.CHUNK, f"evaluate_fpr calls {calls}")
    for path in tracing_dir.glob("trace-fpr_sweep-3.json"):
        path.unlink()


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok  {name}")
