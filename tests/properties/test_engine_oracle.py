"""The tuple-keyed event heap checked against the engine it replaced.

``repro.sim.engine`` keeps ``(time, seq, event)`` tuples on its heap so
comparisons stay in C.  The reference below is the previous engine, a
``@dataclass(order=True)`` event compared field by field, kept verbatim as
the oracle.  Random programs run against both: schedules with tied times,
callbacks that schedule nested events, cancellation of pending and of
already-fired handles, and ``run`` bounded by ``until`` and by
``max_events``.  After every operation the firing log, ``now``,
``processed_events`` and ``pending_events`` must agree.  Delays stay
finite: the one intended difference is that the new engine rejects a NaN
or infinite delay, which the reference queued.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.sim import engine as fast

# ----------------------------------------------------------------------
# reference implementation (the replaced engine, verbatim)
# ----------------------------------------------------------------------


@dataclass(order=True)
class ScheduledEvent:
    """A pending callback in the event queue."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Prevent the callback from firing (lazy deletion)."""
        self.cancelled = True


class Simulator:
    """Discrete-event simulator with absolute time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callbacks executed so far (for tests and stats)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled callbacks still queued."""
        return sum(1 for ev in self._queue if not ev.cancelled)

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` seconds of sim time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past ({delay=})")
        event = ScheduledEvent(
            time=self._now + delay,
            seq=next(self._seq),
            callback=callback,
            args=args,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        return self.schedule(time - self._now, callback, *args)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            event.callback(*event.args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at an absolute time (events beyond it stay
        queued and ``now`` is advanced to ``until``); ``max_events`` bounds
        the number of executed callbacks (a runaway guard for tests).
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                return
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = max(self._now, until)
                return
            self.step()
            executed += 1
        if until is not None:
            self._now = max(self._now, until)


# ----------------------------------------------------------------------
# random programs
# ----------------------------------------------------------------------

#: Few distinct delays, so equal firing times (FIFO ties) are common; the
#: fractional ones exercise float rounding of ``now + delay``.
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=10.0),
)

#: A callback's children: each is ``(delay, grandchildren)``.
_children = st.recursive(
    st.just(()),
    lambda kids: st.lists(st.tuples(_delays, kids), max_size=3).map(tuple),
    max_leaves=10,
)

_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, _children),
    st.tuples(
        st.just("schedule_at"),
        st.floats(min_value=0.0, max_value=20.0),
        _children,
    ),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=12.0)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    ),
    st.tuples(st.just("step")),
)


class _ProgramRun:
    """Runs one program on one engine, logging what fired and when."""

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.log: list[tuple[str, float]] = []
        self.handles: list[Any] = []

    def _fire(self, tag: str, children: tuple) -> None:
        self.log.append((tag, self.sim.now))
        for i, (delay, grandchildren) in enumerate(children):
            self.handles.append(
                self.sim.schedule(delay, self._fire, f"{tag}.{i}", grandchildren)
            )

    def apply(self, index: int, op: tuple) -> Any:
        kind = op[0]
        tag = f"op{index}"
        if kind == "schedule":
            self.handles.append(self.sim.schedule(op[1], self._fire, tag, op[2]))
        elif kind == "schedule_at":
            # an absolute time, clamped so it is not in the past
            at = max(self.sim.now, op[1])
            self.handles.append(self.sim.schedule_at(at, self._fire, tag, op[2]))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "run":
            self.sim.run(until=op[1], max_events=op[2])
        else:
            return self.sim.step()
        return None

    def state(self) -> tuple:
        return (
            list(self.log),
            self.sim.now,
            self.sim.processed_events,
            self.sim.pending_events,
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=25))
def test_engine_matches_oracle(program):
    new, old = _ProgramRun(fast.Simulator()), _ProgramRun(Simulator())
    for index, op in enumerate(program):
        assert new.apply(index, op) == old.apply(index, op)
        assert new.state() == old.state()
    # drain both: whatever is still queued fires in the same order
    new.sim.run()
    old.sim.run()
    assert new.state() == old.state()
    assert [h.time for h in new.handles] == [h.time for h in old.handles]
    assert [h.seq for h in new.handles] == [h.seq for h in old.handles]
    assert [h.cancelled for h in new.handles] == [
        h.cancelled for h in old.handles
    ]


def _hop_then_fire(sim, fired, i, hops, delay):
    """After ``hops`` zero-delay hops, schedule ``fired.append(i)``."""
    if hops:
        sim.schedule(0.0, _hop_then_fire, sim, fired, i, hops - 1, delay)
    else:
        sim.schedule(delay, fired.append, i)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_delays, st.integers(0, 3)), min_size=1, max_size=40))
def test_tied_times_fire_fifo_like_oracle(batch):
    """Many events at a handful of times, scheduled from different
    ``now`` values: the firing order is the oracle's (time, seq) order."""
    runs = []
    for sim in (fast.Simulator(), Simulator()):
        fired: list[int] = []
        for i, (delay, hops) in enumerate(batch):
            sim.schedule(0.0, _hop_then_fire, sim, fired, i, hops, delay)
        sim.run()
        runs.append((fired, sim.now))
    assert runs[0] == runs[1]


def test_schedule_at_rounds_like_oracle():
    """``schedule_at`` keeps the oracle's ``now + (time - now)`` rounding."""
    new, old = fast.Simulator(), Simulator()
    for sim in (new, old):
        sim.schedule(2.9, lambda: None)
        sim.run()
    # 2.9 + (7.3 - 2.9) == 7.300000000000001, not 7.3
    times = [7.3, 3.3, 2.9 + 1e-9, 123.456789]
    assert [new.schedule_at(t, lambda: None).time for t in times] == [
        old.schedule_at(t, lambda: None).time for t in times
    ]


# ----------------------------------------------------------------------
# the inlined dispatch loop: ``run`` pops and calls each event itself and
# ``step`` is ``run(max_events=1)``
# ----------------------------------------------------------------------

_bounded = st.one_of(
    st.tuples(st.just("step")),
    st.tuples(
        st.just("run"),
        st.one_of(st.none(), st.sampled_from([0.0, 0.1, 0.25, 1.0, 2.5])),
        st.one_of(st.none(), st.integers(min_value=-2, max_value=3)),
    ),
    st.tuples(st.just("cancel_head")),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_delays, _children), min_size=1, max_size=12),
    st.lists(_bounded, min_size=1, max_size=12),
)
def test_bounded_dispatch_matches_oracle(seeds, program):
    """``until`` (with the clock parked at it), ``max_events`` (including
    0 and negative budgets) and cancelled events at the head of the
    queue: ``step`` and ``run`` agree with the oracle after every call."""
    runs = [_ProgramRun(fast.Simulator()), _ProgramRun(Simulator())]
    for run in runs:
        for i, (delay, children) in enumerate(seeds):
            run.apply(i, ("schedule", delay, children))
    for op in program:
        results = []
        for run in runs:
            if op[0] == "cancel_head":
                # cancel whichever live event fires next
                live = [h for h in run.handles if not h.cancelled]
                if live:
                    min(live, key=lambda h: (h.time, h.seq)).cancel()
                results.append(None)
            elif op[0] == "step":
                results.append(run.sim.step())
            else:
                results.append(run.sim.run(until=op[1], max_events=op[2]))
        assert results[0] == results[1]
        assert runs[0].state() == runs[1].state()


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e3),
    st.lists(st.floats(min_value=0.0, max_value=2e3), min_size=1, max_size=8),
)
def test_schedule_at_rounding_matches_oracle(now, offsets):
    """``schedule_at`` no longer goes through ``schedule`` but keys each
    event at ``now + (time - now)``, as the oracle does."""
    new, old = fast.Simulator(), Simulator()
    for sim in (new, old):
        sim.schedule(now, lambda: None)
        sim.run()
    assert new.now == old.now
    for offset in offsets:
        at = new.now + offset
        got = new.schedule_at(at, lambda: None).time
        want = old.schedule_at(at, lambda: None).time
        assert got.hex() == want.hex()


def test_schedule_at_rejects_past_and_nonfinite_times():
    sim = fast.Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    for bad in (0.5, float("nan"), float("inf")):
        try:
            sim.schedule_at(bad, lambda: None)
        except SimulationError:
            continue
        raise AssertionError(f"schedule_at({bad}) was accepted")
    assert sim.pending_events == 0


def test_step_is_one_bounded_run():
    """``step`` skips cancelled heads, runs exactly one event, ignores
    the horizon and reports an empty queue with False."""
    sim = fast.Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.schedule(3.0, fired.append, 3)
    first.cancel()
    assert sim.step() is True
    assert fired == [2] and sim.now == 2.0 and sim.processed_events == 1
    sim.run(max_events=0)
    sim.run(max_events=-1)
    assert fired == [2]
    assert sim.step() is True and fired == [2, 3]
    assert sim.step() is False and sim.now == 3.0
