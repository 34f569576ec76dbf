"""A minimal, deterministic discrete-event simulation engine.

The network substrate (switches, links, hosts) and the control plane run on
this engine.  Callbacks are scheduled at absolute times and kept in a
binary heap of ``(time, seq, event)`` tuples.  ``seq`` comes from a
monotonically increasing counter, so it is unique: the heap orders by time
with FIFO tie-breaking among equal times, never compares two events, and
runs are fully deterministic for a fixed seed.  Cancellation is lazy: a
cancelled event stays queued and is skipped when it reaches the head.
The simulator also owns its deployment's ids (:class:`IdAllocator`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable
from typing import Any

from repro.exceptions import SimulationError

__all__ = ["Simulator", "ScheduledEvent", "IdAllocator"]


class IdAllocator:
    """Named id sequences, each counting from 1.  One per deployment
    (``sim.ids``), so no id depends on what else ran in the process."""

    def __init__(self) -> None:
        self._last: dict[str, int] = {}

    def next(self, name: str) -> int:
        self._last[name] = value = self._last.get(name, 0) + 1
        return value


class ScheduledEvent:
    """A pending callback in the event queue; the handle ``schedule``
    returns, so the caller can :meth:`cancel` it."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (lazy deletion)."""
        self.cancelled = True


class Simulator:
    """Discrete-event simulator with absolute time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._processed = 0
        self.ids = IdAllocator()

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
        return sum(1 for _, _, ev in self._queue if not ev.cancelled)

    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` after ``delay`` seconds of sim time.

        ``delay`` must be a finite number ``>= 0``: a NaN key would
        silently corrupt the heap order, an infinite one never fires.
        """
        if not 0 <= delay < math.inf:
            raise SimulationError(
                f"delay must be finite and non-negative ({delay=})"
            )
        time = self._now + delay
        seq = next(self._seq)
        event = ScheduledEvent(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledEvent:
        """Run ``callback(*args)`` at absolute time ``time``."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {now}"
            )
        delay = time - now
        if not delay < math.inf:
            raise SimulationError(
                f"delay must be finite and non-negative ({delay=})"
            )
        # Keyed at ``now + (time - now)``, not at ``time``: the two can
        # round differently, and sim-time outputs depend on the rounding
        # this engine has always used.
        time = now + delay
        seq = next(self._seq)
        event = ScheduledEvent(time, seq, callback, args)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        processed = self._processed
        self.run(max_events=1)
        return self._processed != processed

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at an absolute time (events beyond it stay
        queued and ``now`` is advanced to ``until``); ``max_events`` bounds
        the number of executed callbacks (a runaway guard for tests).

        This loop is the one dispatch path (:meth:`step` runs one event
        through it): it pops and calls each event inline, so an event
        costs a heap pop and a call, not a method call per event.
        """
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        # ``executed`` counts up from 0 and never reaches -1
        limit = -1 if max_events is None else max(max_events, 0)
        executed = 0
        while queue:
            if executed == limit:
                return
            time, _, event = queue[0]
            if event.cancelled:
                heappop(queue)
                continue
            if time > horizon:
                break
            heappop(queue)
            self._now = time
            self._processed += 1
            event.callback(*event.args)
            executed += 1
        if until is not None:
            self._now = max(self._now, until)
