"""The one pausable periodic task, driven by the simulator clock.

A :class:`PeriodicSampler` reschedules itself on the discrete-event engine
and calls its ``tick`` every ``period_s`` of *simulated* time.  To keep
``sim.run()`` terminating, it re-arms after a tick only if traffic poked
it (:meth:`~PeriodicSampler.poke`) since it was armed; a tick after a
quiet period runs once more and pauses, and the next poke re-arms it.
The ``Pleroma`` facade pokes on every publish.
:class:`repro.obs.telemetry.StatsPoller` — the in-band statistics poller
— is the sampler the middleware runs.

The module only duck-types the simulator to stay at the bottom of the
layer stack.
"""

from __future__ import annotations

from collections.abc import Callable

__all__ = ["PeriodicSampler"]


class PeriodicSampler:
    """Calls ``tick(now)`` every ``period_s`` of sim time; pauses when
    unpoked."""

    def __init__(
        self, sim, period_s: float, tick: Callable[[float], None]
    ) -> None:
        if period_s <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.period_s = period_s
        self.tick = tick
        self.ticks = 0
        self._handle = None
        self._started = False
        self._poked = False

    # ------------------------------------------------------------------
    def start(self) -> "PeriodicSampler":
        self._started = True
        if self._handle is None:
            self._arm()
        return self

    def stop(self) -> None:
        self._started = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def poke(self) -> None:
        """Note traffic; re-arms a sampler paused by a quiet period."""
        if not self._started:
            return
        if self._handle is None:
            self._arm()
        else:
            self._poked = True

    @property
    def running(self) -> bool:
        return self._handle is not None

    # ------------------------------------------------------------------
    def _arm(self) -> None:
        self._poked = False
        self._handle = self.sim.schedule(self.period_s, self._tick)

    def _tick(self) -> None:
        self._handle = None
        self.ticks += 1
        self.tick(self.sim.now)
        # Re-arm only when poked since arming: the tick's own work (poll
        # replies are simulator events too) must not keep the sampler
        # alive, so draining the event queue terminates.
        if self._poked:
            self._arm()
