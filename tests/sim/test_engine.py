"""Unit tests for the discrete-event engine."""

import pytest

from repro.exceptions import SimulationError
from repro.sim.engine import Simulator


class TestScheduling:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_executes_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_delay_rejected(self, delay):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(delay, lambda: None)
        assert sim.pending_events == 0

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_non_finite_absolute_time_rejected(self, time):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(time, lambda: None)
        assert sim.pending_events == 0

    def test_zero_delay_accepted(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "now")
        sim.run()
        assert fired == ["now"] and sim.now == 0.0

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1


class TestRunControls:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(10.0, fired.append, "late")
        sim.run(until=5.0)
        assert fired == ["early"]
        assert sim.now == 5.0
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        sim.run(max_events=50)
        assert sim.processed_events == 50

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 5
