"""Tests for the periodic sampler: termination, the poke rule, stop."""

import pytest

from repro.obs.samplers import PeriodicSampler
from repro.sim.engine import Simulator


def noise(sim, count=5, spacing=1e-3):
    """Schedule ``count`` unrelated simulator events."""
    for i in range(count):
        sim.schedule_at(sim.now + i * spacing, lambda: None)


@pytest.fixture
def rig():
    sim = Simulator()
    seen: list[float] = []
    sampler = PeriodicSampler(sim, 1e-3, seen.append)
    return sim, sampler, seen


class TestPeriodicSampler:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicSampler(Simulator(), 0.0, lambda now: None)

    def test_never_poked_ticks_once_then_pauses(self, rig):
        sim, sampler, seen = rig
        sampler.start()
        noise(sim, count=20)  # other events do not keep it alive
        sim.run()
        assert sampler.ticks == 1
        assert seen == [1e-3]
        assert not sampler.running

    def test_pauses_when_quiet_so_run_terminates(self, rig):
        sim, sampler, _ = rig
        sampler.start()
        for i in range(5):
            sim.schedule_at(i * 1e-3, sampler.poke)
        sim.run()  # must terminate despite the self-rescheduling sampler
        assert sampler.ticks >= 2
        assert not sampler.running

    def test_poke_rearms_after_quiet_period(self, rig):
        sim, sampler, seen = rig
        sampler.start()
        sim.run()
        ticks_before = sampler.ticks
        sampler.poke()
        assert sampler.running
        sim.run()
        assert sampler.ticks == ticks_before + 1
        assert seen[-1] == sim.now

    def test_stop_prevents_further_ticks(self, rig):
        sim, sampler, _ = rig
        sampler.start()
        sampler.stop()
        noise(sim, count=3)
        sim.run()
        assert sampler.ticks == 0
        sampler.poke()  # a stopped sampler ignores pokes
        assert not sampler.running
