"""Discrete-event simulation substrate."""

from repro.sim.engine import IdAllocator, ScheduledEvent, Simulator
from repro.sim.rng import ZipfSampler, make_numpy_rng, make_rng

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "IdAllocator",
    "make_rng",
    "make_numpy_rng",
    "ZipfSampler",
]
