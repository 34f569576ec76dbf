"""The flight recorder's memoised sampling checked against its original.

``FlightRecorder.wants`` is bound to the subscript of a bounded FIFO memo
whose ``__missing__`` draws the decision.  The reference below is the
previous method, kept verbatim (apart from being lifted out of its class)
as the oracle: over any sequence of packet ids, including re-queries of
evicted ids, both give the same decisions, the same stats and the same
memo contents in the same order.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.flight import FlightRecorder, FlightStats


class RefRecorder:
    """The fields the replaced ``wants`` read and wrote."""

    def __init__(self, sample_every: int, capacity: int, seed: int) -> None:
        self.sample_every = sample_every
        self._rng = random.Random(seed)
        self._decisions: OrderedDict[int, bool] = OrderedDict()
        self._decision_capacity = (
            FlightRecorder.DECISION_CAPACITY_FACTOR * capacity
        )
        self.stats = FlightStats()

    def wants(self, packet_id: int) -> bool:
        """Should this packet's hops be recorded?  Memoised 1-in-N."""
        decision = self._decisions.get(packet_id)
        if decision is None:
            self.stats.packets_seen += 1
            if self.sample_every == 1:
                decision = True
            else:
                decision = self._rng.randrange(self.sample_every) == 0
            if decision:
                self.stats.packets_sampled += 1
            self._decisions[packet_id] = decision
            if len(self._decisions) > self._decision_capacity:
                self._decisions.popitem(last=False)
        return decision


@settings(max_examples=200, deadline=None)
@given(
    sample_every=st.integers(min_value=1, max_value=4),
    capacity=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
    ids=st.lists(st.integers(min_value=0, max_value=30), max_size=120),
)
def test_wants_matches_oracle(sample_every, capacity, seed, ids):
    new = FlightRecorder(
        clock=lambda: 0.0, sample_every=sample_every, capacity=capacity,
        seed=seed,
    )
    old = RefRecorder(sample_every, capacity, seed)
    assert [new.wants(p) for p in ids] == [old.wants(p) for p in ids]
    assert new.stats == old.stats
    assert list(new._decisions.items()) == list(old._decisions.items())
