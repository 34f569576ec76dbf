"""Flight sampling stamps checked against the memo they replaced.

The sampling decision is now drawn once per packet, when
``Network.packet`` mints it, and stamped on ``Packet.flight``.  The
reference below is the previous ``FlightRecorder.wants``, kept verbatim
(apart from being lifted out of its class, with the deleted
``DECISION_CAPACITY_FACTOR`` of 4 written in) as the oracle.  Devices
asked it at every hop; every minted packet reached its first device in
the call that minted it, so the memo drew in mint order.

On drawn line and ring deployments and drawn publish sequences small
enough that the memo never evicted an id, the stamp of every minted
packet must equal ``ref.wants(packet_id)`` in mint order, the sampling
stats must be equal, and exactly the sampled packets leave hop records.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line, ring
from repro.obs.flight import FlightStats

DECISION_CAPACITY_FACTOR = 4


class RefRecorder:
    """The fields the replaced ``wants`` read and wrote."""

    def __init__(self, sample_every: int, capacity: int, seed: int) -> None:
        self.sample_every = sample_every
        self._rng = random.Random(seed)
        self._decisions: OrderedDict[int, bool] = OrderedDict()
        self._decision_capacity = DECISION_CAPACITY_FACTOR * capacity
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


_RANGE = st.tuples(
    st.integers(min_value=0, max_value=1023),
    st.integers(min_value=0, max_value=1023),
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["line", "ring"]),
    switches=st.integers(min_value=3, max_value=5),
    sample_every=st.integers(min_value=1, max_value=4),
    capacity=st.integers(min_value=8, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    subscriptions=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), _RANGE),
        min_size=1,
        max_size=4,
    ),
    publishes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.floats(min_value=0.0, max_value=1023.0),
        ),
        max_size=30,
    ),
)
def test_stamps_match_oracle(
    shape, switches, sample_every, capacity, seed, subscriptions, publishes
):
    topology = line(switches) if shape == "line" else ring(switches)
    hosts = topology.hosts()
    middleware = Pleroma(topology, dimensions=1, max_dz_length=10)
    recorder = middleware.enable_flight_recorder(
        sample_every=sample_every, capacity=capacity, seed=seed
    )
    network = middleware.network
    minted = []
    mint = network.packet

    def logging_mint(dst_address, payload, size_bytes):
        packet = mint(dst_address, payload, size_bytes)
        minted.append(packet)
        return packet

    network.packet = logging_mint
    publishers = sorted({hosts[h % len(hosts)] for h, _ in publishes})
    for host in publishers:
        middleware.advertise(host, Advertisement.of(attr0=(0, 1023)))
    for h, (low, high) in subscriptions:
        middleware.subscribe(
            hosts[h % len(hosts)], Subscription.of(attr0=(low, high))
        )
    for i, (h, value) in enumerate(publishes):
        middleware.sim.schedule(
            i * 1e-4,
            middleware.publish,
            hosts[h % len(hosts)],
            Event.of(attr0=value),
        )
    middleware.run()

    assert len(minted) == len(publishes)
    # the memo never evicted, so its decisions are one per packet
    assert len(minted) <= DECISION_CAPACITY_FACTOR * capacity
    ref = RefRecorder(sample_every, capacity, seed)
    assert [p.flight is recorder for p in minted] == [
        ref.wants(p.packet_id) for p in minted
    ]
    assert all(p.flight in (recorder, None) for p in minted)
    stats = recorder.stats
    assert FlightStats(stats.packets_seen, stats.packets_sampled) == ref.stats
    sampled = {p.packet_id for p in minted if p.flight is not None}
    recorded = {r.packet_id for r in recorder}
    assert recorded <= sampled
    if stats.records_evicted == 0:
        sent = {r.packet_id for r in recorder if r.point == "host_send"}
        assert sent == recorded == sampled
