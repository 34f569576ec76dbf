"""Indexed delivery classification checked against the full scan.

``Pleroma``'s delivery handler decides whether an arriving event matches
any of the host's subscriptions by probing a per-host index of the
subscriptions' ``DzSet`` members with the prefixes of the event's dz, and
runs ``Subscription.matches`` only on those candidates.  The reference is
the replaced handler's one line, ``any(s.matches(event) for s in
subs.values())`` over the host's subscriptions at delivery time.

Drawn programs publish, drain part of the way (so packets are in
flight, or waiting in a host's ingest queue), subscribe, unsubscribe with
events still in flight, and
re-index the partition with events stamped under the old indexing still
travelling.  Deployments are single-partition or federated
(``partitions=2``), with small ``max_cells`` budgets (coarse regions and
many false positives) and a continuous attribute whose closed upper
bounds fall on a region's open edge.  Every delivery's ``matched`` must
equal the full scan's.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.events import Attribute, Event, EventSpace
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.middleware import pleroma as pleroma_module
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree


def _space(continuous: bool) -> EventSpace:
    return EventSpace(
        (
            Attribute("attr0", 0.0, 1024.0, grain=0.0 if continuous else 1.0),
            Attribute("attr1", 0.0, 1024.0, grain=1.0),
        )
    )


_value = st.integers(min_value=0, max_value=1023)
_box = st.tuples(_value, _value, _value, _value).map(
    lambda b: {
        "attr0": (min(b[0], b[1]), max(b[0], b[1])),
        "attr1": (min(b[2], b[3]), max(b[2], b[3])),
    }
)
_ops = st.one_of(
    st.tuples(st.just("publish"), _value, _value, st.integers(0, 7)),
    st.tuples(st.just("publish_on_bound"), st.integers(0, 50)),
    st.tuples(st.just("subscribe"), _box, st.integers(0, 7)),
    st.tuples(st.just("unsubscribe"), st.integers(0, 50)),
    st.tuples(
        st.just("run"), st.sampled_from([0.0, 2e-5, 1e-4, 3e-4, 1e-3])
    ),
    st.tuples(st.just("arrive"), st.integers(0, 7)),
    st.tuples(
        st.just("reindex"),
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=2, max_value=64),
    ),
)


class _Checked:
    """A deployment whose every delivery is re-classified by the full
    scan at the moment it is recorded."""

    def __init__(self, partitions, max_dz_length, max_cells, continuous):
        self.space = _space(continuous)
        self.middleware = Pleroma(
            paper_fat_tree(),
            space=self.space,
            max_dz_length=max_dz_length,
            max_cells=max_cells,
            partitions=partitions,
        )
        self.hosts = self.middleware.topology.hosts()
        self.live: list[tuple[str, int, Subscription]] = []
        self.deliveries = 0
        self.mismatches: list[tuple] = []
        record = self.middleware.metrics.on_delivery

        def checked(rec):
            subs = self.middleware._host_subs.get(rec.host, {})
            want = any(s.matches(rec.event) for s in subs.values())
            self.deliveries += 1
            if rec.matched != want:
                self.mismatches.append((rec.host, rec.event, rec.matched))
            record(rec)

        self.middleware.metrics.on_delivery = checked
        # publishers at both ends of the fabric (both partitions when
        # federated), covering the whole space
        for host in (self.hosts[0], self.hosts[-1]):
            self.middleware.advertise(host, Advertisement.of())

    def apply(self, op) -> None:
        middleware = self.middleware
        kind = op[0]
        if kind == "publish":
            event = Event.of(attr0=op[1], attr1=op[2])
            middleware.publish(self.hosts[op[3] % 2 * -1], event)
        elif kind == "publish_on_bound":
            # an event on a live subscription's upper corner
            if self.live:
                sub = self.live[op[1] % len(self.live)][2]
                bounds = sub.filter.predicates
                event = Event.of(
                    attr0=bounds["attr0"].high, attr1=bounds["attr1"].high
                )
                middleware.publish(self.hosts[0], event)
        elif kind == "subscribe":
            host = self.hosts[1 + op[2] % (len(self.hosts) - 1)]
            sub = Subscription.of(**op[1])
            state = middleware.subscribe(host, sub)
            self.live.append((host, state.sub_id, sub))
        elif kind == "unsubscribe":
            if self.live:
                host, sub_id, _ = self.live.pop(op[1] % len(self.live))
                middleware.unsubscribe(host, sub_id)
        elif kind == "run":
            middleware.run(until=middleware.now + op[1])
        elif kind == "arrive":
            # step until a packet reaches a subscriber host's ingest queue
            host = middleware.network.hosts[
                self.hosts[1 + op[1] % (len(self.hosts) - 1)]
            ]
            arrived = host.packets_arrived
            while host.packets_arrived == arrived and middleware.sim.step():
                pass
        elif kind == "reindex":
            if len(middleware.controllers) == 1:
                middleware.controllers[0].reindex(
                    SpatialIndexer(
                        self.space, max_dz_length=op[1], max_cells=op[2]
                    )
                )


def _run_program(partitions, max_dz_length, max_cells, continuous, program):
    checked = _Checked(partitions, max_dz_length, max_cells, continuous)
    for op in program:
        checked.apply(op)
    checked.middleware.run()
    assert checked.mismatches == []
    return checked


_stream = [("subscribe", {"attr0": (100, 700), "attr1": (0, 1023)}, 2)] + [
    op
    for v in range(0, 1024, 64)
    for op in (("publish", v, 1023 - v, 0), ("run", 2e-5))
]
#: publish, deliver (the index is built), publish again and stop with the
#: last event in flight
_warm = [
    ("subscribe", {"attr0": (100, 300), "attr1": (0, 1023)}, 2),
    ("publish", 200, 5, 0),
    ("run", 1e-3),
    ("publish", 250, 9, 0),
]


@settings(max_examples=60, deadline=None)
@given(
    partitions=st.sampled_from([1, 1, 2]),
    max_dz_length=st.integers(min_value=3, max_value=10),
    max_cells=st.sampled_from([1, 2, 4, 16, 64]),
    continuous=st.booleans(),
    program=st.lists(_ops, max_size=40),
)
# a re-index while the stream is in flight
@example(
    partitions=1, max_dz_length=8, max_cells=16, continuous=False,
    program=_stream[:12] + [("reindex", 4, 4)] + _stream[12:],
)
# an unsubscribe between publish and delivery, after the index was built:
# the event waits in the host's ingest queue
@example(
    partitions=1, max_dz_length=8, max_cells=16, continuous=False,
    program=_warm + [("arrive", 2), ("unsubscribe", 0), ("run", 1e-3)],
)
# a second subscription on the host after the index was built
@example(
    partitions=2, max_dz_length=8, max_cells=16, continuous=False,
    program=_warm + [
        ("subscribe", {"attr0": (600, 900), "attr1": (0, 1023)}, 2),
        ("publish", 700, 5, 0),
        ("run", 1e-3),
    ],
)
# federated, coarse regions: an event on one subscription's continuous
# closed upper bound, delivered through another's coarse region that
# does not match it
@example(
    partitions=2, max_dz_length=6, max_cells=4, continuous=True,
    program=[
        ("subscribe", {"attr0": (0, 512), "attr1": (0, 1023)}, 2),
        ("subscribe", {"attr0": (520, 600), "attr1": (0, 1023)}, 2),
        ("publish", 512, 7, 0),
        ("run", 1e-3),
    ],
)
def test_indexed_classification_matches_full_scan(
    partitions, max_dz_length, max_cells, continuous, program
):
    _run_program(partitions, max_dz_length, max_cells, continuous, program)


def test_the_index_classifies_the_stream():
    """The examples above really exercise the index: deliveries happen,
    and all but the events stamped before the re-index go through
    :meth:`_DeliveryIndex.matched`."""
    calls = []
    matched = pleroma_module._DeliveryIndex.matched

    def counted(self, event, bits):
        calls.append(bits)
        return matched(self, event, bits)

    pleroma_module._DeliveryIndex.matched = counted
    try:
        plain = _run_program(1, 8, 16, False, _stream)
        assert plain.deliveries > 0 and len(calls) == plain.deliveries
        calls.clear()
        reindexed = _run_program(
            1, 8, 16, False, _stream[:12] + [("reindex", 4, 4)] + _stream[12:]
        )
        assert 0 < len(calls) < reindexed.deliveries
    finally:
        pleroma_module._DeliveryIndex.matched = matched


# ----------------------------------------------------------------------
# the guarantee the index rests on
# ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    continuous=st.booleans(),
    box=_box,
    max_dz_length=st.integers(min_value=1, max_value=12),
    max_cells=st.integers(min_value=1, max_value=64),
    values=st.lists(st.tuples(_value, _value), min_size=1, max_size=20),
)
def test_enclosing_regions_hold_every_match(
    continuous, box, max_dz_length, max_cells, values
):
    """Where ``encloses_matches`` says so, every event the filter matches
    (bounds included) has its maximal dz inside the filter's region."""
    indexer = SpatialIndexer(
        _space(continuous), max_dz_length=max_dz_length, max_cells=max_cells
    )
    filt = Filter.of(**box)
    region = indexer.filter_to_dzset(filt)
    events = [Event.of(attr0=a, attr1=b) for a, b in values]
    events.append(Event.of(attr0=box["attr0"][1], attr1=box["attr1"][1]))
    if not continuous:
        assert indexer.encloses_matches(filt)
    if indexer.encloses_matches(filt):
        for event in events:
            if filt.matches(event):
                assert region.covers_dz(indexer.event_to_dz(event))


def test_a_continuous_upper_bound_is_not_enclosed():
    """On a grain-0 attribute an event on the closed upper bound lies on
    the region's open edge: the region misses it, and the check says so."""
    indexer = SpatialIndexer(_space(True), max_dz_length=8)
    filt = Filter.of(attr0=(0, 512), attr1=(0, 1023))
    event = Event.of(attr0=512, attr1=0)
    assert filt.matches(event)
    assert not indexer.filter_to_dzset(filt).covers_dz(
        indexer.event_to_dz(event)
    )
    assert not indexer.encloses_matches(filt)
    # bounded at the domain's top, the same attribute is enclosed
    assert indexer.encloses_matches(Filter.of(attr0=(0, 1024)))
