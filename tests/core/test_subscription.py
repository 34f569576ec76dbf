"""Unit tests for filters, subscriptions and advertisements."""

import pytest

from repro.core.events import Attribute, Event, EventSpace
from repro.core.subscription import (
    Advertisement,
    Filter,
    RangePredicate,
    Subscription,
)
from repro.exceptions import SchemaError
from repro.sim.engine import IdAllocator


class TestRangePredicate:
    def test_matches_closed_interval(self):
        p = RangePredicate(10, 20)
        assert p.matches(10)
        assert p.matches(20)
        assert not p.matches(9.999)
        assert not p.matches(20.001)

    def test_invalid(self):
        with pytest.raises(SchemaError):
            RangePredicate(5, 4)

    def test_point_range(self):
        assert RangePredicate(5, 5).matches(5)

    def test_overlaps(self):
        assert RangePredicate(0, 10).overlaps(RangePredicate(10, 20))
        assert not RangePredicate(0, 9).overlaps(RangePredicate(10, 20))

    def test_contains(self):
        assert RangePredicate(0, 10).contains(RangePredicate(2, 8))
        assert not RangePredicate(2, 8).contains(RangePredicate(0, 10))


class TestFilter:
    def test_matches_conjunction(self):
        f = Filter.of(a=(0, 10), b=(5, 5))
        assert f.matches(Event.of(a=10, b=5))
        assert not f.matches(Event.of(a=10, b=6))

    def test_unconstrained_attributes_ignored(self):
        f = Filter.of(a=(0, 10))
        assert f.matches(Event.of(a=1, b=9999))

    def test_matches_along(self):
        f = Filter.of(a=(0, 10))
        e = Event.of(a=50, b=1)
        assert not f.matches_along("a", e)
        assert f.matches_along("b", e)  # unconstrained dimension

    def test_overlaps(self):
        assert Filter.of(a=(0, 10)).overlaps(Filter.of(a=(10, 20)))
        assert not Filter.of(a=(0, 9)).overlaps(Filter.of(a=(10, 20)))
        # different attributes never conflict
        assert Filter.of(a=(0, 1)).overlaps(Filter.of(b=(5, 6)))

    def test_normalized_box_full_domain_for_unconstrained(self):
        space = EventSpace.of("a", "b")
        box = Filter.of(a=(0, 511)).normalized_box(space)
        assert box[1] == (0.0, 1.0)

    def test_normalized_box_clamps(self):
        space = EventSpace.of(Attribute("a", 0, 100))
        box = Filter.of(a=(-50, 500)).normalized_box(space)
        assert box[0] == (0.0, 1.0)

    def test_normalized_box_fig2_example(self):
        """Fig. 2: Adv = {A=[50,75], B=[0,100]} over [0,100)^2."""
        space = EventSpace.of(Attribute("A", 0, 100), Attribute("B", 0, 100))
        box = Filter.of(A=(50, 75), B=(0, 100)).normalized_box(space)
        (a_lo, a_hi), (b_lo, b_hi) = box
        assert (a_lo, b_lo, b_hi) == (0.5, 0.0, 1.0)
        assert a_hi == pytest.approx(0.75)


class TestIdentities:
    def test_subscription_ids_unique(self):
        """Requests are unnumbered until admitted; admission numbers them
        uniquely within one deployment and identically across two
        same-seed deployments."""
        from repro.middleware.pleroma import Pleroma
        from repro.network.topology import line

        def deploy() -> list[int | None]:
            middleware = Pleroma(line(2), dimensions=1, max_dz_length=4)
            adv = Advertisement.of(attr0=(0, 1023))
            s1, s2 = Subscription.of(attr0=(0, 9)), Subscription.of(attr0=(0, 9))
            assert (adv.adv_id, s1.sub_id, s2.sub_id) == (None, None, None)
            middleware.advertise("h1", adv)
            middleware.subscribe("h2", s1)
            middleware.subscribe("h2", s2)
            return [adv.adv_id, s1.sub_id, s2.sub_id]

        ids = deploy()
        assert ids == [1, 2, 3]
        assert deploy() == ids

    def test_number_keeps_a_client_chosen_id(self):
        ids = IdAllocator()
        assert Subscription.of(a=(0, 1)).number(ids) == 1
        assert Advertisement.of(a=(0, 1)).number(ids) == 2
        chosen = Subscription(filter=Filter.of(a=(0, 1)), sub_id=42)
        assert chosen.number(ids) == 42
        assert ids.next("request") == 3

    def test_subscription_matches(self):
        assert Subscription.of(a=(0, 10)).matches(Event.of(a=5))

    def test_advertisement_covers(self):
        assert Advertisement.of(a=(0, 10)).covers(Event.of(a=5))
        assert not Advertisement.of(a=(0, 10)).covers(Event.of(a=11))
