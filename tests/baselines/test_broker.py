"""Unit tests for the broker-tree and flooding baselines."""

import pytest

from repro.baselines.broker import FloodingOverlay, SingleTreeBrokerOverlay
from repro.core.events import Event
from repro.core.subscription import Subscription
from repro.exceptions import TopologyError
from repro.network.topology import line, paper_fat_tree
from repro.sim.engine import Simulator


def overlay(topology=None, cls=SingleTreeBrokerOverlay, **kwargs):
    return cls(Simulator(), topology or line(4), **kwargs)


class TestSingleTreeBroker:
    def test_delivery_to_matching_subscriber(self):
        b = overlay()
        b.subscribe("h4", Subscription.of(attr0=(0, 500)))
        b.publish("h1", Event.of(attr0=100))
        assert len(b.deliveries) == 1
        assert b.deliveries[0].host == "h4"
        assert b.deliveries[0].delay > 0

    def test_no_delivery_when_not_matching(self):
        b = overlay()
        b.subscribe("h4", Subscription.of(attr0=(0, 500)))
        b.publish("h1", Event.of(attr0=900))
        assert b.deliveries == []

    def test_numbers_unnumbered_subscriptions(self):
        b = overlay()
        first, second = Subscription.of(attr0=(0, 500)), Subscription.of()
        assert b.subscribe("h4", first) == 1
        assert b.subscribe("h3", second) == 2
        assert (first.sub_id, second.sub_id) == (1, 2)
        b.unsubscribe(first.sub_id)
        assert sorted(b.subscriptions) == [2]

    def test_no_self_delivery(self):
        b = overlay()
        b.subscribe("h1", Subscription.of(attr0=(0, 1023)))
        b.publish("h1", Event.of(attr0=5))
        assert b.deliveries == []

    def test_zero_false_positives(self):
        """Brokers match full predicates in software: perfect filtering."""
        b = overlay()
        sub = Subscription.of(attr0=(0, 100))
        b.subscribe("h4", sub)
        for value in (50, 150, 99, 101):
            b.publish("h1", Event.of(attr0=value))
        assert all(sub.matches(d.event) for d in b.deliveries)
        assert len(b.deliveries) == 2

    def test_delay_grows_with_filter_count(self):
        few = overlay()
        few.subscribe("h4", Subscription.of(attr0=(0, 1023)))
        few.publish("h1", Event.of(attr0=5))

        many = overlay()
        many.subscribe("h4", Subscription.of(attr0=(0, 1023)))
        for i in range(5000):
            many.subscribe("h3", Subscription.of(attr0=(1000, 1001)))
        many.publish("h1", Event.of(attr0=5))
        assert many.deliveries[0].delay > few.deliveries[0].delay

    def test_link_counting_restricted_to_needed_subtrees(self):
        b = overlay(line(4))
        b.subscribe("h2", Subscription.of(attr0=(0, 1023)))
        b.publish("h1", Event.of(attr0=5))
        # the event travels R1->R2 only; R2->R3 and R3->R4 stay idle
        assert b.link_packets.get(frozenset(("R1", "R2"))) == 1
        assert frozenset(("R2", "R3")) not in b.link_packets

    def test_unsubscribe(self):
        b = overlay()
        sub_id = b.subscribe("h4", Subscription.of(attr0=(0, 1023)))
        b.unsubscribe(sub_id)
        b.publish("h1", Event.of(attr0=5))
        assert b.deliveries == []

    def test_unknown_host_rejected(self):
        b = overlay()
        with pytest.raises(TopologyError):
            b.subscribe("h99", Subscription.of(attr0=(0, 1)))
        with pytest.raises(TopologyError):
            b.publish("h99", Event.of(attr0=1))

    def test_unknown_root_rejected(self):
        with pytest.raises(TopologyError):
            overlay(root="R99")

    def test_mean_delay_requires_deliveries(self):
        with pytest.raises(ValueError):
            overlay().mean_delay()

    def test_load_concentrates_on_tree_core(self):
        """The single tree funnels cross-pod traffic through its root —
        the imbalance PLEROMA's multi-tree design avoids (Sec. 3.1)."""
        b = overlay(paper_fat_tree())
        for host in ("h3", "h5", "h7"):
            b.subscribe(host, Subscription.of(attr0=(0, 1023)))
        for _ in range(10):
            b.publish("h1", Event.of(attr0=5))
        loads = b.link_load_distribution()
        assert loads[0] >= 10  # hottest edge carried every event


class TestFlooding:
    def test_everyone_receives(self):
        b = overlay(cls=FloodingOverlay)
        b.publish("h1", Event.of(attr0=5))
        assert b.hosts_reached() == {"h2", "h3", "h4"}

    def test_flooding_ignores_subscriptions(self):
        b = overlay(cls=FloodingOverlay)
        b.subscribe("h4", Subscription.of(attr0=(900, 901)))
        b.publish("h1", Event.of(attr0=5))
        assert "h2" in b.hosts_reached()

    def test_flooding_uses_more_bandwidth_than_filtering(self):
        filtered = overlay()
        filtered.subscribe("h2", Subscription.of(attr0=(0, 100)))
        flooding = overlay(cls=FloodingOverlay)
        flooding.subscribe("h2", Subscription.of(attr0=(0, 100)))
        for value in (50, 500, 900):
            filtered.publish("h1", Event.of(attr0=value))
            flooding.publish("h1", Event.of(attr0=value))
        assert (
            flooding.total_link_packets() > filtered.total_link_packets()
        )
