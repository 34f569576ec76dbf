"""Integration tests for the PLEROMA controller (Algorithm 1 end to end)."""

import pytest

from repro.controller.requests import (
    AdvertiseRequest,
    SubscribeRequest,
    UnsubscribeRequest,
)
from repro.core.addressing import PUBSUB_CONTROL_ADDRESS
from repro.core.dz import Dz
from repro.core.dzset import DzSet
from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import ControllerError
from repro.network.packet import Packet
from repro.network.topology import line, paper_fat_tree, ring
from tests.helpers import make_system

# With a 1-dimensional paper schema over [0, 1024), value v maps to the
# half-space '0' if v < 512 and '1' otherwise; quarter-spaces '00', '01',
# '10', '11' cut at 256/512/768, etc.
LOW = (0, 255)       # dz 00
MID = (512, 767)     # dz 10
FULL = (0, 1023)     # whole space


class TestAdvertise:
    def test_creates_tree_rooted_at_access_switch(self):
        system = make_system(line(4))
        state = system.controller.advertise("h1", Advertisement.of(attr0=MID))
        assert len(system.controller.trees) == 1
        tree = next(iter(system.controller.trees))
        assert tree.root == "R1"
        assert tree.dz_set == DzSet.of("10")
        assert state.adv_id in tree.publishers

    def test_covered_advertisement_joins_existing_tree(self):
        """Alg. 1 action (1): adv DZ {11} joins a tree with DZ {1}."""
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=(512, 1023)))
        system.controller.advertise("h2", Advertisement.of(attr0=(768, 1023)))
        assert len(system.controller.trees) == 1
        tree = next(iter(system.controller.trees))
        assert len(tree.publishers) == 2

    def test_covering_advertisement_joins_and_creates(self):
        """Alg. 1 action (2): adv DZ {0} over tree {00} joins it and spawns
        a new tree for the uncovered {01}."""
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=LOW))
        system.controller.advertise("h2", Advertisement.of(attr0=(0, 511)))
        trees = sorted(
            system.controller.trees, key=lambda t: str(t.dz_set)
        )
        assert len(trees) == 2
        dz_sets = {str(t.dz_set) for t in trees}
        assert dz_sets == {"{00}", "{01}"}
        system.controller.check_invariants()

    def test_disjoint_advertisement_creates_tree(self):
        """Alg. 1 action (3)."""
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=LOW))
        system.controller.advertise("h2", Advertisement.of(attr0=MID))
        assert len(system.controller.trees) == 2
        system.controller.check_invariants()

    def test_duplicate_advertisement_rejected(self):
        system = make_system(line(4))
        adv = Advertisement.of(attr0=LOW)
        system.controller.advertise("h1", adv)
        with pytest.raises(ControllerError):
            system.controller.advertise("h1", adv)

    def test_unknown_host_rejected(self):
        system = make_system(line(4))
        with pytest.raises(ControllerError):
            system.controller.advertise("h99", Advertisement.of(attr0=LOW))


class TestEndToEndDelivery:
    def test_event_reaches_matching_subscriber(self):
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h4", Subscription.of(attr0=MID))
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h4")) == 1
        assert system.delivered_events("h4")[0].value("attr0") == 600

    def test_non_matching_event_not_delivered(self):
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h4", Subscription.of(attr0=MID))
        system.publish("h1", Event.of(attr0=100))  # dz 00..., not in {10}
        system.run()
        assert system.delivered_events("h4") == []

    def test_publisher_does_not_receive_own_event(self):
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h1", Subscription.of(attr0=FULL))
        system.controller.subscribe("h2", Subscription.of(attr0=FULL))
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h2")) == 1
        assert system.delivered_events("h1") == []

    def test_multiple_subscribers_shared_path(self):
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h3", Subscription.of(attr0=MID))
        system.controller.subscribe("h4", Subscription.of(attr0=MID))
        system.publish("h1", Event.of(attr0=700))
        system.run()
        assert len(system.delivered_events("h3")) == 1
        assert len(system.delivered_events("h4")) == 1
        # bandwidth efficiency: the shared R1->R2 segment carried it once
        assert system.net.link_between("R1", "R2").total_packets == 1

    def test_event_fans_out_on_fat_tree(self):
        system = make_system(paper_fat_tree())
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        for host in ("h3", "h5", "h8"):
            system.controller.subscribe(host, Subscription.of(attr0=FULL))
        system.publish("h1", Event.of(attr0=5))
        system.run()
        for host in ("h3", "h5", "h8"):
            assert len(system.delivered_events(host)) == 1

    def test_two_publishers_one_subscriber(self):
        system = make_system(line(3))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.advertise("h3", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h2", Subscription.of(attr0=FULL))
        system.publish("h1", Event.of(attr0=10))
        system.publish("h3", Event.of(attr0=900))
        system.run()
        assert len(system.delivered_events("h2")) == 2


class TestRouteAfterRestructure:
    """A subscribe builds its routes afresh: after the tree is restructured,
    the next subscribe from the same host routes on the new structure."""

    def test_second_subscribe_routes_on_new_structure(self):
        from repro.analysis.verify import verify_controller

        system = make_system(ring(6))
        controller = system.controller
        controller.advertise("h1", Advertisement.of(attr0=FULL))
        controller.subscribe("h4", Subscription.of(attr0=LOW))
        (tree,) = controller.trees
        pub = controller.endpoint_for_host("h1").switch
        sub = controller.endpoint_for_host("h4").switch
        before = tree.path_between(pub, sub)
        for root in sorted(controller.partition):
            parents = controller.trees.tree_builder(
                controller.topology, controller.partition, root
            )
            controller.restructure_tree(tree, root, parents)
            if tree.path_between(pub, sub) != before:
                break
        after = tree.path_between(pub, sub)
        assert after != before

        state = controller.subscribe("h4", Subscription.of(attr0=MID))
        keys = controller.ledger.keys_for(sub_id=state.sub_id)
        assert keys
        for key in keys:
            hops = controller.ledger._by_key[key]
            assert [switch for switch, _, _ in hops] == after
        assert controller._routes is None  # no route outlives its request
        assert verify_controller(controller).ok
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h4")) == 1

    def test_trie_pruned_once_per_request(self):
        """A restructure inside a request re-installs the paths whose route
        moved on the very trie nodes it emptied; what a request leaves
        empty is pruned at its end."""
        system = make_system(ring(6))
        controller = system.controller
        controller.advertise("h1", Advertisement.of(attr0=FULL))
        controller.subscribe("h4", Subscription.of(attr0=LOW))
        leaving = controller.subscribe("h3", Subscription.of(attr0=MID))
        (tree,) = controller.trees
        # every route starts on the publisher's switch
        trie = controller.ledger.trie(controller.endpoint_for_host("h1").switch)
        held = dict(trie._held)
        assert held
        routes = controller.ledger.routes(tree.tree_id)
        for root in sorted(controller.partition):
            parents = controller.trees.tree_builder(
                controller.topology, controller.partition, root
            )
            with controller._request("restructure"):
                controller.restructure_tree(tree, root, parents)
            if controller.ledger.routes(tree.tree_id) != routes:
                break
        assert controller.ledger.routes(tree.tree_id) != routes
        assert trie._held.keys() == held.keys()
        assert all(trie._held[bits] is node for bits, node in held.items())

        controller.unsubscribe(leaving.sub_id)
        for name in sorted(controller.partition):
            stack = [controller.ledger.trie(name)._root]
            while stack:
                node = stack.pop()
                for child in node.children.values():
                    assert trie_subtree_holds(child), name
                    stack.append(child)


def trie_subtree_holds(node) -> bool:
    return bool(node.counts) or any(
        trie_subtree_holds(child) for child in node.children.values()
    )


class TestPendingSubscriptions:
    def test_subscription_without_tree_is_stored(self):
        system = make_system(line(4))
        system.controller.subscribe("h4", Subscription.of(attr0=MID))
        assert len(system.controller.trees) == 0
        assert len(system.controller.subscriptions) == 1
        assert system.controller.total_flow_mods == 0

    def test_stored_subscription_activated_by_advertisement(self):
        """Alg. 1 lines 9/15: stored subscriptions are re-checked when a
        tree is created."""
        system = make_system(line(4))
        system.controller.subscribe("h4", Subscription.of(attr0=MID))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h4")) == 1


class TestFig4Scenario:
    """The paper's flow-maintenance walk-through on a line topology.

    h1 (publisher, adv {1}) - R1 - R2 - R3 - h3 and h4 beyond:
    s2 = h4 with DZ {100}; s3 = h3 with DZ {10}.
    """

    def _setup(self):
        system = make_system(line(4), max_dz_length=6)
        system.controller.advertise("h1", Advertisement.of(attr0=(512, 1023)))
        system.controller.subscribe(
            "h4", Subscription.of(attr0=(512, 639))
        )  # dz 100
        return system

    def test_initial_flows_use_fine_dz(self):
        system = self._setup()
        for switch in ("R1", "R2", "R3"):
            table = system.net.switches[switch].table
            assert table.get_dz(Dz("100")) is not None

    def test_new_coarser_subscription_upgrades_flows(self):
        system = self._setup()
        system.controller.subscribe(
            "h3", Subscription.of(attr0=(512, 767))
        )  # dz 10
        # R1, R2: only the coarser flow remains (case 3 replacement)
        for switch in ("R1", "R2"):
            table = system.net.switches[switch].table
            assert table.get_dz(Dz("10")) is not None
            assert table.get_dz(Dz("100")) is None
        # R3 keeps both: fine flow 100 forwards on to R4 *and* delivers to
        # h3; coarse flow 10 only delivers to h3 (case 5)
        table = system.net.switches["R3"].table
        fine, coarse = table.get_dz(Dz("100")), table.get_dz(Dz("10"))
        assert fine is not None and coarse is not None
        assert coarse.actions < fine.actions
        assert fine.priority > coarse.priority

    def test_events_delivered_correctly_after_upgrade(self):
        system = self._setup()
        system.controller.subscribe("h3", Subscription.of(attr0=(512, 767)))
        system.publish("h1", Event.of(attr0=600))  # dz 100...: both match
        system.publish("h1", Event.of(attr0=700))  # dz 101...: only s3
        system.run()
        assert len(system.delivered_events("h3")) == 2
        assert len(system.delivered_events("h4")) == 1

    def test_unsubscription_downgrades_flows(self):
        """Sec. 3.3.3: when s3 leaves, flows downgrade from 10 back to 100
        and the delivery leg disappears."""
        system = self._setup()
        sub = system.controller.subscribe(
            "h3", Subscription.of(attr0=(512, 767))
        )
        system.controller.unsubscribe(sub.sub_id)
        for switch in ("R1", "R2", "R3"):
            table = system.net.switches[switch].table
            assert table.get_dz(Dz("100")) is not None
            assert table.get_dz(Dz("10")) is None
        # and s2 still receives its events
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h4")) == 1
        assert system.delivered_events("h3") == []


class TestUnadvertise:
    def test_unadvertise_cleans_everything(self):
        system = make_system(line(4))
        state = system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h4", Subscription.of(attr0=FULL))
        system.controller.unadvertise(state.adv_id)
        assert len(system.controller.trees) == 0
        for switch in system.net.switches.values():
            assert len(switch.table) == 0
        # events are now dropped at the access switch
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert system.delivered_events("h4") == []

    def test_tree_survives_if_other_publisher_remains(self):
        system = make_system(line(4))
        a1 = system.controller.advertise("h1", Advertisement.of(attr0=MID))
        system.controller.advertise("h2", Advertisement.of(attr0=MID))
        system.controller.unadvertise(a1.adv_id)
        assert len(system.controller.trees) == 1

    def test_unknown_ids_rejected(self):
        system = make_system(line(4))
        with pytest.raises(ControllerError):
            system.controller.unsubscribe(424242)
        with pytest.raises(ControllerError):
            system.controller.unadvertise(424242)


class TestControlChannel:
    def test_requests_via_pubsub_address(self):
        """Hosts reach the controller by addressing IP_pub/sub; switches
        divert those packets to the control plane (Sec. 2)."""
        system = make_system(line(4))
        h1, h4 = system.net.hosts["h1"], system.net.hosts["h4"]
        h1.send(
            Packet(
                dst_address=PUBSUB_CONTROL_ADDRESS,
                payload=AdvertiseRequest("h1", Advertisement.of(attr0=FULL)),
            )
        )
        h4.send(
            Packet(
                dst_address=PUBSUB_CONTROL_ADDRESS,
                payload=SubscribeRequest("h4", Subscription.of(attr0=MID)),
            )
        )
        system.run()
        assert len(system.controller.advertisements) == 1
        assert len(system.controller.subscriptions) == 1
        system.publish("h1", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h4")) == 1

    def test_unsubscribe_via_packet(self):
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        sub = Subscription.of(attr0=MID)
        system.controller.subscribe("h4", sub)
        system.net.hosts["h4"].send(
            Packet(
                dst_address=PUBSUB_CONTROL_ADDRESS,
                payload=UnsubscribeRequest("h4", sub.sub_id),
            )
        )
        system.run()
        assert system.controller.subscriptions == {}


class TestStatsAndModes:
    def test_request_log_records_costs(self):
        system = make_system(line(4))
        system.controller.advertise("h1", Advertisement.of(attr0=FULL))
        system.controller.subscribe("h4", Subscription.of(attr0=MID))
        assert system.controller.requests_processed == 2
        sub_stats = system.controller.request_log[-1]
        assert sub_stats.kind == "subscribe"
        assert sub_stats.flow_mods > 0
        assert sub_stats.reconfiguration_delay_s > 0
        adv_stats = system.controller.request_log[0]
        assert adv_stats.trees_created == 1

    def test_incremental_mode_delivers_identically(self):
        results = {}
        for mode in ("reconcile", "incremental"):
            system = make_system(line(4), install_mode=mode)
            system.controller.advertise(
                "h1", Advertisement.of(attr0=FULL)
            )
            system.controller.subscribe("h4", Subscription.of(attr0=MID))
            system.controller.subscribe("h3", Subscription.of(attr0=LOW))
            for value in (5, 300, 600, 1000):
                system.publish("h1", Event.of(attr0=value))
            system.run()
            results[mode] = {
                host: len(system.delivered_events(host))
                for host in ("h2", "h3", "h4")
            }
        assert results["reconcile"] == results["incremental"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ControllerError):
            make_system(line(4), install_mode="bogus")


class TestTreeMerging:
    def test_merge_triggered_above_threshold(self):
        system = make_system(line(4), merge_threshold=2)
        # three disjoint advertisements from different hosts
        system.controller.advertise("h1", Advertisement.of(attr0=(0, 255)))
        system.controller.advertise("h2", Advertisement.of(attr0=(256, 511)))
        system.controller.advertise("h3", Advertisement.of(attr0=(512, 767)))
        assert len(system.controller.trees) <= 2
        system.controller.check_invariants()

    def test_delivery_still_works_after_merge(self):
        system = make_system(line(4), merge_threshold=2)
        system.controller.subscribe("h4", Subscription.of(attr0=(0, 1023)))
        system.controller.advertise("h1", Advertisement.of(attr0=(0, 255)))
        system.controller.advertise("h2", Advertisement.of(attr0=(256, 511)))
        system.controller.advertise("h3", Advertisement.of(attr0=(512, 767)))
        system.publish("h1", Event.of(attr0=100))
        system.publish("h2", Event.of(attr0=300))
        system.publish("h3", Event.of(attr0=600))
        system.run()
        assert len(system.delivered_events("h4")) == 3
