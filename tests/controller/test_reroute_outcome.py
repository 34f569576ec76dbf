"""The reroute primitive's typed outcome (and its bool-compat shim).

``reroute_tree_around_edge`` historically returned a bare bool; callers
like the overload manager branch on truthiness.  It now returns a
:class:`RerouteOutcome` that says *why* nothing happened, while staying
truthy exactly when a reroute was deployed.
"""

from repro.controller.controller import RerouteOutcome
from repro.core.subscription import Advertisement, Filter
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line, paper_fat_tree

FULL = (0, 1023)


class TestOutcomeValues:
    def test_rerouted_on_redundant_edge(self):
        middleware = Pleroma(paper_fat_tree(), dimensions=1)
        controller = middleware.controllers[0]
        middleware.advertise("h1", Advertisement(filter=Filter.of(attr0=FULL)))
        tree = next(iter(controller.trees))
        child, parent = next(iter(tree.parents.items()))
        outcome = controller.reroute_tree_around_edge(
            tree.tree_id, child, parent
        )
        assert outcome is RerouteOutcome.REROUTED
        assert not tree.uses_edge(child, parent)

    def test_tree_not_on_edge(self):
        middleware = Pleroma(paper_fat_tree(), dimensions=1)
        controller = middleware.controllers[0]
        middleware.advertise("h1", Advertisement(filter=Filter.of(attr0=FULL)))
        tree = next(iter(controller.trees))
        unused = next(
            (spec.a, spec.b)
            for spec in middleware.topology.links()
            if middleware.topology.is_switch(spec.a)
            and middleware.topology.is_switch(spec.b)
            and not tree.uses_edge(spec.a, spec.b)
        )
        outcome = controller.reroute_tree_around_edge(tree.tree_id, *unused)
        assert outcome is RerouteOutcome.TREE_NOT_ON_EDGE

    def test_edge_is_bridge(self):
        middleware = Pleroma(line(3), dimensions=1)
        controller = middleware.controllers[0]
        middleware.advertise("h1", Advertisement(filter=Filter.of(attr0=FULL)))
        tree = next(iter(controller.trees))
        outcome = controller.reroute_tree_around_edge(tree.tree_id, "R1", "R2")
        assert outcome is RerouteOutcome.EDGE_IS_BRIDGE
        assert tree.uses_edge("R1", "R2")  # untouched


class TestBoolCompatibility:
    def test_only_rerouted_is_truthy(self):
        assert bool(RerouteOutcome.REROUTED)
        assert not bool(RerouteOutcome.TREE_NOT_ON_EDGE)
        assert not bool(RerouteOutcome.EDGE_IS_BRIDGE)


class TestConfiguredBuilder:
    def test_mst_reroute_is_the_mst_without_the_edge(self):
        """The reroute plans with the controller's tree builder, not a
        hard-coded shortest-path tree, and delivery survives it."""
        from repro.controller.tree_builders import minimum_spanning_tree
        from repro.core.events import Event
        from repro.core.subscription import Subscription
        from tests.helpers import make_system

        system = make_system(paper_fat_tree(), tree_builder="mst")
        controller = system.controller
        controller.advertise("h1", Advertisement.of(attr0=FULL))
        controller.subscribe("h8", Subscription.of(attr0=FULL))
        tree = next(iter(controller.trees))
        child, parent = next(iter(tree.parents.items()))
        outcome = controller.reroute_tree_around_edge(
            tree.tree_id, child, parent
        )
        assert outcome is RerouteOutcome.REROUTED
        without = paper_fat_tree()
        without.remove_link(child, parent)
        assert tree.parents == minimum_spanning_tree(
            without, controller.partition, tree.root
        )
        # the planning view got the edge back, with its original spec
        assert controller.topology.link_between(
            child, parent
        ) == paper_fat_tree().link_between(child, parent)
        system.publish("h1", Event.of(attr0=100))
        system.run()
        assert len(system.delivered_events("h8")) == 1
