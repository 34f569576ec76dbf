"""Failure repair and rerouting checked against the code they replaced.

``Pleroma.fail_link`` / ``fail_switch`` now run one pass of the owning
controller's :class:`~repro.resilience.orchestrator.RecoveryOrchestrator`,
and ``reroute_tree_around_edge`` plans with the configured tree builder
over the planning topology minus the edge.  Both re-deploy through
``PleromaController.restructure_tree``.  The references below are the
controller's former ``handle_link_failure`` / ``handle_switch_failure`` /
``_rebuild_trees`` and the reroute with its hand-rolled shortest-path
tree (and a copy of the topology's equal-cost tie-break it used), kept
verbatim apart from being lifted out of the class.

Two twin deployments get the same drawn clients; one takes the old path,
the other the new, and the per-switch flow tables, tree roots and
parents, ``total_flow_mods``, client counts and the request log's
``(kind, flow_mods)`` must all agree.  Each twin numbers requests and
trees from its own simulator, so trees are compared with their ids.
"""

from __future__ import annotations

import hashlib

import networkx as nx
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controller.controller import (
    PleromaController,
    RerouteOutcome,
)
from repro.controller.tree import SpanningTree
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.exceptions import ControllerError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree, ring

# ----------------------------------------------------------------------
# reference implementations (the replaced code)
# ----------------------------------------------------------------------


def ref_equal_cost_tie_break(root: str, node: str, parent: str) -> str:
    """Deterministic, root-dependent ordering of equal-cost parents."""
    return hashlib.md5(f"{root}|{node}|{parent}".encode()).hexdigest()


def ref_handle_link_failure(self: PleromaController, a: str, b: str) -> None:
    with self._request("link_failure"):
        if a not in self.partition or b not in self.partition:
            raise ControllerError(
                f"link {a!r}<->{b!r} is not internal to partition "
                f"{self.name!r}"
            )
        if frozenset((a, b)) in {
            frozenset((s.a, s.b)) for s in self.topology.links()
        }:
            self.topology.remove_link(a, b)
        ref_rebuild_trees(self, [t for t in self.trees if t.uses_edge(a, b)])


def ref_handle_switch_failure(self: PleromaController, name: str) -> None:
    with self._request("switch_failure"):
        if name not in self.partition:
            raise ControllerError(
                f"switch {name!r} is not in partition {self.name!r}"
            )
        for sub in [
            s for s in self.subscriptions.values()
            if s.endpoint.switch == name
        ]:
            self.unsubscribe(sub.sub_id)
        for adv in [
            a_ for a_ in self.advertisements.values()
            if a_.endpoint.switch == name
        ]:
            self.unadvertise(adv.adv_id)
        for neighbor in list(self.topology.neighbors(name)):
            if self.topology.is_switch(neighbor):
                self.topology.remove_link(name, neighbor)
        self.partition.discard(name)
        self.trees.partition.discard(name)
        ref_rebuild_trees(self, list(self.trees))


def ref_reroute_tree_around_edge(
    self: PleromaController, tree_id: int, a: str, b: str
) -> RerouteOutcome:
    tree = self.trees.get(tree_id)
    if not tree.uses_edge(a, b):
        return RerouteOutcome.TREE_NOT_ON_EDGE
    sg = self.topology.switch_graph(self.partition)
    if sg.has_edge(a, b):
        sg.remove_edge(a, b)
    dist = nx.single_source_shortest_path_length(sg, tree.root)
    if set(dist) != self.partition:
        return RerouteOutcome.EDGE_IS_BRIDGE  # no spanning tree without it
    parents: dict[str, str] = {}
    for node, d in dist.items():
        if node == tree.root:
            continue
        candidates = [
            nb for nb in sg.neighbors(node) if dist.get(nb) == d - 1
        ]
        parents[node] = min(
            candidates,
            key=lambda nb: ref_equal_cost_tie_break(tree.root, node, nb),
        )
    with self._request("reroute"):
        changed = self.ledger.remove_keys_where(tree_id=tree.tree_id)
        tree.replace_structure(parents)
        self._withdraw(changed)
        for adv_id, member in list(tree.publishers.items()):
            adv = self.advertisements.get(adv_id)
            if adv is not None:
                self._add_flow_mult_sub(tree, adv, member.overlap)
    return RerouteOutcome.REROUTED


def ref_rebuild_trees(
    self: PleromaController, trees: list[SpanningTree]
) -> None:
    for tree in trees:
        changed = self.ledger.remove_keys_where(tree_id=tree.tree_id)
        root = tree.root
        if root not in self.partition:
            candidates = sorted(
                m.endpoint.switch
                for m in tree.publishers.values()
                if m.endpoint.switch in self.partition
            ) or sorted(self.partition)
            root = candidates[0]
            tree.root = root
        parents = self.trees.tree_builder(
            self.topology, self.partition, root
        )
        if set(parents) | {root} != self.partition:
            raise ControllerError(
                f"partition {self.name!r} is disconnected: cannot span "
                f"{sorted(self.partition - set(parents) - {root})} "
                f"from {root!r}"
            )
        tree.replace_structure(parents)
        self._withdraw(changed)
        for adv_id, member in list(tree.publishers.items()):
            adv = self.advertisements.get(adv_id)
            if adv is None:
                tree.leave_publisher(adv_id)
                continue
            self._add_flow_mult_sub(tree, adv, member.overlap)


def ref_fail_link(middleware: Pleroma, a: str, b: str) -> None:
    """The former ``Pleroma.fail_link`` body (single partition)."""
    middleware.network.link_between(a, b).fail()
    ref_handle_link_failure(middleware.controllers[0], a, b)


def ref_fail_switch(middleware: Pleroma, name: str) -> None:
    """The former ``Pleroma.fail_switch`` body (single partition)."""
    for neighbor in middleware.topology.neighbors(name):
        middleware.network.link_between(name, neighbor).fail()
    ref_handle_switch_failure(middleware.controllers[0], name)


# ----------------------------------------------------------------------
# twin deployments
# ----------------------------------------------------------------------

TOPOLOGIES = {"fat-tree": paper_fat_tree, "ring": lambda: ring(6)}

clients_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),       # host index
        st.booleans(),                               # publisher?
        st.integers(min_value=0, max_value=1023),    # range low
        st.integers(min_value=0, max_value=1023),    # range width
    ),
    min_size=1,
    max_size=8,
)


def deploy(topology_name: str, clients) -> Pleroma:
    middleware = Pleroma(
        TOPOLOGIES[topology_name](), dimensions=1, max_dz_length=8
    )
    hosts = middleware.topology.hosts()
    for host_index, publishes, low, width in clients:
        host = hosts[host_index % len(hosts)]
        region = Filter.of(attr0=(low, min(1023, low + width)))
        if publishes:
            middleware.advertise(host, Advertisement(filter=region))
        else:
            middleware.subscribe(host, Subscription(filter=region))
    return middleware


def switch_edges(middleware: Pleroma) -> list[tuple[str, str]]:
    topology = middleware.topology
    return sorted(
        tuple(sorted((spec.a, spec.b)))
        for spec in topology.links()
        if topology.is_switch(spec.a) and topology.is_switch(spec.b)
    )


def trees_by_id(controller: PleromaController) -> list[SpanningTree]:
    return sorted(controller.trees, key=lambda t: t.tree_id)


def observe(middleware: Pleroma) -> dict:
    """Everything the twins must agree on."""
    controller = middleware.controllers[0]
    return {
        "tables": {
            name: sorted(
                (
                    entry.match.prefix_len,
                    entry.match.network,
                    entry.priority,
                    tuple(
                        (a.out_port, a.set_dest)
                        for a in entry.sorted_actions()
                    ),
                )
                for entry in switch.table
            )
            for name, switch in sorted(middleware.network.switches.items())
        },
        "trees": [
            (
                tree.tree_id,
                tree.root,
                sorted(tree.parents.items()),
                str(tree.dz_set),
                sorted(m.endpoint.name for m in tree.publishers.values()),
                sorted(m.endpoint.name for m in tree.subscribers.values()),
            )
            for tree in trees_by_id(controller)
        ],
        "partition": sorted(controller.partition),
        "total_flow_mods": controller.total_flow_mods,
        "subscriptions": len(controller.subscriptions),
        "advertisements": len(controller.advertisements),
        "request_log": [(s.kind, s.flow_mods) for s in controller.request_log],
    }


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


class TestFailuresMatchOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        clients_strategy,
        st.integers(min_value=0, max_value=15),
    )
    def test_fail_link(self, topology_name, clients, edge_index):
        new = deploy(topology_name, clients)
        old = deploy(topology_name, clients)
        assert observe(new) == observe(old)
        edges = switch_edges(new)
        a, b = edges[edge_index % len(edges)]
        new.fail_link(a, b)
        ref_fail_link(old, a, b)
        assert observe(new) == observe(old)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        clients_strategy,
        st.integers(min_value=0, max_value=9),
        st.booleans(),
    )
    # four publishers share the first tree: killing its root re-roots it
    @example("fat-tree", [(i, True, 0, 1023) for i in (0, 2, 4, 6)], 0, True)
    def test_fail_switch(self, topology_name, clients, switch_index, at_root):
        new = deploy(topology_name, clients)
        old = deploy(topology_name, clients)
        # a dead tree root forces a re-root, so aim there half the time
        roots = sorted({t.root for t in new.controllers[0].trees})
        candidates = roots if at_root and roots else new.topology.switches()
        name = candidates[switch_index % len(candidates)]
        new.fail_switch(name)
        ref_fail_switch(old, name)
        assert observe(new) == observe(old)


class TestRerouteMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        clients_strategy,
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=15),
    )
    def test_reroute(self, topology_name, clients, tree_index, edge_index):
        new = deploy(topology_name, clients)
        old = deploy(topology_name, clients)
        trees = trees_by_id(new.controllers[0])
        if not trees:
            return  # no advertisement drawn: nothing to reroute
        tree_id = trees[tree_index % len(trees)].tree_id
        edges = switch_edges(new)
        a, b = edges[edge_index % len(edges)]
        outcome = new.controllers[0].reroute_tree_around_edge(tree_id, a, b)
        expected = ref_reroute_tree_around_edge(
            old.controllers[0], tree_id, a, b
        )
        assert outcome is expected
        assert observe(new) == observe(old)
