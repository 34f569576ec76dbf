"""Failure repair, rerouting and restructuring checked against the code
they replaced.

``Pleroma.fail_link`` / ``fail_switch`` now run one pass of the owning
controller's :class:`~repro.resilience.orchestrator.RecoveryOrchestrator`,
and ``reroute_tree_around_edge`` plans with the configured tree builder
over the planning topology minus the edge.  Both re-deploy through
``PleromaController.restructure_tree``, which diffs routes and patches
only what moved.  The references below are the controller's former
``handle_link_failure`` / ``handle_switch_failure`` / ``_rebuild_trees``,
the reroute with its hand-rolled shortest-path tree (and a copy of the
topology's equal-cost tie-break it used), and the former
``restructure_tree``, which withdrew every path of the tree and
re-installed it; all kept verbatim apart from being lifted out of the
class.

Two twin deployments get the same drawn clients; one takes the old path,
the other the new.  The per-switch flow tables ``(match, priority,
actions)``, tree roots, parents and members, client counts, ledger
contributions and the request log's kinds must all agree.  Flow-mods may
not: the new twin issues exactly the difference between its tables
before and after, and never more than the reference.  Each twin numbers
requests and trees from its own simulator, so trees are compared with
their ids.
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
from repro.controller.reconciler import desired_flows
from repro.controller.tree import SpanningTree
from repro.core.addressing import dz_to_prefix
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.exceptions import ControllerError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree, ring
from tests.helpers import table_contents, table_difference

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


def ref_restructure_tree(
    self: PleromaController, tree: SpanningTree, root: str, parents: dict[str, str]
) -> None:
    changed = self.ledger.remove_keys_where(tree_id=tree.tree_id)
    tree.root = root
    tree.replace_structure(parents)
    self._withdraw(changed)
    for adv_id, member in sorted(tree.publishers.items()):
        adv = self.advertisements.get(adv_id)
        if adv is None:
            tree.leave_publisher(adv_id)
            continue
        self._add_flow_mult_sub(tree, adv, member.overlap)


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


def deploy(
    topology_name: str, clients, install_mode: str = "reconcile"
) -> Pleroma:
    middleware = Pleroma(
        TOPOLOGIES[topology_name](),
        dimensions=1,
        max_dz_length=8,
        install_mode=install_mode,
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
    """Everything the twins must agree on, but the tables."""
    controller = middleware.controllers[0]
    ledger = controller.ledger
    return {
        "trees": [
            (
                tree.tree_id,
                tree.root,
                sorted(tree.parents.items()),
                str(tree.dz_set),
                sorted(
                    (adv_id, m.endpoint.name, str(m.overlap))
                    for adv_id, m in tree.publishers.items()
                ),
                sorted(
                    (sub_id, m.endpoint.name, str(m.overlap))
                    for sub_id, m in tree.subscribers.items()
                ),
            )
            for tree in trees_by_id(controller)
        ],
        "partition": sorted(controller.partition),
        "subscriptions": len(controller.subscriptions),
        "advertisements": len(controller.advertisements),
        "requests": [s.kind for s in controller.request_log],
        "contributions": {
            name: ledger.contributions(name) for name in sorted(ledger.switches())
        },
        "routes": {
            tree.tree_id: ledger.routes(tree.tree_id)
            for tree in trees_by_id(controller)
        },
    }


def twin_step(
    new: Pleroma, old: Pleroma, new_step, old_step
) -> tuple[int, int, int]:
    """Apply one step to each twin and require them to agree.

    Returns the flow-mods each twin issued and the difference between the
    new twin's tables before and after.  In reconcile mode the tables must
    be equal, and each request of the new twin may cost no more flow-mods
    than the reference's.  In incremental mode a restructure reconciles
    every switch its tree routes over, where the reference only adds the
    paths' flows case by case, so a table may differ from the reference's
    only by being the switch's desired table.
    """
    new_c, old_c = new.controllers[0], old.controllers[0]
    assert observe(new) == observe(old)
    before = table_contents(new.network)
    new_mods, old_mods = new_c.total_flow_mods, old_c.total_flow_mods
    logged = len(new_c.request_log)
    new_step(new)
    old_step(old)
    assert observe(new) == observe(old)
    tables, ref_tables = table_contents(new.network), table_contents(old.network)
    if new_c.install_mode == "reconcile":
        assert tables == ref_tables
        for mine, theirs in zip(
            new_c.request_log[logged:], old_c.request_log[logged:], strict=True
        ):
            assert mine.flow_mods <= theirs.flow_mods
    else:
        for name, table in tables.items():
            if table != ref_tables[name]:
                desired = desired_flows(new_c.ledger.contributions(name))
                assert table == {
                    dz_to_prefix(dz): (len(dz), actions)
                    for dz, actions in desired.items()
                }
    return (
        new_c.total_flow_mods - new_mods,
        old_c.total_flow_mods - old_mods,
        table_difference(before, table_contents(new.network)),
    )


def versions(middleware: Pleroma) -> dict[str, tuple[int, int]]:
    """Each switch's (ledger version, table version)."""
    ledger = middleware.controllers[0].ledger
    return {
        name: (ledger.version(name), switch.table.version)
        for name, switch in sorted(middleware.network.switches.items())
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
        edges = switch_edges(new)
        a, b = edges[edge_index % len(edges)]
        new_mods, old_mods, diff = twin_step(
            new,
            old,
            lambda m: m.fail_link(a, b),
            lambda m: ref_fail_link(m, a, b),
        )
        # only restructures: every flow-mod is a real table change
        assert new_mods == diff <= old_mods

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
        clients_before = len(new.controllers[0].subscriptions) + len(
            new.controllers[0].advertisements
        )
        new_mods, old_mods, diff = twin_step(
            new,
            old,
            lambda m: m.fail_switch(name),
            lambda m: ref_fail_switch(m, name),
        )
        assert diff <= new_mods <= old_mods
        controller = new.controllers[0]
        if clients_before == len(controller.subscriptions) + len(
            controller.advertisements
        ):
            # no client dropped with the switch: only restructures ran
            assert new_mods == diff


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
        outcomes = []
        new_mods, old_mods, diff = twin_step(
            new,
            old,
            lambda m: outcomes.append(
                m.controllers[0].reroute_tree_around_edge(tree_id, a, b)
            ),
            lambda m: outcomes.append(
                ref_reroute_tree_around_edge(m.controllers[0], tree_id, a, b)
            ),
        )
        assert outcomes[0] is outcomes[1]
        assert new_mods == diff <= old_mods


class TestRestructureMatchesOracle:
    """``restructure_tree`` against the withdraw-all/re-add body, on a
    drawn tree and root, or on the tree's own structure, optionally after
    a switch crashed and came back with a cold table, or after a client
    was dropped from the controller's books without its paths (so the
    tree holds paths nobody wants any more)."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        clients_strategy,
        st.sampled_from(["reconcile", "incremental"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=15),
        st.booleans(),
        st.one_of(st.none(), st.integers(min_value=0, max_value=15)),
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    )
    # the tree's own structure onto warm tables: nothing to do
    @example(
        "fat-tree",
        [(0, True, 0, 1023), (7, False, 0, 1023)],
        "reconcile",
        0,
        0,
        True,
        None,
        None,
    )
    # the publisher's access switch comes back cold: every route of the
    # tree starts there, and none of them moves
    @example(
        "fat-tree",
        [(0, True, 0, 1023), (7, False, 0, 1023)],
        "reconcile",
        0,
        0,
        True,
        -1,
        None,
    )
    # a subscriber is forgotten: its paths vanish, and no route moves
    @example(
        "ring",
        [(0, True, 0, 1023), (3, False, 0, 1023), (5, False, 0, 1023)],
        "reconcile",
        0,
        0,
        True,
        None,
        1,
    )
    def test_restructure(
        self, topology_name, clients, install_mode, tree_index, root_index,
        same_parents, revived, forgotten,
    ):
        new = deploy(topology_name, clients, install_mode)
        old = deploy(topology_name, clients, install_mode)
        if not new.controllers[0].trees:
            return  # no advertisement drawn: nothing to restructure
        switches = sorted(new.controllers[0].partition)
        if revived is not None:
            if revived < 0:  # the first publisher's access switch
                revived = switches.index(
                    new.topology.access_switch(new.topology.hosts()[0])
                )
            name = switches[revived % len(switches)]
            for middleware in (new, old):
                middleware.network.switches[name].fail()
                middleware.network.switches[name].restore()
        if forgotten is not None:
            for middleware in (new, old):
                controller = middleware.controllers[0]
                books = [
                    (controller.advertisements, adv_id)
                    for adv_id in sorted(controller.advertisements)
                ] + [
                    (controller.subscriptions, sub_id)
                    for sub_id in sorted(controller.subscriptions)
                ]
                client_book, client_id = books[forgotten % len(books)]
                del client_book[client_id]

        def restructure(body):
            def step(middleware: Pleroma) -> None:
                controller = middleware.controllers[0]
                trees = trees_by_id(controller)
                tree = trees[tree_index % len(trees)]
                if same_parents:
                    root, parents = tree.root, dict(tree.parents)
                else:
                    root = switches[root_index % len(switches)]
                    parents = controller.trees.tree_builder(
                        controller.topology, controller.partition, root
                    )
                with controller._request("restructure"):
                    body(controller, tree, root, parents)

            return step

        moved = versions(new)
        new_mods, old_mods, diff = twin_step(
            new,
            old,
            restructure(PleromaController.restructure_tree),
            restructure(ref_restructure_tree),
        )
        assert new_mods == diff
        if install_mode == "reconcile":
            assert new_mods <= old_mods
        if same_parents and revived is None and forgotten is None:
            assert new_mods == 0
            assert versions(new) == moved
