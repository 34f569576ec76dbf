"""Table patching checked against the per-dz walk it replaced.

``PleromaController._patch`` evaluates each switch's changed dz with one
carry-down walk of the dz-trie (``DzTrie.desired_closure``), and
``_install_path`` computes a route's hop actions once and records each
path in the ledger with one ``FlowLedger.add_route``.  The references
below are the former ``_patch`` (closure from ``descendants``, then
``desired_entry`` per dz) and the former per-(dz, hop) ``_install_path``,
kept verbatim apart from being lifted out of the class; the trie's
``descendants`` walk lives in ``tests.helpers``.

Two twin deployments get the same drawn publishers (whose regions nest),
subscribers, unsubscriptions, tree restructurings and merges; one takes
the old path, the other the new.  Tables, ledger contributions and path
lists, tree ids by position, ``total_flow_mods``, per-request flow-mod
counts and the multiset of flow-mods each request issued must all agree.
Only the order of the flow-mods within a batch, and so which entry gets
which cookie, may differ; both twins mint as many cookies.
"""

from __future__ import annotations

import types
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controller.controller import (
    AdvertisementState,
    PleromaController,
    SubscriptionState,
)
from repro.controller.dztrie import DzTrie
from repro.controller.flow_installer import flow_addition
from repro.controller.state import PathKey
from repro.controller.tree import SpanningTree
from repro.core.dz import Dz
from repro.core.dzset import DzSet
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.middleware.pleroma import Pleroma
from repro.network.flow import Action, FlowEntry
from repro.network.topology import paper_fat_tree, ring
from tests.helpers import trie_descendants

# ----------------------------------------------------------------------
# reference implementations (the replaced code)
# ----------------------------------------------------------------------


def ref_install_path(
    self: PleromaController,
    tree: SpanningTree,
    adv: AdvertisementState,
    sub: SubscriptionState,
    overlap: DzSet,
) -> None:
    if overlap.is_empty:
        return
    pub_ep, sub_ep = adv.endpoint, sub.endpoint
    if pub_ep.name == sub_ep.name:
        return  # same host or same border gateway: nothing to route
    route = tree.path_between(pub_ep.switch, sub_ep.switch)
    changed: dict[str, set[Dz]] = {}
    for dz in overlap:
        key = PathKey(tree.tree_id, adv.adv_id, sub.sub_id, dz)
        if self.ledger.has_path(key):
            continue
        for i, switch in enumerate(route):
            if i + 1 < len(route):
                action = Action(
                    self.network.port(switch, route[i + 1])
                )
            else:
                action = sub_ep.terminal_action()
            pair_is_new = self.ledger.add(switch, dz, action, key)
            if self.install_mode == "incremental":
                self._count_mods(
                    switch,
                    flow_addition(
                        self._applier.table(switch),
                        dz,
                        {action},
                        self.ids,
                        registry=self.obs.registry,
                    ),
                )
            elif pair_is_new:
                changed.setdefault(switch, set()).add(dz)
    if self.install_mode == "reconcile":
        self._patch(changed)


def ref_patch(self: PleromaController, changed: dict[str, set[Dz]]) -> None:
    batch: dict[str, int] = {}
    for name, dzs in changed.items():
        table = self._applier.table(name)
        trie = self.ledger.trie(name)
        closure: set[Dz] = set()
        for dz in dzs:
            closure.add(dz)
            closure.update(trie_descendants(trie, dz))
        for dz in closure:
            desired = trie.desired_entry(dz)
            current = table.get_dz(dz)
            if desired is None:
                if current is not None:
                    self._applier.remove(name, current.match)
                    batch[name] = batch.get(name, 0) + 1
            elif (
                current is None
                or current.actions != desired
                or current.priority != len(dz)
            ):
                cookie = self.ids.next("cookie")
                entry = FlowEntry.for_dz(dz, desired, cookie=cookie)
                self._applier.install(name, entry)
                batch[name] = batch.get(name, 0) + 1
    self._record_batch("patch", batch)


def use_reference(controller: PleromaController) -> None:
    """Route ``controller``'s path installs and patches through the
    replaced code."""
    controller._install_path = types.MethodType(ref_install_path, controller)
    controller._patch = types.MethodType(ref_patch, controller)


# ----------------------------------------------------------------------
# the trie walk alone
# ----------------------------------------------------------------------

bits_strategy = st.text(alphabet="01", min_size=0, max_size=6)
trie_ops = st.lists(
    st.tuples(
        st.booleans(),
        bits_strategy,
        st.integers(min_value=1, max_value=3),
    ),
    min_size=1,
    max_size=30,
)


class TestClosureWalkMatchesPerDzWalk:
    @settings(max_examples=300, deadline=None)
    @given(trie_ops, st.lists(st.integers(min_value=0), max_size=6))
    def test_desired_closure(self, ops, picks):
        """Changed dz plus their contributed descendants, each once, in
        bits order, each with its ``desired_entry``."""
        trie = DzTrie()
        seen: list[str] = []
        holders: Counter = Counter()
        for is_add, bits, port in ops:
            pair = (bits, Action(port))
            if is_add:
                trie.add(Dz(bits), Action(port))
                holders[pair] += 1
                seen.append(bits)
            elif holders[pair]:
                trie.remove(Dz(bits), Action(port))
                holders[pair] -= 1
        if not seen:
            return
        # only dz that were once contributed can be reported as changed
        changed = {seen[i % len(seen)] for i in picks}
        closure: set[Dz] = set()
        for bits in changed:
            closure.add(Dz(bits))
            closure.update(trie_descendants(trie, Dz(bits)))
        expected = [
            (dz.bits, trie.desired_entry(dz))
            for dz in sorted(closure, key=lambda dz: dz.bits)
        ]
        assert list(trie.desired_closure(changed)) == expected


# ----------------------------------------------------------------------
# twin deployments
# ----------------------------------------------------------------------

TOPOLOGIES = {"fat-tree": paper_fat_tree, "ring": lambda: ring(6)}

# nested publisher regions: each one sits inside the ones before it
NESTED = [(0, 1023), (256, 767), (384, 639), (448, 575), (480, 543)]
# disjoint quarters: each spawns its own tree, so a third one merges
QUARTERS = [(0, 255), (256, 511), (512, 767), (768, 1023)]

region_strategy = st.one_of(
    st.sampled_from(NESTED + QUARTERS),
    st.tuples(
        st.integers(min_value=0, max_value=1023),
        st.integers(min_value=0, max_value=1023),
    ).map(lambda lw: (lw[0], min(1023, lw[0] + lw[1]))),
)

op_strategy = st.one_of(
    st.tuples(
        st.just("adv"), st.integers(min_value=0, max_value=7), region_strategy
    ),
    st.tuples(
        st.just("sub"), st.integers(min_value=0, max_value=7), region_strategy
    ),
    st.tuples(
        st.just("unsub"), st.integers(min_value=0, max_value=15), st.none()
    ),
    st.tuples(
        st.just("restructure"),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=15),
    ),
)


class FlowModLog:
    """Records every flow-mod the controller's applier carries out, by
    request (the request log's length when it was issued)."""

    def __init__(self, controller: PleromaController) -> None:
        self.by_request: dict[int, Counter] = {}
        applier = controller._applier
        install, remove = applier.install, applier.remove

        def log(mod: tuple) -> None:
            index = len(controller.request_log)
            self.by_request.setdefault(index, Counter())[mod] += 1

        def logged_install(switch: str, entry: FlowEntry) -> None:
            log((
                switch,
                "install",
                entry.match.prefix_len,
                entry.match.network,
                entry.priority,
                tuple((a.out_port, a.set_dest) for a in entry.sorted_actions()),
            ))
            install(switch, entry)

        def logged_remove(switch: str, match) -> None:
            log((switch, "remove", match.prefix_len, match.network))
            remove(switch, match)

        applier.install = logged_install
        applier.remove = logged_remove


def deploy(
    topology_name: str, install_mode: str, reference: bool
) -> tuple[Pleroma, FlowModLog]:
    middleware = Pleroma(
        TOPOLOGIES[topology_name](),
        dimensions=1,
        max_dz_length=8,
        merge_threshold=2,
        install_mode=install_mode,
    )
    controller = middleware.controllers[0]
    if reference:
        use_reference(controller)
    return middleware, FlowModLog(controller)


def run_ops(middleware: Pleroma, ops) -> None:
    controller = middleware.controllers[0]
    hosts = middleware.topology.hosts()
    switches = sorted(controller.partition)
    live: list[tuple[str, int]] = []
    for kind, a, b in ops:
        if kind == "adv":
            low, high = b
            middleware.advertise(
                hosts[a % len(hosts)],
                Advertisement(filter=Filter.of(attr0=(low, high))),
            )
        elif kind == "sub":
            low, high = b
            host = hosts[a % len(hosts)]
            state = middleware.subscribe(
                host, Subscription(filter=Filter.of(attr0=(low, high)))
            )
            live.append((host, state.sub_id))
        elif kind == "unsub" and live:
            host, sub_id = live.pop(a % len(live))
            middleware.unsubscribe(host, sub_id)
        elif kind == "restructure" and len(controller.trees):
            trees = sorted(controller.trees, key=lambda t: t.tree_id)
            tree = trees[a % len(trees)]
            root = switches[b % len(switches)]
            parents = controller.trees.tree_builder(
                controller.topology, controller.partition, root
            )
            with controller._request("restructure"):
                controller.restructure_tree(tree, root, parents)


def observe(middleware: Pleroma, log: FlowModLog) -> dict:
    """Everything the twins must agree on."""
    controller = middleware.controllers[0]
    ledger = controller.ledger
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
        # as many cookies minted (the next one is the same)
        "next_cookie": controller.ids.next("cookie"),
        "contributions": {
            name: ledger.contributions(name) for name in sorted(
                controller.partition
            )
        },
        "paths": [(key, ledger._by_key[key]) for key in ledger.keys_for()],
        "trees": [
            (
                tree.tree_id,
                tree.root,
                sorted(tree.parents.items()),
                str(tree.dz_set),
                sorted(tree.publishers),
                sorted(tree.subscribers),
            )
            for tree in sorted(controller.trees, key=lambda t: t.tree_id)
        ],
        "trees_merged": controller.trees.trees_merged,
        "total_flow_mods": controller.total_flow_mods,
        "flow_mods_by_switch": dict(controller.flow_mods_by_switch),
        "request_log": [(s.kind, s.flow_mods) for s in controller.request_log],
        "flow_mods_by_request": log.by_request,
    }


class TestTwinsMatchOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from(["reconcile", "incremental"]),
        st.lists(op_strategy, min_size=1, max_size=14),
    )
    # nested publishers on one tree, subscribers at several depths, an
    # unsubscribe and a restructure
    @example(
        "fat-tree",
        "reconcile",
        [
            ("adv", 0, (0, 1023)),
            ("adv", 2, (256, 767)),
            ("sub", 3, (384, 639)),
            ("sub", 5, (448, 575)),
            ("sub", 7, (0, 511)),
            ("unsub", 1, None),
            ("restructure", 0, 3),
            ("adv", 6, (480, 543)),
            ("sub", 1, (100, 900)),
        ],
    )
    # three disjoint trees force a merge; a nested publisher then joins
    @example(
        "ring",
        "reconcile",
        [
            ("sub", 1, (0, 1023)),
            ("sub", 4, (256, 767)),
            ("adv", 0, (0, 255)),
            ("adv", 3, (512, 767)),
            ("adv", 5, (768, 1023)),
            ("adv", 2, (384, 639)),
            ("unsub", 0, None),
            ("restructure", 1, 4),
        ],
    )
    def test_twins(self, topology_name, install_mode, ops):
        new, new_log = deploy(topology_name, install_mode, reference=False)
        old, old_log = deploy(topology_name, install_mode, reference=True)
        run_ops(new, ops)
        run_ops(old, ops)
        assert observe(new, new_log) == observe(old, old_log)
