"""The PLEROMA controller: publish/subscribe maintenance (Algorithm 1).

One controller manages one network partition.  It reacts to advertisement,
subscription, unadvertisement and unsubscription requests by maintaining a
set of disjoint spanning trees (Sec. 3.2) and the flow tables of its
switches (Sec. 3.3):

* an advertisement joins every tree its DZ overlaps and spawns a new
  shortest-path tree (rooted at the publisher's access switch) for the
  uncovered remainder;
* a subscription joins every overlapping tree; on each, paths are installed
  from every publisher with overlapping ``DZ^t(p)`` to the subscriber, with
  flows matching exactly the overlap so false positives are avoided;
* a subscription overlapping no tree is stored and re-checked whenever a
  tree is created or its DZ changes;
* an unsubscription removes the subscriber's paths, deleting or downgrading
  flows depending on the other subscribers still reachable;
* trees are merged when their number exceeds a threshold.

Requests are processed one at a time ("in a sequence to avoid inconsistent
updates", Sec. 2).  Each request's cost is recorded as a
:class:`RequestStats`: the controller's own computation time (measured) plus
one control-channel round trip per flow-mod message — the quantities behind
the reconfiguration-delay experiment (Fig. 7f).

Two installation strategies are provided: ``reconcile`` (default) computes
each affected switch's desired table from the contribution ledger and diffs
it against the installed table; ``incremental`` applies the paper's literal
cases 1–5 per new flow.  Both produce the same forwarding behaviour (a
property-based test asserts this); reconcile additionally keeps tables
minimal, which is what the cases aim at.
"""

from __future__ import annotations

import enum
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, Literal

from repro.controller.applier import ChannelApplier, DirectApplier
from repro.controller.flow_installer import flow_addition
from repro.controller.reconciler import desired_flows, diff_table
from repro.controller.state import Endpoint, FlowLedger, PathKey
from repro.controller.tree import SpanningTree
from repro.controller.tree_manager import TreeManager
from repro.core.dz import Dz
from repro.core.dzset import DzSet, EMPTY
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import ControllerError
from repro.network.control_channel import ControlChannel
from repro.network.fabric import Network
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.network.openflow import PacketIn
from repro.network.packet import Packet
from repro.network.switch import Switch
from repro.obs.context import Observability

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.verify import Verifier

__all__ = [
    "PleromaController",
    "RequestStats",
    "RerouteOutcome",
    "summarize_requests",
    "AdvertisementState",
    "SubscriptionState",
    "DEFAULT_FLOW_MOD_LATENCY_S",
]

#: One flow-mod round trip on the control channel (OpenFlow barrier-style);
#: 0.35 ms matches commodity software-switch control planes.
DEFAULT_FLOW_MOD_LATENCY_S = 350e-6

InstallMode = Literal["reconcile", "incremental"]


class RerouteOutcome(enum.Enum):
    """Why :meth:`PleromaController.reroute_tree_around_edge` did (not) act.

    A bare ``False`` would conflate "this tree never touched the edge"
    with "the edge is a bridge, there is no spanning structure without
    it".  The :class:`repro.controller.overload.OverloadManager` records
    the outcome in its log, so a declined reaction says why.  Only
    ``REROUTED`` is truthy.  Failure repair does not use the reroute; it
    plans through :mod:`repro.resilience.repair`.
    """

    REROUTED = "rerouted"
    TREE_NOT_ON_EDGE = "tree-not-on-edge"
    EDGE_IS_BRIDGE = "edge-is-bridge"

    def __bool__(self) -> bool:
        return self is RerouteOutcome.REROUTED


@dataclass(frozen=True)
class RequestStats:
    """Cost accounting for a single control request."""

    kind: str
    flow_mods: int
    compute_seconds: float
    flow_mod_latency_s: float
    trees_created: int = 0
    trees_merged: int = 0

    @property
    def reconfiguration_delay_s(self) -> float:
        """Modeled time until the request is fully deployed: controller
        computation plus serial flow-mod round trips."""
        return self.compute_seconds + self.flow_mods * self.flow_mod_latency_s


def summarize_requests(log: list["RequestStats"], kind: str | None = None) -> dict:
    """Aggregate a controller's request log (optionally one request kind).

    Returns count, mean/max reconfiguration delay, total flow mods, and the
    sustainable request rate — the quantities Fig. 7(f) reports.
    """
    entries = [s for s in log if kind is None or s.kind == kind]
    if not entries:
        raise ControllerError(
            f"no requests of kind {kind!r} recorded" if kind else "empty log"
        )
    delays = [s.reconfiguration_delay_s for s in entries]
    mean_delay = sum(delays) / len(delays)
    return {
        "count": len(entries),
        "mean_delay_s": mean_delay,
        "max_delay_s": max(delays),
        "total_flow_mods": sum(s.flow_mods for s in entries),
        "requests_per_second": 1.0 / mean_delay if mean_delay > 0 else float("inf"),
    }


@dataclass
class AdvertisementState:
    adv_id: int
    advertisement: Advertisement | None
    endpoint: Endpoint
    dz_set: DzSet


@dataclass
class SubscriptionState:
    sub_id: int
    subscription: Subscription | None
    endpoint: Endpoint
    dz_set: DzSet


class PleromaController:
    """The middleware instance controlling one partition."""

    def __init__(
        self,
        network: Network,
        indexer: SpatialIndexer,
        partition: Iterable[str] | None = None,
        name: str = "c1",
        merge_threshold: int = 16,
        install_mode: InstallMode = "reconcile",
        flow_mod_latency_s: float = DEFAULT_FLOW_MOD_LATENCY_S,
        control_channel: ControlChannel | None = None,
        tree_builder: str | None = None,
        auto_coarsen: bool = False,
        occupancy_threshold: float = 0.9,
        min_dz_length: int = 4,
        obs: Observability | None = None,
        verify_after_each_request: bool = False,
    ) -> None:
        if install_mode not in ("reconcile", "incremental"):
            raise ControllerError(f"unknown install mode {install_mode!r}")
        self.network = network
        self.topology = network.topology
        self.indexer = indexer
        self.name = name
        self.partition = (
            set(partition)
            if partition is not None
            else set(self.topology.switches())
        )
        self.install_mode: InstallMode = install_mode
        self.flow_mod_latency_s = flow_mod_latency_s
        self.control_channel = control_channel
        self._applier = (
            ChannelApplier(network, control_channel)
            if control_channel is not None
            else DirectApplier(network)
        )
        # Requirement 3 (Sec. 1): TCAM capacity is bounded.  With
        # auto_coarsen the controller reacts to tables filling up by
        # re-indexing the partition at a shorter dz length — coarser
        # subspaces aggregate into fewer flows, trading false positives
        # for headroom.
        if not 0.0 < occupancy_threshold <= 1.0:
            raise ControllerError("occupancy threshold must be in (0, 1]")
        if min_dz_length < 1:
            raise ControllerError("min dz length must be >= 1")
        self.auto_coarsen = auto_coarsen
        self.occupancy_threshold = occupancy_threshold
        self.min_dz_length = min_dz_length
        # Debug hook: statically verify the whole installed flow state
        # after every successful request (see repro.analysis.verify),
        # with the same warm verifier the repair loop runs.
        # Meant for tests and debugging, not production.
        self.verify_after_each_request = verify_after_each_request
        self._verifier: "Verifier | None" = None
        self._request_depth = 0
        self.coarsen_events: list[tuple[int, int]] = []  # (old, new) lengths
        self._reindexing = False
        self.reindex_listeners: list[Callable[[SpatialIndexer], None]] = []
        from repro.controller.tree_builders import (
            builder_by_name,
            shortest_path_tree,
        )

        self.ids = network.sim.ids
        self.trees = TreeManager(
            self.topology,
            self.ids,
            self.partition,
            merge_threshold=merge_threshold,
            tree_builder=(
                builder_by_name(tree_builder)
                if tree_builder is not None
                else shortest_path_tree
            ),
        )
        self.ledger = FlowLedger()
        self.advertisements: dict[int, AdvertisementState] = {}
        self.subscriptions: dict[int, SubscriptionState] = {}
        self._virtual_endpoints: dict[str, Endpoint] = {}
        # hooks used by the federation layer (Sec. 4)
        self.adv_listeners: list[Callable[[AdvertisementState], None]] = []
        self.sub_listeners: list[Callable[[SubscriptionState], None]] = []
        # observability: deployments share one bundle; a standalone
        # controller reports into the fabric's registry so its counters
        # land in the same snapshot as the device counters.
        self.obs = (
            obs if obs is not None
            else Observability(network.sim, registry=network.registry)
        )
        # statistics
        self.total_flow_mods = 0
        self.flow_mods_by_switch: dict[str, int] = {}
        self.requests_processed = 0
        self.request_log: list[RequestStats] = []
        self._c_flow_mods = self.obs.registry.counter(
            "controller.flow_mods", controller=name
        )
        self._attach_to_switches()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _attach_to_switches(self) -> None:
        if self.control_channel is not None:
            # SDN-realistic path: packet-ins arrive over the channel with
            # its latency, and flow mods travel back the same way.
            for name in sorted(self.partition):
                self.control_channel.connect(
                    self.network.switches[name], self._on_packet_in
                )
            return
        for name in self.partition:
            self.network.switches[name].set_control_handler(
                self.handle_control_packet
            )

    def _on_packet_in(self, message: PacketIn) -> None:
        self.handle_control_packet(
            self.network.switches[message.switch],
            message.packet,
            message.in_port,
        )

    def handle_control_packet(
        self, switch: Switch, packet: Packet, in_port: int
    ) -> None:
        """Dispatch a diverted ``IP_pub/sub`` packet (client requests)."""
        from repro.controller.requests import (
            AdvertiseRequest,
            SubscribeRequest,
            UnadvertiseRequest,
            UnsubscribeRequest,
        )

        request = packet.payload
        if isinstance(request, AdvertiseRequest):
            self.advertise(request.host, request.advertisement)
        elif isinstance(request, SubscribeRequest):
            self.subscribe(request.host, request.subscription)
        elif isinstance(request, UnsubscribeRequest):
            self.unsubscribe(request.sub_id)
        elif isinstance(request, UnadvertiseRequest):
            self.unadvertise(request.adv_id)
        # unknown payloads (e.g. federation messages) are handled by the
        # federation layer, which wraps this handler.

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def endpoint_for_host(self, host_name: str) -> Endpoint:
        """The endpoint of a real end host in this partition."""
        if host_name in self._virtual_endpoints:
            return self._virtual_endpoints[host_name]
        host = self.network.hosts.get(host_name)
        if host is None:
            raise ControllerError(f"unknown host {host_name!r}")
        switch = self.topology.access_switch(host_name)
        if switch not in self.partition:
            raise ControllerError(
                f"host {host_name!r} attaches to {switch!r}, outside "
                f"partition of controller {self.name!r}"
            )
        return Endpoint(
            name=host_name,
            switch=switch,
            port=self.network.port(switch, host_name),
            address=host.address,
        )

    def register_virtual_endpoint(
        self, name: str, switch: str, port: int
    ) -> Endpoint:
        """Register a border-switch port as a virtual host (Sec. 4.2)."""
        if switch not in self.partition:
            raise ControllerError(
                f"virtual endpoint switch {switch!r} outside partition"
            )
        endpoint = Endpoint(name=name, switch=switch, port=port, address=None)
        self._virtual_endpoints[name] = endpoint
        return endpoint

    # ------------------------------------------------------------------
    # public control operations
    # ------------------------------------------------------------------
    def advertise(
        self,
        host: str,
        advertisement: Advertisement | None = None,
        dz_set: DzSet | None = None,
        adv_id: int | None = None,
        _notify: bool = True,
    ) -> AdvertisementState:
        """Process an advertisement (Algorithm 1, Receive(ADV)).

        Either a content ``advertisement`` (converted through the spatial
        indexer) or an explicit ``dz_set`` (used for external requests
        arriving from neighbouring partitions) must be given.
        """
        with self._request("advertise"):
            if dz_set is None:
                if advertisement is None:
                    raise ControllerError(
                        "advertise needs a filter or a DZ set"
                    )
                dz_set = self.indexer.filter_to_dzset(advertisement.filter)
            if adv_id is None:
                adv_id = (
                    advertisement.number(self.ids)
                    if advertisement is not None
                    else self.ids.next("request")
                )
            if adv_id in self.advertisements:
                raise ControllerError(f"advertisement {adv_id} already active")
            endpoint = self.endpoint_for_host(host)
            state = AdvertisementState(adv_id, advertisement, endpoint, dz_set)
            self.advertisements[adv_id] = state

            for dz_i in dz_set:
                covered = EMPTY
                for tree in self.trees.overlapping(dz_i):
                    overlap = tree.dz_set.intersect_dz(dz_i)
                    tree.join_publisher(adv_id, endpoint, overlap)
                    self._add_flow_mult_sub(tree, state, overlap)
                    covered = covered.union(overlap)
                uncovered = DzSet.of(dz_i).subtract(covered)
                if not uncovered.is_empty:
                    tree = self.trees.create_tree(endpoint.switch, uncovered)
                    tree.join_publisher(adv_id, endpoint, uncovered)
                    self._add_flow_mult_sub(tree, state, uncovered)
            while self.trees.merges_needed():
                self._merge_once()

        self._check_occupancy()
        if _notify:
            for listener in self.adv_listeners:
                listener(state)
        return state

    def subscribe(
        self,
        host: str,
        subscription: Subscription | None = None,
        dz_set: DzSet | None = None,
        sub_id: int | None = None,
        _notify: bool = True,
    ) -> SubscriptionState:
        """Process a subscription (Algorithm 1, Receive(SUB))."""
        with self._request("subscribe"):
            if dz_set is None:
                if subscription is None:
                    raise ControllerError(
                        "subscribe needs a filter or a DZ set"
                    )
                dz_set = self.indexer.filter_to_dzset(subscription.filter)
            if sub_id is None:
                sub_id = (
                    subscription.number(self.ids)
                    if subscription is not None
                    else self.ids.next("request")
                )
            if sub_id in self.subscriptions:
                raise ControllerError(f"subscription {sub_id} already active")
            endpoint = self.endpoint_for_host(host)
            state = SubscriptionState(sub_id, subscription, endpoint, dz_set)
            self.subscriptions[sub_id] = state

            for dz_i in dz_set:
                for tree in self.trees.overlapping(dz_i):
                    overlap = tree.dz_set.intersect_dz(dz_i)
                    tree.join_subscriber(sub_id, endpoint, overlap)
                    for adv_id, member in tree.publishers.items():
                        pub_overlap = member.overlap.intersect_dz(dz_i)
                        if pub_overlap.is_empty:
                            continue
                        self._install_path(
                            tree,
                            self.advertisements[adv_id],
                            state,
                            pub_overlap.intersect(overlap),
                        )
            # With no overlapping tree the subscription is "simply stored";
            # it stays in self.subscriptions and is re-checked via
            # _add_flow_mult_sub whenever trees change.

        self._check_occupancy()
        if _notify:
            for listener in self.sub_listeners:
                listener(state)
        return state

    def unsubscribe(self, sub_id: int) -> None:
        """Remove a subscription; delete or downgrade its flows (Sec. 3.3.3)."""
        with self._request("unsubscribe"):
            if sub_id not in self.subscriptions:
                raise ControllerError(f"unknown subscription {sub_id}")
            del self.subscriptions[sub_id]
            changed = self.ledger.remove_keys_where(sub_id=sub_id)
            for tree in self.trees:
                tree.leave_subscriber(sub_id)
            self._withdraw(changed)

    def unadvertise(self, adv_id: int) -> None:
        """Remove an advertisement and retire trees left publisher-less."""
        with self._request("unadvertise"):
            if adv_id not in self.advertisements:
                raise ControllerError(f"unknown advertisement {adv_id}")
            del self.advertisements[adv_id]
            changed = self.ledger.remove_keys_where(adv_id=adv_id)
            for tree in list(self.trees):
                tree.leave_publisher(adv_id)
                if not tree.publishers:
                    self.trees.retire_tree(tree.tree_id)
            self._withdraw(changed)

    # ------------------------------------------------------------------
    # tree repair (beyond the paper: its future work asks for "mechanisms
    # to detect and react" to dynamic network conditions)
    # ------------------------------------------------------------------
    def restructure_tree(
        self, tree: SpanningTree, root: str, parents: dict[str, str]
    ) -> None:
        """Re-deploy ``tree`` on a new structure: same DZ and members.

        The one primitive behind every tree repair and reroute: withdraw
        the tree's paths, swap in ``root``/``parents``, and re-install the
        paths of every publisher still active.  Structures are planned by
        :class:`repro.resilience.repair.RepairPlanner` (failures) or
        :meth:`reroute_tree_around_edge` (overload).
        """
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

    def reroute_tree_around_edge(
        self, tree_id: int, a: str, b: str
    ) -> RerouteOutcome:
        """Move one tree off a (hot or dead) edge, if an alternative exists.

        The structure comes from the configured tree builder over the
        planning topology minus the edge (restored right after); no client
        is ever suspended.  Returns a :class:`RerouteOutcome`, truthy
        exactly when the tree was re-deployed avoiding the edge:
        ``TREE_NOT_ON_EDGE`` when the tree never routed over it,
        ``EDGE_IS_BRIDGE`` when no spanning structure exists without it.
        This is the *reaction* half of overload handling (the paper's
        future work); detection lives in
        :class:`repro.controller.overload.OverloadManager`.
        """
        tree = self.trees.get(tree_id)
        if not tree.uses_edge(a, b):
            return RerouteOutcome.TREE_NOT_ON_EDGE
        spec = (
            self.topology.remove_link(a, b)
            if self.topology.graph.has_edge(a, b)
            else None
        )
        try:
            parents = self.trees.tree_builder(
                self.topology, self.partition, tree.root
            )
        finally:
            if spec is not None:
                self.topology.restore_link(spec)
        if set(parents) | {tree.root} != self.partition:
            return RerouteOutcome.EDGE_IS_BRIDGE
        with self._request("reroute"):
            self.restructure_tree(tree, tree.root, parents)
        return RerouteOutcome.REROUTED

    # ------------------------------------------------------------------
    # dimension selection support (Sec. 5)
    # ------------------------------------------------------------------
    def _check_occupancy(self) -> None:
        """React to flow tables filling up by coarsening the indexing."""
        if not self.auto_coarsen or self._reindexing:
            return
        worst = 0.0
        for name in self.partition:
            table = self._applier.table(name)
            worst = max(worst, len(table) / table.capacity)
        if worst < self.occupancy_threshold:
            return
        old_length = self.indexer.max_dz_length
        new_length = max(self.min_dz_length, old_length // 2)
        if new_length >= old_length:
            return  # already at the floor: nothing left to trade
        coarser = SpatialIndexer(
            self.indexer.space,
            max_dz_length=new_length,
            max_cells=self.indexer.max_cells,
        )
        self.coarsen_events.append((old_length, new_length))
        self.reindex(coarser)

    def reindex(self, indexer: SpatialIndexer) -> None:
        """Re-deploy the whole partition under a new spatial indexer.

        After dimension selection the controller "generates new DZ for
        existing subscriptions and advertisements [and] installs flows
        w.r.t. the newly created DZ".  Requests arriving from federation
        (with explicit DZ sets but no filter) cannot be re-indexed and are
        replayed verbatim.
        """
        self._reindexing = True
        adv_states = list(self.advertisements.values())
        sub_states = list(self.subscriptions.values())
        # withdraw everything
        changed: dict[str, set[Dz]] = {}
        for tree in list(self.trees):
            for switch, dzs in self.ledger.remove_keys_where(
                tree_id=tree.tree_id
            ).items():
                changed.setdefault(switch, set()).update(dzs)
            self.trees.retire_tree(tree.tree_id)
        self.advertisements.clear()
        self.subscriptions.clear()
        self._withdraw(changed)
        self.indexer = indexer
        # replay
        try:
            for adv in adv_states:
                dz_set = (
                    indexer.filter_to_dzset(adv.advertisement.filter)
                    if adv.advertisement is not None
                    else adv.dz_set
                )
                self.advertise(
                    adv.endpoint.name,
                    adv.advertisement,
                    dz_set=dz_set,
                    adv_id=adv.adv_id,
                    _notify=False,
                )
            for sub in sub_states:
                dz_set = (
                    indexer.filter_to_dzset(sub.subscription.filter)
                    if sub.subscription is not None
                    else sub.dz_set
                )
                self.subscribe(
                    sub.endpoint.name,
                    sub.subscription,
                    dz_set=dz_set,
                    sub_id=sub.sub_id,
                    _notify=False,
                )
        finally:
            self._reindexing = False
        for listener in self.reindex_listeners:
            listener(indexer)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _add_flow_mult_sub(
        self, tree: SpanningTree, adv: AdvertisementState, dz_region: DzSet
    ) -> None:
        """``addFlowMultSub``: connect a publisher's new region to every
        stored subscription matching it (Algorithm 1, lines 26–30)."""
        for sub in self.subscriptions.values():
            overlap = dz_region.intersect(sub.dz_set)
            if overlap.is_empty:
                continue
            tree.join_subscriber(sub.sub_id, sub.endpoint, overlap)
            self._install_path(tree, adv, sub, overlap)

    def _install_path(
        self,
        tree: SpanningTree,
        adv: AdvertisementState,
        sub: SubscriptionState,
        overlap: DzSet,
    ) -> None:
        """``flowAddition`` over a route: install flows so events matching
        ``overlap`` travel from the publisher to the subscriber on ``tree``."""
        if overlap.is_empty:
            return
        pub_ep, sub_ep = adv.endpoint, sub.endpoint
        if pub_ep.name == sub_ep.name:
            return  # same host or same border gateway: nothing to route
        route = tree.path_between(pub_ep.switch, sub_ep.switch)
        hops = [
            (switch, Action(self.network.port(switch, nxt)))
            for switch, nxt in zip(route, route[1:])
        ]
        hops.append((route[-1], sub_ep.terminal_action()))
        changed: dict[str, set[Dz]] = {}
        for dz in overlap:
            key = PathKey(tree.tree_id, adv.adv_id, sub.sub_id, dz)
            if self.ledger.has_path(key):
                continue
            new_on = self.ledger.add_route(key, hops)
            if self.install_mode == "incremental":
                for switch, action in hops:
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
            else:
                for switch in new_on:
                    changed.setdefault(switch, set()).add(dz)
        if self.install_mode == "reconcile":
            self._patch(changed)

    def _patch(self, changed: dict[str, set[Dz]]) -> None:
        """Incrementally repair switch tables after contribution changes.

        A change at dz can only affect the desired entries of dz itself and
        its finer contributed descendants (coarser entries never depend on
        finer contributions), so only that closure is re-evaluated.  Per
        switch, :meth:`DzTrie.desired_closure` walks from the root once per
        outermost changed dz and carries the cumulative action set down its
        subtree, so the cost follows the trie nodes the change reaches, not
        closure size x dz length.  Entries are patched in bits order, which
        fixes the order of the flow-mods and the cookies they mint.
        """
        batch: dict[str, int] = {}
        for name, dzs in changed.items():
            table = self._applier.table(name)
            mods = 0
            for bits, desired in self.ledger.trie(name).desired_closure(
                {dz.bits for dz in dzs}
            ):
                current = table.get_bits(bits)
                if desired is None:
                    if current is not None:
                        self._applier.remove(name, current.match)
                        mods += 1
                elif (
                    current is None
                    or current.actions != desired
                    or current.priority != len(bits)
                ):
                    entry = FlowEntry.for_dz(
                        Dz.trusted(bits),
                        desired,
                        cookie=self.ids.next("cookie"),
                    )
                    self._applier.install(name, entry)
                    mods += 1
            if mods:
                batch[name] = mods
        self._record_batch("patch", batch)

    def _withdraw(self, changed: dict[str, set[Dz]]) -> None:
        """Repair tables after contribution removals.

        Reconcile mode patches the affected closure; incremental mode falls
        back to full per-switch reconciliation, because flow_addition-built
        tables may hold redundant entries the closure walk would miss.
        """
        if self.install_mode == "reconcile":
            self._patch(changed)
        else:
            self._reconcile(changed.keys())

    def _reconcile(self, switches: Iterable[str]) -> None:
        """Bring whole switch tables to their desired state (slow path:
        used for incremental-mode withdrawals and full re-indexing)."""
        batch: dict[str, int] = {}
        for name in sorted(set(switches)):
            desired = desired_flows(self.ledger.contributions(name))
            diff = diff_table(self._applier.table(name), desired, self.ids)
            if diff.is_empty:
                continue
            for entry in diff.deletions:
                self._applier.remove(name, entry.match)
            for entry in diff.modifications:
                self._applier.install(name, entry)
            for entry in diff.additions:
                self._applier.install(name, entry)
            batch[name] = diff.total_mods
        self._record_batch("reconcile", batch)

    def _merge_once(self) -> None:
        """Merge the cheapest tree pair and re-deploy its paths."""
        t1, t2 = self.trees.pick_merge_pair()
        with self.obs.tracer.span(
            "tree_merge",
            "merge",
            controller=self.name,
            merged_tree_ids=[t1.tree_id, t2.tree_id],
        ) as span:
            changed = self.ledger.remove_keys_where(tree_id=t1.tree_id)
            for switch, dzs in self.ledger.remove_keys_where(
                tree_id=t2.tree_id
            ).items():
                changed.setdefault(switch, set()).update(dzs)
            merged = self.trees.merge(t1, t2)
            span.attributes["result_tree_id"] = merged.tree_id
            # Recompute membership against the (possibly coarsened) DZ:
            # stored subscriptions and advertisements may overlap the wider
            # region.
            merged.publishers.clear()
            merged.subscribers.clear()
            for adv in self.advertisements.values():
                overlap = adv.dz_set.intersect(merged.dz_set)
                if not overlap.is_empty:
                    merged.join_publisher(adv.adv_id, adv.endpoint, overlap)
            # Withdrawals always go through the ledger-derived desired
            # state: the incremental cases only describe additions.
            self._withdraw(changed)
            for adv_id, member in merged.publishers.items():
                self._add_flow_mult_sub(
                    merged, self.advertisements[adv_id], member.overlap
                )

    def _record_batch(self, name: str, batch: dict[str, int]) -> None:
        """Count one flow-mod batch and trace its per-switch breakdown."""
        if not batch:
            return
        for switch in sorted(batch):
            self._count_mods(switch, batch[switch])
        self.obs.tracer.event(
            "flow_mod_batch",
            name,
            controller=self.name,
            mods={switch: batch[switch] for switch in sorted(batch)},
        )

    def _count_mods(self, switch: str, n: int = 1) -> None:
        """Account flow-mod messages: total, per switch, and registry."""
        if n <= 0:
            return
        self.total_flow_mods += n
        self.flow_mods_by_switch[switch] = (
            self.flow_mods_by_switch.get(switch, 0) + n
        )
        self._c_flow_mods.inc(n)

    @contextmanager
    def _request(self, kind: str) -> Iterator[None]:
        """Scope of one control request: opens a trace span, and on success
        appends the :class:`RequestStats` entry (flow mods, tree churn,
        measured compute time).  A failing request leaves no stats — as
        before — but its span survives with ``outcome="error"``.
        """
        span = self.obs.tracer.begin("request", kind, controller=self.name)
        started = time.perf_counter()
        mods_before = self.total_flow_mods
        per_switch_before = dict(self.flow_mods_by_switch)
        created_before = self.trees.trees_created
        merged_before = self.trees.trees_merged
        self._request_depth += 1
        try:
            yield
        except BaseException:
            self.obs.tracer.finish(span, outcome="error")
            raise
        finally:
            self._request_depth -= 1
        flow_mods = self.total_flow_mods - mods_before
        per_switch = {
            name: count - per_switch_before.get(name, 0)
            for name, count in sorted(self.flow_mods_by_switch.items())
            if count - per_switch_before.get(name, 0)
        }
        stats = RequestStats(
            kind=kind,
            flow_mods=flow_mods,
            compute_seconds=time.perf_counter() - started,
            flow_mod_latency_s=self.flow_mod_latency_s,
            trees_created=self.trees.trees_created - created_before,
            trees_merged=self.trees.trees_merged - merged_before,
        )
        self.requests_processed += 1
        self.request_log.append(stats)
        self.obs.registry.counter(
            "controller.requests", controller=self.name, kind=kind
        ).inc()
        self.obs.tracer.finish(
            span,
            flow_mods=flow_mods,
            flow_mods_by_switch=per_switch,
            trees_created=stats.trees_created,
            trees_merged=stats.trees_merged,
        )
        # Debug hook: prove the installed flow state correct before the
        # next request is admitted.  Only at the outermost request (repair
        # operations issue nested requests over transient state) and never
        # mid-reindex.
        if (
            self.verify_after_each_request
            and self._request_depth == 0
            and not self._reindexing
        ):
            self.verifier.run(raise_on_violation=True)

    @property
    def verifier(self) -> "Verifier":
        """This controller's warm static verifier (one per controller),
        built on first use."""
        if self._verifier is None:
            from repro.analysis.verify import Verifier

            self._verifier = Verifier(self)
        return self._verifier

    # ------------------------------------------------------------------
    def installed_table(self, switch: str) -> "FlowTable":
        """The controller's authoritative view of a switch's flow table.

        Public read access for the static verifier and diagnostics; with a
        control channel this is the shadow table (what the controller
        believes is deployed), otherwise the physical TCAM itself.
        """
        return self._applier.table(switch)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-compatible diagnostic dump of the controller's state.

        Operators use this to inspect a live deployment: trees with their
        DZ and membership, client counts, per-switch flow occupancy, and
        cumulative control-plane work.
        """
        return {
            "controller": self.name,
            "partition": sorted(self.partition),
            "install_mode": self.install_mode,
            "advertisements": len(self.advertisements),
            "subscriptions": len(self.subscriptions),
            "trees": [
                {
                    "id": tree.tree_id,
                    "root": tree.root,
                    "dz": [dz.bits for dz in tree.dz_set],
                    "publishers": sorted(
                        m.endpoint.name for m in tree.publishers.values()
                    ),
                    "subscribers": sorted(
                        m.endpoint.name for m in tree.subscribers.values()
                    ),
                }
                for tree in sorted(self.trees, key=lambda t: t.tree_id)
            ],
            "flows_per_switch": {
                name: len(self._applier.table(name))
                for name in sorted(self.partition)
            },
            "total_flow_mods": self.total_flow_mods,
            "flow_mods_by_switch": {
                name: self.flow_mods_by_switch[name]
                for name in sorted(self.flow_mods_by_switch)
            },
            "requests_processed": self.requests_processed,
        }

    def check_invariants(self) -> None:
        """Structural sanity: disjoint trees, flows only in partition."""
        self.trees.check_invariants()
        for switch in self.ledger.switches():
            if switch not in self.partition:
                raise ControllerError(
                    f"controller {self.name} installed flows on foreign "
                    f"switch {switch!r}"
                )

    def __repr__(self) -> str:
        return (
            f"PleromaController({self.name!r}, partition={len(self.partition)}"
            f" switches, trees={len(self.trees)}, "
            f"advs={len(self.advertisements)}, subs={len(self.subscriptions)})"
        )

