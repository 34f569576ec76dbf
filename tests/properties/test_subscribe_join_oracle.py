"""One tree join per subscribe, checked against the per-dz join it replaced.

``PleromaController.subscribe`` joins the subscriber to each overlapping
tree once, with the union of the tree's overlaps with the request's
``dz_i`` (computed as one intersection of the tree's region with the
request's).  The reference below is the former ``subscribe``, which
widened the member once per ``dz_i``, kept verbatim apart from being
lifted out of the class.

Twin deployments get the same drawn publishers (several trees, some
merged), subscriptions whose regions span several dz and trees, and
unsubscriptions; one twin subscribes through the reference.  Tree
members and their overlaps, tree ids by position, the sequence of
flow-mods (switch, command, match, cookie), per-request flow-mod counts
and the tables must all be equal.
"""

from __future__ import annotations

import types

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controller.controller import PleromaController, SubscriptionState
from repro.core.dzset import DzSet
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import ControllerError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree

# ----------------------------------------------------------------------
# reference implementation (the replaced code)
# ----------------------------------------------------------------------


def ref_subscribe(
    self: PleromaController,
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

    self._check_occupancy()
    if _notify:
        for listener in self.sub_listeners:
            listener(state)
    return state


# ----------------------------------------------------------------------
# twins
# ----------------------------------------------------------------------

_bound = st.integers(min_value=0, max_value=1023)
_box = st.tuples(_bound, _bound, _bound, _bound).map(
    lambda b: {
        "attr0": (min(b[0], b[1]), max(b[0], b[1])),
        "attr1": (min(b[2], b[3]), max(b[2], b[3])),
    }
)


class _Twin:
    def __init__(self, reference: bool, max_dz_length: int, threshold: int):
        self.middleware = Pleroma(
            paper_fat_tree(),
            dimensions=2,
            max_dz_length=max_dz_length,
            merge_threshold=threshold,
        )
        self.controller = self.middleware.controllers[0]
        if reference:
            self.controller.subscribe = types.MethodType(
                ref_subscribe, self.controller
            )
        self.mods: list[tuple] = []
        applier = self.controller._applier
        install, remove = applier.install, applier.remove

        def logged_install(switch, entry):
            self.mods.append((switch, "install", entry.match, entry.cookie))
            install(switch, entry)

        def logged_remove(switch, match):
            self.mods.append((switch, "remove", match))
            remove(switch, match)

        applier.install, applier.remove = logged_install, logged_remove
        self.hosts = self.middleware.topology.hosts()

    def state(self) -> tuple:
        controller = self.controller
        trees = [
            (
                tree.dz_set,
                [
                    (sub_id, m.endpoint.name, m.overlap)
                    for sub_id, m in tree.subscribers.items()
                ],
                [
                    (adv_id, m.endpoint.name, m.overlap)
                    for adv_id, m in tree.publishers.items()
                ],
            )
            for tree in controller.trees
        ]
        tables = {
            name: sorted(
                (str(e.match), e.priority, sorted(map(str, e.actions)))
                for e in switch.table
            )
            for name, switch in sorted(self.middleware.network.switches.items())
        }
        return (
            trees,
            list(self.mods),
            [(s.kind, s.flow_mods) for s in controller.request_log],
            controller.total_flow_mods,
            tables,
        )


@settings(max_examples=40, deadline=None)
@given(
    max_dz_length=st.integers(min_value=4, max_value=9),
    threshold=st.integers(min_value=1, max_value=4),
    adverts=st.lists(_box, min_size=1, max_size=4),
    subs=st.lists(st.tuples(_box, st.integers(0, 6)), min_size=1, max_size=8),
    unsub_every=st.integers(min_value=2, max_value=5),
)
@example(
    max_dz_length=6,
    threshold=4,
    adverts=[
        {"attr0": (0, 511), "attr1": (0, 1023)},
        {"attr0": (512, 1023), "attr1": (0, 1023)},
    ],
    subs=[({"attr0": (300, 700), "attr1": (100, 900)}, 0)],
    unsub_every=5,
)
def test_one_join_per_tree_matches_per_dz_joins(
    max_dz_length, threshold, adverts, subs, unsub_every
):
    twins = [_Twin(flag, max_dz_length, threshold) for flag in (False, True)]
    for twin in twins:
        hosts = twin.hosts
        for i, box in enumerate(adverts):
            twin.middleware.advertise(
                hosts[i % 2], Advertisement.of(**box)
            )
        live = []
        for i, (box, host_index) in enumerate(subs):
            host = hosts[1 + host_index % (len(hosts) - 1)]
            state = twin.middleware.subscribe(host, Subscription.of(**box))
            live.append((host, state.sub_id))
            if i % unsub_every == unsub_every - 1:
                twin.middleware.unsubscribe(*live.pop(0))
    assert twins[0].state() == twins[1].state()


def test_a_multi_dz_subscription_joins_each_tree_once():
    """The explicit example above: a subscription spanning two trees in
    several dz joins each tree with one call, with the union the per-dz
    joins built."""
    twin = _Twin(False, 6, 4)
    hosts = twin.hosts
    twin.middleware.advertise(
        hosts[0], Advertisement.of(attr0=(0, 511), attr1=(0, 1023))
    )
    twin.middleware.advertise(
        hosts[1], Advertisement.of(attr0=(512, 1023), attr1=(0, 1023))
    )
    calls: list[int] = []
    for tree in twin.controller.trees:
        join = tree.join_subscriber

        def counted(sub_id, endpoint, overlap, _join=join, _id=tree.tree_id):
            calls.append(_id)
            _join(sub_id, endpoint, overlap)

        tree.join_subscriber = counted
    sub = Subscription.of(attr0=(300, 700), attr1=(100, 900))
    state = twin.middleware.subscribe(hosts[3], sub)
    assert len(state.dz_set) > 2
    assert sorted(calls) == sorted(t.tree_id for t in twin.controller.trees)
    for tree in twin.controller.trees:
        assert tree.subscribers[state.sub_id].overlap == (
            tree.dz_set.intersect(state.dz_set)
        )
