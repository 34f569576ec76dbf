"""Overload detection checked against the oracle probe it replaced.

``OverloadManager`` now measures link utilization from the port counters
the in-band :class:`~repro.obs.telemetry.StatsPoller` collects.  The
reference below is the former ``LinkUtilizationProbe`` arithmetic, which
read every ``Link``'s byte counters directly, and the former
``OverloadManager.check`` that consumed it, kept verbatim apart from
being lifted out of their classes (the probe's registry gauges and
per-link histories fed nothing the manager read and are left out).

Two twin deployments, both with telemetry on so they drain to the same
sim time, get the same drawn clients and traffic.  One reacts through
the new manager, the other through the reference, after each of two
bursts, each drained and then optionally left idle for a while.  The
event logs (utilization compared with ``==``), trees, per-switch tables
and the request log's ``(kind, flow_mods)`` must agree.

The equivalence needs the polled counters to equal the link counters
when ``check()`` runs.  Bandwidth is drawn from 1e5 to 2e6 bit/s: below
about 4e5 bit/s one event a millisecond saturates a link and the burst
is still queued when the publishes stop, which the poller covers by
polling on while the polled counters move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.controller.controller import PleromaController
from repro.controller.overload import OverloadManager
from repro.controller.tree import SpanningTree
from repro.core.events import Event
from repro.core.subscription import Filter
from repro.middleware.pleroma import Pleroma
from repro.network.fabric import NetworkParams
from repro.network.topology import paper_fat_tree, ring

# ----------------------------------------------------------------------
# reference implementations (the replaced code)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RefLinkSample:
    time: float
    utilization: float
    bytes_delta: int


class RefLinkUtilizationProbe:
    """The former probe: byte deltas read straight off every link."""

    def __init__(self, network) -> None:
        self.network = network
        self._last_bytes: dict[str, int] = {}
        self._last_time: float | None = None
        self._keys: list[tuple[str, frozenset]] = sorted(
            (("<->".join(sorted(key)), key) for key in network.links
             if all(name in network.switches for name in key)),
        )
        for label, key in self._keys:
            self._last_bytes[label] = network.links[key].total_bytes

    def __call__(self, now: float) -> dict[frozenset, RefLinkSample]:
        window = (
            now - self._last_time if self._last_time is not None else now
        )
        results: dict[frozenset, RefLinkSample] = {}
        for label, key in self._keys:
            link = self.network.links[key]
            delta = link.total_bytes - self._last_bytes[label]
            self._last_bytes[label] = link.total_bytes
            utilization = (
                (delta * 8.0) / (link.bandwidth_bps * window)
                if window > 0
                else 0.0
            )
            results[key] = RefLinkSample(
                time=now, utilization=utilization, bytes_delta=delta
            )
        self._last_time = now
        return results


@dataclass(frozen=True)
class RefOverloadEvent:
    time: float
    edge: tuple[str, str]
    utilization: float
    tree_id: int | None
    rerouted: bool


@dataclass
class RefOverloadManager:
    controller: PleromaController
    sampler: RefLinkUtilizationProbe
    threshold: float = 0.8
    log: list[RefOverloadEvent] = field(default_factory=list)

    def _paths_over_edge(self, tree: SpanningTree, a: str, b: str) -> int:
        count = 0
        for pub in tree.publishers.values():
            for sub in tree.subscribers.values():
                if pub.endpoint.name == sub.endpoint.name:
                    continue
                route = tree.path_between(
                    pub.endpoint.switch, sub.endpoint.switch
                )
                if any(
                    {u, v} == {a, b} for u, v in zip(route, route[1:])
                ):
                    count += 1
        return count

    def check(self) -> RefOverloadEvent | None:
        samples = self.sampler(self.controller.network.sim.now)
        partition = self.controller.partition
        hot_edge = None
        hot_sample = None
        for key, sample in samples.items():
            if not key <= partition:
                continue  # not an internal edge of this partition
            if hot_sample is None or sample.utilization > hot_sample.utilization:
                hot_edge, hot_sample = key, sample
        if hot_edge is None or hot_sample.utilization < self.threshold:
            return None
        a, b = sorted(hot_edge)
        candidates = sorted(
            (
                tree
                for tree in self.controller.trees
                if tree.uses_edge(a, b)
            ),
            key=lambda t: self._paths_over_edge(t, a, b),
            reverse=True,
        )
        rerouted = False
        chosen = None
        for tree in candidates:
            chosen = tree.tree_id
            if self.controller.reroute_tree_around_edge(tree.tree_id, a, b):
                rerouted = True
                break
        event = RefOverloadEvent(
            time=self.controller.network.sim.now,
            edge=(a, b),
            utilization=hot_sample.utilization,
            tree_id=chosen,
            rerouted=rerouted,
        )
        self.log.append(event)
        return event


# ----------------------------------------------------------------------
# twin deployments
# ----------------------------------------------------------------------

TOPOLOGIES = {"fat-tree": paper_fat_tree, "ring": lambda: ring(6)}


def deploy(topology_name, bandwidth, publisher, subscribers) -> Pleroma:
    middleware = Pleroma(
        TOPOLOGIES[topology_name](),
        dimensions=1,
        max_dz_length=10,
        params=NetworkParams(bandwidth_bps=bandwidth),
    )
    hosts = middleware.topology.hosts()
    middleware.publisher(hosts[publisher % len(hosts)]).advertise(
        Filter.of()
    )
    for host in dict.fromkeys(hosts[i % len(hosts)] for i in subscribers):
        middleware.subscriber(host).subscribe(Filter.of(attr0=(512, 767)))
    middleware.enable_telemetry()
    return middleware


def burst(middleware: Pleroma, publisher: int, events: int) -> None:
    hosts = middleware.topology.hosts()
    host = hosts[publisher % len(hosts)]
    base = middleware.now
    for i in range(events):
        middleware.sim.schedule_at(
            base + i * 1e-3, middleware.publish, host, Event.of(attr0=600)
        )
    middleware.run()


def observe(middleware: Pleroma) -> dict:
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
            (tree.tree_id, tree.root, sorted(tree.parents.items()))
            for tree in controller.trees
        ],
        "request_log": [(s.kind, s.flow_mods) for s in controller.request_log],
        "now": middleware.now,
    }


class TestOverloadMatchesOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        st.integers(min_value=1, max_value=20).map(lambda k: k * 1e5),
        st.floats(min_value=0.2, max_value=1.0),
        st.integers(min_value=0, max_value=7),
        st.lists(
            st.integers(min_value=0, max_value=7),
            min_size=1,
            max_size=3,
            unique=True,
        ),
        st.integers(min_value=20, max_value=120),
        st.integers(min_value=20, max_value=120),
        st.sampled_from([0.0, 0.02]),
    )
    # the failover demo's shape: h1 -> h8 over slow fat-tree links
    @example("fat-tree", 4e5, 0.5, 0, [7], 100, 100, 0.0)
    @example("fat-tree", 4e5, 0.5, 0, [7], 100, 100, 0.02)
    # a saturated uplink: the burst drains long after the last publish
    @example("ring", 1e5, 0.5, 0, [3, 5], 100, 60, 0.0)
    def test_check_after_each_burst(
        self, topology_name, bandwidth, threshold, publisher, subscribers,
        first, second, quiet,
    ):
        new = deploy(topology_name, bandwidth, publisher, subscribers)
        old = deploy(topology_name, bandwidth, publisher, subscribers)
        manager = OverloadManager(
            controller=new.controllers[0],
            poller=new.obs.telemetry,
            threshold=threshold,
        )
        reference = RefOverloadManager(
            controller=old.controllers[0],
            sampler=RefLinkUtilizationProbe(old.network),
            threshold=threshold,
        )
        for events in (first, second):
            for middleware in (new, old):
                burst(middleware, publisher, events)
                # an idle stretch after the drain: the window still ends
                # at the check, not at the last poll
                middleware.run(until=middleware.now + quiet)
            assert observe(new) == observe(old)
            manager.check()
            reference.check()
            assert [
                (e.time, e.edge, e.utilization, e.tree_id, bool(e.outcome))
                for e in manager.log
            ] == [
                (e.time, e.edge, e.utilization, e.tree_id, e.rerouted)
                for e in reference.log
            ]
            assert observe(new) == observe(old)
