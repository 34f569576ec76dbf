"""The near-linear verifier checks against the quadratic code they replaced,
and the warm verifier against the cold one.

``check_shadowing`` probes each entry's coarser prefixes in the table's
per-length buckets, ``desired_flows`` and ``_semantic_drift`` walk each
dz's ancestors in a dict keyed by bits, and ``check_forwarding`` bisects
a bits-sorted candidate run and intersects each (publisher, subscriber)
region once.  The references below are the code those replaced, kept
verbatim apart from being lifted out of their module (the helpers they
share with the new code are imported).  Violation lists must match the
references order included, and ``desired_flows`` must match them in
iteration order too, because ``diff_table`` mints cookies in that order.

Deployments are drawn on the paper fat-tree and a ring, in both install
modes, with churn (unsubscribes), a link cut and its restore and a switch
failure repaired by the orchestrator, corrupted priorities, and then every
fault of :mod:`repro.analysis.faults` applied one after another.

After every step the controller's warm :class:`Verifier` (the one the
orchestrator runs) must return exactly the violations of a cold
``verify_controller`` run, order included.  The draw skips some of those
warm runs, so a warm run also has to catch up over several steps at once.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.faults import FAULT_INJECTORS, FaultInjectionError
from repro.analysis.invariants import (
    Violation,
    _disseminate,
    _port_map,
    _semantic_drift,
    _sorted_trees,
    _Trace,
    check_forwarding,
    check_shadowing,
)
from repro.analysis.verify import verify_controller
from repro.controller.reconciler import desired_flows
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.exceptions import ControllerError
from repro.middleware.pleroma import Pleroma
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.network.topology import paper_fat_tree, ring
from repro.resilience.detector import FailureEvent
from repro.resilience.orchestrator import RecoveryOrchestrator

# ----------------------------------------------------------------------
# reference implementations (the replaced code)
# ----------------------------------------------------------------------


def ref_desired_flows(
    contributions: Mapping[Dz, frozenset[Action]],
) -> dict[Dz, frozenset[Action]]:
    desired: dict[Dz, frozenset[Action]] = {}
    for dz, actions in contributions.items():
        cumulative = set(actions)
        parent_cumulative: set[Action] = set()
        has_coarser = False
        for other_dz, other_actions in contributions.items():
            if other_dz == dz:
                continue
            if other_dz.covers(dz):
                cumulative |= other_actions
                parent_cumulative |= other_actions
                has_coarser = True
        if has_coarser and cumulative == parent_cumulative:
            continue  # fully implied by coarser flows — redundant
        desired[dz] = frozenset(cumulative)
    return desired


def ref_check_shadowing(controller) -> list[Violation]:
    violations: list[Violation] = []
    for name in sorted(controller.partition):
        entries = controller.installed_table(name).entries()
        for shadowed in entries:
            for shadowing in entries:
                if shadowing.match == shadowed.match:
                    continue
                if (
                    shadowing.match.covers(shadowed.match)
                    and shadowing.priority > shadowed.priority
                ):
                    violations.append(
                        Violation(
                            kind="shadowed_rule",
                            controller=controller.name,
                            subject=name,
                            message=(
                                f"entry {shadowed} on {name} can never "
                                f"match: shadowed by {shadowing}"
                            ),
                            details={
                                "switch": name,
                                "dead_dz": shadowed.dz.bits,
                                "dead_priority": shadowed.priority,
                                "shadowing_dz": shadowing.dz.bits,
                                "shadowing_priority": shadowing.priority,
                            },
                        )
                    )
                    break  # one witness per dead entry is enough
    return violations


def ref_semantic_drift(
    controller_name: str,
    switch: str,
    table: FlowTable,
    desired: dict[Dz, frozenset],
) -> Iterator[Violation]:
    probes = {entry.dz for entry in table.entries()} | set(desired)
    for dz in sorted(probes, key=lambda d: (len(d), d.bits)):
        entry = table.lookup(dz_to_address(dz))
        executed = entry.actions if entry is not None else frozenset()
        covering = [d for d in desired if d.covers(dz)]
        if covering:
            best = max(covering, key=len)
            wanted = desired[best]
        else:
            wanted = frozenset()
        if executed != wanted:
            yield Violation(
                kind="drift",
                controller=controller_name,
                subject=switch,
                message=(
                    f"switch {switch} executes the wrong action set for "
                    f"events in dz {dz}"
                ),
                details={
                    "switch": switch,
                    "dz": dz.bits,
                    "reason": "semantic",
                    "executed_actions": sorted(str(a) for a in executed),
                    "desired_actions": sorted(str(a) for a in wanted),
                },
            )


def ref_check_forwarding(controller) -> list[Violation]:
    violations: list[Violation] = []
    port_maps = {
        name: _port_map(controller, name)
        for name in sorted(controller.partition)
    }
    candidates = sorted(
        {
            entry.dz
            for name in controller.partition
            for entry in controller.installed_table(name).entries()
        }
        | {key.dz for key in controller.ledger.keys_for()},
        key=lambda d: (len(d), d.bits),
    )
    for tree in _sorted_trees(controller):
        for adv_id in sorted(tree.publishers):
            pub = tree.publishers[adv_id]
            probes: set[Dz] = set()
            for dz in pub.overlap:
                probes.add(dz)
                probes.update(
                    finer
                    for finer in candidates
                    if dz.covers(finer) and finer != dz
                )
            for probe in sorted(probes, key=lambda d: (len(d), d.bits)):
                trace = _disseminate(
                    controller, port_maps, pub.endpoint, probe
                )
                subject = f"tree:{tree.tree_id}"
                for origin, revisited in trace.loops:
                    violations.append(
                        Violation(
                            kind="loop",
                            controller=controller.name,
                            subject=subject,
                            message=(
                                f"probe dz {probe} from publisher {adv_id} "
                                f"re-enters switch {revisited!r} (from "
                                f"{origin!r})"
                            ),
                            details={
                                "tree_id": tree.tree_id,
                                "adv_id": adv_id,
                                "dz": probe.bits,
                                "from": origin,
                                "revisited": revisited,
                            },
                        )
                    )
                for switch, target in trace.misdirected:
                    violations.append(
                        Violation(
                            kind="blackhole",
                            controller=controller.name,
                            subject=switch,
                            message=(
                                f"terminal flow on {switch!r} rewrites "
                                f"probe dz {probe} towards switch "
                                f"{target!r}, where the unicast packet "
                                f"matches nothing and dies"
                            ),
                            details={
                                "tree_id": tree.tree_id,
                                "adv_id": adv_id,
                                "dz": probe.bits,
                                "switch": switch,
                                "target": target,
                            },
                        )
                    )
                for switch, port in trace.bad_ports:
                    violations.append(
                        Violation(
                            kind="blackhole",
                            controller=controller.name,
                            subject=switch,
                            message=(
                                f"flow on {switch!r} outputs probe dz "
                                f"{probe} on port {port}, which has no link"
                            ),
                            details={
                                "tree_id": tree.tree_id,
                                "adv_id": adv_id,
                                "dz": probe.bits,
                                "switch": switch,
                                "port": port,
                            },
                        )
                    )
                violations.extend(
                    ref_check_deliveries(
                        controller, tree, adv_id, pub.endpoint, probe, trace
                    )
                )
    return violations


def ref_check_deliveries(
    controller,
    tree,
    adv_id: int,
    pub_endpoint,
    probe: Dz,
    trace: _Trace,
) -> Iterator[Violation]:
    subs = controller.subscriptions
    delivered_hosts = {host for host, _ in trace.deliveries}
    exits = set(trace.border_exits)
    # every matching subscriber must be reached
    for sub_id in sorted(subs):
        sub_state = subs[sub_id]
        ep = sub_state.endpoint
        if ep.name == pub_endpoint.name:
            continue
        wanted = tree.publishers[adv_id].overlap.intersect(sub_state.dz_set)
        if not wanted.covers_dz(probe):
            continue
        reached = (
            (ep.switch, ep.port) in exits
            if ep.is_virtual
            else ep.name in delivered_hosts
        )
        if not reached:
            yield Violation(
                kind="blackhole",
                controller=controller.name,
                subject=f"tree:{tree.tree_id}",
                message=(
                    f"events in dz {probe} from publisher {adv_id} never "
                    f"reach matching subscriber {sub_id} at {ep.name!r}"
                ),
                details={
                    "tree_id": tree.tree_id,
                    "adv_id": adv_id,
                    "sub_id": sub_id,
                    "dz": probe.bits,
                    "subscriber": ep.name,
                },
            )
    # no delivery may lack a matching subscription
    matching_hosts = {
        s.endpoint.name
        for s in subs.values()
        if not s.endpoint.is_virtual and s.dz_set.overlaps_dz(probe)
    }
    matching_exits = {
        (s.endpoint.switch, s.endpoint.port)
        for s in subs.values()
        if s.endpoint.is_virtual and s.dz_set.overlaps_dz(probe)
    }
    for host, rewritten in sorted(
        trace.deliveries, key=lambda d: (d[0], d[1] or 0)
    ):
        expected_address = controller.network.hosts[host].address
        if host not in matching_hosts:
            yield Violation(
                kind="misdelivery",
                controller=controller.name,
                subject=f"tree:{tree.tree_id}",
                message=(
                    f"events in dz {probe} from publisher {adv_id} are "
                    f"delivered to {host!r}, which has no matching "
                    f"subscription"
                ),
                details={
                    "tree_id": tree.tree_id,
                    "adv_id": adv_id,
                    "dz": probe.bits,
                    "host": host,
                },
            )
        elif rewritten != expected_address:
            yield Violation(
                kind="misdelivery",
                controller=controller.name,
                subject=f"tree:{tree.tree_id}",
                message=(
                    f"terminal flow delivers dz {probe} to {host!r} "
                    f"without rewriting the destination to its address"
                ),
                details={
                    "tree_id": tree.tree_id,
                    "adv_id": adv_id,
                    "dz": probe.bits,
                    "host": host,
                    "rewritten": rewritten,
                    "expected": expected_address,
                },
            )
    for switch, port in sorted(exits):
        if (switch, port) not in matching_exits:
            yield Violation(
                kind="misdelivery",
                controller=controller.name,
                subject=f"tree:{tree.tree_id}",
                message=(
                    f"events in dz {probe} from publisher {adv_id} leave "
                    f"the partition via {switch!r} port {port} with no "
                    f"matching external subscriber"
                ),
                details={
                    "tree_id": tree.tree_id,
                    "adv_id": adv_id,
                    "dz": probe.bits,
                    "switch": switch,
                    "port": port,
                },
            )


# ----------------------------------------------------------------------
# deployments
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


def deploy(topology_name: str, install_mode: str, clients) -> Pleroma:
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


def churn(middleware: Pleroma, leaving: list[int]) -> None:
    """Unsubscribe the drawn positions of the live subscriptions."""
    controller = middleware.controllers[0]
    for position in leaving:
        live = sorted(controller.subscriptions)
        if not live:
            return
        sub_id = live[position % len(live)]
        host = controller.subscriptions[sub_id].endpoint.name
        middleware.unsubscribe(host, sub_id)


def corrupt_priorities(controller, corruptions: list[tuple[int, int]]) -> None:
    """Reinstall drawn entries with drawn priorities (dead-rule bait)."""
    pairs = [
        (name, entry.match)
        for name in sorted(controller.partition)
        for entry in controller.installed_table(name).entries()
    ]
    for index, priority in corruptions:
        if not pairs:
            return
        name, match = pairs[index % len(pairs)]
        table = controller.installed_table(name)
        table.install(table.get(match).with_priority(priority))


def switch_links(controller) -> list[tuple[str, str]]:
    """The partition's switch-to-switch links, as sorted name pairs."""
    topology = controller.topology
    return sorted(
        tuple(sorted((spec.a, spec.b)))
        for spec in topology.links()
        if topology.is_switch(spec.a) and topology.is_switch(spec.b)
    )


def assert_warm_matches_cold(controller, run_warm: bool = True) -> None:
    """The controller's warm verifier reports what a cold run reports."""
    if run_warm:
        warm = controller.verifier.run().violations
        assert warm == verify_controller(controller).violations


def assert_matches_oracle(controller) -> None:
    assert check_shadowing(controller) == ref_check_shadowing(controller)
    for name in sorted(controller.partition):
        contributions = controller.ledger.contributions(name)
        desired = desired_flows(contributions)
        reference = ref_desired_flows(contributions)
        assert list(desired.items()) == list(reference.items()), name
        table = controller.installed_table(name)
        assert list(
            _semantic_drift(controller.name, name, table, desired)
        ) == list(ref_semantic_drift(controller.name, name, table, desired))
    assert check_forwarding(controller) == ref_check_forwarding(controller)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


class TestVerifierMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        st.sampled_from(["reconcile", "incremental"]),
        clients_strategy,
        st.lists(st.integers(min_value=0, max_value=15), max_size=3),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=4,
        ),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=63),
        st.lists(st.booleans(), min_size=10, max_size=10),
    )
    def test_checks_match_references(
        self,
        topology_name,
        install_mode,
        clients,
        leaving,
        corruptions,
        seed,
        victim,
        warm_runs,
    ):
        middleware = deploy(topology_name, install_mode, clients)
        controller = middleware.controllers[0]
        # the passes verify nothing themselves, so a skipped warm run
        # leaves the repair for the next one to catch up on
        orchestrator = RecoveryOrchestrator(controller, verify=False)
        runs = iter(warm_runs)

        def step_done() -> None:
            assert_matches_oracle(controller)
            assert_warm_matches_cold(controller, next(runs))

        step_done()
        churn(middleware, leaving)
        step_done()
        links = switch_links(controller)
        cut = links[victim % len(links)]
        orchestrator.on_event(FailureEvent("port-down", cut, 0.0))
        step_done()
        orchestrator.on_event(FailureEvent("port-up", cut, 0.0))
        step_done()
        switches = sorted(controller.partition)
        try:
            orchestrator.switch_failed(switches[victim % len(switches)])
        except ControllerError:
            pass  # the survivors are split: the state is what it is
        step_done()
        corrupt_priorities(controller, corruptions)
        step_done()
        rng = random.Random(seed)
        for name in sorted(FAULT_INJECTORS):
            try:
                FAULT_INJECTORS[name](controller, rng)
            except FaultInjectionError:
                continue
            step_done()
        assert_warm_matches_cold(controller)

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.text(alphabet="01", max_size=6),
            st.frozensets(
                st.builds(Action, out_port=st.integers(1, 3)), max_size=3
            ),
            max_size=12,
        )
    )
    def test_desired_flows_matches_reference(self, raw):
        contributions = {Dz(bits): actions for bits, actions in raw.items()}
        assert list(desired_flows(contributions).items()) == list(
            ref_desired_flows(contributions).items()
        )


class TestWarmVerifier:
    def test_planning_topology_change_alone_is_seen(self):
        """No table, ledger entry or subscription moves: only a link leaves
        the planning topology.  A flow still outputs on its port, and the
        warm run must report that blackhole as the cold run does."""
        middleware = deploy(
            "fat-tree", "reconcile", [(0, True, 0, 1023), (5, False, 0, 1023)]
        )
        controller = middleware.controllers[0]
        assert controller.verifier.run().ok
        child, parent = next(
            (name, neighbor)
            for name in sorted(controller.partition)
            for entry in controller.installed_table(name).entries()
            for action in entry.sorted_actions()
            if (neighbor := _port_map(controller, name).get(action.out_port))
            in controller.partition
        )
        controller.topology.remove_link(child, parent)
        warm = controller.verifier.run().violations
        assert warm == verify_controller(controller).violations
        bad_ports = [
            v for v in warm if v.kind == "blackhole" and "port" in v.details
        ]
        assert bad_ports
        assert {v.details["switch"] for v in bad_ports} <= {child, parent}

    @pytest.mark.parametrize("install_mode", ["reconcile", "incremental"])
    @pytest.mark.parametrize(
        "corruption, kind",
        [
            ("priority", "shadowed_rule"),
            ("ledger_only", "drift"),
            ("table_only", "drift"),
            ("partition_only", "misdelivery"),
        ],
    )
    def test_change_between_warm_runs_is_seen(
        self, install_mode, corruption, kind
    ):
        """One hand-made change between two warm runs, on one side of a
        cache key only: the warm run must report what the cold run does."""
        middleware = deploy(
            "fat-tree",
            install_mode,
            [(0, True, 0, 1023), (3, False, 0, 700), (5, False, 100, 300)],
        )
        controller = middleware.controllers[0]
        assert controller.verifier.run().ok
        switch, entry = next(
            (name, e)
            for name in sorted(controller.partition)
            for e in controller.installed_table(name).entries()
            if e.dz.bits
        )
        table = controller.installed_table(switch)
        if corruption == "priority":
            table.install(FlowEntry.for_dz(entry.dz.child(0), entry.actions))
            table.install(entry.with_priority(len(entry.dz) + 10))
        elif corruption == "ledger_only":
            controller.ledger.remove_keys_where(
                sub_id=sorted(controller.subscriptions)[0]
            )
        elif corruption == "partition_only":
            # a subscriber's switch leaves the partition: probes now exit
            # there to no external subscriber
            subscriber = controller.subscriptions[
                sorted(controller.subscriptions)[0]
            ]
            controller.partition.discard(subscriber.endpoint.switch)
        else:
            port = max(controller.network.switches[switch].ports) + 1
            table.install(entry.with_actions(entry.actions | {Action(port)}))
        warm = controller.verifier.run().violations
        assert warm == verify_controller(controller).violations
        assert kind in {v.kind for v in warm}
        if corruption == "partition_only":
            # and back: replays that stopped at the border must go on
            controller.partition.add(subscriber.endpoint.switch)
            warm = controller.verifier.run().violations
            assert warm == verify_controller(controller).violations
            assert not warm

    def test_loop_among_other_probes(self):
        """A loop on one probe, with more probes after it."""
        middleware = Pleroma(ring(4), dimensions=1, max_dz_length=6)
        hosts = sorted(middleware.topology.hosts())
        middleware.advertise(
            hosts[0], Advertisement(filter=Filter.of(attr0=(0, 1023)))
        )
        middleware.subscribe(
            hosts[2], Subscription(filter=Filter.of(attr0=(0, 300)))
        )
        middleware.subscribe(
            hosts[3], Subscription(filter=Filter.of(attr0=(200, 1023)))
        )
        controller = middleware.controllers[0]
        assert controller.verifier.run().ok
        dz = min(
            (key.dz for key in controller.ledger.keys_for()),
            key=lambda d: (len(d.bits), d.bits),
        )
        cycle = ["R1", "R2", "R3", "R4", "R1"]
        for here, there in zip(cycle, cycle[1:]):
            port = controller.network.port(here, there)
            controller.installed_table(here).install(
                FlowEntry.for_dz(dz, {Action(port)})
            )
        warm = controller.verifier.run().violations
        assert warm == verify_controller(controller).violations
        assert "loop" in {v.kind for v in warm}
        # the looping probe is the shortest, so others were replayed after it
        assert len(controller.verifier.cache.replays) > 1

    def test_unchanged_state_reuses_every_replay(self):
        middleware = deploy(
            "ring", "incremental", [(0, True, 0, 1023), (3, False, 100, 500)]
        )
        controller = middleware.controllers[0]
        verifier = controller.verifier
        verifier.run()
        replays = dict(verifier.cache.replays)
        drift = dict(verifier.cache.drift)
        assert replays and drift
        verifier.run()
        assert all(
            verifier.cache.replays[key] is trace
            for key, trace in replays.items()
        )
        assert verifier.cache.drift == drift
        # re-installing a switch's entries as they are moves its version:
        # its drift is re-checked, the replays crossing it are kept
        switch = max(
            controller.partition,
            key=lambda n: len(controller.installed_table(n)),
        )
        table = controller.installed_table(switch)
        for entry in table.entries():
            table.remove(entry.match)
            table.install(entry)
        crossing = [
            key
            for key, trace in replays.items()
            if any(read[0] == switch for read in trace.tables_read)
        ]
        assert crossing
        report = verifier.run()
        assert report.violations == verify_controller(controller).violations
        assert all(
            verifier.cache.replays[key] is trace
            for key, trace in replays.items()
        )
        assert verifier.cache.drift[switch] != drift[switch]

    def test_one_warm_verifier_per_controller(self):
        middleware = deploy("ring", "reconcile", [(0, True, 0, 1023)])
        controller = middleware.controllers[0]
        assert controller.verifier is controller.verifier


class TestShadowingWitness:
    def test_longest_higher_priority_ancestor_is_the_witness(self):
        """Two corrupted coarser priorities over one entry: the witness is
        the longer of the two, the first one ``entries()`` lists."""
        middleware = Pleroma(ring(3), dimensions=1)
        controller = middleware.controllers[0]
        switch = sorted(controller.partition)[0]
        table = controller.installed_table(switch)
        table.install(FlowEntry.for_dz(Dz("0"), {Action(1)}, priority=40))
        table.install(FlowEntry.for_dz(Dz("011"), {Action(1)}, priority=30))
        table.install(FlowEntry.for_dz(Dz("01101"), {Action(2)}))
        violations = check_shadowing(controller)
        assert violations == ref_check_shadowing(controller)
        witnesses = {
            v.details["dead_dz"]: v.details["shadowing_dz"] for v in violations
        }
        assert witnesses == {"01101": "011", "011": "0"}
