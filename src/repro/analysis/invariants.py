"""Static invariants over the installed flow state (VeriFlow-style).

PLEROMA's Algorithm 1 compiles covering relations into TCAM prefix rules
that are supposed to be *correct by construction*.  This module makes that
claim checkable: each function inspects a controller snapshot — no packet
is injected — and returns structured :class:`Violation` records for every
breach of the data-plane contract it finds.

The invariants, mirroring the classic SDN verification literature
(VeriFlow, Header Space Analysis) specialised to the dz algebra:

* **Forwarding soundness** — for every dz prefix a tree disseminates, the
  forwarding graph carved out of the installed tables is acyclic, reaches
  every matching subscriber host (loop/blackhole freedom) and delivers to
  no host without a matching subscription.
* **Tree disjointness** — the DZ sets owned by distinct trees of one
  controller never overlap, so an event is disseminated in at most one
  tree (Sec. 3.2).
* **Dead rules** — no TCAM entry is fully shadowed by a coarser entry of
  strictly higher priority (such an entry can never win a lookup).
* **Drift** — every switch's installed table equals the desired state the
  reconciler derives from the contribution ledger, and the incremental
  :class:`~repro.controller.dztrie.DzTrie` agrees with the from-scratch
  reconciler.
* **Bookkeeping** — ledger paths reference live trees/advertisements/
  subscriptions; every (publisher, subscriber) pair that should be wired
  is; every advertised region is owned by a tree.

Each check is deterministic: iteration is over sorted keys only, so equal
states produce byte-identical violation lists.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.controller.reconciler import desired_flows
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.core.dzset import DzSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.controller.controller import PleromaController
    from repro.controller.state import Endpoint
    from repro.network.flow import FlowTable

__all__ = [
    "Violation",
    "VIOLATION_KINDS",
    "check_tree_structure",
    "check_tree_disjointness",
    "check_shadowing",
    "check_table_drift",
    "check_ledger",
    "check_forwarding",
]

#: Every violation kind the checks can emit, in severity-ish order.
VIOLATION_KINDS: tuple[str, ...] = (
    "loop",
    "blackhole",
    "misdelivery",
    "tree_cycle",
    "tree_overlap",
    "shadowed_rule",
    "drift",
    "foreign_flow",
    "stale_path",
    "missing_path",
    "uncovered_advertisement",
)


@dataclass(frozen=True)
class Violation:
    """One breach of a data-plane invariant.

    ``kind`` is one of :data:`VIOLATION_KINDS`; ``subject`` names the
    offending object (a switch, a tree id, a dz); ``details`` carries
    JSON-compatible context for reports and assertions.
    """

    kind: str
    controller: str
    subject: str
    message: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "controller": self.controller,
            "subject": self.subject,
            "message": self.message,
            "details": self.details,
        }

    def __str__(self) -> str:
        return f"[{self.kind}] {self.controller}/{self.subject}: {self.message}"


# ----------------------------------------------------------------------
# tree-level invariants
# ----------------------------------------------------------------------
def check_tree_structure(controller: "PleromaController") -> list[Violation]:
    """Every tree's parent map must be a cycle-free arborescence."""
    from repro.exceptions import ControllerError

    violations: list[Violation] = []
    for tree in _sorted_trees(controller):
        try:
            tree._validate()
        except ControllerError as exc:
            violations.append(
                Violation(
                    kind="tree_cycle",
                    controller=controller.name,
                    subject=f"tree:{tree.tree_id}",
                    message=str(exc),
                    details={"tree_id": tree.tree_id, "root": tree.root},
                )
            )
    return violations


def check_tree_disjointness(controller: "PleromaController") -> list[Violation]:
    """``DZ(t) ∩ DZ(t') = ∅`` for all distinct trees (Sec. 3.2)."""
    violations: list[Violation] = []
    trees = _sorted_trees(controller)
    for i, t1 in enumerate(trees):
        for t2 in trees[i + 1:]:
            if t1.dz_set.overlaps(t2.dz_set):
                violations.append(
                    Violation(
                        kind="tree_overlap",
                        controller=controller.name,
                        subject=f"tree:{t1.tree_id}+{t2.tree_id}",
                        message=(
                            f"trees {t1.tree_id} and {t2.tree_id} own "
                            f"overlapping DZ: {t1.dz_set} vs {t2.dz_set}"
                        ),
                        details={
                            "tree_ids": [t1.tree_id, t2.tree_id],
                            "dz_sets": [
                                sorted(d.bits for d in t1.dz_set),
                                sorted(d.bits for d in t2.dz_set),
                            ],
                        },
                    )
                )
    return violations


# ----------------------------------------------------------------------
# table-level invariants
# ----------------------------------------------------------------------
def check_shadowing(controller: "PleromaController") -> list[Violation]:
    """No installed entry may be dead: fully shadowed by a coarser entry
    of strictly higher priority.

    The TCAM executes only the best ``(priority, prefix_len)`` match.  A
    coarser prefix matches every packet a finer one does, so a coarser
    entry with higher priority makes the finer entry unreachable — with
    the controller's ``priority == |dz|`` rule this never happens, which
    makes the check a detector for corrupted priorities.

    Only an entry's strictly coarser prefixes can shadow it, at most one
    per prefix length, so each entry probes its ancestors in the table's
    per-length buckets.  The witness is the longest ancestor with higher
    priority: the first one :meth:`~repro.network.flow.FlowTable.entries`
    lists.
    """
    violations: list[Violation] = []
    for name in sorted(controller.partition):
        table = controller.installed_table(name)
        for shadowed in table.entries():
            for shadowing in table.coarser_entries(shadowed.match):
                if shadowing.priority > shadowed.priority:
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


def check_table_drift(controller: "PleromaController") -> list[Violation]:
    """Installed tables must equal the ledger-derived desired state.

    In ``reconcile`` mode the desired table is unique and the comparison
    is exact (entries, action sets, priorities).  ``incremental`` mode
    legitimately leaves redundant entries behind, so the comparison is
    semantic: for every relevant dz the executed action set must match.
    The incremental DzTrie is also pinned against the from-scratch
    reconciler — drift between the two data structures is itself a bug.
    """
    violations: list[Violation] = []
    ledger_switches = set(controller.ledger.switches())
    for name in sorted(ledger_switches - controller.partition):
        violations.append(
            Violation(
                kind="foreign_flow",
                controller=controller.name,
                subject=name,
                message=(
                    f"controller {controller.name} holds contributions on "
                    f"switch {name!r} outside its partition"
                ),
                details={"switch": name},
            )
        )
    for name in sorted(controller.partition):
        table = controller.installed_table(name)
        contributions = controller.ledger.contributions(name)
        desired = desired_flows(contributions)
        trie = controller.ledger.trie(name)
        for dz in sorted(contributions, key=lambda d: (len(d), d.bits)):
            if trie.desired_entry(dz) != desired.get(dz):
                violations.append(
                    Violation(
                        kind="drift",
                        controller=controller.name,
                        subject=name,
                        message=(
                            f"DzTrie and reconciler disagree on {name} at "
                            f"dz {dz}"
                        ),
                        details={
                            "switch": name,
                            "dz": dz.bits,
                            "reason": "trie_mismatch",
                        },
                    )
                )
        if controller.install_mode == "reconcile":
            violations.extend(
                _exact_drift(controller.name, name, table, desired)
            )
        else:
            violations.extend(
                _semantic_drift(controller.name, name, table, desired)
            )
    return violations


def _exact_drift(
    controller_name: str,
    switch: str,
    table: "FlowTable",
    desired: dict[Dz, frozenset],
) -> Iterator[Violation]:
    installed = {entry.dz: entry for entry in table.entries()}
    for dz in sorted(
        set(installed) | set(desired), key=lambda d: (len(d), d.bits)
    ):
        entry = installed.get(dz)
        want = desired.get(dz)
        if entry is None:
            yield Violation(
                kind="drift",
                controller=controller_name,
                subject=switch,
                message=f"missing flow for dz {dz} on {switch}",
                details={
                    "switch": switch,
                    "dz": dz.bits,
                    "reason": "missing_entry",
                    "desired_actions": sorted(str(a) for a in (want or ())),
                },
            )
        elif want is None:
            yield Violation(
                kind="drift",
                controller=controller_name,
                subject=switch,
                message=f"stale flow for dz {dz} on {switch}",
                details={
                    "switch": switch,
                    "dz": dz.bits,
                    "reason": "extra_entry",
                    "installed_actions": sorted(str(a) for a in entry.actions),
                },
            )
        elif entry.actions != want or entry.priority != len(dz):
            yield Violation(
                kind="drift",
                controller=controller_name,
                subject=switch,
                message=(
                    f"flow for dz {dz} on {switch} diverges from desired "
                    f"state"
                ),
                details={
                    "switch": switch,
                    "dz": dz.bits,
                    "reason": "wrong_entry",
                    "installed_actions": sorted(str(a) for a in entry.actions),
                    "desired_actions": sorted(str(a) for a in want),
                    "installed_priority": entry.priority,
                    "desired_priority": len(dz),
                },
            )


def _semantic_drift(
    controller_name: str,
    switch: str,
    table: "FlowTable",
    desired: dict[Dz, frozenset],
) -> Iterator[Violation]:
    probes = {entry.dz for entry in table.entries()} | set(desired)
    desired_by_bits = {d.bits: actions for d, actions in desired.items()}
    for dz in sorted(probes, key=lambda d: (len(d), d.bits)):
        entry = table.best_match(dz_to_address(dz))
        executed = entry.actions if entry is not None else frozenset()
        # the finest desired dz covering dz: its longest prefix in desired
        wanted = frozenset()
        for i in range(len(dz.bits), -1, -1):
            covering = desired_by_bits.get(dz.bits[:i])
            if covering is not None:
                wanted = covering
                break
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


# ----------------------------------------------------------------------
# bookkeeping invariants
# ----------------------------------------------------------------------
def check_ledger(controller: "PleromaController") -> list[Violation]:
    """Ledger paths must reference live state, and live state must be
    fully wired into the ledger.

    * every :class:`~repro.controller.state.PathKey` references a live
      tree, advertisement and subscription (else ``stale_path``);
    * for every tree, publisher member and subscription, the installed
      region equals ``DZ^t(p) ∩ DZ(s)`` (``missing_path`` when too small,
      ``stale_path`` when too large);
    * every advertised region is owned by trees carrying the publisher
      (``uncovered_advertisement``).
    """
    violations: list[Violation] = []
    tree_ids = set(controller.trees.trees)
    advs = controller.advertisements
    subs = controller.subscriptions
    for key in sorted(
        controller.ledger.keys_for(),
        key=lambda k: (k.tree_id, k.adv_id, k.sub_id, k.dz.bits),
    ):
        missing = []
        if key.tree_id not in tree_ids:
            missing.append(f"tree {key.tree_id}")
        if key.adv_id not in advs:
            missing.append(f"advertisement {key.adv_id}")
        if key.sub_id not in subs:
            missing.append(f"subscription {key.sub_id}")
        if missing:
            violations.append(
                Violation(
                    kind="stale_path",
                    controller=controller.name,
                    subject=f"tree:{key.tree_id}",
                    message=(
                        f"ledger path (tree={key.tree_id}, adv={key.adv_id}, "
                        f"sub={key.sub_id}, dz={key.dz}) references dead "
                        f"state: {', '.join(missing)}"
                    ),
                    details={
                        "tree_id": key.tree_id,
                        "adv_id": key.adv_id,
                        "sub_id": key.sub_id,
                        "dz": key.dz.bits,
                        "missing": missing,
                    },
                )
            )
    for tree in _sorted_trees(controller):
        for adv_id in sorted(tree.publishers):
            pub = tree.publishers[adv_id]
            for sub_id in sorted(subs):
                sub_state = subs[sub_id]
                if pub.endpoint.name == sub_state.endpoint.name:
                    continue
                expected = pub.overlap.intersect(sub_state.dz_set)
                actual = DzSet.from_iterable(
                    key.dz
                    for key in controller.ledger.keys_for(
                        tree_id=tree.tree_id, adv_id=adv_id, sub_id=sub_id
                    )
                )
                if actual == expected:
                    continue
                too_small = not expected.subtract(actual).is_empty
                violations.append(
                    Violation(
                        kind="missing_path" if too_small else "stale_path",
                        controller=controller.name,
                        subject=f"tree:{tree.tree_id}",
                        message=(
                            f"tree {tree.tree_id}: installed region for "
                            f"publisher {adv_id} -> subscriber {sub_id} is "
                            f"{actual}, expected {expected}"
                        ),
                        details={
                            "tree_id": tree.tree_id,
                            "adv_id": adv_id,
                            "sub_id": sub_id,
                            "installed": sorted(d.bits for d in actual),
                            "expected": sorted(d.bits for d in expected),
                        },
                    )
                )
    for adv_id in sorted(advs):
        adv = advs[adv_id]
        owned = DzSet.of()
        for tree in _sorted_trees(controller):
            member = tree.publishers.get(adv_id)
            if member is not None:
                owned = owned.union(member.overlap)
        uncovered = adv.dz_set.subtract(owned)
        if not uncovered.is_empty:
            violations.append(
                Violation(
                    kind="uncovered_advertisement",
                    controller=controller.name,
                    subject=f"adv:{adv_id}",
                    message=(
                        f"advertisement {adv_id} region {uncovered} is "
                        f"owned by no tree"
                    ),
                    details={
                        "adv_id": adv_id,
                        "uncovered": sorted(d.bits for d in uncovered),
                    },
                )
            )
    return violations


# ----------------------------------------------------------------------
# forwarding-graph invariants (loop / blackhole / misdelivery freedom)
# ----------------------------------------------------------------------
@dataclass
class _Trace:
    """The static fan-out of one probe through the installed tables."""

    deliveries: list[tuple[str, int | None]]  # (host, rewritten dst)
    border_exits: list[tuple[str, int]]  # (switch, out_port)
    drops: list[str]  # switches that matched nothing (false-positive drop)
    misdirected: list[tuple[str, str]]  # (switch, switch hit by a rewrite)
    loops: list[tuple[str, str]]  # (from switch, revisited switch)
    bad_ports: list[tuple[str, int]]  # (switch, port with no link)


def check_forwarding(controller: "PleromaController") -> list[Violation]:
    """Statically disseminate a probe per (publisher, dz prefix) and
    verify the resulting forwarding graph.

    For every tree, every publisher member and every dz of its overlap,
    the probe set is the dz itself plus every strictly finer dz installed
    anywhere in the partition (the equivalence classes a real event could
    fall into).  Each probe must reach exactly the subscribers whose
    region covers it, visiting no switch twice and dying on no switch.
    """
    violations: list[Violation] = []
    port_maps = {
        name: _port_map(controller, name)
        for name in sorted(controller.partition)
    }
    # Probe candidates are the equivalence classes a real event can fall
    # into: every dz installed in some table, plus every dz a ledger path
    # was keyed at (entries for those may be redundancy-absorbed into
    # coarser flows, but events in them must still be routed correctly).
    # Sorted by bits, the candidates inside a dz form one contiguous run,
    # ``[dz.bits, dz.bits + "2")``, which two bisections find.
    candidates = sorted(
        {
            entry.dz
            for name in controller.partition
            for entry in controller.installed_table(name).entries()
        }
        | {key.dz for key in controller.ledger.keys_for()},
        key=lambda d: d.bits,
    )
    candidate_bits = [d.bits for d in candidates]
    subs = controller.subscriptions
    for tree in _sorted_trees(controller):
        for adv_id in sorted(tree.publishers):
            pub = tree.publishers[adv_id]
            probes: set[Dz] = set()
            for dz in pub.overlap:
                probes.add(dz)
                lo = bisect_left(candidate_bits, dz.bits)
                hi = bisect_left(candidate_bits, dz.bits + "2", lo)
                probes.update(candidates[lo:hi])
            # the region each subscriber wants from this publisher
            wanted = {
                sub_id: pub.overlap.intersect(subs[sub_id].dz_set)
                for sub_id in sorted(subs)
                if subs[sub_id].endpoint.name != pub.endpoint.name
            }
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
                # A lookup miss (trace.drops) is NOT a violation: table
                # miss means drop by design, and dropping false-positive
                # traffic mid-tree is exactly how the paper's coarse
                # flows behave.  A missing delivery to a *matching*
                # subscriber is what _check_deliveries flags below.
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
                    _check_deliveries(
                        controller, tree, adv_id, wanted, probe, trace
                    )
                )
    return violations


def _check_deliveries(
    controller: "PleromaController",
    tree,
    adv_id: int,
    wanted: dict[int, DzSet],
    probe: Dz,
    trace: _Trace,
) -> Iterator[Violation]:
    """``wanted`` maps each subscription (in id order, the publisher's own
    endpoint excluded) to the region it must receive from the publisher."""
    subs = controller.subscriptions
    delivered_hosts = {host for host, _ in trace.deliveries}
    exits = set(trace.border_exits)
    # every matching subscriber must be reached
    for sub_id, region in wanted.items():
        if not region.covers_dz(probe):
            continue
        ep = subs[sub_id].endpoint
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


def _disseminate(
    controller: "PleromaController",
    port_maps: dict[str, dict[int, str]],
    origin: "Endpoint",
    probe: Dz,
) -> _Trace:
    """Statically replay the switch data plane for one probe address.

    Mirrors :meth:`repro.network.switch.Switch.receive` exactly: best
    ``(priority, prefix_len)`` match only, and a packet is never bounced
    back out its ingress port unless the action rewrites the destination
    (a terminal delivery).
    """
    address = dz_to_address(probe)
    trace = _Trace([], [], [], [], [], [])
    start = origin.switch
    visited = {start}
    queue: deque[tuple[str, int]] = deque([(start, origin.port)])
    while queue:
        switch, in_port = queue.popleft()
        entry = controller.installed_table(switch).best_match(address)
        if entry is None:
            trace.drops.append(switch)
            continue
        ports = port_maps[switch]
        # keyed sort: corrupted states may mix None/int set_dest on one port
        for action in sorted(
            entry.actions,
            key=lambda a: (a.out_port, a.set_dest if a.set_dest is not None else -1),
        ):
            if action.out_port == in_port and action.set_dest is None:
                continue  # ingress-port suppression, as the switch does
            neighbor = ports.get(action.out_port)
            if neighbor is None:
                trace.bad_ports.append((switch, action.out_port))
            elif neighbor in controller.network.hosts:
                trace.deliveries.append((neighbor, action.set_dest))
            elif action.set_dest is not None:
                # a rewriting (terminal) action aimed at a switch: the
                # unicast packet matches no dz prefix there and dies
                trace.misdirected.append((switch, neighbor))
            elif neighbor not in controller.partition:
                trace.border_exits.append((switch, action.out_port))
            elif neighbor in visited:
                trace.loops.append((switch, neighbor))
            else:
                visited.add(neighbor)
                queue.append(
                    (neighbor, controller.network.port(neighbor, switch))
                )
    return trace


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _sorted_trees(controller: "PleromaController"):
    return sorted(controller.trees, key=lambda t: t.tree_id)


def _port_map(
    controller: "PleromaController", switch: str
) -> dict[int, str]:
    return {
        controller.network.port(switch, neighbor): neighbor
        for neighbor in controller.topology.neighbors(switch)
    }
