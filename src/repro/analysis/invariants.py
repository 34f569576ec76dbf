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

Every check takes the controller and an optional :class:`CheckCache`.  A
warm :class:`~repro.analysis.verify.Verifier` passes the same cache on
every run, and the table checks and the forwarding replays reuse what it
holds for the switches and ports nothing touched since; without one the
check starts from an empty cache, which is the cold reference run.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.controller.reconciler import desired_flows
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.core.dzset import DzSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.controller.controller import PleromaController
    from repro.controller.state import Endpoint
    from repro.network.flow import Action, FlowTable

__all__ = [
    "CheckCache",
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


class CheckCache:
    """What a warm verifier remembers about one controller between runs.

    * ``drift`` and ``shadowing`` map a switch to its last result, under
      the key it was computed with: ``(table, table.version, ledger
      version of the switch)`` for drift, ``(table, table.version)`` for
      shadowing, which reads nothing else.
    * ``replays`` maps ``(origin switch, origin port, probe bits)`` to the
      last :func:`_disseminate` trace.  A trace lists the ``(switch,
      table, version, best-match actions)`` of every table it looked up
      and the ``(switch, port, neighbour)`` of every port-map entry it
      read, and is reused only while the same tables are installed, each
      one's version or else its best-match action set for the probe is
      unchanged, and every port-map entry is unchanged.  Each forwarding
      run keeps just the replays it used, so the cache never outgrows
      one run.

    All of it is keyed on the controller's partition, install mode and
    ledger object as well (:meth:`sync` drops everything when one of them
    changes).  Cached results are reused dirty or clean.  What the fault
    injectors edit in place without a version (subscriptions, trees) is
    never cached: the probe sets, wanted regions and delivery checks are
    recomputed on every run.
    """

    def __init__(self) -> None:
        self.scope: tuple | None = None
        self.drift: dict[str, tuple[tuple, list[Violation]]] = {}
        self.shadowing: dict[str, tuple[tuple, list[Violation]]] = {}
        self.replays: dict[tuple[str, int, str], _Trace] = {}

    def sync(self, controller: "PleromaController") -> None:
        """Drop everything if the controller's scope moved."""
        scope = (
            controller.name,
            frozenset(controller.partition),
            controller.install_mode,
            controller.ledger,
        )
        if scope != self.scope:
            self.scope = scope
            self.drift.clear()
            self.shadowing.clear()
            self.replays.clear()


def _warm(
    controller: "PleromaController", cache: CheckCache | None
) -> CheckCache:
    """``cache`` brought up to the controller's scope, or a fresh one."""
    if cache is None:
        cache = CheckCache()
    cache.sync(controller)
    return cache


def _memo(
    results: dict[str, tuple[tuple, list[Violation]]],
    switch: str,
    key: tuple,
    compute: Callable[..., Iterable[Violation]],
    *args: object,
) -> list[Violation]:
    """``results[switch]`` if it was computed under ``key``, else
    ``compute(*args)``, remembered under ``key``."""
    hit = results.get(switch)
    if hit is None or hit[0] != key:
        hit = results[switch] = (key, list(compute(*args)))
    return hit[1]


# ----------------------------------------------------------------------
# tree-level invariants
# ----------------------------------------------------------------------
def check_tree_structure(
    controller: "PleromaController", cache: CheckCache | None = None
) -> list[Violation]:
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


def check_tree_disjointness(
    controller: "PleromaController", cache: CheckCache | None = None
) -> list[Violation]:
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
def check_shadowing(
    controller: "PleromaController", cache: CheckCache | None = None
) -> list[Violation]:
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
    cache = _warm(controller, cache)
    violations: list[Violation] = []
    for name in sorted(controller.partition):
        table = controller.installed_table(name)
        violations.extend(
            _memo(
                cache.shadowing,
                name,
                (table, table.version),
                _dead_rules,
                controller.name,
                name,
                table,
            )
        )
    return violations


def _dead_rules(
    controller_name: str, switch: str, table: "FlowTable"
) -> Iterator[Violation]:
    for shadowed in table.entries():
        for shadowing in table.coarser_entries(shadowed.match):
            if shadowing.priority > shadowed.priority:
                yield Violation(
                    kind="shadowed_rule",
                    controller=controller_name,
                    subject=switch,
                    message=(
                        f"entry {shadowed} on {switch} can never "
                        f"match: shadowed by {shadowing}"
                    ),
                    details={
                        "switch": switch,
                        "dead_dz": shadowed.dz.bits,
                        "dead_priority": shadowed.priority,
                        "shadowing_dz": shadowing.dz.bits,
                        "shadowing_priority": shadowing.priority,
                    },
                )
                break  # one witness per dead entry is enough


def check_table_drift(
    controller: "PleromaController", cache: CheckCache | None = None
) -> list[Violation]:
    """Installed tables must equal the ledger-derived desired state.

    In ``reconcile`` mode the desired table is unique and the comparison
    is exact (entries, action sets, priorities).  ``incremental`` mode
    legitimately leaves redundant entries behind, so the comparison is
    semantic: for every relevant dz the executed action set must match.
    The incremental DzTrie is also pinned against the from-scratch
    reconciler — drift between the two data structures is itself a bug.
    """
    cache = _warm(controller, cache)
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
    ledger = controller.ledger
    for name in sorted(controller.partition):
        table = controller.installed_table(name)
        violations.extend(
            _memo(
                cache.drift,
                name,
                (table, table.version, ledger.version(name)),
                _switch_drift,
                controller,
                name,
                table,
            )
        )
    return violations


def _switch_drift(
    controller: "PleromaController", switch: str, table: "FlowTable"
) -> Iterator[Violation]:
    """One switch's drift: the trie pin, then the table comparison."""
    contributions = controller.ledger.contributions(switch)
    desired = desired_flows(contributions)
    trie = controller.ledger.trie(switch)
    for dz in sorted(contributions, key=lambda d: (len(d), d.bits)):
        if trie.desired_entry(dz) != desired.get(dz):
            yield Violation(
                kind="drift",
                controller=controller.name,
                subject=switch,
                message=(
                    f"DzTrie and reconciler disagree on {switch} at "
                    f"dz {dz}"
                ),
                details={
                    "switch": switch,
                    "dz": dz.bits,
                    "reason": "trie_mismatch",
                },
            )
    if controller.install_mode == "reconcile":
        yield from _exact_drift(controller.name, switch, table, desired)
    else:
        yield from _semantic_drift(controller.name, switch, table, desired)


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
def check_ledger(
    controller: "PleromaController", cache: CheckCache | None = None
) -> list[Violation]:
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
    """The static fan-out of one probe through the installed tables, and
    what it read to get there (the keys of a cached replay)."""

    deliveries: list[tuple[str, int | None]] = field(default_factory=list)
    # (switch, out_port)
    border_exits: list[tuple[str, int]] = field(default_factory=list)
    # switches that matched nothing (false-positive drop)
    drops: list[str] = field(default_factory=list)
    # (switch, switch hit by a rewrite)
    misdirected: list[tuple[str, str]] = field(default_factory=list)
    loops: list[tuple[str, str]] = field(default_factory=list)  # (from, to)
    bad_ports: list[tuple[str, int]] = field(default_factory=list)
    address: int = 0  # the probe address the replay looked up
    # (switch, table, table.version, actions of the best match or None)
    # of every lookup
    tables_read: list[
        tuple[str, "FlowTable", int, frozenset["Action"] | None]
    ] = field(default_factory=list)
    # (switch, out_port, port-map entry) of every output considered
    ports_read: list[tuple[str, int, str | None]] = field(
        default_factory=list
    )

    def still_valid(
        self,
        tables: dict[str, "FlowTable"],
        port_maps: dict[str, dict[int, str]],
    ) -> bool:
        """Whether a replay now would read exactly what this one read,
        given the partition's tables and port maps as they are now.

        A replay reads nothing of a table but the action set of its best
        match for the probe, so a table whose version moved is looked up
        once more: the same actions keep the replay, under the new
        version.
        """
        reads = self.tables_read
        for i, (switch, table, version, actions) in enumerate(reads):
            if tables.get(switch) is not table:
                return False
            if table.version != version:
                entry = table.best_match(self.address)
                if (entry.actions if entry is not None else None) != actions:
                    return False
                reads[i] = (switch, table, table.version, actions)
        for switch, port, neighbor in self.ports_read:
            if port_maps[switch].get(port) != neighbor:
                return False
        return True


def check_forwarding(
    controller: "PleromaController", cache: CheckCache | None = None
) -> list[Violation]:
    """Statically disseminate a probe per (publisher, dz prefix) and
    verify the resulting forwarding graph.

    For every tree, every publisher member and every dz of its overlap,
    the probe set is the dz itself plus every strictly finer dz installed
    anywhere in the partition (the equivalence classes a real event could
    fall into).  Each probe must reach exactly the subscribers whose
    region covers it, visiting no switch twice and dying on no switch.

    Replays come from ``cache`` while still valid (see :class:`CheckCache`).
    """
    cache = _warm(controller, cache)
    cached = cache.replays
    replays: dict[tuple[str, int, str], _Trace] = {}
    violations: list[Violation] = []
    port_maps = {
        name: _port_map(controller, name)
        for name in sorted(controller.partition)
    }
    tables = {
        name: controller.installed_table(name) for name in controller.partition
    }
    # Probe candidates are the equivalence classes a real event can fall
    # into: every dz installed in some table, plus every dz a ledger path
    # was keyed at (entries for those may be redundancy-absorbed into
    # coarser flows, but events in them must still be routed correctly).
    # Sorted by bits, the candidates inside a dz form one contiguous run,
    # ``[dz.bits, dz.bits + "2")``, which two bisections find.
    # Keyed by bits: a str caches its hash, a Dz recomputes it.
    by_bits = {
        entry.dz.bits: entry.dz
        for table in tables.values()
        for entry in table.entries()
    }
    for key in controller.ledger.keys_for():
        by_bits.setdefault(key.dz.bits, key.dz)
    candidate_bits = sorted(by_bits)
    candidates = [by_bits[bits] for bits in candidate_bits]
    subs = controller.subscriptions
    for tree in _sorted_trees(controller):
        for adv_id in sorted(tree.publishers):
            pub = tree.publishers[adv_id]
            probes: dict[str, Dz] = {}
            for dz in pub.overlap:
                probes[dz.bits] = dz
                lo = bisect_left(candidate_bits, dz.bits)
                hi = bisect_left(candidate_bits, dz.bits + "2", lo)
                probes.update(zip(candidate_bits[lo:hi], candidates[lo:hi]))
            # the region each subscriber wants from this publisher
            wanted = {
                sub_id: pub.overlap.intersect(subs[sub_id].dz_set)
                for sub_id in sorted(subs)
                if subs[sub_id].endpoint.name != pub.endpoint.name
            }
            start = pub.endpoint
            for probe in sorted(
                probes.values(), key=lambda d: (len(d.bits), d.bits)
            ):
                replay = (start.switch, start.port, probe.bits)
                trace = replays.get(replay)
                if trace is None:
                    trace = cached.get(replay)
                    if trace is None or not trace.still_valid(
                        tables, port_maps
                    ):
                        trace = _disseminate(
                            controller, port_maps, start, probe
                        )
                    replays[replay] = trace
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
    cache.replays = replays
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
    if not trace.deliveries and not exits:
        return
    matching_hosts: set[str] = set()
    matching_exits: set[tuple[str, int]] = set()
    for s in subs.values():
        if s.dz_set.overlaps_dz(probe):
            ep = s.endpoint
            if ep.is_virtual:
                matching_exits.add((ep.switch, ep.port))
            else:
                matching_hosts.add(ep.name)
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
    trace = _Trace(address=address)
    start = origin.switch
    visited = {start}
    queue: deque[tuple[str, int]] = deque([(start, origin.port)])
    while queue:
        switch, in_port = queue.popleft()
        table = controller.installed_table(switch)
        entry = table.best_match(address)
        trace.tables_read.append(
            (
                switch,
                table,
                table.version,
                entry.actions if entry is not None else None,
            )
        )
        if entry is None:
            trace.drops.append(switch)
            continue
        ports = port_maps[switch]
        # a keyed sort: corrupted states may mix None/int set_dest on one port
        for action in entry.sorted_actions():
            if action.out_port == in_port and action.set_dest is None:
                continue  # ingress-port suppression, as the switch does
            neighbor = ports.get(action.out_port)
            trace.ports_read.append((switch, action.out_port, neighbor))
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
