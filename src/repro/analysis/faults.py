"""Seeded fault injection: the verifier's mutation-testing harness.

A static checker is only trustworthy if it demonstrably *fails* on broken
state.  Each injector here corrupts a live deployment the way a real
controller bug would — bypassing the bookkeeping, exactly like a lost
flow-mod or a missed cleanup — and declares which
:class:`~repro.analysis.invariants.Violation` kinds the verifier must then
report.  The test suite and ``python -m repro check --self-test`` run every
injector against fresh deployments and assert the detection.

Injectors mutate deterministically: selection is by sorted order plus an
explicit :class:`random.Random`, never by iteration order of a dict or set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.controller.tree import SpanningTree
from repro.exceptions import ReproError
from repro.network.flow import Action, FlowEntry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.controller.controller import PleromaController

__all__ = ["FaultInjection", "FAULT_INJECTORS", "inject_fault"]


class FaultInjectionError(ReproError):
    """The deployment holds no state the requested fault can corrupt."""


@dataclass(frozen=True)
class FaultInjection:
    """What an injector did, and what the verifier owes us for it."""

    name: str
    description: str
    expected_kinds: frozenset[str]


def _installed_entries(controller: "PleromaController"):
    """All (switch, entry) pairs, deterministically ordered."""
    pairs = []
    for name in sorted(controller.partition):
        for entry in controller.installed_table(name).entries():
            pairs.append((name, entry))
    pairs.sort(key=lambda pair: (pair[0], pair[1].dz.bits))
    return pairs


def drop_flow_mod(
    controller: "PleromaController", rng: random.Random
) -> FaultInjection:
    """A flow-mod the controller believes it sent never reached the TCAM."""
    pairs = _installed_entries(controller)
    if not pairs:
        raise FaultInjectionError("no installed flows to drop")
    switch, entry = pairs[rng.randrange(len(pairs))]
    controller.installed_table(switch).remove(entry.match)
    return FaultInjection(
        name="dropped_flow_mod",
        description=f"removed flow for dz {entry.dz} from {switch!r}",
        expected_kinds=frozenset({"drift"}),
    )


def flip_port(
    controller: "PleromaController", rng: random.Random
) -> FaultInjection:
    """A flow forwards out the wrong port (corrupted action)."""
    candidates = []
    for switch, entry in _installed_entries(controller):
        ports = sorted(controller.network.switches[switch].ports)
        for action in sorted(
            entry.actions,
            key=lambda a: (a.out_port, a.set_dest if a.set_dest is not None else -1),
        ):
            others = [p for p in ports if p != action.out_port]
            if others:
                candidates.append((switch, entry, action, others))
    if not candidates:
        raise FaultInjectionError("no multi-port switch flow to corrupt")
    switch, entry, action, others = candidates[rng.randrange(len(candidates))]
    flipped = Action(others[rng.randrange(len(others))], action.set_dest)
    actions = (entry.actions - {action}) | {flipped}
    controller.installed_table(switch).install(
        entry.with_actions(frozenset(actions))
    )
    return FaultInjection(
        name="flipped_port",
        description=(
            f"rewired dz {entry.dz} on {switch!r}: {action} -> {flipped}"
        ),
        expected_kinds=frozenset({"drift"}),
    )


def duplicate_tree_dz(
    controller: "PleromaController", rng: random.Random
) -> FaultInjection:
    """Two trees end up owning the same subspace (broken Sec. 3.2 invariant)."""
    trees = sorted(controller.trees, key=lambda t: t.tree_id)
    if not trees:
        raise FaultInjectionError("no tree whose DZ could be duplicated")
    victim = trees[rng.randrange(len(trees))]
    parents = controller.trees.tree_builder(
        controller.topology, controller.partition, victim.root
    )
    rogue = SpanningTree(
        victim.root, parents, victim.dz_set, controller.trees.ids.next("tree")
    )
    controller.trees.trees[rogue.tree_id] = rogue
    return FaultInjection(
        name="duplicated_tree_dz",
        description=(
            f"injected tree {rogue.tree_id} duplicating DZ "
            f"{victim.dz_set} of tree {victim.tree_id}"
        ),
        expected_kinds=frozenset({"tree_overlap"}),
    )


def stale_entry_after_unsubscribe(
    controller: "PleromaController", rng: random.Random
) -> FaultInjection:
    """An unsubscribe forgets its cleanup: the subscription state vanishes
    but its ledger paths and flows stay installed (Sec. 3.3.3 gone wrong)."""
    sub_ids = sorted(
        sub_id
        for sub_id in controller.subscriptions
        if controller.ledger.keys_for(sub_id=sub_id)
    )
    if not sub_ids:
        raise FaultInjectionError("no subscription with installed paths")
    sub_id = sub_ids[rng.randrange(len(sub_ids))]
    del controller.subscriptions[sub_id]
    for tree in controller.trees:
        tree.leave_subscriber(sub_id)
    return FaultInjection(
        name="stale_entry_after_unsubscribe",
        description=(
            f"dropped subscription {sub_id} without withdrawing its flows"
        ),
        expected_kinds=frozenset({"stale_path"}),
    )


#: All injectors, keyed by fault-class name.
FAULT_INJECTORS: dict[
    str, Callable[["PleromaController", random.Random], FaultInjection]
] = {
    "dropped_flow_mod": drop_flow_mod,
    "flipped_port": flip_port,
    "duplicated_tree_dz": duplicate_tree_dz,
    "stale_entry_after_unsubscribe": stale_entry_after_unsubscribe,
}


def inject_fault(
    controller: "PleromaController", name: str, seed: int = 0
) -> FaultInjection:
    """Inject one named fault class with a seeded RNG."""
    try:
        injector = FAULT_INJECTORS[name]
    except KeyError:
        raise FaultInjectionError(
            f"unknown fault class {name!r}; "
            f"choose from {sorted(FAULT_INJECTORS)}"
        ) from None
    return injector(controller, random.Random(seed))
