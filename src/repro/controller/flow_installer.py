"""The literal incremental flow-addition of Algorithm 1 (lines 31–51).

``flow_addition`` applies one new flow to one switch table, following the
paper's five cases:

1. nothing installed — add the new flow ``fl_n``;
2. an existing flow covers ``fl_n`` — do nothing;
3. ``fl_n`` covers an existing flow — delete the existing one;
4. an existing flow *partially* covers ``fl_n`` — add ``fl_n`` with the
   existing flow's out ports merged in and a higher priority;
5. ``fl_n`` partially covers an existing flow — update the existing flow to
   include the new out ports and hold higher priority than ``fl_n``.

Like the paper, priorities are realised by ``|dz|`` (longer dz = higher
priority), which maintains exactly the invariant cases 4/5 aim at: the
single best TCAM match must subsume everything a coarser flow would do.

The declarative reconciler in :mod:`repro.controller.reconciler` computes
the same forwarding behaviour from scratch; a property-based test asserts
the two agree on every address after every addition.  One deliberate
refinement over the paper's literal listing: after case 4 enlarges
``fl_n``'s action set, the case-3 deletion check is re-run, so flows that
*became* redundant through the merge are removed as well.  (The literal
order would leave them installed; they are behaviourally harmless but make
tables non-minimal.)
"""

from __future__ import annotations

from repro.core.dz import Dz
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import IdAllocator

__all__ = ["flow_addition"]


def _count_case(registry: MetricsRegistry | None, case: str) -> None:
    if registry is not None:
        registry.counter("flow_installer.case_hits", case=case).inc()


def flow_addition(
    table: FlowTable,
    dz: Dz,
    actions: frozenset[Action] | set[Action],
    ids: IdAllocator,
    registry: MetricsRegistry | None = None,
) -> int:
    """Install a flow for ``dz``/``actions`` into ``table``.

    Returns the number of flow-mod messages (adds + modifies + deletes)
    the operation cost.  The new entry's cookie is the next of ``ids``'
    ``cookie`` sequence.  When a ``registry`` is given, per-case hit
    counters (``flow_installer.case_hits{case=1..5}``) record which of the
    paper's five situations the workload actually exercises.
    """
    fl_new = FlowEntry.for_dz(dz, actions, cookie=ids.next("cookie"))
    current = table.entries()

    # Case 2: an existing flow fully covers the new one — no action needed.
    if any(fl_ex.covers(fl_new) for fl_ex in current):
        _count_case(registry, "2")
        return 0

    mods = 0

    # Case 4: existing coarser flows partially covering fl_new donate their
    # actions; the longer dz already outranks them in priority.
    merged_actions = set(fl_new.actions)
    for fl_ex in current:
        if fl_ex.partially_covers(fl_new):
            merged_actions |= fl_ex.actions
            _count_case(registry, "4")
    fl_new = fl_new.with_actions(frozenset(merged_actions))

    # Case 3: delete existing flows the (possibly enlarged) new flow covers.
    for fl_ex in current:
        if fl_new.covers(fl_ex) and fl_ex.match != fl_new.match:
            table.remove(fl_ex.match)
            mods += 1
            _count_case(registry, "3")

    # Case 5: existing finer flows partially covered by fl_new must absorb
    # the new actions so their higher-priority match keeps subsuming it.
    for fl_ex in table.entries():
        if fl_new.partially_covers(fl_ex) and fl_ex.match != fl_new.match:
            table.install(fl_ex.with_actions(fl_ex.actions | fl_new.actions))
            mods += 1
            _count_case(registry, "5")

    # Case 1 (and the add of cases 3-5): install the new flow.  If an entry
    # with the same match exists, merge actions instead of shadowing it.
    existing_same = table.get(fl_new.match)
    if existing_same is not None:
        fl_new = fl_new.with_actions(fl_new.actions | existing_same.actions)
    table.install(fl_new)
    _count_case(registry, "1")
    return mods + 1
