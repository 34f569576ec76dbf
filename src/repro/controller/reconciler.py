"""Declarative flow computation: contributions -> desired flow table.

This is the closed-form counterpart of Algorithm 1's incremental cases 1–5
(see :mod:`repro.controller.flow_installer` for the literal version).  Given
the aggregated contributions of a switch — every ``(dz, action set)`` some
installed path needs — the desired table is:

* one flow per *needed* dz.  A contributed dz is redundant when some coarser
  contributed dz already implies the same cumulative action set (this is
  case 2/3 of the paper: a covering flow makes the finer one unnecessary);
* the flow for dz carries the **cumulative** action set — the union of the
  actions of every contribution at dz or coarser.  TCAM executes only the
  single best match, so a fine flow must subsume what any coarser flow
  would have done for the same packet (cases 4/5: ports of partially
  covering flows are merged);
* priority equals ``|dz|``, so finer subspaces win, which is exactly the
  paper's priority-order rule (Fig. 3).

Reconciliation (diffing desired vs installed) then yields precisely the
paper's unsubscription behaviour: a flow whose last fine-grained
contribution left is *deleted* if nothing coarser needs the switch, or
*downgraded* to the surviving coarser dz (the Fig. 4 / Sec. 3.3.3 example
is a unit test).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from repro.core.dz import Dz
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.sim.engine import IdAllocator

__all__ = ["desired_flows", "FlowDiff", "diff_table", "apply_diff"]


def desired_flows(
    contributions: Mapping[Dz, frozenset[Action]],
) -> dict[Dz, frozenset[Action]]:
    """The minimal flow set realising the given contributions.

    Returns ``{dz: cumulative action set}`` for every needed dz, in the
    iteration order of ``contributions``.  The coarser contributions of a
    dz are its prefixes, so each dz walks its ``|dz|`` ancestors in a
    dict keyed by bits: ``O(C·L)`` for ``C`` contributions of length at
    most ``L``.
    """
    by_bits = {dz.bits: actions for dz, actions in contributions.items()}
    desired: dict[Dz, frozenset[Action]] = {}
    for dz, actions in contributions.items():
        bits = dz.bits
        parent_cumulative: set[Action] = set()
        has_coarser = False
        for i in range(len(bits)):
            coarser = by_bits.get(bits[:i])
            if coarser is not None:
                parent_cumulative |= coarser
                has_coarser = True
        cumulative = parent_cumulative | actions
        if has_coarser and cumulative == parent_cumulative:
            continue  # fully implied by coarser flows — redundant
        desired[dz] = frozenset(cumulative)
    return desired


@dataclass(frozen=True)
class FlowDiff:
    """Flow-mod messages needed to move a table to the desired state."""

    additions: tuple[FlowEntry, ...]
    modifications: tuple[FlowEntry, ...]
    deletions: tuple[FlowEntry, ...]

    @property
    def total_mods(self) -> int:
        """Number of control-channel messages this diff costs."""
        return len(self.additions) + len(self.modifications) + len(self.deletions)

    @property
    def is_empty(self) -> bool:
        return self.total_mods == 0


def diff_table(
    table: FlowTable, desired: Mapping[Dz, frozenset[Action]], ids: IdAllocator
) -> FlowDiff:
    """Compute the flow mods taking ``table`` to the desired state; each
    addition takes the next of ``ids``' ``cookie`` sequence."""
    additions: list[FlowEntry] = []
    modifications: list[FlowEntry] = []
    deletions: list[FlowEntry] = []
    desired_remaining = dict(desired)
    for entry in table.entries():
        want = desired_remaining.pop(entry.dz, None)
        if want is None:
            deletions.append(entry)
        elif want != entry.actions or entry.priority != len(entry.dz):
            modifications.append(
                entry.with_actions(want).with_priority(len(entry.dz))
            )
    for dz, actions in desired_remaining.items():
        cookie = ids.next("cookie")
        additions.append(FlowEntry.for_dz(dz, actions, cookie=cookie))
    return FlowDiff(
        additions=tuple(additions),
        modifications=tuple(modifications),
        deletions=tuple(deletions),
    )


def apply_diff(table: FlowTable, diff: FlowDiff) -> None:
    """Apply a diff to a live table (deletion first, then mods, then adds)."""
    for entry in diff.deletions:
        table.remove(entry.match)
    for entry in diff.modifications:
        table.install(entry)
    for entry in diff.additions:
        table.install(entry)
