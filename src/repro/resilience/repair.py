"""Repair planning: what to rebuild, what to suspend, what to resume.

The planner is pure computation over the controller's *planning view*
(its topology, from which the orchestrator has already removed the edges
believed down): it never mutates controller state, which makes it
unit-testable in isolation and keeps the orchestrator a thin executor.
Every failure repair is planned here, whoever reported the failure:

* **multi-edge / switch loss** — the plan is computed against the whole
  surviving switch graph with the controller's tree builder, so any set
  of concurrent failures (including every link of a crashed switch) is
  handled by one pass;
* **degraded partial trees** — when the surviving graph is split, the
  *primary* component (largest; ties broken by smallest switch name, so
  the choice is deterministic) stays in service.  Trees are rebuilt as
  partial trees spanning only the primary component; clients attached
  elsewhere are **suspended** — withdrawn from the controller (their
  flows removed, their trees pruned or retired) but remembered with their
  DZ sets and ids, to be resumed verbatim when connectivity heals.  This
  keeps the deployed flow state *exactly consistent* with the controller's
  client set, which is what lets the :mod:`repro.analysis` verifier prove
  the repaired state loop- and blackhole-free with zero violations instead
  of reporting the cut-off subscribers as blackholes forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.controller.controller import (
    AdvertisementState,
    PleromaController,
    SubscriptionState,
)

__all__ = ["RepairPlanner", "RepairPlan", "TreeRepair"]


@dataclass
class TreeRepair:
    """New structure for one surviving tree."""

    tree_id: int
    root: str                  # possibly re-rooted into the primary component
    parents: dict[str, str]    # spans exactly the primary component


@dataclass
class RepairPlan:
    """Everything one repair pass must do, in execution order."""

    components: list[list[str]] = field(default_factory=list)
    primary: set[str] = field(default_factory=set)
    degraded: bool = False
    #: client ids to withdraw because their switch left the primary component
    suspend_subs: list[int] = field(default_factory=list)
    suspend_advs: list[int] = field(default_factory=list)
    #: previously suspended client ids whose switch is reachable again
    resume_advs: list[int] = field(default_factory=list)
    resume_subs: list[int] = field(default_factory=list)
    tree_repairs: list[TreeRepair] = field(default_factory=list)

    @property
    def is_noop(self) -> bool:
        return not (
            self.suspend_subs
            or self.suspend_advs
            or self.resume_advs
            or self.resume_subs
            or self.tree_repairs
        )


class RepairPlanner:
    """Computes :class:`RepairPlan` instances for one controller."""

    def __init__(self, controller: PleromaController) -> None:
        self.controller = controller

    # ------------------------------------------------------------------
    def surviving_components(self) -> list[set[str]]:
        """Connected components of the planning-view switch graph, largest
        first, ties broken by smallest member name (deterministic)."""
        sg = self.controller.topology.switch_graph(self.controller.partition)
        return sorted(
            (set(c) for c in nx.connected_components(sg)),
            key=lambda c: (-len(c), min(c)),
        )

    # ------------------------------------------------------------------
    def plan(
        self,
        suspended_advs: dict[int, AdvertisementState],
        suspended_subs: dict[int, SubscriptionState],
    ) -> RepairPlan:
        """Decide suspensions, resumptions and tree rebuilds.

        ``suspended_*`` is the orchestrator's memory of clients withdrawn
        by earlier repair passes; the plan resumes those whose switch is
        back inside the primary component.
        """
        controller = self.controller
        components = self.surviving_components()
        primary = components[0]
        plan = RepairPlan(
            components=[sorted(c) for c in components],
            primary=primary,
            degraded=len(components) > 1,
        )
        plan.suspend_subs = sorted(
            sub_id
            for sub_id, state in controller.subscriptions.items()
            if state.endpoint.switch not in primary
        )
        plan.suspend_advs = sorted(
            adv_id
            for adv_id, state in controller.advertisements.items()
            if state.endpoint.switch not in primary
        )
        plan.resume_advs = sorted(
            adv_id
            for adv_id, state in suspended_advs.items()
            if state.endpoint.switch in primary
        )
        plan.resume_subs = sorted(
            sub_id
            for sub_id, state in suspended_subs.items()
            if state.endpoint.switch in primary
        )
        suspended_now = set(plan.suspend_advs)
        for tree in sorted(controller.trees, key=lambda t: t.tree_id):
            live_publishers = set(tree.publishers) - suspended_now
            if not live_publishers:
                # the suspension pass retires publisher-less trees itself
                continue
            if tree.switches == primary and tree.root in primary:
                # structurally intact: spans exactly the surviving primary
                # component and only over surviving edges
                if all(
                    self._edge_alive(child, parent)
                    for child, parent in tree.parents.items()
                ):
                    continue
            root = tree.root
            if root not in primary:
                # deterministic re-root: the smallest access switch of a
                # surviving publisher (all live publishers are in primary
                # by construction of the suspension set)
                root = min(
                    controller.advertisements[adv_id].endpoint.switch
                    for adv_id in live_publishers
                )
            parents = controller.trees.tree_builder(
                controller.topology, controller.partition, root
            )
            plan.tree_repairs.append(TreeRepair(tree.tree_id, root, parents))
        return plan

    # ------------------------------------------------------------------
    def _edge_alive(self, a: str, b: str) -> bool:
        """Does the planning topology still contain this edge?"""
        return self.controller.topology.graph.has_edge(a, b)
