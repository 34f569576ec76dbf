"""Recovery orchestration: execute repair plans against a controller.

The :class:`RecoveryOrchestrator` is the one path that repairs a
controller's trees.  It runs a pass on every link verdict of a
:class:`~repro.resilience.detector.FailureDetector` and on every failure
reported directly (``Pleroma.fail_link`` / ``fail_switch``).  A pass:

1. syncs the controller's *planning topology* with the edges believed
   down (removing them; restoring them — with their original delay and
   bandwidth — when echoes return);
2. asks the :class:`~repro.resilience.repair.RepairPlanner` for a plan;
3. executes it inside one control request: suspend cut-off clients,
   re-deploy each planned tree through the controller's
   ``restructure_tree`` (the ledger/reconciler machinery applies the
   minimal diff), resume clients whose component rejoined;
4. proves the repaired deployment with the controller's warm
   :mod:`repro.analysis` static verifier (``controller.verifier``, which
   re-checks only what the pass changed) and records a
   :class:`RepairRecord` with the modeled repair latency (flow mods x
   control-channel round trip — wall-clock compute time is deliberately
   excluded so records are deterministic).

Execution order inside a pass matters: suspension must come *before* the
tree rebuilds (a detached member would make path installation fail), and
resumption *after* them (resuming first would lay paths over structures
about to be replaced).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass

from repro.controller.controller import (
    AdvertisementState,
    PleromaController,
    SubscriptionState,
)
from repro.exceptions import ControllerError
from repro.network.topology import LinkSpec
from repro.obs.context import Observability
from repro.resilience.detector import FailureEvent
from repro.resilience.repair import RepairPlan, RepairPlanner

__all__ = ["RecoveryOrchestrator", "RepairRecord"]


@dataclass(frozen=True)
class RepairRecord:
    """Outcome of one repair pass."""

    time: float                # sim time the repair executed
    trigger_kind: str          # detector event kind, or the failure kind
    trigger_subject: str       # "a<->b" or switch name
    degraded: bool             # surviving switch graph was split
    trees_rebuilt: int
    flow_mods: int
    suspended: int             # clients withdrawn by this pass
    resumed: int               # clients restored by this pass
    repair_latency_s: float    # modeled: flow_mods x flow_mod_latency_s
    verifier_ok: bool
    violations: int

    def to_dict(self) -> dict:
        return asdict(self)


class RecoveryOrchestrator:
    """Repairs one controller's deployment; the only code that does.

    Passes run on the verdicts of any detector it listens to
    (:meth:`on_event`) and on failures reported to it directly
    (:meth:`link_failed`, :meth:`switch_failed`).  Both share one set of
    edges believed down, so a failure reported directly is not repaired
    a second time when a detector later confirms it.
    """

    def __init__(
        self,
        controller: PleromaController,
        obs: Observability | None = None,
        verify: bool = True,
    ) -> None:
        self.controller = controller
        self.obs = obs if obs is not None else controller.obs
        self.verify = verify
        self.planner = RepairPlanner(controller)
        self.records: list[RepairRecord] = []
        self._down_edges: set[frozenset[str]] = set()
        self._saved_specs: dict[frozenset[str], LinkSpec] = {}
        # withdrawn clients, remembered verbatim until their switch rejoins
        self._suspended_advs: dict[int, AdvertisementState] = {}
        self._suspended_subs: dict[int, SubscriptionState] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def suspended_clients(self) -> int:
        return len(self._suspended_advs) + len(self._suspended_subs)

    def down_edges(self) -> list[tuple[str, str]]:
        return sorted(tuple(sorted(edge)) for edge in self._down_edges)

    # ------------------------------------------------------------------
    # failure reports
    # ------------------------------------------------------------------
    def on_event(self, event: FailureEvent) -> None:
        """React to one detector verdict.

        Switch verdicts are informational only — they always arrive
        together with the port verdicts of the switch's links, and those
        carry all the information repair needs.
        """
        if event.kind == "port-down":
            if self._take_down(*event.subject):
                self._repair(event.kind, event.subject)
        elif event.kind == "port-up":
            if self._bring_up(*event.subject):
                self._repair(event.kind, event.subject)

    def link_failed(self, a: str, b: str) -> None:
        """Repair at once after the switch link ``a``-``b`` died.

        One pass inside a ``link_failure`` control request, logged even
        when no tree used the link.  Raises :class:`ControllerError` if
        the link is not internal to the partition, or if losing it splits
        the partition: there is then no spanning tree to repair to.
        """
        controller = self.controller
        if a not in controller.partition or b not in controller.partition:
            raise ControllerError(
                f"link {a!r}<->{b!r} is not internal to partition "
                f"{controller.name!r}"
            )
        with controller._request("link_failure"):
            self._take_down(a, b)
            self._repair("link_failure", (a, b), request_kind=None)

    def switch_failed(self, name: str) -> None:
        """Repair at once after the switch ``name`` died.

        Inside one ``switch_failure`` request, clients attached to the
        dead switch are withdrawn for good (their hosts are unreachable),
        the switch leaves the partition, and one pass rebuilds every tree
        over the survivors.  Raises like :meth:`link_failed`.
        """
        controller = self.controller
        if name not in controller.partition:
            raise ControllerError(
                f"switch {name!r} is not in partition {controller.name!r}"
            )
        with controller._request("switch_failure"):
            for sub in list(controller.subscriptions.values()):
                if sub.endpoint.switch == name:
                    controller.unsubscribe(sub.sub_id)
            for adv in list(controller.advertisements.values()):
                if adv.endpoint.switch == name:
                    controller.unadvertise(adv.adv_id)
            for neighbor in controller.topology.neighbors(name):
                if controller.topology.is_switch(neighbor):
                    self._take_down(name, neighbor)
            controller.partition.discard(name)
            controller.trees.partition.discard(name)
            self._repair("switch_failure", (name,), request_kind=None)

    # ------------------------------------------------------------------
    # planning-topology sync
    # ------------------------------------------------------------------
    def _take_down(self, a: str, b: str) -> bool:
        """Drop an edge from the planning view; False if already down."""
        key = frozenset((a, b))
        if key in self._down_edges:
            return False
        self._down_edges.add(key)
        topology = self.controller.topology
        if topology.graph.has_edge(a, b):
            self._saved_specs[key] = topology.remove_link(a, b)
        return True

    def _bring_up(self, a: str, b: str) -> bool:
        """Restore an edge (original delay and bandwidth); False if it
        was not down."""
        key = frozenset((a, b))
        if key not in self._down_edges:
            return False
        self._down_edges.discard(key)
        topology = self.controller.topology
        spec = self._saved_specs.pop(key, LinkSpec(a, b))
        if not topology.graph.has_edge(a, b):
            topology.restore_link(spec)
        return True

    # ------------------------------------------------------------------
    # repair execution
    # ------------------------------------------------------------------
    def _repair(
        self,
        trigger_kind: str,
        subject: tuple[str, ...],
        request_kind: str | None = "repair",
    ) -> None:
        """Plan, execute (suspend → restructure → resume), verify, record.

        Work runs inside a ``request_kind`` control request.  None means
        a directly reported failure: the caller's request is already
        open, and a plan that splits the partition is refused.
        """
        controller = self.controller
        plan = self.planner.plan(self._suspended_advs, self._suspended_subs)
        if request_kind is None and plan.degraded:
            raise ControllerError(
                f"partition {controller.name!r} is disconnected: "
                f"components {plan.components}"
            )
        mods_before = controller.total_flow_mods
        rebuilt = 0
        with self.obs.tracer.span(
            "resilience",
            "repair",
            trigger=trigger_kind,
            subject="<->".join(subject),
            degraded=plan.degraded,
        ):
            if not plan.is_noop:
                with (
                    controller._request(request_kind)
                    if request_kind is not None
                    else nullcontext()
                ):
                    rebuilt = self._execute(plan)
            flow_mods = controller.total_flow_mods - mods_before
            report = controller.verifier.run() if self.verify else None
            self.records.append(
                RepairRecord(
                    time=controller.network.sim.now,
                    trigger_kind=trigger_kind,
                    trigger_subject="<->".join(subject),
                    degraded=plan.degraded,
                    trees_rebuilt=rebuilt,
                    flow_mods=flow_mods,
                    suspended=len(plan.suspend_subs) + len(plan.suspend_advs),
                    resumed=len(plan.resume_subs) + len(plan.resume_advs),
                    repair_latency_s=flow_mods * controller.flow_mod_latency_s,
                    verifier_ok=report is None or report.ok,
                    violations=0 if report is None else len(report.violations),
                )
            )

    def _execute(self, plan: RepairPlan) -> int:
        """Apply a plan's steps in order; returns the trees rebuilt."""
        controller = self.controller
        for sub_id in plan.suspend_subs:
            self._suspended_subs[sub_id] = controller.subscriptions[sub_id]
            controller.unsubscribe(sub_id)
        for adv_id in plan.suspend_advs:
            self._suspended_advs[adv_id] = controller.advertisements[adv_id]
            controller.unadvertise(adv_id)
        rebuilt = 0
        trees = {tree.tree_id: tree for tree in controller.trees}
        for repair in plan.tree_repairs:
            tree = trees.get(repair.tree_id)
            if tree is None:
                continue  # retired by the suspension pass
            controller.restructure_tree(tree, repair.root, repair.parents)
            rebuilt += 1
        for adv_id in plan.resume_advs:
            adv = self._suspended_advs.pop(adv_id)
            controller.advertise(
                adv.endpoint.name,
                adv.advertisement,
                dz_set=adv.dz_set,
                adv_id=adv_id,
            )
        for sub_id in plan.resume_subs:
            sub = self._suspended_subs.pop(sub_id)
            controller.subscribe(
                sub.endpoint.name,
                sub.subscription,
                dz_set=sub.dz_set,
                sub_id=sub_id,
            )
        return rebuilt

    def __repr__(self) -> str:
        return (
            f"RecoveryOrchestrator({len(self.records)} repairs, "
            f"{len(self._down_edges)} edges down, "
            f"{self.suspended_clients} clients suspended)"
        )
