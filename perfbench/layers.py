"""The layer boundaries the traced run times.

Each :class:`Target` names one public function of ``src/repro`` and the
per-layer metric name it reports under.  Layers are named after their
modules (``core.dzset.union`` is ``DzSet.union`` in ``repro.core.dzset``).
A few functions are private in the program but are the only place a
per-layer count exists (the detector's verdict fan-out, the telemetry
reply handler); they are named for what they count.

:func:`per_layer_metrics` turns a finished trace into the flat metric dict
the runner prints; :data:`METRICS` is the fixed list of those names.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    name: str                  # per-layer metric prefix
    module: str                # module that defines the function
    cls: str | None            # owning class, or None for a module function
    attr: str                  # attribute to wrap
    probe: Callable[..., float] | None = None   # per-call size probe


def _binary_size(self, other, *_args, **_kwargs) -> float:
    return len(self.members) + len(other.members)


def _unary_size(self, *_args, **_kwargs) -> float:
    return len(self.members)


TARGETS: tuple[Target, ...] = (
    # discrete-event engine: ``step`` is one dispatched event; ``run`` minus
    # its callbacks is the loop's own overhead
    Target("sim.engine.run", "repro.sim.engine", "Simulator", "run"),
    Target("sim.engine.step", "repro.sim.engine", "Simulator", "step"),
    # data plane
    Target("network.switch.receive", "repro.network.switch", "Switch", "receive"),
    Target("network.flow.lookup", "repro.network.flow", "FlowTable", "lookup"),
    Target("network.flow.install", "repro.network.flow", "FlowTable", "install"),
    Target("network.flow.remove", "repro.network.flow", "FlowTable", "remove"),
    Target("network.link.transmit", "repro.network.link", "Link", "transmit"),
    Target("network.host.send", "repro.network.host", "Host", "send"),
    Target("network.host.receive", "repro.network.host", "Host", "receive"),
    # middleware facade and delivery classification
    Target("middleware.publish", "repro.middleware.pleroma", "Pleroma", "publish"),
    Target("middleware.delivery.matches", "repro.core.subscription",
           "Subscription", "matches"),
    # indexing and DZ-set algebra
    Target("core.spatial_index.filter_to_dzset", "repro.core.spatial_index",
           "SpatialIndexer", "filter_to_dzset"),
    Target("core.spatial_index.event_to_dz", "repro.core.spatial_index",
           "SpatialIndexer", "event_to_dz"),
    Target("core.dzset.union", "repro.core.dzset", "DzSet", "union",
           _binary_size),
    Target("core.dzset.intersect", "repro.core.dzset", "DzSet", "intersect",
           _binary_size),
    Target("core.dzset.intersect_dz", "repro.core.dzset", "DzSet",
           "intersect_dz", _unary_size),
    Target("core.dzset.subtract", "repro.core.dzset", "DzSet", "subtract",
           _binary_size),
    Target("core.dzset.overlaps_dz", "repro.core.dzset", "DzSet",
           "overlaps_dz", _unary_size),
    # control plane
    Target("controller.subscribe", "repro.controller.controller",
           "PleromaController", "subscribe"),
    Target("controller.unsubscribe", "repro.controller.controller",
           "PleromaController", "unsubscribe"),
    Target("controller.tree.join_subscriber", "repro.controller.tree",
           "SpanningTree", "join_subscriber"),
    Target("controller.tree_manager.overlapping",
           "repro.controller.tree_manager", "TreeManager", "overlapping"),
    Target("controller.tree_manager.merge", "repro.controller.tree_manager",
           "TreeManager", "merge"),
    Target("controller.state.ledger_add", "repro.controller.state",
           "FlowLedger", "add"),
    Target("controller.state.remove_keys_where", "repro.controller.state",
           "FlowLedger", "remove_keys_where"),
    Target("controller.dztrie.desired_entry", "repro.controller.dztrie",
           "DzTrie", "desired_entry"),
    Target("controller.applier.install", "repro.controller.applier",
           "DirectApplier", "install"),
    Target("controller.applier.remove", "repro.controller.applier",
           "DirectApplier", "remove"),
    Target("controller.reconciler.desired_flows", "repro.controller.reconciler",
           None, "desired_flows"),
    Target("controller.reconciler.diff_table", "repro.controller.reconciler",
           None, "diff_table"),
    # self-healing and verification
    Target("resilience.orchestrator.on_event", "repro.resilience.orchestrator",
           "RecoveryOrchestrator", "on_event"),
    Target("resilience.repair.plan", "repro.resilience.repair",
           "RepairPlanner", "plan"),
    Target("resilience.detector.verdicts", "repro.resilience.detector",
           "FailureDetector", "_emit"),
    Target("analysis.verify.verify_controller", "repro.analysis.verify", None,
           "verify_controller"),
    Target("analysis.invariants.check_forwarding", "repro.analysis.invariants",
           None, "check_forwarding"),
    Target("analysis.invariants.check_shadowing", "repro.analysis.invariants",
           None, "check_shadowing"),
    Target("analysis.invariants.check_table_drift",
           "repro.analysis.invariants", None, "check_table_drift"),
    # FPR evaluation
    Target("analysis.fpr.assign_round_robin", "repro.analysis.fpr", None,
           "assign_round_robin"),
    Target("analysis.fpr.evaluate_fpr", "repro.analysis.fpr", None,
           "evaluate_fpr"),
    # observability hooks
    Target("obs.flight.add", "repro.obs.flight", "FlightRecorder", "add"),
    Target("obs.telemetry.replies", "repro.obs.telemetry", "StatsPoller",
           "_on_reply"),
)

#: DZ-set operations whose probe feeds ``core.dzset.members_in``.
_DZSET_PROBED = tuple(t.name for t in TARGETS if t.probe is not None)

#: Every per-layer metric with its unit: calls and mean self time per
#: target, then ratios and counts derived from the trace and from the
#: workload's own delivery and request counts.
METRICS: tuple[tuple[str, str], ...] = tuple(
    pair
    for target in TARGETS
    for pair in ((f"{target.name}.calls", "count"),
                 (f"{target.name}.self_us", "us"))
) + (
    ("network.host.dropped", "count"),
    ("middleware.delivery.matches_per_delivery", "ratio"),
    ("middleware.delivery.false_positive_share", "ratio"),
    ("controller.flow_mods_per_request", "ratio"),
    ("core.dzset.members_in", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def per_layer_metrics(
    by_name: dict[str, tuple[int, float, float]],
    probes: dict[str, list],
    counts: dict[str, float],
    root: str,
    untraced_s: float,
) -> dict[str, float]:
    """Flatten a trace into ``metric name -> value``.

    ``by_name`` is :meth:`tracer.Tracer.by_name`; ``root`` is the span that
    wraps the traced timed phase, whose self time is the part no layer
    claims; ``counts`` are the workload's own delivery/request counts and
    ``untraced_s`` the same phase's wall time with tracing off.
    """
    out: dict[str, float] = {}
    for target in TARGETS:
        calls, _total, own = by_name.get(target.name, (0, 0.0, 0.0))
        out[f"{target.name}.calls"] = calls
        out[f"{target.name}.self_us"] = own / calls * 1e6 if calls else 0.0
    _calls, root_total, root_self = by_name[root]
    observations = sum(probes.get(n, (0, 0.0))[0] for n in _DZSET_PROBED)
    members = sum(probes.get(n, (0, 0.0))[1] for n in _DZSET_PROBED)
    deliveries = counts.get("deliveries", 0)
    requests = counts.get("requests", 0)
    out["network.host.dropped"] = counts.get("host_dropped", 0)
    out["middleware.delivery.matches_per_delivery"] = (
        out["middleware.delivery.matches.calls"] / deliveries
        if deliveries else 0.0
    )
    out["middleware.delivery.false_positive_share"] = (
        counts.get("unwanted", 0) / deliveries if deliveries else 0.0
    )
    out["controller.flow_mods_per_request"] = (
        counts.get("flow_mods", 0) / requests if requests else 0.0
    )
    out["core.dzset.members_in"] = (
        members / observations if observations else 0.0
    )
    out["trace.unattributed_share"] = root_self / root_total
    out["trace.overhead_share"] = (
        (root_total - untraced_s) / untraced_s if untraced_s else 0.0
    )
    return out
