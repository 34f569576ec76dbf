"""The flow-state verifier: prove a controller snapshot correct, statically.

A :class:`Verifier` runs every invariant check of
:mod:`repro.analysis.invariants` over one controller and folds the results
into a :class:`VerificationReport`.  It is kept warm: its
:class:`~repro.analysis.invariants.CheckCache` carries the per-switch drift
and shadowing results and the forwarding replays from one run to the next,
and a run re-checks only the switches whose flow table or ledger version
moved and the replays that read a changed table or port-map entry.  Each
controller owns one (``controller.verifier``); the repair loop and the
``verify_after_each_request`` debug hook both run it.

:func:`verify_controller` is the reference: a run of a fresh
:class:`Verifier`, whose cache starts empty, so it computes everything.
The ``check`` CLI and its self-test use it, and a warm run returns a
report identical to it, violation order included
(``tests/properties/test_verifier_oracle.py``).
:func:`verify_deployment` runs it for every controller of a deployment (a
:class:`~repro.middleware.pleroma.Pleroma` facade or a bare controller
list).

Results are observable: each run increments ``analysis.verify.runs`` and
per-kind ``analysis.verify.violations`` counters in the controller's
metrics registry and emits one trace event per run, so churn workloads can
correlate violations with the request that introduced them.

The verifier never mutates the state it inspects, the data plane's
counters included: it replays tables through
:meth:`~repro.network.flow.FlowTable.best_match`, which leaves the
``lookups``/``misses`` the telemetry poller reports alone.  It raises
nothing on violations — callers decide whether a dirty report is fatal
(:class:`VerificationError` is provided for that, and is what the
controller's ``verify_after_each_request`` debug hook raises).

The table checks are near-linear in the installed state: shadowing, drift
and forwarding walk dz prefixes (ancestor probes, bisected candidate runs)
instead of comparing every pair of entries, contributions or candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

from repro.analysis.invariants import (
    CheckCache,
    Violation,
    check_forwarding,
    check_ledger,
    check_shadowing,
    check_table_drift,
    check_tree_disjointness,
    check_tree_structure,
)
from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.controller.controller import PleromaController

__all__ = [
    "VerificationError",
    "VerificationReport",
    "Verifier",
    "verify_controller",
    "verify_deployment",
    "CHECKS",
]


class VerificationError(ReproError):
    """Raised when a caller asked for violations to be fatal."""

    def __init__(self, report: "VerificationReport") -> None:
        self.report = report
        super().__init__(report.summary())


#: The check suite, in the order it runs.  Structural checks come first so
#: a report reads from root cause (state corruption) to symptom (bad
#: forwarding).  Each takes the controller and the run's
#: :class:`~repro.analysis.invariants.CheckCache`; the tree and ledger
#: checks read state the fault injectors edit in place, with no version
#: to key on, so they keep nothing in it.
CHECKS: tuple[tuple[str, Callable[..., list[Violation]]], ...] = (
    ("tree_structure", check_tree_structure),
    ("tree_disjointness", check_tree_disjointness),
    ("ledger", check_ledger),
    ("table_drift", check_table_drift),
    ("shadowing", check_shadowing),
    ("forwarding", check_forwarding),
)


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of one verifier run over one controller."""

    controller: str
    violations: tuple[Violation, ...]
    checks_run: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.kind] = counts.get(violation.kind, 0) + 1
        return dict(sorted(counts.items()))

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}

    def summary(self) -> str:
        if self.ok:
            return (
                f"controller {self.controller}: OK "
                f"({len(self.checks_run)} checks)"
            )
        breakdown = ", ".join(
            f"{kind}={count}" for kind, count in self.by_kind().items()
        )
        return (
            f"controller {self.controller}: {len(self.violations)} "
            f"violation(s) [{breakdown}]"
        )

    def to_dict(self) -> dict:
        return {
            "controller": self.controller,
            "ok": self.ok,
            "checks_run": list(self.checks_run),
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class Verifier:
    """The check suite over one controller, warm from one run to the next.

    Every run returns the report a cold :func:`verify_controller` run
    over the same state returns, violation order included; the cache only
    decides what is recomputed.
    """

    def __init__(self, controller: "PleromaController") -> None:
        self.controller = controller
        self.cache = CheckCache()

    def run(self, *, raise_on_violation: bool = False) -> VerificationReport:
        """Verify the controller's current state.

        With ``raise_on_violation`` a dirty report raises
        :class:`VerificationError` carrying the report.
        """
        controller = self.controller
        violations: list[Violation] = []
        for _name, check in CHECKS:
            violations.extend(check(controller, self.cache))
        report = VerificationReport(
            controller=controller.name,
            violations=tuple(violations),
            checks_run=tuple(name for name, _check in CHECKS),
        )
        _record(controller, report)
        if raise_on_violation and not report.ok:
            raise VerificationError(report)
        return report


def verify_controller(
    controller: "PleromaController",
    *,
    raise_on_violation: bool = False,
) -> VerificationReport:
    """Run the full invariant suite over one controller snapshot, cold:
    a fresh :class:`Verifier` whose cache starts empty."""
    return Verifier(controller).run(raise_on_violation=raise_on_violation)


def verify_deployment(
    deployment,
    *,
    raise_on_violation: bool = False,
) -> list[VerificationReport]:
    """Verify every controller of a deployment, cold.

    ``deployment`` is either a :class:`~repro.middleware.pleroma.Pleroma`
    facade (its ``controllers`` attribute is used) or any iterable of
    controllers.
    """
    controllers: Iterable["PleromaController"] = getattr(
        deployment, "controllers", deployment
    )
    reports = [verify_controller(controller) for controller in controllers]
    if raise_on_violation:
        dirty = [report for report in reports if not report.ok]
        if dirty:
            raise VerificationError(dirty[0])
    return reports


def _record(
    controller: "PleromaController", report: VerificationReport
) -> None:
    """Publish a run's outcome through the controller's obs bundle."""
    registry = controller.obs.registry
    registry.counter("analysis.verify.runs", controller=controller.name).inc()
    for kind, count in report.by_kind().items():
        registry.counter(
            "analysis.verify.violations",
            controller=controller.name,
            kind=kind,
        ).inc(count)
    controller.obs.tracer.event(
        "verify",
        "ok" if report.ok else "violation",
        controller=controller.name,
        checks=list(report.checks_run),
        violations=report.by_kind(),
    )
