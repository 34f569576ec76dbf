"""Offline analysis: FPR evaluation and static flow-state verification."""

from repro.analysis.fpr import (
    FprReport,
    HostAssignment,
    assign_round_robin,
    evaluate_fpr,
)
from repro.analysis.invariants import VIOLATION_KINDS, Violation
from repro.analysis.verify import (
    VerificationError,
    VerificationReport,
    Verifier,
    verify_controller,
    verify_deployment,
)

__all__ = [
    "FprReport",
    "HostAssignment",
    "assign_round_robin",
    "evaluate_fpr",
    "Violation",
    "VIOLATION_KINDS",
    "VerificationError",
    "VerificationReport",
    "Verifier",
    "verify_controller",
    "verify_deployment",
]
