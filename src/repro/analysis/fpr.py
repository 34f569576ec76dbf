"""False-positive-rate evaluation (the Sec. 6.4 measurement).

A host receives an event iff the union of its subscriptions' DZ regions —
at the deployed indexing granularity — overlaps the event's dz; the
delivery is a *false positive* when none of the host's actual
subscriptions matches the raw event.  The packet-level test suite
establishes that the simulated fabric implements exactly this predicate,
so large FPR sweeps (Fig. 7d/7e, the CLI's ``fpr`` command) evaluate it
directly without running packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.dzset import DzSet
from repro.core.events import Event
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Subscription
from repro.exceptions import WorkloadError

__all__ = ["FprReport", "HostAssignment", "assign_round_robin", "evaluate_fpr"]


@dataclass(frozen=True)
class FprReport:
    """Outcome of one FPR evaluation."""

    delivered: int
    unwanted: int

    @property
    def fpr_percent(self) -> float:
        """The paper's FPR: unwanted over total deliveries, in percent."""
        if self.delivered == 0:
            return 0.0
        return 100.0 * self.unwanted / self.delivered


@dataclass
class HostAssignment:
    """Subscriptions grouped per host, with the aggregated DZ region."""

    subscriptions: list[list[Subscription]]
    regions: list[DzSet]


def assign_round_robin(
    subscriptions: Sequence[Subscription],
    hosts: int,
    indexer: SpatialIndexer,
) -> HostAssignment:
    """Divide subscriptions among ``hosts`` end hosts, round-robin, and
    pre-compute each host's union DZ region under ``indexer``."""
    if hosts < 1:
        raise WorkloadError("need at least one host")
    if not subscriptions:
        raise WorkloadError("need at least one subscription")
    per_host = [list(subscriptions[host::hosts]) for host in range(hosts)]
    regions = [
        DzSet.union_all(indexer.filter_to_dzset(sub.filter) for sub in subs)
        for subs in per_host
    ]
    return HostAssignment(subscriptions=per_host, regions=regions)


def evaluate_fpr(
    assignment: HostAssignment,
    events: Sequence[Event],
    indexer: SpatialIndexer,
) -> FprReport:
    """Count deliveries and false positives for an event stream."""
    if not events:
        raise WorkloadError("need at least one event")
    delivered = unwanted = 0
    for event in events:
        event_dz = indexer.event_to_dz(event)
        for host, region in enumerate(assignment.regions):
            if not region.overlaps_dz(event_dz):
                continue
            delivered += 1
            if not any(
                sub.matches(event)
                for sub in assignment.subscriptions[host]
            ):
                unwanted += 1
    return FprReport(delivered=delivered, unwanted=unwanted)
