"""Subscriptions and advertisements as attribute-range predicates.

A subscription (or advertisement) constrains a subset of the schema
attributes to closed intervals; unconstrained attributes accept any value.
Figure 2 of the paper shows the running example
``Adv = { A = [50, 75], B = [0, 100] }`` and its decomposition into the DZ
set ``{110, 100}`` — that conversion lives in
:mod:`repro.core.spatial_index`; this module is the predicate model itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator, Mapping
from typing import TYPE_CHECKING

from repro.core.events import Event, EventSpace
from repro.exceptions import SchemaError

if TYPE_CHECKING:
    from repro.sim.engine import IdAllocator

__all__ = ["RangePredicate", "Filter", "Subscription", "Advertisement"]


@dataclass(frozen=True)
class RangePredicate:
    """A closed interval constraint ``low <= value <= high``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise SchemaError(
                f"range high ({self.high}) below low ({self.low})"
            )

    def matches(self, value: float) -> bool:
        return self.low <= value <= self.high

    def overlaps(self, other: "RangePredicate") -> bool:
        return self.low <= other.high and other.low <= self.high

    def contains(self, other: "RangePredicate") -> bool:
        return self.low <= other.low and other.high <= self.high

    def __str__(self) -> str:
        return f"[{self.low:g}, {self.high:g}]"


@dataclass(frozen=True)
class Filter:
    """A conjunction of range predicates over named attributes.

    The common behaviour of subscriptions and advertisements: both are
    rectangular regions ("boxes") of the event space.
    """

    predicates: Mapping[str, RangePredicate]
    # ``(name, low, high)`` per predicate, precomputed for :meth:`matches`
    _bounds: tuple[tuple[str, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_bounds",
            tuple([
                (name, pred.low, pred.high)
                for name, pred in self.predicates.items()
            ]),
        )

    @classmethod
    def of(cls, **ranges: tuple[float, float]) -> "Filter":
        """Build a filter from ``name=(low, high)`` keyword pairs."""
        return cls(
            predicates={
                name: RangePredicate(low, high)
                for name, (low, high) in ranges.items()
            }
        )

    def constrained_names(self) -> Iterator[str]:
        return iter(self.predicates.keys())

    def predicate_for(self, name: str) -> RangePredicate | None:
        """The constraint on ``name``, or None if unconstrained."""
        return self.predicates.get(name)

    def matches(self, event: Event) -> bool:
        """True iff the event satisfies every predicate.

        Checks the bounds in predicate order and stops at the first one
        that fails; an attribute the event lacks raises
        :class:`~repro.exceptions.SchemaError` when its bound is reached.
        """
        values = event.values
        try:
            for name, low, high in self._bounds:
                if not low <= values[name] <= high:
                    return False
        except KeyError:
            event.value(name)
            raise
        return True

    def matches_along(self, name: str, event: Event) -> bool:
        """True iff the event satisfies the constraint on one dimension.

        Dimension selection (Sec. 5) counts, per dimension ``d``, the
        subscriptions an event matches *along d alone*; this is that test.
        An unconstrained dimension matches everything.
        """
        pred = self.predicates.get(name)
        return pred is None or pred.matches(event.value(name))

    def normalized_box(
        self, space: EventSpace
    ) -> tuple[tuple[float, float], ...]:
        """The filter as half-open normalised intervals per space dimension.

        Unconstrained dimensions yield ``(0.0, 1.0)``.  The closed raw
        interval ``[low, high]`` maps to the half-open normalised interval
        ``[low, high + grain)``: for integer attributes (grain 1) the upper
        bound stays inside the box so boundary events are never lost; for
        continuous attributes (grain 0) the bound is exact and boundary
        points have measure zero.
        """
        box: list[tuple[float, float]] = []
        for attr in space.attributes:
            pred = self.predicates.get(attr.name)
            if pred is None:
                box.append((0.0, 1.0))
                continue
            lo = attr.normalize(max(pred.low, attr.low))
            raw_high = min(pred.high + attr.grain, attr.high)
            if raw_high >= attr.high:
                hi = 1.0
            else:
                hi = attr.normalize(raw_high)
            box.append((lo, max(hi, lo)))
        return tuple(box)

    def overlaps(self, other: "Filter") -> bool:
        """True iff the two boxes intersect (per-dimension interval overlap)."""
        for name, pred in self.predicates.items():
            other_pred = other.predicates.get(name)
            if other_pred is not None and not pred.overlaps(other_pred):
                return False
        return True

    def __str__(self) -> str:
        body = ", ".join(
            f"{k}={v}" for k, v in sorted(self.predicates.items())
        )
        return "{" + body + "}"


@dataclass(frozen=True)
class Subscription:
    """A consumer's interest: a filter plus an identity, None until the
    subscription is admitted and numbered (:meth:`number`)."""

    filter: Filter
    sub_id: int | None = None

    @classmethod
    def of(cls, **ranges: tuple[float, float]) -> "Subscription":
        return cls(filter=Filter.of(**ranges))

    def number(self, ids: "IdAllocator") -> int:
        """The id, first taking the next of ``ids``' ``request`` sequence
        if there is none.  It is written into this object, the client's
        handle for unsubscribing."""
        sub_id = self.sub_id
        if sub_id is None:
            sub_id = ids.next("request")
            object.__setattr__(self, "sub_id", sub_id)
        return sub_id

    def matches(self, event: Event) -> bool:
        # inlines Filter.matches: this is the per-delivery classification
        values = event.values
        try:
            for name, low, high in self.filter._bounds:
                if not low <= values[name] <= high:
                    return False
        except KeyError:
            event.value(name)
            raise
        return True

    def __str__(self) -> str:
        return f"Sub#{self.sub_id}{self.filter}"


@dataclass(frozen=True)
class Advertisement:
    """A producer's declared publication region: a filter plus identity,
    numbered on admission as a :class:`Subscription` is."""

    filter: Filter
    adv_id: int | None = None

    @classmethod
    def of(cls, **ranges: tuple[float, float]) -> "Advertisement":
        return cls(filter=Filter.of(**ranges))

    def number(self, ids: "IdAllocator") -> int:
        """The id, numbered as :meth:`Subscription.number`."""
        adv_id = self.adv_id
        if adv_id is None:
            adv_id = ids.next("request")
            object.__setattr__(self, "adv_id", adv_id)
        return adv_id

    def covers(self, event: Event) -> bool:
        return self.filter.matches(event)

    def __str__(self) -> str:
        return f"Adv#{self.adv_id}{self.filter}"
