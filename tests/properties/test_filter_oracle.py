"""Precompiled filter matching checked against the version it replaced.

``Filter`` precomputes a ``(name, low, high)`` tuple per predicate, and
``Filter.matches`` / ``Subscription.matches`` loop over it directly.  The
reference below is the previous ``all(...)`` over ``RangePredicate.matches``
and ``Event.value``, kept as the oracle: on every input both must return
the same answer, or both raise ``SchemaError``.  Values are drawn from a
small integer grid so they land on predicate bounds often.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.subscription import (
    Advertisement,
    Filter,
    RangePredicate,
    Subscription,
)
from repro.exceptions import SchemaError

# ----------------------------------------------------------------------
# reference implementation (the replaced code)
# ----------------------------------------------------------------------


def ref_matches(filt: Filter, event: Event) -> bool:
    """True iff the event satisfies every predicate."""
    return all(
        pred.matches(event.value(name))
        for name, pred in filt.predicates.items()
    )


@dataclasses.dataclass(frozen=True)
class RefFilter:
    """The replaced ``Filter``'s fields: only ``predicates``."""

    predicates: Mapping[str, RangePredicate]


class _FrozenMap(Mapping):
    """A hashable mapping, to compare dataclass hashes."""

    def __init__(self, data: dict) -> None:
        self._items = tuple(sorted(data.items()))
        self._data = dict(data)

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        return hash(self._items)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SchemaError:
        return SchemaError


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

_NAMES = ("a", "b", "c", "d")
_grid = st.integers(min_value=0, max_value=6)


@st.composite
def _predicates(draw) -> dict[str, RangePredicate]:
    names = draw(st.lists(st.sampled_from(_NAMES), unique=True, max_size=4))
    out = {}
    for name in names:
        low = draw(_grid)
        high = draw(st.integers(min_value=low, max_value=6))
        out[name] = RangePredicate(float(low), float(high))
    return out


_values = st.dictionaries(
    st.sampled_from(_NAMES),
    st.one_of(_grid.map(float), st.floats(min_value=-1.0, max_value=7.0)),
)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(_predicates(), _values)
def test_matches_agrees_with_oracle(predicates, values):
    filt = Filter(predicates=predicates)
    event = Event(values=values)
    expected = _outcome(ref_matches, filt, event)
    assert _outcome(filt.matches, event) is expected
    assert _outcome(Subscription(filter=filt).matches, event) is expected
    assert _outcome(Advertisement(filter=filt).covers, event) is expected


@settings(max_examples=200, deadline=None)
@given(_predicates(), _predicates())
def test_equality_hash_and_repr_unchanged(p, q):
    assert (Filter(predicates=p) == Filter(predicates=q)) == (
        RefFilter(predicates=p) == RefFilter(predicates=q)
    )
    assert repr(Filter(predicates=p)) == repr(RefFilter(predicates=p)).replace(
        "RefFilter", "Filter", 1
    )
    # dict predicates are unhashable, for both
    for cls in (Filter, RefFilter):
        with pytest.raises(TypeError):
            hash(cls(predicates=p))
    frozen = _FrozenMap(p)
    assert hash(Filter(predicates=frozen)) == hash(RefFilter(predicates=frozen))


def test_precomputed_bounds_stay_out_of_the_dataclass_surface():
    field = {f.name: f for f in dataclasses.fields(Filter)}["_bounds"]
    assert not (field.init or field.compare or field.repr)
    filt = Filter.of(a=(1, 2))
    assert dataclasses.replace(filt)._bounds == filt._bounds == (("a", 1, 2),)


# ----------------------------------------------------------------------
# the cases the grid must hit, spelled out
# ----------------------------------------------------------------------


class TestBoundaries:
    filt = Filter.of(a=(2, 5), b=(0, 10))

    @pytest.mark.parametrize("a", [2, 5, 2.0, 5.0, 3.5])
    def test_closed_bounds_match(self, a):
        event = Event.of(a=a, b=0)
        assert self.filt.matches(event) is ref_matches(self.filt, event) is True

    @pytest.mark.parametrize("a", [1.999, 5.001, -1, 11])
    def test_outside_bounds_do_not_match(self, a):
        event = Event.of(a=a, b=10)
        assert self.filt.matches(event) is ref_matches(self.filt, event) is False

    def test_unconstrained_dimension_is_ignored(self):
        event = Event.of(a=3, b=3, c=1e9)
        assert self.filt.matches(event) and ref_matches(self.filt, event)

    def test_empty_filter_matches_everything(self):
        empty = Filter.of()
        assert empty.matches(Event.of()) and ref_matches(empty, Event.of())
        assert Subscription(filter=empty).matches(Event.of(z=1))

    def test_missing_attribute_raises_like_oracle(self):
        event = Event.of(b=3)
        for fn in (self.filt.matches, lambda e: ref_matches(self.filt, e)):
            with pytest.raises(SchemaError, match="lacks attribute 'a'"):
                fn(event)

    def test_missing_attribute_after_a_failed_bound_short_circuits(self):
        # ``a`` fails first, so neither version ever reads the absent ``b``
        event = Event.of(a=9)
        assert self.filt.matches(event) is ref_matches(self.filt, event) is False

    def test_missing_attribute_after_a_passing_bound_raises(self):
        event = Event.of(a=3)
        with pytest.raises(SchemaError, match="lacks attribute 'b'"):
            Subscription(filter=self.filt).matches(event)
        with pytest.raises(SchemaError, match="lacks attribute 'b'"):
            ref_matches(self.filt, event)
