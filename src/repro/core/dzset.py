"""DZ sets: canonical collections of dz-expressions.

Advertisements, subscriptions and spanning trees in PLEROMA are all described
by a *set* of dz-expressions, written ``DZ`` in the paper.  This module gives
that set a canonical form and the containment/overlap algebra the controller
relies on (Algorithm 1 computes ``DZ(t) ∩ dz_i``, uncovered remainders, and
covering checks between DZ sets).

Canonical form invariants:

* no member covers another member (redundant members removed);
* no two members are complete siblings (``...0`` and ``...1`` merge into
  their parent, applied to a fixed point).

Canonicalisation makes equality semantic: two DZ sets describing the same
region compare equal.

Representation.  A set keeps its canonical members as a *sorted run*: a
tuple of bit strings in lexicographic order, with the ``Dz`` objects in the
same order beside it.  In that order every extension of a string sits
right after it, so the members inside a subspace ``d`` form one contiguous
slice, and the only member that can cover ``d`` is its predecessor.  With
``n`` members and ``L``-bit strings:

* canonicalisation is one sort and one stack pass, ``O(n log n)`` (``O(n)``
  on the merge of two runs): a string that starts with the last kept one is
  covered and dropped, and a kept ``...1`` whose top-of-stack is its
  ``...0`` sibling is popped into their parent until no pair is left;
* ``covers_dz`` and ``overlaps_dz`` are one bisection plus a prefix check,
  ``O(L log n)``;
* ``intersect_dz``/``subtract_dz`` find the affected slice by bisection and
  copy the rest, ``O(L log n + n)``; ``intersect``/``subtract``/``covers``
  bisect once per member of one operand, ``O(m L log n + output)``;
* iteration yields the ``(len, bits)`` order and ``members`` the frozenset
  of the run, each built once per set, on first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import FrozenInstanceError
from itertools import chain
from operator import attrgetter
from typing import Any, NoReturn

from repro.core.dz import Dz, ROOT

__all__ = ["DzSet", "EMPTY", "OMEGA"]

_bits_of = attrgetter("bits")


def _bit_length(dz: Dz) -> int:
    return len(dz.bits)


def _push(kept: list[Dz], kept_bits: list[str], dz: Dz) -> bool:
    """One step of the canonicalisation stack pass.

    ``kept`` is canonical and sorted by bits, and ``dz`` sorts after
    (or equal to) its last member.  Drops ``dz`` if the top covers it,
    else pushes it, popping complete sibling pairs into their parent.
    True iff ``dz`` went on unchanged, so the stack below it is as before.
    """
    bits = dz.bits
    if kept_bits and bits.startswith(kept_bits[-1]):
        return False  # covered by (or equal to) the top
    merged = False
    # A "...1" may complete the "...0" on top of the stack; the merged
    # parent may in turn complete the new top, one level up.
    while bits and bits[-1] == "1" and kept_bits:
        top = kept_bits[-1]
        if len(top) != len(bits) or top[:-1] != bits[:-1]:
            break
        kept.pop()
        kept_bits.pop()
        bits = bits[:-1]
        merged = True
    kept.append(Dz.trusted(bits) if merged else dz)
    kept_bits.append(bits)
    return not merged


def _reduce(run: Iterable[Dz]) -> list[Dz]:
    """The canonical members of ``run``, which is sorted by bits.

    Duplicates are allowed.  Input ``Dz`` objects are kept wherever their
    bits survive; only merged parents are new.
    """
    kept: list[Dz] = []
    kept_bits: list[str] = []
    for dz in run:
        _push(kept, kept_bits, dz)
    return kept


def _carve(cell: Dz, holes: Sequence[str]) -> list[Dz]:
    """``cell`` minus the disjoint sorted ``holes`` inside it, in bits order.

    The pieces are maximal: a half is split only if it contains a hole, so
    the result holds no complete sibling pair.
    """
    if not holes:
        return [cell]
    if holes[0] == cell.bits:
        return []  # disjoint holes: this one is the only hole and fills it
    left = cell.child(0)
    right = cell.child(1)
    split = bisect_left(holes, right.bits)
    return _carve(left, holes[:split]) + _carve(right, holes[split:])


class DzSet:
    """An immutable, canonical set of disjoint dz-expressions."""

    __slots__ = ("_run", "_bits", "_order", "_members")

    _run: tuple[Dz, ...]
    _bits: tuple[str, ...]
    _order: tuple[Dz, ...] | None
    _members: frozenset[Dz] | None

    def __init__(self, members: Iterable[Dz] = ()) -> None:
        self._adopt(_reduce(sorted(members, key=_bits_of)))

    def _adopt(self, run: Sequence[Dz]) -> None:
        run = tuple(run)
        object.__setattr__(self, "_run", run)
        object.__setattr__(self, "_bits", tuple(map(_bits_of, run)))
        object.__setattr__(self, "_order", None)
        object.__setattr__(self, "_members", None)

    @classmethod
    def _from_run(cls, run: Sequence[Dz]) -> "DzSet":
        """Wrap a run already canonical and sorted by bits."""
        result = object.__new__(cls)
        result._adopt(run)
        return result

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *dz: Dz | str) -> "DzSet":
        """Build a DzSet from dz-expressions or plain bit strings."""
        return cls(frozenset(d if isinstance(d, Dz) else Dz(d) for d in dz))

    @classmethod
    def from_iterable(cls, dzs: Iterable[Dz | str]) -> "DzSet":
        return cls.of(*dzs)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def members(self) -> frozenset[Dz]:
        """The canonical members as a frozenset."""
        members = self._members
        if members is None:
            members = frozenset(self._run)
            object.__setattr__(self, "_members", members)
        return members

    def __iter__(self) -> Iterator[Dz]:
        """Members in ``(len, bits)`` order, sorted on first use."""
        order = self._order
        if order is None:
            # stable sort of a bits-ordered run by length: (len, bits) order
            order = tuple(sorted(self._run, key=_bit_length))
            object.__setattr__(self, "_order", order)
        return iter(order)

    def __len__(self) -> int:
        return len(self._run)

    def __bool__(self) -> bool:
        return bool(self._run)

    def __contains__(self, dz: object) -> bool:
        if not isinstance(dz, Dz):
            return False
        i = bisect_left(self._bits, dz.bits)
        return i < len(self._bits) and self._bits[i] == dz.bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DzSet):
            return NotImplemented
        return self._bits == other._bits

    def __hash__(self) -> int:
        # the hash protocol itself (set and dict membership), never a seed
        # or an ordering
        return hash(self._bits)  # determinism: allow

    def __repr__(self) -> str:
        return f"DzSet(members={self.members!r})"

    def __str__(self) -> str:
        return "{" + ", ".join(str(d) for d in self) + "}"

    def __setattr__(self, name: str, value: Any) -> NoReturn:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type["DzSet"], tuple[tuple[Dz, ...]]]:
        return (DzSet, (self._run,))

    @property
    def is_empty(self) -> bool:
        return not self._run

    # ------------------------------------------------------------------
    # sorted-run lookups
    # ------------------------------------------------------------------
    def _cover_index(self, bits: str) -> int:
        """Index of the member covering ``bits``, or -1 if none does."""
        i = bisect_right(self._bits, bits)
        if i and bits.startswith(self._bits[i - 1]):
            return i - 1
        return -1

    def _inside(self, bits: str) -> tuple[int, int]:
        """The slice of members that extend ``bits`` (``'2'`` sorts after
        both bit characters, so ``bits + '2'`` bounds its extensions)."""
        lo = bisect_left(self._bits, bits)
        return lo, bisect_left(self._bits, bits + "2", lo)

    # ------------------------------------------------------------------
    # region algebra
    # ------------------------------------------------------------------
    def covers_dz(self, dz: Dz) -> bool:
        """True iff the region fully contains the subspace ``dz``.

        Because members are canonical (sibling-merged), full containment of
        ``dz`` is witnessed by a single member covering it.
        """
        return self._cover_index(dz.bits) >= 0

    def overlaps_dz(self, dz: Dz) -> bool:
        """True iff the region intersects the subspace ``dz``."""
        bits = self._bits
        target = dz.bits
        i = bisect_left(bits, target)
        if i < len(bits) and bits[i].startswith(target):
            return True
        return i > 0 and target.startswith(bits[i - 1])

    def covers(self, other: "DzSet") -> bool:
        """True iff every subspace of ``other`` lies inside this region."""
        return all(self._cover_index(bits) >= 0 for bits in other._bits)

    def overlaps(self, other: "DzSet") -> bool:
        """True iff the two regions intersect anywhere."""
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        return any(large.overlaps_dz(m) for m in small._run)

    def intersect_dz(self, dz: Dz) -> "DzSet":
        """The part of this region inside the subspace ``dz``."""
        if self._cover_index(dz.bits) >= 0:
            return DzSet._from_run((dz,))
        lo, hi = self._inside(dz.bits)
        if lo == 0 and hi == len(self._run):
            return self
        return DzSet._from_run(self._run[lo:hi])

    def intersect(self, other: "DzSet") -> "DzSet":
        """Region intersection (the paper's ``DZ_i ∩ DZ_j``).

        Each member of the smaller operand is either inside a member of the
        larger one (and kept whole) or keeps the larger one's members inside
        it.  The pieces come out in bits order and already canonical: a
        piece is a member of one canonical operand lying inside a member of
        the other, so no piece covers or completes another.
        """
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        parts: list[Dz] = []
        for m in small._run:
            if large._cover_index(m.bits) >= 0:
                parts.append(m)
            else:
                lo, hi = large._inside(m.bits)
                parts.extend(large._run[lo:hi])
        return DzSet._from_run(parts)

    def union(self, other: "DzSet") -> "DzSet":
        """Region union.

        The smaller operand's members are bisected into the larger run.
        Between two insertion points the larger run is copied whole once
        one of its members goes on the stack unchanged: the members after
        it relate to it exactly as they did in the canonical larger set.
        """
        small, large = (self, other) if len(self) <= len(other) else (other, self)
        if not small._run:
            return large
        run, bits = large._run, large._bits
        kept: list[Dz] = []
        kept_bits: list[str] = []

        def copy(lo: int, hi: int) -> None:
            while lo < hi:
                lo += 1
                if _push(kept, kept_bits, run[lo - 1]):
                    break
            kept.extend(run[lo:hi])
            kept_bits.extend(bits[lo:hi])

        pos = 0
        for m in small._run:
            i = bisect_right(bits, m.bits, pos)
            if i and m.bits.startswith(bits[i - 1]):
                continue  # already inside the larger region
            copy(pos, i)
            _push(kept, kept_bits, m)
            pos = bisect_left(bits, m.bits + "2", i)  # skip members inside m
        copy(pos, len(run))
        return DzSet._from_run(kept)

    @classmethod
    def union_all(cls, sets: Iterable["DzSet"]) -> "DzSet":
        """Region union of many sets in one sort and one stack pass.

        Equal to folding :meth:`union` over ``sets``: canonical form is
        semantic, and the stack pass drops covered members and merges
        sibling pairs of any sorted input.
        """
        members = chain.from_iterable(dzset._run for dzset in sets)
        return cls._from_run(_reduce(sorted(members, key=_bits_of)))

    def subtract_dz(self, dz: Dz) -> "DzSet":
        """The part of this region outside the subspace ``dz``."""
        run = self._run
        i = self._cover_index(dz.bits)
        if i >= 0:
            pieces = _carve(run[i], (dz.bits,))
            return DzSet._from_run(run[:i] + tuple(pieces) + run[i + 1:])
        lo, hi = self._inside(dz.bits)
        if lo == hi:
            return self
        return DzSet._from_run(run[:lo] + run[hi:])

    def subtract(self, other: "DzSet") -> "DzSet":
        """Region difference (the paper's uncovered remainder, Alg. 1 l.10).

        Each member loses the members of ``other`` inside it (or all of
        itself if one covers it); the carved pieces stay inside their
        member, so the result is canonical in bits order.
        """
        parts: list[Dz] = []
        for m in self._run:
            if other._cover_index(m.bits) >= 0:
                continue
            lo, hi = other._inside(m.bits)
            parts.extend(_carve(m, other._bits[lo:hi]))
        return DzSet._from_run(parts)

    def truncate(self, max_len: int) -> "DzSet":
        """Coarsen every member to at most ``max_len`` bits (L_dz limit)."""
        # truncation keeps the bits order, so no sort is needed
        return DzSet._from_run(_reduce(m.truncate(max_len) for m in self._run))

    def coarsen_to_common_prefix(self) -> Dz:
        """The finest single dz covering the whole region.

        Used by tree merging (Sec. 3.2): e.g. ``{0000, 0010}`` and
        ``{0001, 0011}`` merge into the single coarser subspace ``00``.
        In bits order the first and last members share the common prefix
        of all.
        """
        if self.is_empty:
            return ROOT
        first, last = self._run[0], self._run[-1]
        return first if first is last else first.common_prefix(last)

    def total_measure(self) -> float:
        """The fraction of the event space covered (members are disjoint)."""
        return sum(2.0 ** -len(m.bits) for m in self._run)


#: The empty region.
EMPTY = DzSet(frozenset())
#: The whole event space.
OMEGA = DzSet(frozenset({ROOT}))
