"""dz-expressions: binary identifiers for event-space subspaces.

PLEROMA (Sec. 2) identifies every regular subspace of the multi-dimensional
event space by a binary string called a *dz-expression* (``dz``).  The string
is produced by recursively bisecting the event space, cycling through the
indexed dimensions round-robin: bit 0 splits dimension 0 in half, bit 1 splits
dimension 1, ..., bit k splits dimension 0 again into quarters, and so on.

The algebra used throughout the paper reduces to prefix relations:

* the **empty** dz denotes the whole event space Omega;
* ``dz_i`` **covers** ``dz_j`` (written ``dz_i >= dz_j`` in the paper) iff
  ``dz_i`` is a prefix of ``dz_j``;
* two dz **overlap** iff one covers the other, and the overlap is the longer
  of the two;
* the **difference** ``dz_i - dz_j`` of overlapping, non-identical subspaces
  is the set of sibling subspaces hanging off the path from the shorter to
  the longer string (e.g. ``0 - 000 = {001, 01}`` before canonical
  re-splitting; the paper's example lists ``{001, 010, 011}`` which is the
  same region one level finer).

This module implements the dz string itself; set-level operations over
collections of dz live in :mod:`repro.core.dzset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.exceptions import SpatialIndexError

__all__ = ["Dz", "ROOT"]

_VALID_BITS = frozenset("01")


@dataclass(frozen=True, order=True)
class Dz:
    """An immutable dz-expression.

    ``bits`` is a string over the alphabet ``{'0', '1'}``.  The empty string
    is the root subspace (the whole event space).  Ordering is lexicographic
    on ``bits``, which conveniently sorts siblings together and parents
    before children.
    """

    bits: str = ""

    def __post_init__(self) -> None:
        if not set(self.bits) <= _VALID_BITS:
            raise SpatialIndexError(f"dz must be a binary string, got {self.bits!r}")

    @classmethod
    def trusted(cls, bits: str) -> "Dz":
        """Build a dz from bits already known to be binary, unchecked.

        For bits derived from a valid dz (a prefix, a child, a sibling);
        outside input goes through ``Dz(...)``, which validates.
        """
        dz = object.__new__(cls)
        object.__setattr__(dz, "bits", bits)
        return dz

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return self.bits or "<root>"

    @property
    def is_root(self) -> bool:
        """True for the empty dz, which denotes the whole event space."""
        return not self.bits

    @property
    def value(self) -> int:
        """The bits interpreted as an unsigned integer (0 for the root)."""
        return int(self.bits, 2) if self.bits else 0

    def child(self, bit: int) -> "Dz":
        """The half subspace obtained by appending ``bit`` (0 or 1)."""
        if bit not in (0, 1):
            raise SpatialIndexError(f"child bit must be 0 or 1, got {bit!r}")
        return Dz.trusted(self.bits + ("1" if bit else "0"))

    def parent(self) -> "Dz":
        """The enclosing subspace one level up; the root has no parent."""
        if self.is_root:
            raise SpatialIndexError("the root dz has no parent")
        return Dz.trusted(self.bits[:-1])

    def sibling(self) -> "Dz":
        """The other half of this dz's parent subspace."""
        if self.is_root:
            raise SpatialIndexError("the root dz has no sibling")
        last = "1" if self.bits[-1] == "0" else "0"
        return Dz.trusted(self.bits[:-1] + last)

    def ancestors(self) -> Iterator["Dz"]:
        """All strict prefixes, from the root down to the direct parent."""
        for i in range(len(self.bits)):
            yield Dz.trusted(self.bits[:i])

    def truncate(self, max_len: int) -> "Dz":
        """This dz limited to ``max_len`` bits (the enclosing coarser cell).

        The paper calls this the ``L_dz`` constraint (Sec. 6.4): when the
        multicast address range only accommodates ``L_dz`` bits, finer
        subspaces collapse onto their length-``L_dz`` ancestor.
        """
        if max_len < 0:
            raise SpatialIndexError("max_len must be non-negative")
        return Dz.trusted(self.bits[:max_len])

    # ------------------------------------------------------------------
    # the covering algebra (paper Sec. 2, properties 1-4)
    # ------------------------------------------------------------------
    def covers(self, other: "Dz") -> bool:
        """True iff this subspace contains ``other`` (prefix relation).

        A dz covers itself.
        """
        return other.bits.startswith(self.bits)

    def covered_by(self, other: "Dz") -> bool:
        """True iff ``other`` contains this subspace."""
        return other.covers(self)

    def overlaps(self, other: "Dz") -> bool:
        """True iff the two subspaces intersect (one is a prefix of the other)."""
        return self.covers(other) or other.covers(self)

    def intersect(self, other: "Dz") -> "Dz" | None:
        """The overlap of two subspaces: the longer dz, or None if disjoint."""
        if self.covers(other):
            return other
        if other.covers(self):
            return self
        return None

    def subtract(self, other: "Dz") -> list["Dz"]:
        """The region of this subspace not covered by ``other``.

        Returns a minimal list of disjoint dz-expressions.  If the two are
        disjoint the result is ``[self]``; if ``other`` covers ``self`` the
        result is empty.  Otherwise ``other`` is strictly finer and the
        result consists of the siblings along the refinement path: for each
        extra bit of ``other`` we keep the half *not* taken.
        """
        if other.covers(self):
            return []
        if not self.covers(other):
            return [self]
        remainder: list[Dz] = []
        prefix = self.bits
        for bit in other.bits[len(self.bits):]:
            flipped = "1" if bit == "0" else "0"
            remainder.append(Dz.trusted(prefix + flipped))
            prefix += bit
        return remainder

    def common_prefix(self, other: "Dz") -> "Dz":
        """The finest subspace covering both dz (longest common prefix)."""
        limit = min(len(self.bits), len(other.bits))
        i = 0
        while i < limit and self.bits[i] == other.bits[i]:
            i += 1
        return Dz.trusted(self.bits[:i])

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_value(cls, value: int, length: int) -> "Dz":
        """Build a dz of exactly ``length`` bits from an unsigned integer."""
        if length < 0:
            raise SpatialIndexError("length must be non-negative")
        if value < 0 or (length < value.bit_length()):
            raise SpatialIndexError(
                f"value {value} does not fit in {length} bits"
            )
        if length == 0:
            return cls("")
        return cls(format(value, f"0{length}b"))


#: The whole event space.
ROOT = Dz("")
