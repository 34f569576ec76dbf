"""A dz-trie: per-switch contribution store with incremental queries.

The declarative reconciler (:mod:`repro.controller.reconciler`) defines the
desired flow table of a switch as a pure function of its contributions, but
recomputing it from scratch costs O(C^2) per request.  This trie stores the
same contributions keyed by dz bits and answers the two queries the
controller needs in output-sensitive time:

* ``cumulative(dz)`` / ``desired_entry(dz)`` — walk the ancestor path,
  O(|dz|);
* ``descendants(dz)`` — walk only the existing subtree.

When a contribution at ``dz`` changes, the set of dz whose desired entry
may change is exactly ``{dz} ∪ descendants(dz)`` (coarser entries never
depend on finer contributions), so the controller patches switch tables by
re-evaluating only that closure.  A property-based test pins this
incremental maintenance to the from-scratch reconciler.

Action multiplicity is reference-counted: several paths may contribute the
same ``(dz, action)`` pair, and the pair disappears only when the last
holder leaves — the bookkeeping behind "flows are deleted or downgraded
depending upon other subscribers reachable via a particular switch"
(Sec. 3.3.3).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.dz import Dz
from repro.network.flow import Action

__all__ = ["DzTrie"]


class _Node:
    __slots__ = ("children", "counts")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.counts: dict[Action, int] = {}


class DzTrie:
    """Reference-counted contributions over the dz binary trie."""

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0  # number of distinct (dz, action) pairs

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def _walk(self, bits: str, create: bool = False) -> _Node | None:
        node = self._root
        for bit in bits:
            child = node.children.get(bit)
            if child is None:
                if not create:
                    return None
                child = _Node()
                node.children[bit] = child
            node = child
        return node

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, dz: Dz, action: Action) -> bool:
        """Add one holder of ``(dz, action)``; True if the pair is new."""
        node = self._walk(dz.bits, create=True)
        assert node is not None
        node.counts[action] = node.counts.get(action, 0) + 1
        if node.counts[action] == 1:
            self._size += 1
            return True
        return False

    def remove(self, dz: Dz, action: Action) -> bool:
        """Drop one holder; True if the pair disappeared entirely."""
        node = self._walk(dz.bits)
        if node is None or action not in node.counts:
            return False
        node.counts[action] -= 1
        if node.counts[action] == 0:
            del node.counts[action]
            self._size -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def actions_at(self, dz: Dz) -> frozenset[Action]:
        node = self._walk(dz.bits)
        return frozenset(node.counts) if node is not None else frozenset()

    def cumulative(self, dz: Dz) -> frozenset[Action]:
        """Union of actions contributed at ``dz`` or any coarser dz."""
        actions: set[Action] = set(self._root.counts)
        node = self._root
        for bit in dz.bits:
            node = node.children.get(bit)
            if node is None:
                break
            actions |= node.counts.keys()
        return frozenset(actions)

    def desired_entry(self, dz: Dz) -> frozenset[Action] | None:
        """The desired flow actions at ``dz`` — None if no flow belongs
        there (nothing contributed, or fully implied by coarser flows).

        Matches :func:`repro.controller.reconciler.desired_flows` exactly.
        """
        parent_cumulative: set[Action] = set()
        node: _Node | None = self._root
        for bit in dz.bits:
            parent_cumulative |= node.counts.keys()
            node = node.children.get(bit)
            if node is None:
                return None  # dz holds no contributions
        if not node.counts:
            return None
        cumulative = parent_cumulative | node.counts.keys()
        # A non-empty parent cumulative means some strictly coarser dz is
        # contributed; if it already implies everything here, no flow is
        # needed at dz (reconciler's redundancy rule).
        if parent_cumulative and cumulative == parent_cumulative:
            return None
        return frozenset(cumulative)

    def descendants(self, dz: Dz) -> Iterator[Dz]:
        """All strictly finer dz holding contributions."""
        start = self._walk(dz.bits)
        if start is None:
            return
        stack = [
            (dz.bits + bit, child) for bit, child in start.children.items()
        ]
        while stack:
            bits, node = stack.pop()
            if node.counts:
                yield Dz(bits)
            stack.extend(
                (bits + bit, child) for bit, child in node.children.items()
            )

    def items(self) -> Iterator[tuple[Dz, frozenset[Action]]]:
        """All contributed dz with their aggregated action sets."""
        stack = [("", self._root)]
        while stack:
            bits, node = stack.pop()
            if node.counts:
                # trie paths are binary by construction
                yield Dz.trusted(bits), frozenset(node.counts)
            stack.extend(
                (bits + bit, child) for bit, child in node.children.items()
            )

    def contributions(self) -> dict[Dz, frozenset[Action]]:
        return dict(self.items())
