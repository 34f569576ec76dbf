"""A dz-trie: per-switch contribution store with incremental queries.

The declarative reconciler (:mod:`repro.controller.reconciler`) defines the
desired flow table of a switch as a pure function of its contributions, but
recomputing it from scratch costs O(C^2) per request.  This trie stores the
same contributions keyed by dz bits and answers the two queries the
controller needs in output-sensitive time:

* ``desired_entry(dz)`` — walk the ancestor path, O(|dz|);
* ``desired_closure(changed)`` — the desired entry of every dz a change
  can move.

When a contribution at ``dz`` changes, the set of dz whose desired entry
may change is exactly ``dz`` plus its contributed descendants (coarser
entries never depend on finer contributions), so the controller patches
switch tables by re-evaluating only that closure.  ``desired_closure``
walks from the root once per outermost changed dz, accumulating the
coarser actions, then visits that dz's subtree depth-first carrying the
cumulative action set down.  A request therefore costs one root path per
outermost changed dz plus the nodes of its subtree, not one root-to-leaf
walk per closure member, and no ``Dz`` is built on the way.  Property
tests pin this incremental maintenance to the from-scratch reconciler and
to the per-dz walk it replaced.

Action multiplicity is reference-counted: several paths may contribute the
same ``(dz, action)`` pair, and the pair disappears only when the last
holder leaves — the bookkeeping behind "flows are deleted or downgraded
depending upon other subscribers reachable via a particular switch"
(Sec. 3.3.3).

Mutations do not walk from the root when they need not.  The trie keeps an
index from bits to every node that holds counts, so ``add`` of a dz already
held and every ``remove`` are one dict probe; only ``add`` of a new dz
walks, creating the nodes it lacks.  A node whose last holder leaves while
it has no children is noted, and ``prune`` later drops it together with
the chain of count-less, single-child ancestors that only led to it, so
after a prune the trie holds no subtree without contributions.  The
controller prunes once per request, not on every removal: a tree merge
withdraws its trees' paths and re-installs most of them at once, as a
restructure does with the paths whose route moved, and pruning in
between would only re-create the same nodes.  A
changed dz that was pruned is simply not reached by ``desired_closure``,
which yields ``(bits, None)`` for it.
"""

from __future__ import annotations

from collections.abc import Iterator, Set

from repro.core.dz import Dz
from repro.network.flow import Action

__all__ = ["DzTrie"]


class _Node:
    """One dz of the trie.  ``counts`` is made on first use and dropped
    when its last holder leaves: most nodes only lead to finer dz."""

    __slots__ = ("children", "counts")

    def __init__(self) -> None:
        self.children: dict[str, _Node] = {}
        self.counts: dict[Action, int] | None = None


class DzTrie:
    """Reference-counted contributions over the dz binary trie."""

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0  # number of distinct (dz, action) pairs
        # bits -> node, for exactly the nodes whose ``counts`` is set
        self._held: dict[str, _Node] = {}
        # bits of the nodes removals left childless and count-less since
        # the last prune
        self._emptied: list[str] = []

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, dz: Dz, action: Action) -> bool:
        """Add one holder of ``(dz, action)``; True if the pair is new."""
        bits = dz.bits
        node = self._held.get(bits)
        if node is None:
            node = self._root
            for bit in bits:
                children = node.children
                child = children.get(bit)
                if child is None:
                    child = children[bit] = _Node()
                node = child
            node.counts = {}
            self._held[bits] = node
        counts = node.counts
        held = counts[action] = counts.get(action, 0) + 1
        if held == 1:
            self._size += 1
            return True
        return False

    def remove(self, dz: Dz, action: Action) -> bool:
        """Drop one holder; True if the pair disappeared entirely."""
        bits = dz.bits
        node = self._held.get(bits)
        if node is None:
            return False
        counts = node.counts
        held = counts.get(action)
        if held is None:
            return False
        if held > 1:
            counts[action] = held - 1
            return False
        del counts[action]
        self._size -= 1
        if not counts:
            node.counts = None
            del self._held[bits]
            if bits and not node.children:
                self._emptied.append(bits)
        return True

    def prune(self) -> None:
        """Drop every subtree the removals since the last call left
        without contributions.

        Each emptied leaf goes with the chain of count-less, single-child
        ancestors that only led to it.  A leaf that was re-added or gained
        a child meanwhile stays, and one already cut with another's chain
        is skipped.
        """
        root = self._root
        for bits in self._emptied:
            node: _Node | None = root
            keep, cut = root, bits[0]  # the root always stays
            for bit in bits:
                if node.counts or len(node.children) > 1:
                    keep, cut = node, bit
                node = node.children.get(bit)
                if node is None:
                    break  # cut with an earlier leaf's chain
            else:
                if node.counts is None and not node.children:
                    del keep.children[cut]
        self._emptied.clear()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def desired_entry(self, dz: Dz) -> frozenset[Action] | None:
        """The desired flow actions at ``dz`` — None if no flow belongs
        there (nothing contributed, or fully implied by coarser flows).

        Matches :func:`repro.controller.reconciler.desired_flows` exactly.
        """
        parent_cumulative: set[Action] = set()
        node: _Node | None = self._root
        for bit in dz.bits:
            if node.counts:
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

    def desired_closure(
        self, changed: Set[str]
    ) -> Iterator[tuple[str, frozenset[Action] | None]]:
        """``(bits, desired entry)`` for every dz a change can move.

        ``changed`` holds the bits of the dz whose contributions changed.
        Yields each of them and every finer dz holding contributions, once
        and in bits order, with the value :meth:`desired_entry` gives.  A
        changed dz whose last holder left may have been pruned: the walk
        does not reach it, and it yields ``None`` in its place in the
        order.
        """
        pending = sorted(changed)
        count = len(pending)
        i = 0
        while i < count:
            bits = pending[i]
            above: frozenset[Action] = frozenset()
            node: _Node | None = self._root
            for bit in bits:
                if node.counts:
                    above = above.union(node.counts)
                node = node.children.get(bit)
                if node is None:
                    break
            if node is None:
                yield bits, None  # no contribution at or below ``bits``
                i += 1
                continue
            # The subtree is visited depth-first, "0" before "1": in bits
            # order.  Every changed dz sorting before the node visited
            # lies below ``bits`` and was not reached.
            stack = [(bits, node, above)]
            while stack:
                here, node, above = stack.pop()
                while i < count and pending[i] < here:
                    yield pending[i], None
                    i += 1
                is_changed = i < count and pending[i] == here
                if is_changed:
                    i += 1
                counts = node.counts
                if not counts:
                    if is_changed:
                        yield here, None
                # A non-empty ``above`` means some strictly coarser dz is
                # contributed; if it already implies everything here, no
                # flow is needed (reconciler's redundancy rule).
                elif above and counts.keys() <= above:
                    yield here, None
                else:
                    above = above.union(counts)
                    yield here, above
                children = node.children
                if children:
                    child = children.get("1")
                    if child is not None:
                        stack.append((here + "1", child, above))
                    child = children.get("0")
                    if child is not None:
                        stack.append((here + "0", child, above))
            while i < count and pending[i].startswith(bits):
                yield pending[i], None
                i += 1

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
