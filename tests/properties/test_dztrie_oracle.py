"""The indexed, pruning dz-trie checked against the walk-only trie it replaced.

``DzTrie`` keeps an index from bits to every node holding counts, so
``add`` of a held dz and every ``remove`` are one dict probe, and
``prune`` drops each leaf a removal emptied with the count-less chain
that only led to it.  The reference below is the former ``DzTrie``,
which walked from the root on every mutation and never dropped a node,
kept verbatim.

Twin tries get the same drawn sequence of adds, removes (of held and of
absent pairs), re-adds after the last holder left, contributions at the
root dz, and prunes of the indexed trie.  After every step the return
values, ``len``, ``items()``, ``desired_entry`` over every dz drawn and
``desired_closure`` over drawn sets of once-contributed dz (nested ones
included) must agree, the indexed trie must index exactly its holding
nodes, and after a prune it must hold no count-less subtree.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.controller.dztrie as dztrie
from repro.core.dz import Dz
from repro.network.flow import Action

# ----------------------------------------------------------------------
# reference implementation (the replaced code)
# ----------------------------------------------------------------------


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

    # ------------------------------------------------------------------
    # navigation
    # ------------------------------------------------------------------
    def _walk(self, bits: str) -> _Node | None:
        node = self._root
        try:
            for bit in bits:
                node = node.children[bit]
        except KeyError:
            return None
        return node

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, dz: Dz, action: Action) -> bool:
        """Add one holder of ``(dz, action)``; True if the pair is new."""
        node = self._root
        for bit in dz.bits:
            children = node.children
            child = children.get(bit)
            if child is None:
                child = children[bit] = _Node()
            node = child
        counts = node.counts
        if counts is None:
            counts = node.counts = {}
        held = counts[action] = counts.get(action, 0) + 1
        if held == 1:
            self._size += 1
            return True
        return False

    def remove(self, dz: Dz, action: Action) -> bool:
        """Drop one holder; True if the pair disappeared entirely."""
        node = self._walk(dz.bits)
        if node is None or node.counts is None or action not in node.counts:
            return False
        counts = node.counts
        held = counts[action] = counts[action] - 1
        if held:
            return False
        del counts[action]
        if not counts:
            node.counts = None
        self._size -= 1
        return True

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
        self, changed: Collection[str]
    ) -> Iterator[tuple[str, frozenset[Action] | None]]:
        """``(bits, desired entry)`` for every dz a change can move.

        ``changed`` holds the bits of the dz whose contributions changed;
        each was contributed at some point, and the trie never drops a
        node, so each is reached.  Yields each of them and every finer dz
        holding contributions, once and in bits order, with the value
        :meth:`desired_entry` gives.
        """
        outer: str | None = None
        for bits in sorted(changed):
            if outer is not None and bits.startswith(outer):
                continue  # already visited in the subtree of ``outer``
            outer = bits
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
                continue
            stack = [(bits, node, above)]
            while stack:
                here, node, above = stack.pop()
                counts = node.counts
                if not counts:
                    if here in changed:
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


# ----------------------------------------------------------------------
# twins
# ----------------------------------------------------------------------

bits_strategy = st.text(alphabet="01", max_size=4)
action_strategy = st.builds(
    Action,
    out_port=st.integers(min_value=1, max_value=3),
    set_dest=st.sampled_from([None, 5]),
)
step_strategy = st.tuples(
    st.sampled_from(["add", "remove", "prune"]),
    bits_strategy,
    action_strategy,
    # indexes into the dz contributed so far: the changed set to walk
    st.lists(st.integers(min_value=0), max_size=4),
)


def audit(trie: dztrie.DzTrie, pruned: bool) -> None:
    """An emptied node drops its counts, ``_held`` indexes exactly the
    nodes holding counts, and once ``pruned`` no count-less subtree hangs
    below the root."""
    holding: dict[str, object] = {}

    def visit(bits: str, node) -> bool:
        assert node.counts is None or node.counts, f"empty counts at {bits!r}"
        held = bool(node.counts)
        if held:
            holding[bits] = node
        for bit, child in node.children.items():
            held = visit(bits + bit, child) or held
        assert held or not bits or not pruned, f"count-less subtree at {bits!r}"
        return held

    visit("", trie._root)
    assert trie._held.keys() == holding.keys()
    assert all(trie._held[bits] is node for bits, node in holding.items())


def by_bits(items) -> list:
    return sorted(items, key=lambda item: item[0].bits)


def assert_same_answers(
    new: dztrie.DzTrie, ref: DzTrie, probes: set[str], changed: set[str]
) -> None:
    assert len(new) == len(ref)
    assert by_bits(new.items()) == by_bits(ref.items())
    assert new.contributions() == ref.contributions()
    for bits in sorted(probes):
        assert new.desired_entry(Dz(bits)) == ref.desired_entry(Dz(bits)), bits
    assert list(new.desired_closure(changed)) == list(
        ref.desired_closure(changed)
    )


def run_twins(steps) -> None:
    new, ref = dztrie.DzTrie(), DzTrie()
    contributed: list[str] = []
    for kind, bits, action, picks in steps:
        dz = Dz(bits)
        if kind == "add":
            assert new.add(dz, action) == ref.add(dz, action)
            if bits not in contributed:
                contributed.append(bits)
        elif kind == "remove":
            assert new.remove(dz, action) == ref.remove(dz, action)
        else:
            new.prune()
        audit(new, pruned=kind == "prune")
        # The reference reaches every dz it ever held, so only such dz
        # may be reported as changed (its precondition); nested ones and
        # ones whose last holder left are included.
        changed = (
            {contributed[i % len(contributed)] for i in picks}
            if contributed
            else set()
        )
        probes = {bits} | {
            held[:end] for held in contributed for end in range(len(held) + 1)
        }
        probes |= {held + "0" for held in contributed}
        assert_same_answers(new, ref, probes, changed)


A, B, REWRITE = Action(1), Action(2), Action(1, set_dest=5)


class TestIndexedTrieMatchesWalkOnly:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(step_strategy, min_size=1, max_size=40))
    # the root dz held, then a finer dz pruned below it and walked
    @example([
        ("add", "", A, []),
        ("add", "0", B, []),
        ("remove", "0", B, [0, 1]),
        ("prune", "", A, [0, 1]),
    ])
    # a pruned chain under a reached dz, a branching ancestor kept, then
    # a re-add through the pruned chain
    @example([
        ("add", "1", A, []),
        ("add", "1011", B, []),
        ("add", "100", B, []),
        ("remove", "1011", B, [0, 1, 2]),
        ("prune", "", A, [0, 1, 2]),
        ("remove", "100", B, [0, 1, 2]),
        ("prune", "", A, [0, 1, 2]),
        ("add", "1011", REWRITE, [0, 1, 2]),
    ])
    # nested changed dz, both pruned in one pass; removes of absent
    # pairs; a leaf re-added before the prune keeps its node
    @example([
        ("add", "01", A, []),
        ("add", "011", A, []),
        ("add", "011", A, []),
        ("remove", "011", A, [0, 1]),
        ("remove", "011", B, [0, 1]),
        ("remove", "011", A, [0, 1]),
        ("remove", "01", A, [0, 1]),
        ("remove", "01", A, [0, 1]),
        ("prune", "", A, [0, 1]),
        ("add", "10", A, []),
        ("remove", "10", A, [2]),
        ("add", "10", B, [2]),
        ("prune", "", A, [2]),
    ])
    def test_twins(self, steps):
        run_twins(steps)
