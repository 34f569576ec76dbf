"""Spanning trees: the dissemination structures of Sec. 3.2.

Each tree ``t`` owns a set of subspaces ``DZ(t)`` — pairwise disjoint across
trees, so every event is disseminated in at most one tree — and logically
interconnects all switches of the partition.  Trees are built as shortest
path trees rooted at the advertising publisher's access switch ("createTree",
Algorithm 1 line 14).

A tree records its members: the publishers ``P_t`` with the overlap
``DZ^t(p)`` of their advertisement, and subscribers with ``DZ^t(s)``.
Routing between two endpoints follows the unique tree path between their
attachment switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dzset import DzSet, EMPTY
from repro.controller.state import Endpoint
from repro.exceptions import ControllerError

__all__ = ["SpanningTree", "TreeMember"]


@dataclass
class TreeMember:
    """A publisher or subscriber registered on a tree, with its overlap."""

    endpoint: Endpoint
    overlap: DzSet = EMPTY

    def widen(self, extra: DzSet) -> None:
        self.overlap = self.overlap.union(extra)

    def narrow(self, removed: DzSet) -> None:
        self.overlap = self.overlap.subtract(removed)


@dataclass
class SpanningTree:
    """One dissemination tree over the partition's switch graph."""

    root: str
    parents: dict[str, str]
    dz_set: DzSet
    tree_id: int = 0  # TreeManager numbers trees; a hand-built one keeps 0
    publishers: dict[int, TreeMember] = field(default_factory=dict)
    subscribers: dict[int, TreeMember] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        """Check the parent map is a tree rooted at ``root``."""
        for node in self.parents:
            seen = {node}
            cursor = node
            while cursor != self.root:
                cursor = self.parents.get(cursor)
                if cursor is None:
                    raise ControllerError(
                        f"tree {self.tree_id}: node {node!r} not connected "
                        f"to root {self.root!r}"
                    )
                if cursor in seen:
                    raise ControllerError(
                        f"tree {self.tree_id}: cycle through {cursor!r}"
                    )
                seen.add(cursor)

    def replace_structure(self, parents: dict[str, str]) -> None:
        """Swap in a new parent map (tree repair after a failure)."""
        old = self.parents
        self.parents = parents
        try:
            self._validate()
        except ControllerError:
            self.parents = old
            raise

    def uses_edge(self, a: str, b: str) -> bool:
        """True iff the tree routes over the undirected edge (a, b)."""
        return any(
            {child, parent} == {a, b}
            for child, parent in self.parents.items()
        )

    # ------------------------------------------------------------------
    @property
    def switches(self) -> set[str]:
        return {self.root, *self.parents.keys()}

    def path_to_root(self, switch: str) -> list[str]:
        """Switches from ``switch`` up to and including the root."""
        if switch != self.root and switch not in self.parents:
            raise ControllerError(
                f"switch {switch!r} not spanned by tree {self.tree_id}"
            )
        path = [switch]
        while path[-1] != self.root:
            path.append(self.parents[path[-1]])
        return path

    def path_between(self, a: str, b: str) -> list[str]:
        """The unique tree path between two switches (inclusive).

        Computed via the lowest common ancestor of the two root paths.
        """
        up_a = self.path_to_root(a)
        up_b = self.path_to_root(b)
        on_b = {node: i for i, node in enumerate(up_b)}
        for i, node in enumerate(up_a):
            if node in on_b:
                return up_a[: i + 1] + up_b[: on_b[node]][::-1]
        raise ControllerError(
            f"tree {self.tree_id}: no common ancestor of {a!r} and {b!r}"
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def join_publisher(self, adv_id: int, endpoint: Endpoint, overlap: DzSet) -> None:
        member = self.publishers.get(adv_id)
        if member is None:
            self.publishers[adv_id] = TreeMember(endpoint, overlap)
        else:
            member.widen(overlap)

    def join_subscriber(self, sub_id: int, endpoint: Endpoint, overlap: DzSet) -> None:
        member = self.subscribers.get(sub_id)
        if member is None:
            self.subscribers[sub_id] = TreeMember(endpoint, overlap)
        else:
            member.widen(overlap)

    def leave_publisher(self, adv_id: int) -> None:
        self.publishers.pop(adv_id, None)

    def leave_subscriber(self, sub_id: int) -> None:
        self.subscribers.pop(sub_id, None)

    def __repr__(self) -> str:
        return (
            f"SpanningTree(id={self.tree_id}, root={self.root!r}, "
            f"DZ={self.dz_set}, pubs={len(self.publishers)}, "
            f"subs={len(self.subscribers)})"
        )
