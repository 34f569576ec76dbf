"""Managing the set of spanning trees (Sec. 3.2).

The manager guarantees the paper's core invariant — ``DZ(t) ∩ DZ(t') = ∅``
for all distinct trees, so an event is disseminated in at most one tree —
and implements tree creation (shortest path tree rooted at the advertising
publisher's access switch) and merging: when the number of trees exceeds a
threshold, trees are merged "by mapping DZ of trees to a smaller set of
coarser subspaces", e.g. ``{0000, 0010}`` and ``{0001, 0011}`` merge into
``{00}``.  Coarsening must not collide with the DZ of third trees; when a
coarser covering subspace would, the merge falls back to the plain union
(still disjoint, just not shorter).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.dz import Dz
from repro.core.dzset import DzSet
from repro.controller.tree import SpanningTree
from repro.controller.tree_builders import TreeBuilder, shortest_path_tree
from repro.exceptions import ControllerError
from repro.network.topology import Topology
from repro.sim.engine import IdAllocator

__all__ = ["TreeManager"]


class TreeManager:
    """Creates, finds, merges and retires spanning trees for one partition,
    numbering them from the ``tree`` sequence of the deployment's ``ids``."""

    def __init__(
        self,
        topology: Topology,
        ids: IdAllocator,
        partition: Iterable[str] | None = None,
        merge_threshold: int = 16,
        tree_builder: TreeBuilder = shortest_path_tree,
    ) -> None:
        if merge_threshold < 1:
            raise ControllerError("merge threshold must be >= 1")
        self.tree_builder = tree_builder
        self.topology = topology
        self.ids = ids
        self.partition = (
            set(partition) if partition is not None else set(topology.switches())
        )
        unknown = self.partition - set(topology.switches())
        if unknown:
            raise ControllerError(f"not switches: {sorted(unknown)}")
        self.merge_threshold = merge_threshold
        self.trees: dict[int, SpanningTree] = {}
        self.trees_created = 0
        self.trees_merged = 0

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[SpanningTree]:
        return iter(self.trees.values())

    def __len__(self) -> int:
        return len(self.trees)

    def get(self, tree_id: int) -> SpanningTree:
        try:
            return self.trees[tree_id]
        except KeyError:
            raise ControllerError(f"unknown tree {tree_id}") from None

    def overlapping(self, dz: Dz) -> list[SpanningTree]:
        """All trees whose DZ overlaps the subspace ``dz`` (Alg. 1 line 4)."""
        return [
            t
            for t in self.trees.values()
            if t.dz_set.overlaps_dz(dz)
        ]

    def overlapping_set(self, dzset: DzSet) -> list[SpanningTree]:
        return [t for t in self.trees.values() if t.dz_set.overlaps(dzset)]

    def total_coverage(self) -> DzSet:
        """The union of all trees' DZ."""
        result = DzSet(frozenset())
        for t in self.trees.values():
            result = result.union(t.dz_set)
        return result

    # ------------------------------------------------------------------
    def create_tree(self, root: str, dz_set: DzSet) -> SpanningTree:
        """``createTree``: a shortest path tree rooted at ``root`` spanning
        the partition, owning ``dz_set``."""
        if root not in self.partition:
            raise ControllerError(
                f"root {root!r} is not a switch of this partition"
            )
        if dz_set.is_empty:
            raise ControllerError("refusing to create a tree with empty DZ")
        for t in self.trees.values():
            if t.dz_set.overlaps(dz_set):
                raise ControllerError(
                    f"new DZ {dz_set} overlaps tree {t.tree_id} ({t.dz_set})"
                )
        parents = self.tree_builder(self.topology, self.partition, root)
        tree = SpanningTree(root, parents, dz_set, self.ids.next("tree"))
        self.trees[tree.tree_id] = tree
        self.trees_created += 1
        return tree

    def retire_tree(self, tree_id: int) -> SpanningTree:
        """Remove a tree (its flows must have been withdrawn already)."""
        tree = self.get(tree_id)
        del self.trees[tree_id]
        return tree

    # ------------------------------------------------------------------
    def merges_needed(self) -> bool:
        return len(self.trees) > self.merge_threshold

    def pick_merge_pair(self) -> tuple[SpanningTree, SpanningTree]:
        """The cheapest pair to merge: the one whose combined DZ coarsens
        to the longest common prefix (least over-coverage)."""
        if len(self.trees) < 2:
            raise ControllerError("need two trees to merge")
        candidates = sorted(self.trees.values(), key=lambda t: t.tree_id)
        best_pair = None
        best_score = (-1, 0.0)
        for i, t1 in enumerate(candidates):
            for t2 in candidates[i + 1:]:
                combined = t1.dz_set.union(t2.dz_set)
                prefix = combined.coarsen_to_common_prefix()
                # prefer long common prefixes; tie-break on small coverage
                score = (len(prefix), -combined.total_measure())
                if score > best_score:
                    best_score = score
                    best_pair = (t1, t2)
        assert best_pair is not None
        return best_pair

    def merged_dz(self, t1: SpanningTree, t2: SpanningTree) -> DzSet:
        """The DZ of the merge of two trees.

        Prefer the coarsened single subspace (shorter dz, hence fewer and
        coarser flows); fall back to the plain union when the coarse
        subspace would overlap a third tree.
        """
        combined = t1.dz_set.union(t2.dz_set)
        coarse = DzSet(frozenset({combined.coarsen_to_common_prefix()}))
        for other in self.trees.values():
            if other.tree_id in (t1.tree_id, t2.tree_id):
                continue
            if other.dz_set.overlaps(coarse):
                return combined
        return coarse

    def merge(self, t1: SpanningTree, t2: SpanningTree) -> SpanningTree:
        """Structurally merge two trees into a new one.

        The merged tree is rooted at the root of the tree with more
        publishers (re-homing fewer paths).  Member sets are combined; the
        caller (the controller) is responsible for re-installing flows for
        the members of the retired trees.
        """
        if t1.tree_id not in self.trees or t2.tree_id not in self.trees:
            raise ControllerError("can only merge live trees")
        dz_set = self.merged_dz(t1, t2)
        survivor_root = (
            t1.root if len(t1.publishers) >= len(t2.publishers) else t2.root
        )
        del self.trees[t1.tree_id]
        del self.trees[t2.tree_id]
        parents = self.tree_builder(self.topology, self.partition, survivor_root)
        merged = SpanningTree(
            survivor_root, parents, dz_set, self.ids.next("tree")
        )
        for source in (t1, t2):
            for adv_id, member in source.publishers.items():
                merged.join_publisher(adv_id, member.endpoint, member.overlap)
            for sub_id, member in source.subscribers.items():
                merged.join_subscriber(sub_id, member.endpoint, member.overlap)
        self.trees[merged.tree_id] = merged
        self.trees_merged += 1
        return merged

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert pairwise disjointness of tree DZ sets (test hook)."""
        trees = sorted(self.trees.values(), key=lambda t: t.tree_id)
        for i, t1 in enumerate(trees):
            for t2 in trees[i + 1:]:
                if t1.dz_set.overlaps(t2.dz_set):
                    raise ControllerError(
                        f"trees {t1.tree_id} and {t2.tree_id} overlap: "
                        f"{t1.dz_set} vs {t2.dz_set}"
                    )
