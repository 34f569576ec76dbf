"""Unit tests for tree creation, lookup and merging."""

import pytest

from repro.controller.state import Endpoint
from repro.controller.tree_manager import TreeManager
from repro.core.dz import Dz
from repro.core.dzset import DzSet
from repro.exceptions import ControllerError
from repro.network.topology import line, paper_fat_tree, ring
from repro.sim.engine import IdAllocator


@pytest.fixture
def manager():
    return TreeManager(paper_fat_tree(), IdAllocator(), merge_threshold=4)


class TestCreation:
    def test_create_tree_spans_partition(self, manager):
        tree = manager.create_tree("R7", DzSet.of("0"))
        assert tree.switches == set(paper_fat_tree().switches())
        assert tree.root == "R7"
        assert manager.trees_created == 1

    def test_create_requires_partition_root(self, manager):
        with pytest.raises(ControllerError):
            manager.create_tree("R99", DzSet.of("0"))

    def test_create_rejects_empty_dz(self, manager):
        with pytest.raises(ControllerError):
            manager.create_tree("R7", DzSet(frozenset()))

    def test_disjointness_enforced(self, manager):
        manager.create_tree("R7", DzSet.of("0"))
        with pytest.raises(ControllerError):
            manager.create_tree("R8", DzSet.of("00"))

    def test_partition_restricted_tree(self):
        topo = ring(6, hosts_per_switch=0)
        manager = TreeManager(topo, IdAllocator(), partition={"R1", "R2", "R3"})
        tree = manager.create_tree("R1", DzSet.of("1"))
        assert tree.switches == {"R1", "R2", "R3"}

    def test_invalid_partition(self):
        with pytest.raises(ControllerError):
            TreeManager(line(2), IdAllocator(), partition={"R1", "bogus"})

    def test_invalid_threshold(self):
        with pytest.raises(ControllerError):
            TreeManager(line(2), IdAllocator(), merge_threshold=0)


class TestLookup:
    def test_overlapping(self, manager):
        t0 = manager.create_tree("R7", DzSet.of("0"))
        t1 = manager.create_tree("R8", DzSet.of("10"))
        assert manager.overlapping(Dz("00")) == [t0]
        assert manager.overlapping(Dz("1")) == [t1]
        assert manager.overlapping(Dz("11")) == []

    def test_overlapping_set(self, manager):
        t0 = manager.create_tree("R7", DzSet.of("0"))
        manager.create_tree("R8", DzSet.of("11"))
        hits = manager.overlapping_set(DzSet.of("01", "10"))
        assert hits == [t0]

    def test_total_coverage(self, manager):
        manager.create_tree("R7", DzSet.of("00"))
        manager.create_tree("R8", DzSet.of("01"))
        assert manager.total_coverage() == DzSet.of("0")

    def test_get_unknown(self, manager):
        with pytest.raises(ControllerError):
            manager.get(999)

    def test_retire(self, manager):
        tree = manager.create_tree("R7", DzSet.of("0"))
        manager.retire_tree(tree.tree_id)
        assert len(manager) == 0
        # region is free again
        manager.create_tree("R8", DzSet.of("00"))


class TestMerging:
    def test_paper_merge_example(self, manager):
        """Sec. 3.2: DZ {0000, 0010} and {0001, 0011} merge into {00}."""
        t1 = manager.create_tree("R7", DzSet.of("0000", "0010"))
        t2 = manager.create_tree("R8", DzSet.of("0001", "0011"))
        merged = manager.merge(t1, t2)
        assert merged.dz_set == DzSet.of("00")
        assert manager.trees_merged == 1
        manager.check_invariants()

    def test_coarsening_blocked_by_third_tree_falls_back_to_union(
        self, manager
    ):
        t1 = manager.create_tree("R7", DzSet.of("0000"))
        t2 = manager.create_tree("R8", DzSet.of("0011"))
        manager.create_tree("R9", DzSet.of("0010"))  # blocks coarse '00'
        merged = manager.merge(t1, t2)
        assert merged.dz_set == DzSet.of("0000", "0011")
        manager.check_invariants()

    def test_merge_keeps_members(self, manager):
        t1 = manager.create_tree("R7", DzSet.of("00"))
        t2 = manager.create_tree("R8", DzSet.of("01"))
        ep = Endpoint("h1", "R7", 1, address=1)
        t1.join_publisher(5, ep, DzSet.of("00"))
        t2.join_subscriber(6, ep, DzSet.of("01"))
        merged = manager.merge(t1, t2)
        assert 5 in merged.publishers
        assert 6 in merged.subscribers

    def test_merge_root_prefers_more_publishers(self, manager):
        t1 = manager.create_tree("R7", DzSet.of("00"))
        t2 = manager.create_tree("R8", DzSet.of("01"))
        ep = Endpoint("h3", "R8", 1, address=3)
        t2.join_publisher(5, ep, DzSet.of("01"))
        merged = manager.merge(t1, t2)
        assert merged.root == "R8"

    def test_merges_needed_threshold(self):
        manager = TreeManager(
            paper_fat_tree(), IdAllocator(), merge_threshold=2
        )
        manager.create_tree("R7", DzSet.of("00"))
        manager.create_tree("R8", DzSet.of("01"))
        assert not manager.merges_needed()
        manager.create_tree("R9", DzSet.of("10"))
        assert manager.merges_needed()

    def test_pick_merge_pair_prefers_long_common_prefix(self, manager):
        manager.create_tree("R7", DzSet.of("0000"))
        manager.create_tree("R8", DzSet.of("0001"))
        manager.create_tree("R9", DzSet.of("1"))
        a, b = manager.pick_merge_pair()
        assert {str(next(iter(a.dz_set)))[:3], str(next(iter(b.dz_set)))[:3]} == {
            "000"
        }

    def test_merge_dead_tree_rejected(self, manager):
        t1 = manager.create_tree("R7", DzSet.of("00"))
        t2 = manager.create_tree("R8", DzSet.of("01"))
        manager.retire_tree(t1.tree_id)
        with pytest.raises(ControllerError):
            manager.merge(t1, t2)

    def test_pick_merge_needs_two(self, manager):
        manager.create_tree("R7", DzSet.of("0"))
        with pytest.raises(ControllerError):
            manager.pick_merge_pair()
