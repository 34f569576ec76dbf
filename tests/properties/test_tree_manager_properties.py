"""Property-based tests for tree-set invariants under random operations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dzset import DzSet
from repro.controller.tree_manager import TreeManager
from repro.exceptions import ControllerError
from repro.network.topology import paper_fat_tree
from repro.sim.engine import IdAllocator

bits = st.text(alphabet="01", min_size=1, max_size=6)
ops = st.lists(
    st.tuples(
        st.sampled_from(["create", "retire", "merge"]),
        st.lists(bits, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=20,
)

ROOTS = ["R7", "R8", "R9", "R10"]


@settings(max_examples=60, deadline=None)
@given(ops)
def test_dz_disjointness_is_invariant(operations):
    """Whatever the sequence of creates/retires/merges, tree DZ sets stay
    pairwise disjoint and overlap lookups stay consistent."""
    topo = paper_fat_tree()
    manager = TreeManager(topo, IdAllocator(), merge_threshold=64)
    for kind, dz_bits, selector in operations:
        live = sorted(manager.trees.values(), key=lambda t: t.tree_id)
        if kind == "create":
            region = DzSet.of(*dz_bits)
            overlapping = manager.overlapping_set(region)
            if overlapping:
                # creation must be refused when the region collides
                try:
                    manager.create_tree(ROOTS[selector % len(ROOTS)], region)
                    raise AssertionError("overlap accepted")
                except ControllerError:
                    pass
            else:
                manager.create_tree(ROOTS[selector % len(ROOTS)], region)
        elif kind == "retire" and live:
            manager.retire_tree(live[selector % len(live)].tree_id)
        elif kind == "merge" and len(live) >= 2:
            t1 = live[selector % len(live)]
            t2 = live[(selector + 1) % len(live)]
            if t1.tree_id != t2.tree_id:
                merged = manager.merge(t1, t2)
                # the merge covers both constituents
                assert merged.dz_set.covers(t1.dz_set)
                assert merged.dz_set.covers(t2.dz_set)
        manager.check_invariants()
        # overlap lookups agree with the membership structure
        for tree in manager:
            for dz in tree.dz_set:
                assert tree in manager.overlapping(dz)


@settings(max_examples=40, deadline=None)
@given(st.lists(bits, min_size=2, max_size=6, unique=True))
def test_total_coverage_monotone_under_merge(regions):
    """Merging never shrinks the covered region."""
    topo = paper_fat_tree()
    manager = TreeManager(topo, IdAllocator(), merge_threshold=64)
    created = []
    for i, b in enumerate(regions):
        region = DzSet.of(b)
        if not manager.overlapping_set(region):
            created.append(
                manager.create_tree(ROOTS[i % len(ROOTS)], region)
            )
    if len(created) < 2:
        return
    before = manager.total_coverage()
    merged = manager.merge(created[0], created[1])
    after = manager.total_coverage()
    assert after.covers(before)
    manager.check_invariants()
