"""Unit tests for the dz-trie contribution store."""

from repro.controller.dztrie import DzTrie
from repro.core.dz import ROOT, Dz
from repro.network.flow import Action
from tests.helpers import (
    trie_actions_at,
    trie_cumulative,
    trie_descendants,
    trie_node,
)


class TestRefCounting:
    def test_add_first_holder_changes(self):
        trie = DzTrie()
        assert trie.add(Dz("10"), Action(2)) is True
        assert trie.add(Dz("10"), Action(2)) is False
        assert len(trie) == 1

    def test_remove_last_holder_changes(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(2))
        trie.add(Dz("10"), Action(2))
        assert trie.remove(Dz("10"), Action(2)) is False
        assert trie.remove(Dz("10"), Action(2)) is True
        assert len(trie) == 0

    def test_remove_missing_is_noop(self):
        assert DzTrie().remove(Dz("10"), Action(2)) is False

    def test_actions_at(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(2))
        trie.add(Dz("10"), Action(3))
        assert trie_actions_at(trie, Dz("10")) == {Action(2), Action(3)}
        assert trie_actions_at(trie, Dz("11")) == frozenset()


class TestQueries:
    def test_cumulative_walks_ancestors(self):
        trie = DzTrie()
        trie.add(ROOT, Action(1))
        trie.add(Dz("1"), Action(2))
        trie.add(Dz("10"), Action(3))
        trie.add(Dz("11"), Action(4))  # sibling: not on the path
        assert trie_cumulative(trie, Dz("10")) == {Action(1), Action(2), Action(3)}
        assert trie_cumulative(trie, Dz("100")) == {Action(1), Action(2), Action(3)}
        assert trie_cumulative(trie, ROOT) == {Action(1)}

    def test_desired_entry_redundant(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(2))
        trie.add(Dz("10"), Action(2))  # implied by the coarser contribution
        assert trie.desired_entry(Dz("1")) == {Action(2)}
        assert trie.desired_entry(Dz("10")) is None

    def test_desired_entry_accumulates(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(2))
        trie.add(Dz("10"), Action(3))
        assert trie.desired_entry(Dz("10")) == {Action(2), Action(3)}

    def test_desired_entry_absent(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(2))
        assert trie.desired_entry(Dz("0")) is None
        assert trie.desired_entry(Dz("11")) is None  # no contribution there

    def test_desired_entry_at_root(self):
        trie = DzTrie()
        trie.add(ROOT, Action(1))
        assert trie.desired_entry(ROOT) == {Action(1)}

    def test_descendants(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(1))
        trie.add(Dz("10"), Action(2))
        trie.add(Dz("101"), Action(3))
        trie.add(Dz("0"), Action(4))
        assert set(trie_descendants(trie, Dz("1"))) == {Dz("10"), Dz("101")}
        assert set(trie_descendants(trie, ROOT)) == {
            Dz("1"),
            Dz("10"),
            Dz("101"),
            Dz("0"),
        }
        assert set(trie_descendants(trie, Dz("101"))) == set()

    def test_descendants_skip_empty_nodes(self):
        trie = DzTrie()
        trie.add(Dz("101"), Action(1))
        trie.remove(Dz("101"), Action(1))
        trie.add(Dz("1011"), Action(2))
        assert set(trie_descendants(trie, Dz("1"))) == {Dz("1011")}

    def test_desired_closure_in_bits_order(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(1))
        trie.add(Dz("11"), Action(2))
        trie.add(Dz("10"), Action(1))  # implied by "1": no flow of its own
        trie.add(Dz("101"), Action(3))
        trie.add(Dz("0"), Action(4))  # outside the changed subtree
        assert list(trie.desired_closure({"1"})) == [
            ("1", {Action(1)}),
            ("10", None),
            ("101", {Action(1), Action(3)}),
            ("11", {Action(1), Action(2)}),
        ]

    def test_desired_closure_visits_nested_changes_once(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(1))
        trie.add(Dz("10"), Action(2))
        trie.add(Dz("0"), Action(3))
        closure = list(trie.desired_closure({"10", "1", "0"}))
        assert [bits for bits, _ in closure] == ["0", "1", "10"]

    def test_desired_closure_reports_emptied_dz(self):
        """A changed dz whose last holder left yields None, so its stale
        entry is removed; emptied descendants that did not change are
        skipped."""
        trie = DzTrie()
        trie.add(Dz("1"), Action(1))
        trie.add(Dz("10"), Action(2))
        trie.add(Dz("100"), Action(3))
        trie.remove(Dz("1"), Action(1))
        trie.remove(Dz("100"), Action(3))
        assert list(trie.desired_closure({"1"})) == [
            ("1", None),
            ("10", {Action(2)}),
        ]
        assert list(trie.desired_closure({"100"})) == [("100", None)]

    def test_desired_closure_reports_pruned_dz(self):
        """A changed dz whose last holder left and whose node was pruned
        still yields ``None``, in bits order, so its stale entry is
        removed."""
        trie = DzTrie()
        trie.add(ROOT, Action(1))
        trie.add(Dz("0"), Action(2))
        trie.remove(Dz("0"), Action(2))
        trie.prune()
        assert trie_node(trie, "0") is None
        assert list(trie.desired_closure({"", "0"})) == [
            ("", {Action(1)}),
            ("0", None),
        ]
        # pruned between two reached siblings' subtrees
        trie.add(Dz("1"), Action(2))
        trie.add(Dz("10"), Action(3))
        trie.add(Dz("11"), Action(3))
        trie.remove(Dz("10"), Action(3))
        trie.prune()
        assert list(trie.desired_closure({"1", "10"})) == [
            ("1", {Action(1), Action(2)}),
            ("10", None),
            ("11", {Action(1), Action(2), Action(3)}),
        ]
        # nested changed dz, both pruned
        trie.add(Dz("01"), Action(2))
        trie.add(Dz("011"), Action(3))
        trie.remove(Dz("011"), Action(3))
        trie.remove(Dz("01"), Action(2))
        trie.prune()
        assert trie_node(trie, "01") is None
        assert list(trie.desired_closure({"01", "011"})) == [
            ("01", None),
            ("011", None),
        ]

    def test_desired_closure_below_coarser_contribution(self):
        trie = DzTrie()
        trie.add(ROOT, Action(1))
        trie.add(Dz("01"), Action(2))
        trie.add(Dz("011"), Action(1))
        assert list(trie.desired_closure({"01"})) == [
            ("01", {Action(1), Action(2)}),
            ("011", None),
        ]
        assert list(trie.desired_closure({"11"})) == [("11", None)]

    def test_contributions_round_trip(self):
        trie = DzTrie()
        trie.add(Dz("0"), Action(1))
        trie.add(Dz("11"), Action(2))
        trie.add(Dz("11"), Action(3))
        assert trie.contributions() == {
            Dz("0"): frozenset({Action(1)}),
            Dz("11"): frozenset({Action(2), Action(3)}),
        }


class TestEdgeCases:
    def test_descendants_of_dz_with_no_subtree(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(2))
        assert list(trie_descendants(trie, Dz("10"))) == []   # leaf: empty subtree
        assert list(trie_descendants(trie, Dz("01"))) == []   # absent node entirely

    def test_descendants_skips_empty_interior_nodes(self):
        trie = DzTrie()
        trie.add(Dz("1011"), Action(2))  # '10' and '101' exist but are empty
        assert list(trie_descendants(trie, Dz("1"))) == [Dz("1011")]
        assert list(trie_descendants(trie, Dz("1011"))) == []

    def test_double_remove_does_not_underflow(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(2))
        assert trie.remove(Dz("10"), Action(2)) is True
        # a second remove of the same holder must be a no-op, not -1
        assert trie.remove(Dz("10"), Action(2)) is False
        assert len(trie) == 0
        # one fresh holder must make the pair visible again immediately
        assert trie.add(Dz("10"), Action(2)) is True
        assert trie_actions_at(trie, Dz("10")) == {Action(2)}
        assert len(trie) == 1

    def test_last_holder_leaving_clears_desired_entry(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(2))  # two paths hold the same pair
        trie.add(Dz("10"), Action(2))
        trie.remove(Dz("10"), Action(2))
        assert trie.desired_entry(Dz("10")) == {Action(2)}  # one holder left
        trie.remove(Dz("10"), Action(2))
        assert trie.desired_entry(Dz("10")) is None  # last holder gone


class TestPruning:
    def test_prune_drops_an_emptied_leaf_with_its_chain(self):
        trie = DzTrie()
        trie.add(Dz("1"), Action(1))
        trie.add(Dz("1011"), Action(2))
        trie.add(Dz("100"), Action(2))
        trie.remove(Dz("1011"), Action(2))
        assert trie_node(trie, "1011") is not None  # only noted so far
        trie.prune()
        # "101" only led to "1011"; "10" still leads to "100"
        assert trie_node(trie, "101") is None
        assert trie_node(trie, "10") is not None
        trie.remove(Dz("100"), Action(2))
        trie.prune()
        assert trie_node(trie, "10") is None
        assert trie_node(trie, "1").children == {}
        assert trie.contributions() == {Dz("1"): frozenset({Action(1)})}

    def test_interior_node_keeps_its_subtree(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(1))
        trie.add(Dz("101"), Action(2))
        trie.remove(Dz("10"), Action(1))
        trie.prune()
        node = trie_node(trie, "10")
        assert node is not None and node.counts is None
        assert trie.desired_entry(Dz("101")) == {Action(2)}

    def test_a_held_pair_is_not_pruned(self):
        trie = DzTrie()
        trie.add(Dz("10"), Action(1))
        trie.add(Dz("10"), Action(2))
        trie.remove(Dz("10"), Action(1))
        assert trie_actions_at(trie, Dz("10")) == {Action(2)}

    def test_pruning_empties_the_trie(self):
        trie = DzTrie()
        for bits in ("0", "01", "0110", "1"):
            trie.add(Dz(bits), Action(1))
        for bits in ("0110", "1", "0", "01"):
            assert trie.remove(Dz(bits), Action(1)) is True
        trie.prune()
        assert trie._root.children == {} and trie._held == {}
        assert len(trie) == 0

    def test_root_dz_is_never_pruned(self):
        trie = DzTrie()
        trie.add(ROOT, Action(1))
        trie.remove(ROOT, Action(1))
        trie.prune()
        assert trie._root.counts is None
        assert trie.add(ROOT, Action(1)) is True
        assert trie.desired_entry(ROOT) == {Action(1)}

    def test_re_add_through_a_pruned_chain(self):
        trie = DzTrie()
        trie.add(Dz("0101"), Action(1))
        trie.remove(Dz("0101"), Action(1))
        trie.prune()
        assert trie._root.children == {}
        assert trie.add(Dz("0101"), Action(2)) is True
        assert trie.desired_entry(Dz("0101")) == {Action(2)}
        assert list(trie.desired_closure({"0"})) == [
            ("0", None),
            ("0101", {Action(2)}),
        ]

    def test_a_leaf_re_added_before_the_prune_keeps_its_node(self):
        trie = DzTrie()
        trie.add(Dz("0101"), Action(1))
        node = trie_node(trie, "0101")
        trie.remove(Dz("0101"), Action(1))
        trie.add(Dz("0101"), Action(2))
        trie.prune()
        assert trie_node(trie, "0101") is node
        assert trie_actions_at(trie, Dz("0101")) == {Action(2)}

    def test_an_emptied_leaf_that_gained_a_child_stays(self):
        trie = DzTrie()
        trie.add(Dz("01"), Action(1))
        trie.remove(Dz("01"), Action(1))
        trie.add(Dz("011"), Action(2))
        trie.prune()
        assert trie_node(trie, "01") is not None
        assert trie.contributions() == {Dz("011"): frozenset({Action(2)})}


class TestUnsubscribeDowngrade:
    """Sec. 3.3.3: removing a subscriber downgrades shared flows to the
    remaining subscribers' actions and deletes them only when the last
    holder leaves."""

    def test_downgrade_then_delete(self):
        from repro.core.subscription import Advertisement, Subscription
        from repro.network.topology import line
        from tests.helpers import make_system

        system = make_system(line(4))
        controller = system.controller
        controller.advertise("h1", Advertisement.of(attr0=(0, 1023)))
        near = controller.subscribe("h3", Subscription.of(attr0=(512, 767)))
        far = controller.subscribe("h4", Subscription.of(attr0=(512, 767)))
        # R3 serves both: terminal delivery to h3 plus transit towards R4
        [entry] = controller.installed_table("R3").entries()
        assert len(entry.actions) == 2
        terminal = {a for a in entry.actions if a.set_dest is not None}
        assert len(terminal) == 1

        controller.unsubscribe(far.sub_id)
        # downgraded, not deleted: only h3's terminal action remains
        [entry] = controller.installed_table("R3").entries()
        assert entry.actions == frozenset(terminal)
        assert controller.installed_table("R4").entries() == []

        controller.unsubscribe(near.sub_id)
        # last holder left: the flow disappears everywhere
        for switch in sorted(controller.partition):
            assert controller.installed_table(switch).entries() == []
