"""Unit tests for endpoints and the flow-contribution ledger."""

import pytest

from repro.controller.state import Endpoint, FlowLedger, PathKey
from repro.core.dz import Dz
from repro.exceptions import ControllerError
from repro.network.flow import Action


def key(tree=1, adv=1, sub=1, bits="10") -> PathKey:
    return PathKey(tree_id=tree, adv_id=adv, sub_id=sub, dz=Dz(bits))


class TestEndpoint:
    def test_real_endpoint(self):
        ep = Endpoint("h1", "R1", 3, address=42)
        assert not ep.is_virtual
        assert ep.terminal_action() == Action(3, set_dest=42)

    def test_virtual_endpoint(self):
        ep = Endpoint("ext:N2", "R5", 2)
        assert ep.is_virtual
        # no rewrite: the packet keeps its dz multicast address across the
        # border so the next partition can match it
        assert ep.terminal_action() == Action(2, set_dest=None)


class TestLedger:
    def test_add_route_equals_per_hop_adds(self):
        hops = [("R1", Action(2)), ("R2", Action(1)), ("R3", Action(3, 9))]
        grouped, single = FlowLedger(), FlowLedger()
        for ledger in (grouped, single):
            ledger.add("R2", Dz("10"), Action(1), key(sub=7))  # R2 holds it
        assert grouped.add_route(key(), hops) == ["R1", "R3"]
        new_on = [
            switch
            for switch, action in hops
            if single.add(switch, Dz("10"), action, key())
        ]
        assert new_on == ["R1", "R3"]
        assert grouped._by_key == single._by_key
        assert grouped.keys_for(sub_id=1) == single.keys_for(sub_id=1)
        for switch in ("R1", "R2", "R3"):
            assert grouped.contributions(switch) == single.contributions(
                switch
            )
        assert grouped.remove_key(key()) == single.remove_key(key())

    def test_add_and_aggregate(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(sub=1))
        ledger.add("R1", Dz("10"), Action(3), key(sub=2))
        ledger.add("R1", Dz("1"), Action(2), key(sub=3))
        contribs = ledger.contributions("R1")
        assert contribs[Dz("10")] == {Action(2), Action(3)}
        assert contribs[Dz("1")] == {Action(2)}

    def test_add_reports_new_pairs(self):
        ledger = FlowLedger()
        assert ledger.add("R1", Dz("10"), Action(2), key(sub=1)) is True
        # second holder of the same pair: no table change needed
        assert ledger.add("R1", Dz("10"), Action(2), key(sub=2)) is False

    def test_remove_key_returns_changed_dz(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(sub=1))
        ledger.add("R2", Dz("10"), Action(1), key(sub=1))
        changed = ledger.remove_key(key(sub=1))
        assert changed == {"R1": {Dz("10")}, "R2": {Dz("10")}}
        assert ledger.contributions("R1") == {}

    def test_shared_contribution_survives_one_removal(self):
        """Two subscribers needing the same (dz, action): removing one must
        not delete the contribution — this is the reachability bookkeeping
        behind the paper's 'delete or downgrade' rule."""
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(sub=1))
        ledger.add("R1", Dz("10"), Action(2), key(sub=2))
        changed = ledger.remove_key(key(sub=1))
        assert changed == {}  # the pair is still held by sub=2
        assert ledger.contributions("R1")[Dz("10")] == {Action(2)}

    def test_remove_keys_where_sub(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(sub=1, bits="10"))
        ledger.add("R2", Dz("11"), Action(2), key(sub=1, bits="11"))
        ledger.add("R1", Dz("0"), Action(2), key(sub=2, bits="0"))
        affected = ledger.remove_keys_where(sub_id=1)
        assert set(affected) == {"R1", "R2"}
        assert len(ledger) == 1

    def test_remove_keys_where_tree(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(tree=1))
        ledger.add("R1", Dz("11"), Action(2), key(tree=2, bits="11"))
        ledger.remove_keys_where(tree_id=1)
        assert ledger.keys_for(tree_id=1) == []
        assert len(ledger.keys_for(tree_id=2)) == 1

    def test_remove_everything_guard(self):
        with pytest.raises(ControllerError):
            FlowLedger().remove_keys_where()

    def test_has_path_and_idempotence(self):
        ledger = FlowLedger()
        assert not ledger.has_path(key())
        ledger.add("R1", Dz("10"), Action(2), key())
        assert ledger.has_path(key())

    def test_remove_missing_key_is_noop(self):
        assert FlowLedger().remove_key(key()) == {}

    def test_switches(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("1"), Action(2), key())
        assert set(ledger.switches()) == {"R1"}


class TestLedgerVersion:
    """Each mutator bumps the version of exactly the switches it touches."""

    def versions(self, ledger, switches=("R1", "R2", "R3")):
        return {name: ledger.version(name) for name in switches}

    def test_unknown_switch_is_zero(self):
        assert FlowLedger().version("R1") == 0

    def test_add_touches_its_switch_only(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(sub=1))
        assert self.versions(ledger) == {"R1": 1, "R2": 0, "R3": 0}
        # another holder of the same pair: the aggregate is unchanged, but
        # the switch was touched
        ledger.add("R1", Dz("10"), Action(2), key(sub=2))
        assert self.versions(ledger) == {"R1": 2, "R2": 0, "R3": 0}

    def test_add_route_touches_each_hop(self):
        ledger = FlowLedger()
        ledger.add_route(key(), [("R1", Action(2)), ("R3", Action(1))])
        assert self.versions(ledger) == {"R1": 1, "R2": 0, "R3": 1}

    def test_remove_key_touches_the_keys_switches(self):
        ledger = FlowLedger()
        ledger.add_route(key(sub=1), [("R1", Action(2)), ("R2", Action(1))])
        ledger.add("R3", Dz("0"), Action(1), key(sub=2, bits="0"))
        before = self.versions(ledger)
        ledger.remove_key(key(sub=1))
        after = self.versions(ledger)
        assert after == {"R1": before["R1"] + 1, "R2": before["R2"] + 1,
                         "R3": before["R3"]}
        ledger.remove_key(key(sub=1))  # gone already: touches nothing
        assert self.versions(ledger) == after

    def test_remove_keys_where_touches_matching_paths_only(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key(tree=1))
        ledger.add("R2", Dz("11"), Action(2), key(tree=2, bits="11"))
        before = self.versions(ledger)
        ledger.remove_keys_where(tree_id=1)
        assert self.versions(ledger) == {
            "R1": before["R1"] + 1, "R2": before["R2"], "R3": 0,
        }

    def test_prune_drops_emptied_nodes_and_touches_nothing(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key())
        ledger.add("R2", Dz("11"), Action(2), key(tree=2, bits="11"))
        ledger.remove_key(key())
        before = self.versions(ledger)
        ledger.prune()
        assert self.versions(ledger) == before
        assert ledger.trie("R1")._root.children == {}
        assert ledger.contributions("R2") == {Dz("11"): frozenset({Action(2)})}

    def test_reads_do_not_touch(self):
        ledger = FlowLedger()
        ledger.add("R1", Dz("10"), Action(2), key())
        before = self.versions(ledger)
        ledger.trie("R1")
        ledger.trie("R2")  # creates an empty trie
        ledger.contributions("R1")
        list(ledger.switches())
        ledger.keys_for(tree_id=1)
        ledger.has_path(key())
        assert self.versions(ledger) == before
