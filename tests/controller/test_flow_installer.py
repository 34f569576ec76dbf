"""Unit tests for the literal incremental flowAddition (Alg. 1 cases 1-5)."""

from repro.controller.flow_installer import flow_addition
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.sim.engine import IdAllocator


class TestCases:
    def test_case1_empty_table(self):
        table, ids = FlowTable(), IdAllocator()
        mods = flow_addition(table, Dz("10"), {Action(2)}, ids)
        assert mods == 1
        assert table.get_dz(Dz("10")).actions == {Action(2)}

    def test_case2_covered_no_action(self):
        """Fig. 4 R1: flow 1 -> {2} already covers new flow 10 -> {2}."""
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("1"), {Action(2)}, ids)
        mods = flow_addition(table, Dz("10"), {Action(2)}, ids)
        assert mods == 0
        assert len(table) == 1

    def test_case3_existing_replaced(self):
        """Fig. 4 R3/R4: new flow 10 -> {2} replaces existing 100 -> {2}."""
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("100"), {Action(2)}, ids)
        flow_addition(table, Dz("10"), {Action(2)}, ids)
        assert table.get_dz(Dz("100")) is None
        assert table.get_dz(Dz("10")).actions == {Action(2)}

    def test_case4_absorbs_coarser_ports(self):
        """A new finer flow must include the out ports of a partially
        covering coarser flow, at higher priority."""
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("1"), {Action(2)}, ids)
        flow_addition(table, Dz("10"), {Action(3)}, ids)
        fine = table.get_dz(Dz("10"))
        assert fine.actions == {Action(2), Action(3)}
        assert fine.priority > table.get_dz(Dz("1")).priority

    def test_case5_existing_finer_updated(self):
        """Fig. 4 R5: existing flow 100 -> {2} absorbs port 3 of the new
        coarser flow 10 -> {3} and outranks it."""
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("100"), {Action(2)}, ids)
        flow_addition(table, Dz("10"), {Action(3)}, ids)
        fine = table.get_dz(Dz("100"))
        coarse = table.get_dz(Dz("10"))
        assert fine.actions == {Action(2), Action(3)}
        assert coarse.actions == {Action(3)}
        assert fine.priority > coarse.priority

    def test_same_match_merges_actions(self):
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("10"), {Action(2)}, ids)
        flow_addition(table, Dz("10"), {Action(3)}, ids)
        assert table.get_dz(Dz("10")).actions == {Action(2), Action(3)}
        assert len(table) == 1


class TestForwardingSemantics:
    def _actions_for(self, table: FlowTable, bits: str):
        entry = table.lookup(dz_to_address(Dz(bits)))
        return entry.actions if entry else frozenset()

    def test_fig3_priority_order(self):
        """Fig. 3 R3: events matching 100 go to both ports, events matching
        1 but not 100 go to one port."""
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("1"), {Action(2)}, ids)
        flow_addition(table, Dz("100"), {Action(2), Action(3)}, ids)
        assert self._actions_for(table, "1001") == {Action(2), Action(3)}
        assert self._actions_for(table, "11") == {Action(2)}

    def test_terminal_rewrite_actions_are_distinct(self):
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("10"), {Action(2, set_dest=7)}, ids)
        flow_addition(table, Dz("10"), {Action(2, set_dest=8)}, ids)
        assert self._actions_for(table, "10") == {
            Action(2, set_dest=7),
            Action(2, set_dest=8),
        }

    def test_becomes_redundant_after_absorption_removed(self):
        """Refinement over the literal listing: after case 4 enlarges the
        new flow, finer flows that it now fully covers are deleted."""
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz("1"), {Action(2)}, ids)
        flow_addition(table, Dz("100"), {Action(3)}, ids)  # carries {2,3}
        flow_addition(table, Dz("10"), {Action(3)}, ids)  # merges to {2,3}
        # 100's cumulative {2,3} equals 10's -> redundant
        assert table.get_dz(Dz("100")) is None
        assert self._actions_for(table, "100") == {Action(2), Action(3)}

    def test_case2_records_nothing_but_behaviour_preserved(self):
        table, ids = FlowTable(), IdAllocator()
        flow_addition(table, Dz(""), {Action(1)}, ids)
        flow_addition(table, Dz("10110"), {Action(1)}, ids)
        assert self._actions_for(table, "10110") == {Action(1)}
        assert len(table) == 1
