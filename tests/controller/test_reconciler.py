"""Unit tests for the declarative flow reconciler."""

from repro.controller.reconciler import (
    apply_diff,
    desired_flows,
    diff_table,
)
from repro.core.dz import Dz
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.sim.engine import IdAllocator


class TestDesiredFlows:
    def test_single_contribution(self):
        desired = desired_flows({Dz("10"): frozenset({Action(2)})})
        assert desired == {Dz("10"): frozenset({Action(2)})}

    def test_redundant_fine_contribution_dropped(self):
        """A finer dz whose actions are implied by a coarser one — the
        reconciler's version of Algorithm 1 cases 2/3."""
        desired = desired_flows(
            {
                Dz("10"): frozenset({Action(2), Action(3)}),
                Dz("100"): frozenset({Action(2)}),
            }
        )
        assert set(desired) == {Dz("10")}

    def test_fine_flow_accumulates_coarser_actions(self):
        """The Fig. 4 R5 situation: contribution (100 -> port 2) plus a new
        coarser contribution (10 -> port 3).  The fine flow must carry both
        ports because TCAM executes only the best match (case 5)."""
        desired = desired_flows(
            {
                Dz("100"): frozenset({Action(2)}),
                Dz("10"): frozenset({Action(3)}),
            }
        )
        assert desired[Dz("100")] == {Action(2), Action(3)}
        assert desired[Dz("10")] == {Action(3)}

    def test_disjoint_contributions_independent(self):
        desired = desired_flows(
            {
                Dz("00"): frozenset({Action(1)}),
                Dz("11"): frozenset({Action(2)}),
            }
        )
        assert desired[Dz("00")] == {Action(1)}
        assert desired[Dz("11")] == {Action(2)}

    def test_chain_of_three(self):
        desired = desired_flows(
            {
                Dz("1"): frozenset({Action(1)}),
                Dz("10"): frozenset({Action(2)}),
                Dz("101"): frozenset({Action(3)}),
            }
        )
        assert desired[Dz("1")] == {Action(1)}
        assert desired[Dz("10")] == {Action(1), Action(2)}
        assert desired[Dz("101")] == {Action(1), Action(2), Action(3)}

    def test_empty(self):
        assert desired_flows({}) == {}

    def test_same_action_fine_and_coarse(self):
        # fine contribution adds nothing beyond the coarse one -> dropped
        desired = desired_flows(
            {
                Dz("1"): frozenset({Action(2)}),
                Dz("11"): frozenset({Action(2)}),
            }
        )
        assert set(desired) == {Dz("1")}


class TestDiffAndApply:
    def test_add_from_empty(self):
        table, ids = FlowTable(), IdAllocator()
        diff = diff_table(table, {Dz("10"): frozenset({Action(2)})}, ids)
        assert len(diff.additions) == 1
        assert diff.total_mods == 1
        apply_diff(table, diff)
        assert table.get_dz(Dz("10")).actions == {Action(2)}

    def test_noop_when_converged(self):
        table, ids = FlowTable(), IdAllocator()
        desired = {Dz("10"): frozenset({Action(2)})}
        apply_diff(table, diff_table(table, desired, ids))
        diff = diff_table(table, desired, ids)
        assert diff.is_empty

    def test_modification(self):
        table, ids = FlowTable(), IdAllocator()
        table.install(FlowEntry.for_dz(Dz("10"), {Action(2)}))
        diff = diff_table(
            table, {Dz("10"): frozenset({Action(2), Action(3)})}, ids
        )
        assert len(diff.modifications) == 1
        assert not diff.additions and not diff.deletions
        apply_diff(table, diff)
        assert table.get_dz(Dz("10")).actions == {Action(2), Action(3)}

    def test_deletion(self):
        table, ids = FlowTable(), IdAllocator()
        table.install(FlowEntry.for_dz(Dz("10"), {Action(2)}))
        diff = diff_table(table, {}, ids)
        assert len(diff.deletions) == 1
        apply_diff(table, diff)
        assert len(table) == 0

    def test_downgrade_is_one_add_one_delete(self):
        """Sec. 3.3.3: downgrading a flow from dz=10 back to dz=100."""
        table, ids = FlowTable(), IdAllocator()
        table.install(FlowEntry.for_dz(Dz("10"), {Action(2)}))
        diff = diff_table(table, {Dz("100"): frozenset({Action(2)})}, ids)
        assert len(diff.additions) == 1
        assert len(diff.deletions) == 1
        apply_diff(table, diff)
        assert table.get_dz(Dz("100")) is not None
        assert table.get_dz(Dz("10")) is None

    def test_priority_repaired(self):
        table, ids = FlowTable(), IdAllocator()
        table.install(FlowEntry.for_dz(Dz("10"), {Action(2)}, priority=99))
        diff = diff_table(table, {Dz("10"): frozenset({Action(2)})}, ids)
        assert len(diff.modifications) == 1
        apply_diff(table, diff)
        assert table.get_dz(Dz("10")).priority == 2
