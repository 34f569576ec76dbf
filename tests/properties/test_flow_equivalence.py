"""Property-based equivalence of the two flow-maintenance formulations.

Algorithm 1's incremental cases 1-5 (:func:`flow_addition`) and the
declarative reconciler (:func:`desired_flows`) must yield *behaviourally*
identical switch tables after any sequence of additions: for every incoming
event address, the executed action set is the same.  The reconciled table
is additionally minimal.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.flow_installer import flow_addition
from repro.controller.reconciler import apply_diff, desired_flows, diff_table
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.flow import Action, FlowTable
from repro.sim.engine import IdAllocator

bits = st.text(alphabet="01", min_size=0, max_size=6)
actions = st.builds(
    Action,
    out_port=st.integers(min_value=1, max_value=4),
    set_dest=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
)
contribution_sequences = st.lists(
    st.tuples(bits, actions), min_size=1, max_size=12
)


def forwarding_behaviour(table: FlowTable) -> dict[str, frozenset[Action]]:
    """The action set executed for every probe address (all dz of length 7)."""
    behaviour = {}
    for value in range(2 ** 7):
        probe = format(value, "07b")
        entry = table.lookup(dz_to_address(Dz(probe)))
        behaviour[probe] = entry.actions if entry else frozenset()
    return behaviour


def build_incremental(sequence) -> FlowTable:
    table, ids = FlowTable(), IdAllocator()
    for dz_bits, action in sequence:
        flow_addition(table, Dz(dz_bits), {action}, ids)
    return table


def build_reconciled(sequence) -> FlowTable:
    contributions: dict[Dz, set[Action]] = {}
    for dz_bits, action in sequence:
        contributions.setdefault(Dz(dz_bits), set()).add(action)
    table, ids = FlowTable(), IdAllocator()
    desired = desired_flows(
        {dz: frozenset(acts) for dz, acts in contributions.items()}
    )
    apply_diff(table, diff_table(table, desired, ids))
    return table


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(contribution_sequences)
    def test_incremental_matches_reconciled_behaviour(self, sequence):
        incremental = build_incremental(sequence)
        reconciled = build_reconciled(sequence)
        assert forwarding_behaviour(incremental) == forwarding_behaviour(
            reconciled
        )

    @settings(max_examples=120, deadline=None)
    @given(contribution_sequences)
    def test_incremental_order_independent_behaviour(self, sequence):
        forward = build_incremental(sequence)
        backward = build_incremental(list(reversed(sequence)))
        assert forwarding_behaviour(forward) == forwarding_behaviour(backward)

    @settings(max_examples=120, deadline=None)
    @given(contribution_sequences)
    def test_reconciled_reachable_entries_are_necessary(self, sequence):
        """Dropping any entry the TCAM actually executes changes behaviour.

        (An entry fully shadowed by both its children is unreachable and
        therefore exempt — removing it is a no-op by construction.)
        """
        reconciled = build_reconciled(sequence)
        reference = forwarding_behaviour(reconciled)
        executed_matches = set()
        for value in range(2 ** 7):
            entry = reconciled.lookup(dz_to_address(Dz(format(value, "07b"))))
            if entry is not None:
                executed_matches.add(entry.match)
        for entry in reconciled.entries():
            if entry.match not in executed_matches:
                continue
            reconciled.remove(entry.match)
            assert forwarding_behaviour(reconciled) != reference
            reconciled.install(entry)

    @settings(max_examples=120, deadline=None)
    @given(contribution_sequences)
    def test_every_contribution_honoured(self, sequence):
        """Any event inside a contributed dz must execute at least that
        contribution's action (no lost forwarding legs)."""
        table = build_reconciled(sequence)
        for dz_bits, action in sequence:
            probe = (dz_bits + "0" * 7)[:7]
            entry = table.lookup(dz_to_address(Dz(probe)))
            assert entry is not None
            assert action in entry.actions

    @settings(max_examples=100, deadline=None)
    @given(contribution_sequences)
    def test_priorities_strictly_finer_wins(self, sequence):
        """In the reconciled table, matching entries are totally ordered by
        (priority, specificity) with the finest dz executing."""
        table = build_reconciled(sequence)
        for value in range(2 ** 7):
            probe = dz_to_address(Dz(format(value, "07b")))
            matches = table.matching_entries(probe)
            if len(matches) > 1:
                executed = table.lookup(probe)
                finest = max(matches, key=lambda e: e.match.prefix_len)
                assert executed is finest
                # the executed action set subsumes all coarser matches
                for other in matches:
                    assert executed.actions >= other.actions
