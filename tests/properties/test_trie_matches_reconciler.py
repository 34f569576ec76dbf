"""The dz-trie's incremental desired-state must equal the from-scratch
reconciler after any add/remove sequence — including the closure-patching
strategy the controller uses."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.dztrie import DzTrie
from repro.controller.reconciler import desired_flows
from repro.core.dz import Dz
from repro.network.flow import Action, FlowEntry, FlowTable

bits = st.text(alphabet="01", min_size=0, max_size=5)
actions = st.builds(Action, out_port=st.integers(min_value=1, max_value=3))
operations = st.lists(
    st.tuples(st.booleans(), bits, actions), min_size=1, max_size=20
)


def apply_ops(ops):
    """Run ops through the trie, mirroring holder counts for removals."""
    trie = DzTrie()
    holders: dict[tuple[str, Action], int] = {}
    for is_add, dz_bits, action in ops:
        key = (dz_bits, action)
        if is_add:
            trie.add(Dz(dz_bits), action)
            holders[key] = holders.get(key, 0) + 1
        elif holders.get(key, 0) > 0:
            trie.remove(Dz(dz_bits), action)
            holders[key] -= 1
    return trie, holders


class TestTrieMatchesReconciler:
    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_desired_entries_equal(self, ops):
        trie, holders = apply_ops(ops)
        contributions: dict[Dz, set[Action]] = {}
        for (dz_bits, action), count in holders.items():
            if count > 0:
                contributions.setdefault(Dz(dz_bits), set()).add(action)
        spec = desired_flows(
            {dz: frozenset(a) for dz, a in contributions.items()}
        )
        # the trie must agree on every contributed dz and report None
        # everywhere else (probe all dz up to the max length used)
        probes = {Dz(b) for _, b, _ in ops}
        probes |= set(spec)
        for dz in probes:
            assert trie.desired_entry(dz) == spec.get(dz), f"dz={dz}"

    @settings(max_examples=100, deadline=None)
    @given(operations)
    def test_closure_patching_converges_to_spec(self, ops):
        """Applying the controller's patch rule (re-evaluate the changed dz
        and its contributed descendants, ``DzTrie.desired_closure``, after
        each op) keeps the table at the reconciled desired state."""
        trie = DzTrie()
        holders: dict[tuple[str, Action], int] = {}
        table = FlowTable()
        for is_add, dz_bits, action in ops:
            dz = Dz(dz_bits)
            key = (dz_bits, action)
            if is_add:
                changed = trie.add(dz, action)
                holders[key] = holders.get(key, 0) + 1
            elif holders.get(key, 0) > 0:
                changed = trie.remove(dz, action)
                holders[key] -= 1
            else:
                continue
            if not changed:
                continue
            for bits, desired in trie.desired_closure({dz.bits}):
                current = table.get_bits(bits)
                if desired is None:
                    if current is not None:
                        table.remove(current.match)
                elif current is None or current.actions != desired:
                    table.install(FlowEntry.for_dz(Dz(bits), desired))
        spec = desired_flows(trie.contributions())
        assert {e.dz: e.actions for e in table} == spec
