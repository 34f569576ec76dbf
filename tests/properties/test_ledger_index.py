"""The ledger's identity indexes agree with a full scan after any churn.

``FlowLedger.keys_for`` and ``remove_keys_where`` answer from per-tree,
per-advertisement and per-subscription indexes.  The reference here is the
full scan of every recorded path that they replaced, applied to a twin
ledger: the doomed keys, their order (which fixes the order of the
resulting flow-mods) and the changed switch/dz pairs must all match.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.state import FlowLedger, PathKey
from repro.core.dz import Dz
from repro.network.flow import Action

ids = st.integers(min_value=1, max_value=4)
keys = st.builds(
    PathKey,
    tree_id=ids,
    adv_id=ids,
    sub_id=ids,
    dz=st.sampled_from([Dz("0"), Dz("01"), Dz("1")]),
)
maybe_id = st.none() | ids

adds = st.tuples(
    st.just("add"),
    keys,
    st.sampled_from(["R1", "R2", "R3"]),
    st.sampled_from([Dz("0"), Dz("10"), Dz("11")]),
    st.integers(min_value=1, max_value=3),
)
removes = st.tuples(st.just("remove_key"), keys)
wheres = st.tuples(st.just("where"), maybe_id, maybe_id, maybe_id).filter(
    lambda op: op[1:] != (None, None, None)
)
operations = st.lists(st.one_of(adds, adds, removes, wheres), max_size=60)


def scan(ledger: FlowLedger, tree_id, adv_id, sub_id) -> list[PathKey]:
    """The replaced implementation: every key, filtered in ledger order."""
    return [
        key
        for key in ledger._by_key
        if (tree_id is None or key.tree_id == tree_id)
        and (adv_id is None or key.adv_id == adv_id)
        and (sub_id is None or key.sub_id == sub_id)
    ]


def scan_remove(ledger: FlowLedger, tree_id, adv_id, sub_id):
    changed: dict[str, set[Dz]] = {}
    for key in scan(ledger, tree_id, adv_id, sub_id):
        for switch, dzs in ledger.remove_key(key).items():
            changed.setdefault(switch, set()).update(dzs)
    return changed


@settings(max_examples=200)
@given(operations)
def test_indexed_queries_match_full_scan(ops):
    indexed, reference = FlowLedger(), FlowLedger()
    for op in ops:
        if op[0] == "add":
            _, key, switch, dz, port = op
            assert indexed.add(switch, dz, Action(port), key) == reference.add(
                switch, dz, Action(port), key
            )
        elif op[0] == "remove_key":
            assert indexed.remove_key(op[1]) == reference.remove_key(op[1])
        else:
            _, tree_id, adv_id, sub_id = op
            assert indexed.keys_for(tree_id, adv_id, sub_id) == scan(
                reference, tree_id, adv_id, sub_id
            )
            got = indexed.remove_keys_where(tree_id, adv_id, sub_id)
            want = scan_remove(reference, tree_id, adv_id, sub_id)
            assert list(got.items()) == list(want.items())
        assert list(indexed._by_key) == list(reference._by_key)
        for tree_id in (None, 1, 2, 3, 4):
            for sub_id in (None, 1, 2, 3, 4):
                assert indexed.keys_for(tree_id=tree_id, sub_id=sub_id) == scan(
                    indexed, tree_id, None, sub_id
                )
        for adv_id in (1, 2, 3, 4):
            assert indexed.keys_for(adv_id=adv_id) == scan(
                indexed, None, adv_id, None
            )
    # emptied identities leave no index entries behind
    live = set(indexed._by_key)
    assert set(indexed._by_tree) == {k.tree_id for k in live}
    assert set(indexed._by_adv) == {k.adv_id for k in live}
    assert set(indexed._by_sub) == {k.sub_id for k in live}
