"""The memoized TCAM lookup checked against the uncached best match.

``FlowTable.lookup`` remembers ``best_match`` per destination address
until the table's ``version`` moves or the memo reaches
``LOOKUP_MEMO_CAP`` addresses.  The reference is the replaced
``lookup``: count the lookup, run ``best_match``, count a miss on
``None``.  Random sequences of installs (new and replacing, with explicit
priorities that let a shorter prefix win), removes, clears and lookups
over a small address universe run against one table; after every lookup
its answer must be the reference's, and ``lookups``/``misses`` must equal
the reference's counts.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network import flow
from repro.network.flow import Action, FlowEntry, FlowTable

_bits = st.text(alphabet="01", min_size=0, max_size=5)
_ops = st.one_of(
    st.tuples(
        st.just("install"),
        _bits,
        st.integers(min_value=1, max_value=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
    ),
    st.tuples(st.just("remove"), _bits),
    st.tuples(st.just("clear")),
    st.tuples(st.just("lookup"), _bits),
    st.tuples(st.just("lookup"), _bits),
    st.tuples(st.just("lookup"), _bits),
)


def _address(bits: str) -> int:
    """An event address in dz ``bits`` (padded to 6 bits)."""
    return dz_to_address(Dz(bits.ljust(6, "0")))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ops, max_size=60), st.sampled_from([2, 3, 4096]))
def test_memoized_lookup_matches_best_match(program, cap):
    saved = flow.LOOKUP_MEMO_CAP
    flow.LOOKUP_MEMO_CAP = cap
    try:
        table = FlowTable()
        lookups = misses = 0
        for op in program:
            kind = op[0]
            if kind == "install":
                table.install(
                    FlowEntry.for_dz(Dz(op[1]), {Action(op[2])}, priority=op[3])
                )
            elif kind == "remove":
                entry = table.get_dz(Dz(op[1]))
                if entry is not None:
                    table.remove(entry.match)
            elif kind == "clear":
                table.clear()
            else:
                address = _address(op[1])
                want = table.best_match(address)
                lookups += 1
                misses += want is None
                assert table.lookup(address) is want
                assert (table.lookups, table.misses) == (lookups, misses)
            assert len(table._memo) <= cap
    finally:
        flow.LOOKUP_MEMO_CAP = saved


def test_best_match_stays_uncached():
    """``best_match`` (the verifier's read) neither fills the memo nor
    counts: the poller reads the counters the data plane made."""
    table = FlowTable()
    table.install(FlowEntry.for_dz(Dz("1"), {Action(1)}))
    table.best_match(_address("1"))
    assert table._memo == {}
    assert (table.lookups, table.misses) == (0, 0)


def test_memo_stays_within_its_cap():
    """More distinct addresses than the cap: the memo never outgrows it,
    and every answer stays right."""
    table = FlowTable()
    table.install(FlowEntry.for_dz(Dz("1"), {Action(1)}))
    cap = flow.LOOKUP_MEMO_CAP
    base = dz_to_address(Dz("1"))
    for i in range(cap + 100):
        assert table.lookup(base + i) is not None
        assert len(table._memo) <= cap
    assert table.lookups == cap + 100 and table.misses == 0


def test_a_mutation_drops_stale_answers():
    table = FlowTable()
    address = _address("101")
    assert table.lookup(address) is None
    coarse = FlowEntry.for_dz(Dz("1"), {Action(1)})
    table.install(coarse)
    assert table.lookup(address) is coarse
    fine = FlowEntry.for_dz(Dz("10"), {Action(2)})
    table.install(fine)
    assert table.lookup(address) is fine
    table.remove(fine.match)
    assert table.lookup(address) is coarse
    table.clear()
    assert table.lookup(address) is None
    assert (table.lookups, table.misses) == (5, 2)
