"""Unit tests for flow entries and the TCAM table model."""

import pytest

from repro.core.addressing import dz_to_address, dz_to_prefix
from repro.core.dz import Dz
from repro.exceptions import FlowTableError
from repro.network.flow import Action, FlowEntry, FlowTable


def entry(bits: str, *ports: int, priority: int | None = None) -> FlowEntry:
    return FlowEntry.for_dz(
        Dz(bits), {Action(p) for p in ports}, priority=priority
    )


class TestFlowEntry:
    def test_default_priority_is_dz_length(self):
        assert entry("101", 1).priority == 3
        assert entry("", 1).priority == 0

    def test_dz_round_trip(self):
        assert entry("0110", 1).dz == Dz("0110")

    def test_out_ports(self):
        e = FlowEntry.for_dz(Dz("1"), {Action(2), Action(3, set_dest=5)})
        assert e.out_ports == {2, 3}

    def test_covers_requires_match_and_actions(self):
        # Sec. 3.3.2: fl1 >= fl2 iff dz covers AND ports superset
        coarse = entry("10", 2, 3)
        fine = entry("100", 2)
        assert coarse.covers(fine)
        assert not fine.covers(coarse)

    def test_covers_fails_on_missing_port(self):
        assert not entry("10", 2).covers(entry("100", 2, 3))

    def test_partial_covering(self):
        # coarser match but missing some actions
        assert entry("10", 2).partially_covers(entry("100", 2, 3))
        assert not entry("10", 2, 3).partially_covers(entry("100", 2))
        # disjoint dz: neither covers nor partially covers
        assert not entry("11", 2).partially_covers(entry("100", 2, 3))

    def test_set_dest_distinguishes_actions(self):
        a = FlowEntry.for_dz(Dz("1"), {Action(2, set_dest=10)})
        b = FlowEntry.for_dz(Dz("1"), {Action(2)})
        assert not a.covers(b)
        assert not b.covers(a)

    def test_with_actions_and_priority(self):
        e = entry("1", 2)
        e2 = e.with_actions(frozenset({Action(2), Action(3)})).with_priority(9)
        assert e2.out_ports == {2, 3}
        assert e2.priority == 9
        assert e2.match == e.match

    def test_sorted_actions_is_deterministic(self):
        """The forwarding path must not depend on frozenset iteration
        order (salted per process via ``hash(None)`` on CPython < 3.12):
        replication order at fan-out points is observable in flight
        records and host arrival sequences."""
        e = FlowEntry.for_dz(
            Dz("1"),
            {Action(7), Action(2, set_dest=99), Action(5), Action(2)},
        )
        expected = (
            Action(2), Action(2, set_dest=99), Action(5), Action(7),
        )
        assert e.sorted_actions() == expected
        # cached: repeated calls return the same tuple object
        assert e.sorted_actions() is e.sorted_actions()

    def test_str_with_plain_and_rewrite_action_on_one_port(self):
        """``set_dest`` ``None`` and an address cannot be compared, so the
        text must not sort the raw actions (it did, and raised)."""
        e = FlowEntry.for_dz(Dz("1"), {Action(3), Action(3, set_dest=5)})
        assert str(e).endswith("prio=1 -> {out:3, set-dst=0x5,out:3}]")

    def test_str_lists_actions_in_sorted_order(self):
        e = FlowEntry.for_dz(Dz("10"), {Action(7), Action(2), Action(5)})
        assert str(e).endswith("prio=2 -> {out:2, out:5, out:7}]")


class TestFlowTableInstall:
    def test_install_and_get(self):
        table = FlowTable()
        e = entry("101", 2)
        table.install(e)
        assert table.get(e.match) is e
        assert table.get_dz(Dz("101")) is e
        assert table.get_bits("101") is e
        assert len(table) == 1

    def test_get_bits_tells_nested_dz_apart(self):
        """``10`` and ``100`` share a network address, not a prefix length."""
        table = FlowTable()
        coarse, fine = entry("10", 2), entry("100", 3)
        table.install(coarse)
        assert table.get_bits("100") is None
        table.install(fine)
        assert table.get_bits("10") is coarse
        assert table.get_bits("100") is fine
        assert table.get_bits("") is None
        assert table.get_bits("11") is None

    @pytest.mark.parametrize(
        "bits", ["", "0", "1", "01", "10", "101101", "0" * 50, "1" * 112]
    )
    def test_get_bits_is_the_prefix_arithmetic(self, bits):
        table = FlowTable()
        e = entry(bits, 2)
        table.install(e)
        assert table.get_bits(bits) is e
        assert table.get(dz_to_prefix(Dz(bits))) is e

    def test_install_replaces_same_match(self):
        table = FlowTable()
        table.install(entry("101", 2))
        table.install(entry("101", 2, 3))
        assert len(table) == 1
        assert table.get_dz(Dz("101")).out_ports == {2, 3}

    def test_remove(self):
        table = FlowTable()
        e = entry("101", 2)
        table.install(e)
        removed = table.remove(e.match)
        assert removed is e
        assert len(table) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(FlowTableError):
            FlowTable().remove(dz_to_prefix(Dz("1")))

    def test_capacity_enforced(self):
        table = FlowTable(capacity=2)
        table.install(entry("00", 1))
        table.install(entry("01", 1))
        with pytest.raises(FlowTableError):
            table.install(entry("10", 1))

    def test_replace_does_not_consume_capacity(self):
        table = FlowTable(capacity=1)
        table.install(entry("00", 1))
        table.install(entry("00", 2))  # replacement, not addition
        assert len(table) == 1

    def test_clear(self):
        table = FlowTable()
        table.install(entry("0", 1))
        table.clear()
        assert len(table) == 0


class TestVersion:
    """``version`` moves on every mutation and on nothing else: the warm
    verifier reuses what it knows about a table while it stands still."""

    def test_install_new_and_replacement_bump(self):
        table = FlowTable()
        assert table.version == 0
        table.install(entry("101", 2))
        assert table.version == 1
        table.install(entry("101", 2, 3))  # replacement
        assert table.version == 2
        table.install(entry("101", 2, 3))  # identical replacement
        assert table.version == 3

    def test_remove_and_clear_bump(self):
        table = FlowTable()
        e = entry("101", 2)
        table.install(e)
        table.install(entry("0", 1))
        table.remove(e.match)
        assert table.version == 3
        table.clear()
        assert table.version == 4

    def test_failed_remove_does_not_bump(self):
        table = FlowTable()
        with pytest.raises(FlowTableError):
            table.remove(dz_to_prefix(Dz("1")))
        assert table.version == 0

    def test_reads_and_counters_do_not_bump(self):
        table = FlowTable()
        e = entry("10", 2)
        table.install(e)
        before = table.version
        address = dz_to_address(Dz("101"))
        table.lookup(address)
        table.lookup(dz_to_address(Dz("0")))  # a miss
        table.best_match(address)
        table.record_hit(e, 64)
        table.stats_for(e.match)
        table.entries_with_stats()
        table.entries()
        table.get_dz(Dz("10"))
        list(table.coarser_entries(e.match))
        table.matching_entries(address)
        assert table.version == before


class TestLookup:
    def test_longest_prefix_wins(self):
        """The Fig. 3 R3 example: event dz=1001 matches flows dz=1 and
        dz=100; the longer dz must win via priority."""
        table = FlowTable()
        table.install(entry("1", 2))
        table.install(entry("100", 2, 3))
        hit = table.lookup(dz_to_address(Dz("1001")))
        assert hit.dz == Dz("100")

    def test_priority_overrides_length(self):
        table = FlowTable()
        table.install(entry("1", 2, priority=10))
        table.install(entry("100", 3, priority=0))
        hit = table.lookup(dz_to_address(Dz("1001")))
        assert hit.dz == Dz("1")

    def test_miss_returns_none_and_counts(self):
        table = FlowTable()
        table.install(entry("0", 1))
        assert table.lookup(dz_to_address(Dz("1"))) is None
        assert table.misses == 1
        assert table.lookups == 1

    def test_best_match_is_lookup_without_counting(self):
        table = FlowTable()
        table.install(entry("1", 2))
        table.install(entry("10", 3))
        table.install(entry("101", 4, priority=1))
        for bits in ("10110", "0", "11", "100"):
            address = dz_to_address(Dz(bits))
            assert table.best_match(address) == table.lookup(address)
        assert (table.lookups, table.misses) == (4, 1)

    def test_coarser_entries_longest_first(self):
        table = FlowTable()
        for bits in ("", "1", "10", "101", "1011", "11"):
            table.install(entry(bits, 1))
        coarser = table.coarser_entries(dz_to_prefix(Dz("1011")))
        assert [e.dz for e in coarser] == [Dz("101"), Dz("10"), Dz("1"), Dz("")]
        assert list(table.coarser_entries(dz_to_prefix(Dz("")))) == []

    def test_root_flow_matches_everything_in_range(self):
        table = FlowTable()
        table.install(entry("", 1))
        assert table.lookup(dz_to_address(Dz("10110"))) is not None

    def test_matching_entries_most_specific_first(self):
        table = FlowTable()
        table.install(entry("1", 2))
        table.install(entry("10", 2))
        table.install(entry("101", 2))
        hits = table.matching_entries(dz_to_address(Dz("10110")))
        assert [h.dz for h in hits] == [Dz("101"), Dz("10"), Dz("1")]

    def test_iteration_yields_all(self):
        table = FlowTable()
        for bits in ("0", "10", "110"):
            table.install(entry(bits, 1))
        assert {e.dz for e in table} == {Dz("0"), Dz("10"), Dz("110")}

    def test_lookup_scales_with_distinct_lengths_only(self):
        """Many same-length entries do not slow the dict-backed lookup —
        mirroring the TCAM's occupancy-independent latency (Fig. 7a)."""
        table = FlowTable()
        for value in range(2000):
            table.install(entry(format(value, "011b"), 1))
        address = dz_to_address(Dz("00000000001"))
        assert table.lookup(address).dz == Dz("00000000001")
