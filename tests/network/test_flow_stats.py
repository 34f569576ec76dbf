"""Per-rule hardware counters (FlowStats) and per-deployment cookies."""

import dataclasses

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.flow import (
    Action,
    FlowEntry,
    FlowStats,
    FlowTable,
)


def entry(bits: str, *ports: int) -> FlowEntry:
    return FlowEntry.for_dz(Dz(bits), {Action(p) for p in ports})


@pytest.fixture
def clocked_table():
    clock = {"now": 0.0}
    table = FlowTable(capacity=16, clock=lambda: clock["now"])
    return table, clock


class TestFlowStats:
    def test_fresh_entry_has_zero_counters(self, clocked_table):
        table, clock = clocked_table
        clock["now"] = 2.5
        e = entry("10", 1)
        table.install(e)
        stats = table.stats_for(e.match)
        assert stats == FlowStats(packets=0, bytes=0, created_at=2.5)
        # only what an OpenFlow flow-stats reply reads: packets, bytes and
        # the install time its duration is counted from
        assert [f.name for f in dataclasses.fields(FlowStats)] == [
            "packets", "bytes", "created_at",
        ]

    def test_record_hit_accumulates(self, clocked_table):
        table, _ = clocked_table
        e = entry("10", 1)
        table.install(e)
        table.record_hit(e, 100)
        table.record_hit(e, 250)
        stats = table.stats_for(e.match)
        assert stats.packets == 2
        assert stats.bytes == 350
        assert stats.created_at == 0.0  # a hit never moves the install time

    def test_modify_preserves_counters(self, clocked_table):
        """OpenFlow MODIFY semantics: replacing the entry for an existing
        match keeps the accumulated counters (only ADD of a new match
        starts from zero)."""
        table, clock = clocked_table
        e = entry("10", 1)
        table.install(e)
        table.record_hit(e, 100)
        clock["now"] = 5.0
        replacement = entry("10", 2)
        table.install(replacement)
        stats = table.stats_for(replacement.match)
        assert stats.packets == 1
        assert stats.created_at == 0.0  # original install time survives

    def test_remove_deletes_stats(self, clocked_table):
        table, _ = clocked_table
        e = entry("10", 1)
        table.install(e)
        table.record_hit(e, 100)
        table.remove(e.match)
        assert table.stats_for(e.match) is None
        # reinstalling the same match starts a fresh counter
        table.install(entry("10", 1))
        assert table.stats_for(e.match).packets == 0

    def test_clear_drops_all_stats(self, clocked_table):
        table, _ = clocked_table
        a, b = entry("10", 1), entry("01", 2)
        table.install(a)
        table.install(b)
        table.clear()
        assert table.stats_for(a.match) is None
        assert table.stats_for(b.match) is None

    def test_entries_with_stats_canonical_order(self, clocked_table):
        """(prefix_len desc, network asc) — the same canonical order the
        table iterates in, so stats replies are deterministic."""
        table, _ = clocked_table
        for bits in ("1", "01", "11", "000"):
            table.install(entry(bits, 1))
        listed = table.entries_with_stats()
        keys = [(e.match.prefix_len, e.match.network) for e, _ in listed]
        assert keys == sorted(keys, key=lambda k: (-k[0], k[1]))
        assert all(isinstance(s, FlowStats) for _, s in listed)

    def test_lookup_does_not_count(self, clocked_table):
        """Counting happens in ``Switch.receive`` (the switch knows the
        packet size); a bare lookup must not bump counters."""
        table, _ = clocked_table
        e = entry("10", 1)
        table.install(e)
        table.lookup(dz_to_address(Dz("10")))
        assert table.stats_for(e.match).packets == 0


class TestSwitchCounting:
    def test_receive_updates_rule_counters(self):
        from repro.network.fabric import Network
        from repro.network.packet import Packet
        from repro.network.topology import line
        from repro.sim.engine import Simulator

        sim = Simulator()
        net = Network(sim, line(2, hosts_per_switch=1))
        sw = net.switches["R1"]
        e = FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
        sw.table.install(e)
        for _ in range(3):
            sw.receive(
                Packet(
                    dst_address=dz_to_address(Dz("1")),
                    payload=None,
                    size_bytes=500,
                ),
                in_port=net.port("R1", "h1"),
            )
        sim.run()
        stats = sw.table.stats_for(e.match)
        assert stats.packets == 3
        assert stats == FlowStats(packets=3, bytes=1500, created_at=0.0)

    def test_created_at_uses_sim_clock(self):
        from repro.network.fabric import Network
        from repro.network.topology import line
        from repro.sim.engine import Simulator

        sim = Simulator()
        net = Network(sim, line(2, hosts_per_switch=1))
        sw = net.switches["R1"]
        e = entry("1", 1)
        sim.schedule(0.125, sw.table.install, e)
        sim.run()
        assert sw.table.stats_for(e.match).created_at == 0.125


class TestCookieScoping:
    def test_cookies_unique_per_deployment(self):
        """Controller-installed cookies are unique within one deployment
        and identical across two same-seed deployments; a hand-built
        entry keeps cookie 0."""
        from repro.core.subscription import Advertisement, Subscription
        from repro.middleware.pleroma import Pleroma
        from repro.network.topology import line

        def deploy() -> list[int]:
            middleware = Pleroma(line(3), dimensions=1, max_dz_length=6)
            middleware.advertise("h1", Advertisement.of(attr0=(0, 1023)))
            for host, band in (("h2", (0, 300)), ("h3", (200, 900))):
                middleware.subscribe(host, Subscription.of(attr0=band))
            return [
                e.cookie
                for switch in middleware.network.switches.values()
                for e in switch.table
            ]

        cookies = deploy()
        assert len(cookies) > 1
        assert len(set(cookies)) == len(cookies)
        assert 0 not in cookies
        assert deploy() == cookies
        assert entry("1", 1).cookie == 0

    def test_two_networks_same_seed_get_identical_cookies(self):
        """Regression for the cross-instance leak: cookie allocation is
        scoped per fabric, so the N-th deployment of a process sees the
        same cookie sequence as the first."""
        from repro.network.fabric import Network
        from repro.network.topology import line
        from repro.sim.engine import Simulator

        def deploy() -> list[int]:
            net = Network(Simulator(), line(2, hosts_per_switch=1))
            sw = net.switches["R1"]
            cookies = []
            for bits in ("1", "01", "001"):
                e = entry(bits, 1)
                sw.table.install(e)
                cookies.append(e.cookie)
            return cookies

        assert deploy() == deploy()
