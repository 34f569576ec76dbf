"""Unit tests for the switch model beyond the fabric-level tests."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.exceptions import TopologyError
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action, FlowEntry
from repro.network.link import Link
from repro.network.packet import Packet
from repro.network.switch import Switch
from repro.network.topology import line, star
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(sim, line(2, hosts_per_switch=1))
    return sim, net


class TestPorts:
    def test_port_to(self, rig):
        _, net = rig
        r1 = net.switches["R1"]
        assert r1.port_to("R2") == net.port("R1", "R2")
        with pytest.raises(TopologyError):
            r1.port_to("R9")

    def test_double_attach_rejected(self, rig):
        _, net = rig
        r1 = net.switches["R1"]
        link = net.link_between("R1", "R2")
        with pytest.raises(TopologyError):
            r1.attach_link(net.port("R1", "R2"), link)

    def test_send_via_unknown_port(self, rig):
        _, net = rig
        with pytest.raises(TopologyError):
            net.switches["R1"].send_via_port(99, Packet(dst_address=1, payload=None))


class TestForwardingDetails:
    def test_lookup_delay_applied(self):
        sim = Simulator()
        params = NetworkParams(
            switch_lookup_delay_s=1e-3, switch_lookup_jitter_s=0.0,
            link_delay_s=0.0,
        )
        net = Network(sim, line(1, hosts_per_switch=2), params=params)
        h2 = net.hosts["h2"]
        net.switches["R1"].table.install(
            FlowEntry.for_dz(
                Dz("1"), {Action(net.port("R1", "h2"), set_dest=h2.address)}
            )
        )
        net.hosts["h1"].send(Packet(dst_address=dz_to_address(Dz("1")), payload=None))
        sim.run()
        # one lookup delay plus two (zero-latency) link serializations and
        # the host's service time
        assert sim.now >= 1e-3

    def test_action_to_missing_port_counts_drop(self, rig):
        sim, net = rig
        r1 = net.switches["R1"]
        r1.table.install(FlowEntry.for_dz(Dz("1"), {Action(99)}))
        net.hosts["h1"].send(Packet(dst_address=dz_to_address(Dz("1")), payload=None))
        sim.run()
        assert r1.packets_dropped == 1

    def test_statistics_counters(self, rig):
        sim, net = rig
        r1 = net.switches["R1"]
        r1.table.install(
            FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
        )
        net.hosts["h1"].send(Packet(dst_address=dz_to_address(Dz("1")), payload=None))
        net.hosts["h1"].send(Packet(dst_address=dz_to_address(Dz("0")), payload=None))
        sim.run()
        assert r1.packets_received == 2
        assert r1.packets_forwarded == 1
        assert r1.packets_dropped == 1

    def test_multicast_fanout_counts_each_port(self):
        sim = Simulator()
        net = Network(sim, star(3, hosts_per_leaf=0))
        hub = net.switches["HUB"]
        hub.table.install(
            FlowEntry.for_dz(
                Dz(""),
                {
                    Action(net.port("HUB", "L1")),
                    Action(net.port("HUB", "L2")),
                    Action(net.port("HUB", "L3")),
                },
            )
        )
        hub.receive(
            Packet(dst_address=dz_to_address(Dz("0")), payload=None),
            in_port=net.port("HUB", "L3"),
        )
        sim.run()
        # ingress-port action suppressed: only two copies leave
        assert hub.packets_forwarded == 2

    def test_rewrite_changes_only_the_copy(self, rig):
        """The set-dest action must not mutate the original packet object
        (other tree branches still need the dz address)."""
        sim, net = rig
        h2 = net.hosts["h2"]
        r1, r2 = net.switches["R1"], net.switches["R2"]
        r1.table.install(
            FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
        )
        r2.table.install(
            FlowEntry.for_dz(
                Dz("1"), {Action(net.port("R2", "h2"), set_dest=h2.address)}
            )
        )
        original = Packet(dst_address=dz_to_address(Dz("1")), payload=None)
        net.hosts["h1"].send(original)
        sim.run()
        assert original.dst_address == dz_to_address(Dz("1"))
        assert h2.packets_arrived == 1


class TestDropReasonCounters:
    """Drops are counted per reason (table miss vs. action with no link)."""

    def test_table_miss_counted_separately(self, rig):
        sim, net = rig
        r1 = net.switches["R1"]
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("1")), payload=None)
        )
        sim.run()
        assert r1.packets_dropped_table_miss == 1
        assert r1.packets_dropped_no_link == 0
        assert r1.packets_dropped == 1

    def test_no_link_counted_separately(self, rig):
        sim, net = rig
        r1 = net.switches["R1"]
        r1.table.install(FlowEntry.for_dz(Dz("1"), {Action(99)}))
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("1")), payload=None)
        )
        sim.run()
        assert r1.packets_dropped_no_link == 1
        assert r1.packets_dropped_table_miss == 0
        assert r1.packets_dropped == 1

    def test_reason_labels_in_registry_snapshot(self, rig):
        sim, net = rig
        r1 = net.switches["R1"]
        r1.table.install(FlowEntry.for_dz(Dz("1"), {Action(99)}))
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("1")), payload=None)
        )
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("0")), payload=None)
        )
        sim.run()
        counters = net.registry.snapshot()["counters"]
        assert counters[
            "switch.packets_dropped{reason=no-link,switch=R1}"
        ] == 1
        assert counters[
            "switch.packets_dropped{reason=table-miss,switch=R1}"
        ] == 1

    def test_reset_clears_both_reasons(self, rig):
        sim, net = rig
        r1 = net.switches["R1"]
        r1.table.install(FlowEntry.for_dz(Dz("1"), {Action(99)}))
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("1")), payload=None)
        )
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("0")), payload=None)
        )
        sim.run()
        assert r1.packets_dropped == 2
        r1.reset_counters()
        assert r1.packets_dropped_table_miss == 0
        assert r1.packets_dropped_no_link == 0
        assert r1.packets_dropped == 0


class _Sink:
    """A bare link endpoint that captures delivered packet objects."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.received: list[Packet] = []

    def receive(self, packet: Packet, in_port: int) -> None:
        self.received.append(packet)

    def attach_link(self, port: int, link: Link) -> None:
        pass


class TestFanoutHopForking:
    """The no-copy fast path reuses the incoming packet object for the
    first no-rewrite action; the remaining actions must still get
    *independent* copies, or one branch's hop count would leak into the
    others."""

    def _fanout_rig(self, actions):
        sim = Simulator()
        switch = Switch(sim, "S", lookup_jitter_s=0.0)
        sinks = []
        for port in range(1, len(actions) + 1):
            sink = _Sink(f"sink{port}")
            link = Link(sim, a=switch, a_port=port, b=sink, b_port=1,
                        delay_s=0.0)
            switch.attach_link(port, link)
            sinks.append(sink)
        switch.table.install(FlowEntry.for_dz(Dz(""), set(actions)))
        return sim, switch, sinks

    def test_each_copy_counts_its_own_hops(self):
        sim, switch, sinks = self._fanout_rig(
            [Action(1), Action(2), Action(3)]
        )
        packet = Packet(dst_address=dz_to_address(Dz("0")), payload=None)
        switch.receive(packet, in_port=99)
        sim.run()
        delivered = [s.received[0] for s in sinks]
        assert [p.hops for p in delivered] == [1, 1, 1]
        # three independent objects, one of them the reused original
        assert len({id(p) for p in delivered}) == 3
        assert any(p is packet for p in delivered)

    def test_fork_with_set_dest_branch(self):
        sim, switch, sinks = self._fanout_rig(
            [Action(1), Action(2), Action(3, set_dest=0xDEAD)]
        )
        packet = Packet(dst_address=dz_to_address(Dz("0")), payload=None)
        switch.receive(packet, in_port=99)
        sim.run()
        by_sink = {s.name: s.received[0] for s in sinks}
        assert all(p.hops == 1 for p in by_sink.values())
        assert by_sink["sink3"].dst_address == 0xDEAD
        assert by_sink["sink3"] is not packet
        # the no-rewrite branches keep the multicast address
        assert by_sink["sink1"].dst_address == dz_to_address(Dz("0"))
        assert by_sink["sink2"].dst_address == dz_to_address(Dz("0"))
        # identity (packet_id) survives forking on every branch
        assert {p.packet_id for p in by_sink.values()} == {packet.packet_id}

    def test_further_hops_stay_independent(self):
        """After the fork, transmitting one copy again must not advance the
        hop count of the sibling copies."""
        sim, switch, sinks = self._fanout_rig([Action(1), Action(2)])
        packet = Packet(dst_address=dz_to_address(Dz("0")), payload=None)
        switch.receive(packet, in_port=99)
        sim.run()
        first, second = sinks[0].received[0], sinks[1].received[0]
        # drive one copy over another hop by hand
        far = _Sink("far")
        onward = Link(sim, a=sinks[0], a_port=2, b=far, b_port=1,
                      delay_s=0.0)
        onward.transmit(sinks[0], first)
        sim.run()
        assert first.hops == 2
        assert second.hops == 1


class TestJitterDraw:
    """The lookup jitter is drawn as ``jitter * rng.random()``, which is
    bit-equal to the ``rng.uniform(0.0, jitter)`` it replaced (CPython's
    ``uniform(a, b)`` is ``a + (b - a) * random()``)."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True),
    )
    def test_bit_equal_to_uniform(self, seed, jitter):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert (jitter * new.random()).hex() == old.uniform(
                0.0, jitter
            ).hex()

    def test_switch_delay_matches_uniform_draws(self):
        """End to end: the forwarding delays a switch schedules are the
        lookup delay plus the old draws from its name-seeded stream."""
        sim = Simulator()
        switch = Switch(sim, "S", lookup_delay_s=4e-6, lookup_jitter_s=1e-6)
        sink = _Sink("T")
        link = Link(sim, switch, 1, sink, 1)
        switch.attach_link(1, link)
        switch.table.install(FlowEntry.for_dz(Dz("1"), {Action(1)}))
        reference = random.Random(zlib.crc32(b"S"))
        for _ in range(10):
            switch.receive(
                Packet(dst_address=dz_to_address(Dz("1")), payload=None), 2
            )
            (time, _, _event), = sim._queue
            want = sim.now + (4e-6 + reference.uniform(0.0, 1e-6))
            assert time.hex() == want.hex()
            sim.run()
