"""Multipart statistics messages: wire sizes, channel replies, xid scope."""

import dataclasses

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.control_channel import ControlChannel
from repro.network.fabric import Network
from repro.network.flow import Action, FlowEntry
from repro.network.openflow import (
    FlowStatsReply,
    FlowStatsRequest,
    OpenFlowMessage,
    PortStatsReply,
    PortStatsRequest,
    TableStatsReply,
    TableStatsRequest,
    message_size,
)
from repro.network.packet import Packet
from repro.network.topology import line
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(sim, line(2, hosts_per_switch=1))
    channel = ControlChannel(sim, latency_s=1e-3)
    channel.connect(net.switches["R1"])
    channel.connect(net.switches["R2"])
    return sim, net, channel


def _reply_of(channel, kind):
    return next(r for r in channel.replies if isinstance(r, kind))


def _install_and_blast(sim, net, packets=4, size=500):
    sw = net.switches["R1"]
    e = FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
    sw.table.install(e)
    for _ in range(packets):
        sw.receive(
            Packet(
                dst_address=dz_to_address(Dz("1")),
                payload=None,
                size_bytes=size,
            ),
            in_port=net.port("R1", "h1"),
        )
    sim.run()
    return e


class TestFlowStats:
    def test_reply_carries_rule_counters(self, rig):
        sim, net, channel = rig
        e = _install_and_blast(sim, net, packets=4, size=500)
        request = FlowStatsRequest()
        channel.send("R1", request)
        sim.run()
        reply = _reply_of(channel, FlowStatsReply)
        assert reply.xid == request.xid
        assert reply.datapath == "R1"
        (stat,) = reply.entries
        assert stat.match == e.match
        assert stat.cookie == e.cookie
        assert stat.packet_count == 4
        assert stat.byte_count == 2000
        assert stat.duration_s >= 0.0

    def test_empty_table_gives_empty_reply(self, rig):
        sim, net, channel = rig
        channel.send("R2", FlowStatsRequest())
        sim.run()
        assert _reply_of(channel, FlowStatsReply).entries == ()

    def test_counters_read_at_application_time(self, rig):
        """The reply snapshots the counters when the request *arrives* at
        the switch — traffic after the snapshot is invisible to it (the
        staleness the telemetry layer quantifies)."""
        sim, net, channel = rig
        e = _install_and_blast(sim, net, packets=2)
        channel.send("R1", FlowStatsRequest())
        sim.run()
        net.switches["R1"].table.record_hit(e, 1)  # after snapshot
        reply = _reply_of(channel, FlowStatsReply)
        assert reply.entries[0].packet_count == 2


class TestPortStats:
    def test_tx_rx_and_drop_counters(self, rig):
        sim, net, channel = rig
        _install_and_blast(sim, net, packets=3, size=400)
        channel.send("R1", PortStatsRequest())
        sim.run()
        reply = _reply_of(channel, PortStatsReply)
        by_port = {p.port: p for p in reply.ports}
        trunk = net.port("R1", "R2")
        access = net.port("R1", "h1")
        assert by_port[trunk].tx_packets == 3
        assert by_port[trunk].tx_bytes == 1200
        assert by_port[trunk].tx_dropped == 0
        assert by_port[access].tx_packets == 0
        # ports appear in sorted order
        assert [p.port for p in reply.ports] == sorted(by_port)

    def test_down_link_counts_tx_dropped(self, rig):
        sim, net, channel = rig
        net.link_between("R1", "R2").fail()
        _install_and_blast(sim, net, packets=2)
        channel.send("R1", PortStatsRequest())
        sim.run()
        reply = _reply_of(channel, PortStatsReply)
        trunk = next(p for p in reply.ports if p.port == net.port("R1", "R2"))
        assert trunk.tx_dropped == 2
        assert trunk.tx_packets == 0


class TestTableStats:
    def test_occupancy_and_lookup_counters(self, rig):
        sim, net, channel = rig
        _install_and_blast(sim, net, packets=2)
        sw = net.switches["R1"]
        sw.receive(  # one table miss
            Packet(dst_address=dz_to_address(Dz("01")), payload=None),
            in_port=net.port("R1", "h1"),
        )
        sim.run()
        channel.send("R1", TableStatsRequest())
        sim.run()
        reply = _reply_of(channel, TableStatsReply)
        assert reply.active_count == 1
        assert reply.capacity == sw.table.capacity
        assert reply.lookup_count == 3
        assert reply.matched_count == 2


class TestWireSizes:
    def test_request_sizes_are_multipart_fixed(self):
        for request in (
            FlowStatsRequest(),
            PortStatsRequest(),
            TableStatsRequest(),
        ):
            assert message_size(request) == 16  # header + multipart header

    def test_reply_sizes_scale_with_entries(self, rig):
        sim, net, channel = rig
        _install_and_blast(sim, net)
        for request in (
            FlowStatsRequest(),
            PortStatsRequest(),
            TableStatsRequest(),
        ):
            channel.send("R1", request)
        sim.run()
        flow = _reply_of(channel, FlowStatsReply)
        assert message_size(flow) == 16 + 80 * len(flow.entries)
        port = _reply_of(channel, PortStatsReply)
        assert message_size(port) == 16 + 112 * len(port.ports)
        table = _reply_of(channel, TableStatsReply)
        assert message_size(table) == 16 + 24

    def test_stats_polling_is_byte_accounted(self, rig):
        sim, net, channel = rig
        before = channel.bytes_to_switches()
        request = FlowStatsRequest()
        channel.send("R1", request)
        sim.run()
        assert channel.bytes_to_switches() == before + message_size(request)
        reply = _reply_of(channel, FlowStatsReply)
        assert channel.bytes_to_controller() == message_size(reply)


def _concrete_message_types() -> list[type]:
    found: list[type] = []
    pending = list(OpenFlowMessage.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        found.append(cls)
    return found


class TestSizeRuleCompleteness:
    def test_every_concrete_message_type_has_a_size_rule(self):
        """Satellite: a message type cannot ride the control channel
        without explicit byte accounting.  Walks every subclass of
        ``OpenFlowMessage`` and requires an exact-type entry in
        ``_SIZE_RULES``."""
        from repro.network.openflow import _SIZE_RULES

        types = [
            cls
            for cls in _concrete_message_types()
            # test-local subclasses (e.g. Rogue below) are exempt
            if cls.__module__ == "repro.network.openflow"
        ]
        assert len(types) >= 16  # sanity: the whole catalog was found
        missing = [
            cls.__name__ for cls in types if cls not in _SIZE_RULES
        ]
        assert missing == []

    def test_unknown_message_type_is_rejected(self):
        @dataclasses.dataclass(frozen=True)
        class Rogue(OpenFlowMessage):
            pass

        with pytest.raises(LookupError, match="no wire-size rule"):
            message_size(Rogue())


class TestXidScoping:
    def test_new_deployment_restarts_allocation(self):
        """Each simulator numbers its poll requests from xid 1, whatever
        another deployment issued before."""
        from repro.middleware.pleroma import Pleroma

        def poll_xids() -> list[int]:
            middleware = Pleroma(line(2), dimensions=1, max_dz_length=4)
            poller, _ = middleware.enable_telemetry(period_s=0.01)
            poller.poll_now()
            middleware.run()
            return sorted(reply.xid for reply in poller.channel.replies)

        first = poll_xids()
        assert first[0] == 1
        assert len(set(first)) == len(first)
        assert poll_xids() == first

    def test_fabric_construction_resets_xids(self):
        """Regression for the cross-instance leak: building a fresh
        network restarts xid allocation, so back-to-back deployments see
        identical message ids."""

        def deploy() -> list[int]:
            sim = Simulator()
            Network(sim, line(2, hosts_per_switch=1))
            return [FlowStatsRequest().xid for _ in range(3)]

        assert deploy() == deploy()
