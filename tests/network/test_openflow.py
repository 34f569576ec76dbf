"""Unit tests for OpenFlow messages and the control channel."""

import pytest

from repro.core.addressing import PUBSUB_CONTROL_ADDRESS, dz_to_prefix
from repro.core.dz import Dz
from repro.exceptions import TopologyError
from repro.network.control_channel import ControlChannel
from repro.network.fabric import Network
from repro.network.flow import Action, FlowEntry
from repro.network.openflow import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowModCommand,
    PacketOut,
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


def add_mod(bits="10", port=1):
    return FlowMod(
        command=FlowModCommand.ADD,
        entry=FlowEntry.for_dz(Dz(bits), {Action(port)}),
    )


class TestMessages:
    def test_xids_unique(self):
        """Channel-originated xids are unique within one deployment and
        identical across two same-seed deployments; a hand-built message
        keeps xid 0."""

        def packet_in_xids() -> list[int]:
            sim = Simulator()
            net = Network(sim, line(2, hosts_per_switch=1))
            channel = ControlChannel(sim, latency_s=1e-3)
            seen: list[int] = []
            channel.connect(
                net.switches["R1"], lambda message: seen.append(message.xid)
            )
            for _ in range(3):
                net.hosts["h1"].send(
                    Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload=None)
                )
            sim.run()
            return seen

        xids = packet_in_xids()
        assert xids == [1, 2, 3]
        assert packet_in_xids() == xids
        assert BarrierRequest().xid == 0

    def test_flow_mod_validation(self):
        with pytest.raises(ValueError):
            FlowMod(command=FlowModCommand.ADD)
        with pytest.raises(ValueError):
            FlowMod(command=FlowModCommand.DELETE)
        FlowMod(command=FlowModCommand.DELETE, match=dz_to_prefix(Dz("1")))


class TestChannel:
    def test_flow_mod_applied_after_latency(self, rig):
        sim, net, channel = rig
        channel.send("R1", add_mod())
        assert len(net.switches["R1"].table) == 0  # not yet applied
        sim.run()
        assert net.switches["R1"].table.get_dz(Dz("10")) is not None
        assert sim.now == pytest.approx(1e-3)

    def test_fifo_ordering(self, rig):
        sim, net, channel = rig
        # delete of an entry sent *after* its add must not race ahead
        channel.send("R1", add_mod())
        channel.send(
            "R1",
            FlowMod(
                command=FlowModCommand.DELETE, match=dz_to_prefix(Dz("10"))
            ),
        )
        sim.run()
        assert net.switches["R1"].table.get_dz(Dz("10")) is None
        assert channel.errors == []

    def test_modify(self, rig):
        sim, net, channel = rig
        channel.send("R1", add_mod(port=1))
        channel.send(
            "R1",
            FlowMod(
                command=FlowModCommand.MODIFY,
                entry=FlowEntry.for_dz(Dz("10"), {Action(2)}),
            ),
        )
        sim.run()
        assert net.switches["R1"].table.get_dz(Dz("10")).actions == {Action(2)}

    def test_barrier_reply(self, rig):
        sim, net, channel = rig
        request = BarrierRequest()
        channel.send("R1", request)
        sim.run()
        assert any(
            isinstance(r, BarrierReply) and r.xid == request.xid
            for r in channel.replies
        )

    def test_echo(self, rig):
        sim, net, channel = rig
        channel.send("R2", EchoRequest())
        sim.run()
        assert any(isinstance(r, EchoReply) for r in channel.replies)

    def test_features_reply(self, rig):
        sim, net, channel = rig
        channel.send("R1", FeaturesRequest())
        sim.run()
        reply = next(
            r for r in channel.replies if isinstance(r, FeaturesReply)
        )
        assert reply.datapath == "R1"
        assert len(reply.ports) == 2  # R2 and h1
        assert reply.table_capacity == 180_000

    def test_delete_missing_flow_reports_error(self, rig):
        sim, net, channel = rig
        channel.send(
            "R1",
            FlowMod(
                command=FlowModCommand.DELETE, match=dz_to_prefix(Dz("11"))
            ),
        )
        sim.run()
        assert len(channel.errors) == 1

    def test_packet_out_leaves_via_port(self, rig):
        sim, net, channel = rig
        seen = []
        net.switches["R2"].set_control_handler(
            lambda sw, pkt, port: seen.append((sw.name, port))
        )
        channel.send(
            "R1",
            PacketOut(
                out_port=net.port("R1", "R2"),
                packet=Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload="x"),
            ),
        )
        sim.run()
        assert seen == [("R2", net.port("R2", "R1"))]

    def test_packet_in_via_channel(self, rig):
        sim, net, channel = rig
        seen = []
        channel.set_handler("R1", seen.append)
        net.hosts["h1"].send(
            Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload="SUB")
        )
        sim.run()
        assert len(seen) == 1
        assert seen[0].switch == "R1"
        assert seen[0].packet.payload == "SUB"

    def test_unknown_switch_rejected(self, rig):
        _, _, channel = rig
        with pytest.raises(TopologyError):
            channel.send("R9", add_mod())

    def test_double_connect_rejected(self, rig):
        _, net, channel = rig
        with pytest.raises(TopologyError):
            channel.connect(net.switches["R1"])

    def test_message_counters(self, rig):
        sim, net, channel = rig
        channel.send("R1", add_mod())
        channel.send("R1", BarrierRequest())
        sim.run()
        assert channel.messages_to_switches() == 2
        assert channel.messages_to_controller() == 1  # the barrier reply

    def test_controller_bound_fifo_ordering(self, rig):
        """Switch-to-controller traffic is FIFO too (TCP semantics): a
        burst of packet-ins arrives in send order, serialised on the
        connection's arrival horizon, never before the one-way latency."""
        sim, net, channel = rig
        seen = []
        channel.set_handler(
            "R1", lambda msg: seen.append((msg.packet.payload, sim.now))
        )
        for i in range(4):
            net.switches["R1"].receive(
                Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload=i),
                in_port=net.port("R1", "h1"),
            )
        sim.run()
        payloads = [p for p, _ in seen]
        times = [t for _, t in seen]
        assert payloads == [0, 1, 2, 3]
        assert times == sorted(times)
        assert times[0] >= channel.latency_s

    def test_controller_bound_horizon_prevents_overtaking(self, rig):
        """A message sent later must not arrive earlier even if the channel
        latency drops in between (the per-connection arrival horizon)."""
        sim, net, channel = rig
        seen = []
        channel.set_handler(
            "R1", lambda msg: seen.append((msg.packet.payload, sim.now))
        )
        in_port = net.port("R1", "h1")
        net.switches["R1"].receive(
            Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload="slow"),
            in_port=in_port,
        )
        channel.latency_s = 1e-6  # faster path opens up mid-stream
        net.switches["R1"].receive(
            Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload="fast"),
            in_port=in_port,
        )
        sim.run()
        assert [p for p, _ in seen] == ["slow", "fast"]
        # the fast message is clamped to the slow one's arrival
        assert seen[1][1] >= seen[0][1]

    def test_replies_and_packet_ins_share_fifo_horizon(self, rig):
        """Barrier replies and packet-ins ride the same switch-to-controller
        connection, so a reply sent after a packet-in cannot overtake it."""
        sim, net, channel = rig
        order = []
        channel.set_handler("R1", lambda msg: order.append("packet_in"))
        net.switches["R1"].receive(
            Packet(dst_address=PUBSUB_CONTROL_ADDRESS, payload="x"),
            in_port=net.port("R1", "h1"),
        )
        channel.send("R1", BarrierRequest())
        sim.run()
        assert order == ["packet_in"]
        (reply,) = channel.replies
        assert isinstance(reply, BarrierReply)

    def test_byte_accounting(self, rig):
        from repro.network.openflow import message_size

        sim, net, channel = rig
        mod = add_mod()
        barrier = BarrierRequest()
        channel.send("R1", mod)
        channel.send("R1", barrier)
        sim.run()
        expected_out = message_size(mod) + message_size(barrier)
        assert channel.bytes_to_switches() == expected_out
        (reply,) = channel.replies
        assert channel.bytes_to_controller() == message_size(reply)
        per = channel.per_switch_counters()
        assert per["R1"]["to_switch_bytes"] == expected_out
        assert per["R1"]["to_switch_messages"] == 2
        assert per["R2"]["to_switch_bytes"] == 0

    def test_byte_counters_surface_in_registry(self):
        from repro.obs.registry import MetricsRegistry

        sim = Simulator()
        net = Network(sim, line(2, hosts_per_switch=1))
        registry = MetricsRegistry()
        channel = ControlChannel(sim, latency_s=1e-3, registry=registry)
        channel.connect(net.switches["R1"])
        channel.send("R1", add_mod())
        sim.run()
        snap = registry.snapshot()
        assert (
            snap["counters"]["control.messages{direction=to_switch}"] == 1
        )
        assert (
            snap["counters"]["control.bytes{direction=to_switch}"]
            == channel.bytes_to_switches()
        )


class TestControllerWithChannel:
    def test_flows_converge_and_events_flow(self):
        from repro.controller.controller import PleromaController
        from repro.core.events import Event, EventSpace
        from repro.core.spatial_index import SpatialIndexer
        from repro.core.subscription import Advertisement, Subscription
        from repro.network.topology import line as line_topo

        sim = Simulator()
        net = Network(sim, line_topo(3, hosts_per_switch=1))
        channel = ControlChannel(sim, latency_s=1e-3)
        space = EventSpace.paper_schema(1)
        controller = PleromaController(
            net, SpatialIndexer(space, max_dz_length=8), control_channel=channel
        )
        controller.advertise("h1", Advertisement.of(attr0=(0, 1023)))
        controller.subscribe("h3", Subscription.of(attr0=(512, 767)))
        # physical tables are still empty: mods are in flight
        assert all(len(s.table) == 0 for s in net.switches.values())
        sim.run()
        # ... and converge to the shadow after the channel latency
        for name, switch in net.switches.items():
            shadow = controller._applier.table(name)
            assert {e.match for e in switch.table} == {
                e.match for e in shadow
            }
        # end-to-end delivery works once converged
        delivered = []
        net.hosts["h3"].set_delivery_callback(
            lambda payload, pkt, now: delivered.append(payload.event)
        )
        indexer = controller.indexer
        from repro.core.addressing import dz_to_address
        from repro.network.packet import EventPayload

        event = Event.of(attr0=600)
        dz = indexer.event_to_dz(event)
        net.hosts["h1"].send(
            Packet(
                dst_address=dz_to_address(dz),
                payload=EventPayload(event, dz, "h1", sim.now),
            )
        )
        sim.run()
        assert len(delivered) == 1

    def test_client_requests_arrive_via_packet_in(self):
        from repro.controller.controller import PleromaController
        from repro.controller.requests import SubscribeRequest
        from repro.core.events import EventSpace
        from repro.core.spatial_index import SpatialIndexer
        from repro.core.subscription import Subscription
        from repro.network.topology import line as line_topo

        sim = Simulator()
        net = Network(sim, line_topo(2, hosts_per_switch=1))
        channel = ControlChannel(sim, latency_s=1e-3)
        controller = PleromaController(
            net,
            SpatialIndexer(EventSpace.paper_schema(1), max_dz_length=8),
            control_channel=channel,
        )
        net.hosts["h1"].send(
            Packet(
                dst_address=PUBSUB_CONTROL_ADDRESS,
                payload=SubscribeRequest("h1", Subscription.of(attr0=(0, 10))),
            )
        )
        sim.run()
        assert len(controller.subscriptions) == 1

    def test_unsubscribe_converges(self):
        from repro.controller.controller import PleromaController
        from repro.core.events import EventSpace
        from repro.core.spatial_index import SpatialIndexer
        from repro.core.subscription import Advertisement, Subscription
        from repro.network.topology import line as line_topo

        sim = Simulator()
        net = Network(sim, line_topo(3, hosts_per_switch=1))
        channel = ControlChannel(sim, latency_s=1e-3)
        controller = PleromaController(
            net,
            SpatialIndexer(EventSpace.paper_schema(1), max_dz_length=8),
            control_channel=channel,
        )
        controller.advertise("h1", Advertisement.of(attr0=(0, 1023)))
        state = controller.subscribe("h3", Subscription.of(attr0=(0, 511)))
        sim.run()
        controller.unsubscribe(state.sub_id)
        sim.run()
        assert all(len(s.table) == 0 for s in net.switches.values())
        assert channel.errors == []
