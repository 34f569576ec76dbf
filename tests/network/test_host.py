"""Unit tests for end-host behaviour beyond the fabric-level coverage."""

import pytest

from repro.exceptions import TopologyError
from repro.network.host import HOST_ADDRESS_BASE, Host
from repro.network.link import Link
from repro.network.packet import EventPayload, Packet
from repro.core.dz import Dz
from repro.core.events import Event
from repro.sim.engine import Simulator


class _Sink:
    name = "SINK"

    def __init__(self):
        self.packets = []

    def receive(self, packet, in_port):
        self.packets.append(packet)

    def attach_link(self, port, link):
        pass


def wire(sim, host):
    sink = _Sink()
    link = Link(sim, host, 1, sink, 1, delay_s=0.0, bandwidth_bps=1e12)
    host.attach_link(1, link)
    return sink


class TestLifecycle:
    def test_validation(self):
        sim = Simulator()
        with pytest.raises(TopologyError):
            Host(sim, "h", processing_rate_eps=0)
        with pytest.raises(TopologyError):
            Host(sim, "h", queue_capacity=0)

    def test_explicit_address(self):
        host = Host(Simulator(), "h", address=1234)
        assert host.address == 1234

    def test_fallback_address_unique(self):
        sim = Simulator()
        a = Host(sim, "a")
        b = Host(sim, "b")
        assert a.address != b.address
        assert Host(Simulator(), "c").address == a.address
        assert a.address > HOST_ADDRESS_BASE

    def test_unattached_send_rejected(self):
        host = Host(Simulator(), "h")
        with pytest.raises(TopologyError):
            host.send(Packet(dst_address=1, payload=None))

    def test_double_attach_rejected(self):
        sim = Simulator()
        host = Host(sim, "h")
        wire(sim, host)
        with pytest.raises(TopologyError):
            wire(sim, host)


class TestSendReceive:
    def test_send_stamps_source_address(self):
        sim = Simulator()
        host = Host(sim, "h", address=77)
        sink = wire(sim, host)
        host.send(Packet(dst_address=1, payload=None))
        sim.run()
        assert sink.packets[0].src_address == 77
        assert host.packets_sent == 1

    def test_service_time_applied(self):
        sim = Simulator()
        host = Host(sim, "h", processing_rate_eps=100.0)
        delivered = []
        host.set_delivery_callback(lambda p, pkt, t: delivered.append(t))
        payload = EventPayload(Event.of(x=1), Dz("0"), "src", 0.0)
        host.receive(Packet(dst_address=host.address, payload=payload), 1)
        sim.run()
        assert delivered == [pytest.approx(0.01)]  # 1/rate

    def test_backlog_serialises(self):
        sim = Simulator()
        host = Host(sim, "h", processing_rate_eps=100.0, queue_capacity=10)
        times = []
        host.set_delivery_callback(lambda p, pkt, t: times.append(t))
        payload = EventPayload(Event.of(x=1), Dz("0"), "src", 0.0)
        for _ in range(3):
            host.receive(
                Packet(dst_address=host.address, payload=payload), 1
            )
        sim.run()
        assert times == [
            pytest.approx(0.01),
            pytest.approx(0.02),
            pytest.approx(0.03),
        ]

    def test_non_event_payload_counted_but_not_dispatched(self):
        sim = Simulator()
        host = Host(sim, "h")
        seen = []
        host.set_delivery_callback(lambda p, pkt, t: seen.append(p))
        host.receive(Packet(dst_address=host.address, payload="raw"), 1)
        sim.run()
        assert host.packets_delivered == 1
        assert seen == []

    def test_reset_counters(self):
        sim = Simulator()
        host = Host(sim, "h")
        host.receive(Packet(dst_address=host.address, payload=None), 1)
        sim.run()
        host.reset_counters()
        assert host.packets_arrived == 0
        assert host.packets_delivered == 0

    def test_queue_overflow_drop_labelled_in_snapshot(self):
        sim = Simulator()
        host = Host(sim, "h", processing_rate_eps=100.0, queue_capacity=1)
        # all at t=0: one in service, one queued, the rest overflow
        for _ in range(4):
            host.receive(Packet(dst_address=host.address, payload=None), 1)
        sim.run()
        assert host.packets_dropped == 2
        counters = host.registry.snapshot()["counters"]
        assert counters[
            "host.packets_dropped{host=h,reason=queue-overflow}"
        ] == 2
