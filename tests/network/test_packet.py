"""Unit tests for packets and event datagram sizing."""

from repro.core.dz import Dz
from repro.core.events import Event
from repro.middleware.pleroma import Pleroma
from repro.network.packet import Packet, event_packet_size
from repro.network.topology import line


class TestEventPacketSize:
    def test_within_paper_bound(self):
        """Sec. 6.2: 'The size of each packet is up to 64 bytes depending
        upon the length of dz.'"""
        for length in (0, 1, 8, 16, 64, 112):
            assert event_packet_size(Dz("0" * length)) <= 64

    def test_grows_with_dz_length(self):
        assert event_packet_size(Dz("0" * 32)) > event_packet_size(Dz("0"))

    def test_rounding_to_bytes(self):
        assert event_packet_size(Dz("0")) == event_packet_size(Dz("0" * 8))
        assert event_packet_size(Dz("0" * 9)) == event_packet_size(Dz("0")) + 1


class TestPacket:
    def test_ids_unique(self):
        """Published packets are numbered uniquely within one deployment
        and identically across two same-seed deployments; a hand-built
        packet keeps id 0."""

        def published_ids() -> list[int]:
            middleware = Pleroma(line(2), dimensions=1, max_dz_length=4)
            host = middleware.network.hosts["h1"]
            sent: list[int] = []
            send = host.send
            host.send = lambda packet: (
                sent.append(packet.packet_id), send(packet)
            )
            for value in (1.0, 500.0, 900.0):
                middleware.publish("h1", Event.of(attr0=value))
            middleware.run()
            return sent

        ids = published_ids()
        assert ids == [1, 2, 3]
        assert published_ids() == ids
        assert Packet(dst_address=1, payload=None).packet_id == 0

    def test_with_destination_preserves_identity(self):
        original = Packet(dst_address=1, payload="x", size_bytes=10)
        original.hops = 3
        copy = original.with_destination(2)
        assert copy.dst_address == 2
        assert copy.packet_id == original.packet_id
        assert copy.payload == "x"
        assert copy.size_bytes == 10
        assert copy.hops == 3
        assert original.dst_address == 1  # original untouched
