"""Tests for the data-plane flight recorder (`repro.obs.flight`)."""

import random

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.middleware.pleroma import Pleroma
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action, FlowEntry
from repro.network.packet import EventPayload, Packet
from repro.network.topology import line, paper_fat_tree
from repro.obs.flight import DROP_REASONS, FlightRecorder
from repro.sim.engine import Simulator


def _fan_out_rig(sample_every=1):
    """``line(2, hosts_per_switch=2)`` with a recorder attached and one
    flow that R2 multicasts to h3 and h4 (two set-dest copies)."""
    sim = Simulator()
    params = NetworkParams(switch_lookup_jitter_s=0.0)
    net = Network(sim, line(2, hosts_per_switch=2), params=params)
    recorder = FlightRecorder(
        clock=lambda: sim.now, sample_every=sample_every, seed=0
    )
    net.flight = recorder
    dz = Dz("1")
    net.switches["R1"].table.install(
        FlowEntry.for_dz(dz, {Action(net.port("R1", "R2"))})
    )
    net.switches["R2"].table.install(
        FlowEntry.for_dz(
            dz,
            {
                Action(
                    net.port("R2", host),
                    set_dest=net.hosts[host].address,
                )
                for host in ("h3", "h4")
            },
        )
    )
    delivered = []
    for host in ("h3", "h4"):
        net.hosts[host].set_delivery_callback(
            lambda payload, packet, now: delivered.append(packet)
        )
    return sim, net, recorder, dz, delivered


class TestSampling:
    def test_sample_every_one_records_everything(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        assert all(recorder.sample() for _ in range(100))
        assert recorder.stats.packets_sampled == 100

    def test_copies_share_the_stamp(self):
        """One decision per packet: multicast copies and
        ``with_destination`` copies carry the stamp minted with it."""
        for sample_every, stamped in ((1, True), (10_000_000, False)):
            sim, net, recorder, dz, delivered = _fan_out_rig(sample_every)
            payload = EventPayload(Event.of(attr0=1.0), dz, "h1", 0.0)
            packet = net.packet(dz_to_address(dz), payload, 64)
            assert (packet.flight is recorder) is stamped
            copy = packet.with_destination(7)
            assert copy.flight is packet.flight
            net.hosts["h1"].send(packet)
            sim.run()
            assert len(delivered) == 2
            assert {p.packet_id for p in delivered} == {packet.packet_id}
            assert all(p.flight is packet.flight for p in delivered)
            assert recorder.stats.packets_seen == 1
            delivers = [r for r in recorder if r.point == "host_deliver"]
            assert len(delivers) == (2 if stamped else 0)

    def test_same_seed_same_decisions(self):
        a = FlightRecorder(clock=lambda: 0.0, sample_every=4, seed=7)
        b = FlightRecorder(clock=lambda: 0.0, sample_every=4, seed=7)
        assert [a.sample() for _ in range(500)] == [
            b.sample() for _ in range(500)
        ]

    def test_sampling_rate_is_roughly_one_in_n(self):
        recorder = FlightRecorder(clock=lambda: 0.0, sample_every=10, seed=0)
        sampled = sum(recorder.sample() for _ in range(5000))
        assert 350 < sampled < 650  # ~500 expected

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(clock=lambda: 0.0, sample_every=0)
        with pytest.raises(ValueError):
            FlightRecorder(clock=lambda: 0.0, capacity=0)


class TestRingBuffer:
    def test_capacity_bounds_and_reports_eviction(self):
        recorder = FlightRecorder(clock=lambda: 0.0, capacity=10)
        for pid in range(25):
            recorder.add(pid, "host_send", "h1")
        assert len(recorder) == 10
        assert recorder.stats.records_appended == 25
        assert recorder.stats.records_evicted == 15
        # the *newest* records survive
        assert [r.packet_id for r in recorder] == list(range(15, 25))

    def test_drop_counts_tracked_per_reason(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        recorder.add(1, "switch_recv", "R1", drop="table-miss")
        recorder.add(2, "link_tx", "R1", drop="link-down")
        recorder.add(3, "switch_recv", "R2", drop="table-miss")
        assert recorder.stats.drop_counts == {
            "table-miss": 2, "link-down": 1,
        }

    def test_clear_keeps_rng_state(self):
        recorder = FlightRecorder(clock=lambda: 0.0, sample_every=3, seed=1)
        before = [recorder.sample() for _ in range(50)]
        recorder.add(1, "host_send", "h1")
        recorder.clear()
        after = [recorder.sample() for _ in range(50)]
        # decisions continue from the same RNG stream, not a fresh one
        fresh = FlightRecorder(clock=lambda: 0.0, sample_every=3, seed=1)
        fresh_draws = [fresh.sample() for _ in range(100)]
        assert before == fresh_draws[:50]
        assert after == fresh_draws[50:]
        assert len(recorder.records) == 0
        assert recorder.stats.packets_seen == 50
        assert len(after) == 50

    def test_records_carry_clock_time(self):
        now = {"t": 0.5}
        recorder = FlightRecorder(clock=lambda: now["t"])
        recorder.add(1, "host_send", "h1")
        now["t"] = 1.25
        recorder.add(1, "host_recv", "h2", wait_s=0.0)
        times = [r.t for r in recorder]
        assert times == [0.5, 1.25]


class TestDeviceHooks:
    """The fabric hooks feed the recorder end to end."""

    def _rig(self):
        sim = Simulator()
        params = NetworkParams(switch_lookup_jitter_s=0.0)
        net = Network(sim, line(2, hosts_per_switch=1), params=params)
        recorder = FlightRecorder(clock=lambda: sim.now)
        net.flight = recorder
        return sim, net, recorder

    def _install_path(self, net, dz):
        h2 = net.hosts["h2"]
        net.switches["R1"].table.install(
            FlowEntry.for_dz(dz, {Action(net.port("R1", "R2"))})
        )
        net.switches["R2"].table.install(
            FlowEntry.for_dz(
                dz, {Action(net.port("R2", "h2"), set_dest=h2.address)}
            )
        )

    def test_full_path_is_recorded_in_order(self):
        sim, net, recorder = self._rig()
        dz = Dz("1")
        self._install_path(net, dz)
        net.hosts["h1"].send(net.packet(dz_to_address(dz), None, 64))
        sim.run()
        points = [r.point for r in recorder]
        assert points == [
            "host_send",   # h1
            "link_tx",     # h1 -> R1
            "switch_recv", # R1 lookup
            "link_tx",     # R1 -> R2
            "switch_recv", # R2 lookup (terminal, set-dest)
            "link_tx",     # R2 -> h2
            "host_recv",   # h2 NIC
            "host_deliver",
        ]
        assert all(r.drop is None for r in recorder)
        assert len({r.packet_id for r in recorder}) == 1

    def test_table_miss_drop_recorded(self):
        sim, net, recorder = self._rig()
        net.hosts["h1"].send(net.packet(dz_to_address(Dz("1")), None, 64))
        sim.run()
        drops = [r for r in recorder if r.drop is not None]
        assert [r.drop for r in drops] == ["table-miss"]
        assert drops[0].node == "R1"
        assert drops[0].drop in DROP_REASONS

    def test_link_down_drop_recorded(self):
        sim, net, recorder = self._rig()
        dz = Dz("1")
        self._install_path(net, dz)
        net.link_between("R1", "R2").fail()
        net.hosts["h1"].send(net.packet(dz_to_address(dz), None, 64))
        sim.run()
        drops = [r for r in recorder if r.drop is not None]
        assert [r.drop for r in drops] == ["link-down"]
        assert drops[0].detail["dst"] == "R2"

    def test_detach_stops_recording(self):
        """Packets minted after the recorder is detached are not
        recorded."""
        sim, net, recorder = self._rig()
        dz = Dz("1")
        self._install_path(net, dz)
        net.flight = None
        net.hosts["h1"].send(net.packet(dz_to_address(dz), None, 64))
        sim.run()
        assert len(recorder) == 0
        assert recorder.stats.packets_seen == 0

    def test_packet_minted_before_attach_records_nothing(self):
        sim = Simulator()
        params = NetworkParams(switch_lookup_jitter_s=0.0)
        net = Network(sim, line(2, hosts_per_switch=1), params=params)
        dz = Dz("1")
        self._install_path(net, dz)
        early = net.packet(dz_to_address(dz), None, 64)
        recorder = FlightRecorder(clock=lambda: sim.now)
        net.flight = recorder
        net.hosts["h1"].send(early)
        sim.run()
        assert early.flight is None
        assert net.hosts["h2"].packets_delivered == 1
        assert len(recorder) == 0
        assert recorder.stats.packets_seen == 0

    def test_packet_in_flight_at_detach_keeps_its_stamp(self):
        sim, net, recorder = self._rig()
        dz = Dz("1")
        self._install_path(net, dz)
        net.hosts["h1"].send(net.packet(dz_to_address(dz), None, 64))
        net.flight = None  # detached while the packet is on the h1 link
        sim.run()
        assert [r.point for r in recorder][-1] == "host_deliver"
        assert len(recorder) == 8

    def test_unsampled_packets_leave_no_records(self):
        sim = Simulator()
        params = NetworkParams(switch_lookup_jitter_s=0.0)
        net = Network(sim, line(2, hosts_per_switch=1), params=params)
        # sample_every so large that (with this seed) nothing is sampled
        recorder = FlightRecorder(
            clock=lambda: sim.now, sample_every=10_000_000, seed=0
        )
        net.flight = recorder
        dz = Dz("1")
        self._install_path(net, dz)
        for _ in range(5):
            net.hosts["h1"].send(net.packet(dz_to_address(dz), None, 64))
        sim.run()
        assert len(recorder) == 0
        assert recorder.stats.packets_seen == 5


class TestStamp:
    def test_flight_is_out_of_equality_and_repr(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        plain = Packet(dst_address=5, payload=None, packet_id=3)
        stamped = Packet(
            dst_address=5, payload=None, packet_id=3, flight=recorder
        )
        assert plain == stamped
        assert repr(plain) == repr(stamped)
        assert "flight" not in repr(stamped)


class TestOneDecisionPerPacket:
    """Regression: decisions used to be memoised per packet id in a FIFO
    of 4 x ``capacity`` ids.  Under load an id still in flight was
    evicted, and its next hop drew a fresh decision: a packet could flip
    between sampled and unsampled mid-path, and ``packets_seen`` counted
    3662 decisions for these 2000 packets."""

    def test_stamp_survives_a_long_backlog(self):
        middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=12)
        recorder = middleware.enable_flight_recorder(
            sample_every=2, capacity=50, seed=1
        )
        # every hop record, past the 50-record ring
        points = []
        add = recorder.add

        def logging_add(packet_id, point, node, drop=None, **detail):
            points.append((packet_id, point))
            add(packet_id, point, node, drop, **detail)

        recorder.add = logging_add
        middleware.advertise("h1", Advertisement.of())
        for host in ("h4", "h6", "h8"):
            middleware.subscribe(host, Subscription.of())
        rng = random.Random(0)
        events = [
            Event.of(attr0=rng.uniform(0, 1023), attr1=rng.uniform(0, 1023))
            for _ in range(2000)
        ]
        minted = middleware.publish_stream("h1", events, rate_eps=200_000.0)
        middleware.run()
        assert minted == 2000
        assert recorder.stats.packets_seen == minted
        sent = {pid for pid, point in points if point == "host_send"}
        delivered = {pid for pid, point in points if point == "host_deliver"}
        assert delivered
        assert delivered <= sent
        assert len(sent) == recorder.stats.packets_sampled
