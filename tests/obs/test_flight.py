"""Tests for the data-plane flight recorder (`repro.obs.flight`)."""

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action, FlowEntry
from repro.network.packet import Packet
from repro.network.topology import line
from repro.obs.flight import DROP_REASONS, FlightRecorder
from repro.sim.engine import Simulator


class TestSampling:
    def test_sample_every_one_records_everything(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        assert all(recorder.wants(pid) for pid in range(100))
        assert recorder.stats.packets_sampled == 100

    def test_decision_is_memoised(self):
        recorder = FlightRecorder(clock=lambda: 0.0, sample_every=5, seed=3)
        first = [recorder.wants(pid) for pid in range(200)]
        again = [recorder.wants(pid) for pid in range(200)]
        assert first == again
        assert recorder.stats.packets_seen == 200

    def test_same_seed_same_decisions(self):
        a = FlightRecorder(clock=lambda: 0.0, sample_every=4, seed=7)
        b = FlightRecorder(clock=lambda: 0.0, sample_every=4, seed=7)
        assert [a.wants(p) for p in range(500)] == [
            b.wants(p) for p in range(500)
        ]

    def test_sampling_rate_is_roughly_one_in_n(self):
        recorder = FlightRecorder(clock=lambda: 0.0, sample_every=10, seed=0)
        sampled = sum(recorder.wants(pid) for pid in range(5000))
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
            recorder.wants(pid)
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
        before = [recorder.wants(p) for p in range(50)]
        recorder.clear()
        after = [recorder.wants(p) for p in range(50, 100)]
        # decisions continue from the same RNG stream, not a fresh one
        fresh = FlightRecorder(clock=lambda: 0.0, sample_every=3, seed=1)
        fresh_first = [fresh.wants(p) for p in range(50)]
        assert before == fresh_first
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
        net.attach_flight_recorder(recorder)
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
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(dz), payload=None)
        )
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
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(Dz("1")), payload=None)
        )
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
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(dz), payload=None)
        )
        sim.run()
        drops = [r for r in recorder if r.drop is not None]
        assert [r.drop for r in drops] == ["link-down"]
        assert drops[0].detail["dst"] == "R2"

    def test_detach_stops_recording(self):
        sim, net, recorder = self._rig()
        dz = Dz("1")
        self._install_path(net, dz)
        net.attach_flight_recorder(None)
        net.hosts["h1"].send(
            Packet(dst_address=dz_to_address(dz), payload=None)
        )
        sim.run()
        assert len(recorder) == 0

    def test_unsampled_packets_leave_no_records(self):
        sim = Simulator()
        params = NetworkParams(switch_lookup_jitter_s=0.0)
        net = Network(sim, line(2, hosts_per_switch=1), params=params)
        # sample_every so large that (with this seed) nothing is sampled
        recorder = FlightRecorder(
            clock=lambda: sim.now, sample_every=10_000_000, seed=0
        )
        net.attach_flight_recorder(recorder)
        dz = Dz("1")
        self._install_path(net, dz)
        for _ in range(5):
            net.hosts["h1"].send(
                Packet(
                    dst_address=dz_to_address(dz),
                    payload=None,
                    packet_id=sim.ids.next("packet"),
                )
            )
        sim.run()
        assert len(recorder) == 0
        assert recorder.stats.packets_seen == 5
