"""Unit tests for link-utilization sampling (``LinkUtilizationProbe``)."""

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.exceptions import TopologyError
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action, FlowEntry
from repro.network.packet import Packet
from repro.network.topology import line
from repro.obs.samplers import LinkUtilizationProbe
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(
        sim,
        line(3, hosts_per_switch=1),
        params=NetworkParams(bandwidth_bps=8e6),  # 1 MB/s
    )
    net.switches["R1"].table.install(
        FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
    )
    net.switches["R2"].table.install(
        FlowEntry.for_dz(
            Dz("1"),
            {Action(net.port("R2", "h2"), set_dest=net.hosts["h2"].address)},
        )
    )
    return sim, net


def probe_of(net):
    return LinkUtilizationProbe(net, net.registry)


def blast(sim, net, packets: int, size: int = 1000, interval: float = 1e-3):
    for i in range(packets):
        sim.schedule(
            i * interval,
            net.hosts["h1"].send,
            Packet(
                dst_address=dz_to_address(Dz("1")),
                payload=None,
                size_bytes=size,
            ),
        )
    sim.run()


class TestSampling:
    def test_only_switch_links_tracked(self, rig):
        _, net = rig
        probe = probe_of(net)
        samples = probe(net.sim.now)
        assert all(
            all(name in net.switches for name in key) for key in samples
        )
        assert len(samples) == 2  # R1-R2 and R2-R3

    def test_utilization_measured(self, rig):
        sim, net = rig
        probe = probe_of(net)
        # 100 packets x 1000 B over 0.1 s on an 8 Mbit/s link = 100% load
        blast(sim, net, 100, size=1000, interval=1e-3)
        probe(net.sim.now)
        hot = probe.latest("R1", "R2")
        assert hot.utilization == pytest.approx(1.0, rel=0.15)
        idle = probe.latest("R2", "R3")
        assert idle.utilization == 0.0

    def test_windows_are_deltas(self, rig):
        sim, net = rig
        probe = probe_of(net)
        blast(sim, net, 50)
        probe(net.sim.now)
        # quiet window: utilization drops to zero
        sim.run(until=sim.now + 1.0)
        probe(net.sim.now)
        assert probe.latest("R1", "R2").utilization == 0.0

    def test_hottest(self, rig):
        sim, net = rig
        probe = probe_of(net)
        blast(sim, net, 30)
        probe(net.sim.now)
        key, sample = probe.hottest()
        assert key == frozenset(("R1", "R2"))
        assert sample.utilization > 0

    def test_hottest_requires_samples(self, rig):
        _, net = rig
        with pytest.raises(TopologyError):
            probe_of(net).hottest()

    def test_unknown_link(self, rig):
        _, net = rig
        probe = probe_of(net)
        with pytest.raises(TopologyError):
            probe.latest("R1", "R9")
        with pytest.raises(TopologyError):
            probe.history("R1", "R9")

    def test_history_bounded(self, rig):
        sim, net = rig
        probe = probe_of(net)
        for _ in range(300):
            probe(net.sim.now)
        assert len(probe.history("R1", "R2")) == 256
