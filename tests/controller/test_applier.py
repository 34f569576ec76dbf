"""Unit tests for the table appliers (direct vs shadow-over-channel)."""

import pytest

from repro.controller.applier import ChannelApplier, DirectApplier
from repro.core.addressing import dz_to_prefix
from repro.core.dz import Dz
from repro.network.control_channel import ControlChannel
from repro.network.fabric import Network
from repro.network.flow import Action, FlowEntry
from repro.network.topology import line
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(sim, line(2, hosts_per_switch=0))
    return sim, net


def entry(bits="10", port=1):
    return FlowEntry.for_dz(Dz(bits), {Action(port)})


class TestDirectApplier:
    def test_writes_physical_table_immediately(self, rig):
        _, net = rig
        applier = DirectApplier(net)
        applier.install("R1", entry())
        assert net.switches["R1"].table.get_dz(Dz("10")) is not None
        applier.remove("R1", dz_to_prefix(Dz("10")))
        assert len(net.switches["R1"].table) == 0

    def test_table_is_the_physical_one(self, rig):
        _, net = rig
        applier = DirectApplier(net)
        assert applier.table("R1") is net.switches["R1"].table


class TestChannelApplier:
    def test_shadow_updates_now_physical_later(self, rig):
        sim, net = rig
        channel = ControlChannel(sim, latency_s=1e-3)
        channel.connect(net.switches["R1"])
        applier = ChannelApplier(net, channel)
        applier.install("R1", entry())
        # shadow view is immediate
        assert applier.table("R1").get_dz(Dz("10")) is not None
        # physical table lags by the channel latency
        assert len(net.switches["R1"].table) == 0
        sim.run()
        assert net.switches["R1"].table.get_dz(Dz("10")) is not None

    def test_removal_mirrors(self, rig):
        sim, net = rig
        channel = ControlChannel(sim, latency_s=1e-3)
        channel.connect(net.switches["R1"])
        applier = ChannelApplier(net, channel)
        applier.install("R1", entry())
        applier.remove("R1", dz_to_prefix(Dz("10")))
        sim.run()
        assert len(net.switches["R1"].table) == 0
        assert channel.errors == []

    def test_replacement_sends_modify(self, rig):
        sim, net = rig
        channel = ControlChannel(sim, latency_s=1e-3)
        channel.connect(net.switches["R1"])
        applier = ChannelApplier(net, channel)
        applier.install("R1", entry(port=1))
        applier.install("R1", entry(port=2))
        sim.run()
        assert net.switches["R1"].table.get_dz(Dz("10")).actions == {
            Action(2)
        }
        assert channel.errors == []

    def test_shadow_capacity_matches_physical(self, rig):
        _, net = rig
        channel = ControlChannel(Simulator(), latency_s=1e-3)
        applier = ChannelApplier(net, channel)
        assert (
            applier.table("R1").capacity
            == net.switches["R1"].table.capacity
        )

    def test_in_place_mutation_of_shadow_mirrors(self, rig):
        """The incremental installer mutates the shadow directly; every
        mutation must still reach the physical table."""
        sim, net = rig
        channel = ControlChannel(sim, latency_s=1e-3)
        channel.connect(net.switches["R1"])
        applier = ChannelApplier(net, channel)
        from repro.controller.flow_installer import flow_addition

        flow_addition(applier.table("R1"), Dz("100"), {Action(2)}, sim.ids)
        flow_addition(applier.table("R1"), Dz("10"), {Action(3)}, sim.ids)
        sim.run()
        physical = net.switches["R1"].table
        shadow = applier.table("R1")
        assert {e.match: e.actions for e in physical} == {
            e.match: e.actions for e in shadow
        }
