"""The in-band stats poller: polling, analytics, idle pause, reconciliation."""

import json

import pytest

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.control_channel import ControlChannel
from repro.network.fabric import Network
from repro.network.flow import Action, FlowEntry
from repro.network.openflow import ErrorMessage
from repro.network.packet import Packet
from repro.network.topology import line
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import StatsPoller, reconcile_with_oracle
from repro.sim.engine import Simulator


@pytest.fixture
def rig():
    sim = Simulator()
    net = Network(sim, line(3, hosts_per_switch=1))
    registry = MetricsRegistry()
    channel = ControlChannel(sim, latency_s=1e-4, registry=registry)
    for name in sorted(net.switches):
        channel.connect(net.switches[name])
    # forwarding path h1 -> R1 -> R2 -> R3 for dz "1"
    net.switches["R1"].table.install(
        FlowEntry.for_dz(Dz("1"), {Action(net.port("R1", "R2"))})
    )
    net.switches["R2"].table.install(
        FlowEntry.for_dz(Dz("1"), {Action(net.port("R2", "R3"))})
    )
    poller = StatsPoller(sim, channel, registry, period_s=0.01)
    return sim, net, channel, registry, poller


def blast(sim, net, packets: int, size: int = 500):
    for i in range(packets):
        sim.schedule(
            i * 1e-4,
            net.switches["R1"].receive,
            Packet(
                dst_address=dz_to_address(Dz("1")),
                payload=None,
                size_bytes=size,
            ),
            net.port("R1", "h1"),
        )
    sim.run()


class TestPolling:
    def test_round_populates_views(self, rig):
        sim, net, channel, registry, poller = rig
        blast(sim, net, 5)
        poller.poll_now()
        sim.run()
        assert poller.rounds_completed == 1
        view = poller.views["R1"]
        assert view.polls == 1
        assert len(view.flows) == 1
        ((key, entry),) = view.flows.items()
        assert entry.packet_count == 5
        assert view.table.active_count == 1
        assert view.last_rtt_s == pytest.approx(2e-4)
        # untouched switch polled too
        assert poller.views["R3"].table.active_count == 0

    def test_gauges_land_in_registry(self, rig):
        sim, net, channel, registry, poller = rig
        blast(sim, net, 3)
        poller.poll_now()
        sim.run()
        snap = registry.snapshot()
        assert snap["gauges"]["telemetry.flow_entries{switch=R1}"] == 1.0
        assert snap["gauges"]["telemetry.subspace_packets{dz=1}"] == 3.0
        assert snap["counters"]["telemetry.polls{switch=R1}"] == 1
        assert snap["counters"]["telemetry.poll_rounds"] == 1

    def test_tcam_occupancy_gauges_written(self, rig):
        sim, net, channel, registry, poller = rig
        poller.poll_now()
        sim.run()
        snap = registry.snapshot()
        flows = snap["gauges"]["telemetry.flow_entries{switch=R1}"]
        assert flows == 1.0
        occupancy = snap["gauges"]["telemetry.tcam_occupancy{switch=R1}"]
        assert occupancy == flows / net.switches["R1"].table.capacity

    def test_error_reply_counts_and_round_completes(self, rig):
        sim, net, channel, registry, poller = rig
        poller.poll_now()
        pending_xid = next(iter(poller._pending))
        # fake the switch rejecting one request; the matching real reply
        # is then ignored and the round must still complete
        poller._on_reply("R1", ErrorMessage(failed_xid=pending_xid))
        sim.run()
        assert poller.rounds_completed == 1
        assert poller.views["R1"].poll_errors == 1

    def test_poller_never_touches_switch_internals(self, rig):
        """The no-oracle property: everything the poller knows arrived as
        an OpenFlow message over the channel (byte-accounted)."""
        sim, net, channel, registry, poller = rig
        before = channel.messages_to_controller()
        blast(sim, net, 2)
        poller.poll_now()
        sim.run()
        # 3 switches x 3 requests, one reply each
        assert channel.messages_to_controller() == before + 9
        assert poller.views["R1"].flows, "view built from replies"


class TestIdlePause:
    def test_pauses_when_quiet_and_resumes_on_poke(self, rig):
        sim, net, channel, registry, poller = rig
        poller.start()

        def traffic():
            net.switches["R1"].receive(
                Packet(dst_address=dz_to_address(Dz("1")), payload=None),
                net.port("R1", "h1"),
            )
            poller.poke()

        sim.schedule(0.005, traffic)
        sim.run()
        # traffic in the first window kept it armed; the quiet second
        # window paused it — so the drain terminated at all
        assert not poller.running
        assert poller.rounds_completed >= 2
        rounds = poller.rounds_completed
        poller.poke()
        assert poller.running
        sim.run()
        assert poller.rounds_completed == rounds + 1

    def test_polls_until_a_backlog_drains(self, rig):
        """A burst queued at a slow link crosses the next hop long after
        the one poke; the paused poller keeps polling while the polled
        ``tx_bytes`` move, so after the drain its view equals the links."""
        sim, net, channel, registry, poller = rig
        net.link_between("R1", "R2").bandwidth_bps = 1e5  # 4 ms a packet
        poller.start()
        for _ in range(50):
            net.switches["R1"].receive(
                Packet(
                    dst_address=dz_to_address(Dz("1")),
                    payload=None,
                    size_bytes=50,
                ),
                net.port("R1", "h1"),
            )
        poller.poke()
        sim.run()
        assert sim.now > 50 * 4e-3  # far past the first poll period
        assert not poller.running
        port = net.port("R2", "R3")
        link = net.link_between("R2", "R3")
        assert poller.views["R2"].ports[port].tx_bytes == 50 * 50
        assert link.counters_for(net.switches["R2"]).tx_bytes == 50 * 50

    def test_stop_cancels(self, rig):
        sim, net, channel, registry, poller = rig
        poller.start()
        poller.stop()
        assert not poller.running
        poller.poke()  # poking a stopped poller is a no-op
        assert not poller.running


class TestAnalytics:
    def test_heavy_hitters_use_max_not_sum(self, rig):
        """R1 and R2 both forward the same 4 packets for dz '1'; counting
        the subspace once (max over switches), not per hop."""
        sim, net, channel, registry, poller = rig
        blast(sim, net, 4)
        poller.poll_now()
        sim.run()
        (hitter,) = poller.heavy_hitters
        assert hitter["dz"] == "1"
        assert hitter["packets"] == 4

    def test_rate_from_consecutive_polls(self, rig):
        sim, net, channel, registry, poller = rig
        blast(sim, net, 2)
        poller.poll_now()
        sim.run()
        blast(sim, net, 6)
        poller.poll_now()
        sim.run()
        (hitter,) = poller.heavy_hitters
        window = poller.views["R1"].flow_window_s()
        assert hitter["rate_pps"] == pytest.approx(6 / window)
        assert hitter["peak_rate_pps"] >= hitter["rate_pps"]

    def test_rule_churn_counts_installs_and_removals(self, rig):
        sim, net, channel, registry, poller = rig
        poller.poll_now()
        sim.run()
        net.switches["R1"].table.install(
            FlowEntry.for_dz(Dz("01"), {Action(net.port("R1", "R2"))})
        )
        net.switches["R2"].table.remove(
            next(iter(net.switches["R2"].table)).match
        )
        poller.poll_now()
        sim.run()
        assert poller.views["R1"].rules_added == 1
        assert poller.views["R2"].rules_removed == 1
        snap = registry.snapshot()
        assert snap["counters"]["telemetry.rule_churn{switch=R1}"] == 1

    def test_occupancy_trend_accumulates(self, rig):
        sim, net, channel, registry, poller = rig
        poller.poll_now()
        sim.run()
        net.switches["R1"].table.install(
            FlowEntry.for_dz(Dz("01"), {Action(net.port("R1", "R2"))})
        )
        poller.poll_now()
        sim.run()
        trend = poller.occupancy_trend("R1")
        assert [count for _, count in trend] == [1, 2]
        assert trend[0][0] < trend[1][0]

    def test_port_loss_inferred_from_tx_dropped(self, rig):
        sim, net, channel, registry, poller = rig
        poller.poll_now()
        sim.run()
        net.link_between("R2", "R3").fail()
        blast(sim, net, 3)
        poller.poll_now()
        sim.run()
        (report,) = [
            r for r in poller.port_loss if r["tx_dropped"]
        ]
        assert report["switch"] == "R2"
        assert report["tx_dropped"] == 3
        assert report["loss_pps"] > 0
        key = "telemetry.port_loss_pps{port=%d,switch=R2}" % report["port"]
        assert registry.snapshot()["gauges"][key] > 0


class TestRoundListeners:
    def test_listener_called_once_per_round(self, rig):
        sim, net, channel, registry, poller = rig
        calls = []
        poller.round_listeners.append(calls.append)
        poller.poll_now()
        sim.run()
        poller.poll_now()
        sim.run()
        assert len(calls) == 2
        assert calls == sorted(calls)  # called at increasing sim times


class TestReconciliation:
    def test_exact_after_drain(self, rig):
        sim, net, channel, registry, poller = rig
        blast(sim, net, 7)
        poller.poll_now()
        sim.run()
        report = reconcile_with_oracle(poller, net)
        assert report["max_rule_error_packets"] == 0
        assert report["switches"]["R1"]["packets_polled"] == 7
        assert (
            report["switches"]["R1"]["rules_polled"]
            == report["switches"]["R1"]["rules_oracle"]
        )

    def test_staleness_is_quantified(self, rig):
        sim, net, channel, registry, poller = rig
        blast(sim, net, 2)
        poller.poll_now()
        sim.run()
        # traffic after the last poll: the polled view is now behind
        blast(sim, net, 3)
        report = reconcile_with_oracle(poller, net)
        assert report["max_rule_error_packets"] == 3
        assert report["max_age_s"] > 0


class TestSummary:
    def test_summary_is_deterministic_json(self, rig):
        sim, net, channel, registry, poller = rig
        blast(sim, net, 3)
        poller.poll_now()
        sim.run()
        summary = poller.summary()
        assert json.dumps(summary, sort_keys=True)
        assert summary["rounds_completed"] == 1
        assert list(summary["switches"]) == ["R1", "R2", "R3"]
        assert summary["switches"]["R1"]["flows"] == 1
