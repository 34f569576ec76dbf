"""End-to-end in-band telemetry: polling over real workloads on every
built-in topology, oracle reconciliation, alerting, cross-instance
determinism."""

import json
import random

import pytest

from repro.core.events import Event
from repro.core.subscription import Filter
from repro.middleware.pleroma import Pleroma
from repro.network.topology import (
    line,
    mininet_fat_tree,
    paper_fat_tree,
    ring,
)
from repro.obs.telemetry import reconcile_with_oracle

TOPOLOGIES = {
    "paper-fat-tree": paper_fat_tree,
    "mininet-fat-tree": mininet_fat_tree,
    "ring": ring,
    "line": lambda: line(4),
}


def run_workload(middleware: Pleroma, events: int = 60, seed: int = 0):
    rng = random.Random(seed)
    hosts = sorted(middleware.topology.hosts())
    middleware.publisher(hosts[0]).advertise(Filter.of())
    bands = ((0, 255), (256, 511), (512, 767), (768, 1023))
    for i, host in enumerate(hosts[1:]):
        middleware.subscriber(host).subscribe(
            Filter.of(attr0=bands[i % len(bands)])
        )
    for i in range(events):
        middleware.sim.schedule(
            i * 1e-3,
            middleware.publish,
            hosts[0],
            Event.of(
                attr0=rng.uniform(0, 1023), attr1=rng.uniform(0, 1023)
            ),
        )
    middleware.run()


class TestReconciliationEverywhere:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_polled_counters_reconcile_with_oracle(self, name):
        """Acceptance: on every built-in topology, per-rule packet counts
        assembled purely from FlowStats replies agree with the oracle
        counters once the network drains (any residual error would have
        to come from traffic inside the final polling window — and after
        a drain plus a closing poll there is none)."""
        middleware = Pleroma(
            TOPOLOGIES[name](), dimensions=2, max_dz_length=12
        )
        poller, _engine = middleware.enable_telemetry(period_s=0.01)
        run_workload(middleware)
        poller.poll_now()
        middleware.run()
        report = reconcile_with_oracle(poller, middleware.network)
        assert report["max_rule_error_packets"] == 0, report
        assert report["max_age_s"] == pytest.approx(0.0)
        total_polled = sum(
            s["packets_polled"] for s in report["switches"].values()
        )
        assert total_polled > 0, "workload produced no counted traffic"


class TestEnableTelemetry:
    def test_returns_attached_poller_and_engine(self):
        middleware = Pleroma(paper_fat_tree(), dimensions=2)
        poller, engine = middleware.enable_telemetry()
        assert middleware.obs.telemetry is poller
        assert middleware.obs.alerts is engine
        assert engine.evaluate in poller.round_listeners
        assert poller.running

    def test_publish_rearms_paused_poller(self):
        middleware = Pleroma(paper_fat_tree(), dimensions=2)
        poller, _ = middleware.enable_telemetry()
        middleware.run()
        assert not poller.running  # a quiet period paused it
        rounds = poller.rounds_completed
        middleware.publish("h1", Event.of(attr0=1.0, attr1=1.0))
        assert poller.running
        middleware.run()
        assert poller.rounds_completed > rounds

    def test_double_enable_rejected(self):
        from repro.exceptions import ControllerError

        middleware = Pleroma(paper_fat_tree(), dimensions=2)
        middleware.enable_telemetry()
        with pytest.raises(ControllerError):
            middleware.enable_telemetry()

    def test_client_requests_still_work_through_diversion(self):
        """Rewiring the switches through the telemetry channel must keep
        the in-band ``IP_pub/sub`` request path working."""
        from repro.controller.requests import SubscribeRequest
        from repro.core.addressing import PUBSUB_CONTROL_ADDRESS
        from repro.core.subscription import Subscription
        from repro.network.packet import Packet

        middleware = Pleroma(paper_fat_tree(), dimensions=2)
        middleware.enable_telemetry()
        middleware.network.hosts["h1"].send(
            Packet(
                dst_address=PUBSUB_CONTROL_ADDRESS,
                payload=SubscribeRequest(
                    "h1", Subscription.of(attr0=(0, 10))
                ),
            )
        )
        middleware.run()
        assert len(middleware.controllers[0].subscriptions) == 1

    def test_snapshot_gains_sections_only_when_enabled(self):
        plain = Pleroma(paper_fat_tree(), dimensions=2)
        document = plain.obs_snapshot(include_spans=False)
        assert "telemetry" not in document
        assert "alerts" not in document
        enabled = Pleroma(paper_fat_tree(), dimensions=2)
        enabled.enable_telemetry()
        run_workload(enabled, events=10)
        document = enabled.obs_snapshot(include_spans=False)
        assert document["telemetry"]["rounds_completed"] >= 1
        assert document["alerts"]["evaluations"] >= 1
        json.dumps(document, sort_keys=True)

    def test_port_loss_alert_fires_on_silent_link_failure(self):
        """A pure data-plane link failure (controller not told) surfaces
        through polled tx_dropped deltas and fires the default port-loss
        alert — detection without any oracle read."""
        middleware = Pleroma(paper_fat_tree(), dimensions=2)
        poller, engine = middleware.enable_telemetry(period_s=0.005)
        hosts = sorted(middleware.topology.hosts())
        middleware.publisher(hosts[0]).advertise(Filter.of())
        middleware.subscriber(hosts[-1]).subscribe(Filter.of())
        victim = middleware.topology.access_switch(hosts[-1])
        middleware.sim.schedule(
            0.02,
            middleware.network.link_between(hosts[-1], victim).fail,
        )
        for i in range(80):
            middleware.sim.schedule(
                i * 1e-3,
                middleware.publish,
                hosts[0],
                Event.of(attr0=500.0, attr1=500.0),
            )
        middleware.run()
        fired_rules = {alert.rule for alert in engine.history}
        assert "port-loss" in fired_rules


class TestCrossInstanceDeterminism:
    def test_two_deployments_same_seed_identical_telemetry(self):
        """Regression for the module-level cookie/xid leak: the second
        deployment in a process must produce byte-identical telemetry
        (cookies ride in FlowStats replies, so a leaked counter would
        show up here)."""

        def deploy() -> str:
            middleware = Pleroma(
                paper_fat_tree(), dimensions=2, max_dz_length=12
            )
            poller, engine = middleware.enable_telemetry(period_s=0.01)
            run_workload(middleware, events=30, seed=5)
            poller.poll_now()
            middleware.run()
            cookies = sorted(
                entry.cookie
                for view in poller.views.values()
                for entry in view.flows.values()
            )
            document = {
                "telemetry": poller.summary(),
                "alerts": engine.summary(),
                "cookies": cookies,
            }
            return json.dumps(document, sort_keys=True)

        assert deploy() == deploy()

    def test_live_fabric_keeps_unique_ids_after_another_is_built(self):
        """Building a second deployment must not restart the xids and
        cookies of a first one that is still live."""
        first = Pleroma(line(3), dimensions=1, max_dz_length=8)
        poller, _ = first.enable_telemetry(period_s=0.01)
        first.publisher("h1").advertise(Filter.of())
        first.subscriber("h3").subscribe(Filter.of(attr0=(0, 300)))
        poller.poll_now()
        first.run()

        Pleroma(line(3), dimensions=1, max_dz_length=8)

        first.subscriber("h2").subscribe(Filter.of(attr0=(600, 900)))
        poller.poll_now()
        first.run()
        xids = [reply.xid for reply in poller.channel.replies]
        cookies = [
            entry.cookie
            for switch in first.network.switches.values()
            for entry in switch.table
        ]
        assert len(set(xids)) == len(xids)
        assert len(set(cookies)) == len(cookies)
