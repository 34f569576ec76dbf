"""Tests for path analytics over flight records (`repro.obs.paths`)."""

import json

from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action, FlowEntry
from repro.network.topology import line, star
from repro.obs.flight import DROP_REASONS, FlightRecorder
from repro.obs.paths import (
    analyze_flight,
    chrome_trace,
    render_link_hotness,
    render_timeline,
)
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator


def _rig(topology=None, params=None):
    sim = Simulator()
    net = Network(sim, topology or line(2, hosts_per_switch=1),
                  params=params)
    recorder = FlightRecorder(clock=lambda: sim.now)
    net.flight = recorder
    return sim, net, recorder


def _install_line_path(net, dz):
    h2 = net.hosts["h2"]
    net.switches["R1"].table.install(
        FlowEntry.for_dz(dz, {Action(net.port("R1", "R2"))})
    )
    net.switches["R2"].table.install(
        FlowEntry.for_dz(
            dz, {Action(net.port("R2", "h2"), set_dest=h2.address)}
        )
    )


def _publish(net, host, dz):
    net.hosts[host].send(net.packet(dz_to_address(dz), None, 64))


class TestDeliveryReconstruction:
    def test_path_and_delay_breakdown(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        _publish(net, "h1", dz)
        sim.run()

        report = analyze_flight(recorder, topology=net.topology)
        assert len(report.deliveries) == 1
        d = report.deliveries[0]
        assert d.complete
        assert d.publisher == "h1"
        assert d.host == "h2"
        assert d.path == ["h1", "R1", "R2", "h2"]
        assert d.hops == 3
        assert d.delay_s is not None and d.delay_s > 0.0
        # every sim-time mechanism is instrumented, so attribution is exact
        attributed = sum(
            v for k, v in d.breakdown.items() if k != "unattributed_s"
        )
        assert abs(d.breakdown["unattributed_s"]) < 1e-12
        assert abs(attributed - d.delay_s) < 1e-12
        assert d.breakdown["lookup_s"] > 0.0
        assert d.breakdown["serialization_s"] > 0.0
        assert d.breakdown["propagation_s"] > 0.0
        assert d.breakdown["host_service_s"] > 0.0

    def test_stretch_is_one_on_shortest_path(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        _publish(net, "h1", dz)
        sim.run()
        d = analyze_flight(recorder, topology=net.topology).deliveries[0]
        assert d.shortest_hops == 3
        assert d.stretch == 1.0

    def test_multicast_fanout_yields_one_trace_per_subscriber(self):
        sim, net, recorder = _rig(topology=star(leaves=3, hosts_per_leaf=1))
        dz = Dz("1")
        # replicate at the hub towards both subscriber leaves
        net.switches["HUB"].table.install(
            FlowEntry.for_dz(dz, {
                Action(net.port("HUB", "L2")),
                Action(net.port("HUB", "L3")),
            })
        )
        net.switches["L1"].table.install(
            FlowEntry.for_dz(dz, {Action(net.port("L1", "HUB"))})
        )
        for leaf, host in (("L2", "h2"), ("L3", "h3")):
            net.switches[leaf].table.install(
                FlowEntry.for_dz(dz, {
                    Action(net.port(leaf, host),
                           set_dest=net.hosts[host].address),
                })
            )
        _publish(net, "h1", dz)
        sim.run()
        report = analyze_flight(recorder, topology=net.topology)
        assert sorted(d.host for d in report.deliveries) == ["h2", "h3"]
        assert all(d.complete and d.publisher == "h1"
                   for d in report.deliveries)
        assert not report.duplicates

    def test_summary_aggregates_attribution(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        for _ in range(3):
            _publish(net, "h1", dz)
        sim.run()
        summary = analyze_flight(recorder, net.topology).summary()
        assert summary["deliveries"] == 3
        assert summary["incomplete_deliveries"] == 0
        assert summary["mean_stretch"] == 1.0
        assert summary["max_stretch"] == 1.0
        total_delay = sum(summary["delay_attribution_s"].values())
        assert total_delay > 0.0
        assert abs(summary["delay_attribution_s"]["unattributed_s"]) < 1e-12


class TestDropForensics:
    def test_table_miss(self):
        sim, net, recorder = _rig()
        _publish(net, "h1", Dz("1"))
        sim.run()
        report = analyze_flight(recorder)
        assert report.drop_counts == {"table-miss": 1}
        assert report.drops[0]["node"] == "R1"

    def test_link_down(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        net.link_between("R1", "R2").fail()
        _publish(net, "h1", dz)
        sim.run()
        assert analyze_flight(recorder).drop_counts == {"link-down": 1}

    def test_no_link(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        net.switches["R1"].table.install(
            FlowEntry.for_dz(dz, {Action(out_port=99)})
        )
        _publish(net, "h1", dz)
        sim.run()
        assert analyze_flight(recorder).drop_counts == {"no-link": 1}

    def test_ingress_bounce(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        # the only action points back out the ingress port towards h1
        net.switches["R1"].table.install(
            FlowEntry.for_dz(dz, {Action(net.port("R1", "h1"))})
        )
        _publish(net, "h1", dz)
        sim.run()
        assert analyze_flight(recorder).drop_counts == {"ingress-bounce": 1}

    def test_host_queue_overflow(self):
        params = NetworkParams(
            host_rate_eps=10.0, host_queue_capacity=1,
            switch_lookup_jitter_s=0.0,
        )
        sim, net, recorder = _rig(params=params)
        dz = Dz("1")
        _install_line_path(net, dz)
        for _ in range(5):
            _publish(net, "h1", dz)
        sim.run()
        report = analyze_flight(recorder)
        assert report.drop_counts.get("host-queue-overflow", 0) >= 1
        assert (
            report.drop_counts["host-queue-overflow"]
            == net.hosts["h2"].packets_dropped
        )

    def test_every_drop_has_exactly_one_known_reason(self):
        """Soak: a churny run with misses, a failed link and a slow host —
        every lost packet must be attributed to exactly one reason, and the
        per-reason totals must match the device counters."""
        params = NetworkParams(
            host_rate_eps=50.0, host_queue_capacity=2,
            switch_lookup_jitter_s=0.0,
        )
        sim, net, recorder = _rig(
            topology=line(3, hosts_per_switch=1), params=params
        )
        routed = Dz("1")
        h3 = net.hosts["h3"]
        net.switches["R1"].table.install(
            FlowEntry.for_dz(routed, {Action(net.port("R1", "R2"))})
        )
        net.switches["R2"].table.install(
            FlowEntry.for_dz(routed, {Action(net.port("R2", "R3"))})
        )
        net.switches["R3"].table.install(
            FlowEntry.for_dz(
                routed, {Action(net.port("R3", "h3"), set_dest=h3.address)}
            )
        )
        unrouted = Dz("0")
        for i in range(40):
            _publish(net, "h1", routed)
            if i % 3 == 0:
                _publish(net, "h1", unrouted)      # table-miss at R1
        # fail mid-run: the first packet crosses R2->R3 at ~1.09e-4 s (two
        # 50 us propagation hops), the last at ~1.4e-4 s, so failing at
        # 1.25e-4 s splits the stream into survivors and link-down losses
        sim.schedule_at(1.25e-4, net.link_between("R2", "R3").fail)
        sim.run()

        report = analyze_flight(recorder, topology=net.topology)
        # exactly one reason per drop record, all from the taxonomy
        assert all(d["reason"] in DROP_REASONS for d in report.drops)
        assert sum(report.drop_counts.values()) == len(report.drops)
        # flight totals agree with the authoritative device counters
        assert (
            report.drop_counts.get("table-miss", 0)
            == sum(s.packets_dropped_table_miss
                   for s in net.switches.values())
        )
        assert (
            report.drop_counts.get("link-down", 0)
            == sum(link.packets_lost_down for link in net.links.values())
        )
        assert (
            report.drop_counts.get("host-queue-overflow", 0)
            == sum(h.packets_dropped for h in net.hosts.values())
        )
        # the churn actually exercised every mechanism we claim to test
        assert report.drop_counts.get("table-miss", 0) == 14
        assert report.drop_counts.get("link-down", 0) >= 1
        assert report.drop_counts.get("host-queue-overflow", 0) >= 1
        assert len(report.deliveries) >= 1
        # conservation: all 54 packets either delivered or dropped, once
        assert len(report.deliveries) + len(report.drops) == 54


class TestDuplicates:
    def test_double_delivery_is_flagged(self):
        recorder = FlightRecorder(clock=lambda: 0.0)
        recorder.add(7, "host_send", "h1")
        recorder.add(7, "host_deliver", "h9")
        recorder.add(7, "host_deliver", "h9")
        report = analyze_flight(recorder)
        assert report.duplicates == [
            {"packet_id": 7, "host": "h9", "count": 2}
        ]
        assert report.summary()["duplicates"] == 1


class TestRecordGauges:
    def test_gauges_published_idempotently(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        _publish(net, "h1", dz)
        _publish(net, "h1", Dz("0"))  # one table miss
        sim.run()
        report = analyze_flight(recorder, net.topology)
        registry = MetricsRegistry()
        report.record_gauges(registry)
        report.record_gauges(registry)  # idempotent by construction
        snap = registry.snapshot()["gauges"]
        assert snap["flight.deliveries"] == 1.0
        assert snap["flight.drops"] == 1.0
        assert snap['flight.drops{reason=table-miss}'] == 1.0
        assert snap["flight.mean_stretch"] == 1.0
        assert (
            snap["flight.delay_attribution_s{component=propagation_s}"] > 0.0
        )


class TestRenderers:
    def _recorded_run(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        _publish(net, "h1", dz)
        sim.run()
        return recorder

    def test_timeline_mentions_every_stage(self):
        recorder = self._recorded_run()
        text = render_timeline(list(recorder))
        assert "published" in text
        assert "tcam hit" in text
        assert "delivered to application" in text
        assert render_timeline([]) == "(no records)"

    def test_link_hotness_table(self):
        recorder = self._recorded_run()
        report = analyze_flight(recorder)
        text = render_link_hotness(report.link_hotness)
        assert "h1->R1" in text
        assert "R2->h2" in text
        assert render_link_hotness({}) == "(no link transmissions recorded)"
        top1 = render_link_hotness(report.link_hotness, top=1)
        assert len(top1.splitlines()) == 1


class TestChromeTrace:
    def test_structure_and_durations(self):
        sim, net, recorder = _rig()
        dz = Dz("1")
        _install_line_path(net, dz)
        _publish(net, "h1", dz)
        _publish(net, "h1", Dz("0"))  # adds a drop instant event
        sim.run()
        doc = chrome_trace(recorder)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert sorted(m["args"]["name"] for m in meta) == [
            "R1", "R2", "h1", "h2",
        ]
        spans = [e for e in events if e["ph"] == "X"]
        assert spans and all(e["dur"] > 0.0 for e in spans)
        drops = [e for e in events if e.get("cat") == "drop"]
        assert [e["name"] for e in drops] == ["drop:table-miss"]
        # the document must be JSON-serialisable as-is
        json.dumps(doc)
