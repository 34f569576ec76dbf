"""Repair planning and orchestration: rebuilds, degraded mode, resume."""

from repro.analysis.verify import verify_controller
from repro.core.events import Event
from repro.core.subscription import Filter
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line, paper_fat_tree
from repro.resilience.repair import RepairPlanner
from tests.helpers import table_contents, table_difference


def deploy(topology, publisher="h1", subscribers=()):
    middleware = Pleroma(topology, dimensions=2, max_dz_length=10)
    middleware.publisher(publisher).advertise(Filter.of())
    clients = {}
    for host in subscribers:
        client = middleware.subscriber(host)
        client.subscribe(Filter.of())
        clients[host] = client
    return middleware, clients


def assert_off_edge(controller, a, b):
    """No tree and no installed path routes over the edge ``a``-``b``."""
    for tree in controller.trees:
        assert not tree.uses_edge(a, b)
        for hops in controller.ledger.routes(tree.tree_id).values():
            route = [switch for switch, _action in hops]
            assert {a, b} not in [set(pair) for pair in zip(route, route[1:])]


class TestPlanner:
    def test_healthy_deployment_plans_nothing(self):
        middleware, _ = deploy(paper_fat_tree(), subscribers=["h8"])
        plan = RepairPlanner(middleware.controllers[0]).plan({}, {})
        assert plan.is_noop
        assert not plan.degraded
        assert len(plan.components) == 1

    def test_survivable_cut_rebuilds_without_suspending(self):
        """Cutting a redundant fat-tree edge keeps the graph connected:
        affected trees are rebuilt, nobody is suspended."""
        middleware, _ = deploy(paper_fat_tree(), subscribers=["h8"])
        controller = middleware.controllers[0]
        affected = [t.tree_id for t in controller.trees if t.uses_edge("R1", "R5")]
        controller.topology.remove_link("R1", "R5")
        plan = RepairPlanner(controller).plan({}, {})
        assert not plan.degraded
        assert plan.suspend_subs == [] and plan.suspend_advs == []
        assert sorted(r.tree_id for r in plan.tree_repairs) == sorted(affected)
        for repair in plan.tree_repairs:
            assert ("R1", "R5") not in {
                tuple(sorted((c, p))) for c, p in repair.parents.items()
            }

    def test_bridge_cut_goes_degraded_and_suspends(self):
        """Cutting the line's middle edge splits {R1,R2} / {R3,R4}: the
        primary keeps serving, detached clients are suspended."""
        middleware, _ = deploy(line(4), subscribers=["h2", "h3", "h4"])
        controller = middleware.controllers[0]
        sub_by_switch = {
            s.endpoint.switch: sub_id
            for sub_id, s in controller.subscriptions.items()
        }
        controller.topology.remove_link("R2", "R3")
        plan = RepairPlanner(controller).plan({}, {})
        assert plan.degraded
        assert plan.primary == {"R1", "R2"}  # tie broken by smallest name
        assert plan.components == [["R1", "R2"], ["R3", "R4"]]
        assert sorted(plan.suspend_subs) == sorted(
            [sub_by_switch["R3"], sub_by_switch["R4"]]
        )
        assert plan.suspend_advs == []  # publisher h1 sits in the primary

    def test_detached_publisher_is_suspended_and_tree_retires(self):
        """When the publisher's side is the minority component, the
        advertisement itself is suspended (no repair for its tree)."""
        middleware, _ = deploy(
            line(4), publisher="h4", subscribers=["h1", "h2"]
        )
        controller = middleware.controllers[0]
        controller.topology.remove_link("R2", "R3")
        plan = RepairPlanner(controller).plan({}, {})
        assert plan.degraded
        assert plan.primary == {"R1", "R2"}
        assert len(plan.suspend_advs) == 1
        assert plan.tree_repairs == []  # the only tree loses its publisher


class TestOrchestratedRepair:
    def test_survivable_cut_recovers_delivery_and_stays_verified(self):
        middleware, clients = deploy(paper_fat_tree(), subscribers=["h8"])
        detector, orchestrator = middleware.enable_resilience()
        middleware.sim.schedule_at(
            0.01, middleware.network.link_between("R1", "R5").fail
        )
        middleware.run(until=0.03)
        detector.stop()
        middleware.publish("h1", Event.of(attr0=1.0, attr1=1.0))
        middleware.run()
        assert len(clients["h8"].matched) == 1
        assert all(r.verifier_ok for r in orchestrator.records)
        report = verify_controller(middleware.controllers[0])
        assert report.ok and not report.violations

    def test_degraded_repair_keeps_primary_service_verified(self):
        middleware, clients = deploy(line(4), subscribers=["h2", "h4"])
        detector, orchestrator = middleware.enable_resilience()
        middleware.sim.schedule_at(
            0.01, middleware.network.link_between("R2", "R3").fail
        )
        middleware.run(until=0.03)
        detector.stop()
        middleware.publish("h1", Event.of(attr0=1.0, attr1=1.0))
        middleware.run()
        # the primary-side subscriber still receives; the detached one is
        # suspended — and the verifier is clean despite the partition
        assert len(clients["h2"].matched) == 1
        assert len(clients["h4"].matched) == 0
        (record,) = [r for r in orchestrator.records if r.trigger_kind == "port-down"]
        assert record.degraded and record.suspended == 1
        assert record.verifier_ok
        assert orchestrator.suspended_clients == 1

    def test_heal_resumes_suspended_clients_verbatim(self):
        middleware, clients = deploy(line(4), subscribers=["h2", "h4"])
        detector, orchestrator = middleware.enable_resilience()
        controller = middleware.controllers[0]
        sub_ids_before = sorted(controller.subscriptions)
        link = middleware.network.link_between("R2", "R3")
        middleware.sim.schedule_at(0.01, link.fail)
        middleware.sim.schedule_at(0.03, link.restore)
        middleware.run(until=0.05)
        detector.stop()
        middleware.publish("h1", Event.of(attr0=1.0, attr1=1.0))
        middleware.run()
        # same ids are back — resume replays the remembered dz sets
        assert sorted(controller.subscriptions) == sub_ids_before
        assert orchestrator.suspended_clients == 0
        assert len(clients["h4"].matched) == 1
        up_records = [r for r in orchestrator.records if r.trigger_kind == "port-up"]
        assert up_records and up_records[-1].resumed == 1
        assert verify_controller(controller).ok

    def test_repair_latency_is_modeled_not_wall_clock(self):
        """Records must be deterministic: latency is flow-mods times the
        configured flow-mod round trip, never measured compute time."""
        middleware, _ = deploy(paper_fat_tree(), subscribers=["h8"])
        detector, orchestrator = middleware.enable_resilience()
        middleware.sim.schedule_at(
            0.01, middleware.network.link_between("R1", "R5").fail
        )
        middleware.run(until=0.03)
        detector.stop()
        controller = middleware.controllers[0]
        for record in orchestrator.records:
            assert record.repair_latency_s == (
                record.flow_mods * controller.flow_mod_latency_s
            )

    def test_switch_crash_and_revival_end_clean(self):
        """A crashed switch loses its TCAM; after revival and repair the
        controller's view and the hardware agree again (verifier-proven)."""
        middleware, clients = deploy(paper_fat_tree(), subscribers=["h8"])
        detector, orchestrator = middleware.enable_resilience()

        def crash(name):
            middleware.network.switches[name].fail()
            for key, link in middleware.network.links.items():
                if name in key:
                    link.set_oper(False)

        def revive(name):
            middleware.network.switches[name].restore()
            for key, link in middleware.network.links.items():
                if name in key:
                    link.set_oper(True)

        middleware.sim.schedule_at(0.01, crash, "R5")
        middleware.sim.schedule_at(0.04, revive, "R5")
        middleware.run(until=0.07)
        detector.stop()
        middleware.publish("h1", Event.of(attr0=1.0, attr1=1.0))
        middleware.run()
        assert len(clients["h8"].matched) == 1
        assert verify_controller(middleware.controllers[0]).ok
        assert orchestrator.down_edges() == []


class TestReportedFailuresShareTheOrchestrator:
    """``fail_link``/``fail_switch`` run a pass of the same orchestrator
    the detector feeds, so the detector's later verdict on an already
    repaired failure is not repaired a second time."""

    def confirm_by_detection(self, middleware, detector):
        middleware.run(until=0.05)
        detector.stop()
        middleware.run()

    def test_fail_link_is_repaired_once(self):
        middleware, _ = deploy(paper_fat_tree(), subscribers=["h8"])
        detector, orchestrator = middleware.enable_resilience()
        controller = middleware.controllers[0]
        tree = next(iter(controller.trees))
        child, parent = next(iter(tree.parents.items()))
        before = table_contents(middleware.network)
        middleware.fail_link(child, parent)
        mods = table_difference(before, table_contents(middleware.network))
        self.confirm_by_detection(middleware, detector)
        assert any(e.kind == "port-down" for e in detector.events)
        kinds = [s.kind for s in controller.request_log]
        assert kinds.count("link_failure") == 1
        assert "repair" not in kinds
        (record,) = orchestrator.records
        assert record.trigger_kind == "link_failure"
        assert record.flow_mods == mods and record.trees_rebuilt == 1
        assert record.verifier_ok
        assert_off_edge(controller, child, parent)

    def test_fail_switch_is_repaired_once(self):
        middleware, clients = deploy(paper_fat_tree(), subscribers=["h8"])
        detector, orchestrator = middleware.enable_resilience()
        controller = middleware.controllers[0]
        before = table_contents(middleware.network)
        middleware.fail_switch("R1")
        mods = table_difference(before, table_contents(middleware.network))
        self.confirm_by_detection(middleware, detector)
        assert any(e.kind == "switch-down" for e in detector.events)
        kinds = [s.kind for s in controller.request_log]
        assert kinds.count("switch_failure") == 1
        assert "repair" not in kinds
        (record,) = orchestrator.records
        assert record.flow_mods == mods and record.verifier_ok
        assert "R1" not in controller.ledger.switches()
        for neighbor in middleware.topology.neighbors("R1"):
            assert_off_edge(controller, "R1", neighbor)
        middleware.publish("h1", Event.of(attr0=1.0, attr1=1.0))
        middleware.run()
        assert len(clients["h8"].matched) == 1

    def test_noop_failure_still_logs_its_request(self):
        """A link no tree uses changes nothing, but the failure is still
        one ``link_failure`` request with zero flow mods."""
        middleware, _ = deploy(paper_fat_tree(), subscribers=["h8"])
        controller = middleware.controllers[0]
        tree = next(iter(controller.trees))
        a, b = next(
            (spec.a, spec.b)
            for spec in middleware.topology.links()
            if middleware.topology.is_switch(spec.a)
            and middleware.topology.is_switch(spec.b)
            and not tree.uses_edge(spec.a, spec.b)
        )
        logged = len(controller.request_log)
        middleware.fail_link(a, b)
        (stats,) = controller.request_log[logged:]
        assert (stats.kind, stats.flow_mods) == ("link_failure", 0)
