"""Tests for the verifier API, the fault-injection harness and the
controller's ``verify_after_each_request`` debug hook."""

import pytest

from repro.analysis.faults import (
    FAULT_INJECTORS,
    FaultInjectionError,
    inject_fault,
)
from repro.analysis.verify import (
    VerificationError,
    verify_controller,
    verify_deployment,
)
from repro.core.subscription import Advertisement, Subscription
from repro.middleware.pleroma import Pleroma
from repro.network.topology import line, paper_fat_tree, ring

from tests.analysis.test_invariants import deploy


class TestReport:
    def test_clean_report_shape(self):
        ctrl = deploy().controllers[0]
        report = verify_controller(ctrl)
        assert report.ok
        assert report.controller == ctrl.name
        assert report.by_kind() == {}
        assert "OK" in report.summary()
        document = report.to_dict()
        assert document["ok"] is True
        assert document["violations"] == []

    def test_skip_forwarding(self):
        ctrl = deploy().controllers[0]
        report = verify_controller(ctrl, include_forwarding=False)
        assert "forwarding" not in report.checks_run
        assert report.ok

    def test_raise_on_violation(self):
        ctrl = deploy().controllers[0]
        inject_fault(ctrl, "dropped_flow_mod")
        with pytest.raises(VerificationError) as excinfo:
            verify_controller(ctrl, raise_on_violation=True)
        assert not excinfo.value.report.ok
        assert "drift" in excinfo.value.report.kinds()

    def test_render_lists_violations(self):
        ctrl = deploy().controllers[0]
        inject_fault(ctrl, "dropped_flow_mod")
        report = verify_controller(ctrl)
        rendered = report.render()
        assert "drift" in rendered
        assert str(len(report.violations)) in report.summary()


class TestDeployment:
    @pytest.mark.parametrize("partitions", [1, 2])
    def test_verify_all_controllers(self, partitions):
        middleware = Pleroma(ring(), dimensions=2, partitions=partitions)
        hosts = sorted(middleware.topology.hosts())
        middleware.advertise(hosts[0], Advertisement.of(d0=(0.0, 1.0)))
        middleware.subscribe(hosts[5], Subscription.of(d0=(0.2, 0.7)))
        reports = verify_deployment(middleware)
        assert len(reports) == partitions
        assert all(report.ok for report in reports)

    def test_accepts_bare_controller_list(self):
        middleware = deploy()
        reports = verify_deployment(middleware.controllers)
        assert len(reports) == 1 and reports[0].ok

    def test_counters_recorded(self):
        middleware = deploy()
        ctrl = middleware.controllers[0]
        verify_deployment(middleware)
        runs = ctrl.obs.registry.counter(
            "analysis.verify.runs", controller=ctrl.name
        ).value
        assert runs == 1


class TestReadOnly:
    @pytest.mark.parametrize("install_mode", ["reconcile", "incremental"])
    def test_verifier_leaves_tcam_counters_alone(self, install_mode):
        """The verifier replays tables without a packet, so the lookup and
        miss counters the telemetry poller reports must not move."""
        middleware = Pleroma(
            paper_fat_tree(), dimensions=2, install_mode=install_mode
        )
        hosts = sorted(middleware.topology.hosts())
        middleware.advertise(hosts[0], Advertisement.of(d0=(0.0, 1.0)))
        for index, host in enumerate(hosts[1:]):
            low = (index % 4) / 5
            middleware.subscribe(host, Subscription.of(d0=(low, low + 0.3)))
        switches = middleware.network.switches
        before = {
            name: (sw.table.lookups, sw.table.misses)
            for name, sw in switches.items()
        }
        assert verify_controller(middleware.controllers[0]).ok
        after = {
            name: (sw.table.lookups, sw.table.misses)
            for name, sw in switches.items()
        }
        assert after == before


class TestFaultInjection:
    """The acceptance gate: every seeded fault class must be detected as
    (at least) its declared violation kind."""

    @pytest.mark.parametrize("fault", sorted(FAULT_INJECTORS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_detected_with_expected_kind(self, fault, seed):
        ctrl = deploy().controllers[0]
        assert verify_controller(ctrl).ok
        injection = inject_fault(ctrl, fault, seed=seed)
        report = verify_controller(ctrl)
        assert not report.ok
        assert injection.expected_kinds & report.kinds(), (
            f"{fault}: expected {sorted(injection.expected_kinds)}, "
            f"got {sorted(report.kinds())}"
        )

    @pytest.mark.parametrize("fault", sorted(FAULT_INJECTORS))
    def test_injection_is_deterministic(self, fault):
        """Equal seeds corrupt structurally equal state.  (Ids in the
        description differ: adv/sub counters are process-global.)"""
        ctrl1 = deploy().controllers[0]
        ctrl2 = deploy().controllers[0]
        first = inject_fault(ctrl1, fault, seed=7)
        second = inject_fault(ctrl2, fault, seed=7)
        assert first.name == second.name
        assert first.expected_kinds == second.expected_kinds
        report1 = verify_controller(ctrl1)
        report2 = verify_controller(ctrl2)
        assert report1.by_kind() == report2.by_kind()

    def test_unknown_fault_rejected(self):
        ctrl = deploy().controllers[0]
        with pytest.raises(FaultInjectionError):
            inject_fault(ctrl, "meteor_strike")

    def test_empty_deployment_has_nothing_to_corrupt(self):
        middleware = Pleroma(line(3), dimensions=2)
        with pytest.raises(FaultInjectionError):
            inject_fault(middleware.controllers[0], "dropped_flow_mod")


class TestVerifyAfterEachRequest:
    def test_hook_runs_per_request(self):
        middleware = Pleroma(
            paper_fat_tree(), dimensions=2, verify_after_each_request=True
        )
        hosts = sorted(middleware.topology.hosts())
        adv = middleware.advertise(
            hosts[0], Advertisement.of(d0=(0.0, 0.6))
        )
        sub = middleware.subscribe(
            hosts[4], Subscription.of(d0=(0.2, 0.9))
        )
        middleware.unsubscribe(hosts[4], sub.sub_id)
        middleware.unadvertise(hosts[0], adv.adv_id)
        ctrl = middleware.controllers[0]
        runs = ctrl.obs.registry.counter(
            "analysis.verify.runs", controller=ctrl.name
        ).value
        assert runs == 4

    def test_hook_raises_on_corrupted_state(self):
        middleware = Pleroma(
            paper_fat_tree(), dimensions=2, verify_after_each_request=True
        )
        hosts = sorted(middleware.topology.hosts())
        middleware.advertise(hosts[0], Advertisement.of(d0=(0.0, 0.6)))
        middleware.subscribe(hosts[4], Subscription.of(d0=(0.2, 0.9)))
        inject_fault(middleware.controllers[0], "dropped_flow_mod")
        with pytest.raises(VerificationError):
            middleware.subscribe(
                hosts[5], Subscription.of(d0=(0.0, 1.0))
            )

    def test_hook_off_by_default(self):
        middleware = deploy()
        ctrl = middleware.controllers[0]
        assert ctrl.verify_after_each_request is False
        runs = ctrl.obs.registry.counter(
            "analysis.verify.runs", controller=ctrl.name
        ).value
        assert runs == 0

    def test_churn_under_hook_stays_clean(self):
        """Sustained churn with per-request verification — the paper's
        subscribe/unsubscribe maintenance cycle never leaves dirty state."""
        import random

        middleware = Pleroma(
            ring(num_switches=6),
            dimensions=2,
            verify_after_each_request=True,
        )
        hosts = sorted(middleware.topology.hosts())
        rng = random.Random(13)
        live = []
        for _ in range(20):
            if len(live) < 4 or rng.random() < 0.6:
                host = rng.choice(hosts)
                state = middleware.subscribe(
                    host,
                    Subscription.of(
                        d0=tuple(sorted((rng.random(), rng.random())))
                    ),
                )
                live.append((host, state.sub_id))
            else:
                host, sub_id = live.pop(rng.randrange(len(live)))
                middleware.unsubscribe(host, sub_id)
        middleware.advertise(hosts[0], Advertisement.of(d0=(0.0, 1.0)))
        for host, sub_id in live:
            middleware.unsubscribe(host, sub_id)
