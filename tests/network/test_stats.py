"""Unit tests for link-utilization measurement from polled port counters
(``OverloadManager.measure``)."""

import pytest

from repro.controller.overload import OverloadManager
from repro.core.events import Event
from repro.core.subscription import Filter
from repro.middleware.pleroma import Pleroma
from repro.network.fabric import NetworkParams
from repro.network.topology import line


@pytest.fixture
def rig():
    """h1 on R1 publishes to a subscriber h2 on R2; R2-R3 stays idle."""
    middleware = Pleroma(
        line(3),
        dimensions=1,
        max_dz_length=10,
        params=NetworkParams(bandwidth_bps=8e6),  # 1 MB/s
    )
    middleware.publisher("h1").advertise(Filter.of())
    middleware.subscriber("h2").subscribe(Filter.of())
    poller, _ = middleware.enable_telemetry()
    manager = OverloadManager(
        controller=middleware.controllers[0], poller=poller
    )
    return middleware, manager


def blast(middleware, events: int, host: str = "h1") -> None:
    base = middleware.now
    for i in range(events):
        middleware.sim.schedule_at(
            base + i * 1e-3, middleware.publish, host, Event.of(attr0=600)
        )
    middleware.run()


class TestSampling:
    def test_only_switch_links_tracked(self, rig):
        middleware, manager = rig
        blast(middleware, 10)
        assert list(manager.measure()) == [
            ("R1", "R2"),
            ("R2", "R3"),
        ]

    def test_utilization_measured(self, rig):
        middleware, manager = rig
        blast(middleware, 100)
        utilization = manager.measure()
        # after the drain the polled bytes are the link's own counters
        link = middleware.network.link_between("R1", "R2")
        assert link.total_bytes > 0
        assert utilization[("R1", "R2")] == (link.total_bytes * 8.0) / (
            link.bandwidth_bps * middleware.now
        )
        assert utilization[("R2", "R3")] == 0.0

    def test_windows_are_deltas(self, rig):
        middleware, manager = rig
        blast(middleware, 50)
        assert manager.measure()[("R1", "R2")] > 0.0
        # quiet window: utilization drops to zero
        middleware.run(until=middleware.now + 1.0)
        assert manager.measure()[("R1", "R2")] == 0.0
        # the next burst is measured over its own window only
        start = middleware.now
        link = middleware.network.link_between("R1", "R2")
        before = link.total_bytes
        blast(middleware, 50)
        assert manager.measure()[("R1", "R2")] == (
            (link.total_bytes - before) * 8.0
        ) / (link.bandwidth_bps * (middleware.now - start))

    def test_hottest(self, rig):
        """Traffic from h3 heats R2-R3, the later link in label order."""
        middleware, manager = rig
        middleware.publisher("h3").advertise(Filter.of())
        manager.threshold = 0.01
        blast(middleware, 30, host="h3")
        utilization = manager.measure()
        assert utilization[("R1", "R2")] == 0.0
        assert utilization[("R2", "R3")] > 0.0
        blast(middleware, 30, host="h3")
        event = manager.check()
        assert event is not None
        assert event.edge == ("R2", "R3")
        assert event.utilization > 0

    def test_hottest_requires_samples(self, rig):
        """Before the first poll round nothing is measured, so nothing is
        hot."""
        _, manager = rig
        manager.threshold = 0.01
        assert manager.measure() == {}
        assert manager.check() is None
        assert manager.log == []
