#!/usr/bin/env python
"""Failover and overload reaction: keeping events flowing when things break.

Two capabilities beyond the paper's evaluation (its conclusion lists them
as future work) that this reproduction implements:

1. **link/switch failure repair** — one repair pass of the controller's
   orchestrator rebuilds the trees routed over a dead link or switch over
   the surviving fabric and re-installs their paths;
2. **overload reaction** — link utilization, computed from the port
   counters the in-band statistics poller collects, spots a hot link and
   the controller moves the busiest tree onto an alternative route.

Run:  python examples/failover_demo.py
"""

from repro import (
    Event,
    Filter,
    NetworkParams,
    Pleroma,
    paper_fat_tree,
)
from repro.controller.overload import OverloadManager


def drive(middleware, publisher, events, interval=1e-3):
    base = middleware.now
    for i in range(events):
        middleware.sim.schedule_at(
            base + i * interval, publisher.publish, Event.of(attr0=600)
        )
    middleware.run()


def main() -> None:
    middleware = Pleroma(
        paper_fat_tree(),
        dimensions=1,
        max_dz_length=10,
        params=NetworkParams(bandwidth_bps=4e5),  # slow links: easy to heat
    )
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    subscriber = middleware.subscriber("h8")
    subscriber.subscribe(Filter.of(attr0=(512, 767)))

    poller, _ = middleware.enable_telemetry()
    manager = OverloadManager(
        controller=middleware.controllers[0],
        poller=poller,
        threshold=0.5,
    )

    print("phase 1: normal operation")
    drive(middleware, publisher, 100)
    print(f"  delivered: {len(subscriber.matched)}/100")

    print("phase 2: overload reaction")
    event = manager.check()
    assert event is not None and event.outcome, "overload was not rerouted"
    print(
        f"  hot link {event.edge[0]}<->{event.edge[1]} at "
        f"{event.utilization:.0%} utilization -> rerouted tree "
        f"{event.tree_id}"
    )
    before = len(subscriber.matched)
    drive(middleware, publisher, 100)
    print(f"  delivered after reroute: {len(subscriber.matched) - before}/100")

    print("phase 3: core switch failure")
    middleware.fail_switch("R1")
    before = len(subscriber.matched)
    drive(middleware, publisher, 100)
    print(f"  delivered after R1 died: {len(subscriber.matched) - before}/100")

    print("phase 4: aggregation link failure")
    # pick a surviving switch-switch link on the current tree
    tree = next(iter(middleware.controllers[0].trees))
    child, parent = next(iter(tree.parents.items()))
    middleware.fail_link(child, parent)
    before = len(subscriber.matched)
    drive(middleware, publisher, 100)
    print(
        f"  delivered after {child}<->{parent} died: "
        f"{len(subscriber.matched) - before}/100"
    )

    assert len(subscriber.matched) == 400, "events were lost"
    controller = middleware.controllers[0]
    repairs = [
        s.kind
        for s in controller.request_log
        if s.kind in ("reroute", "link_failure", "switch_failure")
    ]
    print(f"repair operations performed: {repairs}")
    print("no event lost across overload + two failures ✓")


if __name__ == "__main__":
    main()
