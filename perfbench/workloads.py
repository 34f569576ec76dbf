"""The four benchmark workloads.

Each workload is one round of work that the runner repeats: ``setup``
builds a fresh deployment from the round's seed (timed as set-up), ``run``
is the timed phase, and ``check`` verifies the outputs afterwards, outside
any timing.  Round ``r`` of seed ``s`` draws its inputs from seed
``s * 1000 + r``, so one run averages several independent draws and the
same seed always gives the same inputs.

The zipfian workloads keep one hotspot layout per workload (the popular
interests of the paper's scenario, drawn from the seed its Fig 7
benchmark uses) and draw subscriptions and events around it from the
round's seed; ``fpr_sweep`` likewise keeps the Fig 7d benchmark's
subscription set and draws only the events.  A new layout or subscription
set per seed would change how much work a round does far more than any
code change a later run is meant to detect.

Module-level functions of the program are called through their module
(``fpr.assign_round_robin``) so that the traced run's wrappers see them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

import repro.analysis.fpr as fpr
import repro.analysis.invariants as invariants
import repro.analysis.verify as verify
from repro.core.spatial_index import SpatialIndexer
from repro.exceptions import ReproError
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree
from repro.resilience.chaos import ChaosRunner, ChaosSchedule
from repro.workloads.scenarios import paper_uniform, paper_zipfian


def round_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def zipfian(dimensions: int, layout_seed: int, seed: int):
    """A zipfian workload with ``layout_seed``'s hotspots and ``seed``'s
    draws."""
    workload = paper_zipfian(dimensions=dimensions, seed=layout_seed)
    workload.rng.seed(seed)
    return workload


@dataclass
class Outputs:
    """What one timed phase produced."""

    attempted: int = 0
    failed: int = 0
    timed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    # deterministic sim-time outputs, compared against recorded digests
    digest: dict = field(default_factory=dict)
    # the workload's own named end-to-end figures for this round
    named: dict[str, float] = field(default_factory=dict)
    # counts the per-layer ratios are taken over
    counts: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    op_name = ""           # what one counted operation is
    latency_name = ""      # what one latency sample is

    def setup(self, seed: int, round_index: int):
        """Build the round's deployment and inputs from ``seed``."""
        raise NotImplementedError

    def begin_op(self, op_id: int) -> None:
        """Called as operation ``op_id`` of a timed phase starts; the
        traced run tags its spans with it."""

    def run(self, state) -> Outputs:
        raise NotImplementedError

    def check(self, state, out: Outputs, round_index: int) -> list[str]:
        """Problems with the round's outputs; a costly check may run on
        round 0 only."""
        raise NotImplementedError


def _host_drops(middleware: Pleroma) -> int:
    return sum(h.packets_dropped for h in middleware.network.hosts.values())


# ----------------------------------------------------------------------
class SubscribeChurn(Workload):
    """Fig 7f control path: closed-loop subscribe/unsubscribe, no packets."""

    name = "subscribe_churn"
    op_name = "subscribe or unsubscribe request"
    latency_name = "one subscribe request"
    PREINSTALLED = 200
    SUBSCRIBES = 400          # one unsubscribe of the oldest after every 2nd

    def setup(self, seed, round_index):
        topology = paper_fat_tree()
        workload = zipfian(4, 29, seed)
        middleware = Pleroma(topology, space=workload.space, max_dz_length=16)
        hosts = topology.hosts()
        middleware.advertise(hosts[0], workload.advertisement_covering_all())
        live: deque[tuple[str, int]] = deque()
        for i, sub in enumerate(workload.subscriptions(self.PREINSTALLED)):
            host = hosts[1 + i % (len(hosts) - 1)]
            middleware.subscribe(host, sub)
            live.append((host, sub.sub_id))
        fresh = workload.subscriptions(self.SUBSCRIBES)
        return middleware, hosts, live, fresh

    def run(self, state):
        middleware, hosts, live, fresh = state
        controller = middleware.controllers[0]
        out = Outputs()
        unsub_s = 0.0
        unsubs = 0
        started = perf_counter()
        for i, sub in enumerate(fresh):
            host = hosts[1 + i % (len(hosts) - 1)]
            self.begin_op(out.attempted)
            out.attempted += 1
            t0 = perf_counter()
            try:
                middleware.subscribe(host, sub)
            except ReproError:
                out.failed += 1
            else:
                live.append((host, sub.sub_id))
            out.latencies_s.append(perf_counter() - t0)
            if i % 2 == 1:
                old_host, old_id = live.popleft()
                self.begin_op(out.attempted)
                out.attempted += 1
                t0 = perf_counter()
                try:
                    middleware.unsubscribe(old_host, old_id)
                except ReproError:
                    out.failed += 1
                unsub_s += perf_counter() - t0
                unsubs += 1
        out.timed_s = perf_counter() - started
        latencies = sorted(out.latencies_s)
        subscribe_s = sum(latencies)
        out.named = {
            "subscribe_per_s": len(latencies) / subscribe_s,
            "unsubscribe_per_s": unsubs / unsub_s,
        }
        out.digest = {
            "flows": middleware.total_flows_installed(),
            "flow_mods": controller.total_flow_mods,
            "subscriptions": len(controller.subscriptions),
        }
        requests = [
            s for s in controller.request_log
            if s.kind in ("subscribe", "unsubscribe")
        ][-out.attempted:]
        out.counts = {
            "requests": len(requests),
            "flow_mods": sum(s.flow_mods for s in requests),
        }
        return out

    def check(self, state, out, round_index):
        middleware = state[0]
        controller = middleware.controllers[0]
        problems = []
        # re-deriving every table takes longer than two rounds: once a run
        if round_index == 0:
            problems += [
                f"table drift: {v}"
                for v in invariants.check_table_drift(controller)
            ]
        expected = self.PREINSTALLED + self.SUBSCRIBES - self.SUBSCRIBES // 2
        if len(controller.subscriptions) != expected:
            problems.append(
                f"{len(controller.subscriptions)} subscriptions active, "
                f"expected {expected}"
            )
        return problems


# ----------------------------------------------------------------------
class PublishFanout(Workload):
    """Fig 7c data path: an open-loop event batch in sim time, then drain."""

    name = "publish_fanout"
    op_name = "event published and drained"
    latency_name = "simulating one 200-event slice (5 ms of sim time)"
    SUBSCRIPTIONS = 200
    EVENTS = 10_000
    RATE_EPS = 40_000.0        # below the 70k ev/s host capacity: no drops
    # long enough that a burst of contention from other processes on the
    # host does not by itself make a slice one of the slowest tenth
    SLICE = 200
    SUBSCRIBERS = ("h5", "h6", "h7", "h8")

    def setup(self, seed, round_index):
        topology = paper_fat_tree()
        workload = zipfian(2, 5, seed)
        middleware = Pleroma(topology, space=workload.space, max_dz_length=12)
        middleware.advertise("h1", workload.advertisement_covering_all())
        subs: dict[str, list] = {h: [] for h in self.SUBSCRIBERS}
        for i in range(self.SUBSCRIPTIONS):
            host = self.SUBSCRIBERS[i % len(self.SUBSCRIBERS)]
            sub = workload.subscription()
            middleware.subscribe(host, sub)
            subs[host].append(sub)
        events = workload.events(self.EVENTS)
        return middleware, subs, events

    def run(self, state):
        middleware, _subs, events = state
        sim = middleware.sim
        interval = 1.0 / self.RATE_EPS
        out = Outputs(attempted=len(events))
        processed_before = sim.processed_events
        started = perf_counter()
        try:
            middleware.publish_stream("h1", events, self.RATE_EPS, start_at=0.0)
            for end in range(self.SLICE, len(events) + 1, self.SLICE):
                self.begin_op(len(out.latencies_s))
                t0 = perf_counter()
                sim.run(until=(end - 0.5) * interval)
                out.latencies_s.append(perf_counter() - t0)
            middleware.run()
        except ReproError:
            out.failed = out.attempted
        out.timed_s = perf_counter() - started
        records = middleware.metrics.records
        delivered: dict[str, int] = {}
        matched: dict[str, int] = {}
        for record in records:
            delivered[record.host] = delivered.get(record.host, 0) + 1
            matched[record.host] = matched.get(record.host, 0) + record.matched
        unwanted = len(records) - sum(matched.values())
        out.named = {
            "events_per_s": len(events) / out.timed_s,
            "sim_events_per_s":
                (sim.processed_events - processed_before) / out.timed_s,
            "deliveries_per_s": len(records) / out.timed_s,
        }
        out.digest = {
            "delivered": dict(sorted(delivered.items())),
            "matched": dict(sorted(matched.items())),
            "fpr_percent": round(100.0 * unwanted / len(records), 9)
            if records else 0.0,
        }
        out.counts = {
            "deliveries": len(records),
            "unwanted": unwanted,
            "host_dropped": _host_drops(middleware),
        }
        return out

    def check(self, state, out, round_index):
        middleware, subs, events = state
        problems = []
        if out.counts["host_dropped"]:
            problems.append(f"{out.counts['host_dropped']} host drops")
        got = {(r.host, r.event.event_id) for r in middleware.metrics.records}
        # no false negatives, on every 5th event to bound the check's cost
        for event in events[::5]:
            for host, host_subs in subs.items():
                if (any(s.matches(event) for s in host_subs)
                        and (host, event.event_id) not in got):
                    problems.append(
                        f"event {event.event_id} matched on {host} "
                        "but was not delivered"
                    )
        return problems[:10]


# ----------------------------------------------------------------------
class ChaosRepair(Workload):
    """Self-healing: chaos episodes against a deployment with everything on."""

    name = "chaos_repair"
    op_name = "repair pass (orchestrator on_event call)"
    latency_name = "one repair pass"
    SUBS_PER_HOST = 1
    MAX_DZ_LENGTH = 10
    # two chaos kinds per round, alternating, so every run sees all four
    KIND_PAIRS = (("link-cut", "switch-crash"), ("link-flap", "partition"))

    def setup(self, seed, round_index):
        topology = paper_fat_tree()
        workload = zipfian(2, 5, seed)
        middleware = Pleroma(
            topology, space=workload.space, max_dz_length=self.MAX_DZ_LENGTH
        )
        hosts = sorted(topology.hosts())
        middleware.advertise(hosts[0], workload.advertisement_covering_all())
        for host in hosts[1:]:
            for _ in range(self.SUBS_PER_HOST):
                middleware.subscribe(host, workload.subscription())
        middleware.enable_telemetry()
        middleware.enable_flight_recorder(sample_every=16, seed=seed)
        detector, orchestrator = middleware.enable_resilience(seed=seed)
        kinds = self.KIND_PAIRS[round_index % len(self.KIND_PAIRS)]
        schedule = ChaosSchedule.generate(topology, seed=seed, kinds=kinds)
        interval = detector.period_s / 2.0
        count = max(1, int(schedule.horizon / interval) - 2)
        middleware.publish_stream(
            hosts[0], workload.events(count), 1.0 / interval, start_at=0.0
        )
        return middleware, detector, orchestrator, schedule

    def run(self, state):
        middleware, detector, orchestrator, schedule = state
        out = Outputs()
        # time every repair pass from outside the orchestrator
        index = detector.listeners.index(orchestrator.on_event)
        on_event = detector.listeners[index]

        def timed(event):
            self.begin_op(len(out.latencies_s))
            t0 = perf_counter()
            on_event(event)
            out.latencies_s.append(perf_counter() - t0)

        detector.listeners[index] = timed
        started = perf_counter()
        try:
            ChaosRunner(middleware, schedule, detector, orchestrator).run()
        except ReproError:
            out.failed += 1
        out.timed_s = perf_counter() - started
        out.attempted += len(out.latencies_s)
        records = middleware.metrics.records
        out.named = {"episode_s": out.timed_s}
        out.digest = {
            "kinds": [a.kind for a in schedule.actions],
            "verdicts": [r.verifier_ok for r in orchestrator.records],
            "suspended": orchestrator.suspended_clients,
            "deliveries": len(records),
        }
        out.counts = {
            "deliveries": len(records),
            "unwanted": sum(not r.matched for r in records),
            "host_dropped": _host_drops(middleware),
        }
        return out

    def check(self, state, out, round_index):
        middleware, _detector, orchestrator, _schedule = state
        problems = []
        report = verify.verify_controller(middleware.controllers[0])
        if not report.ok:
            problems.append(f"final verifier: {report.summary()}")
        if orchestrator.suspended_clients:
            problems.append(
                f"{orchestrator.suspended_clients} clients still suspended"
            )
        if not out.latencies_s:
            problems.append("no repair pass ran")
        if not out.digest["deliveries"]:
            problems.append("nothing delivered")
        return problems


# ----------------------------------------------------------------------
class FprSweep(Workload):
    """One Fig 7d point: pure indexing, no network and no controller."""

    name = "fpr_sweep"
    op_name = "event classified (host regions built in the same phase)"
    latency_name = "evaluating one 10-event chunk"
    SUBSCRIPTIONS = 80
    EVENTS = 600
    HOSTS = 8
    CHUNK = 10

    def setup(self, seed, round_index):
        fixed = paper_uniform(dimensions=3, seed=17, width_fraction=0.25)
        drawn = paper_uniform(dimensions=3, seed=seed, width_fraction=0.25)
        indexer = SpatialIndexer(fixed.space, max_dz_length=20, max_cells=256)
        return {
            "indexer": indexer,
            "subs": fixed.subscriptions(self.SUBSCRIPTIONS),
            "events": drawn.events(self.EVENTS),
            "assignment": None,
        }

    def run(self, state):
        indexer, subs, events = state["indexer"], state["subs"], state["events"]
        out = Outputs(attempted=len(events))
        delivered = unwanted = 0
        started = perf_counter()
        try:
            self.begin_op(0)
            assignment = state["assignment"] = fpr.assign_round_robin(
                subs, self.HOSTS, indexer
            )
            assigned_s = perf_counter() - started
            for i in range(0, len(events), self.CHUNK):
                self.begin_op(1 + len(out.latencies_s))   # 0 is the assignment
                t0 = perf_counter()
                report = fpr.evaluate_fpr(
                    assignment, events[i:i + self.CHUNK], indexer
                )
                out.latencies_s.append(perf_counter() - t0)
                delivered += report.delivered
                unwanted += report.unwanted
        except ReproError:
            out.failed = out.attempted
            assigned_s = perf_counter() - started
        out.timed_s = perf_counter() - started
        percent = 100.0 * unwanted / delivered if delivered else 0.0
        evaluated_s = sum(out.latencies_s)
        out.named = {
            "fpr_subs_per_s": len(subs) / assigned_s,
            "fpr_events_per_s":
                len(events) / evaluated_s if evaluated_s else 0.0,
        }
        out.digest = {
            "delivered": delivered,
            "unwanted": unwanted,
            "fpr_percent": round(percent, 9),
        }
        out.counts = {"deliveries": delivered, "unwanted": unwanted}
        return out

    def check(self, state, out, round_index):
        indexer, subs, events = state["indexer"], state["subs"], state["events"]
        assignment = state["assignment"]
        if assignment is None:
            return ["assignment failed"]
        problems = []
        for event in events[::5]:
            dz = indexer.event_to_dz(event)
            for host in range(self.HOSTS):
                wanted = any(
                    s.matches(event) for s in subs[host::self.HOSTS]
                )
                if wanted and not assignment.regions[host].overlaps_dz(dz):
                    problems.append(
                        f"event {event.event_id} wanted on host {host} "
                        "but not delivered"
                    )
        return problems[:10]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (SubscribeChurn(), PublishFanout(), ChaosRepair(), FprSweep())
}
