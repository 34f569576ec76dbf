"""Microbenchmarks of the hot operations (proper pytest-benchmark timing).

These are not paper figures; they pin the per-operation costs the
reproduction's scalability rests on:

* TCAM lookup against a large table (Fig. 7a's substrate);
* filter -> DZ decomposition (the per-request indexing cost);
* one subscription through the controller at steady state;
* one event through the simulated fabric;
* the switch's no-rewrite forward path — ``Switch.receive`` reuses the
  arriving packet object for the first rewrite-free action instead of
  allocating a copy per action, so transit hops cost no allocation.
"""

from __future__ import annotations

import itertools

from repro.controller.controller import PleromaController
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.core.spatial_index import SpatialIndexer
from repro.core.subscription import Advertisement
from repro.network.fabric import Network
from repro.network.flow import Action, FlowEntry, FlowTable
from repro.network.topology import line, paper_fat_tree
from repro.sim.engine import Simulator
from repro.workloads.scenarios import paper_zipfian


def test_tcam_lookup_80k_entries(benchmark):
    table = FlowTable()
    for value in range(80_000):
        table.install(
            FlowEntry.for_dz(Dz.from_value(value, 17), {Action(1)})
        )
    address = dz_to_address(Dz.from_value(42_123, 17))
    entry = benchmark(table.lookup, address)
    assert entry is not None


def test_filter_decomposition(benchmark):
    workload = paper_zipfian(dimensions=4, seed=7)
    indexer = SpatialIndexer(workload.space, max_dz_length=16, max_cells=32)
    subs = workload.subscriptions(64)
    counter = itertools.count()

    def decompose():
        sub = subs[next(counter) % len(subs)]
        return indexer.filter_to_dzset(sub.filter)

    region = benchmark(decompose)
    assert len(region) >= 1


def test_subscribe_at_steady_state(benchmark):
    workload = paper_zipfian(dimensions=4, seed=7)
    sim = Simulator()
    net = Network(sim, paper_fat_tree())
    indexer = SpatialIndexer(workload.space, max_dz_length=16, max_cells=32)
    controller = PleromaController(net, indexer)
    hosts = net.topology.hosts()
    controller.advertise(hosts[0], workload.advertisement_covering_all())
    for i, sub in enumerate(workload.subscriptions(2000)):
        controller.subscribe(hosts[1 + i % 7], sub)
    counter = itertools.count()
    fresh = workload.subscriptions(5000)

    def one_subscription():
        i = next(counter)
        return controller.subscribe(hosts[1 + i % 7], fresh[i % len(fresh)])

    state = benchmark(one_subscription)
    assert state.sub_id in controller.subscriptions


def test_switch_forward_no_rewrite(benchmark):
    """One transit hop on the no-rewrite path: the switch forwards the
    arriving packet object itself (no per-action copy)."""
    from repro.network.packet import Packet

    sim = Simulator()
    net = Network(sim, line(4))
    sw = net.switches["R2"]
    dz = Dz.from_value(5, 8)
    in_port = net.port("R2", "R1")
    out_port = net.port("R2", "R3")
    sw.table.install(FlowEntry.for_dz(dz, {Action(out_port)}))
    packet = Packet(dst_address=dz_to_address(dz), payload=None)

    def forward_and_drain():
        sw.receive(packet, in_port)
        sim.run()

    benchmark(forward_and_drain)
    assert sw.packets_forwarded > 0
    assert sw.packets_dropped == 0


def test_switch_forward_flight_enabled(benchmark):
    """The same transit hop with the flight recorder attached and
    sampling every packet — the full-instrumentation worst case."""
    from repro.obs.flight import FlightRecorder

    sim = Simulator()
    net = Network(sim, line(4))
    net.flight = FlightRecorder(clock=lambda: sim.now)
    sw = net.switches["R2"]
    dz = Dz.from_value(5, 8)
    in_port = net.port("R2", "R1")
    out_port = net.port("R2", "R3")
    sw.table.install(FlowEntry.for_dz(dz, {Action(out_port)}))
    packet = net.packet(dz_to_address(dz), None, 64)
    assert packet.flight is net.flight

    def forward_and_drain():
        sw.receive(packet, in_port)
        sim.run()

    benchmark(forward_and_drain)
    assert sw.packets_forwarded > 0


# ----------------------------------------------------------------------
# hot-path overhead acceptance checks
#
# Each check times the real ``Switch.receive`` -> ``Link.transmit`` ->
# ``Switch.receive`` pipeline twice, on two identical rigs that differ
# only in the hook under test, and bounds the ratio at 5%.  Each round
# times both rigs back to back, alternating which goes first (cancels
# drift and order effects), and the median of the per-round ratios is
# compared (ignores rounds a scheduler hiccup hit on one side only).
# ----------------------------------------------------------------------
def _forward_rig(flight=None):
    """The transit rig; ``flight`` is attached before the one packet is
    minted, so the packet carries that recorder's sampling decision."""
    sim = Simulator()
    net = Network(sim, line(4))
    net.flight = flight
    sw = net.switches["R2"]
    dz = Dz.from_value(5, 8)
    sw.table.install(
        FlowEntry.for_dz(dz, {Action(net.port("R2", "R3"))})
    )
    packet = net.packet(dz_to_address(dz), None, 64)
    return sim, net, sw, packet, net.port("R2", "R1")


def _paired_median_ratio(rig_a, rig_b, iterations=500, rounds=40):
    """The median over rounds of ``time of b / time of a``, with the
    median time of each side."""
    import statistics
    import time

    def drive(rig):
        sim, _net, sw, packet, in_port = rig
        start = time.perf_counter()
        for _ in range(iterations):
            sw.receive(packet, in_port)
            sim.run()
        return time.perf_counter() - start

    drive(rig_a), drive(rig_b)  # warm-up
    times_a, times_b = [], []
    for round_ in range(rounds):
        if round_ % 2:
            times_b.append(drive(rig_b))
            times_a.append(drive(rig_a))
        else:
            times_a.append(drive(rig_a))
            times_b.append(drive(rig_b))
    # both pipelines did identical forwarding work
    assert rig_a[2].packets_forwarded == rig_b[2].packets_forwarded
    ratios = [b / a for a, b in zip(times_a, times_b)]
    return (
        statistics.median(ratios),
        statistics.median(times_a),
        statistics.median(times_b),
    )


def test_flight_recorder_disabled_overhead():
    """Acceptance: a flight recorder that is attached but not sampling
    costs <5% on the hot forwarding path versus no recorder at all."""
    from repro.obs.flight import FlightRecorder

    detached = _forward_rig()
    # 1-in-2**31 sampling: the one packet in the rig draws "no"
    recorder = FlightRecorder(clock=lambda: 0.0, sample_every=2**31)
    attached = _forward_rig(recorder)

    ratio, t_detached, t_attached = _paired_median_ratio(detached, attached)
    # the hooks really ran on one side and recorded nothing
    assert recorder.stats.packets_seen > 0
    assert recorder.stats.packets_sampled == 0 and len(recorder) == 0
    assert ratio < 1.05, (
        f"non-sampling flight hooks cost {(ratio - 1) * 100:.2f}% "
        f"(budget 5%): attached={t_attached:.4f}s "
        f"detached={t_detached:.4f}s"
    )


def test_telemetry_counters_overhead(monkeypatch):
    """Acceptance: with telemetry disabled (no poller, no channel), the
    always-on per-rule hardware counters cost <5% on the hot forwarding
    path versus the same path with ``FlowTable.record_hit`` a no-op."""
    counted = _forward_rig()
    uncounted = _forward_rig()
    monkeypatch.setattr(
        uncounted[2].table, "record_hit", lambda entry, size: None
    )

    ratio, t_uncounted, t_counted = _paired_median_ratio(uncounted, counted)
    # the counters really ran on one side and not the other
    assert counted[2].table.entries_with_stats()[0][1].packets > 0
    assert uncounted[2].table.entries_with_stats()[0][1].packets == 0
    assert ratio < 1.05, (
        f"flow counters cost {(ratio - 1) * 100:.2f}% (budget 5%): "
        f"counted={t_counted:.4f}s uncounted={t_uncounted:.4f}s"
    )


def test_event_through_fabric(benchmark):
    workload = paper_zipfian(dimensions=2, seed=7)
    sim = Simulator()
    net = Network(sim, paper_fat_tree())
    indexer = SpatialIndexer(workload.space, max_dz_length=12)
    controller = PleromaController(net, indexer)
    hosts = net.topology.hosts()
    controller.advertise(hosts[0], Advertisement.of())
    for i, sub in enumerate(workload.subscriptions(50)):
        controller.subscribe(hosts[1 + i % 7], sub)
    from repro.core.addressing import dz_to_address as addr
    from repro.network.packet import EventPayload, Packet

    events = workload.events(512)
    counter = itertools.count()

    def publish_and_drain():
        event = events[next(counter) % len(events)]
        dz = indexer.event_to_dz(event)
        net.hosts[hosts[0]].send(
            Packet(
                dst_address=addr(dz),
                payload=EventPayload(event, dz, hosts[0], sim.now),
            )
        )
        sim.run()

    benchmark(publish_and_drain)
