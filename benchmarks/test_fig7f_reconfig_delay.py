"""Fig. 7(f): reconfiguration delay vs. number of installed subscriptions.

Paper setup (Sec. 6.5): measure the average time the controller needs to
process one *new* subscription after N subscriptions are already deployed.
Results: the delay is noisy with no clear trend in N (it depends on how
many flows the new subscription touches, the subscriber's position, the
existing workload); even at 25,000 installed subscriptions the controller
sustains ~54 subscriptions/second.

The reproduction measures the same quantity: controller computation time
(measured) plus one control-channel round trip per flow-mod (modelled),
taken from the controller's request log.  Our Python controller on modern
hardware is faster in absolute terms than the paper's 2014 Floodlight
setup; the claims under test are the *shape* (no blow-up with N) and the
sustained-rate floor.
"""

from __future__ import annotations

from conftest import print_table, scaled

from repro.controller.controller import RequestStats
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree
from repro.workloads.scenarios import paper_zipfian

INSTALLED = scaled([500, 2_000, 5_000], [5_000, 10_000, 15_000, 20_000, 25_000])
PROBES = scaled(150, 400)
DIMENSIONS = 4


def probe(installed: int) -> tuple[Pleroma, list[RequestStats]]:
    """Deploy ``installed`` subscriptions, then subscribe the ``PROBES``
    new ones; the deployment and the probes' request stats."""
    topo = paper_fat_tree()
    workload = paper_zipfian(dimensions=DIMENSIONS, seed=29)
    middleware = Pleroma(topo, space=workload.space, max_dz_length=16)
    hosts = topo.hosts()
    middleware.advertise(hosts[0], workload.advertisement_covering_all())
    for i, sub in enumerate(workload.subscriptions(installed)):
        middleware.subscribe(hosts[1 + i % (len(hosts) - 1)], sub)

    controller = middleware.controllers[0]
    mark = len(controller.request_log)
    for i, sub in enumerate(workload.subscriptions(PROBES)):
        middleware.subscribe(hosts[1 + i % (len(hosts) - 1)], sub)
    probe_stats = [
        s for s in controller.request_log[mark:] if s.kind == "subscribe"
    ]
    return middleware, probe_stats


def run_once(installed: int) -> dict:
    _, probe_stats = probe(installed)
    delays = [s.reconfiguration_delay_s for s in probe_stats]
    mods = [s.flow_mods for s in probe_stats]
    mean_delay = sum(delays) / len(delays)
    return {
        "mean_delay_ms": mean_delay * 1e3,
        "max_delay_ms": max(delays) * 1e3,
        "mean_flow_mods": sum(mods) / len(mods),
        "subs_per_second": 1.0 / mean_delay,
    }


def test_fig7f_reconfiguration_delay(benchmark):
    results = {}
    for installed in INSTALLED[:-1]:
        results[installed] = run_once(installed)
    results[INSTALLED[-1]] = benchmark.pedantic(
        run_once, args=(INSTALLED[-1],), rounds=1, iterations=1
    )

    print_table(
        "Fig 7(f): reconfiguration delay vs installed subscriptions",
        [
            "installed subs",
            "mean delay (ms)",
            "max delay (ms)",
            "mean flow mods",
            "subs/second",
        ],
        [
            (
                n,
                r["mean_delay_ms"],
                r["max_delay_ms"],
                r["mean_flow_mods"],
                r["subs_per_second"],
            )
            for n, r in sorted(results.items())
        ],
    )

    # the paper's floor: the controller sustains at least 54 subs/second
    # even at the largest installed workload
    assert all(r["subs_per_second"] >= 54 for r in results.values())
    # and no blow-up: the delay stays within one order of magnitude across
    # installed-subscription counts (the paper sees no clear trend at all)
    means = [r["mean_delay_ms"] for r in results.values()]
    assert max(means) < 10 * min(means)
