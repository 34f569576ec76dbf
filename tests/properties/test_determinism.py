"""Cross-run determinism: same seed, same bytes.

Two layers of guarantee:

* **in-process** — running a scenario twice in one interpreter yields
  identical delivery records, controller state (request, tree and cookie
  ids included), flight records and byte-identical snapshots and trace
  exports (no hidden global state leaks between deployments);
* **cross-process** — two interpreters with *different*
  ``PYTHONHASHSEED`` values produce byte-identical output.  This is the
  regression test for the switch jitter RNG, which was once seeded with
  the salted ``hash(name)`` and silently diverged between runs.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import repro
from repro.cli import main as cli_main
from repro.core.events import Event
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree
from repro.obs.paths import analyze_flight, chrome_trace


def run_quickstart() -> Pleroma:
    """The README quickstart, plus in-band telemetry: one publisher, one
    subscriber, a burst of events through the paper's fat-tree."""
    rng = random.Random(7)
    middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=12)
    middleware.enable_telemetry(period_s=2e-3)
    publisher = middleware.publisher("h1")
    publisher.advertise(Filter.of())
    subscriber = middleware.subscriber("h8")
    subscriber.subscribe(Filter.of(attr0=(0, 511)))
    for i in range(25):
        middleware.sim.schedule(
            i * 1e-3,
            middleware.publish,
            "h1",
            Event.of(attr0=rng.uniform(0, 1023), attr1=rng.uniform(0, 1023)),
        )
    middleware.run()
    return middleware


class TestInProcessDeterminism:
    def test_quickstart_twice_identical(self):
        first = run_quickstart()
        second = run_quickstart()
        assert first.metrics.records == second.metrics.records
        assert first.metrics.published == second.metrics.published
        assert (
            first.obs.registry.snapshot() == second.obs.registry.snapshot()
        )
        # and the full snapshots serialise to identical bytes (spans and
        # trace summaries contain no wall-clock values)
        a = json.dumps(first.obs_snapshot(), sort_keys=True)
        b = json.dumps(second.obs_snapshot(), sort_keys=True)
        assert a == b

    def test_back_to_back_deployments_number_alike(self):
        first, first_recorder = run_traced()
        second, second_recorder = run_traced()
        assert controller_state(first) == controller_state(second)
        assert first_recorder.to_dicts() == second_recorder.to_dicts()
        assert trace_exports(first, first_recorder) == trace_exports(
            second, second_recorder
        )

    def test_cli_trace_twice_in_one_interpreter(self, tmp_path, capsys):
        def run(tag: str) -> tuple[bytes, bytes]:
            out = tmp_path / f"trace-{tag}.json"
            chrome = tmp_path / f"chrome-{tag}.json"
            cli_main([
                "trace", "--events", "20", "--seed", "11", "--fail-link",
                "--out", str(out), "--chrome-out", str(chrome),
            ])
            return out.read_bytes(), chrome.read_bytes()

        assert run("a") == run("b")
        capsys.readouterr()


def run_traced() -> tuple[Pleroma, object]:
    """Two publishers (so several trees), three subscribers, a flight
    recorder sampling every packet, and a link failure repaired midway."""
    rng = random.Random(3)
    middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=10)
    recorder = middleware.enable_flight_recorder(sample_every=1, seed=3)
    middleware.advertise("h1", Advertisement.of(attr0=(0, 511)))
    middleware.advertise("h3", Advertisement.of(attr0=(512, 1023)))
    for host, band in (("h4", (0, 600)), ("h6", (300, 1023)), ("h8", (0, 99))):
        middleware.subscribe(host, Subscription.of(attr0=band))
    middleware.sim.schedule(0.012, middleware.fail_link, "R3", "R7")
    for i in range(30):
        value = rng.uniform(0, 1023)
        middleware.sim.schedule(
            i * 1e-3,
            middleware.publish,
            "h1" if value < 512 else "h3",
            Event.of(attr0=value, attr1=rng.uniform(0, 1023)),
        )
    middleware.run()
    return middleware, recorder


def controller_state(middleware: Pleroma) -> dict:
    controller = middleware.controllers[0]
    return {
        "advertisements": sorted(controller.advertisements),
        "subscriptions": sorted(controller.subscriptions),
        "trees": sorted(
            (
                tree.tree_id,
                tree.root,
                str(tree.dz_set),
                sorted(tree.publishers),
                sorted(tree.subscribers),
            )
            for tree in controller.trees
        ),
        "ledger": controller.ledger.keys_for(),
        "tables": {
            name: sorted(
                (
                    entry.match.prefix_len,
                    entry.match.network,
                    entry.priority,
                    entry.cookie,
                    entry.sorted_actions(),
                )
                for entry in switch.table
            )
            for name, switch in sorted(middleware.network.switches.items())
        },
    }


def trace_exports(middleware: Pleroma, recorder) -> tuple[str, str]:
    report = analyze_flight(recorder, middleware.topology)
    document = {"report": report.to_dict(), "records": recorder.to_dicts()}
    return (
        json.dumps(document, sort_keys=True),
        json.dumps(chrome_trace(recorder), sort_keys=True),
    )


_SCRIPT = """
import json
import random

from repro.core.events import Event
from repro.core.subscription import Filter
from repro.middleware.pleroma import Pleroma
from repro.network.switch import Switch
from repro.network.topology import paper_fat_tree
from repro.sim.engine import Simulator

# raw jitter samples: the switch RNG seed must not depend on hash(name)
sim = Simulator()
for name in ("R1", "edge-3", "core/0"):
    rng = Switch(sim, name)._rng
    print(name, [rng.uniform(0.0, 1e-6) for _ in range(5)])

rng = random.Random(7)
middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=12)
middleware.enable_telemetry(period_s=2e-3)
middleware.publisher("h1").advertise(Filter.of())
middleware.subscriber("h8").subscribe(Filter.of(attr0=(0, 511)))
for i in range(20):
    middleware.sim.schedule(
        i * 1e-3,
        middleware.publish,
        "h1",
        Event.of(attr0=rng.uniform(0, 1023), attr1=rng.uniform(0, 1023)),
    )
middleware.run()
print(json.dumps(middleware.obs_snapshot(), sort_keys=True))
"""


class TestHashSeedInvariance:
    def test_different_hash_seeds_identical_output(self, tmp_path):
        script = tmp_path / "scenario.py"
        script.write_text(_SCRIPT, encoding="utf-8")
        src_dir = str(Path(repro.__file__).resolve().parents[1])

        def run(seed: str) -> bytes:
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = src_dir
            result = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr.decode()
            return result.stdout

        assert run("0") == run("424242")


class TestFlightTraceDeterminism:
    """Same-seed ``trace`` runs in two interpreters with different hash
    salts export byte-identical documents."""

    def test_trace_exports_byte_identical(self, tmp_path):
        src_dir = str(Path(repro.__file__).resolve().parents[1])

        def run(tag: str, hash_seed: str) -> tuple[bytes, bytes]:
            out = tmp_path / f"trace-{tag}.json"
            chrome = tmp_path / f"chrome-{tag}.json"
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = src_dir
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro", "trace",
                    "--events", "20", "--seed", "11", "--fail-link",
                    "--out", str(out), "--chrome-out", str(chrome),
                ],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr.decode()
            return out.read_bytes(), chrome.read_bytes()

        assert run("a", "0") == run("b", "31337")


_FLOW_MOD_SCRIPT = """
import random

from repro.core.subscription import Advertisement, Subscription
from repro.middleware.pleroma import Pleroma
from repro.network.topology import paper_fat_tree

middleware = Pleroma(paper_fat_tree(), dimensions=2, max_dz_length=12)
applier = middleware.controllers[0]._applier
install, remove = applier.install, applier.remove


def logged_install(switch, entry):
    print(switch, "install", entry.match, entry.cookie)
    install(switch, entry)


def logged_remove(switch, match):
    print(switch, "remove", match)
    remove(switch, match)


applier.install, applier.remove = logged_install, logged_remove

rng = random.Random(3)
hosts = middleware.topology.hosts()
middleware.advertise(hosts[0], Advertisement.of())
live = []
for i in range(60):
    bounds = {}
    for attr in ("attr0", "attr1"):
        low = rng.randrange(0, 1024)
        bounds[attr] = (low, min(1023, low + rng.randrange(16, 512)))
    host = hosts[1 + i % (len(hosts) - 1)]
    live.append((host, middleware.subscribe(host, Subscription.of(**bounds)).sub_id))
    if i % 3 == 2:
        middleware.unsubscribe(*live.pop(0))
"""


class TestFlowModOrder:
    """The flow-mods a request issues, and the cookie each installed entry
    gets, do not depend on the interpreter's hash salt: the controller
    patches each switch's changed dz in bits order."""

    def test_flow_mod_sequence_identical_across_hash_seeds(self, tmp_path):
        script = tmp_path / "flow_mods.py"
        script.write_text(_FLOW_MOD_SCRIPT, encoding="utf-8")
        src_dir = str(Path(repro.__file__).resolve().parents[1])

        def run(seed: str) -> list[str]:
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = src_dir
            result = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr.decode()
            return result.stdout.decode().splitlines()

        first = run("0")
        assert len(first) > 1000  # the scenario really churns the tables
        assert first == run("31337")
