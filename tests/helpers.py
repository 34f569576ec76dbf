"""Shared helpers for controller/middleware/integration tests."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.controller.controller import PleromaController
from repro.controller.dztrie import DzTrie
from repro.core.addressing import dz_to_address
from repro.core.dz import Dz
from repro.core.events import Event, EventSpace
from repro.core.spatial_index import SpatialIndexer
from repro.network.fabric import Network, NetworkParams
from repro.network.flow import Action
from repro.network.packet import EventPayload, Packet, event_packet_size
from repro.network.topology import Topology
from repro.sim.engine import Simulator


@dataclass
class System:
    """A wired-up simulation: network, controller, indexer, delivery log."""

    sim: Simulator
    net: Network
    controller: PleromaController
    indexer: SpatialIndexer
    deliveries: dict[str, list[EventPayload]] = field(default_factory=dict)

    def watch_host(self, host_name: str) -> None:
        """Record every event delivered to a host."""
        log: list[EventPayload] = []
        self.deliveries[host_name] = log
        self.net.hosts[host_name].set_delivery_callback(
            lambda payload, packet, now: log.append(payload)
        )

    def publish(self, host_name: str, event: Event) -> None:
        """Send one event from a host, stamped with its maximal dz."""
        dz = self.indexer.event_to_dz(event)
        payload = EventPayload(event, dz, host_name, self.sim.now)
        self.net.hosts[host_name].send(
            Packet(
                dst_address=dz_to_address(dz),
                payload=payload,
                size_bytes=event_packet_size(dz),
            )
        )

    def run(self) -> None:
        self.sim.run()

    def delivered_events(self, host_name: str) -> list[Event]:
        return [p.event for p in self.deliveries.get(host_name, [])]


@dataclass
class FederatedSystem:
    """A multi-partition simulation with one controller per partition."""

    sim: Simulator
    net: Network
    federation: "Federation"
    indexer: SpatialIndexer
    deliveries: dict[str, list[EventPayload]] = field(default_factory=dict)

    @property
    def controllers(self):
        return self.federation.controllers

    def watch_host(self, host_name: str) -> None:
        log: list[EventPayload] = []
        self.deliveries[host_name] = log
        self.net.hosts[host_name].set_delivery_callback(
            lambda payload, packet, now: log.append(payload)
        )

    def publish(self, host_name: str, event: Event) -> None:
        dz = self.indexer.event_to_dz(event)
        payload = EventPayload(event, dz, host_name, self.sim.now)
        self.net.hosts[host_name].send(
            Packet(
                dst_address=dz_to_address(dz),
                payload=payload,
                size_bytes=event_packet_size(dz),
            )
        )

    def run(self) -> None:
        self.sim.run()

    def delivered_events(self, host_name: str) -> list[Event]:
        return [p.event for p in self.deliveries.get(host_name, [])]


def make_federated_system(
    topology: Topology,
    partitions: int,
    dimensions: int = 1,
    max_dz_length: int = 10,
    covering_enabled: bool = True,
    params: NetworkParams | None = None,
    **controller_kwargs,
) -> FederatedSystem:
    """Build a network cut into ``partitions`` partitions, one controller
    each, glued by a :class:`Federation`."""
    from repro.interop.federation import Federation
    from repro.network.topology import partition_switches

    sim = Simulator()
    net = Network(sim, topology, params=params)
    space = EventSpace.paper_schema(dimensions)
    indexer = SpatialIndexer(space, max_dz_length=max_dz_length)
    controllers = [
        PleromaController(
            net, indexer, partition=chunk, name=f"c{i + 1}", **controller_kwargs
        )
        for i, chunk in enumerate(partition_switches(topology, partitions))
    ]
    federation = Federation(net, controllers, covering_enabled=covering_enabled)
    system = FederatedSystem(
        sim=sim, net=net, federation=federation, indexer=indexer
    )
    for host in topology.hosts():
        system.watch_host(host)
    return system


def make_system(
    topology: Topology,
    dimensions: int = 1,
    max_dz_length: int = 10,
    params: NetworkParams | None = None,
    **controller_kwargs,
) -> System:
    """Build a simulator + network + single controller over ``topology``."""
    sim = Simulator()
    net = Network(sim, topology, params=params)
    space = EventSpace.paper_schema(dimensions)
    indexer = SpatialIndexer(space, max_dz_length=max_dz_length)
    controller = PleromaController(net, indexer, **controller_kwargs)
    system = System(sim=sim, net=net, controller=controller, indexer=indexer)
    for host in topology.hosts():
        system.watch_host(host)
    return system


# ----------------------------------------------------------------------
# dz-trie queries the controller no longer needs: the per-dz walks its
# table patching used before the carry-down closure walk, kept to pin that
# walk and to test the trie's bookkeeping.
# ----------------------------------------------------------------------
def trie_node(trie: DzTrie, bits: str):
    """The trie node at ``bits``, or None if the trie has no such node."""
    node = trie._root
    for bit in bits:
        node = node.children.get(bit)
        if node is None:
            return None
    return node


def trie_actions_at(trie: DzTrie, dz: Dz) -> frozenset[Action]:
    """The actions contributed at exactly ``dz``."""
    node = trie_node(trie, dz.bits)
    return frozenset(node.counts or ()) if node is not None else frozenset()


def trie_cumulative(trie: DzTrie, dz: Dz) -> frozenset[Action]:
    """Union of actions contributed at ``dz`` or any coarser dz."""
    actions: set[Action] = set(trie._root.counts or ())
    node = trie._root
    for bit in dz.bits:
        node = node.children.get(bit)
        if node is None:
            break
        actions |= (node.counts or {}).keys()
    return frozenset(actions)


def trie_descendants(trie: DzTrie, dz: Dz) -> Iterator[Dz]:
    """All strictly finer dz holding contributions."""
    start = trie_node(trie, dz.bits)
    if start is None:
        return
    stack = [(dz.bits + bit, child) for bit, child in start.children.items()]
    while stack:
        bits, node = stack.pop()
        if node.counts:
            yield Dz(bits)
        stack.extend(
            (bits + bit, child) for bit, child in node.children.items()
        )


def table_contents(network: Network) -> dict[str, dict]:
    """Every switch's flow table as ``match -> (priority, actions)``:
    what forwarding reads, without the cookies."""
    return {
        name: {
            entry.match: (entry.priority, entry.actions)
            for entry in switch.table
        }
        for name, switch in network.switches.items()
    }


def table_difference(before: dict[str, dict], after: dict[str, dict]) -> int:
    """Flow-mods needed to take the ``before`` tables to ``after``: one
    per entry added, removed or changed."""
    mods = 0
    for name in before.keys() | after.keys():
        old, new = before.get(name, {}), after.get(name, {})
        mods += sum(
            old.get(match) != new.get(match) for match in old.keys() | new.keys()
        )
    return mods
