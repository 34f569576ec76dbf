"""Topology descriptions and builders.

A :class:`Topology` is the static graph the simulator instantiates and the
controller plans over (the paper's controller "knows the entire network
topology of a partition", Sec. 2).  Builders cover the evaluation setups:

* :func:`paper_fat_tree` — the SDN testbed of Fig. 6: ten software switches
  R1–R10 in a hierarchical fat-tree with eight end hosts h1–h8;
* :func:`mininet_fat_tree` — the 20-switch fat-tree used in Mininet;
* :func:`ring` — the 20-switch ring, one end host per switch;
* :func:`line` and :func:`star` — small shapes for unit tests.

Partitioning for the multi-controller experiments (Sec. 4, Fig. 7g/h) is
done by :func:`partition_switches`, which cuts the switch graph into the
requested number of connected chunks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

import networkx as nx

from repro.exceptions import TopologyError

__all__ = [
    "Topology",
    "LinkSpec",
    "paper_fat_tree",
    "mininet_fat_tree",
    "ring",
    "line",
    "star",
    "partition_switches",
]


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one link of the topology."""

    a: str
    b: str
    delay_s: float | None = None
    bandwidth_bps: float | None = None


@dataclass
class Topology:
    """A named graph of switches and hosts.

    Hosts have degree exactly one (their access switch).  The underlying
    ``networkx`` graph is exposed read-only for path computations.
    """

    name: str = "topology"
    _graph: nx.Graph = field(default_factory=nx.Graph)
    _links: dict[frozenset[str], LinkSpec] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_switch(self, name: str) -> None:
        if name in self._graph:
            raise TopologyError(f"duplicate node name {name!r}")
        self._graph.add_node(name, kind="switch")

    def add_host(self, name: str, switch: str, **link_kwargs: float) -> None:
        """Add an end host attached to ``switch``."""
        if name in self._graph:
            raise TopologyError(f"duplicate node name {name!r}")
        if not self.is_switch(switch):
            raise TopologyError(f"{switch!r} is not a switch")
        self._graph.add_node(name, kind="host")
        self.add_link(name, switch, **link_kwargs)

    def add_link(
        self,
        a: str,
        b: str,
        delay_s: float | None = None,
        bandwidth_bps: float | None = None,
    ) -> None:
        for node in (a, b):
            if node not in self._graph:
                raise TopologyError(f"unknown node {node!r}")
        key = frozenset((a, b))
        if key in self._links:
            raise TopologyError(f"duplicate link {a!r} <-> {b!r}")
        if self.is_host(a) and self._graph.degree(a) >= 1:
            raise TopologyError(f"host {a!r} already attached")
        if self.is_host(b) and self._graph.degree(b) >= 1:
            raise TopologyError(f"host {b!r} already attached")
        self._graph.add_edge(a, b)
        self._links[key] = LinkSpec(a, b, delay_s, bandwidth_bps)

    def remove_link(self, a: str, b: str) -> LinkSpec:
        """Remove a switch-to-switch link (planning view of a failure) and
        return its spec, for :meth:`restore_link`.

        Host attachment links cannot be removed — a host losing its access
        switch is handled as a client departure, not a routing change.
        """
        key = frozenset((a, b))
        if key not in self._links:
            raise TopologyError(f"no link {a!r} <-> {b!r}")
        if self.is_host(a) or self.is_host(b):
            raise TopologyError("host attachment links cannot be removed")
        self._graph.remove_edge(a, b)
        return self._links.pop(key)

    def restore_link(self, spec: LinkSpec) -> None:
        """Add a removed link back with its original delay and bandwidth."""
        self.add_link(
            spec.a,
            spec.b,
            delay_s=spec.delay_s,
            bandwidth_bps=spec.bandwidth_bps,
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        return self._graph

    def is_switch(self, name: str) -> bool:
        return (
            name in self._graph
            and self._graph.nodes[name].get("kind") == "switch"
        )

    def is_host(self, name: str) -> bool:
        return (
            name in self._graph
            and self._graph.nodes[name].get("kind") == "host"
        )

    def switches(self) -> list[str]:
        return sorted(
            n for n, d in self._graph.nodes(data=True) if d["kind"] == "switch"
        )

    def hosts(self) -> list[str]:
        return sorted(
            n for n, d in self._graph.nodes(data=True) if d["kind"] == "host"
        )

    def links(self) -> Iterator[LinkSpec]:
        return iter(self._links.values())

    def link_between(self, a: str, b: str) -> LinkSpec:
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise TopologyError(f"no link {a!r} <-> {b!r}") from None

    def neighbors(self, name: str) -> list[str]:
        if name not in self._graph:
            raise TopologyError(f"unknown node {name!r}")
        return sorted(self._graph.neighbors(name))

    def access_switch(self, host: str) -> str:
        """The switch an end host hangs off."""
        if not self.is_host(host):
            raise TopologyError(f"{host!r} is not a host")
        return next(iter(self._graph.neighbors(host)))

    def hosts_of(self, switch: str) -> list[str]:
        """End hosts directly attached to a switch."""
        if not self.is_switch(switch):
            raise TopologyError(f"{switch!r} is not a switch")
        return sorted(
            n for n in self._graph.neighbors(switch) if self.is_host(n)
        )

    # ------------------------------------------------------------------
    # path computations (the controller's "simple graph problem", Sec. 3.2)
    # ------------------------------------------------------------------
    def switch_graph(self, switches: Iterable[str] | None = None) -> nx.Graph:
        """The switch-only subgraph (optionally restricted to a subset)."""
        nodes = set(switches) if switches is not None else set(self.switches())
        unknown = nodes - set(self.switches())
        if unknown:
            raise TopologyError(f"not switches: {sorted(unknown)}")
        return self._graph.subgraph(nodes).copy()

    def shortest_path(self, a: str, b: str) -> list[str]:
        try:
            return nx.shortest_path(self._graph, a, b)
        except nx.NetworkXNoPath:
            raise TopologyError(f"no path between {a!r} and {b!r}") from None

    def shortest_path_tree(
        self, root: str, switches: Iterable[str] | None = None
    ) -> dict[str, str]:
        """Shortest-path tree over the switch graph rooted at ``root``.

        Returns a parent map ``{switch: parent_switch}`` (root excluded).
        This is Algorithm 1's ``createTree`` graph computation.

        Shortest-path trees are not unique in multipath fabrics; ties are
        broken by a deterministic hash of ``(root, node, parent)``, so trees
        rooted at different switches spread over different equal-cost links.
        That spreading is the load-balancing benefit of PLEROMA's
        per-publisher trees (Sec. 3.1): a fat-tree core is shared instead of
        funnelling every tree through the same core switch.
        """
        sg = self.switch_graph(switches)
        if root not in sg:
            raise TopologyError(f"root {root!r} not in switch set")
        dist = nx.single_source_shortest_path_length(sg, root)
        parents: dict[str, str] = {}
        for node, d in dist.items():
            if node == root:
                continue
            candidates = [
                nb for nb in sg.neighbors(node) if dist.get(nb) == d - 1
            ]
            parents[node] = min(
                candidates, key=lambda nb: _spt_tie_break(root, node, nb)
            )
        return parents

    def diameter_path(self) -> tuple[str, str]:
        """A (host, host) pair realising the longest shortest path.

        Used by the Fig. 7(a) experiment, which places the publisher and
        subscriber "connected via the longest path in the topology".
        """
        hosts = self.hosts()
        if len(hosts) < 2:
            raise TopologyError("need at least two hosts")
        best = (hosts[0], hosts[1])
        best_len = -1
        lengths = dict(nx.all_pairs_shortest_path_length(self._graph))
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                dist = lengths[a].get(b)
                if dist is not None and dist > best_len:
                    best, best_len = (a, b), dist
        return best


def _spt_tie_break(root: str, node: str, parent: str) -> str:
    """Deterministic, root-dependent ordering of equal-cost parents."""
    return hashlib.md5(f"{root}|{node}|{parent}".encode()).hexdigest()


# ----------------------------------------------------------------------
# builders
# ----------------------------------------------------------------------
def paper_fat_tree() -> Topology:
    """The Fig. 6 testbed: 10 switches, 8 end hosts, hierarchical fat-tree.

    Two core switches (R1, R2), four aggregation switches (R3–R6) each
    connected to both cores, and four edge switches (R7–R10) each connected
    to the two aggregation switches of its pod.  Two end hosts per edge
    switch (h1–h8).
    """
    topo = Topology(name="paper-fat-tree")
    for i in range(1, 11):
        topo.add_switch(f"R{i}")
    for agg in ("R3", "R4", "R5", "R6"):
        topo.add_link("R1", agg)
        topo.add_link("R2", agg)
    pods = {("R3", "R4"): ("R7", "R8"), ("R5", "R6"): ("R9", "R10")}
    for (agg_a, agg_b), edges in pods.items():
        for edge in edges:
            topo.add_link(agg_a, edge)
            topo.add_link(agg_b, edge)
    host_id = 1
    for edge in ("R7", "R8", "R9", "R10"):
        for _ in range(2):
            topo.add_host(f"h{host_id}", edge)
            host_id += 1
    return topo


def mininet_fat_tree(hosts_per_edge: int = 2) -> Topology:
    """The 20-switch fat-tree used for the Mininet experiments.

    A k=4-style tree: 4 core switches, 8 aggregation, 8 edge, organised in
    four pods of (2 aggregation, 2 edge) switches each.
    """
    topo = Topology(name="mininet-fat-tree")
    cores = [f"C{i}" for i in range(1, 5)]
    for c in cores:
        topo.add_switch(c)
    host_id = 1
    for pod in range(4):
        aggs = [f"A{pod * 2 + i}" for i in (1, 2)]
        edges = [f"E{pod * 2 + i}" for i in (1, 2)]
        for a in aggs:
            topo.add_switch(a)
        for e in edges:
            topo.add_switch(e)
        # each aggregation switch uplinks to two cores (planes)
        topo.add_link(aggs[0], cores[0])
        topo.add_link(aggs[0], cores[1])
        topo.add_link(aggs[1], cores[2])
        topo.add_link(aggs[1], cores[3])
        for e in edges:
            for a in aggs:
                topo.add_link(e, a)
            for _ in range(hosts_per_edge):
                topo.add_host(f"h{host_id}", e)
                host_id += 1
    return topo


def ring(num_switches: int = 20, hosts_per_switch: int = 1) -> Topology:
    """The Mininet ring: ``num_switches`` switches in a cycle, each with
    ``hosts_per_switch`` end hosts."""
    if num_switches < 3:
        raise TopologyError("a ring needs at least 3 switches")
    topo = Topology(name=f"ring-{num_switches}")
    names = [f"R{i}" for i in range(1, num_switches + 1)]
    for n in names:
        topo.add_switch(n)
    for i, n in enumerate(names):
        topo.add_link(n, names[(i + 1) % num_switches])
    host_id = 1
    for n in names:
        for _ in range(hosts_per_switch):
            topo.add_host(f"h{host_id}", n)
            host_id += 1
    return topo


def line(num_switches: int, hosts_per_switch: int = 1) -> Topology:
    """A path of switches — the simplest shape for unit tests."""
    if num_switches < 1:
        raise TopologyError("need at least one switch")
    topo = Topology(name=f"line-{num_switches}")
    names = [f"R{i}" for i in range(1, num_switches + 1)]
    for n in names:
        topo.add_switch(n)
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b)
    host_id = 1
    for n in names:
        for _ in range(hosts_per_switch):
            topo.add_host(f"h{host_id}", n)
            host_id += 1
    return topo


def star(leaves: int = 4, hosts_per_leaf: int = 1) -> Topology:
    """One hub switch with ``leaves`` leaf switches."""
    if leaves < 1:
        raise TopologyError("need at least one leaf")
    topo = Topology(name=f"star-{leaves}")
    topo.add_switch("HUB")
    host_id = 1
    for i in range(1, leaves + 1):
        leaf = f"L{i}"
        topo.add_switch(leaf)
        topo.add_link("HUB", leaf)
        for _ in range(hosts_per_leaf):
            topo.add_host(f"h{host_id}", leaf)
            host_id += 1
    return topo


def partition_switches(topo: Topology, count: int) -> list[set[str]]:
    """Split the switch graph into ``count`` connected, balanced chunks.

    Used to create the 1..10-controller configurations of Sec. 6.6.  The
    algorithm peels breadth-first regions of roughly equal size off the
    switch graph; every chunk is connected, so each partition can be managed
    by one controller.
    """
    switches = topo.switches()
    if not 1 <= count <= len(switches):
        raise TopologyError(
            f"cannot cut {len(switches)} switches into {count} partitions"
        )
    sg = topo.switch_graph()
    if not nx.is_connected(sg):
        raise TopologyError("switch graph must be connected to partition")
    remaining = set(switches)
    partitions: list[set[str]] = []
    for index in range(count):
        quota = round(len(remaining) / (count - index))
        sub = sg.subgraph(remaining)
        # Prefer a low-degree seed so chunks peel off the rim, keeping the
        # remainder connected where possible.
        seed = min(remaining, key=lambda n: (sub.degree(n), n))
        chunk: set[str] = set()
        frontier = [seed]
        while frontier and len(chunk) < quota:
            node = frontier.pop(0)
            if node in chunk:
                continue
            chunk.add(node)
            for nb in sorted(sub.neighbors(node)):
                if nb not in chunk:
                    frontier.append(nb)
        # If BFS exhausted a component before quota, top up from remaining.
        shortfall = quota - len(chunk)
        if shortfall > 0:
            for node in sorted(remaining - chunk):
                chunk.add(node)
                shortfall -= 1
                if shortfall == 0:
                    break
        partitions.append(chunk)
        remaining -= chunk
    # ensure every chunk is internally connected; if the top-up broke one,
    # fall back to merging stragglers into an adjacent chunk.
    for i, chunk in enumerate(partitions):
        comp = list(nx.connected_components(sg.subgraph(chunk)))
        if len(comp) > 1:
            main = max(comp, key=len)
            for extra in comp:
                if extra is main:
                    continue
                for j, other in enumerate(partitions):
                    if j != i and any(
                        sg.has_edge(u, v) for u in extra for v in other
                    ):
                        partitions[j] = other | extra
                        partitions[i] = partitions[i] - extra
                        break
    return [p for p in partitions if p]
