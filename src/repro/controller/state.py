"""Controller-side state: endpoints and the flow-contribution ledger.

**Endpoints** unify the two kinds of producers/consumers a controller sees:
real end hosts attached to a switch port, and *virtual hosts* — border
switch ports standing in for everything reachable in a neighbouring
partition (Sec. 4.2: "the external request is perceived by a controller as
arriving from the virtual host connected to its border switch").  A real
endpoint has a host address, so terminal flows rewrite the destination; a
virtual endpoint has none — packets leave through the border port still
carrying their dz multicast address, to be matched by the next partition.

**The ledger** records, per switch, which ``(dz, action)`` pairs are needed
and *why* (which publisher/subscriber/tree path contributed them).  It is
the bookkeeping that makes the paper's unsubscription behaviour (Sec. 3.3.3
— "flows are either deleted or downgraded depending upon other subscribers
reachable via a particular switch") a pure function of recorded state: drop
the departing path's contributions and recompute each affected switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Collection, Iterable, Mapping, Sequence
from typing import NamedTuple

from repro.controller.dztrie import DzTrie
from repro.core.dz import Dz
from repro.exceptions import ControllerError
from repro.network.flow import Action

__all__ = ["Endpoint", "PathKey", "FlowLedger"]


@dataclass(frozen=True)
class Endpoint:
    """A producer/consumer attachment point as the controller sees it.

    ``address`` is the host's unicast address for real hosts and ``None``
    for virtual hosts (border gateways).
    """

    name: str
    switch: str
    port: int
    address: int | None = None

    @property
    def is_virtual(self) -> bool:
        return self.address is None

    def terminal_action(self) -> Action:
        """The action installed on this endpoint's attachment switch."""
        return Action(self.port, set_dest=self.address)


class PathKey(NamedTuple):
    """Identity of one installed path: (tree, publisher, subscriber, dz).

    A named tuple, so the ledger's dict probes hash and compare it in C.
    """

    tree_id: int
    adv_id: int
    sub_id: int
    dz: Dz


class FlowLedger:
    """Per-switch multiset of flow contributions with provenance.

    A *contribution* is a ``(dz, action)`` pair a path needs on a switch.
    The desired flow table of a switch is a pure function of its
    contributions (see :mod:`repro.controller.reconciler`).

    Every mutator bumps :meth:`version` of each switch it touches, so a
    reader can tell whether a switch's contributions may have moved
    since it last looked (the warm verifier does).
    """

    def __init__(self) -> None:
        # switch -> dz-trie of reference-counted (dz, action) contributions
        self._tries: dict[str, DzTrie] = {}
        # switch -> mutations that touched it
        self._versions: dict[str, int] = {}
        # reverse index: key -> list of (switch, dz, action)
        self._by_key: dict[PathKey, list[tuple[str, Dz, Action]]] = {}
        # identity indexes: component value -> its keys, as insertion-ordered
        # dicts used as sets.  A key enters and leaves them together with
        # _by_key, so each lists its keys in _by_key order.
        self._by_tree: dict[int, dict[PathKey, None]] = {}
        self._by_adv: dict[int, dict[PathKey, None]] = {}
        self._by_sub: dict[int, dict[PathKey, None]] = {}

    # ------------------------------------------------------------------
    def add(self, switch: str, dz: Dz, action: Action, key: PathKey) -> bool:
        """Record that ``key``'s path needs ``(dz, action)`` on ``switch``.

        Returns True if the pair is new on that switch (the flow table may
        need an update); False if some other path already holds it.
        """
        trie = self._tries.get(switch)
        if trie is None:
            trie = self._tries[switch] = DzTrie()
        changed = trie.add(dz, action)
        self._entries(key).append((switch, dz, action))
        self._versions[switch] = self._versions.get(switch, 0) + 1
        return changed

    def add_route(
        self, key: PathKey, hops: Sequence[tuple[str, Action]]
    ) -> list[str]:
        """Record that ``key``'s path needs ``(key.dz, action)`` on each
        hop's switch: :meth:`add` for a whole route, with ``key`` looked
        up once.  Returns the switches on which the pair is new, in route
        order.
        """
        entries = self._entries(key)
        tries = self._tries
        versions = self._versions
        dz = key.dz
        new_on: list[str] = []
        for switch, action in hops:
            trie = tries.get(switch)
            if trie is None:
                trie = tries[switch] = DzTrie()
            if trie.add(dz, action):
                new_on.append(switch)
            entries.append((switch, dz, action))
            versions[switch] = versions.get(switch, 0) + 1
        return new_on

    def _entries(self, key: PathKey) -> list[tuple[str, Dz, Action]]:
        """``key``'s contribution list, registering a new key in the
        identity indexes."""
        entries = self._by_key.get(key)
        if entries is None:
            entries = self._by_key[key] = []
            for index, value in self._identity(key):
                index.setdefault(value, {})[key] = None
        return entries

    def remove_key(self, key: PathKey) -> dict[str, set[Dz]]:
        """Drop every contribution of one path.

        Returns, per switch, the dz whose aggregated action set changed
        (pairs that disappeared because their last holder left).
        """
        entries = self._by_key.pop(key, [])
        if entries:
            for index, value in self._identity(key):
                keys = index[value]
                del keys[key]
                if not keys:
                    del index[value]
        changed: dict[str, set[Dz]] = {}
        versions = self._versions
        for switch, dz, action in entries:
            trie = self._tries.get(switch)
            if trie is not None and trie.remove(dz, action):
                changed.setdefault(switch, set()).add(dz)
            versions[switch] = versions.get(switch, 0) + 1
        return changed

    def _identity(
        self, key: PathKey
    ) -> tuple[tuple[dict[int, dict[PathKey, None]], int], ...]:
        """Each identity index paired with ``key``'s value in it."""
        return (
            (self._by_tree, key.tree_id),
            (self._by_adv, key.adv_id),
            (self._by_sub, key.sub_id),
        )

    def remove_keys_where(
        self,
        tree_id: int | None = None,
        adv_id: int | None = None,
        sub_id: int | None = None,
    ) -> dict[str, set[Dz]]:
        """Drop all paths matching the given identity components."""
        if tree_id is None and adv_id is None and sub_id is None:
            raise ControllerError("refusing to drop the entire ledger")
        changed: dict[str, set[Dz]] = {}
        for key in self.keys_for(tree_id, adv_id, sub_id):
            for switch, dzs in self.remove_key(key).items():
                changed.setdefault(switch, set()).update(dzs)
        return changed

    def prune(self) -> None:
        """Drop the trie nodes that removals left without contributions
        (:meth:`DzTrie.prune` on every switch).  Moves no version: no
        contribution changes."""
        for trie in self._tries.values():
            trie.prune()

    # ------------------------------------------------------------------
    def version(self, switch: str) -> int:
        """How many mutations have touched ``switch`` (0 if none)."""
        return self._versions.get(switch, 0)

    def trie(self, switch: str) -> DzTrie:
        """The switch's contribution trie (empty if nothing installed)."""
        trie = self._tries.get(switch)
        if trie is None:
            trie = self._tries[switch] = DzTrie()
        return trie

    def contributions(self, switch: str) -> Mapping[Dz, frozenset[Action]]:
        """Aggregated contributions of one switch: dz -> action set."""
        trie = self._tries.get(switch)
        return trie.contributions() if trie is not None else {}

    def switches(self) -> Iterable[str]:
        return [name for name, trie in self._tries.items() if len(trie)]

    def keys_for(
        self,
        tree_id: int | None = None,
        adv_id: int | None = None,
        sub_id: int | None = None,
    ) -> list[PathKey]:
        """The keys matching the given identity components, in the order
        they entered the ledger (every key when none is given)."""
        candidates: Collection[PathKey] = self._by_key
        for index, value in (
            (self._by_tree, tree_id),
            (self._by_adv, adv_id),
            (self._by_sub, sub_id),
        ):
            if value is not None:
                keys = index.get(value, {})
                if len(keys) < len(candidates):
                    candidates = keys
        return [
            key
            for key in candidates
            if (tree_id is None or key.tree_id == tree_id)
            and (adv_id is None or key.adv_id == adv_id)
            and (sub_id is None or key.sub_id == sub_id)
        ]

    def routes(self, tree_id: int) -> dict[PathKey, list[tuple[str, Action]]]:
        """Each path of tree ``tree_id`` with its ``(switch, action)``
        hops, in the order the keys entered the ledger."""
        by_key = self._by_key
        return {
            key: [(switch, action) for switch, _dz, action in by_key[key]]
            for key in self._by_tree.get(tree_id, ())
        }

    def has_path(self, key: PathKey) -> bool:
        return key in self._by_key

    def __len__(self) -> int:
        return len(self._by_key)
