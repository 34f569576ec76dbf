"""Table appliers: how the controller's decisions reach the switches.

The control algorithms compute flow changes; an *applier* carries them out.
Two implementations:

* :class:`DirectApplier` — reads and writes the physical tables
  synchronously.  The default: fastest, and sufficient whenever the
  experiment models control latency analytically (flow-mod count x RTT).
* :class:`ChannelApplier` — SDN-realistic.  The controller keeps a *shadow
  table* per switch (its authoritative view, diffs are computed against
  it) and ships every change as an OpenFlow ``FlowMod`` over the
  :class:`~repro.network.control_channel.ControlChannel`; the physical
  TCAM converges after the channel latency.  Events published before
  convergence can race the installation — exactly the transient a real
  deployment exhibits.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.addressing import MulticastPrefix
from repro.network.control_channel import ControlChannel
from repro.network.fabric import Network
from repro.network.flow import FlowEntry, FlowTable
from repro.network.openflow import FlowMod, FlowModCommand

__all__ = ["TableApplier", "DirectApplier", "ChannelApplier"]


class TableApplier(Protocol):
    """The controller's read/write interface to switch flow state."""

    def table(self, switch: str) -> FlowTable:
        """The controller's authoritative view of a switch's table."""

    def install(self, switch: str, entry: FlowEntry) -> None:
        """Add or replace one flow entry."""

    def remove(self, switch: str, match: MulticastPrefix) -> None:
        """Delete one flow entry."""


class DirectApplier:
    """Synchronous applier: the physical table *is* the view."""

    def __init__(self, network: Network) -> None:
        self._network = network

    def table(self, switch: str) -> FlowTable:
        return self._network.switches[switch].table

    def install(self, switch: str, entry: FlowEntry) -> None:
        self.table(switch).install(entry)

    def remove(self, switch: str, match: MulticastPrefix) -> None:
        self.table(switch).remove(match)


class _MirroringTable(FlowTable):
    """A shadow table that emits a FlowMod for every mutation.

    The incremental installer (Algorithm 1's cases) mutates a table
    in-place; giving it this subclass routes those mutations through the
    channel transparently.
    """

    def __init__(
        self, capacity: int, channel: ControlChannel, switch_name: str
    ) -> None:
        super().__init__(capacity=capacity)
        self._channel = channel
        self._switch_name = switch_name

    def _send(
        self,
        command: FlowModCommand,
        entry: FlowEntry | None = None,
        match: MulticastPrefix | None = None,
    ) -> None:
        xid = self._channel.sim.ids.next("xid")
        self._channel.send(
            self._switch_name, FlowMod(command, entry, match, xid=xid)
        )

    def install(self, entry: FlowEntry) -> None:
        replacing = self.get(entry.match) is not None
        super().install(entry)
        self._send(
            FlowModCommand.MODIFY if replacing else FlowModCommand.ADD, entry
        )

    def remove(self, match: MulticastPrefix) -> FlowEntry:
        entry = super().remove(match)
        self._send(FlowModCommand.DELETE, match=match)
        return entry


class ChannelApplier:
    """Shadow-table applier shipping FlowMods over a control channel."""

    def __init__(self, network: Network, channel: ControlChannel) -> None:
        self._network = network
        self._channel = channel
        self._shadows: dict[str, _MirroringTable] = {}

    def table(self, switch: str) -> FlowTable:
        shadow = self._shadows.get(switch)
        if shadow is None:
            capacity = self._network.switches[switch].table.capacity
            shadow = _MirroringTable(capacity, self._channel, switch)
            self._shadows[switch] = shadow
        return shadow

    def install(self, switch: str, entry: FlowEntry) -> None:
        self.table(switch).install(entry)

    def remove(self, switch: str, match: MulticastPrefix) -> None:
        self.table(switch).remove(match)
