"""Interoperability of independently controlled partitions (Sec. 4).

The :class:`Federation` wires several :class:`PleromaController` instances —
one per partition — into one publish/subscribe system while preserving
decentralised control: every controller only ever touches its own switches,
and only exchanges messages with *anonymous* neighbours through border
switch ports discovered via LLDP.

Protocol (Sec. 4.2):

* an **advertisement** processed by a controller is forwarded to all
  adjoining partitions (except the one it arrived from).  The receiving
  controller perceives it as coming from a *virtual host* attached to its
  border switch, processes it with the ordinary Algorithm 1 machinery
  (which also builds transit paths to virtual subscribers of other
  borders), and forwards it onward;
* a **subscription** follows the reverse path of overlapping
  advertisements: it is forwarded only through borders whose advertised
  region it overlaps;
* **covering-based forwarding**: a request is not forwarded through a
  border if previously forwarded requests already cover its region.  This
  is the mechanism behind the control-traffic savings of Fig. 7(g)/(h) and
  can be disabled (``covering_enabled=False``) for the ablation benchmark.

Deduplication by origin request id guards against cyclic partition graphs
(see :mod:`repro.interop.messages`).

**Covering relaxation** (our addition — the paper does not treat
withdrawals): per-border covering records must *shrink* when a request is
withdrawn, and any live request whose forwarding had been suppressed by
the departed one must be announced then.  Without this, a covered request
orphaned by its cover would be invisible to remote partitions — a
cross-partition false negative.  See :meth:`Federation._relax_adv_covering`
and the regression tests in ``tests/interop/test_federation.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.controller.controller import (
    AdvertisementState,
    PleromaController,
    SubscriptionState,
)
from repro.core.addressing import PUBSUB_CONTROL_ADDRESS
from repro.core.dzset import DzSet, EMPTY
from repro.exceptions import FederationError
from repro.interop.discovery import BorderPort, discover_borders
from repro.interop.messages import (
    ExternalAdvertisement,
    ExternalSubscription,
    ExternalUnadvertisement,
    ExternalUnsubscription,
    RequestId,
)
from repro.network.fabric import Network
from repro.network.packet import Packet
from repro.network.switch import Switch
from repro.obs.context import Observability

__all__ = ["Federation", "FederationStats"]

#: Size of an inter-controller control datagram (request header + DZ set).
_CONTROL_MESSAGE_BYTES = 96


@dataclass
class FederationStats:
    """Control-plane accounting for the Fig. 7(g)/(h) experiments."""

    internal_requests: Counter = field(default_factory=Counter)
    external_requests: Counter = field(default_factory=Counter)
    messages_sent: Counter = field(default_factory=Counter)

    def requests_received(self, controller: str) -> int:
        """Total load on one controller: internal + external requests."""
        return (
            self.internal_requests[controller]
            + self.external_requests[controller]
        )

    def average_overhead(self, controllers: Iterable[str]) -> float:
        names = list(controllers)
        return sum(self.requests_received(n) for n in names) / len(names)

    def total_control_traffic(self) -> int:
        """All control messages: host requests plus inter-controller ones."""
        return (
            sum(self.internal_requests.values())
            + sum(self.messages_sent.values())
        )


@dataclass
class _PartitionState:
    """Federation bookkeeping for one controller."""

    controller: PleromaController
    borders: list[BorderPort]
    ext_adv_region: dict[BorderPort, DzSet] = field(default_factory=dict)
    forwarded_advs: dict[BorderPort, DzSet] = field(default_factory=dict)
    forwarded_subs: dict[BorderPort, DzSet] = field(default_factory=dict)
    processed: set[RequestId] = field(default_factory=set)
    local_adv_for: dict[RequestId, int] = field(default_factory=dict)
    local_sub_for: dict[RequestId, int] = field(default_factory=dict)
    adv_forwarded_to: dict[RequestId, set[BorderPort]] = field(
        default_factory=dict
    )
    sub_forwarded_to: dict[RequestId, set[BorderPort]] = field(
        default_factory=dict
    )
    request_of_sub: dict[int, RequestId] = field(default_factory=dict)
    request_of_adv: dict[int, RequestId] = field(default_factory=dict)
    # live request registries: region and ingress border (None = internal).
    # Withdrawals recompute the covering records from these and re-announce
    # requests whose forwarding had been suppressed by the departed one.
    adv_dz: dict[RequestId, DzSet] = field(default_factory=dict)
    sub_dz: dict[RequestId, DzSet] = field(default_factory=dict)
    adv_ingress: dict[RequestId, BorderPort | None] = field(
        default_factory=dict
    )
    sub_ingress: dict[RequestId, BorderPort | None] = field(
        default_factory=dict
    )

    def virtual_name(self, border: BorderPort) -> str:
        return f"vh:{border.key}"


class Federation:
    """Glue running multiple controllers as one interoperable system."""

    def __init__(
        self,
        network: Network,
        controllers: Iterable[PleromaController],
        covering_enabled: bool = True,
        obs: Observability | None = None,
    ) -> None:
        self.network = network
        self.covering_enabled = covering_enabled
        # Federation counters mirror FederationStats into the registry and
        # its exchanges into the trace, alongside the device metrics.
        self.obs = (
            obs if obs is not None
            else Observability(network.sim, registry=network.registry)
        )
        self.controllers: dict[str, PleromaController] = {}
        owner_of: dict[str, str] = {}
        for controller in controllers:
            if controller.name in self.controllers:
                raise FederationError(
                    f"duplicate controller name {controller.name!r}"
                )
            if controller.control_channel is not None:
                raise FederationError(
                    f"controller {controller.name!r} uses an OpenFlow "
                    "control channel; federation rewires switch control "
                    "handlers directly and cannot coexist with it"
                )
            self.controllers[controller.name] = controller
            for switch in controller.partition:
                if switch in owner_of:
                    raise FederationError(
                        f"switch {switch!r} claimed by two controllers"
                    )
                owner_of[switch] = controller.name
        missing = set(network.switches) - set(owner_of)
        if missing:
            raise FederationError(f"uncontrolled switches: {sorted(missing)}")
        self.owner_of = owner_of
        self.stats = FederationStats()
        borders = discover_borders(network, owner_of)
        self._states: dict[str, _PartitionState] = {}
        for name, controller in self.controllers.items():
            state = _PartitionState(
                controller=controller, borders=borders.get(name, [])
            )
            for border in state.borders:
                state.ext_adv_region[border] = EMPTY
                state.forwarded_advs[border] = EMPTY
                state.forwarded_subs[border] = EMPTY
                controller.register_virtual_endpoint(
                    state.virtual_name(border), border.switch, border.port
                )
            self._states[name] = state
            controller.adv_listeners.append(
                lambda adv, s=state: self._on_internal_adv(s, adv)
            )
            controller.sub_listeners.append(
                lambda sub, s=state: self._on_internal_sub(s, sub)
            )
            for switch_name in controller.partition:
                network.switches[switch_name].set_control_handler(
                    lambda sw, pkt, port, s=state: self._handle_packet(
                        s, sw, pkt, port
                    )
                )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def controller_for_host(self, host: str) -> PleromaController:
        """The controller owning a host's access switch."""
        switch = self.network.topology.access_switch(host)
        return self.controllers[self.owner_of[switch]]

    def borders_of(self, controller_name: str) -> list[BorderPort]:
        return list(self._states[controller_name].borders)

    # ------------------------------------------------------------------
    # host-facing operations (routed to the local controller)
    # ------------------------------------------------------------------
    def advertise(self, host: str, *args, **kwargs) -> AdvertisementState:
        return self.controller_for_host(host).advertise(host, *args, **kwargs)

    def subscribe(self, host: str, *args, **kwargs) -> SubscriptionState:
        return self.controller_for_host(host).subscribe(host, *args, **kwargs)

    def unsubscribe(self, host: str, sub_id: int) -> None:
        controller = self.controller_for_host(host)
        state = self._states[controller.name]
        rid = state.request_of_sub.pop(sub_id, None)
        controller.unsubscribe(sub_id)
        if rid is not None:
            state.sub_dz.pop(rid, None)
            state.sub_ingress.pop(rid, None)
            for border in state.sub_forwarded_to.pop(rid, set()):
                self._send(state, border, ExternalUnsubscription(rid))
            self._relax_sub_covering(state)

    def unadvertise(self, host: str, adv_id: int) -> None:
        controller = self.controller_for_host(host)
        state = self._states[controller.name]
        rid = state.request_of_adv.pop(adv_id, None)
        controller.unadvertise(adv_id)
        if rid is not None:
            state.adv_dz.pop(rid, None)
            state.adv_ingress.pop(rid, None)
            for border in state.adv_forwarded_to.pop(rid, set()):
                self._send(state, border, ExternalUnadvertisement(rid))
            self._relax_adv_covering(state)

    # ------------------------------------------------------------------
    # packet handling
    # ------------------------------------------------------------------
    def _handle_packet(
        self, state: _PartitionState, switch: Switch, packet: Packet, in_port: int
    ) -> None:
        payload = packet.payload
        border = BorderPort(switch.name, in_port)
        if isinstance(payload, ExternalAdvertisement):
            name, handler = "external_adv", self._on_external_adv
        elif isinstance(payload, ExternalSubscription):
            name, handler = "external_sub", self._on_external_sub
        elif isinstance(payload, ExternalUnsubscription):
            name, handler = "external_unsub", self._on_external_unsub
        elif isinstance(payload, ExternalUnadvertisement):
            name, handler = "external_unadv", self._on_external_unadv
        else:
            # ordinary client request from a host of this partition
            state.controller.handle_control_packet(switch, packet, in_port)
            return
        with self.obs.tracer.span(
            "federation_exchange",
            name,
            controller=state.controller.name,
            border=border.key,
        ):
            handler(state, border, payload)

    # ------------------------------------------------------------------
    # internal requests: count and forward
    # ------------------------------------------------------------------
    def _on_internal_adv(
        self, state: _PartitionState, adv: AdvertisementState
    ) -> None:
        name = state.controller.name
        self._count_request(name, "internal")
        rid: RequestId = (name, adv.adv_id)
        state.processed.add(rid)
        state.request_of_adv[adv.adv_id] = rid
        state.adv_dz[rid] = adv.dz_set
        state.adv_ingress[rid] = None
        self._forward_adv(state, rid, adv.dz_set, exclude=None)

    def _on_internal_sub(
        self, state: _PartitionState, sub: SubscriptionState
    ) -> None:
        name = state.controller.name
        self._count_request(name, "internal")
        rid: RequestId = (name, sub.sub_id)
        state.processed.add(rid)
        state.request_of_sub[sub.sub_id] = rid
        state.sub_dz[rid] = sub.dz_set
        state.sub_ingress[rid] = None
        for border in state.borders:
            if state.ext_adv_region[border].overlaps(sub.dz_set):
                self._forward_sub(state, rid, sub.dz_set, border)

    # ------------------------------------------------------------------
    # external requests: process as virtual hosts, forward onward
    # ------------------------------------------------------------------
    def _on_external_adv(
        self,
        state: _PartitionState,
        border: BorderPort,
        msg: ExternalAdvertisement,
    ) -> None:
        controller = state.controller
        self._count_request(controller.name, "external")
        if msg.request_id in state.processed:
            return
        state.processed.add(msg.request_id)
        state.ext_adv_region[border] = state.ext_adv_region[border].union(
            msg.dz_set
        )
        local = controller.advertise(
            state.virtual_name(border), dz_set=msg.dz_set, _notify=False
        )
        state.local_adv_for[msg.request_id] = local.adv_id
        state.request_of_adv[local.adv_id] = msg.request_id
        state.adv_dz[msg.request_id] = msg.dz_set
        state.adv_ingress[msg.request_id] = border
        self._forward_adv(state, msg.request_id, msg.dz_set, exclude=border)
        # reverse-path subscriptions: everything this partition already
        # subscribes to (locally or on behalf of other borders) that the new
        # advertisement can serve must be announced back through `border`.
        own_virtual = state.virtual_name(border)
        for sub in list(controller.subscriptions.values()):
            if sub.endpoint.name == own_virtual:
                continue
            if not sub.dz_set.overlaps(msg.dz_set):
                continue
            rid = state.request_of_sub.get(sub.sub_id)
            if rid is None:
                continue
            self._forward_sub(state, rid, sub.dz_set, border)

    def _on_external_sub(
        self,
        state: _PartitionState,
        border: BorderPort,
        msg: ExternalSubscription,
    ) -> None:
        controller = state.controller
        self._count_request(controller.name, "external")
        if msg.request_id in state.processed:
            return
        state.processed.add(msg.request_id)
        local = controller.subscribe(
            state.virtual_name(border), dz_set=msg.dz_set, _notify=False
        )
        state.local_sub_for[msg.request_id] = local.sub_id
        state.request_of_sub[local.sub_id] = msg.request_id
        state.sub_dz[msg.request_id] = msg.dz_set
        state.sub_ingress[msg.request_id] = border
        for other in state.borders:
            if other == border:
                continue
            if state.ext_adv_region[other].overlaps(msg.dz_set):
                self._forward_sub(state, msg.request_id, msg.dz_set, other)

    def _on_external_unsub(
        self,
        state: _PartitionState,
        border: BorderPort,
        msg: ExternalUnsubscription,
    ) -> None:
        controller = state.controller
        self._count_request(controller.name, "external")
        local_id = state.local_sub_for.pop(msg.request_id, None)
        if local_id is None:
            return
        state.request_of_sub.pop(local_id, None)
        state.sub_dz.pop(msg.request_id, None)
        state.sub_ingress.pop(msg.request_id, None)
        controller.unsubscribe(local_id)
        for other in state.sub_forwarded_to.pop(msg.request_id, set()):
            self._send(state, other, msg)
        self._relax_sub_covering(state)

    def _on_external_unadv(
        self,
        state: _PartitionState,
        border: BorderPort,
        msg: ExternalUnadvertisement,
    ) -> None:
        controller = state.controller
        self._count_request(controller.name, "external")
        local_id = state.local_adv_for.pop(msg.request_id, None)
        if local_id is None:
            return
        state.request_of_adv.pop(local_id, None)
        state.adv_dz.pop(msg.request_id, None)
        ingress = state.adv_ingress.pop(msg.request_id, None)
        controller.unadvertise(local_id)
        for other in state.adv_forwarded_to.pop(msg.request_id, set()):
            self._send(state, other, msg)
        if ingress is not None:
            # shrink the record of what that neighbour advertises to us
            state.ext_adv_region[ingress] = self._region_from(
                state, ingress
            )
        self._relax_adv_covering(state)

    # ------------------------------------------------------------------
    # covering relaxation after withdrawals
    # ------------------------------------------------------------------
    @staticmethod
    def _region_from(state: _PartitionState, border: BorderPort) -> DzSet:
        """The region still advertised *to us* through one border."""
        region = EMPTY
        for rid, ingress in state.adv_ingress.items():
            if ingress == border and rid in state.adv_dz:
                region = region.union(state.adv_dz[rid])
        return region

    def _relax_adv_covering(self, state: _PartitionState) -> None:
        """After an advertisement withdrawal, shrink the per-border covering
        records to the surviving forwarded requests and announce any live
        advertisement whose forwarding the departed one had suppressed —
        without this, a covered-then-orphaned advertisement would be
        invisible to remote partitions (a cross-partition false negative).
        """
        for border in state.borders:
            surviving = EMPTY
            for rid, borders in state.adv_forwarded_to.items():
                if border in borders and rid in state.adv_dz:
                    surviving = surviving.union(state.adv_dz[rid])
            state.forwarded_advs[border] = surviving
            for rid in sorted(state.adv_dz):
                dz = state.adv_dz[rid]
                if state.adv_ingress.get(rid) == border:
                    continue
                if border in state.adv_forwarded_to.get(rid, set()):
                    continue
                if self.covering_enabled and state.forwarded_advs[
                    border
                ].covers(dz):
                    continue
                state.forwarded_advs[border] = state.forwarded_advs[
                    border
                ].union(dz)
                state.adv_forwarded_to.setdefault(rid, set()).add(border)
                self._send(state, border, ExternalAdvertisement(rid, dz))

    def _relax_sub_covering(self, state: _PartitionState) -> None:
        """Symmetric relaxation for subscriptions: a covered subscription
        must regain its reverse path when the covering one leaves."""
        for border in state.borders:
            surviving = EMPTY
            for rid, borders in state.sub_forwarded_to.items():
                if border in borders and rid in state.sub_dz:
                    surviving = surviving.union(state.sub_dz[rid])
            state.forwarded_subs[border] = surviving
            for rid in sorted(state.sub_dz):
                dz = state.sub_dz[rid]
                if state.sub_ingress.get(rid) == border:
                    continue
                if border in state.sub_forwarded_to.get(rid, set()):
                    continue
                if not state.ext_adv_region[border].overlaps(dz):
                    continue  # no reverse path through this border
                if self.covering_enabled and state.forwarded_subs[
                    border
                ].covers(dz):
                    continue
                state.forwarded_subs[border] = state.forwarded_subs[
                    border
                ].union(dz)
                state.sub_forwarded_to.setdefault(rid, set()).add(border)
                self._send(state, border, ExternalSubscription(rid, dz))

    # ------------------------------------------------------------------
    # forwarding with covering suppression
    # ------------------------------------------------------------------
    def _forward_adv(
        self,
        state: _PartitionState,
        rid: RequestId,
        dz_set: DzSet,
        exclude: BorderPort | None,
    ) -> None:
        for border in state.borders:
            if border == exclude:
                continue
            if self.covering_enabled and state.forwarded_advs[border].covers(
                dz_set
            ):
                continue
            state.forwarded_advs[border] = state.forwarded_advs[border].union(
                dz_set
            )
            state.adv_forwarded_to.setdefault(rid, set()).add(border)
            self._send(state, border, ExternalAdvertisement(rid, dz_set))

    def _forward_sub(
        self,
        state: _PartitionState,
        rid: RequestId,
        dz_set: DzSet,
        border: BorderPort,
    ) -> None:
        if self.covering_enabled and state.forwarded_subs[border].covers(
            dz_set
        ):
            return
        state.forwarded_subs[border] = state.forwarded_subs[border].union(
            dz_set
        )
        state.sub_forwarded_to.setdefault(rid, set()).add(border)
        self._send(state, border, ExternalSubscription(rid, dz_set))

    def _send(self, state: _PartitionState, border: BorderPort, message) -> None:
        """Ship a control message through a border switch port."""
        name = state.controller.name
        self.stats.messages_sent[name] += 1
        self.obs.registry.counter(
            "federation.messages_sent", controller=name
        ).inc()
        self.obs.registry.counter(
            "federation.bytes_sent", controller=name
        ).inc(_CONTROL_MESSAGE_BYTES)
        self.obs.tracer.event(
            "federation_send",
            type(message).__name__,
            controller=name,
            border=border.key,
        )
        switch = self.network.switches[border.switch]
        switch.send_via_port(
            border.port,
            self.network.packet(
                PUBSUB_CONTROL_ADDRESS, message, _CONTROL_MESSAGE_BYTES
            ),
        )

    def _count_request(self, controller: str, origin: str) -> None:
        """Mirror a FederationStats request count into the registry."""
        if origin == "internal":
            self.stats.internal_requests[controller] += 1
        else:
            self.stats.external_requests[controller] += 1
        self.obs.registry.counter(
            "federation.requests", controller=controller, origin=origin
        ).inc()

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        for controller in self.controllers.values():
            controller.check_invariants()

    def __repr__(self) -> str:
        return (
            f"Federation({len(self.controllers)} controllers, "
            f"covering={'on' if self.covering_enabled else 'off'})"
        )
