"""The PLEROMA middleware facade: one object to deploy and use the system.

``Pleroma`` wires together the simulated SDN fabric, one controller per
partition (federated when more than one), the spatial indexer, the metrics
collector and — optionally — the dimension-selection monitor.  Application
code only touches this facade and the :class:`Publisher` /
:class:`Subscriber` clients it hands out:

    middleware = Pleroma(paper_fat_tree(), dimensions=2)
    pub = middleware.publisher("h1")
    sub = middleware.subscriber("h8", callback=print)
    pub.advertise(Filter.of(attr0=(0, 511)))
    sub.subscribe(Filter.of(attr0=(0, 255)))
    pub.publish(Event.of(attr0=100, attr1=7))
    middleware.run()
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.controller.controller import (
    AdvertisementState,
    PleromaController,
    SubscriptionState,
)
from repro.core.addressing import dz_to_address
from repro.core.events import Event, EventSpace
from repro.core.spatial_index import DEFAULT_MAX_DZ_LENGTH, SpatialIndexer
from repro.core.subscription import Advertisement, Subscription
from repro.dimsel.monitor import TrafficMonitor
from repro.dimsel.selection import DimensionSelection
from repro.exceptions import ControllerError
from repro.interop.federation import Federation
from repro.middleware.client import Publisher, Subscriber
from repro.middleware.metrics import DeliveryRecord, MetricsCollector
from repro.network.fabric import Network, NetworkParams
from repro.network.packet import EventPayload, Packet, event_packet_size
from repro.network.topology import Topology, partition_switches
from repro.obs.context import Observability
from repro.resilience.detector import FailureDetector
from repro.resilience.orchestrator import RecoveryOrchestrator
from repro.sim.engine import Simulator

__all__ = ["Pleroma"]


class _DeliveryIndex:
    """One host's subscriptions, found by the dz their regions hold.

    Delivery classification asks whether any of the host's subscriptions
    matches an arriving event.  The controller already holds each
    subscription's region (its ``DzSet``), and a region encloses every
    event its filter matches (see
    :meth:`~repro.core.spatial_index.SpatialIndexer.encloses_matches`),
    so only subscriptions with a member that prefixes the event's dz can
    match it.  The index maps member length -> member bits ->
    subscriptions, and the probe looks up each length's prefix of the
    event's dz.  A subscription whose region may miss some of its
    matches (or that its controller does not hold) is tested on every
    event.

    The regions speak for the indexing that built them: :attr:`indexer`
    is the controller's indexer at build time, and an event stamped
    under any other indexer is classified by the full scan.
    """

    __slots__ = ("controller", "indexer", "always", "probes")

    def __init__(
        self, controller: PleromaController, subs: dict[int, Subscription]
    ) -> None:
        self.controller = controller
        self.indexer = indexer = controller.indexer
        states = controller.subscriptions
        always: list[Subscription] = []
        by_len: dict[int, dict[str, list[Subscription]]] = {}
        for sub_id, sub in subs.items():
            state = states.get(sub_id)
            if state is None or not indexer.encloses_matches(sub.filter):
                always.append(sub)
                continue
            for dz in state.dz_set:
                by_len.setdefault(len(dz), {}).setdefault(
                    dz.bits, []
                ).append(sub)
        self.always = tuple(always)
        self.probes = tuple(sorted(by_len.items()))

    def stale(self) -> bool:
        """True once the controller re-indexed: the regions are gone."""
        return self.controller.indexer is not self.indexer

    def matched(self, event: Event, bits: str) -> bool:
        """``any(s.matches(event) ...)`` over the host's subscriptions,
        for an event whose maximal dz under :attr:`indexer` is ``bits``."""
        for sub in self.always:
            if sub.matches(event):
                return True
        for length, bucket in self.probes:
            subs = bucket.get(bits[:length])
            if subs is not None:
                for sub in subs:
                    if sub.matches(event):
                        return True
        return False


class _DimselRecurrence:
    """Cancellation handle for periodic dimension selection."""

    def __init__(self, middleware: "Pleroma") -> None:
        self._middleware = middleware

    def cancel(self) -> None:
        self._middleware._cancel_dimsel()


class Pleroma:
    """Deploys the middleware over a topology and exposes the user API."""

    def __init__(
        self,
        topology: Topology,
        dimensions: int = 10,
        space: EventSpace | None = None,
        max_dz_length: int = DEFAULT_MAX_DZ_LENGTH,
        max_cells: int = 64,
        partitions: int = 1,
        params: NetworkParams | None = None,
        merge_threshold: int = 16,
        install_mode: str = "reconcile",
        covering_enabled: bool = True,
        flow_mod_latency_s: float | None = None,
        auto_coarsen: bool = False,
        occupancy_threshold: float = 0.9,
        verify_after_each_request: bool = False,
    ) -> None:
        self.topology = topology
        self.sim = Simulator()
        # one observability bundle per deployment: every device, controller
        # and the metrics collector report into its registry/tracer
        self.obs = Observability(self.sim)
        self.network = Network(
            self.sim, topology, params=params, registry=self.obs.registry
        )
        self.space = space if space is not None else EventSpace.paper_schema(dimensions)
        self.indexer = SpatialIndexer(
            self.space, max_dz_length=max_dz_length, max_cells=max_cells
        )
        controller_kwargs: dict = dict(
            merge_threshold=merge_threshold,
            install_mode=install_mode,
            auto_coarsen=auto_coarsen,
            occupancy_threshold=occupancy_threshold,
            verify_after_each_request=verify_after_each_request,
        )
        if flow_mod_latency_s is not None:
            controller_kwargs["flow_mod_latency_s"] = flow_mod_latency_s
        self.controllers: list[PleromaController] = [
            PleromaController(
                self.network,
                self.indexer,
                partition=chunk,
                name=f"c{i + 1}",
                obs=self.obs,
                **controller_kwargs,
            )
            for i, chunk in enumerate(partition_switches(topology, partitions))
        ]
        self.federation: Federation | None = None
        if partitions > 1:
            self.federation = Federation(
                self.network,
                self.controllers,
                covering_enabled=covering_enabled,
                obs=self.obs,
            )
        self.metrics = MetricsCollector(registry=self.obs.registry)
        self.monitor: TrafficMonitor | None = None
        self._dimsel_period: float | None = None
        self._dimsel_k: int | None = None
        self._dimsel_handle = None
        self._dimsel_new_events = 0
        self._subscribers: dict[str, Subscriber] = {}
        self._host_subs: dict[str, dict[int, Subscription]] = {}
        # host -> delivery index, built at the host's first delivery after
        # its subscriptions changed
        self._delivery_index: dict[str, _DeliveryIndex] = {}
        # one repair orchestrator per controller: failures reported by
        # fail_link/fail_switch and detector verdicts share it
        self._orchestrators = {
            c.name: RecoveryOrchestrator(c, obs=self.obs, verify=False)
            for c in self.controllers
        }
        for host in topology.hosts():
            self.network.hosts[host].set_delivery_callback(
                self._make_delivery_handler(host)
            )
        if len(self.controllers) == 1:
            # keep the facade's indexer (used to stamp outgoing events) in
            # sync with controller-initiated re-indexing (auto-coarsening)
            self.controllers[0].reindex_listeners.append(
                lambda indexer: setattr(self, "indexer", indexer)
            )

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------
    def publisher(self, host: str) -> Publisher:
        self._require_host(host)
        return Publisher(middleware=self, host=host)

    def subscriber(
        self, host: str, callback: Callable[[Event, float], None] | None = None
    ) -> Subscriber:
        self._require_host(host)
        if host in self._subscribers:
            raise ControllerError(
                f"host {host!r} already has a subscriber client"
            )
        client = Subscriber(middleware=self, host=host, callback=callback)
        self._subscribers[host] = client
        return client

    def _require_host(self, host: str) -> None:
        if host not in self.network.hosts:
            raise ControllerError(f"unknown host {host!r}")

    # ------------------------------------------------------------------
    # control operations (routed to the responsible controller)
    # ------------------------------------------------------------------
    def _controller_for(self, host: str) -> PleromaController:
        if self.federation is not None:
            return self.federation.controller_for_host(host)
        return self.controllers[0]

    def advertise(
        self, host: str, advertisement: Advertisement
    ) -> AdvertisementState:
        return self._controller_for(host).advertise(host, advertisement)

    def subscribe(
        self, host: str, subscription: Subscription
    ) -> SubscriptionState:
        state = self._controller_for(host).subscribe(host, subscription)
        self._host_subs.setdefault(host, {})[state.sub_id] = subscription
        self._delivery_index.pop(host, None)
        return state

    def unsubscribe(self, host: str, sub_id: int) -> None:
        if self.federation is not None:
            self.federation.unsubscribe(host, sub_id)
        else:
            self.controllers[0].unsubscribe(sub_id)
        self._host_subs.get(host, {}).pop(sub_id, None)
        self._delivery_index.pop(host, None)

    def unadvertise(self, host: str, adv_id: int) -> None:
        if self.federation is not None:
            self.federation.unadvertise(host, adv_id)
        else:
            self.controllers[0].unadvertise(adv_id)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def publish(self, host: str, event: Event) -> None:
        """Send one event from ``host``, stamped with its maximal dz under
        the current indexing."""
        self._require_host(host)
        indexer = self.indexer
        dz = indexer.event_to_dz(event)
        payload = EventPayload(event, dz, host, self.sim.now, indexer)
        self.network.hosts[host].send(
            self.network.packet(
                dz_to_address(dz), payload, event_packet_size(dz)
            )
        )
        self.metrics.on_publish(self.sim.now)
        self.obs.poke_telemetry()
        if self.monitor is not None:
            self.monitor.record_event(event)
            self._dimsel_new_events += 1
            if self._dimsel_period is not None and self._dimsel_handle is None:
                self._arm_dimsel()

    def publish_stream(
        self,
        host: str,
        events: "Iterable[Event]",
        rate_eps: float,
        start_at: float | None = None,
    ) -> int:
        """Schedule a constant-rate event stream from ``host``.

        Returns the number of events scheduled.  The experiments of Sec. 6
        all publish "at a constant rate"; this helper encapsulates that
        pattern (events are spaced ``1/rate_eps`` apart starting at
        ``start_at``, default now)."""
        if rate_eps <= 0:
            raise ControllerError("publish rate must be positive")
        base = self.sim.now if start_at is None else start_at
        interval = 1.0 / rate_eps
        count = 0
        for i, event in enumerate(events):
            self.sim.schedule_at(
                base + i * interval, self.publish, host, event
            )
            count += 1
        return count

    def _make_delivery_handler(self, host: str):
        indexes = self._delivery_index

        def handler(payload: EventPayload, packet: Packet, now: float) -> None:
            event = payload.event
            index = indexes.get(host)
            if index is None or index.stale():
                index = indexes[host] = _DeliveryIndex(
                    self._controller_for(host), self._host_subs.get(host, {})
                )
            if payload.indexer is index.indexer:
                matched = index.matched(event, payload.dz.bits)
            else:
                # stamped under another indexing: the full scan
                subs = self._host_subs.get(host, {})
                matched = any(s.matches(event) for s in subs.values())
            self.metrics.on_delivery(
                DeliveryRecord(
                    host=host,
                    event=event,
                    publish_time=payload.publish_time,
                    deliver_time=now,
                    matched=matched,
                )
            )
            client = self._subscribers.get(host)
            if client is not None:
                client._deliver(event, now, matched)

        return handler

    # ------------------------------------------------------------------
    # failure injection and repair
    # ------------------------------------------------------------------
    def _controller_for_switch(self, switch: str) -> PleromaController:
        for controller in self.controllers:
            if switch in controller.partition:
                return controller
        raise ControllerError(f"no controller owns switch {switch!r}")

    def fail_link(self, a: str, b: str) -> None:
        """Kill a switch-to-switch link (data plane) and repair at once
        (one orchestrator pass, no detection delay).

        Border links between partitions are not repairable — the paper's
        federation has no redundancy protocol across domains."""
        if not (self.topology.is_switch(a) and self.topology.is_switch(b)):
            raise ControllerError("only switch-to-switch links can fail")
        owner_a = self._controller_for_switch(a)
        owner_b = self._controller_for_switch(b)
        if owner_a is not owner_b:
            raise ControllerError(
                "failover across partition borders is not supported"
            )
        self.network.link_between(a, b).fail()
        self._orchestrators[owner_a.name].link_failed(a, b)

    def fail_switch(self, name: str) -> None:
        """Kill a whole switch and let its controller repair around it."""
        if not self.topology.is_switch(name):
            raise ControllerError(f"{name!r} is not a switch")
        owner = self._controller_for_switch(name)
        for neighbor in self.topology.neighbors(name):
            self.network.link_between(name, neighbor).fail()
        self._orchestrators[owner.name].switch_failed(name)

    def enable_resilience(
        self,
        probe_period_s: float | None = None,
        miss_threshold: int | None = None,
        seed: int = 0,
        verify: bool = True,
    ) -> tuple[FailureDetector, RecoveryOrchestrator]:
        """Turn on the self-healing control plane (:mod:`repro.resilience`).

        Starts a :class:`~repro.resilience.detector.FailureDetector` probing
        every switch link and wires its verdicts into the controller's
        :class:`~repro.resilience.orchestrator.RecoveryOrchestrator`, which
        repairs the deployment without any oracle knowledge of the failure
        site.  ``fail_link``/``fail_switch`` report to the same
        orchestrator, so a failure they already repaired is not repaired
        again when the detector confirms it.

        Single-controller deployments only: federated repair across
        partition borders has no redundancy protocol (Sec. 7 future work).
        """
        if len(self.controllers) != 1:
            raise ControllerError(
                "resilience requires a single-partition deployment"
            )
        kwargs: dict = {"seed": seed}
        if probe_period_s is not None:
            kwargs["period_s"] = probe_period_s
        if miss_threshold is not None:
            kwargs["miss_threshold"] = miss_threshold
        detector = FailureDetector(self.network, obs=self.obs, **kwargs)
        orchestrator = self._orchestrators[self.controllers[0].name]
        orchestrator.verify = verify
        detector.listeners.append(orchestrator.on_event)
        detector.start()
        return detector, orchestrator

    # ------------------------------------------------------------------
    # dimension selection (Sec. 5)
    # ------------------------------------------------------------------
    def enable_dimension_selection(
        self, window_size: int = 1000, threshold: float = 0.75
    ) -> TrafficMonitor:
        """Start collecting recent traffic for periodic re-selection.

        Only supported for single-partition deployments: the paper selects
        dimensions per partition but does not define how partitions with
        different dz encodings interoperate, so the reproduction restricts
        re-indexing to the single-controller case.
        """
        if self.federation is not None:
            raise ControllerError(
                "dimension selection requires a single partition"
            )
        self.monitor = TrafficMonitor(
            self.space,
            window_size=window_size,
            threshold=threshold,
            max_dz_length=self.indexer.max_dz_length,
        )
        return self.monitor

    def schedule_dimension_selection(
        self, period_s: float, k: int | None = None
    ) -> "_DimselRecurrence":
        """Re-run dimension selection every ``period_s`` of simulated time.

        This is the paper's adaptive mode: "a controller periodically
        collects information about the events disseminated in the recent
        time window and repeats the dimension selection process."

        The recurrence is traffic-driven: when a period elapses with no new
        publications, it pauses (so draining the simulator terminates) and
        re-arms automatically on the next publish.  Returns a handle whose
        ``cancel()`` stops it for good.
        """
        if self.monitor is None:
            raise ControllerError(
                "call enable_dimension_selection() before scheduling"
            )
        if period_s <= 0:
            raise ControllerError("period must be positive")
        self._dimsel_period = period_s
        self._dimsel_k = k
        self._dimsel_new_events = 0
        self._arm_dimsel()
        return _DimselRecurrence(self)

    def _arm_dimsel(self) -> None:
        self._dimsel_handle = self.sim.schedule(
            self._dimsel_period, self._dimsel_tick
        )

    def _dimsel_tick(self) -> None:
        if self._dimsel_period is None:
            return
        if self._dimsel_new_events:
            self._dimsel_new_events = 0
            self.reselect_dimensions(k=self._dimsel_k)
            self._arm_dimsel()
        else:
            # quiet period: pause; the next publish re-arms the timer
            self._dimsel_handle = None

    def _cancel_dimsel(self) -> None:
        self._dimsel_period = None
        if self._dimsel_handle is not None:
            self._dimsel_handle.cancel()
            self._dimsel_handle = None

    def reselect_dimensions(self, k: int | None = None) -> DimensionSelection:
        """Run one selection round and re-deploy the network accordingly."""
        if self.monitor is None:
            raise ControllerError(
                "call enable_dimension_selection() before reselecting"
            )
        controller = self.controllers[0]
        all_subs = [
            s.subscription
            for s in controller.subscriptions.values()
            if s.subscription is not None
        ]
        selection = self.monitor.reselect(all_subs, k=k)
        reduced = self.space.restrict(selection.selected)
        self.indexer = SpatialIndexer(
            reduced, max_dz_length=self.indexer.max_dz_length
        )
        controller.reindex(self.indexer)
        return selection

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until: float | None = None) -> None:
        """Drain the simulation (deliver in-flight packets)."""
        self.sim.run(until=until)

    def total_flows_installed(self) -> int:
        """Current number of flow entries across all switches."""
        return sum(len(s.table) for s in self.network.switches.values())

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def enable_telemetry(
        self,
        period_s: float = 0.01,
        rules=None,
        top_k: int = 5,
        latency_s: float | None = None,
    ):
        """Turn on in-band statistics polling and alerting.

        Starts a :class:`~repro.obs.telemetry.StatsPoller` that learns the
        data-plane state purely from OpenFlow ``FlowStats`` / ``PortStats``
        / ``TableStats`` replies — never from switch or link internals —
        carried over a dedicated
        :class:`~repro.network.control_channel.ControlChannel` (every
        request and reply byte-accounted and latency-delayed), plus an
        :class:`~repro.obs.alerts.AlertEngine` evaluating ``rules``
        (default :data:`~repro.obs.alerts.DEFAULT_ALERT_RULES`) after each
        completed poll round.

        Each switch's ``IP_pub/sub`` diversion is rewired through the
        telemetry channel with the previous handler preserved, so
        controller and federation semantics are unchanged apart from the
        (realistic) control-channel latency on diverted packets.

        Returns ``(poller, engine)``; both are also reachable as
        ``obs.telemetry`` / ``obs.alerts`` and the polled state lands in
        the observability snapshot.  The poller is also the input of an
        :class:`~repro.controller.overload.OverloadManager`, which reads
        link utilization from its polled port counters.
        """
        from repro.network.control_channel import ControlChannel
        from repro.obs.alerts import DEFAULT_ALERT_RULES, AlertEngine
        from repro.obs.telemetry import StatsPoller

        if self.obs.telemetry is not None:
            raise ControllerError("telemetry already enabled")
        kwargs: dict = {} if latency_s is None else {"latency_s": latency_s}
        channel = ControlChannel(
            self.sim, registry=self.obs.registry, **kwargs
        )
        port_peers: dict = {}
        for name in sorted(self.network.switches):
            switch = self.network.switches[name]
            prev = switch.control_handler
            handler = None
            if prev is not None:
                def handler(message, _prev=prev, _sw=switch):
                    _prev(_sw, message.packet, message.in_port)
            channel.connect(switch, handler)
            for port, link in sorted(switch.ports.items()):
                peer, peer_port = link.endpoint_for(switch)
                port_peers[(name, port)] = (
                    peer.name,
                    peer_port,
                    peer.name in self.network.switches,
                )
        poller = StatsPoller(
            self.sim,
            channel,
            self.obs.registry,
            period_s=period_s,
            port_peers=port_peers,
            top_k=top_k,
        ).start()
        engine = AlertEngine(
            registry=self.obs.registry,
            rules=tuple(rules) if rules is not None else DEFAULT_ALERT_RULES,
        )
        self.obs.attach_telemetry(poller, engine)
        return poller, engine

    def enable_flight_recorder(
        self,
        sample_every: int = 1,
        capacity: int = 65_536,
        seed: int = 0,
    ):
        """Record per-packet hop histories on the data plane.

        Off by default.  ``sample_every=N`` records 1 in N packets: the
        decision is drawn from a seeded RNG once per packet, when the
        network mints it, and stamped on the packet, so identical-seed
        runs sample identically and an unsampled packet costs each hop
        one ``is not None`` test.  Packets minted before this call are
        never recorded.  See :mod:`repro.obs.flight`.
        """
        return self.obs.enable_flight(
            self.network,
            sample_every=sample_every,
            capacity=capacity,
            seed=seed,
        )

    def disable_flight_recorder(self) -> None:
        """Detach the flight recorder and discard its records."""
        self.obs.disable_flight()

    def flight_report(self):
        """Path analytics over the recorded hop histories: delivery
        trees, delay attribution, drop forensics, path stretch
        (:class:`repro.obs.paths.FlightReport`)."""
        return self.obs.flight_report()

    def obs_snapshot(self, include_spans: bool = True) -> dict:
        """The deployment's full observability state (JSON-compatible)."""
        return self.obs.snapshot(include_spans=include_spans)

    def export_obs(self, path, include_spans: bool = True) -> dict:
        """Write the observability snapshot to ``path`` and return it."""
        from repro.obs.export import write_json

        document = self.obs_snapshot(include_spans=include_spans)
        write_json(document, path)
        return document

    def check_invariants(self) -> None:
        for controller in self.controllers:
            controller.check_invariants()

    def __repr__(self) -> str:
        return (
            f"Pleroma({self.topology.name}, {len(self.controllers)} "
            f"controller(s), {self.space.dimensions}-d space)"
        )
