"""In-band telemetry: OpenFlow statistics polling without oracle access.

A real PLEROMA controller cannot read switch or link internals; it sees
only what the switches report.  This module is the one path by which the
reproduction observes the data plane, as a production deployment would:
a :class:`StatsPoller` that periodically sends ``FlowStatsRequest`` /
``PortStatsRequest`` / ``TableStatsRequest`` messages over the ordinary
control channel (consuming modeled control-plane bandwidth, sharing the
per-switch FIFO with flow-mods and packet-ins) and reconstructs the
data-plane state from the replies alone.

On top of the polled series the poller derives:

* **heavy hitters** — the hottest dz-subspaces by per-rule packet counters
  (max across switches, so multi-hop trees are not double-counted);
* **rule churn** — installs/removals/modifies per switch between polls,
  from the identity set of the polled rules;
* **TCAM occupancy trends** — per-switch occupancy history from table
  stats;
* **port loss inference** — ``tx_dropped`` deltas per port, plus the
  tx-vs-peer-rx polling skew.

The polled port counters also feed the
:class:`~repro.controller.overload.OverloadManager`, which turns both
ends' ``tx_bytes`` into per-link utilization.

All derived series land in the shared
:class:`~repro.obs.registry.MetricsRegistry` (``telemetry.*`` names), so
the :class:`~repro.obs.alerts.AlertEngine` can evaluate rules over them
and every exporter sees them.  :func:`reconcile_with_oracle` — the one
deliberately oracle-using function here, for evaluation only — quantifies
how stale/wrong the polled view is versus the ground truth.

The poller is traffic-driven: it pauses after a poll round in which no
publish poked it, so draining the simulator terminates, and re-arms on
the next poke.  A paused poller also takes one more round whenever the
round just completed found the polled ``tx_bytes`` changed since the
round before, so a backlog still queued after the last publish is polled
until the data plane is quiet.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.core.addressing import prefix_to_dz
from repro.network.openflow import (
    ErrorMessage,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    OpenFlowMessage,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    TableStatsReply,
    TableStatsRequest,
)
from repro.obs.registry import Gauge, MetricsRegistry
from repro.obs.samplers import PeriodicSampler

__all__ = ["StatsPoller", "SwitchTelemetry", "reconcile_with_oracle"]

#: (prefix_len, network) — how polled rules are keyed; cookie changes on
#: MODIFY, the match field is the rule's stable identity.
RuleKey = tuple[int, int]


@dataclass
class SwitchTelemetry:
    """The polled (no-oracle) view of one switch."""

    name: str
    polls: int = 0
    poll_errors: int = 0
    # flow stats: current and previous reply, with their receive times
    flows: dict[RuleKey, FlowStatsEntry] = field(default_factory=dict)
    prev_flows: dict[RuleKey, FlowStatsEntry] = field(default_factory=dict)
    flows_at: float | None = None
    prev_flows_at: float | None = None
    # port stats
    ports: dict[int, PortStatsEntry] = field(default_factory=dict)
    prev_ports: dict[int, PortStatsEntry] = field(default_factory=dict)
    ports_at: float | None = None
    prev_ports_at: float | None = None
    # table stats + occupancy trend (time, active_count) samples
    table: TableStatsReply | None = None
    occupancy_history: deque = field(
        default_factory=lambda: deque(maxlen=256)
    )
    # cumulative rule churn derived from consecutive flow replies
    rules_added: int = 0
    rules_removed: int = 0
    last_rtt_s: float | None = None

    def flow_window_s(self) -> float | None:
        """Duration between the two latest flow-stats replies."""
        if self.flows_at is None or self.prev_flows_at is None:
            return None
        return self.flows_at - self.prev_flows_at


class StatsPoller(PeriodicSampler):
    """Polls switches for OpenFlow statistics on the sim-time engine.

    ``targets`` defaults to every switch connected to ``channel``;
    ``port_peers`` maps ``(switch, port)`` to ``(peer, peer_port,
    peer_is_switch)`` — wiring knowledge a controller legitimately has
    from topology configuration, used for loss/skew attribution.

    It is a :class:`~repro.obs.samplers.PeriodicSampler` whose tick
    starts a poll round: it re-arms when a publish poked it since the
    last tick, or when a completed round found the polled ``tx_bytes``
    still moving while it was paused (a backlog draining past the last
    publish).
    """

    def __init__(
        self,
        sim,
        channel,
        registry: MetricsRegistry,
        period_s: float = 0.01,
        targets: list[str] | None = None,
        port_peers: dict[tuple[str, int], tuple[str, int, bool]] | None = None,
        top_k: int = 5,
    ) -> None:
        super().__init__(sim, period_s, self._poll_tick)
        self.channel = channel
        self.registry = registry
        self.top_k = top_k
        self._targets: list[str] = sorted(
            channel.connected_switches() if targets is None else targets
        )
        self.port_peers = dict(port_peers or {})
        self.views: dict[str, SwitchTelemetry] = {
            name: SwitchTelemetry(name=name) for name in self._targets
        }
        # round bookkeeping
        self.rounds_started = 0
        self.rounds_completed = 0
        self._pending: dict[int, tuple[int, str, float]] = {}
        self._outstanding: dict[int, int] = {}
        # total polled tx_bytes at the previous completed round
        self._round_tx_bytes = 0
        # latest derived analytics (rebuilt at each round completion)
        self.heavy_hitters: list[dict] = []
        self.port_loss: list[dict] = []
        self._peak_rates: dict[str, float] = {}
        # memos: a flow match's dz string, and the gauges each dz and
        # each (switch, port) sets at every round
        self._dz_names: dict[tuple[int, int], str] = {}
        self._dz_gauges: dict[str, tuple[Gauge, Gauge]] = {}
        self._port_gauges: dict[tuple[str, int], tuple[Gauge, Gauge]] = {}
        #: called as listener(now) after each completed poll round —
        #: the alert engine subscribes here.
        self.round_listeners: list[Callable[[float], None]] = []
        channel.reply_listeners.append(self._on_reply)

    # ------------------------------------------------------------------
    # sampler hook
    # ------------------------------------------------------------------
    def _poll_tick(self, now: float) -> None:
        # Every tick polls — the closing round still captures the quiet
        # tail.
        self.poll_now()

    # ------------------------------------------------------------------
    # polling
    # ------------------------------------------------------------------
    def poll_now(self) -> int:
        """Start one poll round immediately; returns its round id.

        Sends the three stats requests to every target over the control
        channel — each one byte-accounted and FIFO-ordered with whatever
        other control traffic the channel carries.
        """
        self.rounds_started += 1
        round_id = self.rounds_started
        self._outstanding[round_id] = 3 * len(self._targets)
        sent_at = self.sim.now
        ids = self.sim.ids
        for name in self._targets:
            for request in (
                FlowStatsRequest(xid=ids.next("xid")),
                PortStatsRequest(xid=ids.next("xid")),
                TableStatsRequest(xid=ids.next("xid")),
            ):
                self._pending[request.xid] = (round_id, name, sent_at)
                self.channel.send(name, request)
            self.registry.counter("telemetry.polls", switch=name).inc()
        return round_id

    # ------------------------------------------------------------------
    # reply ingestion
    # ------------------------------------------------------------------
    def _on_reply(self, switch_name: str, message: OpenFlowMessage) -> None:
        xid = (
            message.failed_xid
            if isinstance(message, ErrorMessage)
            else message.xid
        )
        info = self._pending.pop(xid, None)
        if info is None:
            return  # someone else's reply on a shared channel
        round_id, name, sent_at = info
        now = self.sim.now
        view = self.views[name]
        if isinstance(message, ErrorMessage):
            view.poll_errors += 1
            self.registry.counter("telemetry.poll_errors", switch=name).inc()
        else:
            view.last_rtt_s = now - sent_at
            self.registry.gauge("telemetry.poll_rtt_s", switch=name).set(
                view.last_rtt_s
            )
            if isinstance(message, FlowStatsReply):
                self._ingest_flows(view, message, now)
            elif isinstance(message, PortStatsReply):
                self._ingest_ports(view, message, now)
            elif isinstance(message, TableStatsReply):
                self._ingest_table(view, message, now)
        remaining = self._outstanding.get(round_id)
        if remaining is None:
            return
        if remaining <= 1:
            del self._outstanding[round_id]
            self._complete_round(now)
        else:
            self._outstanding[round_id] = remaining - 1

    def _ingest_flows(
        self, view: SwitchTelemetry, reply: FlowStatsReply, now: float
    ) -> None:
        view.polls += 1
        view.prev_flows, view.prev_flows_at = view.flows, view.flows_at
        view.flows = {
            (e.match.prefix_len, e.match.network): e for e in reply.entries
        }
        view.flows_at = now
        # churn: the identity triple includes the cookie, so a MODIFY
        # (new cookie, same match) counts as one removal + one install
        current = {
            (key, e.cookie) for key, e in view.flows.items()
        }
        previous = {
            (key, e.cookie) for key, e in view.prev_flows.items()
        }
        added = len(current - previous)
        removed = len(previous - current)
        if view.prev_flows_at is not None and (added or removed):
            view.rules_added += added
            view.rules_removed += removed
            self.registry.counter(
                "telemetry.rule_churn", switch=view.name
            ).inc(added + removed)

    def _ingest_ports(
        self, view: SwitchTelemetry, reply: PortStatsReply, now: float
    ) -> None:
        view.prev_ports, view.prev_ports_at = view.ports, view.ports_at
        view.ports = {p.port: p for p in reply.ports}
        view.ports_at = now

    def _ingest_table(
        self, view: SwitchTelemetry, reply: TableStatsReply, now: float
    ) -> None:
        view.table = reply
        view.occupancy_history.append((now, reply.active_count))
        occupancy = (
            reply.active_count / reply.capacity if reply.capacity else 0.0
        )
        self.registry.gauge(
            "telemetry.tcam_occupancy", switch=view.name
        ).set(occupancy)
        self.registry.gauge(
            "telemetry.flow_entries", switch=view.name
        ).set(float(reply.active_count))

    # ------------------------------------------------------------------
    # derived analytics
    # ------------------------------------------------------------------
    def _complete_round(self, now: float) -> None:
        self.rounds_completed += 1
        self.registry.counter("telemetry.poll_rounds").inc()
        self._update_heavy_hitters()
        self._update_port_loss()
        for listener in self.round_listeners:
            listener(now)
        # A closing round that still saw the port counters move means a
        # backlog queued past the last publish is draining: keep polling
        # until a round sees the data plane quiet, so the polled view
        # ends up covering the drained tail.
        tx_bytes = sum(
            entry.tx_bytes
            for view in self.views.values()
            for entry in view.ports.values()
        )
        if tx_bytes != self._round_tx_bytes and not self.running:
            self.poke()
        self._round_tx_bytes = tx_bytes

    def _update_heavy_hitters(self) -> None:
        """Rank dz-subspaces by polled rule counters.

        Per dz the value is the *maximum* over switches (every switch of
        a delivery tree counts the same event once; summing would scale
        with tree depth, not workload).
        """
        packets: dict[str, int] = {}
        rates: dict[str, float] = {}
        dz_names = self._dz_names
        for name in self._targets:
            view = self.views[name]
            window = view.flow_window_s()
            for key, entry in view.flows.items():
                dz = dz_names.get(key)
                if dz is None:
                    dz = dz_names[key] = str(prefix_to_dz(entry.match))
                if entry.packet_count > packets.get(dz, -1):
                    packets[dz] = entry.packet_count
                if window:
                    prev = view.prev_flows.get(key)
                    delta = entry.packet_count - (
                        prev.packet_count if prev is not None else 0
                    )
                    rate = delta / window
                    if rate > rates.get(dz, -1.0):
                        rates[dz] = rate
        for dz in sorted(packets):
            rate = rates.get(dz, 0.0)
            if rate > self._peak_rates.get(dz, 0.0):
                self._peak_rates[dz] = rate
            gauges = self._dz_gauges.get(dz)
            if gauges is None:
                gauges = self._dz_gauges[dz] = (
                    self.registry.gauge("telemetry.subspace_packets", dz=dz),
                    self.registry.gauge("telemetry.subspace_rate_pps", dz=dz),
                )
            gauges[0].set(float(packets[dz]))
            gauges[1].set(rate)
        ranked = sorted(
            packets, key=lambda dz: (-packets[dz], dz)
        )[: self.top_k]
        self.heavy_hitters = [
            {
                "dz": dz,
                "packets": packets[dz],
                "rate_pps": rates.get(dz, 0.0),
                "peak_rate_pps": self._peak_rates.get(dz, 0.0),
            }
            for dz in ranked
        ]

    def _update_port_loss(self) -> None:
        """Loss/skew inference from per-port counter deltas.

        Real loss appears as ``tx_dropped`` growth; the tx-vs-peer-rx
        difference measures polling skew (the two switches were polled at
        slightly different sim times), bounded by one polling window of
        traffic — quantified rather than hidden.
        """
        report: list[dict] = []
        for name in self._targets:
            view = self.views[name]
            window = (
                view.ports_at - view.prev_ports_at
                if view.ports_at is not None
                and view.prev_ports_at is not None
                else None
            )
            for port in sorted(view.ports):
                entry = view.ports[port]
                prev = view.prev_ports.get(port)
                dropped_delta = entry.tx_dropped - (
                    prev.tx_dropped if prev is not None else 0
                )
                loss_pps = (
                    dropped_delta / window
                    if window and prev is not None
                    else 0.0
                )
                gauges = self._port_gauges.get((name, port))
                if gauges is None:
                    gauges = self._port_gauges[name, port] = (
                        self.registry.gauge(
                            "telemetry.port_loss_pps", port=str(port), switch=name
                        ),
                        self.registry.gauge(
                            "telemetry.port_tx_dropped", port=str(port), switch=name
                        ),
                    )
                gauges[0].set(loss_pps)
                gauges[1].set(float(entry.tx_dropped))
                peer = self.port_peers.get((name, port))
                skew = None
                if peer is not None and peer[2]:
                    peer_view = self.views.get(peer[0])
                    if peer_view is not None:
                        peer_entry = peer_view.ports.get(peer[1])
                        if peer_entry is not None:
                            skew = entry.tx_packets - peer_entry.rx_packets
                if entry.tx_dropped or (skew is not None and skew != 0):
                    report.append(
                        {
                            "switch": name,
                            "port": port,
                            "peer": peer[0] if peer is not None else None,
                            "tx_dropped": entry.tx_dropped,
                            "loss_pps": loss_pps,
                            "skew_packets": skew,
                        }
                    )
        self.port_loss = report

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def occupancy_trend(self, switch: str) -> list[tuple[float, int]]:
        """(time, active_count) samples of one switch's table stats."""
        return list(self.views[switch].occupancy_history)

    def summary(self) -> dict:
        """Deterministic JSON-compatible digest of the polled state."""
        switches = {}
        for name in self._targets:
            view = self.views[name]
            table = view.table
            switches[name] = {
                "polls": view.polls,
                "poll_errors": view.poll_errors,
                "flows": len(view.flows),
                "flows_at": view.flows_at,
                "rtt_s": view.last_rtt_s,
                "occupancy": (
                    table.active_count / table.capacity
                    if table is not None and table.capacity
                    else None
                ),
                "lookups": table.lookup_count if table is not None else None,
                "matched": (
                    table.matched_count if table is not None else None
                ),
                "rule_churn": {
                    "added": view.rules_added,
                    "removed": view.rules_removed,
                },
            }
        return {
            "period_s": self.period_s,
            "ticks": self.ticks,
            "rounds_started": self.rounds_started,
            "rounds_completed": self.rounds_completed,
            "switches": switches,
            "heavy_hitters": self.heavy_hitters,
            "port_loss": self.port_loss,
        }


# ----------------------------------------------------------------------
# evaluation-only oracle comparison
# ----------------------------------------------------------------------
def reconcile_with_oracle(poller: StatsPoller, network) -> dict:
    """Quantify staleness/error of the polled view vs the ground truth.

    This is the *evaluation harness* for the telemetry subsystem — the
    only place the poller's data meets oracle reads of switch internals.
    The poller itself never touches ``network``.

    Per switch: the polled per-rule packet counts against the live
    :class:`~repro.network.flow.FlowStats`, the polled-view age, and the
    worst per-rule error.  The acceptance bound is one polling window:
    every discrepancy must be attributable to traffic after the last
    poll.
    """
    now = network.sim.now
    switches: dict[str, dict] = {}
    max_error = 0
    max_age = 0.0
    for name in sorted(poller.views):
        view = poller.views[name]
        switch = network.switches[name]
        oracle = {
            (entry.match.prefix_len, entry.match.network): stats.packets
            for entry, stats in switch.table.entries_with_stats()
        }
        polled = {key: e.packet_count for key, e in view.flows.items()}
        keys = set(oracle) | set(polled)
        worst = max(
            (
                abs(oracle.get(key, 0) - polled.get(key, 0))
                for key in keys
            ),
            default=0,
        )
        age = now - view.flows_at if view.flows_at is not None else None
        switches[name] = {
            "rules_polled": len(polled),
            "rules_oracle": len(oracle),
            "packets_polled": sum(polled.values()),
            "packets_oracle": sum(oracle.values()),
            "max_rule_error_packets": worst,
            "age_s": age,
        }
        max_error = max(max_error, worst)
        if age is not None:
            max_age = max(max_age, age)
    return {
        "switches": switches,
        "max_rule_error_packets": max_error,
        "max_age_s": max_age,
    }
