"""Workload traces: record, persist and replay pub/sub activity.

Reproducible evaluation needs replayable workloads.  A trace is an ordered
list of timestamped operations (advertise, subscribe, unsubscribe,
publish, ...) serialisable to JSON-lines via the core codecs, so a
workload captured from one experiment — or authored by hand — can be
replayed bit-identically into any deployment:

    trace = TraceRecorder()
    ... drive middleware through recorder ...
    trace.save(path)

    TraceReplayer(Trace.load(path)).run(middleware)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator
from typing import Any

from repro.core.codec import (
    decode_advertisement,
    decode_event,
    decode_subscription,
    encode_advertisement,
    encode_event,
    encode_subscription,
)
from repro.core.events import Event
from repro.core.subscription import Advertisement, Subscription
from repro.exceptions import WorkloadError
from repro.sim.engine import IdAllocator

__all__ = ["TraceOp", "Trace", "TraceRecorder", "TraceReplayer"]

_KINDS = ("advertise", "subscribe", "unsubscribe", "unadvertise", "publish")


@dataclass(frozen=True)
class TraceOp:
    """One timestamped operation of a workload trace."""

    time: float
    kind: str
    host: str
    payload: Any = None  # Advertisement | Subscription | Event | int (ids)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise WorkloadError(f"unknown trace op kind {self.kind!r}")
        if self.time < 0:
            raise WorkloadError("trace op time must be >= 0")

    # ------------------------------------------------------------------
    def encode(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "time": self.time,
            "kind": self.kind,
            "host": self.host,
        }
        if self.kind == "advertise":
            body["advertisement"] = encode_advertisement(self.payload)
        elif self.kind == "subscribe":
            body["subscription"] = encode_subscription(self.payload)
        elif self.kind == "publish":
            body["event"] = encode_event(self.payload)
        else:  # unsubscribe / unadvertise carry the original id
            body["ref"] = self.payload
        return body

    @classmethod
    def decode(cls, body: dict[str, Any]) -> "TraceOp":
        kind = body["kind"]
        if kind == "advertise":
            payload: Any = decode_advertisement(body["advertisement"])
        elif kind == "subscribe":
            payload = decode_subscription(body["subscription"])
        elif kind == "publish":
            payload = decode_event(body["event"])
        else:
            payload = body["ref"]
        return cls(
            time=body["time"], kind=kind, host=body["host"], payload=payload
        )


@dataclass
class Trace:
    """An ordered, timestamped workload."""

    ops: list[TraceOp] = field(default_factory=list)

    def __post_init__(self) -> None:
        times = [op.time for op in self.ops]
        if times != sorted(times):
            raise WorkloadError("trace operations must be time-ordered")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[TraceOp]:
        return iter(self.ops)

    @property
    def duration(self) -> float:
        return self.ops[-1].time if self.ops else 0.0

    # ------------------------------------------------------------------
    def dumps(self) -> str:
        """JSON-lines text, one op per line."""
        return "\n".join(
            json.dumps(op.encode(), sort_keys=True) for op in self.ops
        )

    @classmethod
    def loads(cls, text: str) -> "Trace":
        ops = [
            TraceOp.decode(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(ops=ops)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        return cls.loads(Path(path).read_text())


class TraceRecorder:
    """Builds a trace while an experiment drives the middleware; numbers
    an unnumbered advertisement or subscription from its own sequence."""

    def __init__(self) -> None:
        self._ops: list[TraceOp] = []
        self._last_time = 0.0
        self._ids = IdAllocator()

    def _append(self, op: TraceOp) -> None:
        if op.time < self._last_time:
            raise WorkloadError(
                f"out-of-order trace op at {op.time} after {self._last_time}"
            )
        self._last_time = op.time
        self._ops.append(op)

    def advertise(self, time: float, host: str, adv: Advertisement) -> None:
        adv.number(self._ids)
        self._append(TraceOp(time, "advertise", host, adv))

    def subscribe(self, time: float, host: str, sub: Subscription) -> None:
        sub.number(self._ids)
        self._append(TraceOp(time, "subscribe", host, sub))

    def unsubscribe(self, time: float, host: str, sub_id: int) -> None:
        self._append(TraceOp(time, "unsubscribe", host, sub_id))

    def unadvertise(self, time: float, host: str, adv_id: int) -> None:
        self._append(TraceOp(time, "unadvertise", host, adv_id))

    def publish(self, time: float, host: str, event: Event) -> None:
        self._append(TraceOp(time, "publish", host, event))

    def trace(self) -> Trace:
        return Trace(ops=list(self._ops))


class TraceReplayer:
    """Feeds a trace into a middleware deployment on the simulated clock."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.applied = 0

    def run(self, middleware) -> None:
        """Schedule every op at its timestamp and drain the simulation.

        Control operations go through the middleware's public API, so
        replay exercises exactly the code paths a live client would.
        """
        for op in self.trace:
            middleware.sim.schedule_at(op.time, self._apply, middleware, op)
        middleware.run()

    def _apply(self, middleware, op: TraceOp) -> None:
        if op.kind == "advertise":
            middleware.advertise(op.host, op.payload)
        elif op.kind == "subscribe":
            middleware.subscribe(op.host, op.payload)
        elif op.kind == "unsubscribe":
            middleware.unsubscribe(op.host, op.payload)
        elif op.kind == "unadvertise":
            middleware.unadvertise(op.host, op.payload)
        elif op.kind == "publish":
            middleware.publish(op.host, op.payload)
        self.applied += 1
