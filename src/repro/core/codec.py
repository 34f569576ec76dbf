"""Wire codecs: JSON-dict encoding of the core data model.

A deployable middleware needs interchange formats: clients serialise
events and subscriptions onto the wire, controllers persist and exchange
state.  This module provides lossless, versioned dict encodings (JSON-
compatible: only ``str``/``int``/``float``/``list``/``dict``) for every
core object, plus bytes helpers.

Every codec is a pair ``encode_x`` / ``decode_x`` with
``decode_x(encode_x(v)) == v`` (property-tested).  Identities
(``sub_id``/``adv_id``/``event_id``) round-trip, so a decoded object is
the *same* logical entity; a request not yet numbered round-trips as
``null`` and is numbered where it is admitted.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from repro.core.dz import Dz
from repro.core.dzset import DzSet
from repro.core.events import Attribute, Event, EventSpace
from repro.core.subscription import (
    Advertisement,
    Filter,
    RangePredicate,
    Subscription,
)
from repro.exceptions import SchemaError

__all__ = [
    "encode_event",
    "decode_event",
    "encode_filter",
    "decode_filter",
    "encode_subscription",
    "decode_subscription",
    "encode_advertisement",
    "decode_advertisement",
    "encode_dzset",
    "decode_dzset",
    "encode_space",
    "decode_space",
    "to_bytes",
    "from_bytes",
]

_VERSION = 1


def _envelope(kind: str, body: Mapping[str, Any]) -> dict[str, Any]:
    return {"v": _VERSION, "kind": kind, **body}


def _check(payload: Mapping[str, Any], kind: str) -> None:
    if payload.get("v") != _VERSION:
        raise SchemaError(
            f"unsupported codec version {payload.get('v')!r}"
        )
    if payload.get("kind") != kind:
        raise SchemaError(
            f"expected a {kind!r} payload, got {payload.get('kind')!r}"
        )


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
def encode_event(event: Event) -> dict[str, Any]:
    return _envelope(
        "event",
        {"id": event.event_id, "values": dict(event.values)},
    )


def decode_event(payload: Mapping[str, Any]) -> Event:
    _check(payload, "event")
    return Event(values=dict(payload["values"]), event_id=payload["id"])


# ----------------------------------------------------------------------
# filters / subscriptions / advertisements
# ----------------------------------------------------------------------
def encode_filter(filt: Filter) -> dict[str, Any]:
    return _envelope(
        "filter",
        {
            "predicates": {
                name: [pred.low, pred.high]
                for name, pred in filt.predicates.items()
            }
        },
    )


def decode_filter(payload: Mapping[str, Any]) -> Filter:
    _check(payload, "filter")
    return Filter(
        predicates={
            name: RangePredicate(low, high)
            for name, (low, high) in payload["predicates"].items()
        }
    )


def encode_subscription(sub: Subscription) -> dict[str, Any]:
    body = encode_filter(sub.filter)
    body.pop("kind")
    return _envelope("subscription", {"id": sub.sub_id, **body})


def decode_subscription(payload: Mapping[str, Any]) -> Subscription:
    _check(payload, "subscription")
    filt = decode_filter(
        {"v": _VERSION, "kind": "filter", "predicates": payload["predicates"]}
    )
    return Subscription(filter=filt, sub_id=payload["id"])


def encode_advertisement(adv: Advertisement) -> dict[str, Any]:
    body = encode_filter(adv.filter)
    body.pop("kind")
    return _envelope("advertisement", {"id": adv.adv_id, **body})


def decode_advertisement(payload: Mapping[str, Any]) -> Advertisement:
    _check(payload, "advertisement")
    filt = decode_filter(
        {"v": _VERSION, "kind": "filter", "predicates": payload["predicates"]}
    )
    return Advertisement(filter=filt, adv_id=payload["id"])


# ----------------------------------------------------------------------
# dz sets and event spaces
# ----------------------------------------------------------------------
def encode_dzset(dzset: DzSet) -> dict[str, Any]:
    return _envelope("dzset", {"members": [dz.bits for dz in dzset]})


def decode_dzset(payload: Mapping[str, Any]) -> DzSet:
    _check(payload, "dzset")
    return DzSet(frozenset(Dz(bits) for bits in payload["members"]))


def encode_space(space: EventSpace) -> dict[str, Any]:
    return _envelope(
        "space",
        {
            "attributes": [
                {
                    "name": a.name,
                    "low": a.low,
                    "high": a.high,
                    "grain": a.grain,
                }
                for a in space.attributes
            ]
        },
    )


def decode_space(payload: Mapping[str, Any]) -> EventSpace:
    _check(payload, "space")
    return EventSpace(
        tuple(
            Attribute(
                name=a["name"], low=a["low"], high=a["high"], grain=a["grain"]
            )
            for a in payload["attributes"]
        )
    )


# ----------------------------------------------------------------------
# bytes helpers
# ----------------------------------------------------------------------
def to_bytes(payload: Mapping[str, Any]) -> bytes:
    """Compact UTF-8 JSON bytes of any encoded payload."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def from_bytes(data: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(data.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise SchemaError(f"malformed payload: {exc}") from None
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object")
    return payload
