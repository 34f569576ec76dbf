"""Unit tests for the wire codecs."""

import pytest

from repro.core.codec import (
    decode_advertisement,
    decode_dzset,
    decode_event,
    decode_filter,
    decode_space,
    decode_subscription,
    encode_advertisement,
    encode_dzset,
    encode_event,
    encode_filter,
    encode_space,
    encode_subscription,
    from_bytes,
    to_bytes,
)
from repro.core.dzset import DzSet
from repro.core.events import Attribute, Event, EventSpace
from repro.core.subscription import Advertisement, Filter, Subscription
from repro.exceptions import SchemaError


class TestRoundTrips:
    def test_event(self):
        event = Event.of(event_id=42, price=10.5, volume=3)
        assert decode_event(encode_event(event)) == event

    def test_filter(self):
        filt = Filter.of(a=(0, 10), b=(5.5, 6.5))
        assert decode_filter(encode_filter(filt)) == filt

    def test_empty_filter(self):
        filt = Filter.of()
        assert decode_filter(encode_filter(filt)) == filt

    def test_subscription_keeps_identity(self):
        sub = Subscription.of(a=(1, 2))
        decoded = decode_subscription(encode_subscription(sub))
        assert decoded == sub
        assert decoded.sub_id == sub.sub_id

    def test_unnumbered_request_round_trips_as_null(self):
        sub = Subscription.of(a=(1, 2))
        payload = encode_subscription(sub)
        assert payload["id"] is None
        assert decode_subscription(payload).sub_id is None
        adv = decode_advertisement(encode_advertisement(Advertisement.of()))
        assert adv.adv_id is None
        numbered = Subscription(filter=Filter.of(a=(1, 2)), sub_id=7)
        assert decode_subscription(encode_subscription(numbered)).sub_id == 7

    def test_advertisement_keeps_identity(self):
        adv = Advertisement.of(a=(1, 2))
        decoded = decode_advertisement(encode_advertisement(adv))
        assert decoded == adv
        assert decoded.adv_id == adv.adv_id

    def test_dzset(self):
        s = DzSet.of("0", "101", "111")
        assert decode_dzset(encode_dzset(s)) == s

    def test_empty_dzset(self):
        s = DzSet(frozenset())
        assert decode_dzset(encode_dzset(s)) == s

    def test_space(self):
        space = EventSpace(
            (
                Attribute("x", 0, 100, grain=1),
                Attribute("y", -5, 5),
            )
        )
        assert decode_space(encode_space(space)) == space


class TestBytes:
    def test_bytes_round_trip(self):
        event = Event.of(event_id=1, x=2.0)
        data = to_bytes(encode_event(event))
        assert isinstance(data, bytes)
        assert decode_event(from_bytes(data)) == event

    def test_bytes_deterministic(self):
        event = Event.of(event_id=1, b=2.0, a=1.0)
        assert to_bytes(encode_event(event)) == to_bytes(encode_event(event))

    def test_malformed_bytes(self):
        with pytest.raises(SchemaError):
            from_bytes(b"not json{")
        with pytest.raises(SchemaError):
            from_bytes(b"[1, 2]")


class TestValidation:
    def test_kind_mismatch(self):
        with pytest.raises(SchemaError):
            decode_event(encode_filter(Filter.of()))

    def test_version_check(self):
        payload = encode_event(Event.of(x=1))
        payload["v"] = 999
        with pytest.raises(SchemaError):
            decode_event(payload)


class TestSnapshot:
    def test_controller_snapshot_is_json_compatible(self):
        import json

        from repro.core.subscription import Advertisement, Subscription
        from repro.network.topology import line
        from tests.helpers import make_system

        system = make_system(line(3))
        system.controller.advertise("h1", Advertisement.of(attr0=(0, 511)))
        system.controller.subscribe("h3", Subscription.of(attr0=(0, 255)))
        snap = system.controller.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["advertisements"] == 1
        assert snap["subscriptions"] == 1
        assert len(snap["trees"]) == 1
        tree = snap["trees"][0]
        assert tree["publishers"] == ["h1"]
        assert tree["subscribers"] == ["h3"]
        assert sum(snap["flows_per_switch"].values()) > 0
