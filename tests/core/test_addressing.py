"""Unit tests for the IPv6 multicast embedding of dz-expressions."""

import ipaddress

import pytest

from repro.core.addressing import (
    MAX_DZ_BITS,
    PUBSUB_CONTROL_ADDRESS,
    MulticastPrefix,
    address_to_dz,
    dz_to_address,
    dz_to_prefix,
    prefix_fields,
    prefix_to_dz,
)
from repro.core.dz import ROOT, Dz
from repro.exceptions import AddressingError


class TestPaperExamples:
    """Sec. 3.3.2 gives two worked encodings; both must hold exactly."""

    def test_dz_101_is_ff0e_a000_slash_19(self):
        prefix = dz_to_prefix(Dz("101"))
        assert str(prefix) == "ff0e:a000::/19"

    def test_dz_101101_is_ff0e_b400_slash_22(self):
        prefix = dz_to_prefix(Dz("101101"))
        assert str(prefix) == "ff0e:b400::/22"

    def test_event_matches_covering_flow(self):
        """ff0e:a000::/19 must match an event carrying dz=101101."""
        flow_prefix = dz_to_prefix(Dz("101"))
        event_address = dz_to_address(Dz("101101"))
        assert flow_prefix.matches(event_address)

    def test_event_does_not_match_disjoint_flow(self):
        flow_prefix = dz_to_prefix(Dz("100"))
        event_address = dz_to_address(Dz("101101"))
        assert not flow_prefix.matches(event_address)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "bits", ["", "0", "1", "01", "101101", "0" * 50, "1" * 112]
    )
    def test_prefix_round_trip(self, bits):
        dz = Dz(bits)
        assert prefix_to_dz(dz_to_prefix(dz)) == dz

    def test_address_round_trip(self):
        dz = Dz("0110100")
        assert address_to_dz(dz_to_address(dz), len(dz)) == dz

    def test_address_truncation_recovers_prefix(self):
        dz = Dz("0110100")
        assert address_to_dz(dz_to_address(dz), 3) == Dz("011")

    def test_root_maps_to_base(self):
        prefix = dz_to_prefix(ROOT)
        assert str(prefix) == "ff0e::/16"


class TestPrefixKey:
    @pytest.mark.parametrize(
        "bits", ["", "0", "1", "01", "10", "101101", "0" * 50, "1" * 112]
    )
    def test_prefix_fields_are_the_prefix(self, bits):
        prefix = dz_to_prefix(Dz(bits))
        assert prefix_fields(bits) == (prefix.prefix_len, prefix.network)

    def test_prefix_fields_reject_overlong_bits(self):
        with pytest.raises(AddressingError):
            prefix_fields("1" * 113)

    def test_one_int_key_tells_lengths_apart(self):
        """``1`` and ``10`` share a network address; their keys differ."""
        coarse, fine = dz_to_prefix(Dz("1")), dz_to_prefix(Dz("10"))
        assert coarse.network == fine.network
        assert coarse.key != fine.key
        keys = {
            dz_to_prefix(Dz(format(v, "b").zfill(n) if n else "")).key
            for n in range(6)
            for v in range(2**n)
        }
        assert len(keys) == 2**6 - 1

    def test_key_stays_out_of_equality_and_repr(self):
        prefix = dz_to_prefix(Dz("101"))
        twin = MulticastPrefix(prefix.prefix_len, prefix.network)
        assert twin == prefix and hash(twin) == hash(prefix)
        assert twin.key == prefix.key
        assert "key" not in repr(prefix)


class TestValidation:
    def test_dz_too_long(self):
        with pytest.raises(AddressingError):
            dz_to_prefix(Dz("0" * (MAX_DZ_BITS + 1)))

    def test_prefix_outside_range_rejected(self):
        prefix = MulticastPrefix(prefix_len=16, network=0xFF0F << 112)
        with pytest.raises(AddressingError):
            prefix_to_dz(prefix)

    def test_prefix_shorter_than_base_rejected(self):
        with pytest.raises(AddressingError):
            prefix_to_dz(MulticastPrefix(prefix_len=8, network=0xFF << 120))

    def test_network_bits_outside_mask_rejected(self):
        with pytest.raises(AddressingError):
            MulticastPrefix(prefix_len=16, network=(0xFF0E << 112) | 1)

    def test_bad_prefix_len(self):
        with pytest.raises(AddressingError):
            MulticastPrefix(prefix_len=129, network=0)

    def test_address_to_dz_outside_range(self):
        with pytest.raises(AddressingError):
            address_to_dz(0x2001 << 112, 4)


class TestPrefixSemantics:
    def test_covers(self):
        assert dz_to_prefix(Dz("10")).covers(dz_to_prefix(Dz("101")))
        assert not dz_to_prefix(Dz("101")).covers(dz_to_prefix(Dz("10")))
        assert not dz_to_prefix(Dz("100")).covers(dz_to_prefix(Dz("101")))

    def test_cover_mirrors_dz_cover(self):
        pairs = [("", "1"), ("1", "10"), ("01", "0110"), ("11", "0")]
        for a, b in pairs:
            assert dz_to_prefix(Dz(a)).covers(dz_to_prefix(Dz(b))) == Dz(
                a
            ).covers(Dz(b))

    def test_mask_width(self):
        assert dz_to_prefix(Dz("101")).prefix_len == 19

    def test_control_address_in_multicast_range(self):
        assert (PUBSUB_CONTROL_ADDRESS >> 112) == 0xFF0E
        assert ipaddress.IPv6Address(PUBSUB_CONTROL_ADDRESS).is_multicast

    def test_ordering_by_specificity(self):
        coarse, fine = dz_to_prefix(Dz("1")), dz_to_prefix(Dz("11"))
        assert coarse < fine
