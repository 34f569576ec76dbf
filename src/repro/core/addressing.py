"""Embedding dz-expressions into IPv6 multicast addresses.

PLEROMA installs flows only on fields corresponding to IP multicast
addresses (Sec. 2) so that content filtering coexists with other services.
Section 3.3.2 gives the encoding: a subspace ``dz`` maps to the IPv6
multicast address whose first 16 bits are ``ff0e`` and whose next ``|dz|``
bits are the dz string, zero-padded — matched with a CIDR mask of length
``16 + |dz|``.  Examples from the paper (both verified in the test suite):

* ``dz = 101``     -> ``ff0e:a000::/19``
* ``dz = 101101``  -> ``ff0e:b400::/22``

Longest-prefix/priority matching on these addresses then implements the dz
covering relation in TCAM hardware: a finer event address matches every
coarser installed prefix.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from repro.core.dz import Dz
from repro.exceptions import AddressingError

__all__ = [
    "MulticastPrefix",
    "dz_to_prefix",
    "prefix_fields",
    "prefix_to_dz",
    "dz_to_address",
    "address_to_dz",
    "PUBSUB_CONTROL_ADDRESS",
    "MULTICAST_BASE",
    "MAX_DZ_BITS",
]

#: ff0e::/16 — the transient, global-scope IPv6 multicast range the paper
#: reserves for publish/subscribe.
MULTICAST_BASE = 0xFF0E << 112
_BASE_MASK_LEN = 16

#: Address bits available to carry dz bits.
MAX_DZ_BITS = 128 - _BASE_MASK_LEN

#: The reserved address hosts use to reach the controller (the paper's
#: ``IP_pub/sub``): switches never install flows for it, so such packets go
#: to the control plane.
PUBSUB_CONTROL_ADDRESS = MULTICAST_BASE | 0xFFFF_FFFF_FFFF_FFFF_FFFF_FFFF_FFFF


@dataclass(frozen=True, order=True, slots=True)
class MulticastPrefix:
    """An IPv6 CIDR prefix: 128-bit network address plus mask length.

    This is the match field of a PLEROMA flow entry.  Ordering is by
    ``(prefix_len, network)`` so longer (finer) prefixes sort last.
    """

    prefix_len: int
    network: int
    #: The prefix as one int, unique per prefix: a 1 bit followed by the
    #: ``prefix_len`` network bits.  Tables key per-rule state by it, so a
    #: hit reaches its counters in one probe.
    key: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 128:
            raise AddressingError(f"bad prefix length {self.prefix_len}")
        if not 0 <= self.network < (1 << 128):
            raise AddressingError("network address outside 128-bit range")
        if self.network & ~self.mask:
            raise AddressingError(
                "network address has bits set outside its mask"
            )
        object.__setattr__(
            self,
            "key",
            (1 << self.prefix_len) | (self.network >> (128 - self.prefix_len)),
        )

    @property
    def mask(self) -> int:
        """The 128-bit netmask as an integer."""
        if self.prefix_len == 0:
            return 0
        return ((1 << self.prefix_len) - 1) << (128 - self.prefix_len)

    def matches(self, address: int) -> bool:
        """TCAM semantics: the address agrees on all masked bits."""
        return (address & self.mask) == self.network

    def covers(self, other: "MulticastPrefix") -> bool:
        """CIDR containment: shorter prefix matching the other's network."""
        return self.prefix_len <= other.prefix_len and self.matches(
            other.network
        )

    def __str__(self) -> str:
        return f"{ipaddress.IPv6Address(self.network)}/{self.prefix_len}"


def dz_to_prefix(dz: Dz) -> MulticastPrefix:
    """The CIDR prefix a flow uses to match all events inside ``dz``."""
    prefix_len, network = prefix_fields(dz.bits)
    return MulticastPrefix(prefix_len=prefix_len, network=network)


def prefix_fields(bits: str) -> tuple[int, int]:
    """``(prefix_len, network)`` of :func:`dz_to_prefix` for the bits of a
    dz, with no :class:`MulticastPrefix` built: tables are probed by them."""
    n = len(bits)
    if n > MAX_DZ_BITS:
        raise AddressingError(
            f"dz of length {n} exceeds the {MAX_DZ_BITS} bits "
            "available after the ff0e prefix"
        )
    if not n:
        return _BASE_MASK_LEN, MULTICAST_BASE
    network = MULTICAST_BASE | (int(bits, 2) << (MAX_DZ_BITS - n))
    return _BASE_MASK_LEN + n, network


def prefix_to_dz(prefix: MulticastPrefix) -> Dz:
    """Recover the dz carried by a publish/subscribe CIDR prefix."""
    if prefix.prefix_len < _BASE_MASK_LEN:
        raise AddressingError(f"prefix {prefix} shorter than the ff0e base")
    if (prefix.network >> 112) != 0xFF0E:
        raise AddressingError(f"prefix {prefix} outside ff0e::/16")
    dz_len = prefix.prefix_len - _BASE_MASK_LEN
    value = (prefix.network >> (MAX_DZ_BITS - dz_len)) & ((1 << dz_len) - 1) \
        if dz_len else 0
    return Dz.from_value(value, dz_len)


def dz_to_address(dz: Dz) -> int:
    """The concrete destination address of an event stamped with ``dz``.

    Events carry a dz "of maximum length" (Sec. 2); the address is simply
    the network address of the corresponding prefix.
    """
    return dz_to_prefix(dz).network


def address_to_dz(address: int, dz_len: int) -> Dz:
    """Recover the leading ``dz_len`` bits of an event's address."""
    if not 0 <= dz_len <= MAX_DZ_BITS:
        raise AddressingError(f"bad dz length {dz_len}")
    if (address >> 112) != 0xFF0E:
        raise AddressingError(
            f"address {ipaddress.IPv6Address(address)} outside ff0e::/16"
        )
    value = (address >> (MAX_DZ_BITS - dz_len)) & ((1 << dz_len) - 1) \
        if dz_len else 0
    return Dz.from_value(value, dz_len)
