"""IPv4 addresses and networks, implemented from scratch.

An :class:`IPAddress` is an immutable wrapper around a 32-bit integer; an
:class:`IPNetwork` is an address plus a prefix length.  Both support the
operations the routing layer needs: parsing, formatting, containment, and
prefix comparison.  We deliberately do not use :mod:`ipaddress` so the
whole substrate is self-contained and the semantics the protocol relies on
are visible in this repository.
"""

from __future__ import annotations

import re
from functools import lru_cache, total_ordering
from typing import Iterator, Union

from repro.errors import AddressError

_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


# Every traced packet renders its two addresses, and a run uses few
# distinct ones: the bounded cache turns the four shifts and the
# f-string into one C-level lookup.
@lru_cache(maxsize=4096)
def _dotted_quad(v: int) -> str:
    return f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"


#: The special "foreign agent address zero" a mobile host registers with its
#: home agent when it has returned home (paper, Section 3).
ZERO_ADDRESS_INT = 0


@total_ordering
class IPAddress:
    """An immutable IPv4 address.

    Accepts a dotted-quad string, an integer in [0, 2**32), or another
    :class:`IPAddress` (copied).
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[str, int, "IPAddress"]) -> None:
        if isinstance(value, IPAddress):
            object.__setattr__(self, "_value", value._value)
            return
        if isinstance(value, int):
            if not 0 <= value < 2**32:
                raise AddressError(f"integer address out of range: {value!r}")
            object.__setattr__(self, "_value", value)
            return
        if isinstance(value, str):
            object.__setattr__(self, "_value", self._parse(value))
            return
        raise AddressError(f"cannot interpret {value!r} as an IPv4 address")

    @staticmethod
    def _parse(text: str) -> int:
        match = _DOTTED_QUAD.match(text.strip())
        if match is None:
            raise AddressError(f"malformed IPv4 address: {text!r}")
        octets = [int(part) for part in match.groups()]
        if any(octet > 255 for octet in octets):
            raise AddressError(f"octet out of range in {text!r}")
        return (octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) | octets[3]

    # -- protection against accidental mutation ------------------------
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IPAddress is immutable")

    # Immutable values are shared, not duplicated, by copy/deepcopy;
    # session snapshots share them by reference too (``SHARED_TYPES``
    # in :mod:`repro.scenario.session`).
    def __copy__(self) -> "IPAddress":
        return self

    def __deepcopy__(self, memo: dict) -> "IPAddress":
        return self

    # Slotted + immutable needs an explicit pickle path (the default
    # one restores state through the blocked ``__setattr__``); packets
    # cross partition-worker boundaries pickled.
    def __reduce__(self):
        return (IPAddress, (self._value,))

    # -- accessors ------------------------------------------------------
    @property
    def value(self) -> int:
        """The address as a 32-bit integer."""
        return self._value

    @property
    def is_zero(self) -> bool:
        """True for 0.0.0.0, MHRP's 'returned home' foreign-agent address."""
        return self._value == ZERO_ADDRESS_INT

    def to_bytes(self) -> bytes:
        """Network byte order (big-endian) representation, 4 bytes."""
        return self._value.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPAddress":
        if len(data) != 4:
            raise AddressError(f"IPv4 address requires 4 bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def zero(cls) -> "IPAddress":
        """The all-zero address (see :attr:`is_zero`)."""
        return cls(ZERO_ADDRESS_INT)

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other.__class__ is IPAddress or isinstance(other, IPAddress):
            return self._value == other._value
        if isinstance(other, (str, int)):
            try:
                return self._value == IPAddress(other)._value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPAddress") -> bool:
        if not isinstance(other, IPAddress):
            return NotImplemented
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("IPAddress", self._value))

    def __str__(self) -> str:
        return _dotted_quad(self._value)

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"


class IPNetwork:
    """An IPv4 network: a base address plus a prefix length.

    Accepts CIDR strings ("192.168.1.0/24"), or an (address, prefix_len)
    pair.  Host bits in the supplied address must be zero; refusing to
    silently mask keeps configuration mistakes loud.
    """

    __slots__ = ("_address", "_prefix_len", "_broadcast")

    def __init__(
        self,
        address: Union[str, int, IPAddress],
        prefix_len: Union[int, None] = None,
    ) -> None:
        if isinstance(address, str) and "/" in address:
            if prefix_len is not None:
                raise AddressError("prefix length given twice")
            base_text, _, prefix_text = address.partition("/")
            try:
                prefix_len = int(prefix_text)
            except ValueError:
                raise AddressError(f"malformed prefix length in {address!r}") from None
            address = base_text
        if prefix_len is None:
            raise AddressError("network requires a prefix length")
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"prefix length out of range: {prefix_len!r}")
        base = IPAddress(address)
        mask = self._mask_for(prefix_len)
        if base.value & ~mask & 0xFFFFFFFF:
            raise AddressError(
                f"host bits set in network address {base}/{prefix_len}"
            )
        object.__setattr__(self, "_address", base)
        object.__setattr__(self, "_prefix_len", prefix_len)
        # Built once: ingress compares every packet's destination with it.
        object.__setattr__(
            self, "_broadcast", IPAddress(base.value | ((1 << (32 - prefix_len)) - 1))
        )

    @staticmethod
    def _mask_for(prefix_len: int) -> int:
        if prefix_len == 0:
            return 0
        return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IPNetwork is immutable")

    # Shared, not duplicated, by copy/deepcopy and by session snapshots
    # (immutable value type).
    def __copy__(self) -> "IPNetwork":
        return self

    def __deepcopy__(self, memo: dict) -> "IPNetwork":
        return self

    # Explicit pickle path for the same reason as :class:`IPAddress`.
    def __reduce__(self):
        return (IPNetwork, (f"{self._address}/{self._prefix_len}",))

    # -- accessors ------------------------------------------------------
    @property
    def address(self) -> IPAddress:
        """The network base address."""
        return self._address

    @property
    def prefix_len(self) -> int:
        """The prefix length (0..32)."""
        return self._prefix_len

    @property
    def netmask(self) -> IPAddress:
        """The netmask as an address."""
        return IPAddress(self._mask_for(self._prefix_len))

    @property
    def num_addresses(self) -> int:
        """Total addresses covered, including network/broadcast."""
        return 1 << (32 - self._prefix_len)

    @property
    def broadcast(self) -> IPAddress:
        """The directed broadcast address of this network."""
        return self._broadcast

    def contains(self, address: Union[str, int, IPAddress]) -> bool:
        """Whether ``address`` falls within this network."""
        addr = IPAddress(address)
        return (addr.value & self._mask_for(self._prefix_len)) == self._address.value

    __contains__ = contains

    def host(self, index: int) -> IPAddress:
        """The ``index``-th usable host address (1-based, like .1, .2, ...).

        Raises :class:`AddressError` if the index walks off the network or
        lands on the network/broadcast address.
        """
        if index < 1 or index >= self.num_addresses - (1 if self._prefix_len < 31 else 0):
            raise AddressError(
                f"host index {index} out of range for {self}"
            )
        return IPAddress(self._address.value + index)

    def hosts(self) -> Iterator[IPAddress]:
        """Iterate over usable host addresses."""
        for index in range(1, max(self.num_addresses - 1, 1)):
            yield IPAddress(self._address.value + index)

    def overlaps(self, other: "IPNetwork") -> bool:
        """Whether the two networks share any address."""
        return other.address in self or self._address in other

    # -- comparisons / hashing -------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPNetwork):
            return (
                self._address == other._address
                and self._prefix_len == other._prefix_len
            )
        if isinstance(other, str):
            try:
                return self == IPNetwork(other)
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IPNetwork", self._address.value, self._prefix_len))

    def __str__(self) -> str:
        return f"{self._address}/{self._prefix_len}"

    def __repr__(self) -> str:
        return f"IPNetwork({str(self)!r})"
