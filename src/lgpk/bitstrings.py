"""Fixed-length bit strings with a canonical byte layout.

A string of `nbits` bits occupies ceil(nbits/8) bytes. Bit i of the string
lives in byte i//8 at bit position i%8 (LSB first), so when nbits is not a
multiple of 8 the unused high bits of the final byte are zero. Equivalently,
the whole string read little-endian is an integer below 2**nbits; "the first
k bits" of a string are the k low bits of that integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EncodingError


def mask_tail(data: bytes, nbits: int) -> bytes:
    """Zero the unused high bits of the final byte of an nbits-long string."""
    if nbits < 0:
        raise EncodingError("negative bit length")
    if len(data) != (nbits + 7) // 8:
        raise EncodingError(f"need {(nbits + 7) // 8} bytes for {nbits} bits, got {len(data)}")
    r = nbits % 8
    if r == 0 or not data:
        return data
    return data[:-1] + bytes([data[-1] & ((1 << r) - 1)])


def trusted(cls, **fields):
    """Build a frozen value of `cls` from known-good fields without running
    its `__post_init__` checks. Only for results the code already knows are
    valid; outside input goes through the public constructors.
    """
    obj = object.__new__(cls)
    # attribute by attribute, so the instance keeps the compact shared-key
    # layout; installing `fields` as obj.__dict__ is faster but costs a full
    # dict per value, which long-lived matrices (planted attack instances)
    # show in peak memory
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def xor_bytes(data: bytes, stream: int) -> bytes:
    """`data` XOR the little-endian integer `stream`, with no per-byte loop."""
    return (int.from_bytes(data, "little") ^ stream).to_bytes(len(data), "little")


@dataclass(frozen=True)
class BitStr:
    """An immutable bit string of exact length `nbits`."""

    nbits: int
    data: bytes

    def __post_init__(self):
        # mask_tail also rejects a negative length and a wrong byte count
        if self.data != mask_tail(self.data, self.nbits):
            raise EncodingError("unused high bits of final byte must be zero")
        # one form per value: a bytearray would neither hash nor stay fixed
        if type(self.data) is not bytes:
            raise EncodingError(f"bit string data must be bytes, not {type(self.data).__name__}")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BitStr":
        return cls(8 * len(raw), bytes(raw))

    @classmethod
    def from_int(cls, value: int, nbits: int) -> "BitStr":
        if value < 0 or value >> nbits:
            raise EncodingError(f"value does not fit in {nbits} bits")
        return trusted(cls, nbits=nbits, data=value.to_bytes((nbits + 7) // 8, "little"))

    def to_int(self) -> int:
        return int.from_bytes(self.data, "little")

    def __xor__(self, other: "BitStr") -> "BitStr":
        if self.nbits != other.nbits:
            raise EncodingError(f"xor of {self.nbits}-bit and {other.nbits}-bit strings")
        # two clean tails XOR to a clean tail
        return trusted(BitStr, nbits=self.nbits, data=xor_bytes(self.data, other.to_int()))

    def hex(self) -> str:
        return self.data.hex()
