import random

import pytest

from lgpk.bitstrings import BitStr, mask_tail, xor_bytes
from lgpk.errors import EncodingError


def test_mask_tail():
    assert mask_tail(b"\xff", 5) == b"\x1f"
    assert mask_tail(b"\xff\xff", 13) == b"\xff\x1f"
    assert mask_tail(b"\xff", 8) == b"\xff"
    assert mask_tail(b"", 0) == b""
    with pytest.raises(EncodingError):
        mask_tail(b"\xff", 9)


def test_constructor_validates_length_and_tail():
    BitStr(5, b"\x1f")
    with pytest.raises(EncodingError):
        BitStr(5, b"\xff")  # unused high bits set
    with pytest.raises(EncodingError):
        BitStr(5, b"\x1f\x00")  # too many bytes
    with pytest.raises(EncodingError):
        BitStr(-1, b"")
    with pytest.raises(EncodingError, match="must be bytes, not bytearray"):
        BitStr(8, bytearray(b"\x01"))  # would not hash


@pytest.mark.parametrize("nbits", [8.0, True, "8", None])
def test_constructors_check_the_length_type(nbits):
    # 8.0 and True passed every length and tail check, and from_int(1, True)
    # built a value with a bool length unchecked
    for build in (lambda: BitStr(nbits, b"\x01"), lambda: BitStr.from_int(1, nbits)):
        with pytest.raises(EncodingError) as e:
            build()
        assert str(e.value) == f"bit length must be an int, not {type(nbits).__name__}"


def test_int_round_trip_little_endian():
    s = BitStr.from_int(0x1234, 16)
    assert s.data == b"\x34\x12"
    assert s.to_int() == 0x1234
    assert BitStr.from_int(0, 0).data == b""
    with pytest.raises(EncodingError):
        BitStr.from_int(16, 4)
    with pytest.raises(EncodingError):
        BitStr.from_int(-1, 4)
    with pytest.raises(EncodingError, match="negative bit length"):
        BitStr.from_int(1, -1)  # was a bare ValueError from the shift


def test_first_bits_are_low_bits():
    # bit i lives in byte i//8 at position i%8, so "the first 3 bits" of
    # 0b...101 are exactly to_int() & 0b111
    s = BitStr.from_int(0b1101, 4)
    assert s.to_int() & 0b111 == 0b101


def test_from_bytes_uses_full_length():
    s = BitStr.from_bytes(b"\xab\xcd")
    assert s.nbits == 16 and s.data == b"\xab\xcd"


def test_xor():
    a = BitStr.from_int(0b1100, 4)
    b = BitStr.from_int(0b1010, 4)
    assert (a ^ b).to_int() == 0b0110
    assert (a ^ a).to_int() == 0
    with pytest.raises(EncodingError):
        a ^ BitStr.from_int(0, 5)
    rng = random.Random(7)
    for size in (0, 1, 2, 31, 32, 33, 1000):
        data, other = rng.randbytes(size), rng.randbytes(size)
        want = bytes(x ^ y for x, y in zip(data, other))
        assert xor_bytes(data, int.from_bytes(other, "little")) == want
        assert BitStr.from_bytes(data) ^ BitStr.from_bytes(other) == BitStr.from_bytes(want)


def test_hex_round_trip():
    s = BitStr.from_int(300, 12)
    assert BitStr(12, bytes.fromhex(s.hex())) == s
    with pytest.raises(EncodingError):
        BitStr(12, bytes.fromhex("ffff"))  # tail bits set
