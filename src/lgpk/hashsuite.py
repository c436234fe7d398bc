"""The three hash oracles behind the scheme, all riding one SHAKE-256 XOF.

Each oracle prepends a distinct domain byte and the suite byte SUITE_ID, so the
input streams of h1/h2/h3 can never collide. Public-key frames carry SUITE_ID,
and decoding rejects any other suite byte.
"""

from __future__ import annotations

import hashlib

from .bitstrings import BitStr, mask_tail, trusted
from .errors import EncodingError
from .matfield import GroupElement, ParameterSet, canonical_bytes

SUITE_ID = 0x01

DOMAIN_H1 = 0x01
DOMAIN_H2 = 0x02
DOMAIN_H3 = 0x03
DOMAIN_FINGERPRINT = 0x04
DOMAIN_FILE = 0x05


def xof_bits(domain: int, payload: bytes, nbits: int) -> BitStr:
    """SHAKE-256(domain ‖ SUITE_ID ‖ payload) truncated to nbits.

    Truncation keeps ceil(nbits/8) bytes and zeroes the unused high bits of
    the last byte, matching the canonical bit-string layout.
    """
    xof = hashlib.shake_256(bytes([domain, SUITE_ID]))
    xof.update(payload)
    return trusted(BitStr, nbits=nbits, data=mask_tail(xof.digest((nbits + 7) // 8), nbits))


def h1(params: ParameterSet, sigma: BitStr, m: BitStr) -> tuple[BitStr, BitStr]:
    """Derive the two exponent scalars from (σ, m).

    The XOF output is truncated to κ3+κ4 bits; the first κ3 bits become r_s
    and the remaining κ4 bits become r_t.
    """
    if sigma.nbits != params.kappa2:
        raise EncodingError(f"sigma must be {params.kappa2} bits, got {sigma.nbits}")
    if m.nbits != params.msg_len:
        raise EncodingError(f"message must be {params.msg_len} bits, got {m.nbits}")
    joint = xof_bits(DOMAIN_H1, sigma.data + m.data, params.kappa3 + params.kappa4)
    v = joint.to_int()
    r_s = BitStr.from_int(v & ((1 << params.kappa3) - 1), params.kappa3)
    r_t = BitStr.from_int(v >> params.kappa3, params.kappa4)
    return r_s, r_t


def h2(params: ParameterSet, g: GroupElement) -> BitStr:
    """Hash a group element to κ2 bits via its canonical byte encoding."""
    return xof_bits(DOMAIN_H2, canonical_bytes(g), params.kappa2)


def h3(params: ParameterSet, sigma: BitStr) -> BitStr:
    """Expand σ to a message-length pad."""
    if sigma.nbits != params.kappa2:
        raise EncodingError(f"sigma must be {params.kappa2} bits, got {sigma.nbits}")
    return xof_bits(DOMAIN_H3, sigma.data, params.msg_len)
