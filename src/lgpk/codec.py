"""Framed, checksummed wire formats for parameters, keys, and ciphertexts.

Every file is one or more envelopes: magic "LGPK", a version byte, a kind
byte, a kind-specific body, then a CRC-32 over everything before it. Bodies
are built from three primitives only — 4-byte big-endian integers, the
canonical matrix encoding from matfield, and bit strings prefixed with their
bit length — so each envelope is self-delimiting and streams concatenate.

Decoding is two-phase. The structural phase rejects bad frames: truncation,
wrong magic/version/kind, CRC mismatch, non-canonical primitive bytes (a prime
with a leading zero byte, set padding bits in a bit string's last byte), n
above MAX_DIM, a modulus longer than MAX_PRIME_BITS, and a kappa2 or msg_len
above MAX_LENGTH_BITS. The limits come before any semantic work: the
nilpotency proof grows as n^4, each decoded generator keeps a table of up to
n-1 matrices, the primality check grows about 7.6x per doubling of the modulus
length, and `encrypt` draws and hashes kappa2 + msg_len bits. Only a frame
whose checksum matches reaches the semantic phase. It builds the typed objects
through their validating constructors, and `decode_prefix` alone turns what
they reject into SemanticDecodeError: entries >= p, wrong nilpotency index,
singular matrices, mismatched dimensions, and a composite modulus in parameter
and public-key frames. Ciphertext and private-key frames carry a bare modulus
that is not tested for primality: a composite one is caught only when an
elimination pivot shares a factor with it. It then differs from the public
key's prime, so `decrypt` returns None for such a ciphertext and raises
KeyMismatchError for such a private key.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

from .bitstrings import BitStr, mask_tail
from .errors import (
    CodecError,
    EncodingError,
    NotInvertibleError,
    NotNilpotentError,
    ParameterError,
    SemanticDecodeError,
    StructuralDecodeError,
)
from .hashsuite import DOMAIN_FINGERPRINT, xof_bits
from .matfield import (
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    canonical_bytes,
)
from .scheme import FINGERPRINT_BYTES, Ciphertext, PrivateKey, PublicKey

MAGIC = b"LGPK"
VERSION = 0x01

# largest matrix dimension n a frame may declare: three times the paper's n = 5
MAX_DIM = 16
# longest modulus, in bits, a frame may carry: 16 times the paper's 256 bits
MAX_PRIME_BITS = 4096
# longest seed (kappa2) and message (msg_len), in bits, a frame may declare
MAX_LENGTH_BITS = 4096

KIND_PARAMS = 0x01
KIND_PUBLIC_KEY = 0x02
KIND_PRIVATE_KEY = 0x03
KIND_CIPHERTEXT = 0x04

FILE_EXTENSIONS = {
    KIND_PARAMS: ".lgparams",
    KIND_PUBLIC_KEY: ".lgpk",
    KIND_PRIVATE_KEY: ".lgsk",
    KIND_CIPHERTEXT: ".lgct",
}

Encodable = Union[ParameterSet, PublicKey, PrivateKey, Ciphertext]


# ----------------------------------------------------------------- encoding

def _u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def _encode_bitstr(b: BitStr) -> bytes:
    return _u32(b.nbits) + b.data


def _encode_params_body(ps: ParameterSet) -> bytes:
    plen = (ps.p.bit_length() + 7) // 8
    return b"".join(
        (
            bytes([1 if ps.toy else 0]),
            _u32(ps.kappa1),
            _u32(ps.kappa2),
            _u32(ps.kappa3),
            _u32(ps.kappa4),
            _u32(ps.msg_len),
            _u32(ps.n),
            _u32(plen),
            ps.p.to_bytes(plen, "big"),
        )
    )


def _encode_pk_body(pk: PublicKey) -> bytes:
    return b"".join(
        (
            _encode_params_body(pk.params),
            bytes([pk.suite_id]),
            canonical_bytes(pk.left_gen.base),
            bytes([pk.left_gen.index]),
            canonical_bytes(pk.right_gen.base),
            bytes([pk.right_gen.index]),
            canonical_bytes(pk.key_product.mat),
        )
    )


def _encode_sk_body(sk: PrivateKey) -> bytes:
    return (
        sk.pk_fingerprint
        + canonical_bytes(sk.left_factor.mat)
        + canonical_bytes(sk.right_factor.mat)
    )


def _encode_ct_body(ct: Ciphertext) -> bytes:
    return (
        _encode_bitstr(ct.sealed_seed)
        + canonical_bytes(ct.rand_product.mat)
        + _encode_bitstr(ct.masked_msg)
    )


def _frame(kind: int, body: bytes) -> bytes:
    head = MAGIC + bytes([VERSION, kind]) + body
    return head + _u32(zlib.crc32(head))


def encode(obj: Encodable) -> bytes:
    if isinstance(obj, ParameterSet):
        return _frame(KIND_PARAMS, _encode_params_body(obj))
    if isinstance(obj, PublicKey):
        return _frame(KIND_PUBLIC_KEY, _encode_pk_body(obj))
    if isinstance(obj, PrivateKey):
        return _frame(KIND_PRIVATE_KEY, _encode_sk_body(obj))
    if isinstance(obj, Ciphertext):
        return _frame(KIND_CIPHERTEXT, _encode_ct_body(obj))
    raise CodecError(f"cannot encode objects of type {type(obj).__name__}")


def pk_fingerprint(pk: PublicKey) -> bytes:
    """Digest binding a private key to its public key: XOF over the encoded pk.

    Computed once per key object and kept on it; the key is frozen, so the
    digest cannot go stale.
    """
    if pk._fingerprint is None:
        digest = xof_bits(DOMAIN_FINGERPRINT, pk.suite_id, encode(pk), 8 * FINGERPRINT_BYTES)
        object.__setattr__(pk, "_fingerprint", digest.data)
    return pk._fingerprint


# ----------------------------------------------------------------- decoding

class _Reader:
    """Cursor over a byte buffer; every read is bounds-checked."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if n < 0 or self.offset + n > len(self.data):
            raise StructuralDecodeError("truncated frame")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u8(self) -> int:
        return self.take(1)[0]


def _check_limit(what: str, value: int, limit: int) -> None:
    """`what` names the value through a {} field, filled in only on failure."""
    if value > limit:
        raise StructuralDecodeError(f"{what.format(value)} exceeds the limit of {limit}")


def _read_bitstr_raw(r: _Reader) -> tuple[int, bytes]:
    nbits = r.u32()
    data = r.take((nbits + 7) // 8)
    if data != mask_tail(data, nbits):
        raise StructuralDecodeError("bit string padding bits must be zero")
    return nbits, data


def _read_prime_raw(r: _Reader) -> int:
    plen = r.u32()
    if plen < 1:
        raise StructuralDecodeError("empty modulus")
    raw = r.take(plen)
    if raw[0] == 0:
        raise StructuralDecodeError("modulus encoding must be minimal")
    p = int.from_bytes(raw, "big")
    _check_limit("modulus of {} bits", p.bit_length(), MAX_PRIME_BITS)
    return p


def _read_matrix_raw(r: _Reader) -> tuple[int, int, tuple]:
    n = r.u32()
    if n < 1:
        raise StructuralDecodeError("matrix dimension must be positive")
    _check_limit("matrix dimension {}", n, MAX_DIM)
    p = _read_prime_raw(r)
    plen = (p.bit_length() + 7) // 8
    rows = tuple(
        tuple(int.from_bytes(r.take(plen), "big") for _ in range(n)) for _ in range(n)
    )
    return n, p, rows


def _read_params_raw(r: _Reader) -> dict:
    flags = r.u8()
    if flags > 1:
        raise StructuralDecodeError("unknown parameter flags")
    fields = {"toy": bool(flags & 1)}
    for name in ("kappa1", "kappa2", "kappa3", "kappa4", "msg_len", "n"):
        fields[name] = r.u32()
    _check_limit("matrix dimension {}", fields["n"], MAX_DIM)
    for name in ("kappa2", "msg_len"):
        _check_limit(name + " of {} bits", fields[name], MAX_LENGTH_BITS)
    fields["p"] = _read_prime_raw(r)
    return fields


def _read_body(kind: int, r: _Reader):
    """Structural pass over one body of a checked kind: read its fields, and
    return the call that builds its object through the validating constructors."""
    if kind == KIND_PARAMS:
        params = _read_params_raw(r)
        return lambda: ParameterSet(**params)
    if kind == KIND_PUBLIC_KEY:
        params = _read_params_raw(r)
        suite_id = r.u8()
        left = _read_matrix_raw(r)
        left_index = r.u8()
        right = _read_matrix_raw(r)
        right_index = r.u8()
        product = _read_matrix_raw(r)
        return lambda: PublicKey(
            ParameterSet(**params),
            NilpotentMatrix(FieldMatrix(*left), left_index),
            NilpotentMatrix(FieldMatrix(*right), right_index),
            GroupElement(FieldMatrix(*product)),
            suite_id,
        )
    if kind == KIND_PRIVATE_KEY:
        fingerprint = r.take(FINGERPRINT_BYTES)
        left = _read_matrix_raw(r)
        right = _read_matrix_raw(r)
        return lambda: PrivateKey(
            GroupElement(FieldMatrix(*left)), GroupElement(FieldMatrix(*right)), fingerprint
        )
    sealed = _read_bitstr_raw(r)
    product = _read_matrix_raw(r)
    masked = _read_bitstr_raw(r)
    return lambda: Ciphertext(BitStr(*sealed), GroupElement(FieldMatrix(*product)), BitStr(*masked))


def decode_prefix(
    data: bytes, offset: int = 0, expect_kind: Optional[int] = None
) -> tuple[Encodable, int]:
    """Decode one envelope starting at `offset`; return (object, next offset)."""
    r = _Reader(data, offset)
    if r.take(len(MAGIC)) != MAGIC:
        raise StructuralDecodeError("bad magic")
    version = r.u8()
    if version != VERSION:
        raise StructuralDecodeError(f"unsupported version {version}")
    kind = r.u8()
    if kind not in FILE_EXTENSIONS:
        raise StructuralDecodeError(f"unknown object kind 0x{kind:02x}")
    if expect_kind is not None and kind != expect_kind:
        raise StructuralDecodeError(f"expected kind 0x{expect_kind:02x}, found 0x{kind:02x}")
    build = _read_body(kind, r)
    claimed = int.from_bytes(r.take(4), "big")
    actual = zlib.crc32(data[offset:r.offset - 4])
    if claimed != actual:
        raise StructuralDecodeError("checksum mismatch")
    try:
        return build(), r.offset
    except (ParameterError, NotNilpotentError, NotInvertibleError, EncodingError) as e:
        raise SemanticDecodeError(str(e)) from e


def decode(data: bytes, expect_kind: Optional[int] = None) -> Encodable:
    """Decode exactly one envelope; trailing bytes are a structural error."""
    obj, end = decode_prefix(data, 0, expect_kind)
    if end != len(data):
        raise StructuralDecodeError(f"{len(data) - end} trailing bytes after frame")
    return obj
