"""Framed, checksummed wire formats for parameters, keys, and ciphertexts.

Every object is one envelope: magic "LGPK", a version byte, a kind
byte, a kind-specific body, then a CRC-32 over everything before it.
`LAYOUTS` is the one statement of each body: its fields in wire order, each
written, read and built by its `FIELDS` entry. Every field is self-delimiting,
so envelopes stream and concatenate.

Decoding is two-phase. The structural phase rejects bad frames: truncation,
wrong magic/version/kind/suite, CRC mismatch, non-canonical primitive bytes
(a prime with a leading zero byte, set padding bits in a bit string's last
byte), n above MAX_DIM, a modulus longer than MAX_PRIME_BITS, and a kappa2 or
msg_len above MAX_LENGTH_BITS. The limits come before any semantic work: the
nilpotency proof grows as n^4, each decoded generator keeps up to n-1 powers
as its table, the primality check grows about 7.6x per doubling of the
modulus length, and `encrypt` draws and hashes kappa2 + msg_len bits. At the
limits (n = 16, 4096-bit p; kappa2 = kappa3 = kappa4 = msg_len = 128),
decoding a public key and then encrypting under it peaks at 5.5 MiB under
`tracemalloc` (11.0 MiB when each power was one packed integer) and takes
3.6-4.7 s to decode and 0.43-0.64 s to encrypt (2 cores, Python 3.11.7).
Only a frame whose checksum matches reaches the semantic phase. It builds the
typed objects through their validating constructors, and `decode_prefix` alone
turns what they reject into SemanticDecodeError: entries >= p, wrong nilpotency
index, singular matrices, mismatched dimensions, and a composite modulus in
parameter and public-key frames. Ciphertext and private-key frames carry a
bare modulus that is not tested for primality: a composite one is caught only
when an elimination pivot shares a factor with it. It then differs from the
public key's prime, so `decrypt` returns None for such a ciphertext and raises
KeyMismatchError for such a private key.

A sealed file (`seal_file`, `open_file`) is "LGPF" ‖ version ‖ one ciphertext
frame sealing a fresh file key K ‖ u64 body length ‖ body (the data XOR a
keystream from K) ‖ HMAC-SHA256 tag, keyed from K, over everything before it.
"""

from __future__ import annotations

import hmac
import zlib
from typing import Optional, Union

from .bitstrings import BitStr, mask_tail, xor_bytes
from .errors import (
    AuthenticationError,
    CodecError,
    LgpkError,
    ParameterError,
    SemanticDecodeError,
    StructuralDecodeError,
)
from .hashsuite import DOMAIN_FILE, DOMAIN_FINGERPRINT, SUITE_ID, xof_bits
from .matfield import (
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    canonical_bytes,
)
from .sampler import RngHandle
from .scheme import FINGERPRINT_BYTES, Ciphertext, PrivateKey, PublicKey, decrypt, encrypt

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

SEALED_MAGIC = b"LGPF"
SEALED_VERSION = 0x01
MIN_FILE_KEY_BITS = 128  # a shorter file key K can be searched, whatever the scheme
HMAC_BYTES = 32  # the HMAC-SHA256 key and tag length


# ----------------------------------------------------------------- encoding

def _u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


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


def encode(obj: Encodable) -> bytes:
    """The frame of `obj`: its kind's layout, field by field in wire order."""
    kind = _KINDS.get(type(obj))
    if kind is None:
        raise CodecError(f"cannot encode objects of type {type(obj).__name__}")
    body = b"".join(
        FIELDS[field][0](obj if name is None else getattr(obj, name))
        for name, field in LAYOUTS[kind][1]
    )
    head = MAGIC + bytes([VERSION, kind]) + body
    return head + _u32(zlib.crc32(head))


def pk_fingerprint(pk: PublicKey) -> bytes:
    """Digest binding a private key to its public key: XOF over the encoded pk.

    Computed once per key object and kept on it; the key is frozen, so the
    digest cannot go stale.
    """
    if pk._fingerprint is None:
        digest = xof_bits(DOMAIN_FINGERPRINT, encode(pk), 8 * FINGERPRINT_BYTES)
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
    return nbits, bytes(data)


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
    body = r.take(n * n * plen)  # one read, bounded by the limits above
    entries = [int.from_bytes(body[k:k + plen], "big") for k in range(0, len(body), plen)]
    return n, p, tuple(tuple(entries[i:i + n]) for i in range(0, n * n, n))


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


def _read_suite_params_raw(r: _Reader) -> dict:
    params = _read_params_raw(r)
    if (suite := r.u8()) != SUITE_ID:
        raise StructuralDecodeError(f"unsupported hash suite {suite}")
    return params


# Each kind of field: (write its value, read its raw parts structurally,
# build its value from those parts through the validating constructors)
FIELDS = {
    "params": (_encode_params_body, _read_params_raw, lambda raw: ParameterSet(**raw)),
    "params+suite": (lambda ps: _encode_params_body(ps) + bytes([SUITE_ID]),
                     _read_suite_params_raw, lambda raw: ParameterSet(**raw)),
    "nilpotent": (lambda m: canonical_bytes(m.base) + bytes([m.index]),
                  lambda r: (_read_matrix_raw(r), r.u8()),
                  lambda raw: NilpotentMatrix(FieldMatrix(*raw[0]), raw[1])),
    "element": (canonical_bytes, _read_matrix_raw, lambda raw: GroupElement(*raw)),
    "bitstr": (lambda b: _u32(b.nbits) + b.data, _read_bitstr_raw, lambda raw: BitStr(*raw)),
    "fingerprint": (bytes, lambda r: r.take(FINGERPRINT_BYTES), bytes),
}

# The one statement of each frame body, which `encode` and `_read_body` both
# read: kind -> (type, its fields in wire order as (attribute, field kind)).
# A parameter frame's one field is the parameter set itself, named None.
LAYOUTS = {
    KIND_PARAMS: (ParameterSet, ((None, "params"),)),
    KIND_PUBLIC_KEY: (PublicKey, (("params", "params+suite"), ("left_gen", "nilpotent"),
                                  ("right_gen", "nilpotent"), ("key_product", "element"))),
    KIND_PRIVATE_KEY: (PrivateKey, (("pk_fingerprint", "fingerprint"),
                                    ("left_factor", "element"), ("right_factor", "element"))),
    KIND_CIPHERTEXT: (Ciphertext, (("sealed_seed", "bitstr"), ("rand_product", "element"),
                                   ("masked_msg", "bitstr"))),
}
_KINDS = {cls: kind for kind, (cls, _) in LAYOUTS.items()}


def _read_body(kind: int, r: _Reader):
    """Structural pass over one body of a checked kind: its type, and each
    field's name, raw parts and the call that builds it from them."""
    cls, fields = LAYOUTS[kind]
    return cls, [(name, FIELDS[field][1](r), FIELDS[field][2]) for name, field in fields]


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
    if kind not in LAYOUTS:
        raise StructuralDecodeError(f"unknown object kind 0x{kind:02x}")
    if expect_kind is not None and kind != expect_kind:
        raise StructuralDecodeError(f"expected kind 0x{expect_kind:02x}, found 0x{kind:02x}")
    cls, raws = _read_body(kind, r)
    claimed = int.from_bytes(r.take(4), "big")
    actual = zlib.crc32(data[offset:r.offset - 4])
    if claimed != actual:
        raise StructuralDecodeError("checksum mismatch")
    try:
        values = {name: build(raw) for name, raw, build in raws}
        return (values[None] if None in values else cls(**values)), r.offset
    except LgpkError as e:  # the validating constructors raise nothing else
        raise SemanticDecodeError(str(e)) from e


def decode(data: bytes, expect_kind: Optional[int] = None) -> Encodable:
    """Decode exactly one envelope; trailing bytes are a structural error."""
    obj, end = decode_prefix(data, 0, expect_kind)
    if end != len(data):
        raise StructuralDecodeError(f"{len(data) - end} trailing bytes after frame")
    return obj


# ------------------------------------------------------------- sealed files

def _file_key_bits(pk: PublicKey) -> int:
    if (bits := pk.params.msg_len) < MIN_FILE_KEY_BITS:
        raise ParameterError(f"file mode needs msg_len >= {MIN_FILE_KEY_BITS}, this key has {bits}")
    return bits


def _file_keys(key: BitStr, nbytes: int) -> tuple[bytes, int]:
    """From file key K: the MAC key, and an nbytes keystream as a little-endian int."""
    out = xof_bits(DOMAIN_FILE, key.data, 8 * (HMAC_BYTES + nbytes)).data
    return out[:HMAC_BYTES], int.from_bytes(out[HMAC_BYTES:], "little")


def seal_file(pk: PublicKey, data: bytes, rng: RngHandle) -> bytes:
    """Seal `data` under one `encrypt` of a fresh file key K, drawn before its seed."""
    key = rng.bitstr(_file_key_bits(pk))
    mac_key, stream = _file_keys(key, len(data))
    head = SEALED_MAGIC + bytes([SEALED_VERSION]) + encode(encrypt(pk, key, rng))
    sealed = head + len(data).to_bytes(8, "big") + xor_bytes(data, stream)
    return sealed + hmac.digest(mac_key, sealed, "sha256")


def read_sealed_header(blob: bytes) -> tuple[Ciphertext, int]:
    """Check the layout: magic and version, the KEM frame under `decode_prefix`'s
    limits, and a length field that counts the bytes up to the tag; allocate
    nothing from it. Return the KEM ciphertext and where the body starts."""
    head = SEALED_MAGIC + bytes([SEALED_VERSION])
    if not blob.startswith(head):
        raise StructuralDecodeError(f"not a sealed file of version {SEALED_VERSION}")
    ct, end = decode_prefix(blob, len(head), KIND_CIPHERTEXT)
    claimed, body = int.from_bytes(_Reader(blob, end).take(8), "big"), end + 8
    if claimed != len(blob) - body - HMAC_BYTES:
        raise StructuralDecodeError(f"length field {claimed} does not fit a {len(blob)}-byte file")
    return ct, body


def open_file(sk: PrivateKey, pk: PublicKey, blob: bytes) -> bytes:
    """Check the layout, run one `decrypt`, check the tag, only then unmask the body."""
    _file_key_bits(pk)
    ct, body = read_sealed_header(blob)
    key = decrypt(sk, pk, ct)
    if key is None:
        raise AuthenticationError("the file key failed the validity check")
    end = len(blob) - HMAC_BYTES
    mac_key, stream = _file_keys(key, end - body)
    if not hmac.compare_digest(hmac.digest(mac_key, blob[:end], "sha256"), blob[end:]):
        raise AuthenticationError("tag mismatch")
    return xor_bytes(blob[body:end], stream)
