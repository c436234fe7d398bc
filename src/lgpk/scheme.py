"""Key generation, encryption, and decryption.

The public key carries two non-commuting nilpotent generators and the product
of two secret exponentials of them; a ciphertext sandwiches that product
between fresh exponentials whose scalars are derived by hashing (seed,
message). Decryption strips the sandwich with the stored secret factors,
then re-encrypts and compares before releasing the message, so any tampering
collapses to a single opaque rejection.

Ops of interest can be tallied in an optional collections.Counter, under the
keys "exp_maps" (exponential-map evaluations) and "group_mults" (group
multiplications); encryption performs exactly 2 and 3, decryption exactly 2
and 5, and each routine adds its fixed counts to the Counter once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .bitstrings import BitStr
from .errors import KeyMismatchError, ParameterError
from .hashsuite import h1, h2, h3
from .matfield import (
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    commutes,
    exp_scaled,
    group_mul,
    require_type,
)
from .sampler import RngHandle, sample_noncommuting_pair

FINGERPRINT_BYTES = 32


@dataclass(frozen=True)
class PublicKey:
    """Parameters, the two nilpotent generators, and the published product
    key_product = exp(left_secret * left_gen) * exp(right_secret * right_gen)."""

    params: ParameterSet
    left_gen: NilpotentMatrix
    right_gen: NilpotentMatrix
    key_product: GroupElement
    # codec.pk_fingerprint's digest, kept once computed. A class attribute,
    # not a field: equality, hash, repr and the codec ignore it.
    _fingerprint = None

    def __post_init__(self):
        require_type("params", self.params, ParameterSet)
        require_type("left_gen", self.left_gen, NilpotentMatrix)
        require_type("right_gen", self.right_gen, NilpotentMatrix)
        require_type("key_product", self.key_product, GroupElement)
        n, p = self.params.n, self.params.p
        named = (
            ("left generator", self.left_gen),
            ("right generator", self.right_gen),
            ("key product", self.key_product),
        )
        for name, m in named:
            if m.n != n or m.p != p:
                raise ParameterError(f"{name} does not match the parameter set")
        if commutes(self.left_gen, self.right_gen):
            raise ParameterError("generators must not commute")


@dataclass(frozen=True)
class PrivateKey:
    """The two secret exponential factors whose product is the pk's
    key_product, plus a fingerprint binding this key to that pk.

    The scalar exponents themselves are never stored.
    """

    left_factor: GroupElement
    right_factor: GroupElement
    pk_fingerprint: bytes

    def __post_init__(self):
        require_type("left_factor", self.left_factor, GroupElement)
        require_type("right_factor", self.right_factor, GroupElement)
        require_type("pk_fingerprint", self.pk_fingerprint, bytes)
        a, b = self.left_factor, self.right_factor
        if a.n != b.n or a.p != b.p:
            raise ParameterError("secret factors live in different groups")
        if len(self.pk_fingerprint) != FINGERPRINT_BYTES:
            raise ParameterError(f"fingerprint must be {FINGERPRINT_BYTES} bytes")


@dataclass(frozen=True)
class Ciphertext:
    """sealed_seed: seed xor hash of the sandwiched product; rand_product:
    product of the two randomizer exponentials; masked_msg: message xor
    seed-derived pad."""

    sealed_seed: BitStr
    rand_product: GroupElement
    masked_msg: BitStr

    def __post_init__(self):
        require_type("sealed_seed", self.sealed_seed, BitStr)
        require_type("rand_product", self.rand_product, GroupElement)
        require_type("masked_msg", self.masked_msg, BitStr)


def keygen(params: ParameterSet, rng: RngHandle) -> tuple[PublicKey, PrivateKey]:
    """Sample generators and secret scalars, publish the product, keep the factors.

    The scalars are dropped before returning (best effort: Python offers no
    memory scrubbing); only their exponential images survive in the private key.
    """
    left_gen, right_gen = sample_noncommuting_pair(params.n, params.p, rng)
    left_secret = rng.randbits(params.kappa3)
    right_secret = rng.randbits(params.kappa4)
    left_factor = exp_scaled(left_secret, left_gen)
    right_factor = exp_scaled(right_secret, right_gen)
    del left_secret, right_secret
    key_product = group_mul(left_factor, right_factor)
    pk = PublicKey(params, left_gen, right_gen, key_product)
    from .codec import pk_fingerprint  # deferred: codec imports this module's types

    sk = PrivateKey(left_factor, right_factor, pk_fingerprint(pk))
    return pk, sk


def _seal(pk: PublicKey, seed: BitStr, m: BitStr, ops: Optional[Counter]) -> Ciphertext:
    """The deterministic core of encryption: 2 exponential maps, 3 group
    multiplications. Encryption seals a fresh seed; decryption re-seals the
    seed it recovered and compares, so the scheme encrypts in one place."""
    params = pk.params
    r_left, r_right = h1(params, seed, m)
    left_rand = exp_scaled(r_left, pk.left_gen)
    right_rand = exp_scaled(r_right, pk.right_gen)
    inner = group_mul(left_rand, pk.key_product)
    sandwich = group_mul(inner, right_rand)
    rand_product = group_mul(left_rand, right_rand)
    if ops is not None:
        ops.update(exp_maps=2, group_mults=3)
    sealed_seed = h2(params, sandwich) ^ seed
    masked_msg = h3(params, seed) ^ m
    return Ciphertext(sealed_seed, rand_product, masked_msg)


def encrypt(
    pk: PublicKey, m: BitStr, rng: RngHandle, ops: Optional[Counter] = None
) -> Ciphertext:
    """Encrypt an msg_len-bit message: 2 exponential maps, 3 group multiplications.
    `h1`, the first step of the seal, rejects a message of another length."""
    return _seal(pk, rng.bitstr(pk.params.kappa2), m, ops)


def decrypt(
    sk: PrivateKey, pk: PublicKey, ct: Ciphertext, ops: Optional[Counter] = None
) -> Optional[BitStr]:
    """Recover the message, or None if the ciphertext fails the re-encryption check.

    2 exponential maps and 5 group multiplications: two multiplications to
    strip the sandwich, then a full re-encryption (2 exp, 3 mul) whose output
    must reproduce the ciphertext bit for bit. Malformed and tampered inputs
    are indistinguishable: both yield the same opaque None.
    """
    from .codec import pk_fingerprint  # deferred: codec imports this module's types

    if sk.pk_fingerprint != pk_fingerprint(pk):
        raise KeyMismatchError("private key is not bound to this public key")
    params = pk.params
    if sk.left_factor.n != params.n or sk.left_factor.p != params.p:
        raise KeyMismatchError("private key factors do not live in the public key's group")
    if ct.sealed_seed.nbits != params.kappa2 or ct.masked_msg.nbits != params.msg_len:
        return None
    if ct.rand_product.n != params.n or ct.rand_product.p != params.p:
        return None
    inner = group_mul(sk.left_factor, ct.rand_product)
    sandwich = group_mul(inner, sk.right_factor)
    if ops is not None:
        ops.update(group_mults=2)
    seed = ct.sealed_seed ^ h2(params, sandwich)
    m = ct.masked_msg ^ h3(params, seed)
    # comparisons are bitwise on the canonical representations
    return m if _seal(pk, seed, m, ops) == ct else None
