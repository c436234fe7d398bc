"""Randomness, the samplers key generation needs, and the parameter profiles.

A seeded RngHandle expands its seed through SHAKE-256 in counter mode, so the
whole sample transcript is reproducible bit-for-bit; unseeded handles read OS
entropy. Everything above the handle (primes, invertible matrices, nilpotent
matrices, non-commuting pairs) draws only through it. The rejection loops
assume a handle whose stream is not degenerate: on a constant stream they
never terminate.
"""

from __future__ import annotations

import hashlib
import os

from .bitstrings import BitStr, trusted
from .errors import NotInvertibleError, ParameterError
from .matfield import (
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    commutes,
    is_probable_prime,
    mat_inv,
    mat_mul,
)

_DOMAIN = b"lgpk.rng.v1"
_BLOCK = 136  # SHAKE-256 rate in bytes; one squeeze per counter step

# ParameterSet fields per profile; make_params samples the prime p
PROFILES = {
    "toy": dict(kappa1=8, n=2, kappa2=64, kappa3=8, kappa4=8, msg_len=128, toy=True),
    "small": dict(kappa1=32, n=3, kappa2=64, kappa3=16, kappa4=16, msg_len=128, toy=True),
    "paper": dict(kappa1=256, n=5, kappa2=256, kappa3=128, kappa4=128, msg_len=256, toy=False),
}


class RngHandle:
    """Uniform byte source: OS entropy, or a deterministic SHAKE-256 stream.

    Same seed, same byte sequence — the contract every KAT depends on. A
    handle is single-consumer; give each thread its own.
    """

    def __init__(self, seed: bytes | None = None):
        if seed is not None and not isinstance(seed, bytes):
            raise ParameterError("seed must be bytes or None")
        self._seed = seed
        self._counter = 0
        self._buf = b""

    def take(self, nbytes: int) -> bytes:
        if nbytes < 0:
            raise ParameterError("cannot take a negative number of bytes")
        if self._seed is None:
            return os.urandom(nbytes)
        while len(self._buf) < nbytes:
            block = hashlib.shake_256(
                _DOMAIN + self._seed + self._counter.to_bytes(8, "big")
            ).digest(_BLOCK)
            self._counter += 1
            self._buf += block
        out, self._buf = self._buf[:nbytes], self._buf[nbytes:]
        return out

    def randbits(self, k: int) -> int:
        """Uniform integer in [0, 2^k)."""
        if k < 0:
            raise ParameterError("bit count must be non-negative")
        raw = int.from_bytes(self.take((k + 7) // 8), "big")
        return raw & ((1 << k) - 1)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        if bound < 1:
            raise ParameterError("bound must be positive")
        if bound == 1:
            return 0
        k = bound.bit_length()
        while True:
            v = self.randbits(k)
            if v < bound:
                return v

    def bitstr(self, nbits: int) -> BitStr:
        return BitStr.from_int(self.randbits(nbits), nbits)


def sample_prime(bits: int, rng: RngHandle) -> int:
    """Probable prime of exactly `bits` bits (top bit forced, odd): the first
    candidate that passes the Baillie-PSW check `is_probable_prime`."""
    if bits < 3:
        raise ParameterError("prime bit length must be >= 3")
    while True:
        cand = rng.randbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(cand):
            return cand


def make_params(profile_name: str, rng: RngHandle) -> ParameterSet:
    """The profile's constant fields and a fresh prime, which `sample_prime`
    has just proved: the set is built without proving it again."""
    fields = PROFILES[profile_name]
    return trusted(ParameterSet, p=sample_prime(fields["kappa1"], rng), **fields)


def sample_matrix(n: int, p: int, rng: RngHandle) -> FieldMatrix:
    """Uniformly random n x n matrix over Z_p."""
    return FieldMatrix(
        n, p, tuple(tuple(rng.below(p) for _ in range(n)) for _ in range(n))
    )


def _draw_invertible(n: int, p: int, rng: RngHandle) -> tuple[FieldMatrix, GroupElement]:
    """(Q, Q^-1) for a uniform Q in GL_n(p), by rejection: redraw until the
    one reduction of [Q | I] finds Q invertible. Acceptance probability is
    prod_{k=1..n}(1 - p^-k), close to 1 for any p of cryptographic size."""
    while True:
        q = sample_matrix(n, p, rng)
        try:
            return q, mat_inv(q)
        except NotInvertibleError:
            pass


def sample_invertible(n: int, p: int, rng: RngHandle) -> GroupElement:
    """Uniform element of GL_n(p); mat_inv has just proved it invertible."""
    return trusted(GroupElement, n=n, p=p, rows=_draw_invertible(n, p, rng)[0].rows)


def sample_nilpotent(n: int, p: int, rng: RngHandle) -> NilpotentMatrix:
    """Random nilpotent matrix of index >= 2: a nonzero strictly
    upper-triangular matrix conjugated into general position.

    Every nilpotent matrix over a field is similar to a strictly triangular
    one, so the construction reaches the whole nilpotent cone; conjugation
    hides the triangular shape. Index 1 (the zero matrix) is excluded because
    it would make the exponential trivial.
    """
    if n < 2:
        raise ParameterError("nilpotent sampling needs n >= 2")
    while True:
        upper = tuple(
            tuple(rng.below(p) if j > i else 0 for j in range(n)) for i in range(n)
        )
        if any(any(row) for row in upper):
            break
    q, q_inv = _draw_invertible(n, p, rng)
    base = mat_mul(mat_mul(q, FieldMatrix(n, p, upper)), q_inv)
    return NilpotentMatrix.from_matrix(base)


def sample_noncommuting_pair(
    n: int, p: int, rng: RngHandle
) -> tuple[NilpotentMatrix, NilpotentMatrix]:
    """Two independent nilpotent samples with S·T != T·S (so also S != T).

    Commuting draws are vanishingly rare, so rejection terminates almost
    immediately.
    """
    while True:
        s = sample_nilpotent(n, p, rng)
        t = sample_nilpotent(n, p, rng)
        if not commutes(s.base, t.base):
            return s, t
