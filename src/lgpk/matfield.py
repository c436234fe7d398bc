"""Exact arithmetic over Z_p and over n x n matrices with Z_p entries.

Everything downstream (key generation, encryption, the attack solvers) is
built on the operations here, in particular the truncated exponential of a
nilpotent matrix, which lands in the unipotent subgroup of GL_n(p).

All values are immutable after construction and all reductions mod p are
eager, so every matrix has a single bit-exact representation.

Only the public constructors, which codec decoding uses, validate. Arithmetic
results are built unchecked by `_trusted`: on validated inputs each operation
keeps entries reduced mod p, products invertible and, over the field F_p, the
index of a nonzero multiple of a nilpotent matrix.

Exponentials are evaluated from a table of the terms X^m/m! (1 <= m < index):
exp(tX) = I + sum of t^m * X^m/m!, one scalar-times-matrix pass per term and
no matrix products. Building the table costs index-2 products. Only the two
generators of a public key keep their table (about 12 KB at the paper
profile), because every encryption and decryption exponentiates them again.
Every other nilpotent matrix, such as the thousands of generators the attack
solvers plant, builds a table per call and drops it, so memory stays bounded
by the number of live keys rather than the number of matrices ever made.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from typing import Optional

from .errors import NotInvertibleError, NotNilpotentError, ParameterError

Rows = tuple[tuple[int, ...], ...]


def is_probable_prime(n: int, rounds: int = 64) -> bool:
    """Miller-Rabin with bases drawn from a SHAKE-256 stream seeded by n.

    Deterministic for a given n, so parameter validation gives the same
    verdict everywhere. 64 rounds puts the error probability below 2^-128.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    nbytes = (n.bit_length() + 7) // 8
    xof = hashlib.shake_256(b"lgpk.primecheck.v1" + n.to_bytes(nbytes, "big"))
    stream = xof.digest(rounds * (nbytes + 8))
    for i in range(rounds):
        chunk = stream[i * (nbytes + 8):(i + 1) * (nbytes + 8)]
        a = 2 + int.from_bytes(chunk, "big") % (n - 3)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ParameterSet:
    """Security parameters: prime bit length kappa1, rank n, the prime p itself,
    randomness length kappa2, exponent lengths kappa3/kappa4, message length.

    `toy` marks parameter sets below the production rank requirement (n >= 5);
    toy sets are legal for tests and the attack harness but must stay labeled.
    """

    kappa1: int
    n: int
    p: int
    kappa2: int
    kappa3: int
    kappa4: int
    msg_len: int
    toy: bool = True

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError(f"rank n must be >= 2, got {self.n}")
        if not self.toy and self.n < 5:
            raise ParameterError(f"production parameters require n >= 5, got {self.n}")
        if self.p.bit_length() != self.kappa1:
            raise ParameterError(f"p has {self.p.bit_length()} bits, expected kappa1={self.kappa1}")
        if self.p <= self.n:
            raise ParameterError(f"p must exceed n so factorial inverses exist (p={self.p}, n={self.n})")
        if not is_probable_prime(self.p):
            raise ParameterError(f"p={self.p} is not prime")
        # The one-parameter subgroup only sees scalars mod p, so exponents longer
        # than p's bit length would silently shrink the effective keyspace.
        if self.kappa3 > self.kappa1 or self.kappa4 > self.kappa1:
            raise ParameterError("kappa3 and kappa4 must not exceed kappa1")
        for name in ("kappa2", "kappa3", "kappa4", "msg_len"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be positive")


def _trusted(cls, **fields):
    """Build a frozen value of `cls` from known-good fields without running
    its `__post_init__` checks. Only for results of arithmetic on values that
    were already validated; outside input goes through the public constructors.
    """
    obj = object.__new__(cls)
    # attribute by attribute, so the instance keeps the compact shared-key
    # layout; filling obj.__dict__ would allocate a full dict per value
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _inverse(x: int, p: int) -> int:
    """x^-1 mod p. A nonzero residue without one means p is composite."""
    try:
        return pow(x, -1, p)
    except ValueError:
        raise ParameterError(f"{x % p} has no inverse mod {p}: the modulus must be prime") from None


def _is_zero(a: "FieldMatrix") -> bool:
    return not any(map(any, a.rows))


@dataclass(frozen=True)
class FieldMatrix:
    """An n x n matrix over Z_p; entries are reduced residues in [0, p)."""

    n: int
    p: int
    rows: Rows

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("matrix dimension must be >= 1")
        if self.p < 2:
            raise ParameterError("modulus must be >= 2")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ParameterError(f"expected {self.n}x{self.n} rows")
        for row in self.rows:
            for e in row:
                if not 0 <= e < self.p:
                    raise ParameterError(f"entry {e} out of range [0, {self.p})")

    @classmethod
    def from_rows(cls, rows, p: int) -> "FieldMatrix":
        n = len(rows)
        return cls(n, p, tuple(tuple(e % p for e in row) for row in rows))


def identity(n: int, p: int) -> FieldMatrix:
    return FieldMatrix(n, p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def zeros(n: int, p: int) -> FieldMatrix:
    return FieldMatrix(n, p, tuple((0,) * n for _ in range(n)))


def _check_compatible(a: FieldMatrix, b: FieldMatrix):
    if a.n != b.n or a.p != b.p:
        raise ParameterError(
            f"incompatible matrices: {a.n}x{a.n} mod {a.p} vs {b.n}x{b.n} mod {b.p}"
        )


def mat_add(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    _check_compatible(a, b)
    p = a.p
    return _trusted(FieldMatrix, n=a.n, p=p, rows=tuple(
        tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows)
    ))


def mat_neg(a: FieldMatrix) -> FieldMatrix:
    p = a.p
    rows = tuple(tuple((-x) % p for x in row) for row in a.rows)
    return _trusted(FieldMatrix, n=a.n, p=p, rows=rows)


def mat_scale(c: int, a: FieldMatrix) -> FieldMatrix:
    p = a.p
    c %= p
    rows = tuple(tuple((c * x) % p for x in row) for row in a.rows)
    return _trusted(FieldMatrix, n=a.n, p=p, rows=rows)


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Schoolbook product reduced mod p. n is tiny here; exactness over speed."""
    _check_compatible(a, b)
    n, p = a.n, a.p
    bcols = tuple(zip(*b.rows))
    out = tuple(
        tuple(sum(map(operator.mul, row, col)) % p for col in bcols)
        for row in a.rows
    )
    return _trusted(FieldMatrix, n=n, p=p, rows=out)


def det(a: FieldMatrix) -> int:
    """Determinant mod p by Gaussian elimination with row swaps."""
    n, p = a.n, a.p
    m = [list(row) for row in a.rows]
    d = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            d = -d
        inv = _inverse(m[col][col], p)
        d = d * m[col][col] % p
        for r in range(col + 1, n):
            factor = m[r][col] * inv % p
            if factor:
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
    return d % p


def mat_inv(a: FieldMatrix) -> "GroupElement":
    """Inverse mod p by Gauss-Jordan elimination; raises if singular."""
    n, p = a.n, a.p
    m = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a.rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] % p != 0), None)
        if pivot is None:
            raise NotInvertibleError(f"matrix is singular mod {p}")
        m[col], m[pivot] = m[pivot], m[col]
        inv = _inverse(m[col][col], p)
        m[col] = [x * inv % p for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [(x - factor * y) % p for x, y in zip(m[r], m[col])]
    rows = tuple(tuple(m[i][n:]) for i in range(n))
    return _trusted(GroupElement, mat=_trusted(FieldMatrix, n=n, p=p, rows=rows))


def is_nilpotent(a: FieldMatrix) -> tuple[bool, Optional[int]]:
    """Return (True, l) with the minimal l <= n such that a^l = 0, else (False, None).

    Over a field the nilpotency index never exceeds n, so n iterated products
    settle the question.
    """
    power = a
    for ell in range(1, a.n + 1):
        if _is_zero(power):
            return True, ell
        power = mat_mul(power, a)
    return (True, a.n) if _is_zero(power) else (False, None)


def commutes(a: FieldMatrix, b: FieldMatrix) -> bool:
    _check_compatible(a, b)
    return mat_mul(a, b) == mat_mul(b, a)


@dataclass(frozen=True)
class NilpotentMatrix:
    """A FieldMatrix proven nilpotent, together with its exact index."""

    base: FieldMatrix
    index: int
    # The X^m/m! table that exp_scaled reads, or None to build one per call.
    # A class attribute, not a field: equality, hash, repr and the codec ignore it.
    _terms = None

    def keep_exp_terms(self) -> None:
        """Store this matrix's exponential table on it, for a generator that
        is exponentiated again and again (a public key's)."""
        object.__setattr__(self, "_terms", _exp_terms(self))

    def __post_init__(self):
        n = self.base.n
        if not 1 <= self.index <= n:
            raise NotNilpotentError(f"nilpotency index {self.index} outside [1, {n}]")
        power = identity(n, self.base.p)
        for _ in range(self.index - 1):
            power = mat_mul(power, self.base)
        if self.index > 1 and _is_zero(power):
            raise NotNilpotentError(f"index {self.index} is not minimal")
        if not _is_zero(mat_mul(power, self.base)):
            raise NotNilpotentError(f"matrix is not nilpotent of index {self.index}")

    @classmethod
    def from_matrix(cls, a: FieldMatrix) -> "NilpotentMatrix":
        """Keep the minimal index `is_nilpotent` proved; no second proof."""
        ok, ell = is_nilpotent(a)
        if not ok:
            raise NotNilpotentError("matrix is not nilpotent")
        return _trusted(cls, base=a, index=ell)


@dataclass(frozen=True)
class GroupElement:
    """An invertible FieldMatrix, i.e. an element of GL_n(p)."""

    mat: FieldMatrix

    def __post_init__(self):
        if det(self.mat) == 0:
            raise NotInvertibleError("group element must be invertible")

    def inverse(self) -> "GroupElement":
        return mat_inv(self.mat)


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in GL_n(p). Invertibility is closed, so skip the determinant check."""
    return _trusted(GroupElement, mat=mat_mul(a.mat, b.mat))


def _exp_terms(x: NilpotentMatrix) -> tuple[Rows, ...]:
    """The rows of X^m/m! mod p for 1 <= m < index, from index-2 products.

    The m=1 term is x.base.rows itself. Raises ParameterError when p <= n or
    when some m! has no inverse mod p (a composite p).
    """
    base = x.base
    n, p = base.n, base.p
    if p <= n:
        raise ParameterError(f"need p > n for factorial inverses (p={p}, n={n})")
    terms = []
    power = base
    fact = 1
    for m in range(1, x.index):
        if m > 1:
            power = mat_mul(power, base)
        fact = fact * m % p
        c = _inverse(fact, p)
        terms.append(tuple(tuple(c * e % p for e in row) for row in power.rows) if m > 1 else power.rows)
    return tuple(terms)


def mat_exp(x: NilpotentMatrix) -> GroupElement:
    """Truncated exponential sum over m < index of x^m / m!, taken mod p.

    The series is finite because x is nilpotent, and every factorial inverse
    exists because index <= n < p. The result is unipotent, hence invertible
    with determinant 1.
    """
    return exp_scaled(1, x)


def exp_scaled(t: int, x: NilpotentMatrix) -> GroupElement:
    """Exponential of t*x for a non-negative integer scalar t, reduced mod p.

    t -> exp_scaled(t, x) is a one-parameter subgroup of GL_n(p): it maps 0 to
    the identity and addition of scalars (mod p) to multiplication of images.
    Uses x's stored term table when it has one, else builds one for this call.
    """
    if t < 0:
        raise ParameterError("scalar must be non-negative")
    terms = x._terms if x._terms is not None else _exp_terms(x)
    n, p = x.base.n, x.base.p
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    c = 1
    for term in terms:
        c = c * t % p
        for acc_row, row in zip(acc, term):
            for j, e in enumerate(row):
                acc_row[j] += c * e
    rows = tuple(tuple(e % p for e in row) for row in acc)
    return _trusted(GroupElement, mat=_trusted(FieldMatrix, n=n, p=p, rows=rows))


def canonical_bytes(a: FieldMatrix) -> bytes:
    """Canonical byte encoding used by hashing, serialization, and table keys.

    Layout: 4-byte big-endian n, then p length-prefixed (4-byte big-endian
    length, minimal big-endian bytes), then the n^2 entries row-major, each a
    fixed-width big-endian string of ceil(bitlen(p)/8) bytes.
    """
    width = (a.p.bit_length() + 7) // 8
    parts = [a.n.to_bytes(4, "big"), width.to_bytes(4, "big"), a.p.to_bytes(width, "big")]
    for row in a.rows:
        for e in row:
            parts.append(e.to_bytes(width, "big"))
    return b"".join(parts)
