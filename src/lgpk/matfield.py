"""Exact arithmetic over Z_p and over n x n matrices with Z_p entries.

Everything downstream (key generation, encryption, the attack solvers) is
built on the operations here, in particular the truncated exponential of a
nilpotent matrix, which lands in the unipotent subgroup of GL_n(p).

All values are immutable after construction and all reductions mod p are
eager, so every matrix has a single bit-exact representation.

Only the public constructors, which codec decoding uses, validate. Arithmetic
results are built unchecked by `bitstrings.trusted`: on validated inputs each
operation keeps entries reduced mod p, products invertible and, over the field
F_p, the index of a nonzero multiple of a nilpotent matrix.

Exponentials are evaluated from a table of the terms X^m/m! (1 <= m < index):
exp(tX) = I + sum of t^m * X^m/m!, with no matrix products. One rule decides
who keeps a table: every `NilpotentMatrix` does. Both constructors prove
nilpotency by walking X, X^2, ..., X^index, and they keep the table built from
those powers at no extra product.

Each term is one packed integer (Kronecker substitution): n^2 little-endian
slots, row-major from the lowest, of w = ceil((2*bits(p) + bits(n))/8) bytes
each, room for the sum of n-1 products of two residues: no slot carries into
the next. `_slots` is the one reader of the layout, for `exp_scaled` (index-1
big multiply-adds, then n^2 slot reductions) and for `term_rows`, the public
view of a table. A table holds index-1 terms of n^2 * w bytes: at the
paper profile (n = 5, 256-bit p) 4 x 1,625 bytes per generator, about 14 KB
per public key; at the codec's limits (n = 16, 4096-bit p) 15 x 262,400 bytes,
about 8.4 MB per key, twice a table of separate entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, isqrt, prod
from typing import Optional

from .bitstrings import trusted
from .errors import NotInvertibleError, NotNilpotentError, ParameterError

Rows = tuple[tuple[int, ...], ...]


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = b"\x00" * len(flags[i * i::i])
    return [i for i in range(limit) if flags[i]]


_SMALL_PRIMES = _sieve(1024)


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes below 1024, a strong
    probable-prime test to base 2, then a strong Lucas test with Selfridge's
    parameters.

    Deterministic, so parameter validation gives the same verdict everywhere.
    No composite is known to pass (Baillie and Wagstaff, "Lucas
    Pseudoprimes", Math. Comp. 35, 1980), and none below 2^64 does: every
    base-2 strong pseudoprime below 2^64 is enumerated (Feitsma and Galway)
    and each fails the Lucas test.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    if not _strong_base2(n):
        return False
    # a square has no D with (D/n) = -1, so the search below would not end
    if isqrt(n) ** 2 == n:
        return False
    d = 5  # Selfridge: the first of 5, -7, 9, -11, ... with (d/n) = -1
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False
        d = -d - 2 if d > 0 else -d + 2
    return _strong_lucas(n, (1 - d) // 4)


def _strong_base2(n: int) -> bool:
    """Strong probable-prime test to base 2 for odd n > 2."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int, q: int) -> bool:
    """Strong Lucas probable-prime test for odd n with P = 1, D = 1 - 4Q and
    (D/n) = -1.

    With n + 1 = k * 2^s and k odd, n passes when U_k = 0 or V_(k*2^r) = 0
    (mod n) for some 0 <= r < s. The ladder carries only (V_m, V_(m+1), Q^m),
    with V_2m = V_m^2 - 2Q^m and V_(2m+1) = V_m V_(m+1) - Q^m (Joye and
    Quisquater, "Efficient computation of full Lucas sequences", Electronics
    Letters 32, 1996). U_k follows from D U_k = 2V_(k+1) - V_k, and D is a unit
    mod n because (D/n) = -1, so U_k = 0 exactly when 2V_(k+1) = V_k.
    """
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    reduce_qm = q != -1  # else Q^m is +-1: unreduced, it costs no big product
    v, w, qm = 1, (1 - 2 * q) % n, q % n if reduce_qm else q  # V_1, V_2, Q^1
    for bit in bin(k)[3:]:
        if bit == "1":
            v, w, qm = (v * w - qm) % n, (w * w - 2 * qm * q) % n, qm * qm * q
        else:
            v, w, qm = (v * v - 2 * qm) % n, (v * w - qm) % n, qm * qm
        if reduce_qm:
            qm %= n
    if (2 * w - v) % n == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
        if v == 0:
            return True
    return False


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


def _not_prime(x: int, p: int) -> ParameterError:
    return ParameterError(f"{x % p} has no inverse mod {p}: the modulus must be prime")


def _inverse(x: int, p: int) -> int:
    """x^-1 mod p. A nonzero residue without one means p is composite."""
    try:
        return pow(x, -1, p)
    except ValueError:
        raise _not_prime(x, p) from None


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


def _check_compatible(a: FieldMatrix, b: FieldMatrix):
    if a.n != b.n or a.p != b.p:
        raise ParameterError(
            f"incompatible matrices: {a.n}x{a.n} mod {a.p} vs {b.n}x{b.n} mod {b.p}"
        )


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Schoolbook product reduced mod p. n is tiny here; exactness over speed."""
    _check_compatible(a, b)
    n, p = a.n, a.p
    bcols = list(zip(*b.rows))
    mul = operator.mul
    out = tuple([tuple([sum(map(mul, row, col)) % p for col in bcols]) for row in a.rows])
    return trusted(FieldMatrix, n=n, p=p, rows=out)


def _forward(rows, p: int) -> tuple[list[int], list[list[int]], int]:
    """The forward pass of `row_reduce`, to row echelon form. Rows below a
    pivot are zero left of its column, so their updates start at that column."""
    m = [[e % p for e in row] for row in rows]
    pivot_cols: list[int] = []
    scale = 1
    for col in range(len(m[0]) if m else 0):
        r = len(pivot_cols)
        top = next((i for i in range(r, len(m)) if m[i][col]), None)
        if top is None:
            continue
        if top != r:
            m[r], m[top] = m[top], m[r]
            scale = -scale
        head = m[r][col:]
        pivot = head[0]
        if gcd(pivot, p) != 1:
            raise _not_prime(pivot, p)
        for row in m[r + 1:]:
            f = row[col]
            if f:
                row[col:] = [(pivot * x - f * y) % p for x, y in zip(row[col:], head)]
                scale = scale * pivot % p
        pivot_cols.append(col)
    return pivot_cols, m, scale


def row_reduce(rows, p: int) -> tuple[list[int], list[list[int]]]:
    """The reduced row echelon form mod p of a matrix of any shape.

    The pivot of each column is its first nonzero entry at or below the next
    pivot row. Each pivot clears the rows below it (`_forward`); then, from the
    last pivot up, each pivot row is scaled to a pivot of 1 and clears its
    column in the rows above. A pivot sharing a factor with p raises
    ParameterError: p is composite. Returns (pivot_cols, reduced): the rank is
    len(pivot_cols), and column pivot_cols[i] is 1 in reduced row i and 0 in
    every other row. That form is unique to the row space, so reordering the
    rows or scaling them by units leaves the result unchanged.
    """
    pivot_cols, m, _ = _forward(rows, p)
    for r in reversed(range(len(pivot_cols))):
        col = pivot_cols[r]
        inv = _inverse(m[r][col], p)
        head = m[r] = [x * inv % p for x in m[r]]
        for i, row in enumerate(m[:r]):
            f = row[col]
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(row, head)]
    return pivot_cols, m


def det(a: FieldMatrix) -> int:
    """Determinant mod p from the forward pass (triangular) and one inverse."""
    n, p = a.n, a.p
    pivot_cols, m, scale = _forward(a.rows, p)
    if len(pivot_cols) < n:
        return 0
    return prod(m[i][i] for i in range(n)) * _inverse(scale, p) % p


def is_invertible(a: FieldMatrix) -> bool:
    """Whether a has full rank mod p: the pivots of the forward pass alone."""
    return len(_forward(a.rows, a.p)[0]) == a.n


def mat_inv(a: FieldMatrix) -> "GroupElement":
    """Inverse mod p from the reduced row echelon form of [a | I]: a is singular
    when a pivot falls right of column n-1, else the right half is a^-1."""
    n, p = a.n, a.p
    pivot_cols, m = row_reduce(
        [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(a.rows)], p
    )
    if pivot_cols[n - 1] >= n:
        raise NotInvertibleError(f"matrix is singular mod {p}")
    rows = tuple(tuple(row[n:]) for row in m)
    return trusted(GroupElement, mat=trusted(FieldMatrix, n=n, p=p, rows=rows))


def _nilpotency_proof(a: FieldMatrix, claim: Optional[int] = None) -> list[FieldMatrix]:
    """The chain a, a^2, ..., a^index, which ends at the first zero power, so
    it costs index-1 products. Raises NotNilpotentError, naming the `claim`ed
    index if one is given, when a^n is not zero.

    Over a field the nilpotency index never exceeds n, so the chain up to a^n
    settles the question. Over Z_p with p composite a matrix whose n-th power
    is nonzero is not nilpotent here, even if a higher power vanishes.
    """
    powers = [a]
    while any(map(any, powers[-1].rows)):
        if len(powers) == a.n:
            claimed = f" of index {claim}" if claim else ""
            raise NotNilpotentError(f"matrix is not nilpotent{claimed}")
        powers.append(mat_mul(powers[-1], a))
    return powers


def is_nilpotent(a: FieldMatrix) -> tuple[bool, Optional[int]]:
    """(True, l) with the minimal l <= n such that a^l = 0, else (False, None)."""
    try:
        return True, len(_nilpotency_proof(a))
    except NotNilpotentError:
        return False, None


def commutes(a: FieldMatrix, b: FieldMatrix) -> bool:
    """Whether ab = ba mod p. Compares the products entry by entry, building no
    matrix, and returns at the first entry that differs."""
    _check_compatible(a, b)
    p = a.p
    acols, bcols = tuple(zip(*a.rows)), tuple(zip(*b.rows))
    for arow, brow in zip(a.rows, b.rows):
        for acol, bcol in zip(acols, bcols):
            if (sum(map(operator.mul, arow, bcol)) - sum(map(operator.mul, brow, acol))) % p:
                return False
    return True


@dataclass(frozen=True)
class NilpotentMatrix:
    """A FieldMatrix proven nilpotent, its exact index, and the table `_terms`
    of packed X^m/m! (1 <= m < index; format in the module docstring) that
    exp_scaled reads. Both constructors keep the table built from the powers
    their proof walks, for as long as the matrix lives. `_terms` is not a
    field, so equality, hash, repr and the codec ignore it. When some m! has
    no inverse mod p (p <= n, or p composite), both constructors raise
    ParameterError."""

    base: FieldMatrix
    index: int

    def __post_init__(self):
        """Prove the claimed index: the proof's chain ends at a^index."""
        a, k = self.base, self.index
        if not 1 <= k <= a.n:
            raise NotNilpotentError(f"nilpotency index {k} outside [1, {a.n}]")
        powers = _nilpotency_proof(a, k)
        if len(powers) != k:
            raise NotNilpotentError(f"nilpotency index is {len(powers)}, not {k}")
        object.__setattr__(self, "_terms", _table(powers[:-1], a.n, a.p))

    @classmethod
    def from_matrix(cls, a: FieldMatrix) -> "NilpotentMatrix":
        """Prove nilpotency and keep the minimal index."""
        powers = _nilpotency_proof(a)
        return trusted(cls, base=a, index=len(powers), _terms=_table(powers[:-1], a.n, a.p))


@dataclass(frozen=True)
class GroupElement:
    """An invertible FieldMatrix, i.e. an element of GL_n(p)."""

    mat: FieldMatrix

    def __post_init__(self):
        if not is_invertible(self.mat):
            raise NotInvertibleError("group element must be invertible")


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in GL_n(p). Invertibility is closed, so skip the invertibility check."""
    return trusted(GroupElement, mat=mat_mul(a.mat, b.mat))


def _slot_bytes(n: int, p: int) -> int:
    """Bytes per slot of a packed term (index <= n, so at most n-1 terms)."""
    return (2 * p.bit_length() + n.bit_length() + 7) // 8


def _slots(packed: int, n: int, w: int) -> list[int]:
    """The n^2 unreduced slots of w bytes of a packed value, row-major."""
    raw = packed.to_bytes(n * n * w, "little")  # OverflowError if it is wider
    return [int.from_bytes(raw[k:k + w], "little") for k in range(0, len(raw), w)]


def _table(powers: list[FieldMatrix], n: int, p: int) -> tuple[int, ...]:
    """The packed terms a^m/m! mod p for the powers a, a^2, ... given. Raises
    ParameterError when p <= n or when some m! has no inverse mod p (a
    composite p).
    """
    if p <= n:
        raise ParameterError(f"need p > n for factorial inverses (p={p}, n={n})")
    w = _slot_bytes(n, p)
    terms = []
    fact = 1
    for m, power in enumerate(powers, 1):
        fact = fact * m % p
        c = _inverse(fact, p)
        slots = b"".join([(c * e % p).to_bytes(w, "little") for row in power.rows for e in row])
        terms.append(int.from_bytes(slots, "little"))
    return tuple(terms)


def term_rows(x: NilpotentMatrix) -> tuple[Rows, ...]:
    """The rows of each kept term X^m/m! mod p, 1 <= m < index: a basis of
    the span that every exp(tX) - I lies in."""
    n, w = x.base.n, _slot_bytes(x.base.n, x.base.p)
    slots = [_slots(term, n, w) for term in x._terms]
    return tuple([tuple([tuple(s[k:k + n]) for k in range(0, n * n, n)]) for s in slots])


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
    Sums c_m * T_m with c_m = t^m mod p over x's packed terms T_m, unpacks the
    sum once and reduces each slot; builds no matrix product.
    """
    if t < 0:
        raise ParameterError("scalar must be non-negative")
    n, p = x.base.n, x.base.p
    acc, c = 0, 1
    for term in x._terms:
        c = c * t % p
        acc += c * term
    entries = _slots(acc, n, _slot_bytes(n, p))
    for k in range(0, n * n, n + 1):
        entries[k] += 1  # the identity
    rows = tuple([tuple([e % p for e in entries[k:k + n]]) for k in range(0, n * n, n)])
    return trusted(GroupElement, mat=trusted(FieldMatrix, n=n, p=p, rows=rows))


def canonical_bytes(a: FieldMatrix) -> bytes:
    """Canonical byte encoding used by hashing, serialization, and table keys.

    Layout: 4-byte big-endian n, then p length-prefixed (4-byte big-endian
    length, minimal big-endian bytes), then the n^2 entries row-major, each a
    fixed-width big-endian string of ceil(bitlen(p)/8) bytes.
    """
    width = (a.p.bit_length() + 7) // 8
    return b"".join([
        a.n.to_bytes(4, "big"), width.to_bytes(4, "big"), a.p.to_bytes(width, "big"),
        *[e.to_bytes(width, "big") for row in a.rows for e in row],
    ])
