"""Exact arithmetic over Z_p and over n x n matrices with Z_p entries.

Everything downstream (key generation, encryption, the attack solvers) is
built on the operations here, in particular the truncated exponential of a
nilpotent matrix, which lands in the unipotent subgroup of GL_n(p).

All values are immutable after construction and all reductions mod p are
eager, so every matrix has a single bit-exact representation, tuple rows of
`int` residues. A matrix with a proof is a `FieldMatrix` subclass: a
`GroupElement` is one proven invertible, and a `NilpotentMatrix` one proven
nilpotent, with its index. `mat_mul` of two group elements is one, since
GL_n(p) is closed under products; every other product is a plain matrix.

Only the public constructors, which codec decoding uses, validate. Arithmetic
results are built unchecked by `bitstrings.trusted`: on validated inputs each
operation keeps entries reduced mod p, products invertible and, over the field
F_p, the index of a nonzero multiple of a nilpotent matrix.

Every matrix product runs a straight-line kernel that `_product_kernel(n)`
compiles once per process and dimension: `mat_mul` through `rows_mul`, the
rows-level product that the factoring solvers call on bare row tuples, which
always multiplies by an n x n matrix. A kernel's source text is built from
range(n) alone, never from p or matrix data, so one kernel serves every
modulus and the cache holds one entry per dimension: at most 15 for the keys
the codec accepts (2 <= n <= 16). It does the exact integer sums of a triple
loop (125 multiplications and 25 reductions at n = 5) with no `map` or `sum`
per entry, and its compile time grows with its n^2 entries.

Exponentials are evaluated from a table of the plain powers X^m
(m < index): exp(tX) = I + sum of (t^m/m!) * X^m, with no matrix products.
One rule decides who keeps a table: every `NilpotentMatrix` does. Both
constructors prove nilpotency by walking X, X^2, ..., X^(index-1) and then
showing X^index = 0, and they keep those powers' entries as the table at no
extra product. For index n the last step costs no product either when n! is
a unit mod p: tr(X^k) = 0 for k = 1..n proves X^n = 0.

The table is a pair (inverses, flat). inverses holds m^-1 mod p for
m = 1..index-1, so each t^m/m! is one step from the last. flat is one tuple
of n^2 * index residues, entry-major: for each entry in row-major order, that
entry of I, X, X^2, ..., X^(index-1). It holds the powers' own int objects,
not their row tuples, which die with the proof. An exponential is one call
of `_exp_kernel(index)`, compiled once per process and index from
range(index) alone, so every key the codec accepts compiles at most 16 of
them. Beyond its own rows X, a generator keeps the entries of X^2, ...,
X^(index-1) and the flat tuple: about 6.1 KB at the paper profile (n = 5,
256-bit p) and 2.09 MB at the codec's limits (n = 16, 4096-bit p), against
6.8 KB and 2.10 MB when it kept each power's row tuples and n row blocks
(`tracemalloc`, one generator of index n; at the limits the residues
themselves dominate).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain
from math import factorial, gcd, isqrt, prod
from typing import Iterator, Optional

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
    (mod n) for some 0 <= r < s. The ladder runs on the Q = 1 sequence
    V'_m = V_m(P', 1), P' = Q^-1 - 2, as V_2m(1, Q) = Q^m V'_m (alpha * beta
    = Q): it carries (V'_j, V'_(j+1)), j = (k - 1)/2, at two products a bit
    and no power of Q. As D and Q are units mod n, U_k, V_k and V_(k*2^r)
    (r >= 1) vanish exactly when V'_j = V'_(j+1), V'_j + V'_(j+1) = 0 and
    V'_(k*2^(r-1)) = 0: D U_k = Q^(j+1) (V'_(j+1) - V'_j) and V_k =
    Q^(j+1) (V'_(j+1) + V'_j). If gcd(Q, n) != 1, a prime dividing both makes
    every U_m and V_m (m >= 1) 1 mod it, so n fails.
    """
    if gcd(q, n) != 1:
        return False
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    pp = (pow(q, -1, n) - 2) % n
    v, w = 2, pp  # V'_0, V'_1
    for bit in bin(k // 2)[2:]:
        if bit == "1":
            v, w = (v * w - pp) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - pp) % n
    if v == w or (v + w) % n == 0:
        return True
    x = (v * w - pp) % n  # V'_k
    for _ in range(s - 1):
        if x == 0:
            return True
        x = (x * x - 2) % n
    return False


def require_type(name: str, value, cls: type) -> None:
    """Refuse a field that is not exactly a `cls` (a float or a bool for an
    int, a subclass or a plain matrix for a proven one) before a comparison
    reads it: one form per value."""
    if type(value) is not cls:
        article = "an" if cls.__name__[0] in "aeiou" else "a"
        raise ParameterError(f"{name} must be {article} {cls.__name__}, not {type(value).__name__}")


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
        for name in ("kappa1", "n", "p", "kappa2", "kappa3", "kappa4", "msg_len"):
            require_type(name, getattr(self, name), int)
        require_type("toy", self.toy, bool)
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
        require_type("matrix dimension", self.n, int)
        require_type("modulus", self.p, int)
        if self.n < 1:
            raise ParameterError("matrix dimension must be >= 1")
        if self.p < 2:
            raise ParameterError("modulus must be >= 2")
        if type(self.rows) is not tuple or any(type(r) is not tuple for r in self.rows):
            raise ParameterError("rows must be a tuple of tuples")
        if len(self.rows) != self.n or any(len(r) != self.n for r in self.rows):
            raise ParameterError(f"expected {self.n}x{self.n} rows")
        for row in self.rows:
            for e in row:
                if type(e) is not int:
                    raise ParameterError(f"entry {e!r} is not an int")
                if not 0 <= e < self.p:
                    raise ParameterError(f"entry {e} out of range [0, {self.p})")


@cache
def _unit_rows(n: int) -> Rows:
    """The rows of the n x n identity, one shared tuple per n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _check_compatible(a: FieldMatrix, b: FieldMatrix):
    if a.n != b.n or a.p != b.p:
        raise ParameterError(
            f"incompatible matrices: {a.n}x{a.n} mod {a.p} vs {b.n}x{b.n} mod {b.p}"
        )


@cache
def _product_kernel(n: int):
    """product(arows, brows, p): the rows of A times B mod p, for rows of A
    with n entries and the n x n rows of B, with no loop but the one over A's
    rows. It unpacks B's n^2 entries into locals b{s}_{j} once, then gives
    each row (a0, ..., a(n-1)) of A the n entries
    (a0*b0_j + ... + a(n-1)*b(n-1)_j) % p. The source text comes from range(n)
    alone (see the module docstring).
    """
    dims = range(n)
    brows = "".join(["(" + "".join([f"b{s}_{j}, " for j in dims]) + "), " for s in dims])
    arow = "".join([f"a{s}, " for s in dims])
    entries = "".join(
        ["(" + " + ".join([f"a{s} * b{s}_{j}" for s in dims]) + ") % p, " for j in dims]
    )
    namespace: dict = {}
    exec(
        f"def product(arows, brows, p):\n"
        f"    {brows}= brows\n"
        f"    return tuple([({entries}) for ({arow}) in arows])\n",
        namespace,
    )
    return namespace["product"]


def rows_mul(arows, brows, p: int) -> Rows:
    """The rows of A times B mod p, for the rows `arows` of A and `brows` of B:
    any number of rows of n entries times the n x n rows of B, by
    `_product_kernel(n)`. The rows-level product of `mat_mul` and of the
    factoring solvers, which build no matrix object."""
    return _product_kernel(len(brows))(arows, brows, p)


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Schoolbook product reduced mod p, the same exact integer sums as a
    triple loop, by the straight-line kernel `_product_kernel(n)`, which
    is faster than sums over `map` and is compiled once per process. The
    product of two group elements is a group element; any other product,
    two nilpotent matrices' included, is a plain FieldMatrix.
    """
    _check_compatible(a, b)
    cls = GroupElement if type(a) is type(b) is GroupElement else FieldMatrix
    return trusted(cls, n=a.n, p=a.p, rows=rows_mul(a.rows, b.rows, a.p))


def _forward(rows, p: int) -> Iterator[tuple[int, int, list]]:
    """The one forward elimination, to row echelon form, of rows reduced mod
    p, fraction-free as in Bareiss (Math. Comp. 22, 1968) but with no
    division. Each column's pivot row is the first with a nonzero entry e
    there, swapped with row 0 from its position `top` > 0. Every other row
    with a nonzero entry f there becomes e * row - f * pivot row mod p, a
    row with a 0 there is left as it is, and the column is dropped, as is a
    column of zeros. Yields one step (col, top, rows) per pivot, with the
    rows it clears from column col on, pivot row first, and keeps no rows.
    After the last step, when the pivots' product is not a unit mod p, the
    first that is not raises ParameterError, so every caller takes them all."""
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        if not rows:
            break
        top = 0 if rows[0][0] else next((i for i, row in enumerate(rows) if row[0]), None)
        if top is None:
            rows = [row[1:] for row in rows]
            continue
        if top:
            rows = [rows[top], *rows[1:top], rows[0], *rows[top + 1:]]
        yield col, top, rows
        (e, *head), *rest = rows
        pivots.append(e)
        rows = [[(e * x - f * y) % p for x, y in zip(tail, head)] if f else tail
                for f, *tail in rest]
    if gcd(prod(pivots), p) != 1:
        raise _not_prime(next(e for e in pivots if gcd(e, p) != 1), p)


def row_reduce(rows, p: int) -> tuple[list[int], list[list[int]]]:
    """The reduced row echelon form mod p of a matrix of any shape.

    The entries, reduced mod p, run through `_forward`, which raises
    ParameterError for a pivot sharing a factor with p: p is composite.
    Then, from the last pivot up, each pivot row is scaled to a pivot of 1
    and clears its column in the rows above. Returns (pivot_cols, reduced):
    the rank is len(pivot_cols), and column pivot_cols[i] is 1 in reduced
    row i and 0 in every other row. That form is unique to the row space,
    so reordering the rows or scaling them by units leaves it unchanged.
    """
    rows = [[e % p for e in row] for row in rows]
    echelon = [(col, [0] * col + cleared[0]) for col, _, cleared in _forward(rows, p)]
    pivot_cols = [col for col, _ in echelon]
    m = [row for _, row in echelon] + [[0] * len(row) for row in rows[len(echelon):]]
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
    """Determinant mod p: the product of `_forward`'s pivots over -1 per swap
    and each pivot e to the power of the number of rows it scaled by e."""
    p = a.p
    rank, pivots, scale = 0, 1, 1
    for _, top, ((e, *_), *rest) in _forward(a.rows, p):
        rank += 1
        pivots = pivots * e % p
        scale = scale * pow(e, sum(1 for row in rest if row[0]), p) * (-1 if top else 1) % p
    return pivots * _inverse(scale, p) % p if rank == a.n else 0


def is_invertible(a: FieldMatrix) -> bool:
    """Whether a has full rank mod p: as many pivots as rows in `_forward`,
    which raises ParameterError for a non-unit pivot."""
    return sum(1 for _ in _forward(a.rows, a.p)) == a.n


def mat_inv(a: FieldMatrix) -> "GroupElement":
    """Inverse mod p from the reduced row echelon form of [a | I]: a is singular
    when a pivot falls right of column n-1, else the right half is a^-1."""
    n, p = a.n, a.p
    pivot_cols, m = row_reduce([row + unit for row, unit in zip(a.rows, _unit_rows(n))], p)
    if pivot_cols[n - 1] >= n:
        raise NotInvertibleError(f"matrix is singular mod {p}")
    return trusted(GroupElement, n=n, p=p, rows=tuple(tuple(row[n:]) for row in m))


def _nilpotency_proof(a: FieldMatrix) -> list[FieldMatrix]:
    """The nonzero powers a, a^2, ..., a^(index-1), so index is one more than
    their count. Raises NotNilpotentError when a^n is not zero.

    Over a field the nilpotency index never exceeds n, so a^n settles the
    question. Over Z_p with p composite a matrix whose n-th power is nonzero
    is not nilpotent here, even if a higher power vanishes.

    Each power costs one product, but a^n is proved zero without one when
    `_traces_vanish` holds; otherwise it is multiplied out as the others are.
    """
    n = a.n
    powers: list[FieldMatrix] = []
    power = a
    while any(map(any, power.rows)):
        powers.append(power)
        if len(powers) == n:
            raise NotNilpotentError("matrix is not nilpotent")
        if len(powers) == n - 1 and _traces_vanish(powers, a):
            break
        power = mat_mul(power, a)
    return powers


def _traces_vanish(powers: list[FieldMatrix], a: FieldMatrix) -> bool:
    """Whether n! is a unit mod p and tr(a^k) = 0 mod p for k = 1, ..., n,
    given powers = [a, ..., a^(n-1)]. If so, a^n = 0: Newton's identities,
    which hold over any commutative ring, zero every coefficient of the
    characteristic polynomial but the leading one, and Cayley-Hamilton does
    the rest. tr(a^n), the sum of (a^(n-1))_ij * a_ji, costs n^2 products of
    residues, a fifth of a product at n = 5.

    The unit condition is needed: over Z_2 the identity has every trace 0.
    Over a composite modulus the test is not necessary either: over Z_9,
    diag(3, 0) is nilpotent with trace 3.
    """
    n, p = a.n, a.p
    if gcd(factorial(n), p) != 1:
        return False
    if any(sum(x.rows[i][i] for i in range(n)) % p for x in powers):
        return False
    last = chain.from_iterable(powers[-1].rows)
    return sum(map(operator.mul, last, chain.from_iterable(zip(*a.rows)))) % p == 0


def is_nilpotent(a: FieldMatrix) -> tuple[bool, Optional[int]]:
    """(True, l) with the minimal l <= n such that a^l = 0, else (False, None)."""
    try:
        return True, len(_nilpotency_proof(a)) + 1
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
class NilpotentMatrix(FieldMatrix):
    """A FieldMatrix proven nilpotent, with its exact index; never equal to a
    plain one or to a GroupElement. It keeps the table `_terms` =
    (inverses, flat) that exp_scaled and term_rows read (format in the
    module docstring): both constructors keep the entries of the powers their
    proof walks, for as long as the matrix lives. `_terms` is not a field, so
    equality, hash, repr and the codec ignore it. When some m < index has no
    inverse mod p (p <= n, or p composite), both constructors raise
    ParameterError."""

    index: int

    def __post_init__(self):
        """Check the rows, then prove the claimed index: the proof's powers
        end at a^(index-1)."""
        super().__post_init__()
        require_type("nilpotency index", self.index, int)
        powers = _nilpotency_proof(self)
        if len(powers) + 1 != self.index:
            raise NotNilpotentError(f"nilpotency index is {len(powers) + 1}, not {self.index}")
        object.__setattr__(self, "_terms", _table(powers, self.n, self.p))

    @classmethod
    def from_matrix(cls, a: FieldMatrix) -> "NilpotentMatrix":
        """Prove nilpotency and keep the minimal index."""
        n, p, powers = a.n, a.p, _nilpotency_proof(a)
        return trusted(cls, n=n, p=p, rows=a.rows, index=len(powers) + 1,
                       _terms=_table(powers, n, p))


@dataclass(frozen=True)
class GroupElement(FieldMatrix):
    """An invertible FieldMatrix, i.e. an element of GL_n(p); never equal to a plain one."""

    def __post_init__(self):
        super().__post_init__()
        if not is_invertible(self):
            raise NotInvertibleError("group element must be invertible")


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Product in GL_n(p): `mat_mul` of two group elements is one."""
    return mat_mul(a, b)


def _table(powers: list[FieldMatrix], n: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(inverses, flat) for the powers a, a^2, ..., a^(index-1) given:
    inverses[m-1] = m^-1 mod p, and flat the entries of I, a, ...,
    a^(index-1) interleaved entry by entry, row-major, the powers' own ints.
    Raises ParameterError when p <= n or when some m < index has no inverse
    mod p (a composite p).
    """
    if p <= n:
        raise ParameterError(f"need p > n for factorial inverses (p={p}, n={n})")
    inverses = tuple(_inverse(m, p) for m in range(1, len(powers) + 1))
    entries = [chain.from_iterable(rows) for rows in (_unit_rows(n), *[a.rows for a in powers])]
    # through a list, so the kept tuple is allocated once at its size: one
    # grown from the iterator is resized as it fills, and those resizes left
    # attack-planted's peak RSS 0.8 MiB higher in about half of its runs
    return inverses, tuple([*chain.from_iterable(zip(*entries))])


@cache
def _exp_kernel(k: int):
    """exp(t, inverses, flat, p): the n^2 entries of exp(tX) mod p,
    row-major, from X's table of index k (see the module docstring), with no
    loop but the one over the entries. It unpacks the k-1 inverses into
    locals i{m} and steps c{m} = t^m/m! mod p from c0 = 1, each
    c{m-1} * t * i{m}; then each entry's powers (e0, ..., e(k-1)), e0 that
    of I, give (e0 + c1*e1 + ... + c(k-1)*e(k-1)) % p, the identity's term
    added, not multiplied. The source text comes from range(k) alone, so one
    kernel serves every n and p.
    """
    steps = range(1, k)
    inverses = "".join([f"i{m}, " for m in steps])
    coefficients = "".join([f"    c{m} = c{m - 1} * t * i{m} % p\n" for m in steps])
    powers = "".join([f"e{m}, " for m in range(k)])
    total = " + ".join(["e0", *[f"c{m} * e{m}" for m in steps]])
    namespace: dict = {}
    exec(
        f"def exp(t, inverses, flat, p):\n"
        f"    [{inverses}] = inverses\n"
        f"    c0 = 1\n"
        f"{coefficients}"
        f"    return [({total}) % p for ({powers}) in zip(*[iter(flat)] * {k})]\n",
        namespace,
    )
    return namespace["exp"]


def term_rows(x: NilpotentMatrix) -> tuple[Rows, ...]:
    """The rows of each term X^m/m! mod p, 1 <= m < index: a basis of the
    span that every exp(tX) - I lies in. X^m's entries are every index-th
    entry of x's flat table, from entry m on."""
    inverses, flat = x._terms
    n, p, k = x.n, x.p, x.index
    factorials = accumulate(inverses, lambda c, inv_m: c * inv_m % p)  # 1/m! mod p
    return tuple(
        tuple(zip(*[iter([c * e % p for e in flat[m::k]])] * n))
        for m, c in enumerate(factorials, 1)
    )


def mat_exp(x: NilpotentMatrix) -> GroupElement:
    """Truncated exponential sum over m < index of x^m / m!, taken mod p.

    The series is finite because x is nilpotent, and every factorial inverse
    exists because index <= n < p. The result is unipotent, hence invertible
    with determinant 1.
    """
    return exp_scaled(1, x)


def exp_rows(t: int, x: NilpotentMatrix) -> Rows:
    """The rows of exp(t*x) for a non-negative integer scalar t, reduced mod p.

    One `_exp_kernel(index)` call gives the n^2 entries, each the coefficient
    row (1, t, t^2/2!, ...) times that entry of I, x, x^2, ... in x's flat
    table, and no matrix product; they are cut into rows of n.
    """
    require_type("scalar", t, int)
    if t < 0:
        raise ParameterError("scalar must be non-negative")
    inverses, flat = x._terms
    entries = _exp_kernel(x.index)(t, inverses, flat, x.p)
    return tuple(zip(*[iter(entries)] * x.n))


def exp_scaled(t: int, x: NilpotentMatrix) -> GroupElement:
    """Exponential of t*x for a non-negative integer scalar t, reduced mod p:
    the rows `exp_rows` gives, as a group element.

    t -> exp_scaled(t, x) is a one-parameter subgroup of GL_n(p): it maps 0 to
    the identity and addition of scalars (mod p) to multiplication of images.
    """
    return trusted(GroupElement, n=x.n, p=x.p, rows=exp_rows(t, x))


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
