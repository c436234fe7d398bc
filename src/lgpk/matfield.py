"""Exact arithmetic over Z_p and over n x n matrices with Z_p entries.

Everything downstream (key generation, encryption, the attack solvers) is
built on the operations here, in particular the truncated exponential of a
nilpotent matrix, which lands in the unipotent subgroup of GL_n(p).

All values are immutable after construction and all reductions mod p are
eager, so every matrix has a single bit-exact representation, tuple rows of
`int` residues. A `GroupElement` is a `FieldMatrix` proven invertible, and
`mat_mul` of two group elements is one: GL_n(p) is closed under products.

Only the public constructors, which codec decoding uses, validate. Arithmetic
results are built unchecked by `bitstrings.trusted`: on validated inputs each
operation keeps entries reduced mod p, products invertible and, over the field
F_p, the index of a nonzero multiple of a nilpotent matrix.

Every matrix product runs a straight-line kernel that `_product_kernel(k, m)`
compiles once per process and shape: `mat_mul` through `rows_mul`, the
rows-level product that the factoring solvers call on bare row tuples, and
every exponential directly. A kernel's source text is built from the ranges
of its shape alone, never from p or matrix data, so one kernel serves every
modulus and the cache holds one entry per shape. It does the exact integer
sums of a triple loop (125 multiplications and 25 reductions at n = 5) with
no `map` or `sum` per entry. Compiling it costs 0.09-0.15 ms at n = 2,
0.4 ms at n = 5, 2.3-3.4 ms at n = 16 and 80-110 ms at n = 64 (2 cores,
Python 3.11.7). Every caller in the package asks for a shape (k, n) with
k <= n at dimension n: (n, n) for a product and (index, n) for an
exponential, and the solvers' row products use only those two kinds. So
dimensions up to n compile at most n(n+1)/2 kernels, 136 for every key the
codec accepts (n <= 16).

Exponentials are evaluated from a table of the plain powers X^m
(1 <= m < index): exp(tX) = I + sum of (t^m/m!) * X^m, with no matrix
products. One rule decides who keeps a table: every `NilpotentMatrix` does.
Both constructors prove nilpotency by walking X, X^2, ..., X^(index-1) and
then showing X^index = 0, and they keep those powers as the table at no extra
product. For index n the last step costs no product either when n! is a unit
mod p: tr(X^k) = 0 for k = 1..n proves X^n = 0.

The table is a pair (inverses, blocks). inverses holds m^-1 mod p for
m = 1..index-1, so each t^m/m! is one step from the last. blocks[i] is
(row i of I, row i of X, ..., row i of X^(index-1)): the powers' own row
tuples, not copies, and one shared identity row tuple per n. Row i of exp(tX)
is the coefficient row (1, t, t^2/2!, ...) times block i, one call of
`_product_kernel(index, n)`. At index n, the index of every paper key, that
is mat_mul's own (n, n) kernel, so no exponential compiles code of its own.
Beyond its base X, a generator keeps X^2, ..., X^(index-1) and its blocks:
about 6.8 KB at the paper profile (n = 5, 256-bit p) and 2.1 MB at the
codec's limits (n = 16, 4096-bit p), against 7.7 KB and 4.2 MB when each
power was one packed integer (`tracemalloc`, one generator of index n).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import factorial, gcd, isqrt, prod
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
        if type(self.rows) is not tuple or any(type(r) is not tuple for r in self.rows):
            raise ParameterError("rows must be a tuple of tuples")
        for row in self.rows:
            for e in row:
                if not 0 <= e < self.p:
                    raise ParameterError(f"entry {e} out of range [0, {self.p})")
                if type(e) is not int:
                    raise ParameterError(f"entry {e!r} is not an int")

    @classmethod
    def from_rows(cls, rows, p: int) -> "FieldMatrix":
        n = len(rows)
        return cls(n, p, tuple(tuple(e % p for e in row) for row in rows))


@cache
def _unit_rows(n: int) -> Rows:
    """The rows of the n x n identity, one shared tuple per n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def identity(n: int, p: int) -> FieldMatrix:
    return FieldMatrix(n, p, _unit_rows(n))


def _check_compatible(a: FieldMatrix, b: FieldMatrix):
    if a.n != b.n or a.p != b.p:
        raise ParameterError(
            f"incompatible matrices: {a.n}x{a.n} mod {a.p} vs {b.n}x{b.n} mod {b.p}"
        )


@cache
def _product_kernel(k: int, m: int):
    """product(arows, brows, p): the rows of A times B mod p, for rows of A
    with k entries and k rows of B with m entries each, with no loop but the
    one over A's rows. It unpacks B's k*m entries into locals b{s}_{j} once,
    then gives each row (a0, ..., a(k-1)) of A the m entries
    (a0*b0_j + ... + a(k-1)*b(k-1)_j) % p. The source text comes from range(k)
    and range(m) alone (see the module docstring).
    """
    inner, cols = range(k), range(m)
    brows = "".join(["(" + "".join([f"b{s}_{j}, " for j in cols]) + "), " for s in inner])
    arow = "".join([f"a{s}, " for s in inner])
    entries = "".join(
        ["(" + " + ".join([f"a{s} * b{s}_{j}" for s in inner]) + ") % p, " for j in cols]
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
    any number of rows of k entries times k rows of m entries, by
    `_product_kernel(k, m)`. The rows-level product of `mat_mul` and of the
    factoring solvers, which build no matrix object."""
    return _product_kernel(len(brows), len(brows[0]))(arows, brows, p)


def mat_mul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Schoolbook product reduced mod p, the same exact integer sums as a
    triple loop, by the straight-line kernel `_product_kernel(n, n)`.

    At the paper profile (n = 5, 256-bit p) a product takes 40-50 us in a
    warm process against 53-63 us for sums over `map` (medians of 15
    interleaved rounds, 2 cores, Python 3.11.7). A fresh `lgpk encrypt`
    process pays the 0.4 ms compile at n = 5 once and saves 13-20 us on each
    of its 9 products: within 0.3 ms, or half a percent, of break-even on a
    77 ms command. The product of two group elements is a group element.
    """
    _check_compatible(a, b)
    cls = GroupElement if type(a) is type(b) is GroupElement else FieldMatrix
    return trusted(cls, n=a.n, p=a.p, rows=rows_mul(a.rows, b.rows, a.p))


def _forward(rows, p: int) -> tuple[list[int], list[list[int]], int]:
    """The forward pass of `row_reduce`, to row echelon form. Rows below a
    pivot are zero left of its column and become zero in it, so their updates
    write that 0 and start one column to its right."""
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
        pivot, head = m[r][col], m[r][col + 1:]
        if gcd(pivot, p) != 1:
            raise _not_prime(pivot, p)
        for row in m[r + 1:]:
            f = row[col]
            if f:
                row[col] = 0
                row[col + 1:] = [(pivot * x - f * y) % p for x, y in zip(row[col + 1:], head)]
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
class NilpotentMatrix:
    """A FieldMatrix proven nilpotent, its exact index, and the table
    `_terms` = (inverses, blocks) that exp_scaled and term_rows read (format
    in the module docstring). Both constructors keep the rows of the powers
    their proof walks as the table, for as long as the matrix lives. `_terms`
    is not a field, so equality, hash, repr and the codec ignore it. When
    some m < index has no inverse mod p (p <= n, or p composite), both
    constructors raise ParameterError."""

    base: FieldMatrix
    index: int

    def __post_init__(self):
        """Prove the claimed index: the proof's powers end at a^(index-1)."""
        a, k = self.base, self.index
        powers = _nilpotency_proof(a)
        if len(powers) + 1 != k:
            raise NotNilpotentError(f"nilpotency index is {len(powers) + 1}, not {k}")
        object.__setattr__(self, "_terms", _table(powers, a.n, a.p))

    @classmethod
    def from_matrix(cls, a: FieldMatrix) -> "NilpotentMatrix":
        """Prove nilpotency and keep the minimal index."""
        powers = _nilpotency_proof(a)
        return trusted(cls, base=a, index=len(powers) + 1, _terms=_table(powers, a.n, a.p))


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


def _table(powers: list[FieldMatrix], n: int, p: int) -> tuple[tuple[int, ...], tuple[Rows, ...]]:
    """(inverses, blocks) for the powers a, a^2, ..., a^(index-1) given:
    inverses[m-1] = m^-1 mod p, and blocks[i] = (row i of I, row i of a, ...,
    row i of a^(index-1)), the powers' own row tuples. Raises ParameterError
    when p <= n or when some m < index has no inverse mod p (a composite p).
    """
    if p <= n:
        raise ParameterError(f"need p > n for factorial inverses (p={p}, n={n})")
    inverses = tuple(_inverse(m, p) for m in range(1, len(powers) + 1))
    return inverses, tuple(zip(_unit_rows(n), *[power.rows for power in powers]))


def _coefficients(t: int, inverses: tuple[int, ...], p: int) -> list[int]:
    """[1, t, t^2/2!, ..., t^(index-1)/(index-1)!] mod p, each entry one
    step c * t * m^-1 from the last."""
    c, row = 1, [1]
    for inv_m in inverses:
        c = c * t * inv_m % p
        row.append(c)
    return row


def term_rows(x: NilpotentMatrix) -> tuple[Rows, ...]:
    """The rows of each term X^m/m! mod p, 1 <= m < index: a basis of the
    span that every exp(tX) - I lies in. Row i of X^m is entry m of x's
    table block i."""
    inverses, blocks = x._terms
    p = x.base.p
    coefficients = _coefficients(1, inverses, p)
    return tuple(
        tuple(tuple([coefficients[m] * e % p for e in block[m]]) for block in blocks)
        for m in range(1, x.index)
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

    Row i is the coefficient row (1, t, t^2/2!, ...) times x's table block i,
    the rows i of I, x, x^2, ...: one `_product_kernel(index, n)` call per
    row, the kernel `mat_mul` runs when index = n, and no matrix product.
    """
    if t < 0:
        raise ParameterError("scalar must be non-negative")
    inverses, blocks = x._terms
    p = x.base.p
    coefficients = (_coefficients(t, inverses, p),)
    product = _product_kernel(x.index, x.base.n)
    return tuple([product(coefficients, block, p)[0] for block in blocks])


def exp_scaled(t: int, x: NilpotentMatrix) -> GroupElement:
    """Exponential of t*x for a non-negative integer scalar t, reduced mod p:
    the rows `exp_rows` gives, as a group element.

    t -> exp_scaled(t, x) is a one-parameter subgroup of GL_n(p): it maps 0 to
    the identity and addition of scalars (mod p) to multiplication of images.
    """
    return trusted(GroupElement, n=x.base.n, p=x.base.p, rows=exp_rows(t, x))


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
