"""Shared test helpers: slow-but-obviously-correct oracles, and a call counter.

The fast implementations are checked against the oracles. Keep them
independent of the package internals — plain loops, exact integer arithmetic
over a common denominator, trial division — so a bug in the package cannot
hide in its own oracle.
"""

import hashlib
from math import factorial

from lgpk import matfield
from lgpk.matfield import FieldMatrix, GroupElement, identity


def slow_mat_mul(a, b, p):
    """Triple-loop integer matrix product over plain lists, reduced mod p."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s += a[i][k] * b[k][j]
            out[i][j] = s % p
    return out


def rational_exp(rows, index, p):
    """Truncated exponential over the rationals, reduced mod p at the very end.

    Every term X^m/m! (m < index) is written over the common denominator
    D = (index-1)!, so the exact rational sum is N/D with the integer matrix
    N = sum_m X^m * (D / m!). N is computed in plain, unreduced integers; the
    only modular inverse is that of D, taken in the final reduction. The
    package instead reduces every term mod p and inverts each m! on its own,
    so the two share no code path.
    """
    n = len(rows)
    denom = factorial(index - 1)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    num = [[denom * e for e in row] for row in power]
    for m in range(1, index):
        power = [
            [sum(power[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        weight = denom // factorial(m)
        for i in range(n):
            for j in range(n):
                num[i][j] += power[i][j] * weight
    inv = pow(denom, -1, p)
    return [[e * inv % p for e in row] for row in num]


def slow_det(rows, p):
    """Cofactor-expansion determinant; fine for the tiny n used in tests."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * slow_det(minor, p)
    return total % p


def miller_rabin_prime(n, rounds=64):
    """Miller-Rabin with `rounds` bases drawn from a SHAKE-256 stream seeded
    by n; error below 4^-rounds, so 2^-128 at the default.

    The package's own test (Baillie-PSW) shares no step with this one beyond
    trial division, and is checked against it on random candidates.
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


def uv_strong_lucas(n, d, q):
    """Strong Lucas test for odd n with P = 1, D = 1 - 4Q, by the U/V ladder:
    U_2m = U_m V_m and V_2m = V_m^2 - 2Q^m to double, U_(m+1) = (U_m + V_m)/2
    and V_(m+1) = (D U_m + V_m)/2 to step. With n + 1 = k * 2^s and k odd, n
    passes when U_k = 0 or V_(k*2^r) = 0 for some 0 <= r < s.

    The package carries V alone and reads U_k off V_k and V_(k+1); this
    ladder computes U directly.
    """
    k, s = n + 1, 0
    while k % 2 == 0:
        k //= 2
        s += 1
    half = (n + 1) // 2  # 1/2 mod n
    u, v, qm = 1, 1, q % n
    for bit in bin(k)[3:]:
        u, v, qm = u * v % n, (v * v - 2 * qm) % n, qm * qm % n
        if bit == "1":
            u, v, qm = (u + v) * half % n, (d * u + v) * half % n, qm * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qm = (v * v - 2 * qm) % n, qm * qm % n
        if v == 0:
            return True
    return False


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def slow_naf_bruteforce(left, right, target, p, bound_left, bound_right):
    """Full-matrix brute-force factoring: the scan the row-0 solver replaced.

    left and right are the generators' row lists with their nilpotency
    indices, as (rows, index); target is a row list. Walks exp(L)^x exp(R)^y
    x-major, comparing whole matrices, and returns (x, y, pairs tried) at the
    first match, else None.
    """
    step_left = rational_exp(*left, p)
    step_right = rational_exp(*right, p)
    target = [list(row) for row in target]
    ops = 0
    start = _identity_rows(len(target))
    for x in range(bound_left):
        cur = start
        for y in range(bound_right):
            ops += 1
            if cur == target:
                return x, y, ops
            cur = slow_mat_mul(cur, step_right, p)
        start = slow_mat_mul(start, step_left, p)
    return None


def slow_naf_mitm(left, right, target, p, bound_left, bound_right):
    """Full-matrix meet-in-the-middle: a table of whole exp(R)^y matrices,
    each mapped to its first y, probed with exp(-L)^x * target for x = 0, 1,
    ...; returns (x, y, table entries + probes) at the first hit, else None.
    """
    rows, index = left
    step_left_inv = rational_exp([[-e for e in row] for row in rows], index, p)
    step_right = rational_exp(*right, p)
    target = [list(row) for row in target]
    ops = 0
    table = {}
    cur = _identity_rows(len(target))
    for y in range(bound_right):
        ops += 1
        table.setdefault(tuple(map(tuple, cur)), y)
        cur = slow_mat_mul(cur, step_right, p)
    inv = _identity_rows(len(target))
    for x in range(bound_left):
        ops += 1
        y = table.get(tuple(map(tuple, slow_mat_mul(inv, target, p))))
        if y is not None:
            return x, y, ops
        inv = slow_mat_mul(inv, step_left_inv, p)
    return None


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def mat(rows, p):
    return FieldMatrix.from_rows(rows, p)


def zeros(n, p):
    return FieldMatrix(n, p, tuple((0,) * n for _ in range(n)))


def unit_element(n, p):
    """The n x n identity as a GroupElement, which never equals identity(n, p)."""
    return GroupElement(n, p, identity(n, p).rows)


def lin_comb(*terms):
    """sum of c * a over (c, a) terms of n x n matrices mod p, entry by entry."""
    n, p = terms[0][1].n, terms[0][1].p
    rows = [[sum(c * a.rows[i][j] for c, a in terms) for j in range(n)] for i in range(n)]
    return FieldMatrix.from_rows(rows, p)


def count_calls(monkeypatch, module, name, aliases=()):
    """Count calls to module.name, also through `from module import name` aliases."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    for owner in (module, *aliases):
        monkeypatch.setattr(owner, name, counted)
    return calls


def record_proofs(monkeypatch):
    """Keep the list of powers that each nilpotency proof in `matfield` walks."""
    walked = []
    real = matfield._nilpotency_proof

    def recorded(a):
        walked.append(real(a))
        return walked[-1]

    monkeypatch.setattr(matfield, "_nilpotency_proof", recorded)
    return walked


def assert_table_holds_proof_rows(nm, walked):
    """nm's table `_terms = (inverses, blocks)` holds m^-1 mod p for
    m = 1..index-1 and n blocks of index rows. Row m of block i is row i of
    the m-th power that nm's proof walked, and row 0 the shared identity row:
    the tuples themselves, not copies."""
    inverses, blocks = nm._terms
    n, p, index = nm.base.n, nm.base.p, nm.index
    powers = [found for found in walked if found and found[0] is nm.base][-1]
    assert list(inverses) == [pow(m, -1, p) for m in range(1, index)]
    assert len(blocks) == n and all(len(block) == index for block in blocks)
    for i, block in enumerate(blocks):
        assert block[0] is identity(n, p).rows[i]
        assert all(block[m] is powers[m - 1].rows[i] for m in range(1, index))
