import dataclasses
import gc
import itertools
import json
import random
import tracemalloc
from math import factorial, gcd, isqrt
from pathlib import Path

import pytest
from conftest import (
    assert_table_holds_proof_entries,
    count_calls,
    identity,
    lin_comb,
    mat,
    miller_rabin_prime,
    nilpotent,
    rational_exp,
    record_proofs,
    slow_det,
    slow_mat_mul,
    trial_division_prime,
    unit_element,
    uv_strong_lucas,
    zeros,
)

from lgpk import matfield
from lgpk.bitstrings import trusted
from lgpk.codec import decode, encode
from lgpk.cryptanalysis import NafInstance, naf_bruteforce, naf_mitm
from lgpk.errors import NotInvertibleError, NotNilpotentError, ParameterError
from lgpk.matfield import (
    _SMALL_PRIMES,
    _jacobi,
    _strong_base2,
    _strong_lucas,
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    canonical_bytes,
    commutes,
    det,
    exp_rows,
    exp_scaled,
    group_mul,
    is_invertible,
    is_nilpotent,
    is_probable_prime,
    mat_exp,
    mat_inv,
    mat_mul,
    row_reduce,
    rows_mul,
    term_rows,
)
from lgpk.sampler import PROFILES, RngHandle, make_params, sample_noncommuting_pair
from lgpk.scheme import decrypt, encrypt, keygen

SHIFT3 = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
P256 = 2**255 - 19
P4096 = 2**4096 - 2549  # the largest prime below 2^4096, at codec.MAX_PRIME_BITS
KAT_DATA = Path(__file__).parent / "data"
SHIFT4_MOD6 = [[int(j == i + 1) for j in range(4)] for i in range(4)]


def random_matrix(rng, n, p):
    return mat([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)


def random_invertible(rng, n, p):
    while True:
        a = random_matrix(rng, n, p)
        if det(a) != 0:
            return a


def random_nilpotent(rng, n, p):
    """Random strictly upper-triangular matrix conjugated by a random unit."""
    upper = [[rng.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
    q = random_invertible(rng, n, p)
    return mat_mul(mat_mul(q, mat(upper, p)), mat_inv(q))


def test_entry_out_of_range_rejected():
    with pytest.raises(ParameterError):
        FieldMatrix(2, 7, ((0, 7), (0, 0)))
    with pytest.raises(ParameterError):
        FieldMatrix(2, 7, ((0, 1),))


@pytest.mark.parametrize("rows, message", [
    ([[1, 0], [0, 1]], "rows must be a tuple of tuples"),
    (((1, 0), [0, 1]), "rows must be a tuple of tuples"),
    (((1.5, 0), (0, 1)), "entry 1.5 is not an int"),
    (((True, 0), (0, 1)), "entry True is not an int"),
    ((("a", 1), (0, 1)), "entry 'a' is not an int"),
    (((None, 0), (0, 1)), "entry None is not an int"),
    (((b"\x01", 0), (0, 1)), "entry b'\\x01' is not an int"),
], ids=["list-rows", "list-row", "float-entry", "bool-entry", "str-entry", "none-entry",
        "bytes-entry"])
def test_constructors_reject_a_second_form_of_a_matrix(rows, message):
    # list rows neither hash nor equal their tuple twins, so the solvers
    # missed a list-rowed target; a float entry made mat_mul return floats;
    # an entry with no order against ints is a ParameterError, not a TypeError
    for cls, index in ((FieldMatrix, ()), (GroupElement, ()), (NilpotentMatrix, (2,))):
        with pytest.raises(ParameterError) as e:
            cls(2, 7, rows, *index)
        assert str(e.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: FieldMatrix(0, 7, ()), "matrix dimension must be >= 1"),
    (lambda: ParameterSet(kappa1=8, n=1, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128),
     "rank n must be >= 2, got 1"),
], ids=["matrix-dim-0", "params-n-1"])
def test_constructor_rejects_too_small_dimension(build, message):
    with pytest.raises(ParameterError) as e:
        build()
    assert str(e.value) == message


@pytest.mark.parametrize("n, p, rows, message", [
    (2, 7.0, ((0, 1), (0, 0)), "modulus must be an int, not float"),
    (2, True, ((0, 1), (0, 0)), "modulus must be an int, not bool"),
    (2.0, 7, ((0, 1), (0, 0)), "matrix dimension must be an int, not float"),
    (2, 7, None, "rows must be a tuple of tuples"),
], ids=["float-modulus", "bool-modulus", "float-dimension", "none-rows"])
def test_matrix_constructors_check_a_field_type_before_its_value(n, p, rows, message):
    # a float modulus passed every comparison and made mat_mul return float
    # entries; rows of None met len() before the type check, a bare TypeError
    for cls, index in ((FieldMatrix, ()), (GroupElement, ()), (NilpotentMatrix, (2,))):
        with pytest.raises(ParameterError) as e:
            cls(n, p, rows, *index)
        assert str(e.value) == message


@pytest.mark.parametrize("index", [2.0, True, "2", None])
def test_nilpotent_matrix_index_must_be_an_int(index):
    # 2.0 == 2, so the proof of the index accepted a float
    with pytest.raises(ParameterError) as e:
        NilpotentMatrix(2, 7, ((0, 1), (0, 0)), index)
    assert str(e.value) == f"nilpotency index must be an int, not {type(index).__name__}"


@pytest.mark.parametrize("t", [2.5, 2.0, True, "2"])
def test_exponential_scalar_must_be_an_int(t):
    # exp_scaled(2.5, x) built a GroupElement of float entries unchecked
    x = NilpotentMatrix(2, 7, ((0, 1), (0, 0)), 2)
    for exp in (exp_rows, exp_scaled):
        with pytest.raises(ParameterError) as e:
            exp(t, x)
        assert str(e.value) == f"scalar must be an int, not {type(t).__name__}"


def test_identity_and_zeros():
    assert matfield._unit_rows(3) == identity(3, 5).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert zeros(2, 5).rows == ((0, 0), (0, 0))


def test_mat_mul_against_slow_oracle():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.choice([2, 3, 5])
        p = rng.choice([5, 7, 2**31 - 1])
        a = random_matrix(rng, n, p)
        b = random_matrix(rng, n, p)
        expected = slow_mat_mul([list(r) for r in a.rows], [list(r) for r in b.rows], p)
        assert [list(r) for r in mat_mul(a, b).rows] == expected


def test_mat_mul_incompatible_raises():
    with pytest.raises(ParameterError):
        mat_mul(identity(2, 5), identity(3, 5))
    with pytest.raises(ParameterError):
        mat_mul(identity(2, 5), identity(2, 7))


PRODUCT_CASES = [(n, p) for n in range(1, 17) for p in (2, 3, 2**61 - 1, P256)] + [(16, P4096)]


@pytest.mark.parametrize(
    "n, p", PRODUCT_CASES, ids=[f"n{n}-p{p.bit_length()}bit" for n, p in PRODUCT_CASES]
)
def test_product_kernel_against_slow_oracle_at_every_dimension(n, p):
    rng = random.Random(n * 1009 + p.bit_length())
    top = mat([[p - 1] * n] * n, p)  # every entry p - 1: the largest sums
    for a, b in ((random_matrix(rng, n, p), random_matrix(rng, n, p)), (top, top)):
        out = mat_mul(a, b)
        assert type(out.rows) is tuple and all(type(row) is tuple for row in out.rows)
        assert out == FieldMatrix(n, p, tuple(map(tuple, slow_mat_mul(a.rows, b.rows, p))))


def padded(rows, s):
    """rows, a list of lists, padded with zeros to s x s."""
    return [row + [0] * (s - len(row)) for row in rows] + [[0] * s] * (s - len(rows))


RECTANGLE_PRIMES = (3, P256)


@pytest.mark.parametrize("p", RECTANGLE_PRIMES, ids=[f"p{p.bit_length()}bit" for p in RECTANGLE_PRIMES])
def test_rows_product_against_slow_oracle_on_rectangles(p):
    # r x n rows times n x n rows, for every n in 1..16 and r from 1 to
    # past n: both padded with zeros to one square for the oracle, whose
    # product is then cut back to r x n
    rng = random.Random(p.bit_length())
    for n in range(1, 17):
        for r in (1, rng.randrange(2, 6), n + 2):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
            b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            for arows, brows in ((a, b), ([[p - 1] * n] * r, [[p - 1] * n] * n)):
                s = max(r, n)
                square = slow_mat_mul(padded(arows, s), padded(brows, s), p)
                want = [row[:n] for row in square[:r]]
                got = rows_mul(tuple(map(tuple, arows)), tuple(map(tuple, brows)), p)
                assert type(got) is tuple and all(type(row) is tuple for row in got)
                assert [list(row) for row in got] == want, (r, n)


def index_k_rows(rng, n, k):
    """Small-entry rows of a nilpotent matrix of index k: a strictly upper
    triangular k x k block with a nonzero superdiagonal, zero elsewhere, its
    rows and columns permuted alike (a conjugation)."""
    upper = [[(rng.randrange(1, 4) if j == i + 1 else rng.randrange(4)) if i < j < k else 0
              for j in range(n)] for i in range(n)]
    perm = rng.sample(range(n), n)
    return [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def test_product_kernel_is_cached_by_shape():
    rng = random.Random(5)
    gens = [nilpotent(mat(index_k_rows(rng, 5, k), p), k) for p in (7, 2**61 - 1, P256)
            for k in (3, 5)]
    matfield._product_kernel.cache_clear()
    for x in gens:
        mat_mul(random_matrix(rng, 5, x.p), random_matrix(rng, 5, x.p))
        exp_scaled(rng.randrange(x.p), x)
        term_rows(x)
    # products at n = 5 share one kernel at every p, and no exponential
    # runs a product kernel, whatever its index
    assert matfield._product_kernel.cache_info().currsize == 1
    assert matfield._product_kernel(5) is matfield._product_kernel(5)
    assert matfield._product_kernel.cache_info().currsize == 1


def test_exp_kernel_is_cached_by_index():
    # one kernel per index, shared by every n and p: the 16 indexes of the
    # keys the codec accepts compile at most 16
    rng = random.Random(6)
    gens = [nilpotent(mat(index_k_rows(rng, n, k), p), k)
            for n in (3, 5, 16) for k in (1, 3, n) for p in (17, P256)]
    matfield._exp_kernel.cache_clear()
    for x in gens:
        exp_scaled(rng.randrange(x.p), x)
    assert matfield._exp_kernel.cache_info().currsize == 4  # indexes 1, 3, 5 and 16
    assert matfield._exp_kernel(3) is matfield._exp_kernel(3)
    for k in range(1, 17):
        matfield._exp_kernel(k)
    assert matfield._exp_kernel.cache_info().currsize == 16


def test_paper_key_compiles_one_product_and_one_exp_kernel():
    # a fresh process that makes a paper key, a round trip and a public-key
    # decode compiles mat_mul's (5, 5) kernel, the index-5 exponential's and
    # nothing else
    matfield._product_kernel.cache_clear()
    matfield._exp_kernel.cache_clear()
    rng = RngHandle(b"\x0e" * 32)
    pk, sk = keygen(make_params("paper", rng), rng)
    msg = rng.bitstr(pk.params.msg_len)
    assert decrypt(sk, pk, encrypt(pk, msg, rng)) == msg
    assert decode(encode(pk)) == pk
    caches = (matfield._product_kernel, matfield._exp_kernel)
    assert [cache.cache_info().currsize for cache in caches] == [1, 1]
    matfield._product_kernel(5)
    matfield._exp_kernel(5)
    assert [cache.cache_info().currsize for cache in caches] == [1, 1]


def test_paper_generator_holds_fewer_bytes_than_the_block_table():
    # measured the same way, a paper generator held 6,780-6,796 B when its
    # table kept the row tuples of X^2, ..., X^4 and n row blocks; the flat
    # table keeps the powers' entries alone
    rng = RngHandle(b"\x0e" * 32)
    pk, _ = keygen(make_params("paper", rng), rng)
    for gen in (pk.left_gen, pk.right_gen):
        NilpotentMatrix(gen.n, gen.p, gen.rows, gen.index)  # compile the kernels first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            copy = NilpotentMatrix(gen.n, gen.p, gen.rows, gen.index)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert copy == gen
        assert held < 6_400, held


def block_exp_oracle(t, rows, index, p):
    """The rows of exp(tX) in the block form the flat table replaced: row i
    is the coefficient row (1, t, t^2/2!, ...) times rows i of I, X, ...,
    X^(index-1), with the powers from the slow product and each coefficient
    t^m * (m!)^-1 from `pow`."""
    n = len(rows)
    powers = [[[int(i == j) for j in range(n)] for i in range(n)]]
    for _ in range(1, index):
        powers.append(slow_mat_mul(powers[-1], rows, p))
    coefficients = [pow(t, m, p) * pow(factorial(m), -1, p) for m in range(index)]
    return [
        [sum(c * power[i][j] for c, power in zip(coefficients, powers)) % p for j in range(n)]
        for i in range(n)
    ]


EXP_PRIMES = (17, 2**61 - 1, P256)  # 17: the smallest prime above 16


@pytest.mark.parametrize("p", EXP_PRIMES, ids=[f"p{p.bit_length()}bit" for p in EXP_PRIMES])
def test_exponential_against_rational_oracle_at_every_shape(p):
    # every n = 1..16 and every index 1..n: the zero matrix, n = 1 and
    # generators below full index included. t = 0 gives the identity, a t
    # above p the value of its residue, and t = p - 1 the inverse of t = 1.
    # The flat table gives what the block form gave, row by row
    rng = random.Random(p)
    for n in range(1, 17):
        one = [list(row) for row in identity(n, p).rows]
        for k in range(1, n + 1):
            rows = index_k_rows(rng, n, k)
            nm = nilpotent(mat(rows, p), k)
            terms = term_rows(nm)
            assert len(terms) == k - 1 and all(len(term) == n for term in terms)
            assert [list(row) for row in exp_scaled(0, nm).rows] == one
            r = rng.randrange(p)
            for residue, scalars in ((1, (1,)), (r, (r, r + p * rng.randrange(1, p)))):
                want = rational_exp([[residue * e % p for e in row] for row in rows], k, p)
                for t in scalars:
                    assert [list(row) for row in exp_scaled(t, nm).rows] == want
                    assert exp_rows(t, nm) == exp_scaled(t, nm).rows
                    assert [list(row) for row in exp_rows(t, nm)] == block_exp_oracle(t, rows, k, p)
                # the terms X^m/m! sum to the same exponential
                summed = lin_comb((1, identity(n, p)), *[
                    (pow(residue, m, p), FieldMatrix(n, p, term)) for m, term in enumerate(terms, 1)
                ])
                assert [list(row) for row in summed.rows] == want
                if residue == 1:
                    assert slow_mat_mul(want, exp_scaled(p - 1, nm).rows, p) == one


def test_det_known_values():
    assert det(mat([[1, 2], [3, 4]], 7)) == 5
    assert det(identity(4, 11)) == 1
    assert det(mat([[1, 2], [2, 4]], 7)) == 0


def test_det_against_cofactor_oracle():
    rng = random.Random(202)
    for _ in range(60):
        n = rng.choice([2, 3])
        p = rng.choice([5, 7, 101])
        a = random_matrix(rng, n, p)
        assert det(a) == slow_det([list(r) for r in a.rows], p)


def test_mat_inv_roundtrip():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.choice([2, 3, 5])
        p = rng.choice([7, 101, 2**31 - 1])
        a = random_invertible(rng, n, p)
        assert mat_mul(a, mat_inv(a)) == identity(n, p)
        assert mat_mul(mat_inv(a), a) == identity(n, p)


def test_composite_modulus_inverse_raises_parameter_error():
    # det 1 mod 6, but elimination needs an inverse of the pivot 2
    a = mat([[2, 1], [1, 1]], 6)
    with pytest.raises(ParameterError, match="modulus must be prime"):
        det(a)
    with pytest.raises(ParameterError, match="modulus must be prime"):
        mat_inv(a)
    assert det(identity(3, 6)) == 1


def test_mat_inv_singular_raises():
    with pytest.raises(NotInvertibleError):
        mat_inv(mat([[1, 2], [2, 4]], 7))
    with pytest.raises(NotInvertibleError):
        mat_inv(zeros(3, 5))


def test_is_nilpotent_shift_and_conjugates():
    rng = random.Random(404)
    shift = mat([list(r) for r in SHIFT3], 7)
    assert is_nilpotent(shift) == (True, 3)
    assert is_nilpotent(zeros(2, 5)) == (True, 1)
    assert is_nilpotent(identity(2, 5)) == (False, None)
    for _ in range(20):
        a = random_nilpotent(rng, 3, 101)
        ok, ell = is_nilpotent(a)
        assert ok and 1 <= ell <= 3


def test_nilpotent_matrix_validates_index():
    shift = mat([list(r) for r in SHIFT3], 7)
    nm = NilpotentMatrix.from_matrix(shift)
    assert nm.index == 3
    with pytest.raises(NotNilpotentError, match=r"^nilpotency index is 3, not 2$"):
        nilpotent(shift, 2)  # not yet zero at power 2
    with pytest.raises(NotNilpotentError, match=r"^nilpotency index is 1, not 2$"):
        nilpotent(zeros(3, 7), 2)  # index not minimal
    for claim in (0, -1, 4):  # outside [1, n]: the proof is the one index check
        with pytest.raises(NotNilpotentError, match=rf"^nilpotency index is 3, not {claim}$"):
            nilpotent(shift, claim)
    with pytest.raises(NotNilpotentError, match=r"^matrix is not nilpotent$"):
        nilpotent(identity(3, 7), 2)
    with pytest.raises(NotNilpotentError, match=r"^matrix is not nilpotent$"):
        NilpotentMatrix.from_matrix(identity(3, 7))


def test_a_nilpotency_proof_walks_the_powers_once(monkeypatch):
    # a valid index-k proof stops at the first zero power: k-1 products, but
    # k-2 for k = n, whose last power the traces prove zero
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    for k in (1, 2, 3):
        base = mat([[int(j == i + 1 and i + 1 < k) for j in range(3)] for i in range(3)], 7)
        muls.clear()
        nilpotent(base, k)
        assert len(muls) == (k - 2 if k == 3 else k - 1)
    # a wrong claim, in [1, n] or not, costs one walk, not a second one to
    # find the true index: 1 product for the index-3 shift, 2 for the
    # identity, whose trace is not zero
    for wrong, walk in ((mat([list(r) for r in SHIFT3], 7), 1), (identity(3, 7), 2)):
        for claim in (0, 2, 4):
            muls.clear()
            with pytest.raises(NotNilpotentError):
                nilpotent(wrong, claim)
            assert len(muls) == walk


def walk_index(rows, p):
    """The nilpotency index that multiplying out every power finds, or None
    when the n-th power is not zero."""
    power, index = rows, 1
    while any(map(any, power)):
        if index == len(rows):
            return None
        power = slow_mat_mul(power, rows, p)
        index += 1
    return index


def walk_outcome(index, n, p, claim=None):
    """What the constructors must return for a matrix of that walk index: the
    index, or the type and message of the error they raise."""
    if index is None:
        return NotNilpotentError, "matrix is not nilpotent"
    if claim is not None and claim != index:
        return NotNilpotentError, f"nilpotency index is {index}, not {claim}"
    if p <= n:  # for the sizes below, every m! with m < index <= n < p is a unit mod p
        return ParameterError, f"need p > n for factorial inverses (p={p}, n={n})"
    return index


def built_outcome(build, *args):
    try:
        return build(*args).index
    except (NotNilpotentError, ParameterError) as e:
        return type(e), str(e)


def assert_verdicts_agree(rows, p, claim_all=True):
    """from_matrix against the walk, and a claim of index n too: for every
    matrix, or with claim_all off for those the walk finds nilpotent."""
    n = len(rows)
    a = FieldMatrix(n, p, tuple(map(tuple, rows)))
    index = walk_index(rows, p)
    assert built_outcome(NilpotentMatrix.from_matrix, a) == walk_outcome(index, n, p), (rows, p)
    if claim_all or index is not None:
        assert built_outcome(nilpotent, a, n) == walk_outcome(index, n, p, n), (rows, p)


def conjugated(rng, rows, p):
    """rows conjugated by a few random transvections I + c*e_ij, each
    invertible over any Z_p with inverse I - c*e_ij."""
    n = len(rows)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(p)
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = c, -c % p
        rows = slow_mat_mul(slow_mat_mul(e, rows, p), e_inv, p)
    return rows


def test_trace_proof_keeps_every_nilpotency_verdict(monkeypatch):
    # the proof skips a^n when n! is a unit mod p and every tr(a^k), k <= n,
    # is zero; a walk that multiplies out each power must reach the same
    # index, or the same error, on every 2x2 matrix over these moduli (over
    # Z_25 a claim is tried on the nilpotent ones only, to keep the time down)
    for p in (2, 3, 4, 6, 9, 25):
        for entries in itertools.product(range(p), repeat=4):
            assert_verdicts_agree((entries[:2], entries[2:]), p, claim_all=p < 25)
    # 3x3: uniform draws (rarely nilpotent), conjugated strictly upper
    # triangular ones (index up to 3, traces zero) and, over Z_9 and Z_49,
    # multiples of 3 or 7 (nilpotent, traces often not zero)
    rng = random.Random(3131)
    for p, root in ((3, 3), (7, 7), (9, 3), (49, 7)):
        for _ in range(300):
            uniform = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
            upper = [[rng.randrange(p) if j > i else 0 for j in range(3)] for i in range(3)]
            for rows in (uniform, conjugated(rng, upper, p),
                         [[root * e % p for e in row] for row in uniform]):
                assert_verdicts_agree(rows, p)
    # each fallback multiplies a^n out: diag(3, 0) over Z_9 is nilpotent with
    # trace 3, and 2! shares a factor with 6, 3! with 3 = p <= n
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    for rows, p, walk, products in (
        ([[0, 1], [0, 0]], 7, 2, 0),  # the traces prove a^2 = 0
        ([[3, 0], [0, 0]], 9, 2, 1),
        ([[0, 1], [0, 0]], 6, 2, 1),
        ([list(r) for r in SHIFT3], 3,
         (ParameterError, "need p > n for factorial inverses (p=3, n=3)"), 2),
    ):
        assert walk_outcome(walk_index(rows, p), len(rows), p) == walk
        muls.clear()
        assert built_outcome(NilpotentMatrix.from_matrix, mat(rows, p)) == walk
        assert len(muls) == products


def test_nilpotency_over_composite_modulus_stops_at_n():
    # (2I)^2 = 4I != 0 but (2I)^3 = 0 mod 8: no index within [1, n] exists
    a = mat([[2, 0], [0, 2]], 8)
    assert is_nilpotent(a) == (False, None)
    with pytest.raises(NotNilpotentError):
        nilpotent(a, 2)
    with pytest.raises(NotNilpotentError):
        NilpotentMatrix.from_matrix(a)
    with pytest.raises(NotNilpotentError):
        nilpotent(mat([[2]], 4), 1)


def test_mat_exp_shift3_mod7_known_value():
    # I + N + N^2/2 with 2^-1 = 4 (mod 7)
    g = mat_exp(NilpotentMatrix.from_matrix(mat([list(r) for r in SHIFT3], 7)))
    assert g.rows == ((1, 1, 4), (0, 1, 1), (0, 0, 1))


def test_mat_exp_zero_is_identity():
    g = mat_exp(NilpotentMatrix.from_matrix(zeros(4, 11)))
    assert g == unit_element(4, 11)


def test_mat_exp_against_rational_oracle():
    rng = random.Random(505)
    for _ in range(40):
        n = rng.choice([2, 3, 5])
        p = rng.choice([7, 101, 2**31 - 1, P256])
        nm = NilpotentMatrix.from_matrix(random_nilpotent(rng, n, p))
        got = mat_exp(nm).rows
        want = rational_exp([list(r) for r in nm.rows], nm.index, p)
        assert [list(r) for r in got] == want


def test_mat_exp_is_unipotent():
    rng = random.Random(606)
    for _ in range(20):
        nm = NilpotentMatrix.from_matrix(random_nilpotent(rng, 3, 101))
        g = mat_exp(nm)
        assert det(g) == 1
        diff = lin_comb((1, g), (-1, identity(3, 101)))
        assert is_nilpotent(diff)[0]


def test_exp_scaled_shift3_known_value():
    nm = NilpotentMatrix.from_matrix(mat([list(r) for r in SHIFT3], 7))
    assert exp_scaled(3, nm).rows == ((1, 3, 1), (0, 1, 3), (0, 0, 1))


def test_exp_scaled_zero_and_negative():
    nm = NilpotentMatrix.from_matrix(mat([list(r) for r in SHIFT3], 7))
    assert exp_scaled(0, nm) == unit_element(3, 7)
    assert exp_scaled(7, nm) == unit_element(3, 7)  # scalar reduced mod p
    with pytest.raises(ParameterError):
        exp_scaled(-1, nm)
    # edge scalars on each profile's generators, against the rational oracle
    for name in ("toy", "small", "paper"):
        params = make_params(name, RngHandle(b"\x0c" * 32))
        p = params.p
        pair = sample_noncommuting_pair(params.n, p, RngHandle(b"\x0d" * 32))
        for nm in pair:
            for t in (0, 1, p - 1, p, 2 ** PROFILES[name]["kappa3"] - 1, p * p + 3):
                scaled = [[t * e for e in row] for row in nm.rows]
                want = rational_exp(scaled, nm.index, p)
                assert [list(r) for r in exp_scaled(t, nm).rows] == want


def test_exp_scaled_one_parameter_law():
    rng = random.Random(707)
    for _ in range(50):
        p = rng.choice([7, 101, 2**31 - 1, P256])
        n = rng.choice([2, 3, 5])
        nm = NilpotentMatrix.from_matrix(random_nilpotent(rng, n, p))
        t, s = rng.randrange(2 * p), rng.randrange(2 * p)
        lhs = mat_mul(exp_scaled(t, nm), exp_scaled(s, nm))
        assert lhs == exp_scaled(t + s, nm)
        scaled = [[t * e for e in row] for row in nm.rows]
        want = rational_exp(scaled, nm.index, p)
        assert [list(r) for r in exp_scaled(t, nm).rows] == want


def test_exponential_holds_the_largest_sums_at_the_codec_limits():
    # n = 16 at a 4096-bit prime, the codec's limits: every table entry of -J
    # (J strictly upper triangular, all ones) is p - 1, and at t = p - 1 each
    # entry sums up to 15 products of two residues, wider than 2*bits(p) bits
    # before its one reduction; the oracle comparison checks every entry
    n, p = 16, P4096
    assert is_probable_prime(p) and p.bit_length() == 4096
    nm = nilpotent(mat([[p - 1 if j > i else 0 for j in range(n)] for i in range(n)], p), n)
    scalars = (p - 1, 2**4095 + 12345)
    for t in scalars:
        want = rational_exp([[t * e % p for e in row] for row in nm.rows], n, p)
        assert [list(r) for r in exp_scaled(t, nm).rows] == want
    # the sums above do need more than 2*bits(p) bits per entry
    terms = term_rows(nm)
    assert all(e == p - 1 for i, row in enumerate(terms[0]) for e in row[i + 1:])
    for t in scalars:
        cs = [pow(t, m, p) for m in range(1, n)]
        widest = max(sum(c * term[i][j] for c, term in zip(cs, terms))
                     for i in range(n) for j in range(n))
        assert widest >= 1 << 2 * p.bit_length()


def test_exp_composite_modulus_raises_parameter_error():
    # 2! has no inverse mod 6: the exponential's table cannot be built, so
    # both constructors raise before any exponential is asked for
    a = mat(SHIFT4_MOD6, 6)
    for build in (lambda: nilpotent(a, 4), lambda: NilpotentMatrix.from_matrix(a)):
        with pytest.raises(ParameterError, match="modulus must be prime"):
            build()


def test_validated_generator_without_factorial_inverses_keeps_no_table():
    # p = 2 <= n = 3 leaves no room for 2!: no constructor returns a
    # nilpotent matrix without its table, it raises instead
    a = mat([list(r) for r in SHIFT3], 2)
    for build in (lambda: nilpotent(a, 3), lambda: NilpotentMatrix.from_matrix(a)):
        with pytest.raises(ParameterError, match="need p > n"):
            build()


def test_stored_table_is_invisible_to_value_semantics(monkeypatch):
    assert [f.name for f in dataclasses.fields(NilpotentMatrix)] == ["n", "p", "rows", "index"]
    walked = record_proofs(monkeypatch)
    rng = random.Random(717)
    for p in (101, P256):
        nm = NilpotentMatrix.from_matrix(random_nilpotent(rng, 5, p))
        # new row tuples, so that each proof's walk is found by its own rows
        fresh = NilpotentMatrix(5, p, tuple(tuple([*row]) for row in nm.rows), nm.index)
        # both constructors keep the entries their proof walked, and the tables are equal
        assert nm._terms == fresh._terms
        for built in (nm, fresh):
            assert_table_holds_proof_entries(built, walked)
        assert nm == fresh and hash(nm) == hash(fresh) and repr(nm) == repr(fresh)
        assert "_terms" not in repr(nm)
        assert canonical_bytes(nm) == canonical_bytes(fresh)
        t = rng.randrange(p)
        assert exp_scaled(t, nm) == exp_scaled(t, fresh)
        assert mat_exp(nm) == mat_exp(fresh)


def test_attack_solvers_on_planted_generators_make_no_matrix_product(monkeypatch):
    left, right = sample_noncommuting_pair(3, 65521, RngHandle(b"\x05" * 32))
    target = group_mul(exp_scaled(5, left), exp_scaled(6, right))
    inst = NafInstance(left, right, target, 8, 8)
    calls = []
    real = matfield.mat_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(matfield, "mat_mul", counted)
    solutions = [naf_bruteforce(inst), naf_mitm(inst)]
    assert [(s.left_scalar, s.right_scalar) for s in solutions] == [(5, 6)] * 2
    # the tables were kept when the generators were sampled, and each solver
    # confirms its candidate with `rows_mul` on the rows of two exponentials
    assert len(calls) == 0


def test_commutes():
    a = mat([[0, 1], [0, 0]], 7)
    b = mat([[0, 0], [1, 0]], 7)
    assert commutes(a, a)
    assert not commutes(a, b)


def test_commutes_agrees_with_full_products():
    rng = random.Random(919)
    pairs = []
    for _ in range(500):
        p, n = rng.choice([2, 3, 7, 101]), rng.choice([1, 2, 3, 5])
        a, b = random_matrix(rng, n, p), random_matrix(rng, n, p)
        rows = [list(r) for r in a.rows]
        rows[-1][-1] = (rows[-1][-1] + 1) % p
        pairs += [(a, b), (a, a), (a, mat_mul(a, a)), (a, identity(n, p)), (a, mat(rows, p))]
    verdicts = [commutes(a, b) for a, b in pairs]
    assert verdicts == [mat_mul(a, b) == mat_mul(b, a) for a, b in pairs]
    assert verdicts.count(False) > 400 and verdicts.count(True) > 1500


def test_group_element_rejects_singular():
    with pytest.raises(NotInvertibleError):
        GroupElement(2, 7, ((1, 2), (2, 4)))


def test_group_element_is_an_invertible_field_matrix():
    assert [f.name for f in dataclasses.fields(GroupElement)] == ["n", "p", "rows"]
    assert dataclasses.fields(GroupElement) == dataclasses.fields(FieldMatrix)
    nm = NilpotentMatrix.from_matrix(mat([list(r) for r in SHIFT3], 7))
    g, one = exp_scaled(3, nm), identity(3, 7)
    for h in (g, mat_exp(nm), group_mul(g, g), mat_mul(g, g), mat_inv(g), mat_inv(one)):
        assert type(h) is GroupElement and isinstance(h, FieldMatrix)
    # one plain operand makes a plain product
    for a, b in ((one, one), (g, one), (one, g)):
        assert type(mat_mul(a, b)) is FieldMatrix
    plain = FieldMatrix(g.n, g.p, g.rows)
    assert g != plain and plain != g
    assert g == GroupElement(g.n, g.p, g.rows) and hash(g) == hash(GroupElement(3, 7, g.rows))


def test_nilpotent_matrix_is_a_field_matrix_proven_nilpotent():
    assert [f.name for f in dataclasses.fields(NilpotentMatrix)] == ["n", "p", "rows", "index"]
    nm = NilpotentMatrix(3, 7, SHIFT3, 3)
    assert isinstance(nm, FieldMatrix) and not isinstance(nm, GroupElement)
    assert nm == NilpotentMatrix.from_matrix(FieldMatrix(3, 7, SHIFT3))
    # no plain matrix or group element with the same rows equals it; a
    # nilpotent matrix is singular, so the group element is built unchecked
    twins = (FieldMatrix(3, 7, SHIFT3), trusted(GroupElement, n=3, p=7, rows=SHIFT3))
    for twin in twins:
        assert nm != twin and twin != nm
    # a product of two nilpotent matrices, or of one and a group element, is plain
    one = unit_element(3, 7)
    for a, b in ((nm, nm), (nm, one), (one, nm), (nm, twins[0])):
        assert type(mat_mul(a, b)) is FieldMatrix
    assert mat_mul(nm, nm) == FieldMatrix(3, 7, ((0, 0, 1), (0, 0, 0), (0, 0, 0)))


def test_group_mul_and_inverse():
    rng = random.Random(808)
    for _ in range(20):
        ma, mb = random_invertible(rng, 3, 101), random_invertible(rng, 3, 101)
        a, b = GroupElement(ma.n, ma.p, ma.rows), GroupElement(mb.n, mb.p, mb.rows)
        assert group_mul(a, b).rows == mat_mul(ma, mb).rows
        assert group_mul(a, mat_inv(ma)) == unit_element(3, 101)


def test_canonical_bytes_layout():
    a = mat([[1, 2], [3, 4]], 7)
    out = canonical_bytes(a)
    assert out == bytes([0, 0, 0, 2, 0, 0, 0, 1, 7, 1, 2, 3, 4])


def test_canonical_bytes_width_tracks_prime():
    a = mat([[1, 0], [0, 1]], 257)  # 9-bit prime -> 2-byte entries
    out = canonical_bytes(a)
    assert len(out) == 4 + 4 + 2 + 4 * 2
    assert out[8:10] == (257).to_bytes(2, "big")


def test_canonical_bytes_injective_on_samples():
    rng = random.Random(909)
    seen = set()
    for _ in range(200):
        blob = canonical_bytes(random_matrix(rng, 2, 101))
        seen.add(blob)
    # 200 draws from 101^4 matrices: a repeat blob must mean a repeat matrix,
    # and distinct draws dominate, so the set should be nearly full.
    assert len(seen) > 190


def test_is_probable_prime_matches_trial_division():
    for n in range(2000):
        assert is_probable_prime(n) == trial_division_prime(n), n
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(561)  # Carmichael number
    assert not is_probable_prime(2**31 - 3)


def test_is_probable_prime_agrees_with_miller_rabin_oracle():
    for n in range(2000, 20000):
        assert is_probable_prime(n) == trial_division_prime(n), n
    rng = random.Random(1313)
    primes = 0
    for bits in (16, 24, 32, 64, 128, 256):
        for _ in range(1000):
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            verdict = is_probable_prime(n)
            assert verdict == miller_rabin_prime(n), n
            primes += verdict
    assert primes > 200  # both verdicts are exercised


def _selfridge(n):
    d = 5
    while _jacobi(d, n) != -1:
        d = -d - 2 if d > 0 else -d + 2
    return d, (1 - d) // 4


# The last two base-2 and last three Lucas entries have no prime factor below
# 1024 (1069 * 2137, 1061 * 3181; 1069 * 1601, 1063 * 2129, 1123 * 2243), so
# `is_probable_prime` hands them to the half of Baillie-PSW that must catch them.
BASE2_PSEUDOPRIMES = (2047, 3277, 4033, 1093**2, 3511**2, 2284453, 3375041)
LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    1711469, 2263127, 2518889,
)


def test_is_probable_prime_rejects_pseudoprimes():
    # each half of the test lets through what the other must catch
    for n in BASE2_PSEUDOPRIMES:
        assert _strong_base2(n), n
    for n in LUCAS_PSEUDOPRIMES:
        assert not _strong_base2(n), n
        assert _strong_lucas(n, _selfridge(n)[1]), n
    carmichael = (561, 1105)
    psp_first_nine_prime_bases = 3825123056304260017
    for n in BASE2_PSEUDOPRIMES + LUCAS_PSEUDOPRIMES + carmichael + (psp_first_nine_prime_bases,):
        assert not miller_rabin_prime(n), n  # composite by the oracle too
        assert not is_probable_prime(n), n
    # trial division is by exactly the primes below 1024; these get past it
    assert _SMALL_PRIMES == [q for q in range(1024) if trial_division_prime(q)]
    beyond = [n for n in BASE2_PSEUDOPRIMES + LUCAS_PSEUDOPRIMES
              if all(n % q for q in _SMALL_PRIMES)]
    assert beyond == [1093**2, 3511**2, 2284453, 3375041, 1711469, 2263127, 2518889]
    with pytest.raises(ParameterError, match="not prime"):
        ParameterSet(kappa1=11, n=2, p=2047, kappa2=64, kappa3=8, kappa4=8, msg_len=128)


def test_v_ladder_matches_uv_ladder_oracle():
    verdicts = []
    shared = []  # verdicts where gcd(Q, n) > 1, which the ladder rejects before it starts
    for n in range(3, 20000, 2):
        if isqrt(n) ** 2 != n:
            d, q = _selfridge(n)
            verdict = _strong_lucas(n, q)
            assert verdict == uv_strong_lucas(n, d, q), n
            verdicts.append(verdict)
            if gcd(q, n) != 1:
                shared.append(verdict)
    assert True in verdicts and False in verdicts
    assert len(shared) == 973 and not any(shared)
    for n in LUCAS_PSEUDOPRIMES:
        assert _strong_lucas(n, _selfridge(n)[1]) and uv_strong_lucas(n, *_selfridge(n)), n


def test_v_ladder_matches_uv_ladder_oracle_at_paper_size():
    # 256-bit ladders, half of them with Q = -1: the ladder takes the same
    # steps for every Q, but its P' = Q^-1 - 2 is n - 3 there and a full-size
    # residue otherwise, and the pinned primes below take both classes; every
    # other candidate is a prime, so both verdicts occur
    rng = random.Random(2561)
    verdicts = {True: [], False: []}  # keyed by whether Q = -1
    while min(map(len, verdicts.values())) < 50:
        n = rng.getrandbits(256) | (1 << 255) | 1
        if sum(map(len, verdicts.values())) % 2:
            while not miller_rabin_prime(n, rounds=8):
                n += 2
        if isqrt(n) ** 2 == n:
            continue
        d, q = _selfridge(n)
        if len(verdicts[q == -1]) < 50:
            verdict = _strong_lucas(n, q)
            assert verdict == uv_strong_lucas(n, d, q), n
            verdicts[q == -1].append(verdict)
    for found in verdicts.values():
        assert True in found and False in found
    # the pinned primes: the paper one takes Q = -1, the small and toy ones Q = 2
    kat = {}
    for path in sorted(KAT_DATA.glob("kat_*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["op"] == "sample_prime":
                kat[path.stem] = _selfridge(int(record["out"], 16))
    assert kat == {"kat_paper": (5, -1), "kat_small": (-7, 2), "kat_toy": (-7, 2)}


def test_is_probable_prime_accepts_known_primes():
    kat_primes = []
    for path in sorted(KAT_DATA.glob("kat_*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record["op"] == "sample_prime":
                kat_primes.append(int(record["out"], 16))
    assert len(kat_primes) == 3  # one per pinned bundle: toy, small, paper
    for p in [2**127 - 1, P256, *kat_primes]:
        assert is_probable_prime(p), p


def test_is_invertible_agrees_with_cofactor_det():
    for p in (5, 7):
        for entries in itertools.product(range(p), repeat=4):
            rows = [list(entries[:2]), list(entries[2:])]
            a = mat(rows, p)
            expected = slow_det(rows, p)
            assert is_invertible(a) == (expected != 0), (rows, p)
            assert det(a) == expected
    rng = random.Random(1414)
    for _ in range(500):
        p = rng.choice([2, 3, 5, 7, 11, 101, P256])
        a = random_matrix(rng, 3, p)
        expected = slow_det([list(r) for r in a.rows], p)
        assert is_invertible(a) == (expected != 0)
        assert det(a) == expected
    # beyond the cofactor oracle's reach, dense matrices and singular ones
    # (last row a multiple of the first, so that only the last pivot
    # vanishes) against row_reduce's rank
    for p in (2**61 - 1, P256):
        for n in range(6, 17):
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            c = rng.randrange(1, p)
            singular = rows[:-1] + [[c * e % p for e in rows[0]]]
            for r in (rows, singular):
                full = len(row_reduce(r, p)[0]) == n
                assert is_invertible(mat(r, p)) == full == (r is rows), (n, p)


def _raised(f, *args):
    """The ParameterError text f raises on args, or None when it returns."""
    try:
        f(*args)
    except ParameterError as e:
        return str(e)
    return None


def unit_pivot_rows(rng, n, p, last=None):
    """Dense rows L * U mod p: L unit lower triangular, U upper triangular with
    unit diagonal entries but the last, which is `last` when given. Each
    leading k x k minor of L * U is the product of U's first k diagonal
    entries, so elimination without row swaps meets exactly those pivots, up
    to unit factors."""
    units = [u for u in range(1, p) if gcd(u, p) == 1]
    lower = [[rng.randrange(p) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.choice(units) if i == j else rng.randrange(p) if i < j else 0
              for j in range(n)] for i in range(n)]
    if last is not None:
        upper[-1][-1] = last
    return slow_mat_mul(lower, upper, p)


def test_elimination_differential_on_sparse_matrices():
    # det and is_invertible run the forward pass alone, mat_inv the whole
    # reduction of [a | I]; they must agree with the cofactor determinant,
    # with each other, and on the zero divisor a composite modulus meets
    rng = random.Random(2024)
    composite_errors = 0
    for p in (2, 3, 4, 6, 9, 10, 15, 101, 2**61 - 1):
        for _ in range(120):
            n = rng.randint(1, 5)
            rows = [[rng.randrange(p) if rng.random() < 0.5 else 0 for _ in range(n)]
                    for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                c = rng.randrange(p)
                rows[-1] = [c * e % p for e in rows[0]]
            a = mat(rows, p)
            augmented = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
            message = _raised(row_reduce, rows, p)
            assert _raised(is_invertible, a) == _raised(det, a) == message, (rows, p)
            # [a | I] meets a's pivots first, then more when a is singular
            inv_message = _raised(row_reduce, augmented, p)
            assert message is None or inv_message == message
            if inv_message is not None:
                composite_errors += 1
                assert _raised(mat_inv, a) == inv_message
                continue
            expected = slow_det(rows, p)
            assert det(a) == expected
            assert is_invertible(a) == (expected != 0) == (len(row_reduce(rows, p)[0]) == n)
            if expected:
                assert slow_mat_mul(mat_inv(a).rows, rows, p) == [list(r) for r in identity(n, p).rows]
            else:
                with pytest.raises(NotInvertibleError):
                    mat_inv(a)
    assert composite_errors > 50
    # dense matrices over a composite modulus whose first n - 1 pivots are
    # units and meet no row swap: the forward pass raises exactly when the
    # last pivot is a nonzero non-unit; they are dense, so nearly every row
    # below a pivot is scaled by it, and det's correction for those scales
    # is largest here
    for p, non_unit in ((15, 3), (768, 6)):
        for n in range(1, 9):
            for last in (None, 0, non_unit):
                rows = unit_pivot_rows(rng, n, p, last)
                a = mat(rows, p)
                message = _raised(row_reduce, rows, p)
                assert _raised(is_invertible, a) == _raised(det, a) == message, (rows, p)
                assert (message is None) == (last != non_unit)
                if message is None:
                    assert is_invertible(a) == (last is None) == (len(row_reduce(rows, p)[0]) == n)
                    if n <= 6:
                        assert det(a) == slow_det(rows, p), (rows, p)


def has_nonzero_minor(rows, k, p, with_last=False):
    """Whether some k x k minor is nonzero mod p, from cofactor determinants;
    with_last keeps to the minors that use the last row."""
    picks = itertools.combinations(range(len(rows) - with_last), k - with_last)
    for rs in (rs + (len(rows) - 1,) * with_last for rs in picks):
        for cs in itertools.combinations(range(len(rows[0])), k):
            if slow_det([[rows[i][j] for j in cs] for i in rs], p):
                return True
    return False


def minor_rank(rows, p):
    """Order of the largest nonzero minor."""
    k = min(len(rows), len(rows[0]))
    while k and not has_nonzero_minor(rows, k, p):
        k -= 1
    return k


def test_row_reduce_against_minor_rank():
    rng, mix = random.Random(1111), random.Random(2222)
    shapes = [(r, c) for r in range(1, 7) for c in range(1, 7) if min(r, c) <= 4]
    ranks = set()
    for p in (2, 3, 5, 7, 101, 2**61 - 1):
        for r, c in shapes:
            for _ in range(4):
                # a product through k inner dimensions has rank at most k
                k = rng.randint(1, min(r, c))
                left = [[rng.randrange(p) for _ in range(k)] for _ in range(r)]
                right = [[rng.randrange(p) for _ in range(c)] for _ in range(k)]
                rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
                        for row in left]
                pivot_cols, reduced = row_reduce(rows, p)
                # entries are taken mod p: shifted representatives change nothing
                shifted = [[x + p * rng.randint(-2, 2) for x in row] for row in rows]
                assert row_reduce(shifted, p) == (pivot_cols, reduced)
                # the reduced row echelon form is one per row space: shuffled
                # rows, each scaled by a unit, reduce to the same pair
                units = [mix.randrange(1, p) for _ in rows]
                mixed = [[x * u % p for x in row] for row, u in zip(rows, units)]
                mix.shuffle(mixed)
                assert row_reduce(mixed, p) == (pivot_cols, reduced), (rows, p)
                rank = minor_rank(rows, p)
                ranks.add(rank)
                assert len(pivot_cols) == rank, (rows, p)
                assert pivot_cols == sorted(set(pivot_cols))
                for i, col in enumerate(pivot_cols):
                    assert [row[col] for row in reduced] == [int(j == i) for j in range(r)]
                assert all(not any(row) for row in reduced[rank:])
                # stacking a reduced row under the input keeps the rank, so
                # the reduction keeps the row space
                if rank < c:
                    for row in reduced:
                        assert not has_nonzero_minor(rows + [row], rank + 1, p, True)
    assert ranks == set(range(5))


def test_is_invertible_composite_modulus_raises_parameter_error():
    # [[0, 2], [0, 1]] is singular, but the pass goes on past its pivotless
    # first column and meets the zero divisor 2
    for rows in ([[2, 1], [1, 1]], [[0, 2], [0, 1]]):
        a = mat(rows, 6)
        with pytest.raises(ParameterError, match="modulus must be prime"):
            is_invertible(a)
        with pytest.raises(ParameterError, match="modulus must be prime"):
            GroupElement(a.n, a.p, a.rows)
    # the pivot 5 leaves the row with a 0 below it untouched, so the next
    # pivot is 2; a pass that scaled that row too would meet 5 * 2 = 4
    a = mat([[5, 0], [0, 2]], 6)
    message = "2 has no inverse mod 6: the modulus must be prime"
    assert _raised(is_invertible, a) == _raised(det, a) == _raised(mat_inv, a) == message
    assert _raised(row_reduce, a.rows, a.p) == _raised(GroupElement, a.n, a.p, a.rows) == message
    assert is_invertible(identity(3, 6))


def test_parameter_set_validation():
    ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
    with pytest.raises(ParameterError):  # wrong bit length
        ParameterSet(kappa1=9, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
    with pytest.raises(ParameterError):  # composite p
        ParameterSet(kappa1=8, n=2, p=249, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
    with pytest.raises(ParameterError):  # production rank floor
        ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128, toy=False)
    with pytest.raises(ParameterError):  # exponent longer than the prime
        ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=16, kappa4=8, msg_len=128)
    with pytest.raises(ParameterError):  # p must exceed n
        ParameterSet(kappa1=3, n=5, p=5, kappa2=64, kappa3=3, kappa4=3, msg_len=128)


@pytest.mark.parametrize("name", ["kappa2", "kappa3", "kappa4", "msg_len"])
def test_parameter_set_rejects_nonpositive_lengths(name):
    fields = dict(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
    ParameterSet(**fields)
    for bad in (0, -1):
        with pytest.raises(ParameterError, match=f"{name} must be positive"):
            ParameterSet(**{**fields, name: bad})


@pytest.mark.parametrize("name, bad, message", [
    ("kappa1", 8.0, "kappa1 must be an int, not float"),
    ("n", 2.0, "n must be an int, not float"),
    ("p", 251.0, "p must be an int, not float"),
    ("kappa2", 64.0, "kappa2 must be an int, not float"),
    ("kappa3", True, "kappa3 must be an int, not bool"),
    ("kappa4", "8", "kappa4 must be an int, not str"),
    ("msg_len", 128.0, "msg_len must be an int, not float"),
    ("toy", 1, "toy must be a bool, not int"),
    ("toy", None, "toy must be a bool, not NoneType"),
])
def test_parameter_set_checks_each_field_type(name, bad, message):
    # kappa1=8.0 was accepted, and codec.encode of the set then raised
    # AttributeError
    fields = dict(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
    with pytest.raises(ParameterError) as e:
        ParameterSet(**{**fields, name: bad})
    assert str(e.value) == message
