"""The scheme falls to linear algebra: the linear decomposition attack of
Myasnikov and Roman'kov ("A linear decomposition attack", Groups Complexity
Cryptology 7, 2015) recovers a working private key from the public key
alone, at every profile.

Decryption uses two facts about the secret factors a = exp(xS) and
b = exp(yT) alone: a commutes with every exp(rS), and b with every
exp(r'T). So any c in I + span(S^k/k!) and d in span(T^l/l!) with
c * key_product = d give a key (c^-1, d) that decrypts like the real one:
c^-1 exp(rS) exp(r'T) d = exp(rS) c^-1 d exp(r'T) = exp(rS) key_product
exp(r'T). The equation c * key_product = d is n^2 linear equations mod p in
(index(S) - 1) + index(T) unknowns over the bases `term_rows` gives. When
the solution is unique, c = exp(-xS) and d = exp(yT): the recovered key is
the real one, byte for byte, and x = -c_1, y = d_1.

The solver lives in this file; the library has none yet.
"""

from math import factorial

import pytest
from conftest import identity, slow_mat_mul

from lgpk.codec import encode, pk_fingerprint
from lgpk.matfield import (
    GroupElement,
    ParameterSet,
    exp_scaled,
    group_mul,
    mat_inv,
    row_reduce,
    rows_mul,
    term_rows,
)
from lgpk.sampler import RngHandle, make_params
from lgpk.scheme import PrivateKey, decrypt, encrypt, keygen


def _negated(rows):
    return [[-e for e in row] for row in rows]


def _combination(coefficients, bases, n, p):
    """The rows of the sum of coefficient * basis matrix, reduced mod p."""
    return tuple(
        tuple(sum(c * basis[i][j] for c, basis in zip(coefficients, bases)) % p for j in range(n))
        for i in range(n)
    )


def _bases(pk):
    """The rows of I, S/1!, S^2/2!, ... and of I, T/1!, T^2/2!, ..."""
    one = identity(pk.params.n, pk.params.p).rows
    return (one, *term_rows(pk.left_gen)), (one, *term_rows(pk.right_gen))


def linear_decomposition(pk):
    """(cs, ds, rank) from pk alone, for c = sum of cs[k] S^k/k! with
    cs[0] = 1 and d = sum of ds[l] T^l/l!, so that c * key_product = d mod p.
    rank is the rank of the system; its free unknowns are set to 0. The real
    key is a solution, so the system is consistent."""
    target = pk.key_product
    n, p = target.n, target.p
    left, right = _bases(pk)
    # one column per unknown c_1, ..., d_0, d_1, ..., then the right-hand
    # side: the sum of c_k * S^k/k! * key_product - d_l * T^l/l! is -key_product
    columns = [
        *[rows_mul(term, target.rows, p) for term in left[1:]],
        *[_negated(term) for term in right],
        _negated(target.rows),
    ]
    unknowns = len(columns) - 1
    system = [[column[i][j] for column in columns] for i in range(n) for j in range(n)]
    pivot_cols, reduced = row_reduce(system, p)
    assert unknowns not in pivot_cols
    values = [0] * unknowns
    for row, col in zip(reduced, pivot_cols):
        values[col] = row[unknowns]
    split = len(left) - 1
    return [1, *values[:split]], values[split:], len(pivot_cols)


def recovered_key(pk, cs, ds):
    """The private key (c^-1, d), each factor through a checking constructor."""
    n, p = pk.params.n, pk.params.p
    left, right = _bases(pk)
    c = GroupElement(n, p, _combination(cs, left, n, p))
    d = GroupElement(n, p, _combination(ds, right, n, p))
    return PrivateKey(mat_inv(c), d, pk_fingerprint(pk))


def decrypts_fresh_ciphertext(sk, pk, rng):
    message = rng.bitstr(pk.params.msg_len)
    return decrypt(sk, pk, encrypt(pk, message, rng)) == message


@pytest.mark.parametrize("profile", ["toy", "small", "paper"])
def test_linear_decomposition_recovers_the_private_key(profile):
    for seed in range(5):
        rng = RngHandle(bytes([seed]) * 32)
        pk, sk = keygen(make_params(profile, rng), rng)
        cs, ds, rank = linear_decomposition(pk)
        assert rank == len(cs) - 1 + len(ds), (profile, seed)
        # the scalars: c = exp(-xS) and d = exp(yT)
        x, y = -cs[1] % pk.params.p, ds[1]
        assert group_mul(exp_scaled(x, pk.left_gen), exp_scaled(y, pk.right_gen)) == pk.key_product
        broken = recovered_key(pk, cs, ds)
        assert encode(broken) == encode(sk), (profile, seed)
        assert decrypts_fresh_ciphertext(broken, pk, rng), (profile, seed)


@pytest.mark.parametrize("profile", ["toy", "small", "paper"])
def test_term_rows_are_the_scaled_powers_on_these_keys(profile):
    # the bases above: term m is X^m * (m!)^-1 mod p, from the slow product
    for seed in range(5):
        rng = RngHandle(bytes([seed]) * 32)
        pk, _ = keygen(make_params(profile, rng), rng)
        p = pk.params.p
        for gen in (pk.left_gen, pk.right_gen):
            power, want = gen.rows, []
            for m in range(1, gen.index):
                inverse = pow(factorial(m), -1, p)
                want.append(tuple(tuple(inverse * e % p for e in row) for row in power))
                power = slow_mat_mul(power, gen.rows, p)
            assert term_rows(gen) == tuple(want), (profile, seed)


def test_an_equivalent_key_from_a_rank_deficient_system_still_decrypts():
    # at n = 3, p = 5 a few keys in a thousand leave the system short of full
    # rank; this seed's has rank 4 in 5 unknowns, and setting the free unknown
    # to 0 gives a key other than the real one. c keeps c_0 = 1, so it is
    # unipotent and the key (c^-1, d) exists whatever the free unknowns are
    params = ParameterSet(kappa1=3, n=3, p=5, kappa2=16, kappa3=3, kappa4=3, msg_len=16)
    rng = RngHandle((1405).to_bytes(32, "big"))
    pk, sk = keygen(params, rng)
    cs, ds, rank = linear_decomposition(pk)
    assert rank == 4 and len(cs) - 1 + len(ds) == 5
    equivalent = recovered_key(pk, cs, ds)
    assert encode(equivalent) != encode(sk)
    for _ in range(20):
        assert decrypts_fresh_ciphertext(equivalent, pk, rng)
