import dataclasses

import pytest
from conftest import count_calls, miller_rabin_prime, trial_division_prime

from lgpk import matfield, sampler
from lgpk.errors import ParameterError
from lgpk.matfield import (
    FieldMatrix,
    NilpotentMatrix,
    ParameterSet,
    commutes,
    det,
    is_nilpotent,
    mat_exp,
    mat_inv,
    mat_mul,
)
from lgpk.sampler import (
    PROFILES,
    RngHandle,
    make_params,
    sample_invertible,
    sample_matrix,
    sample_nilpotent,
    sample_noncommuting_pair,
    sample_prime,
)

SEED = bytes(range(32))


def test_seeded_stream_is_reproducible():
    a = RngHandle(SEED)
    b = RngHandle(SEED)
    assert a.take(100) == b.take(100)
    assert [a.randbits(13) for _ in range(20)] == [b.randbits(13) for _ in range(20)]
    assert a.below(1000) == b.below(1000)
    assert a.bitstr(21) == b.bitstr(21)


def test_different_seeds_diverge():
    assert RngHandle(SEED).take(32) != RngHandle(b"\x00" * 32).take(32)


def test_take_is_position_dependent():
    # reading 10+10 bytes equals reading 20 at once
    a = RngHandle(SEED)
    b = RngHandle(SEED)
    assert a.take(10) + a.take(10) == b.take(20)


def test_unseeded_handle_draws_entropy():
    rng = RngHandle()
    assert rng.take(16) != rng.take(16)


def test_randbits_range():
    rng = RngHandle(SEED)
    assert rng.randbits(0) == 0
    for k in (1, 7, 8, 9, 64, 257):
        for _ in range(50):
            assert 0 <= rng.randbits(k) < 1 << k


def test_below_range_and_coverage():
    rng = RngHandle(SEED)
    seen = set()
    for _ in range(500):
        v = rng.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    assert rng.below(1) == 0
    with pytest.raises(ParameterError):
        rng.below(0)


def test_bitstr_is_masked():
    rng = RngHandle(SEED)
    for nbits in (1, 5, 8, 13, 64):
        s = rng.bitstr(nbits)
        assert s.nbits == nbits
        assert s.to_int() < 1 << nbits


def test_sample_prime_three_bits_exhausts_both_primes():
    rng = RngHandle(SEED)
    values = {sample_prime(3, rng) for _ in range(60)}
    assert values == {5, 7}


def test_sample_prime_is_prime_by_trial_division():
    rng = RngHandle(SEED)
    for bits in (8, 12, 16, 20):
        p = sample_prime(bits, rng)
        assert p.bit_length() == bits
        assert trial_division_prime(p)


def test_sample_prime_large_has_exact_bits():
    rng = RngHandle(SEED)
    p = sample_prime(256, rng)
    assert p.bit_length() == 256
    assert p % 2 == 1


def test_sample_prime_same_under_miller_rabin_oracle(monkeypatch):
    # sample_prime returns the first candidate that passes, so the two tests
    # must agree on every candidate drawn before it, composites included
    seeds = [bytes([i]) * 32 for i in range(8)]
    sizes = (64, 128, 256)
    ours = [sample_prime(bits, RngHandle(seed)) for seed in seeds for bits in sizes]
    monkeypatch.setattr(sampler, "is_probable_prime", miller_rabin_prime)
    oracle = [sample_prime(bits, RngHandle(seed)) for seed in seeds for bits in sizes]
    assert ours == oracle


def test_sample_prime_rejects_tiny_request():
    with pytest.raises(ParameterError):
        sample_prime(2, RngHandle(SEED))


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_make_params_proves_its_prime_once(monkeypatch, profile):
    tested = []
    real = matfield.is_probable_prime

    def recorded(n):
        tested.append(n)
        return real(n)

    for module in (matfield, sampler):
        monkeypatch.setattr(module, "is_probable_prime", recorded)
    params = make_params(profile, RngHandle(SEED))
    assert tested.count(params.p) == 1
    assert ParameterSet(**dataclasses.asdict(params)) == params



@pytest.mark.parametrize("draw, message", [
    (lambda rng: RngHandle("00" * 32), "seed must be bytes or None"),
    (lambda rng: rng.take(-1), "cannot take a negative number of bytes"),
    (lambda rng: rng.randbits(-1), "bit count must be non-negative"),
    (lambda rng: sample_invertible(0, 7, rng), "matrix dimension must be >= 1"),
    # without the check, n = 1 redraws the empty upper triangle forever
    (lambda rng: sample_nilpotent(1, 7, rng), "nilpotent sampling needs n >= 2"),
], ids=["str-seed", "take-negative", "randbits-negative", "invertible-n-0", "nilpotent-n-1"])
def test_sampler_rejects_invalid_requests(draw, message):
    with pytest.raises(ParameterError) as e:
        draw(RngHandle(SEED))
    assert str(e.value) == message

def test_sample_invertible_always_invertible():
    rng = RngHandle(SEED)
    for _ in range(20):
        g = sample_invertible(3, 101, rng)
        assert det(g) != 0


def test_sample_invertible_one_by_one_mod_two():
    rng = RngHandle(SEED)
    assert sample_invertible(1, 2, rng).rows == ((1,),)


def test_gl_acceptance_rate_matches_formula():
    """det != 0 frequency for uniform 3x3 over p=101 vs prod(1 - p^-k)."""
    p, n = 101, 3
    expected = 1.0
    for k in range(1, n + 1):
        expected *= 1 - p ** -k
    rng = RngHandle(SEED)
    hits = sum(1 for _ in range(3000) if det(sample_matrix(n, p, rng)) != 0)
    assert abs(hits / 3000 - expected) < 0.01


def test_sample_nilpotent_properties():
    rng = RngHandle(SEED)
    for n, p in ((2, 7), (3, 7), (3, 251), (5, 101)):
        nm = sample_nilpotent(n, p, rng)
        ok, ell = is_nilpotent(nm.base)
        assert ok and nm.index == ell and 2 <= ell <= n


def test_sample_nilpotent_reduces_each_conjugator_once(monkeypatch):
    # over F_7 about one 3x3 draw in six is singular, so redraws happen; the
    # result must match Q U Q^-1 built from sample_invertible's draws
    n, p = 3, 7
    expected = []
    for seed in range(40):
        rng = RngHandle(bytes([seed]) * 32)
        while True:
            upper = tuple(tuple(rng.below(p) if j > i else 0 for j in range(n)) for i in range(n))
            if any(map(any, upper)):
                break
        q = sample_invertible(n, p, rng)
        base = mat_mul(mat_mul(q, FieldMatrix(n, p, upper)), mat_inv(q))
        expected.append(NilpotentMatrix.from_matrix(base))
    draws = count_calls(monkeypatch, sampler, "sample_matrix")
    reductions = count_calls(monkeypatch, matfield, "row_reduce")
    got = [sample_nilpotent(n, p, RngHandle(bytes([seed]) * 32)) for seed in range(40)]
    assert got == expected
    assert len(reductions) == len(draws) > 40


def test_sample_nilpotent_not_always_triangular():
    # conjugation should move mass off the strict upper triangle
    rng = RngHandle(SEED)
    lower_hits = 0
    for _ in range(20):
        nm = sample_nilpotent(3, 101, rng)
        if any(nm.base.rows[i][j] for i in range(3) for j in range(i + 1)):
            lower_hits += 1
    assert lower_hits > 10


def test_sample_noncommuting_pair():
    rng = RngHandle(SEED)
    for n, p in ((2, 7), (3, 251)):
        s, t = sample_noncommuting_pair(n, p, rng)
        assert s.base != t.base
        assert not commutes(s.base, t.base)
        # the exponential images inherit non-commutativity in general position
        gs, gt = mat_exp(s), mat_exp(t)
        assert mat_mul(gs, gt) != mat_mul(gt, gs)


def test_noncommuting_pair_determinism():
    s1, t1 = sample_noncommuting_pair(2, 7, RngHandle(SEED))
    s2, t2 = sample_noncommuting_pair(2, 7, RngHandle(SEED))
    assert s1 == s2 and t1 == t2
