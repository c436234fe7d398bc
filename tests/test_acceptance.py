"""Acceptance gate: nine end-to-end checks, one test per criterion.

Each test prints a single summary line on success (visible with -s or -rP),
and pytest -v shows one PASSED/FAILED line per criterion. Seeds are fixed so
every run checks the same ground.
"""

import time
from collections import Counter
from pathlib import Path
from statistics import median

import pytest

from conftest import lin_comb, mat, nilpotent, rational_exp, unit_element
from lgpk import codec
from lgpk.bitstrings import BitStr
from lgpk.cli import build_kat_bundle
from lgpk.cryptanalysis import NafInstance, naf_bruteforce, naf_mitm
from lgpk.errors import BudgetRefusal, NotInvertibleError
from lgpk.matfield import (
    GroupElement,
    NilpotentMatrix,
    canonical_bytes,
    commutes,
    exp_scaled,
    group_mul,
    mat_exp,
    mat_mul,
)
from lgpk.sampler import RngHandle, make_params, sample_nilpotent, sample_noncommuting_pair
from lgpk.scheme import Ciphertext, decrypt, encrypt, keygen

DATA = Path(__file__).parent / "data"
KAT_SEED = bytes.fromhex(
    "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
)
BIG_PRIME = 2**31 - 1


def test_criterion_1_exponential_algebra():
    started = time.monotonic()
    rng = RngHandle(b"\x11" * 32)
    checked = 0
    for p in (7, 101, BIG_PRIME):
        for n in (2, 3, 5):
            ident = unit_element(n, p)
            for _ in range(112):
                x = sample_nilpotent(n, p, rng)
                # exp(0) is the identity
                assert exp_scaled(0, x) == ident
                # exp(X) and exp(-X) are mutually inverse
                minus = mat([[-e for e in row] for row in x.rows], p)
                neg = nilpotent(minus, x.index)
                assert group_mul(mat_exp(x), mat_exp(neg)) == ident
                # scalars add, images multiply
                alpha, beta = rng.below(p), rng.below(p)
                both = exp_scaled((alpha + beta) % p, x)
                assert group_mul(exp_scaled(alpha, x), exp_scaled(beta, x)) == both
                # a polynomial in X commutes with X and the sum law holds
                y = lin_comb(
                    (rng.below(p), x),
                    (rng.below(p), mat_mul(x, x)),
                )
                assert commutes(x, y)
                exp_sum = mat_exp(NilpotentMatrix.from_matrix(lin_comb((1, x), (1, y))))
                exp_y = mat_exp(NilpotentMatrix.from_matrix(y))
                assert group_mul(mat_exp(x), exp_y) == exp_sum
                checked += 1
    elapsed = time.monotonic() - started
    assert checked == 1008
    assert elapsed < 10.0
    print(f"criterion 1: PASS — 4 exponential identities on {checked} nilpotents, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_2_one_parameter_subgroup_law():
    rng = RngHandle(b"\x22" * 32)
    combos = [(2, 7), (3, 101), (5, BIG_PRIME), (2, 251), (3, 17)]
    triples = 0
    for n, p in combos:
        for _ in range(200):
            x = sample_nilpotent(n, p, rng)
            t, s = rng.below(p), rng.below(p)
            product = group_mul(exp_scaled(t, x), exp_scaled(s, x))
            assert product == exp_scaled((t + s) % p, x)
            triples += 1
    assert triples == 1000
    print(f"criterion 2: PASS — F(t+s) = F(t)·F(s) on {triples} random triples, exact")


def enumerate_nilpotent_2x2(p):
    """All 2x2 nilpotents over F_p: trace 0 and determinant 0."""
    mats = []
    for a in range(p):
        for b in range(1, p):
            c = (-a * a * pow(b, p - 2, p)) % p
            mats.append(((a, b), (c, (-a) % p)))
    for c in range(p):
        mats.append(((0, 0), (c, 0)))
    return mats


def enumerate_nilpotent_3x3(p):
    """All 3x3 nilpotents over F_p, from the characteristic-polynomial system.

    With trace zero forcing i = -(a+e), the remaining two conditions (second
    elementary symmetric polynomial and determinant both zero) are linear in
    the two free bottom-row entries (g, h), so each top-block choice yields
    its solution set directly instead of scanning all p^9 matrices.
    """
    mats = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    for e in range(p):
                        i = (-(a + e)) % p
                        k2_base = (a * e - b * d) % p
                        for f in range(p):
                            k1 = (k2_base - (a + e) * (a + e)) % p
                            k2 = ((a + e) * k2_base) % p
                            m00, m01 = c, f
                            m10 = (b * f - c * e) % p
                            m11 = (c * d - a * f) % p
                            det = (m00 * m11 - m01 * m10) % p
                            if det:
                                inv = pow(det, p - 2, p)
                                g = ((m11 * k1 - m01 * k2) * inv) % p
                                h = ((m00 * k2 - m10 * k1) * inv) % p
                                mats.append(((a, b, c), (d, e, f), (g, h, i)))
                                continue
                            for g in range(p):
                                r1 = (k1 - m00 * g) % p
                                r2 = (k2 - m10 * g) % p
                                if m01 == 0 and m11 == 0:
                                    if r1 == 0 and r2 == 0:
                                        mats.extend(
                                            ((a, b, c), (d, e, f), (g, h, i))
                                            for h in range(p)
                                        )
                                elif m01 != 0:
                                    h = (r1 * pow(m01, p - 2, p)) % p
                                    if (m10 * g + m11 * h) % p == k2:
                                        mats.append(((a, b, c), (d, e, f), (g, h, i)))
                                else:
                                    h = (r2 * pow(m11, p - 2, p)) % p
                                    if (m00 * g + m01 * h) % p == k1:
                                        mats.append(((a, b, c), (d, e, f), (g, h, i)))
    return mats


def test_criterion_3_oracle_equivalence_exhaustive():
    started = time.monotonic()
    total = 0
    # split of the elapsed time, so an overrun shows which side grew
    package_s = oracle_s = 0.0
    for p in (5, 7):
        for n, enumerate_all in ((2, enumerate_nilpotent_2x2), (3, enumerate_nilpotent_3x3)):
            mats = enumerate_all(p)
            # the count of nilpotent n x n matrices over F_p is p^(n^2 - n)
            assert len(mats) == p ** (n * n - n)
            for rows in mats:
                t0 = time.monotonic()
                nil = NilpotentMatrix.from_matrix(mat(rows, p))
                fast = mat_exp(nil).rows
                t1 = time.monotonic()
                slow = rational_exp([list(r) for r in rows], nil.index, p)
                t2 = time.monotonic()
                package_s += t1 - t0
                oracle_s += t2 - t1
                assert [list(r) for r in fast] == slow
            total += len(mats)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"criterion 3: PASS — series matches the rational oracle on all "
          f"{total} nilpotent 2x2/3x3 matrices over F_5 and F_7, {elapsed:.1f}s "
          f"(package {package_s:.1f}s, oracle {oracle_s:.1f}s)")


def test_criterion_4_round_trip_correctness():
    rng = RngHandle(b"\x44" * 32)
    toy = make_params("toy", rng)
    pk, sk = keygen(toy, rng)
    for _ in range(1000):
        m = rng.bitstr(toy.msg_len)
        assert decrypt(sk, pk, encrypt(pk, m, rng)) == m
    full = make_params("paper", rng)
    pk, sk = keygen(full, rng)
    worst_enc = worst_dec = 0.0
    for _ in range(100):
        m = rng.bitstr(full.msg_len)
        t0 = time.monotonic()
        ct = encrypt(pk, m, rng)
        t1 = time.monotonic()
        out = decrypt(sk, pk, ct)
        t2 = time.monotonic()
        assert out == m
        worst_enc = max(worst_enc, t1 - t0)
        worst_dec = max(worst_dec, t2 - t1)
    assert worst_enc < 1.0 and worst_dec < 1.0
    print(f"criterion 4: PASS — 1000 toy + 100 full-size round trips, 0 failures; "
          f"worst encrypt {worst_enc * 1e3:.1f}ms, worst decrypt {worst_dec * 1e3:.1f}ms")


def test_criterion_5_every_tamper_is_rejected():
    # Runs at the small profile. At the toy profile the 8-bit derived scalars
    # wrap mod the 8-bit prime, so roughly one flip in 50k lands on another
    # honestly re-encryptable ciphertext and is (correctly!) accepted; with
    # 16-bit scalars against a 32-bit prime no such wraparound exists and the
    # acceptance probability per tamper is ~2^-32.
    rng = RngHandle(b"\x55" * 32)
    params = make_params("small", rng)
    pk, sk = keygen(params, rng)
    p, n = params.p, params.n
    rejected = accepted = 0
    for _ in range(200):
        m = rng.bitstr(params.msg_len)
        ct = encrypt(pk, m, rng)
        for nbits, build in (
            (ct.sealed_seed.nbits,
             lambda f: Ciphertext(ct.sealed_seed ^ f, ct.rand_product, ct.masked_msg)),
            (ct.masked_msg.nbits,
             lambda f: Ciphertext(ct.sealed_seed, ct.rand_product, ct.masked_msg ^ f)),
        ):
            for i in range(nbits):
                tampered = build(BitStr.from_int(1 << i, nbits))
                if decrypt(sk, pk, tampered) is None:
                    rejected += 1
                else:
                    accepted += 1
        rows = ct.rand_product.rows
        for r in range(n):
            for c in range(n):
                # every entry perturbed: one step up, one step down, one random
                for delta in (1, p - 1, 2 + rng.below(p - 3)):
                    changed = [list(row) for row in rows]
                    changed[r][c] = (changed[r][c] + delta) % p
                    try:
                        g = mat(changed, p, GroupElement)
                    except NotInvertibleError:
                        rejected += 1  # singular: not even a group element
                        continue
                    tampered = Ciphertext(ct.sealed_seed, g, ct.masked_msg)
                    if decrypt(sk, pk, tampered) is None:
                        rejected += 1
                    else:
                        accepted += 1
    assert accepted == 0
    print(f"criterion 5: PASS — {rejected} single-bit flips and single-entry "
          f"perturbations over 200 ciphertexts, all rejected")


def test_criterion_6_operation_counts_and_wire_size():
    rng = RngHandle(b"\x66" * 32)
    for profile, repeats in (("toy", 20), ("small", 20), ("paper", 5)):
        params = make_params(profile, rng)
        pk, sk = keygen(params, rng)
        plen = (params.kappa1 + 7) // 8
        expected_bits = (params.kappa2 + params.n ** 2 * 8 * plen
                         + params.msg_len + 8 * (26 + plen))
        for _ in range(repeats):
            m = rng.bitstr(params.msg_len)
            enc_ops = Counter()
            ct = encrypt(pk, m, rng, enc_ops)
            assert enc_ops == Counter(exp_maps=2, group_mults=3)
            dec_ops = Counter()
            assert decrypt(sk, pk, ct, dec_ops) == m
            assert dec_ops == Counter(exp_maps=2, group_mults=5)
            assert len(codec.encode(ct)) * 8 == expected_bits
    print("criterion 6: PASS — encrypt = 2 exp + 3 mul, decrypt = 2 exp + 5 mul, "
          "ciphertext bits = kappa2 + n^2·8·ceil(kappa1/8) + msg_len + 8·(26+plen) "
          "on all three profiles")


def test_criterion_7_injectivity_census():
    started = time.monotonic()
    rng = RngHandle(b"\x77" * 32)
    censuses = 0
    for p in (5, 7, 11, 13, 17):
        for n in (2, 3):
            for _ in range(10):
                s, t = sample_noncommuting_pair(n, p, rng)
                left = [exp_scaled(x, s) for x in range(p)]
                right = [exp_scaled(y, t) for y in range(p)]
                images = {
                    canonical_bytes(group_mul(lx, ry))
                    for lx in left for ry in right
                }
                assert len(images) == p * p
                censuses += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"criterion 7: PASS — (x, y) -> exp(xS)·exp(yT) injective on all of "
          f"Z_p x Z_p for {censuses} generator pairs, {elapsed:.1f}s")


def test_criterion_8_attack_scaling_and_refusal():
    rng = RngHandle(b"\x88" * 32)
    p = 257
    s, t = sample_noncommuting_pair(2, p, rng)
    sizes = (8, 10, 12, 14)
    # master scalars with the top bit set, halved for each smaller size, so
    # every planted pair exercises its stated bound
    masters = [(64 + rng.below(64), 64 + rng.below(64)) for _ in range(15)]
    ops_log = {(solver, b): [] for solver in ("brute", "mitm") for b in sizes}
    for x14, y14 in masters:
        for b in sizes:
            shift = (14 - b) // 2
            x, y = x14 >> shift, y14 >> shift
            bound = 1 << (b // 2)
            target = group_mul(exp_scaled(x, s), exp_scaled(y, t))
            inst = NafInstance(s, t, target, bound, bound)
            for name, solver in (("brute", naf_bruteforce), ("mitm", naf_mitm)):
                sol = solver(inst)
                assert (sol.left_scalar, sol.right_scalar) == (x, y)
                ops_log[(name, b)].append(sol.ops)
    ratios = {}
    for name, factor in (("brute", 4.0), ("mitm", 2.0)):
        medians = [median(ops_log[(name, b)]) for b in sizes]
        for small, big in zip(medians, medians[1:]):
            ratio = big / small
            assert abs(ratio - factor) <= 0.2 * factor, (name, ratio)
        ratios[name] = [f"{big / small:.2f}" for small, big in zip(medians, medians[1:])]

    full = make_params("paper", rng)
    pk, _ = keygen(full, rng)
    inst = NafInstance(pk.left_gen, pk.right_gen, pk.key_product,
                       1 << full.kappa3, 1 << full.kappa4)
    with pytest.raises(BudgetRefusal):
        naf_bruteforce(inst)
    with pytest.raises(BudgetRefusal):
        naf_mitm(inst)
    print(f"criterion 8: PASS — both solvers recover 15 plants at bound_bits "
          f"{sizes}; median ratios brute {ratios['brute']} (target 4x), "
          f"mitm {ratios['mitm']} (target 2x); full-size instance refused")


def test_criterion_9_kat_stability():
    for profile in ("toy", "small"):
        pinned = (DATA / f"kat_{profile}.jsonl").read_text()
        assert build_kat_bundle(profile, KAT_SEED) == pinned
    print("criterion 9: PASS — pinned toy and small KAT bundles regenerate bit-exactly")
