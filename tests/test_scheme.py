from collections import Counter

import pytest
from conftest import assert_table_holds_proof_rows, count_calls, record_proofs

from lgpk import codec, matfield, sampler
from lgpk.bitstrings import BitStr
from lgpk.codec import decode, encode, pk_fingerprint
from lgpk.errors import EncodingError, KeyMismatchError, NotInvertibleError, ParameterError
from lgpk.hashsuite import h1, h2
from lgpk.matfield import (
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    ParameterSet,
    exp_scaled,
    group_mul,
    identity,
    mat_mul,
    term_rows,
)
from lgpk.sampler import RngHandle, make_params
from lgpk.scheme import Ciphertext, PrivateKey, PublicKey, decrypt, encrypt, keygen

SEED = b"\x07" * 32

TOY = ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
TINY = ParameterSet(kappa1=3, n=2, p=7, kappa2=16, kappa3=3, kappa4=3, msg_len=16)
SMALL = ParameterSet(
    kappa1=32, n=3, p=4294967291, kappa2=64, kappa3=32, kappa4=32, msg_len=128
)


def toy_keypair(seed=SEED, params=TOY):
    return keygen(params, RngHandle(seed))


def test_keygen_secret_factors_multiply_to_key_product():
    pk, sk = toy_keypair()
    assert group_mul(sk.left_factor, sk.right_factor) == pk.key_product


def test_keygen_deterministic_under_seed():
    assert toy_keypair() == toy_keypair()
    pk1, _ = toy_keypair(seed=b"\x01" * 32)
    pk2, _ = toy_keypair(seed=b"\x02" * 32)
    assert pk1 != pk2


def test_keygen_binds_sk_to_pk():
    pk, sk = toy_keypair()
    assert sk.pk_fingerprint == pk_fingerprint(pk)



def test_private_key_rejects_a_short_fingerprint():
    _, sk = toy_keypair()
    with pytest.raises(ParameterError) as e:
        PrivateKey(sk.left_factor, sk.right_factor, sk.pk_fingerprint[:31])
    assert str(e.value) == "fingerprint must be 32 bytes"

def test_round_trip():
    pk, sk = toy_keypair()
    rng = RngHandle(b"\x21" * 32)
    for _ in range(50):
        m = rng.bitstr(TOY.msg_len)
        ct = encrypt(pk, m, rng)
        assert decrypt(sk, pk, ct) == m


def test_round_trip_tiny_field():
    pk, sk = keygen(TINY, RngHandle(SEED))
    rng = RngHandle(b"\x22" * 32)
    for _ in range(20):
        m = rng.bitstr(TINY.msg_len)
        assert decrypt(sk, pk, encrypt(pk, m, rng)) == m


def test_encrypt_rejects_wrong_message_length():
    pk, _ = toy_keypair()
    expected = f"^message must be {TOY.msg_len} bits, got {TOY.msg_len - 1}$"
    with pytest.raises(EncodingError, match=expected):
        encrypt(pk, BitStr.from_int(0, TOY.msg_len - 1), RngHandle(SEED))


def test_encrypt_operation_counts():
    pk, _ = toy_keypair()
    ops = Counter()
    encrypt(pk, BitStr.from_int(5, TOY.msg_len), RngHandle(SEED), ops)
    assert ops == Counter(exp_maps=2, group_mults=3)


def test_decrypt_operation_counts():
    pk, sk = toy_keypair()
    ct = encrypt(pk, BitStr.from_int(5, TOY.msg_len), RngHandle(SEED))
    ops = Counter()
    decrypt(sk, pk, ct, ops)
    assert ops == Counter(exp_maps=2, group_mults=5)


def test_key_generators_exponentiate_without_products(monkeypatch):
    pk, _ = toy_keypair(params=SMALL)
    decoded = decode(encode(pk))
    calls = count_calls(monkeypatch, matfield, "mat_mul")
    for key in (pk, decoded):
        for gen in (key.left_gen, key.right_gen):
            assert gen.index == SMALL.n  # so a table built per call would need a product
            exp_scaled(123456789, gen)
    assert calls == []


def test_paper_keygen_builds_each_table_once(monkeypatch):
    params = make_params("paper", RngHandle(SEED))
    muls = count_calls(monkeypatch, matfield, "mat_mul", aliases=(sampler,))
    walked = record_proofs(monkeypatch)
    pk, _ = keygen(params, RngHandle(SEED))
    # 2 x (2 conjugation products + 3 nilpotency products, the traces
    # proving X^5 = 0) sampling, whose powers also fill the generators'
    # tables, and 1 for the key product; commutes takes none
    assert len(muls) == 11
    for gen in (pk.left_gen, pk.right_gen):
        assert_table_holds_proof_rows(gen, walked)


def test_paper_round_trip_multiplies_through_mat_mul(monkeypatch):
    params = make_params("paper", RngHandle(SEED))
    pk, sk = keygen(params, RngHandle(SEED))
    rng = RngHandle(b"\x09" * 32)
    msg = rng.bitstr(params.msg_len)
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    assert decrypt(sk, pk, encrypt(pk, msg, rng)) == msg
    # 3 products to encrypt and 5 to decrypt, each one `mat_mul` call that
    # the benchmark's tracer sees
    assert len(muls) == 8


def test_decode_checks_primality_once_and_takes_no_det(monkeypatch):
    params = make_params("paper", RngHandle(SEED))
    pk, _ = keygen(params, RngHandle(SEED))
    rng = RngHandle(b"\x09" * 32)
    pk_wire = encode(pk)
    ct_wire = encode(encrypt(pk, rng.bitstr(params.msg_len), rng))
    primes = count_calls(monkeypatch, matfield, "is_probable_prime")
    dets = count_calls(monkeypatch, matfield, "det")
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    assert decode(pk_wire) == pk
    # 2 x 3 nilpotency products, the traces proving X^5 = 0, whose powers
    # also fill the key's tables; commutes takes none
    assert (len(primes), len(dets), len(muls)) == (1, 0, 6)
    decode(ct_wire)
    assert (len(primes), len(dets), len(muls)) == (1, 0, 6)


def exp_terms_oracle(base, index):
    """The rows of X^m/m! mod p for 1 <= m < index, from plain powers."""
    p = base.p
    terms, power, fact = [], base, 1
    for m in range(1, index):
        fact *= m
        c = pow(fact, -1, p)
        terms.append(tuple(tuple(c * e % p for e in row) for row in power.rows))
        power = mat_mul(power, base)
    return tuple(terms)


def test_decoded_key_keeps_its_proof_tables_and_encrypts_alike():
    m_rng = RngHandle(b"\x0a" * 32)
    for params in (TINY, SMALL, make_params("paper", RngHandle(SEED))):
        pk, _ = keygen(params, RngHandle(SEED))
        decoded = decode(encode(pk))
        for gen in (decoded.left_gen, decoded.right_gen):
            assert term_rows(gen) == exp_terms_oracle(gen.base, gen.index)
        m = m_rng.bitstr(params.msg_len)
        cts = [encode(encrypt(key, m, RngHandle(b"\x0b" * 32))) for key in (decoded, pk)]
        assert cts[0] == cts[1]


def test_key_generator_tables_leave_wire_bytes_unchanged():
    pk, _ = toy_keypair(params=SMALL)
    wire = encode(pk)
    for gen in (pk.left_gen, pk.right_gen):
        assert gen._terms is not None
        object.__delattr__(gen, "_terms")
    assert encode(pk) == wire


def test_encryption_is_randomized():
    pk, _ = toy_keypair()
    m = BitStr.from_int(1234, TOY.msg_len)
    seen = set()
    rng = RngHandle(b"\x33" * 32)
    for _ in range(100):
        ct = encrypt(pk, m, rng)
        key = (ct.sealed_seed.hex(), ct.rand_product.rows, ct.masked_msg.hex())
        assert key not in seen
        seen.add(key)


def test_correctness_identity_at_group_level():
    # exp(r_l L) · key_product · exp(r_r R) equals
    # left_factor · rand_product · right_factor for honest randomness
    for seed in (b"\x01" * 32, b"\x02" * 32, b"\x03" * 32):
        pk, sk = toy_keypair(seed=seed)
        rng = RngHandle(seed + b"!")
        m = rng.bitstr(TOY.msg_len)
        sigma = rng.bitstr(TOY.kappa2)
        r_left, r_right = (r.to_int() for r in h1(pk.params, sigma, m))
        left_rand = exp_scaled(r_left, pk.left_gen)
        right_rand = exp_scaled(r_right, pk.right_gen)
        lhs = mat_mul(mat_mul(left_rand, pk.key_product), right_rand)
        rand_product = mat_mul(left_rand, right_rand)
        rhs = mat_mul(mat_mul(sk.left_factor, rand_product), sk.right_factor)
        assert lhs == rhs


def test_toy_closed_form_of_rand_product():
    """With shift-matrix generators the randomizer product has a known shape."""
    p = 7
    upper = NilpotentMatrix(FieldMatrix(2, p, ((0, 1), (0, 0))), 2)
    lower = NilpotentMatrix(FieldMatrix(2, p, ((0, 0), (1, 0))), 2)
    left_factor = GroupElement(2, p, ((1, 2), (0, 1)))   # exp(2*upper)
    right_factor = GroupElement(2, p, ((1, 0), (3, 1)))  # exp(3*lower)
    key_product = group_mul(left_factor, right_factor)
    pk = PublicKey(TINY, upper, lower, key_product)
    sk = PrivateKey(left_factor, right_factor, pk_fingerprint(pk))

    rng = RngHandle(SEED)
    m = BitStr.from_int(0xBEEF, 16)
    ct = encrypt(pk, m, rng)

    replay = RngHandle(SEED)
    sigma = replay.bitstr(TINY.kappa2)
    r_left, r_right = (r.to_int() % p for r in h1(TINY, sigma, m))
    expected = ((1 + r_left * r_right) % p, r_left), (r_right, 1)
    assert ct.rand_product.rows == expected
    assert decrypt(sk, pk, ct) == m


def test_decrypt_rejects_seed_bit_flip():
    pk, sk = toy_keypair()
    ct = encrypt(pk, BitStr.from_int(77, TOY.msg_len), RngHandle(SEED))
    flipped = ct.sealed_seed ^ BitStr.from_int(1 << 13, TOY.kappa2)
    assert decrypt(sk, pk, Ciphertext(flipped, ct.rand_product, ct.masked_msg)) is None


def test_decrypt_rejects_message_bit_flip():
    pk, sk = toy_keypair()
    ct = encrypt(pk, BitStr.from_int(77, TOY.msg_len), RngHandle(SEED))
    flipped = ct.masked_msg ^ BitStr.from_int(1, TOY.msg_len)
    assert decrypt(sk, pk, Ciphertext(ct.sealed_seed, ct.rand_product, flipped)) is None


def test_decrypt_rejects_rand_product_perturbation():
    pk, sk = toy_keypair()
    ct = encrypt(pk, BitStr.from_int(77, TOY.msg_len), RngHandle(SEED))
    p = TOY.p
    rows = [list(r) for r in ct.rand_product.rows]
    for delta in range(1, p):
        rows[0][1] = (ct.rand_product.rows[0][1] + delta) % p
        try:
            perturbed = GroupElement(2, p, tuple(tuple(r) for r in rows))
        except NotInvertibleError:
            continue
        assert decrypt(sk, pk, Ciphertext(ct.sealed_seed, perturbed, ct.masked_msg)) is None


def test_decrypt_rejects_rand_product_forged_under_an_h2_collision():
    # At kappa2 = 8, a perturbed rand_product whose sandwich collides with the
    # honest one under h2 (about 256 tries) recovers the same seed and message,
    # so only the comparison of rand_product in the re-encryption catches it.
    params = ParameterSet(kappa1=8, n=2, p=251, kappa2=8, kappa3=8, kappa4=8, msg_len=128)
    pk, sk = keygen(params, RngHandle(SEED))
    rng = RngHandle(b"\x44" * 32)
    m = rng.bitstr(params.msg_len)
    ct = encrypt(pk, m, rng)

    def h2_of_sandwich(rand):
        sandwich = group_mul(group_mul(sk.left_factor, rand), sk.right_factor)
        return h2(params, sandwich)

    honest = h2_of_sandwich(ct.rand_product)
    seed = ct.sealed_seed ^ honest
    for _ in range(4096):
        rows = tuple(tuple(rng.below(params.p) for _ in range(2)) for _ in range(2))
        if not matfield.is_invertible(FieldMatrix(2, params.p, rows)):
            continue
        forged_rand = group_mul(ct.rand_product, GroupElement(2, params.p, rows))
        digest = h2_of_sandwich(forged_rand)
        if digest == honest and forged_rand != ct.rand_product:
            break
    else:
        pytest.fail("no h2 collision in 4096 tries")
    forged = Ciphertext(digest ^ seed, forged_rand, ct.masked_msg)
    assert forged.sealed_seed == ct.sealed_seed and forged != ct
    assert decrypt(sk, pk, ct) == m
    assert decrypt(sk, pk, forged) is None


def test_decrypt_fingerprints_the_public_key_once(monkeypatch):
    pk, sk = toy_keypair()
    fresh = decode(encode(pk))  # no fingerprint computed on it yet
    rng = RngHandle(b"\x55" * 32)
    messages = [rng.bitstr(TOY.msg_len) for _ in range(10)]
    cts = [encrypt(fresh, m, rng) for m in messages]
    encodes = count_calls(monkeypatch, codec, "encode")
    for m, ct in zip(messages, cts):
        assert decrypt(sk, fresh, ct) == m
    assert len(encodes) == 1
    # the kept digest is invisible to equality, repr and the wire
    assert fresh == pk and repr(fresh) == repr(pk)
    monkeypatch.undo()
    assert encode(fresh) == encode(pk)


def test_decrypt_with_foreign_key_raises():
    pk, _ = toy_keypair(seed=b"\x01" * 32)
    _, sk2 = toy_keypair(seed=b"\x02" * 32)
    ct = encrypt(pk, BitStr.from_int(1, TOY.msg_len), RngHandle(SEED))
    with pytest.raises(KeyMismatchError):
        decrypt(sk2, pk, ct)


def test_decrypt_returns_none_on_shape_mismatch():
    pk, sk = toy_keypair()
    ct = encrypt(pk, BitStr.from_int(1, TOY.msg_len), RngHandle(SEED))
    short_seed = BitStr.from_int(0, TOY.kappa2 - 8)
    assert decrypt(sk, pk, Ciphertext(short_seed, ct.rand_product, ct.masked_msg)) is None
    other_group = GroupElement(2, 7, ((1, 0), (0, 1)))
    assert decrypt(sk, pk, Ciphertext(ct.sealed_seed, other_group, ct.masked_msg)) is None


@pytest.mark.parametrize("foreign", [identity(2, 9), identity(3, 251)], ids=["mod9", "3x3"])
def test_decrypt_rejects_private_key_outside_the_public_group(foreign):
    # the fingerprint is just bytes, so a key can carry the right one while
    # its factors live in another group; it must be refused, not multiplied
    pk, sk = toy_keypair()
    ct = encrypt(pk, BitStr.from_int(5, TOY.msg_len), RngHandle(SEED))
    factor = GroupElement(foreign.n, foreign.p, foreign.rows)
    alien = PrivateKey(factor, factor, sk.pk_fingerprint)
    with pytest.raises(KeyMismatchError, match="public key's group"):
        decrypt(alien, pk, ct)
