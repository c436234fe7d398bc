import dataclasses
import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from conftest import count_calls, unit_element, zeros

from lgpk import matfield
from lgpk.bitstrings import BitStr, trusted
from lgpk.codec import (
    KIND_CIPHERTEXT,
    KIND_PARAMS,
    KIND_PRIVATE_KEY,
    KIND_PUBLIC_KEY,
    LAYOUTS,
    MAGIC,
    MAX_DIM,
    MAX_LENGTH_BITS,
    MAX_PRIME_BITS,
    VERSION,
    _Reader,
    _read_params_raw,
    decode,
    decode_prefix,
    encode,
    open_file,
    pk_fingerprint,
    seal_file,
)
from lgpk.errors import (
    CodecError,
    SemanticDecodeError,
    StructuralDecodeError,
)
from lgpk.hashsuite import SUITE_ID
from lgpk.matfield import (
    FieldMatrix,
    ParameterSet,
    canonical_bytes,
    identity,
)
from lgpk.sampler import RngHandle
from lgpk.scheme import Ciphertext, PrivateKey, PublicKey, decrypt, encrypt, keygen

import zlib

SEED = b"\x42" * 32
TOY = ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=128)
TINY = ParameterSet(kappa1=3, n=2, p=7, kappa2=16, kappa3=3, kappa4=3, msg_len=16)


def reframe(frame: bytes) -> bytes:
    """Recompute the trailing CRC after byte surgery on a frame."""
    head = frame[:-4]
    return head + zlib.crc32(head).to_bytes(4, "big")


def sample_objects(params=TOY):
    pk, sk = keygen(params, RngHandle(SEED))
    rng = RngHandle(b"\x55" * 32)
    ct = encrypt(pk, rng.bitstr(params.msg_len), rng)
    return params, pk, sk, ct


def test_round_trip_every_kind():
    for params in (TOY, TINY):
        for obj in sample_objects(params):
            assert decode(encode(obj)) == obj


def test_every_field_of_a_type_has_a_slot_in_its_layout():
    # a field the layout does not name would be dropped on the wire, and the
    # round trip would still pass for any field with a default
    for kind, cls in ((KIND_PUBLIC_KEY, PublicKey), (KIND_PRIVATE_KEY, PrivateKey),
                      (KIND_CIPHERTEXT, Ciphertext)):
        layout_cls, fields = LAYOUTS[kind]
        assert layout_cls is cls
        assert sorted(name for name, _ in fields) == sorted(f.name for f in dataclasses.fields(cls))
    assert LAYOUTS[KIND_PARAMS] == (ParameterSet, ((None, "params"),))
    raw = _read_params_raw(_Reader(encode(TOY), len(MAGIC) + 2))
    assert sorted(raw) == sorted(f.name for f in dataclasses.fields(ParameterSet))


def test_decoding_a_bytearray_gives_bytes_fields():
    # the bit strings once kept bytearray slices, so the ciphertext did not hash
    *_, ct = sample_objects()
    got = decode(bytearray(encode(ct)))
    assert got == ct and hash(got) == hash(ct)
    assert type(got.sealed_seed.data) is type(got.masked_msg.data) is bytes


def test_encode_is_deterministic():
    _, pk, _, _ = sample_objects()
    assert encode(pk) == encode(pk)


def test_encode_rejects_unknown_type():
    with pytest.raises(CodecError):
        encode("not a wire object")


def test_decode_bad_magic():
    data = encode(TOY)
    with pytest.raises(StructuralDecodeError):
        decode(b"XXXX" + data[4:])


def test_decode_bad_version():
    data = bytearray(encode(TOY))
    data[4] = VERSION + 1
    with pytest.raises(StructuralDecodeError):
        decode(reframe(bytes(data)))


def test_decode_unknown_kind():
    data = bytearray(encode(TOY))
    data[5] = 0x7F
    with pytest.raises(StructuralDecodeError):
        decode(reframe(bytes(data)))


def test_decode_truncated():
    data = encode(TOY)
    for cut in (0, 3, 6, len(data) // 2, len(data) - 1):
        with pytest.raises(StructuralDecodeError):
            decode(data[:cut])


def test_decode_trailing_bytes():
    with pytest.raises(StructuralDecodeError):
        decode(encode(TOY) + b"\x00")


def test_decode_crc_flip():
    data = bytearray(encode(TOY))
    data[-1] ^= 0xFF
    with pytest.raises(StructuralDecodeError):
        decode(bytes(data))


def test_decode_body_corruption_fails_crc():
    data = bytearray(encode(TOY))
    data[10] ^= 0x01
    with pytest.raises(StructuralDecodeError):
        decode(bytes(data))


def test_expect_kind_mismatch():
    with pytest.raises(StructuralDecodeError):
        decode(encode(TOY), expect_kind=KIND_PUBLIC_KEY)
    assert decode(encode(TOY), expect_kind=KIND_PARAMS) == TOY


def test_non_minimal_prime_encoding_is_structural():
    # params body ends with plen ‖ p; re-encode p=251 as two bytes 0x00 0xfb
    data = encode(TINY)
    body = data[6:-4]
    assert body.endswith(bytes([0, 0, 0, 1, 7]))
    padded = body[:-5] + bytes([0, 0, 0, 2, 0, 7])
    with pytest.raises(StructuralDecodeError):
        decode(reframe(data[:6] + padded + data[-4:]))


def test_composite_modulus_is_semantic():
    data = encode(TINY)
    swapped = data.replace(bytes([0, 0, 0, 1, 7]), bytes([0, 0, 0, 1, 9]))
    with pytest.raises(SemanticDecodeError):
        decode(reframe(swapped))


def test_entry_out_of_range_is_semantic():
    _, pk, _, _ = sample_objects(TINY)
    data = encode(pk)
    canon = canonical_bytes(pk.key_product)
    # bump the first entry of the key product to p+1 (structurally fine, 1 byte)
    idx = data.index(canon)
    entry_off = idx + len(canon) - 4  # 4 one-byte entries for n=2, p=7
    patched = data[:entry_off] + bytes([8]) + data[entry_off + 1:]
    with pytest.raises(SemanticDecodeError):
        decode(reframe(patched))


def test_wrong_nilpotency_index_is_semantic():
    _, pk, _, _ = sample_objects(TINY)
    data = encode(pk)
    marker = canonical_bytes(pk.left_gen.base) + bytes([pk.left_gen.index])
    idx = data.index(marker)
    bad = data[:idx + len(marker) - 1] + bytes([pk.left_gen.index + 1]) + data[idx + len(marker):]
    with pytest.raises(SemanticDecodeError):
        decode(reframe(bad))


def test_singular_rand_product_is_semantic():
    _, pk, _, ct = sample_objects(TINY)
    data = encode(ct)
    good = canonical_bytes(ct.rand_product)
    bad = canonical_bytes(zeros(2, 7))
    assert len(good) == len(bad)
    with pytest.raises(SemanticDecodeError):
        decode(reframe(data.replace(good, bad)))


def test_composite_modulus_ciphertext_is_semantic():
    # a ciphertext carries its own modulus; over Z_9 the first pivot 3 is a
    # zero divisor, which the invertibility check reports without an inverse,
    # and over Z_6 the check goes on past a pivotless column to the pivot 2
    _, _, _, ct = sample_objects(TINY)
    data = encode(ct)
    good = canonical_bytes(ct.rand_product)
    for p, rows in ((9, ((3, 1), (1, 1))), (6, ((0, 2), (0, 1)))):
        bad = canonical_bytes(FieldMatrix(2, p, rows))
        assert len(good) == len(bad)
        with pytest.raises(SemanticDecodeError, match="modulus must be prime"):
            decode(reframe(data.replace(good, bad)))


def test_mismatched_secret_factor_groups_is_semantic():
    _, _, sk, _ = sample_objects(TINY)
    data = encode(sk)
    right = canonical_bytes(sk.right_factor)
    foreign = canonical_bytes(identity(3, 7))
    with pytest.raises(SemanticDecodeError):
        decode(reframe(data.replace(right, foreign)))


def test_public_key_with_commuting_generators_is_semantic():
    # the frame is well formed; only PublicKey's own check can reject it
    _, pk, _, _ = sample_objects(TINY)
    same = trusted(PublicKey, params=pk.params, left_gen=pk.left_gen,
                   right_gen=pk.left_gen, key_product=pk.key_product)
    with pytest.raises(SemanticDecodeError, match="generators must not commute"):
        decode(encode(same))


def test_set_padding_bits_are_structural():
    ct = Ciphertext(
        BitStr.from_int(5, 13),
        unit_element(2, 7),
        BitStr.from_int(0, 16),
    )
    data = encode(ct)
    seal = bytes([0, 0, 0, 13]) + BitStr.from_int(5, 13).data
    idx = data.index(seal)
    patched = bytearray(data)
    patched[idx + 5] |= 0xE0  # set bits beyond the 13th
    with pytest.raises(StructuralDecodeError):
        decode(reframe(bytes(patched)))


def test_decode_prefix_streams_concatenated_frames():
    _, pk, _, ct = sample_objects(TINY)
    rng = RngHandle(b"\x66" * 32)
    ct2 = encrypt(pk, rng.bitstr(TINY.msg_len), rng)
    blob = encode(ct) + encode(ct2)
    first, off = decode_prefix(blob, 0, expect_kind=KIND_CIPHERTEXT)
    second, end = decode_prefix(blob, off, expect_kind=KIND_CIPHERTEXT)
    assert (first, second) == (ct, ct2)
    assert end == len(blob)


def test_fingerprint_is_stable_and_distinguishing():
    _, pk, sk, _ = sample_objects()
    assert pk_fingerprint(pk) == pk_fingerprint(pk)
    assert sk.pk_fingerprint == pk_fingerprint(pk)
    pk2, _ = keygen(TOY, RngHandle(b"\x43" * 32))
    assert pk_fingerprint(pk) != pk_fingerprint(pk2)


def test_random_mutations_never_yield_silent_garbage():
    """A mutated frame either fails decoding or decodes to a valid object that
    re-encodes canonically; nothing in between."""
    rng = random.Random(1234)
    params, pk, sk, ct = sample_objects(TINY)
    frames = [encode(o) for o in (params, pk, sk, ct)]
    for _ in range(300):
        frame = bytearray(rng.choice(frames))
        pos = rng.randrange(len(frame))
        frame[pos] ^= 1 << rng.randrange(8)
        try:
            obj = decode(bytes(frame))
        except CodecError:
            continue
        assert encode(obj) == bytes(frame)


def test_random_noise_is_rejected():
    rng = random.Random(5678)
    for size in (0, 1, 5, 16, 64, 300):
        noise = bytes(rng.randrange(256) for _ in range(size))
        with pytest.raises(CodecError):
            decode(noise)


def test_toy_pk_wire_length_is_computable():
    _, pk, _, _ = sample_objects(TINY)
    n, plen = 2, 1
    params_body = 1 + 6 * 4 + 4 + plen
    matrix = 4 + 4 + plen + n * n * plen
    body = params_body + 1 + (matrix + 1) * 2 + matrix
    assert len(encode(pk)) == 4 + 1 + 1 + body + 4


def test_composite_modulus_ciphertext_decodes_and_decrypts_to_none():
    # primality is tested for params and public-key frames only: the identity
    # mod 9 has unit pivots, so no elimination step exposes the modulus
    _, pk, sk, ct = sample_objects(TINY)
    data = encode(ct)
    good = canonical_bytes(ct.rand_product)
    bad = canonical_bytes(identity(2, 9))
    assert len(good) == len(bad)
    forged = decode(reframe(data.replace(good, bad)))
    assert forged.rand_product.p == 9
    assert decrypt(sk, pk, forged) is None


def test_public_key_of_another_hash_suite_is_rejected():
    # the suite byte follows the parameter body; no oracle is defined for
    # another value, so the frame is refused before its matrices are read
    _, pk, _, _ = sample_objects()
    frame = bytearray(encode(pk))
    at = len(encode(pk.params)) - 4
    assert frame[at] == SUITE_ID
    frame[at] = 2
    with pytest.raises(StructuralDecodeError, match="^unsupported hash suite 2$"):
        decode(reframe(bytes(frame)))


def test_dimension_above_the_limit_is_rejected_before_semantic_work(monkeypatch):
    # frames of real keys: without the limit the n = 17 ones would decode
    frames = {}
    for n, p in ((MAX_DIM, 17), (MAX_DIM + 1, 19)):
        params = ParameterSet(kappa1=5, n=n, p=p, kappa2=16, kappa3=3, kappa4=3, msg_len=16)
        rng = RngHandle(bytes([n]) * 32)
        pk, sk = keygen(params, rng)
        ct = encrypt(pk, rng.bitstr(16), rng)
        frames[n] = [(obj, encode(obj)) for obj in (params, pk, sk, ct)]
    primes = count_calls(monkeypatch, matfield, "is_probable_prime")
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    for obj, wire in frames[MAX_DIM]:
        assert decode(wire) == obj
    assert primes + muls
    primes.clear()
    muls.clear()
    for _, wire in frames[MAX_DIM + 1]:
        with pytest.raises(StructuralDecodeError, match="dimension 17 exceeds the limit of 16"):
            decode(wire)
    assert primes + muls == []


def test_modulus_above_the_limit_is_rejected_before_semantic_work(monkeypatch):
    # frames of a real key over the Mersenne prime 2^4253 - 1: without the
    # limit they would decode, after a full primality check of the modulus
    p = 2**4253 - 1
    assert MAX_PRIME_BITS < p.bit_length()
    params = ParameterSet(kappa1=4253, n=2, p=p, kappa2=16, kappa3=3, kappa4=3, msg_len=16)
    rng = RngHandle(SEED)
    pk, sk = keygen(params, rng)
    ct = encrypt(pk, rng.bitstr(16), rng)
    primes = count_calls(monkeypatch, matfield, "is_probable_prime")
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    for obj in (params, pk, sk, ct):
        with pytest.raises(StructuralDecodeError, match="4253 bits exceeds the limit of 4096"):
            decode(encode(obj))
    assert primes + muls == []


def test_modulus_at_the_limit_reaches_the_semantic_phase(monkeypatch):
    # rewrite kappa1 and p in the parameter body that opens TOY's params and
    # public-key frames: a modulus of exactly MAX_PRIME_BITS passes the
    # structural phase, and the primality check rejects it
    composite = 2**MAX_PRIME_BITS - 1
    old_body = encode(TOY)[6:-4]
    new_body = (
        old_body[:1] + MAX_PRIME_BITS.to_bytes(4, "big") + old_body[5:-5]
        + (MAX_PRIME_BITS // 8).to_bytes(4, "big") + composite.to_bytes(MAX_PRIME_BITS // 8, "big")
    )
    calls = count_calls(monkeypatch, matfield, "is_probable_prime")
    for obj in sample_objects(TOY)[:2]:
        frame = encode(obj)
        assert frame[6:].startswith(old_body)
        bad = reframe(frame.replace(old_body, new_body, 1))
        with pytest.raises(SemanticDecodeError, match="is not prime"):
            decode(bad)
    assert len(calls) == 2



def test_lengths_above_the_limit_are_rejected_before_semantic_work(monkeypatch):
    # frames of real keys: without the limit the 4,097-bit ones would decode,
    # after a primality check of the modulus
    frames = {}
    for name in ("kappa2", "msg_len"):
        for bits in (MAX_LENGTH_BITS, MAX_LENGTH_BITS + 1):
            params = dataclasses.replace(TINY, **{name: bits})
            pk, _ = keygen(params, RngHandle(SEED))
            frames[name, bits] = [(obj, encode(obj)) for obj in (params, pk)]
    calls = count_calls(monkeypatch, matfield, "is_probable_prime")
    for name in ("kappa2", "msg_len"):
        for obj, wire in frames[name, MAX_LENGTH_BITS]:
            assert decode(wire) == obj
        assert len(calls) == 2
        calls.clear()
        for _, wire in frames[name, MAX_LENGTH_BITS + 1]:
            with pytest.raises(StructuralDecodeError,
                               match=f"{name} of 4097 bits exceeds the limit of 4096"):
                decode(wire)
        assert calls == []


def kat_frames(profile):
    """The params, public-key, private-key and ciphertext frames of a pinned bundle."""
    records = {}
    for line in (Path(__file__).parent / "data" / f"kat_{profile}.jsonl").read_text().splitlines():
        record = json.loads(line)
        records.setdefault(record["op"], record)
    hexes = (records["encode"]["out"], records["keygen"]["pk"], records["keygen"]["sk"],
             records["encrypt"]["ct"])
    return [bytes.fromhex(h) for h in hexes]


def test_decode_verdicts_of_mutated_toy_frames_are_pinned():
    # 1-3 bytes flipped outside the CRC, which is then recomputed, so the
    # mutations reach every phase of decoding; each verdict is the error's
    # class, message and cause, or whether the object re-encodes to the frame
    frames = kat_frames("toy")
    rng = random.Random(12)
    verdicts = []
    for _ in range(4000):
        frame = bytearray(rng.choice(frames))
        for pos in rng.sample(range(len(frame) - 4), rng.randint(1, 3)):
            frame[pos] ^= rng.randrange(1, 256)
        wire = reframe(bytes(frame))
        try:
            obj = decode(wire)
        except Exception as e:
            cause = type(e.__cause__).__name__ if e.__cause__ else None
            verdicts.append([type(e).__name__, str(e), cause, isinstance(e, CodecError)])
        else:
            verdicts.append(["decoded", encode(obj) == wire])
    escaped = [v for v in verdicts if v[0] != "decoded" and not v[3]]
    assert escaped == []
    # 285 of these frames declare a kappa2 or msg_len above MAX_LENGTH_BITS;
    # before that limit 87 of them decoded, 111 failed semantically and 87
    # failed later in the structural phase (2,571 / 608 / 821 in all).
    # 15 are public keys whose suite byte is not SUITE_ID; before that check
    # 5 of them decoded, 3 failed semantically and 7 failed later in the
    # structural phase (2,769 / 497 / 734 in all). 42 semantic verdicts lost
    # their claimed nilpotency index when the proof became the one index check:
    # 32 read "matrix is not nilpotent" without "of index k", and 10 claims
    # outside [1, n] now fail the proof like any other wrong claim
    assert Counter(v[0] for v in verdicts) == {
        "StructuralDecodeError": 2777, "SemanticDecodeError": 494, "decoded": 729,
    }
    assert sum(v[0] != "decoded" and v[1].startswith("unsupported hash suite")
               for v in verdicts) == 15
    assert all(v[1] for v in verdicts if v[0] == "decoded")
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == "fdb660561b14cf5e990d15410066fff178359096990fe12f98362ce9c8abe5a4"


def test_open_file_verdicts_of_mutated_sealed_files_are_pinned():
    # one byte flipped, a tail cut off, or 1-8 bytes inserted; every mutated
    # file must be refused with a CodecError, whose class and message are pinned
    _, pk, sk, _ = sample_objects()
    sealed = seal_file(pk, bytes(range(64)), RngHandle(b"\x66" * 32))
    assert open_file(sk, pk, sealed) == bytes(range(64))
    rng = RngHandle(b"\x0f" * 32)
    verdicts = []
    for _ in range(2000):
        blob = bytearray(sealed)
        how = rng.below(3)
        if how == 0:
            blob[rng.below(len(blob))] ^= 1 + rng.below(255)
        elif how == 1:
            del blob[rng.below(len(blob)):]
        else:
            pos = rng.below(len(blob) + 1)
            blob[pos:pos] = rng.take(1 + rng.below(8))
        try:
            open_file(sk, pk, bytes(blob))
        except CodecError as e:
            verdicts.append([how, type(e).__name__, str(e)])
        else:
            verdicts.append([how, "accepted", ""])
    # among them 840 length-field and 373 tag mismatches, and 356 truncated and
    # 252 checksum failures of the KEM frame; none reaches `decrypt`'s validity
    # check, because the KEM frame's CRC catches a changed frame first
    assert Counter(v[1] for v in verdicts) == {
        "StructuralDecodeError": 1627, "AuthenticationError": 373,
    }
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    assert digest == "9548b99687292fc4a41b7b10d2b3702d3c0f88ecb8938c6158be8cb42614b28c"
