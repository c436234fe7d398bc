"""Pinned known-answer bundles.

Two layers of protection: the bundles must regenerate bit for bit from their
seed, and the decryption vector is re-derived here from the raw wire bytes by
a from-scratch oracle (hashlib + Fraction arithmetic + plain list matrices)
that shares no code with the package.
"""

import hashlib
import hmac
import json
import zlib
from pathlib import Path

import pytest

from conftest import rational_exp, slow_mat_mul
from lgpk.cli import build_kat_bundle, main
from lgpk.codec import decode
from lgpk.scheme import decrypt

DATA = Path(__file__).parent / "data"
PIN_SEED = bytes.fromhex(
    "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff"
)
PROFILES = ["toy", "small"]
# the paper bundle is pinned too, so its 256-bit lines regenerate bit for bit;
# the from-scratch oracles below cover the two smaller profiles
PINNED = PROFILES + ["paper"]


def load_records(profile):
    records = {}
    with open(DATA / f"kat_{profile}.jsonl") as fh:
        for line in fh:
            record = json.loads(line)
            records.setdefault(record["op"], []).append(record)
    return records


@pytest.mark.parametrize("profile", PINNED)
def test_pinned_bundle_regenerates_bit_exactly(profile):
    pinned = (DATA / f"kat_{profile}.jsonl").read_text()
    assert build_kat_bundle(profile, PIN_SEED) == pinned


@pytest.mark.parametrize("profile", PINNED)
def test_pinned_bundle_covers_every_operation(profile):
    assert set(load_records(profile)) >= {
        "mat_mul", "mat_inv", "is_nilpotent", "mat_exp", "exp_scaled", "commutes",
        "sample_prime", "sample_invertible", "sample_nilpotent",
        "sample_noncommuting_pair", "h1", "h2", "h3",
        "keygen", "encrypt", "decrypt", "encode", "decode",
        "naf_bruteforce", "naf_mitm", "nai_via_naf", "hardness_sweep",
    }


# ------------------------------------------------------- from-scratch oracle

class Cursor:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, k):
        chunk = self.data[self.pos:self.pos + k]
        assert len(chunk) == k, "truncated"
        self.pos += k
        return chunk

    def u32(self):
        return int.from_bytes(self.take(4), "big")

    def u8(self):
        return self.take(1)[0]

    def done(self):
        assert self.pos == len(self.data), "trailing bytes"


def open_frame(hexstr, kind):
    blob = bytes.fromhex(hexstr)
    assert blob[:4] == b"LGPK" and blob[4] == 1 and blob[5] == kind
    assert int.from_bytes(blob[-4:], "big") == zlib.crc32(blob[:-4])
    return Cursor(blob[6:-4])


def read_matrix(cur):
    n = cur.u32()
    plen = cur.u32()
    p = int.from_bytes(cur.take(plen), "big")
    width = (p.bit_length() + 7) // 8
    rows = [[int.from_bytes(cur.take(width), "big") for _ in range(n)]
            for _ in range(n)]
    return n, p, rows


def read_bitstr(cur):
    nbits = cur.u32()
    return nbits, cur.take((nbits + 7) // 8)


def canon(n, p, rows):
    plen = (p.bit_length() + 7) // 8
    out = n.to_bytes(4, "big") + plen.to_bytes(4, "big") + p.to_bytes(plen, "big")
    for row in rows:
        for entry in row:
            out += entry.to_bytes(plen, "big")
    return out


def xof(domain, payload, nbits):
    raw = bytearray(hashlib.shake_256(bytes([domain, 1]) + payload)
                    .digest((nbits + 7) // 8))
    if nbits % 8:
        raw[-1] &= (1 << (nbits % 8)) - 1
    return bytes(raw)


def xor(a, b):
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def scaled_exp(t, rows, index, p):
    scaled = [[(t * entry) % p for entry in row] for row in rows]
    return rational_exp(scaled, index, p)


@pytest.mark.parametrize("profile", PROFILES)
def test_decrypt_vector_rederived_from_scratch(profile):
    records = load_records(profile)
    pk_hex = records["keygen"][0]["pk"]
    sk_hex = records["keygen"][0]["sk"]
    ct_hex = records["decrypt"][0]["ct"]
    expected_m = records["decrypt"][0]["m"]

    cur = open_frame(pk_hex, 2)
    assert cur.u8() <= 1  # flags
    k1, k2, k3, k4, msg_len, n_declared = (cur.u32() for _ in range(6))
    plen = cur.u32()
    p = int.from_bytes(cur.take(plen), "big")
    assert cur.u8() == 1  # suite id
    n, _, left_rows = read_matrix(cur)
    left_index = cur.u8()
    _, _, right_rows = read_matrix(cur)
    right_index = cur.u8()
    _, _, delta_rows = read_matrix(cur)
    cur.done()
    assert n == n_declared

    cur = open_frame(sk_hex, 3)
    cur.take(32)  # fingerprint
    _, _, left_factor = read_matrix(cur)
    _, _, right_factor = read_matrix(cur)
    cur.done()

    cur = open_frame(ct_hex, 4)
    sealed_bits, sealed = read_bitstr(cur)
    _, _, c2_rows = read_matrix(cur)
    masked_bits, masked = read_bitstr(cur)
    cur.done()
    assert (sealed_bits, masked_bits) == (k2, msg_len)

    # unwrap: sigma from the factor sandwich, message from the sigma pad
    sandwich = slow_mat_mul(slow_mat_mul(left_factor, c2_rows, p), right_factor, p)
    sigma = xor(xof(2, canon(n, p, sandwich), k2), sealed)
    m = xor(xof(3, sigma, msg_len), masked)
    assert m.hex() == expected_m

    # the re-encryption check must also go through
    v = int.from_bytes(xof(1, sigma + m, k3 + k4), "little")
    r_left = v & ((1 << k3) - 1)
    r_right = v >> k3
    exp_left = scaled_exp(r_left, left_rows, left_index, p)
    exp_right = scaled_exp(r_right, right_rows, right_index, p)
    assert slow_mat_mul(exp_left, exp_right, p) == c2_rows
    re_sandwich = slow_mat_mul(slow_mat_mul(exp_left, delta_rows, p), exp_right, p)
    assert xor(xof(2, canon(n, p, re_sandwich), k2), sigma) == sealed


@pytest.mark.parametrize("profile", PROFILES)
def test_hash_vectors_rederived_from_scratch(profile):
    records = load_records(profile)
    k2 = {"toy": 64, "small": 64}[profile]
    k3 = k4 = {"toy": 8, "small": 16}[profile]
    msg_len = 128

    h1v = records["h1"][0]
    sigma = bytes.fromhex(h1v["sigma"])
    m = bytes.fromhex(h1v["m"])
    v = int.from_bytes(xof(1, sigma + m, k3 + k4), "little")
    assert (v & ((1 << k3) - 1)).to_bytes((k3 + 7) // 8, "little").hex() == h1v["r_left"]
    assert (v >> k3).to_bytes((k4 + 7) // 8, "little").hex() == h1v["r_right"]

    h2v = records["h2"][0]
    assert xof(2, bytes.fromhex(h2v["g"]), k2).hex() == h2v["out"]

    h3v = records["h3"][0]
    assert xof(3, bytes.fromhex(h3v["sigma"]), msg_len).hex() == h3v["out"]


@pytest.mark.parametrize("profile", PROFILES)
def test_exponential_vectors_rederived_from_scratch(profile):
    records = load_records(profile)
    expv = records["mat_exp"][0]
    n, p, rows = read_matrix(Cursor(bytes.fromhex(expv["a"])))
    assert canon(n, p, rational_exp(rows, expv["index"], p)).hex() == expv["out"]

    scaledv = records["exp_scaled"][0]
    n, p, rows = read_matrix(Cursor(bytes.fromhex(scaledv["a"])))
    out = scaled_exp(scaledv["t"], rows, expv["index"], p)
    assert canon(n, p, out).hex() == scaledv["out"]


@pytest.mark.parametrize("profile", PROFILES)
def test_attack_vector_rederived_by_plain_search(profile):
    records = load_records(profile)
    pairv = records["sample_noncommuting_pair"][0]
    n, p, left_rows = read_matrix(Cursor(bytes.fromhex(pairv["left"])))
    _, _, right_rows = read_matrix(Cursor(bytes.fromhex(pairv["right"])))
    brute = records["naf_bruteforce"][0]
    _, _, target = read_matrix(Cursor(bytes.fromhex(brute["target"])))

    left_exps = [scaled_exp(x, left_rows, pairv["left_index"], p) for x in range(16)]
    right_exps = [scaled_exp(y, right_rows, pairv["right_index"], p) for y in range(16)]
    hits = [(x, y)
            for x in range(16) for y in range(16)
            if slow_mat_mul(left_exps[x], right_exps[y], p) == target]
    assert hits[0] == (brute["left_scalar"], brute["right_scalar"])
    # x-major scan order: ops counts every pair tried up to and including the hit
    x, y = hits[0]
    assert brute["ops"] == 16 * x + y + 1


def test_pinned_sealed_file_regenerates_and_opens_from_scratch(tmp_path):
    vec = json.loads((DATA / "sealed_toy.json").read_text())
    plain = bytes.fromhex(vec["plaintext_hex"])
    (tmp_path / "m.bin").write_bytes(plain)
    prefix = str(tmp_path / "key")
    assert main(["keygen", "--profile", vec["profile"], "--seed", vec["key_seed"],
                 "--out", prefix]) == 0
    assert main(["encrypt", prefix + ".lgpk", str(tmp_path / "m.bin"),
                 "--out", str(tmp_path / "m.lgct"), "--seed", vec["encrypt_seed"]]) == 0
    blob = (tmp_path / "m.lgct").read_bytes()
    assert len(blob) == vec["sealed_bytes"]
    assert hashlib.sha256(blob).hexdigest() == vec["sealed_sha256"]

    # the layout by hand: magic and version, KEM frame, u64 length, body, tag
    cur = Cursor(blob)
    assert cur.take(5) == b"LGPF\x01"
    assert cur.take(6) == b"LGPK\x01\x04"
    read_bitstr(cur)
    read_matrix(cur)
    read_bitstr(cur)
    crc = zlib.crc32(blob[5:cur.pos])
    assert int.from_bytes(cur.take(4), "big") == crc
    kem_frame = blob[5:cur.pos]
    body = cur.take(int.from_bytes(cur.take(8), "big"))
    tag = cur.take(32)
    cur.done()

    # the file key from the library's decrypt; keystream and tag from hashlib
    pk = decode(Path(prefix + ".lgpk").read_bytes())
    sk = decode(Path(prefix + ".lgsk").read_bytes())
    key = decrypt(sk, pk, decode(kem_frame))
    stream = hashlib.shake_256(bytes([5, 1]) + key.data).digest(32 + len(body))
    assert hmac.new(stream[:32], blob[:-32], "sha256").digest() == tag
    assert xor(body, stream[32:]) == plain
