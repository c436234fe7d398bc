"""End-to-end tests of the command-line interface via main(argv)."""

import functools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import count_calls, identity

from lgpk import cli, codec, cryptanalysis, matfield
from lgpk.bitstrings import BitStr
from lgpk.cli import build_kat_bundle, main
from lgpk.cryptanalysis import hardness_sweep, solvers
from lgpk.errors import (
    BudgetRefusal,
    KeyMismatchError,
    NotNilpotentError,
    ParameterError,
    SemanticDecodeError,
)
from lgpk.matfield import GroupElement, ParameterSet
from lgpk.sampler import RngHandle
from lgpk.scheme import Ciphertext, PrivateKey, encrypt

SEED_A = "ab" * 32
SEED_B = "cd" * 32
SEED_C = "ef" * 32
KEM_START = len(codec.SEALED_MAGIC) + 1  # after the magic and the version byte


def run(*argv):
    return main(list(argv))


@pytest.fixture
def keypair(tmp_path):
    prefix = str(tmp_path / "key")
    assert run("keygen", "--profile", "toy", "--seed", SEED_A, "--out", prefix) == 0
    return prefix + ".lgpk", prefix + ".lgsk"


def test_keygen_writes_both_files(keypair):
    pk_path, sk_path = keypair
    assert os.path.exists(pk_path)
    assert os.path.exists(sk_path)


def test_keygen_deterministic_under_seed(tmp_path):
    for name in ("one", "two"):
        assert run("keygen", "--seed", SEED_A, "--out", str(tmp_path / name)) == 0
    a = (tmp_path / "one.lgpk").read_bytes()
    b = (tmp_path / "two.lgpk").read_bytes()
    assert a == b
    assert (tmp_path / "one.lgsk").read_bytes() == (tmp_path / "two.lgsk").read_bytes()


def test_keygen_different_seeds_differ(tmp_path):
    assert run("keygen", "--seed", SEED_A, "--out", str(tmp_path / "a")) == 0
    assert run("keygen", "--seed", SEED_B, "--out", str(tmp_path / "b")) == 0
    assert (tmp_path / "a.lgpk").read_bytes() != (tmp_path / "b.lgpk").read_bytes()


def test_file_round_trip(tmp_path, keypair):
    pk_path, sk_path = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(bytes(range(256)) * 3 + b"tail")
    ct = str(tmp_path / "msg.lgct")
    out = str(tmp_path / "msg.out")
    assert run("encrypt", pk_path, str(msg), "--out", ct, "--seed", SEED_B) == 0
    assert run("decrypt", sk_path, pk_path, ct, "--out", out) == 0
    assert msg.read_bytes() == (tmp_path / "msg.out").read_bytes()


def test_empty_file_round_trip(tmp_path, keypair):
    pk_path, sk_path = keypair
    msg = tmp_path / "empty"
    msg.write_bytes(b"")
    ct = str(tmp_path / "empty.lgct")
    out = str(tmp_path / "empty.out")
    assert run("encrypt", pk_path, str(msg), "--out", ct) == 0
    assert run("decrypt", sk_path, pk_path, ct, "--out", out) == 0
    assert (tmp_path / "empty.out").read_bytes() == b""


def test_trailing_zeros_survive_padding(tmp_path, keypair):
    pk_path, sk_path = keypair
    msg = tmp_path / "zeros.bin"
    msg.write_bytes(b"data" + b"\x00" * 37)
    ct = str(tmp_path / "zeros.lgct")
    out = str(tmp_path / "zeros.out")
    assert run("encrypt", pk_path, str(msg), "--out", ct) == 0
    assert run("decrypt", sk_path, pk_path, ct, "--out", out) == 0
    assert (tmp_path / "zeros.out").read_bytes() == msg.read_bytes()


def test_corrupted_ciphertext_exits_4_without_output(tmp_path, keypair, capsys):
    pk_path, sk_path = keypair
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"attack at dawn")
    ct = tmp_path / "m.lgct"
    assert run("encrypt", pk_path, str(msg), "--out", str(ct), "--seed", SEED_B) == 0
    blob = bytearray(ct.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    bad = tmp_path / "bad.lgct"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "m.out"
    capsys.readouterr()
    assert run("decrypt", sk_path, pk_path, str(bad), "--out", str(out)) == 4
    assert capsys.readouterr().err == "error: integrity failure: checksum mismatch\n"
    assert not out.exists()


def test_inner_bit_flip_with_valid_frame_exits_4(tmp_path, keypair, capsys):
    # Re-frame the KEM ciphertext with a correct checksum, so only the
    # scheme's validity check can catch the flipped file-key bit.
    pk_path, sk_path = keypair
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x" * 8)
    ct = tmp_path / "m.lgct"
    assert run("encrypt", pk_path, str(msg), "--out", str(ct), "--seed", SEED_B) == 0
    blob = ct.read_bytes()
    obj, end = codec.decode_prefix(blob, KEM_START, codec.KIND_CIPHERTEXT)
    flipped = obj.masked_msg ^ BitStr.from_int(1, obj.masked_msg.nbits)
    tampered = codec.encode(Ciphertext(obj.sealed_seed, obj.rand_product, flipped))
    assert len(tampered) == end - KEM_START
    bad = tmp_path / "bad.lgct"
    bad.write_bytes(blob[:KEM_START] + tampered + blob[end:])
    out = tmp_path / "m.out"
    capsys.readouterr()
    assert run("decrypt", sk_path, pk_path, str(bad), "--out", str(out)) == 4
    assert capsys.readouterr().err == (
        "error: integrity failure: the file key failed the validity check\n"
    )
    assert not out.exists()


def _seal(tmp_path, pk_path, name, data, seed):
    msg = tmp_path / f"{name}.bin"
    msg.write_bytes(data)
    ct = tmp_path / f"{name}.lgct"
    assert run("encrypt", pk_path, str(msg), "--out", str(ct), "--seed", seed) == 0
    return ct.read_bytes()


def _kem_end(blob):
    return codec.decode_prefix(blob, KEM_START, codec.KIND_CIPHERTEXT)[1]


def _flip_bit(blob, pos):
    return blob[:pos] + bytes([blob[pos] ^ 0x10]) + blob[pos + 1:]


def _with_length(blob, length):
    end = _kem_end(blob)
    return blob[:end] + length.to_bytes(8, "big") + blob[end + 8:]


def _old_format(pk_path):
    """Two ciphertext frames, one per 16-byte block, as files were once written."""
    pk = codec.decode(Path(pk_path).read_bytes())
    rng = RngHandle(bytes(32))
    return b"".join(codec.encode(encrypt(pk, rng.bitstr(128), rng)) for _ in range(2))


LENGTH_MISMATCH = "error: integrity failure: length field "
TAG_MISMATCH = "error: integrity failure: tag mismatch\n"

# name -> (tamper(blob, other) -> bytes, expected start of stderr); `blob`
# seals 40 bytes, and `other` seals 40 other bytes under the same key
TAMPERS = {
    "spliced-kem": (lambda b, o: o[:_kem_end(o)] + b[_kem_end(b):], TAG_MISMATCH),
    "second-kem-after-first": (
        lambda b, o: b[:_kem_end(b)] + o[KEM_START:_kem_end(o)] + b[_kem_end(b):],
        LENGTH_MISMATCH),
    "second-kem-at-end": (lambda b, o: b + o[KEM_START:_kem_end(o)], LENGTH_MISMATCH),
    "truncated-by-one": (lambda b, o: b[:-1], LENGTH_MISMATCH),
    "truncated-in-kem": (lambda b, o: b[:_kem_end(b) - 1],
                         "error: integrity failure: truncated frame\n"),
    "extended-by-one": (lambda b, o: b + b"\x00", LENGTH_MISMATCH),
    "length-plus-one": (lambda b, o: _with_length(b, 41), LENGTH_MISMATCH),
    "length-max": (lambda b, o: _with_length(b, 2 ** 64 - 1), LENGTH_MISMATCH),
    "body-bit": (lambda b, o: _flip_bit(b, _kem_end(b) + 8 + 5), TAG_MISMATCH),
    "tag-bit": (lambda b, o: _flip_bit(b, len(b) - 7), TAG_MISMATCH),
}


@pytest.mark.parametrize("name", list(TAMPERS))
def test_tampered_sealed_file_exits_4_without_output(tmp_path, keypair, capsys, name):
    pk_path, sk_path = keypair
    data = b"forty bytes of plaintext, give or take.."
    blob = _seal(tmp_path, pk_path, "m", data, SEED_B)
    other = _seal(tmp_path, pk_path, "o", bytes(len(data)), SEED_C)
    tamper, expected = TAMPERS[name]
    bad = tmp_path / "bad.lgct"
    bad.write_bytes(tamper(blob, other))
    assert bad.read_bytes() != blob
    out = tmp_path / "m.out"
    capsys.readouterr()
    assert run("decrypt", sk_path, pk_path, str(bad), "--out", str(out)) == 4
    assert capsys.readouterr().err.startswith(expected)
    assert not out.exists()
    assert run("decrypt", sk_path, pk_path, str(tmp_path / "m.lgct"), "--out", str(out)) == 0
    assert out.read_bytes() == data


def test_old_per_block_file_exits_4_without_output(tmp_path, keypair, capsys):
    pk_path, sk_path = keypair
    old = tmp_path / "old.lgct"
    blob = _old_format(pk_path)
    old.write_bytes(blob)
    out = tmp_path / "old.out"
    capsys.readouterr()
    assert run("decrypt", sk_path, pk_path, str(old), "--out", str(out)) == 4
    assert capsys.readouterr().err == (
        "error: integrity failure: not a sealed file of version 1\n"
    )
    assert not out.exists()
    # inspect reads the first ciphertext frame, and the second is left over
    trailing = len(blob) - codec.decode_prefix(blob)[1]
    assert run("inspect", str(old)) == 4
    assert capsys.readouterr().err == (
        f"error: integrity failure in {old}: {trailing} trailing bytes after frame\n"
    )


def counted_scheme_calls(monkeypatch):
    """Record (name, exponentials, group multiplications) of every scheme
    call the container makes."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            ops = Counter()
            result = fn(*args, ops)
            assert ops.keys() == {"exp_maps", "group_mults"}
            calls.append((name, ops["exp_maps"], ops["group_mults"]))
            return result
        return wrapper

    monkeypatch.setattr(codec, "encrypt", counted("encrypt", codec.encrypt))
    monkeypatch.setattr(codec, "decrypt", counted("decrypt", codec.decrypt))
    return calls


@pytest.mark.parametrize("size", [0, 31, 32, 1024, 65536])
def test_one_scheme_call_per_file_and_a_fixed_overhead(tmp_path, keypair, monkeypatch, size):
    pk_path, sk_path = keypair
    calls = counted_scheme_calls(monkeypatch)
    data = bytes(range(256)) * (size // 256) + bytes(size % 256)
    blob = _seal(tmp_path, pk_path, "m", data, SEED_B)
    assert calls == [("encrypt", 2, 3)]
    out = tmp_path / "m.out"
    assert run("decrypt", sk_path, pk_path, str(tmp_path / "m.lgct"), "--out", str(out)) == 0
    assert calls == [("encrypt", 2, 3), ("decrypt", 2, 5)]
    assert out.read_bytes() == data
    # magic and version, the KEM frame, the u64 length, the tag
    assert len(blob) - size == 5 + (_kem_end(blob) - KEM_START) + 8 + 32 == 100


def test_one_scheme_call_per_file_at_the_paper_profile(tmp_path, monkeypatch):
    prefix = str(tmp_path / "paper")
    assert run("keygen", "--profile", "paper", "--seed", SEED_A, "--out", prefix) == 0
    calls = counted_scheme_calls(monkeypatch)
    data = bytes(1000)
    blob = _seal(tmp_path, prefix + ".lgpk", "m", data, SEED_B)
    out = tmp_path / "m.out"
    assert run("decrypt", prefix + ".lgsk", prefix + ".lgpk", str(tmp_path / "m.lgct"),
               "--out", str(out)) == 0
    assert calls == [("encrypt", 2, 3), ("decrypt", 2, 5)]
    assert out.read_bytes() == data
    assert len(blob) - len(data) == 5 + (_kem_end(blob) - KEM_START) + 8 + 32 == 967
    # the 256-bit checks of both key frames, and a checksum that fails
    assert run("inspect", prefix + ".lgsk", "--pk", prefix + ".lgpk") == 0
    key = bytearray(Path(prefix + ".lgpk").read_bytes())
    key[-1] ^= 0xFF
    flipped = tmp_path / "flipped.lgpk"
    flipped.write_bytes(bytes(key))
    assert run("inspect", str(flipped)) == 4


def test_paper_commands_take_the_pinned_products(tmp_path, monkeypatch):
    prefix = str(tmp_path / "paper")
    assert run("keygen", "--profile", "paper", "--seed", SEED_A, "--out", prefix) == 0
    muls = count_calls(monkeypatch, matfield, "mat_mul")
    _seal(tmp_path, prefix + ".lgpk", "m", bytes(100), SEED_B)
    # decoding the key: 2 x 3 nilpotency products, the traces proving X^5 = 0;
    # sealing: 3 group products
    assert len(muls) == 9
    muls.clear()
    assert run("decrypt", prefix + ".lgsk", prefix + ".lgpk", str(tmp_path / "m.lgct"),
               "--out", str(tmp_path / "m.out")) == 0
    # the same 6 decoding the key, and 5 group products opening
    assert len(muls) == 11


@pytest.mark.parametrize("msg_len, code", [(64, 2), (127, 2), (128, 0), (130, 0)])
def test_file_mode_needs_a_128_bit_file_key(tmp_path, capsys, msg_len, code):
    # p = 251 as in the toy profile; 130 bits is not byte-aligned, which the
    # container does not need
    params = ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8,
                          msg_len=msg_len)
    params_path = tmp_path / "short.lgparams"
    params_path.write_bytes(codec.encode(params))
    prefix = str(tmp_path / "short")
    assert run("keygen", "--params", str(params_path), "--seed", SEED_A, "--out", prefix) == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"short key")
    ct, out = tmp_path / "m.lgct", tmp_path / "m.out"
    capsys.readouterr()
    assert run("encrypt", prefix + ".lgpk", str(msg), "--out", str(ct)) == code
    if code:
        assert capsys.readouterr().err == (
            f"error: file mode needs msg_len >= 128, this key has {msg_len}\n"
        )
        assert not ct.exists()
        ct.write_bytes(b"LGPF\x01")  # refused before the layout is read
    assert run("decrypt", prefix + ".lgsk", prefix + ".lgpk", str(ct), "--out", str(out)) == code
    assert out.exists() == (code == 0)
    if code == 0:
        assert out.read_bytes() == msg.read_bytes()


def test_empty_ciphertext_file_exits_4(tmp_path, keypair):
    pk_path, sk_path = keypair
    empty = tmp_path / "none.lgct"
    empty.write_bytes(b"")
    assert run("decrypt", sk_path, pk_path, str(empty), "--out", str(tmp_path / "o")) == 4


def test_wrong_private_key_exits_5(tmp_path, keypair):
    pk_path, sk_path = keypair
    assert run("keygen", "--seed", SEED_C, "--out", str(tmp_path / "other")) == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"secret")
    ct = str(tmp_path / "m.lgct")
    assert run("encrypt", pk_path, str(msg), "--out", ct) == 0
    code = run("decrypt", str(tmp_path / "other.lgsk"), pk_path, ct,
               "--out", str(tmp_path / "m.out"))
    assert code == 5


@pytest.mark.parametrize("foreign", [identity(2, 9), identity(3, 251)], ids=["mod9", "3x3"])
def test_private_key_outside_the_public_group_exits_5(tmp_path, keypair, capsys, foreign):
    pk_path, sk_path = keypair
    sk = codec.decode((tmp_path / "key.lgsk").read_bytes())
    alien = tmp_path / "alien.lgsk"
    factor = GroupElement(foreign.n, foreign.p, foreign.rows)
    alien.write_bytes(codec.encode(PrivateKey(factor, factor, sk.pk_fingerprint)))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"secret")
    ct = str(tmp_path / "m.lgct")
    out = tmp_path / "m.out"
    assert run("encrypt", pk_path, str(msg), "--out", ct) == 0
    capsys.readouterr()
    assert run("decrypt", str(alien), pk_path, ct, "--out", str(out)) == 5
    assert capsys.readouterr().err.startswith("error: private key factors")
    assert not out.exists()


@pytest.mark.parametrize("error, code, stderr", [
    (ParameterError("u"), 2, "error: u\n"),  # what the CLI's own argument checks raise
    (ParameterError("p"), 2, "error: p\n"),
    (FileNotFoundError("f"), 3, "error: f\n"),
    (cli.IntegrityError("i"), 4, "error: i\n"),
    (SemanticDecodeError("c"), 4, "error: integrity failure: c\n"),
    (KeyMismatchError("k"), 5, "error: k\n"),
    (BudgetRefusal("b"), 6, "refused: b\n"),
])
def test_exit_code_and_stderr_per_error_type(monkeypatch, capsys, error, code, stderr):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    assert run("inspect", "any.lgpk") == code
    assert capsys.readouterr().err == stderr


def test_unlisted_error_propagates(monkeypatch):
    def fail(args):
        raise NotNilpotentError("s")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    with pytest.raises(NotNilpotentError):
        run("inspect", "any.lgpk")


def test_closed_stdout_is_not_an_io_failure(keypair):
    # the reader has gone before lgpk writes, as in `lgpk inspect key.lgpk | grep -q x`
    pk_path, _ = keypair
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    try:
        done = subprocess.run([sys.executable, "-m", "lgpk", "inspect", pk_path],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_missing_input_exits_3(tmp_path):
    assert run("inspect", str(tmp_path / "nope.lgpk")) == 3


def test_bad_seed_exits_2(tmp_path):
    assert run("keygen", "--seed", "zz", "--out", str(tmp_path / "k")) == 2
    assert run("keygen", "--seed", "ab" * 16, "--out", str(tmp_path / "k")) == 2


def test_unknown_flag_exits_2():
    assert run("keygen", "--frobnicate") == 2


def test_params_file_flow(tmp_path):
    params_path = str(tmp_path / "s.lgparams")
    assert run("params", "--profile", "small", "--seed", SEED_A, "--out", params_path) == 0
    prefix = str(tmp_path / "skey")
    assert run("keygen", "--params", params_path, "--seed", SEED_B, "--out", prefix) == 0
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"params-file flow")
    ct = str(tmp_path / "m.lgct")
    out = str(tmp_path / "m.out")
    assert run("encrypt", prefix + ".lgpk", str(msg), "--out", ct) == 0
    assert run("decrypt", prefix + ".lgsk", prefix + ".lgpk", ct, "--out", out) == 0
    assert (tmp_path / "m.out").read_bytes() == msg.read_bytes()


def test_inspect_validates_and_cross_checks(tmp_path, keypair, capsys):
    pk_path, sk_path = keypair
    assert run("inspect", pk_path) == 0
    assert "fingerprint" in capsys.readouterr().out
    assert run("inspect", sk_path, "--pk", pk_path) == 0
    assert "consistent" in capsys.readouterr().out
    assert run("keygen", "--seed", SEED_C, "--out", str(tmp_path / "w")) == 0
    capsys.readouterr()
    assert run("inspect", str(tmp_path / "w.lgsk"), "--pk", pk_path) == 5
    capsys.readouterr()
    assert run("inspect", pk_path, "--pk", pk_path) == 2  # --pk checks only a private key
    assert capsys.readouterr().err == "error: --pk is only for a private-key file\n"


def test_inspect_corrupt_file_exits_4(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    blob = bytearray((tmp_path / "key.lgpk").read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "corrupt.lgpk"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run("inspect", str(bad)) == 4
    assert capsys.readouterr().err == f"error: integrity failure in {bad}: checksum mismatch\n"


def test_inspect_describes_a_sealed_file(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(100))
    ct = tmp_path / "m.lgct"
    assert run("encrypt", pk_path, str(msg), "--out", str(ct), "--seed", SEED_B) == 0
    capsys.readouterr()
    assert run("inspect", str(ct)) == 0
    assert capsys.readouterr().out == (
        f"{ct}:\n"
        "  kind: sealed file\n"
        "  sealed seed bits: 64\n"
        "  group element: 2x2\n"
        "  masked message bits: 128\n"
        "  plaintext bytes: 100\n"
        "  tag: HMAC-SHA256, checked only with the private key\n"
    )
    blob = ct.read_bytes()
    end = _kem_end(blob)
    bad = tmp_path / "bad.lgct"
    bad.write_bytes(_flip_bit(blob, end - 1))  # the KEM frame's checksum
    assert run("inspect", str(bad)) == 4
    assert capsys.readouterr().err == f"error: integrity failure in {bad}: checksum mismatch\n"
    (tmp_path / "cut.lgct").write_bytes(blob[:-1])
    assert run("inspect", str(tmp_path / "cut.lgct")) == 4
    assert capsys.readouterr().err.startswith(
        f"error: integrity failure in {tmp_path / 'cut.lgct'}: length field 100 ")
    # a lone ciphertext frame is still described, as a frame
    (tmp_path / "frame.lgct").write_bytes(blob[KEM_START:end])
    assert run("inspect", str(tmp_path / "frame.lgct")) == 0
    assert "  kind: ciphertext frame\n" in capsys.readouterr().out


def test_inspect_rejects_trailing_bytes_after_a_key(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    padded = tmp_path / "padded.lgpk"
    padded.write_bytes((tmp_path / "key.lgpk").read_bytes() + b"xyz")
    capsys.readouterr()
    assert run("inspect", str(padded)) == 4
    assert capsys.readouterr().err == (
        f"error: integrity failure in {padded}: 3 trailing bytes after frame\n"
    )


def test_failed_write_leaves_no_temp_file(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"attack at dawn")
    target = tmp_path / "existing_dir"
    target.mkdir()
    assert run("encrypt", pk_path, str(msg), "--out", str(target)) == 3
    assert not list(tmp_path.glob("*.tmp.*"))
    assert target.is_dir() and not list(target.iterdir())


@pytest.mark.parametrize("blocked", [".lgsk", ".lgpk"])
def test_failed_keygen_leaves_neither_key_file(tmp_path, capsys, blocked):
    # a key path that is a directory makes the rename of that one key fail
    (tmp_path / f"key{blocked}").mkdir()
    assert run("keygen", "--seed", SEED_A, "--out", str(tmp_path / "key")) == 3
    assert [path.name for path in tmp_path.iterdir()] == [f"key{blocked}"]
    assert not list((tmp_path / f"key{blocked}").iterdir())


def test_attack_recovers_toy_secret(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    for solver in solvers():
        assert run("attack", pk_path, "--solver", solver) == 0
        out = capsys.readouterr().out
        assert "verified=true" in out
    assert run("attack", pk_path, "--solver", "brute") == 0
    first = capsys.readouterr().out
    assert run("attack", pk_path, "--solver", "mitm") == 0
    second = capsys.readouterr().out
    assert first.split("ops=")[0] == second.split("ops=")[0]


def test_every_caller_finds_a_solver_rebound_in_its_module(monkeypatch, keypair):
    # a tracer rebinds each solver as an attribute of lgpk.cryptanalysis: the
    # sweep, `lgpk attack` and the KAT bundle must each reach the rebound one
    real = cryptanalysis.naf_mitm
    calls = []

    @functools.wraps(real)
    def spy(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(cryptanalysis, "naf_mitm", spy)
    hardness_sweep(2, [8], [4], RngHandle(b"\x01" * 32))
    assert len(calls) == 1
    assert run("attack", keypair[0], "--solver", "mitm") == 0
    assert len(calls) == 2
    kat = build_kat_bundle("toy", bytes.fromhex("00112233445566778899aabbccddeeff" * 2))
    assert len(calls) == 5  # its own solve, then one per cell of its sweep
    # the wrapper keeps __name__, which labels the bundle's records
    assert kat == (Path(__file__).parent / "data" / "kat_toy.jsonl").read_text()


def test_attack_budget_refusal_exits_6(tmp_path, capsys):
    prefix = str(tmp_path / "big")
    assert run("keygen", "--profile", "paper", "--seed", SEED_A, "--out", prefix) == 0
    assert run("attack", prefix + ".lgpk", "--solver", "brute") == 6
    assert "budget" in capsys.readouterr().err
    assert run("attack", prefix + ".lgpk", "--solver", "mitm") == 6


def test_attack_without_a_key_file_exits_2():
    assert run("attack") == 2


def test_attack_rejects_out_and_writes_nothing(tmp_path, keypair):
    report = tmp_path / "report.txt"
    assert run("attack", keypair[0], "--out", str(report)) == 2
    assert not report.exists()


def test_attack_rejects_negative_bounds_bits(keypair, capsys):
    pk_path, _ = keypair
    capsys.readouterr()
    assert run("attack", pk_path, "--bounds-bits", "-2") == 2
    assert capsys.readouterr().err == (
        "error: --bounds-bits must be >= 0\n"
    )
    assert run("attack", pk_path, "--bounds-bits", "0") == 0  # one pair: (0, 0)
    assert capsys.readouterr().out == "no factorization within 2^0 pairs\n"


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("sweep", "--n", "2", "--p-bits", "8,10",
               "--bounds-bits", "4,6", "--seed", SEED_A, "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p_bits,bound_bits,solver,ops,millis,found"
    # 2 primes x 2 bounds x 2 solvers
    assert len(lines) == 1 + 8
    assert all(line.split(",")[6] == "yes" for line in lines[1:])


def test_sweep_deterministic_apart_from_timing(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run("sweep", "--p-bits", "8", "--bounds-bits", "4",
                   "--seed", SEED_B, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        outputs.append([row[:5] + row[6:] for row in rows])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ("--p-bits", "200000"),
    ("--p-bits", "8,4097"),
    ("--n", "17"),
])
def test_sweep_past_the_codec_limits_exits_2_before_sampling(argv, capsys, monkeypatch):
    # no key has a larger n or prime; a 200,000-bit prime search would not end
    def fail(bits, rng):
        raise AssertionError("sampled a prime")

    monkeypatch.setattr(cryptanalysis, "sample_prime", fail)
    assert run("sweep", *argv, "--bounds-bits", "4") == 2
    assert capsys.readouterr().err == "error: --n must be <= 16, --p-bits <= 4096\n"


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_sweep_below_rank_2_exits_2_before_sampling(n, capsys, monkeypatch):
    # no nilpotent generator has rank below 2; a 2048-bit prime would be
    # drawn for nothing
    def fail(bits, rng):
        raise AssertionError("sampled a prime")

    monkeypatch.setattr(cryptanalysis, "sample_prime", fail)
    assert run("sweep", "--n", n, "--p-bits", "2048", "--bounds-bits", "2") == 2
    assert capsys.readouterr().err == "error: --n must be >= 2\n"


@pytest.mark.parametrize("seed", ["00" * 32, "01" * 32])
def test_sweep_refuses_a_prime_size_not_above_n_for_every_seed(seed, capsys, monkeypatch):
    # 3-bit primes are 5 and 7: the seed that drew 7 ran, the one that drew 5
    # exited 2 after the draw
    def fail(bits, rng):
        raise AssertionError("sampled a prime")

    monkeypatch.setattr(cryptanalysis, "sample_prime", fail)
    assert run("sweep", "--n", "5", "--p-bits", "3", "--bounds-bits", "2", "--seed", seed) == 2
    assert capsys.readouterr().err == (
        "error: the smallest 3-bit prime is 5, but p must exceed n=5 so factorial inverses exist\n"
    )


def test_sweep_rejects_bad_grid(capsys):
    assert run("sweep", "--p-bits", "8", "--bounds-bits", "7") == 2
    assert capsys.readouterr().err == "error: bound_bits must be even and >= 2, got 7\n"
    assert run("sweep", "--p-bits", "8", "--bounds-bits", "16") == 2
    assert "cannot be planted faithfully" in capsys.readouterr().err


def test_kat_bundle_covers_every_operation():
    ops = {json.loads(line)["op"]
           for line in build_kat_bundle("toy", bytes(32)).splitlines()}
    assert ops >= {
        "mat_mul", "mat_inv", "is_nilpotent", "mat_exp", "exp_scaled", "commutes",
        "sample_prime", "sample_invertible", "sample_nilpotent",
        "sample_noncommuting_pair", "h1", "h2", "h3",
        "keygen", "encrypt", "decrypt", "encode", "decode",
        "naf_bruteforce", "naf_mitm", "nai_via_naf", "hardness_sweep",
    }


def test_kat_command_deterministic(tmp_path, capsys):
    paths = [tmp_path / "k1.jsonl", tmp_path / "k2.jsonl"]
    for path in paths:
        assert run("kat", "--profile", "toy", "--seed", SEED_A, "--out", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()
    # without --out the bundle goes to stdout, byte for byte
    assert run("kat", "--profile", "toy", "--seed", SEED_A) == 0
    assert capsys.readouterr().out.encode() == paths[0].read_bytes()


def test_kat_requires_seed():
    assert run("kat", "--profile", "toy") == 2


def test_kat_internal_consistency():
    vectors = {}
    for line in build_kat_bundle("toy", b"\x07" * 32).splitlines():
        record = json.loads(line)
        vectors.setdefault(record["op"], []).append(record)
    enc = vectors["encrypt"][0]
    dec = vectors["decrypt"][0]
    assert dec["ct"] == enc["ct"]
    assert dec["m"] == enc["m"]
    assert (enc["exp_maps"], enc["group_mults"]) == (2, 3)
    assert (dec["exp_maps"], dec["group_mults"]) == (2, 5)
    brute = vectors["naf_bruteforce"][0]
    mitm = vectors["naf_mitm"][0]
    assert (brute["left_scalar"], brute["right_scalar"]) == (
        mitm["left_scalar"], mitm["right_scalar"])


USAGE = "usage: lgpk [-h] {params,keygen,encrypt,decrypt,inspect,attack,sweep,kat} ...\n"


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_single_command_parser_help_matches_full_parser(name, capsys, monkeypatch):
    # `lgpk <name> -h` is parsed by the command's parser alone
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.build_parser().parse_args([name, "-h"])
    assert exit_info.value.code == 0
    full = capsys.readouterr().out
    assert full.startswith(f"usage: lgpk {name} [-h]")
    assert run(name, "-h") == 0
    assert capsys.readouterr().out == full


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("bogus",), "argument command: invalid choice: 'bogus' (choose from 'params', "
                 "'keygen', 'encrypt', 'decrypt', 'inspect', 'attack', 'sweep', 'kat')"),
    (("encrypt", "k.lgpk", "msg", "--out", "ct", "--bogus"), "unrecognized arguments: --bogus"),
], ids=["no-command", "unknown-command", "bad-flag"])
def test_parse_errors_exit_2_with_the_full_usage_line(argv, message, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{USAGE}lgpk: error: {message}\n")


def test_top_level_help_lists_every_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run("-h") == 0
    out = capsys.readouterr().out
    assert out.startswith(USAGE)
    for name, (help_text, _) in cli.COMMANDS.items():
        assert f"\n    {name:<20}{help_text}\n" in out


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["lgpk", "kat", "-h"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("usage: lgpk kat [-h]")
