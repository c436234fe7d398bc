"""End-to-end tests of the command-line interface via main(argv)."""

import json
import os
import sys

import pytest

from lgpk import cli, codec
from lgpk.cli import PROFILES, build_kat_bundle, main, pad_message, unpad_message
from lgpk.errors import (
    BudgetRefusal,
    KeyMismatchError,
    ParameterError,
    SamplingError,
    SemanticDecodeError,
)
from lgpk.matfield import GroupElement, identity
from lgpk.scheme import PrivateKey

SEED_A = "ab" * 32
SEED_B = "cd" * 32
SEED_C = "ef" * 32


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


def test_pad_unpad_round_trip_exhaustive():
    for length in range(0, 40):
        data = bytes((7 * i) % 256 for i in range(length))
        padded = pad_message(data, 16)
        assert len(padded) % 16 == 0
        assert unpad_message(padded) == data


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


def test_inner_bit_flip_with_valid_frame_exits_4(tmp_path, keypair):
    # Re-frame with a correct checksum so only the validity check can catch it.
    from lgpk import codec

    pk_path, sk_path = keypair
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x" * 8)  # fits one block after padding
    ct = tmp_path / "m.lgct"
    assert run("encrypt", pk_path, str(msg), "--out", str(ct), "--seed", SEED_B) == 0
    obj = codec.decode(ct.read_bytes(), expect_kind=codec.KIND_CIPHERTEXT)
    flipped = obj.masked_msg ^ type(obj.masked_msg).from_int(1, obj.masked_msg.nbits)
    tampered = type(obj)(obj.sealed_seed, obj.rand_product, flipped)
    bad = tmp_path / "bad.lgct"
    bad.write_bytes(codec.encode(tampered))
    out = tmp_path / "m.out"
    assert run("decrypt", sk_path, pk_path, str(bad), "--out", str(out)) == 4
    assert not out.exists()


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
    factor = GroupElement(foreign)
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
    (cli.UsageError("u"), 2, "error: u\n"),
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
        raise SamplingError("s")

    monkeypatch.setattr(cli, "cmd_inspect", fail)
    with pytest.raises(SamplingError):
        run("inspect", "any.lgpk")


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


def test_inspect_corrupt_file_exits_4(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    blob = bytearray((tmp_path / "key.lgpk").read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "corrupt.lgpk"
    bad.write_bytes(bytes(blob))
    capsys.readouterr()
    assert run("inspect", str(bad)) == 4
    assert capsys.readouterr().err == f"error: integrity failure in {bad}: checksum mismatch\n"


def test_attack_recovers_toy_secret(tmp_path, keypair, capsys):
    pk_path, _ = keypair
    for solver in ("brute", "mitm"):
        assert run("attack", pk_path, "--solver", solver) == 0
        out = capsys.readouterr().out
        assert "verified=true" in out
    assert run("attack", pk_path, "--solver", "brute") == 0
    first = capsys.readouterr().out
    assert run("attack", pk_path, "--solver", "mitm") == 0
    second = capsys.readouterr().out
    assert first.split("ops=")[0] == second.split("ops=")[0]


def test_attack_budget_refusal_exits_6(tmp_path, capsys):
    prefix = str(tmp_path / "big")
    assert run("keygen", "--profile", "paper", "--seed", SEED_A, "--out", prefix) == 0
    assert run("attack", prefix + ".lgpk", "--solver", "brute") == 6
    assert "budget" in capsys.readouterr().err
    assert run("attack", prefix + ".lgpk", "--solver", "mitm") == 6


def test_attack_without_file_or_sweep_exits_2():
    assert run("attack") == 2


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run("attack", "--sweep", "--n", "2", "--p-bits", "8,10",
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
        assert run("attack", "--sweep", "--p-bits", "8", "--bounds-bits", "4",
                   "--seed", SEED_B, "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        outputs.append([row[:5] + row[6:] for row in rows])
    assert outputs[0] == outputs[1]


def test_sweep_rejects_bad_grid():
    assert run("attack", "--sweep", "--p-bits", "8", "--bounds-bits", "7") == 2
    assert run("attack", "--sweep", "--p-bits", "8", "--bounds-bits", "16") == 2


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


def test_kat_command_deterministic(tmp_path):
    paths = [tmp_path / "k1.jsonl", tmp_path / "k2.jsonl"]
    for path in paths:
        assert run("kat", "--profile", "toy", "--seed", SEED_A, "--out", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


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


USAGE = "usage: lgpk [-h] {params,keygen,encrypt,decrypt,inspect,attack,kat} ...\n"


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_single_command_parser_help_matches_full_parser(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for parser in (cli.build_parser(name), cli.build_parser()):
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([name, "-h"])
        assert exit_info.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: lgpk {name} [-h]")
    assert run(name, "-h") == 0
    assert capsys.readouterr().out == helps[1]


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("bogus",), "argument command: invalid choice: 'bogus' (choose from 'params', "
                 "'keygen', 'encrypt', 'decrypt', 'inspect', 'attack', 'kat')"),
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
