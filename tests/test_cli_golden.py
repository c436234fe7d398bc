"""Golden record of the command line: every case's exit code, stdout and stderr.

The cases run in order through `cli.main` in one scratch directory, at the toy
profile with fixed seeds, so the output of each is the same on every run. The
record masks the scratch directory as {d}, the pid in a temp-file name, and
the millis column of the sweep CSV, the only parts that vary. The first case
of each exit code then runs again through `python -m lgpk` in a subprocess,
in the same directory, so the record also pins what only a real process
shows: the entry point, argv from sys.argv, and the exit status.

After a change that alters some output on purpose, rewrite the record with

    PYTHONPATH=src python tests/test_cli_golden.py

which prints the name of each case whose exit code, stdout or stderr changed
(or "no case changed"), and review the diff of tests/data/cli_golden.json.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest

from lgpk import codec
from lgpk.cli import main
from lgpk.cryptanalysis import SWEEP_CSV_HEADER
from lgpk.matfield import ParameterSet
from lgpk.sampler import RngHandle
from lgpk.scheme import PrivateKey, encrypt

RECORD = Path(__file__).parent / "data" / "cli_golden.json"
SEED_A, SEED_B, SEED_C = "ab" * 32, "cd" * 32, "ef" * 32
MILLIS = SWEEP_CSV_HEADER.split(",").index("millis")


def _flip(d, src, dst, pos):
    blob = bytearray((d / src).read_bytes())
    blob[pos] ^= 0x10
    (d / dst).write_bytes(bytes(blob))


def _prepare_inputs(d):
    (d / "msg").write_bytes(bytes(range(256)) + b"golden")
    (d / "empty").write_bytes(b"")
    (d / "outdir").mkdir()
    (d / "skdir.lgsk").mkdir()
    (d / "pkdir.lgpk").mkdir()
    short = ParameterSet(kappa1=8, n=2, p=251, kappa2=64, kappa3=8, kappa4=8, msg_len=64)
    (d / "short.lgparams").write_bytes(codec.encode(short))


def _prepare_tampered(d):
    """Files derived from the keys and the sealed file the earlier cases wrote."""
    sealed = (d / "msg.lgct").read_bytes()
    kem_end = codec.decode_prefix(sealed, len(codec.SEALED_MAGIC) + 1)[1]
    _flip(d, "msg.lgct", "body.lgct", kem_end + 8 + 3)
    _flip(d, "msg.lgct", "kem.lgct", kem_end - 1)
    (d / "cut.lgct").write_bytes(sealed[:-1])
    (d / "frame.lgct").write_bytes(sealed[len(codec.SEALED_MAGIC) + 1:kem_end])
    pk = codec.decode((d / "key.lgpk").read_bytes())
    rng = RngHandle(bytes(32))
    (d / "old.lgct").write_bytes(
        b"".join(codec.encode(encrypt(pk, rng.bitstr(128), rng)) for _ in range(2)))
    key = (d / "key.lgpk").read_bytes()
    _flip(d, "key.lgpk", "corrupt.lgpk", len(key) - 1)
    (d / "padded.lgpk").write_bytes(key + b"xyz")
    suite = bytearray(key)
    suite[len(codec.encode(pk.params)) - 4] = 2  # the hash-suite byte follows the parameters
    suite[-4:] = zlib.crc32(suite[:-4]).to_bytes(4, "big")
    (d / "suite.lgpk").write_bytes(bytes(suite))
    sk = codec.decode((d / "key.lgsk").read_bytes())
    swapped = PrivateKey(sk.right_factor, sk.left_factor, sk.pk_fingerprint)
    (d / "swapped.lgsk").write_bytes(codec.encode(swapped))


# (name, argv) in run order; a callable in place of a case prepares files
CASES = [
    _prepare_inputs,
    ("help", "-h"),
    *((f"help-{name}", f"{name} -h")
      for name in ("params", "keygen", "encrypt", "decrypt", "inspect", "attack", "sweep", "kat")),
    ("no-command", ""),
    ("unknown-command", "bogus"),
    ("params-toy", f"params --profile toy --seed {SEED_A} --out {{d}}/toy.lgparams"),
    ("params-small", f"params --profile small --seed {SEED_B} --out {{d}}/small.lgparams"),
    ("params-bad-profile", "params --profile huge --out {d}/x.lgparams"),
    ("keygen-toy", f"keygen --profile toy --seed {SEED_A} --out {{d}}/key"),
    ("keygen-from-params", f"keygen --params {{d}}/small.lgparams --seed {SEED_B} --out {{d}}/pkey"),
    ("keygen-other", f"keygen --seed {SEED_C} --out {{d}}/other"),
    ("keygen-short", f"keygen --params {{d}}/short.lgparams --seed {SEED_A} --out {{d}}/short"),
    ("keygen-seed-not-hex", "keygen --seed zz --out {d}/k"),
    ("keygen-seed-short", f"keygen --seed {'ab' * 16} --out {{d}}/k"),
    ("keygen-unknown-flag", "keygen --frobnicate"),
    ("keygen-profile-and-params", "keygen --profile toy --params {d}/toy.lgparams --out {d}/k"),
    ("keygen-params-missing", "keygen --params {d}/nope.lgparams --out {d}/k"),
    ("keygen-params-wrong-kind", "keygen --params {d}/key.lgpk --out {d}/k"),
    ("keygen-private-key-is-directory", f"keygen --profile toy --seed {SEED_A} --out {{d}}/skdir"),
    ("keygen-public-key-is-directory", f"keygen --profile toy --seed {SEED_A} --out {{d}}/pkdir"),
    ("encrypt", f"encrypt {{d}}/key.lgpk {{d}}/msg --out {{d}}/msg.lgct --seed {SEED_B}"),
    ("encrypt-empty", f"encrypt {{d}}/key.lgpk {{d}}/empty --out {{d}}/empty.lgct --seed {SEED_C}"),
    ("encrypt-small", f"encrypt {{d}}/pkey.lgpk {{d}}/msg --out {{d}}/small.lgct --seed {SEED_A}"),
    ("encrypt-under-private-key", "encrypt {d}/key.lgsk {d}/msg --out {d}/x.lgct"),
    ("encrypt-missing-input", "encrypt {d}/key.lgpk {d}/nope --out {d}/x.lgct"),
    ("encrypt-out-is-directory", f"encrypt {{d}}/key.lgpk {{d}}/msg --out {{d}}/outdir --seed {SEED_B}"),
    ("encrypt-short-file-key", "encrypt {d}/short.lgpk {d}/msg --out {d}/x.lgct"),
    ("encrypt-bad-seed", "encrypt {d}/key.lgpk {d}/msg --out {d}/x.lgct --seed 00"),
    ("encrypt-no-out", "encrypt {d}/key.lgpk {d}/msg"),
    _prepare_tampered,
    ("decrypt", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/msg.lgct --out {d}/msg.out"),
    ("decrypt-empty", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/empty.lgct --out {d}/empty.out"),
    ("decrypt-small", "decrypt {d}/pkey.lgsk {d}/pkey.lgpk {d}/small.lgct --out {d}/small.out"),
    ("decrypt-wrong-key", "decrypt {d}/other.lgsk {d}/key.lgpk {d}/msg.lgct --out {d}/x.out"),
    ("decrypt-body-flip", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/body.lgct --out {d}/x.out"),
    ("decrypt-kem-flip", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/kem.lgct --out {d}/x.out"),
    ("decrypt-truncated", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/cut.lgct --out {d}/x.out"),
    ("decrypt-lone-frame", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/frame.lgct --out {d}/x.out"),
    ("decrypt-old-format", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/old.lgct --out {d}/x.out"),
    ("decrypt-empty-file", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/empty --out {d}/x.out"),
    ("decrypt-missing-input", "decrypt {d}/key.lgsk {d}/key.lgpk {d}/nope --out {d}/x.out"),
    ("decrypt-keys-swapped", "decrypt {d}/key.lgpk {d}/key.lgsk {d}/msg.lgct --out {d}/x.out"),
    ("decrypt-short-file-key", "decrypt {d}/short.lgsk {d}/short.lgpk {d}/msg.lgct --out {d}/x.out"),
    ("inspect-params", "inspect {d}/toy.lgparams"),
    ("inspect-public-key", "inspect {d}/key.lgpk"),
    ("inspect-private-key", "inspect {d}/key.lgsk"),
    ("inspect-private-key-against-pk", "inspect {d}/key.lgsk --pk {d}/key.lgpk"),
    ("inspect-private-key-against-other", "inspect {d}/other.lgsk --pk {d}/key.lgpk"),
    ("inspect-private-key-swapped-factors", "inspect {d}/swapped.lgsk --pk {d}/key.lgpk"),
    ("inspect-sealed-file", "inspect {d}/msg.lgct"),
    ("inspect-public-key-with-pk", "inspect {d}/key.lgpk --pk {d}/key.lgpk"),
    ("inspect-sealed-file-with-pk", "inspect {d}/msg.lgct --pk {d}/key.lgpk"),
    ("inspect-lone-frame", "inspect {d}/frame.lgct"),
    ("inspect-old-format", "inspect {d}/old.lgct"),
    ("inspect-truncated", "inspect {d}/cut.lgct"),
    ("inspect-corrupt-key", "inspect {d}/corrupt.lgpk"),
    ("inspect-padded-key", "inspect {d}/padded.lgpk"),
    ("inspect-other-hash-suite", "inspect {d}/suite.lgpk"),
    ("inspect-missing", "inspect {d}/nope.lgpk"),
    ("attack-brute", "attack {d}/key.lgpk --solver brute"),
    ("attack-mitm", "attack {d}/key.lgpk --solver mitm"),
    ("attack-zero-bits", "attack {d}/key.lgpk --bounds-bits 0"),
    ("attack-negative-bits", "attack {d}/key.lgpk --bounds-bits -2"),
    ("attack-two-bounds", "attack {d}/key.lgpk --bounds-bits 4,6"),
    ("attack-no-key", "attack"),
    ("attack-rejects-out", "attack {d}/key.lgpk --out {d}/report.txt"),
    ("attack-rejects-seed", "attack {d}/key.lgpk --seed zz"),
    ("attack-rejects-n", "attack {d}/key.lgpk --n 5"),
    ("attack-rejects-p-bits", "attack {d}/key.lgpk --p-bits 99"),
    ("attack-brute-over-budget", "attack {d}/key.lgpk --solver brute --bounds-bits 64"),
    ("attack-mitm-over-budget", "attack {d}/key.lgpk --solver mitm --bounds-bits 64"),
    ("attack-brute-widest-bounds", "attack {d}/key.lgpk --solver brute --bounds-bits 8192"),
    ("attack-mitm-widest-bounds", "attack {d}/key.lgpk --solver mitm --bounds-bits 8192"),
    ("attack-bounds-past-widest", "attack {d}/key.lgpk --bounds-bits 8193"),
    ("attack-bounds-far-past-widest", "attack {d}/key.lgpk --bounds-bits 20000"),
    ("attack-bad-solver", "attack {d}/key.lgpk --solver guess"),
    ("sweep", f"sweep --n 2 --p-bits 8 --bounds-bits 4,6 --seed {SEED_A}"),
    ("sweep-n-3", f"sweep --n 3 --p-bits 16 --bounds-bits 4,8,12 --seed {SEED_C}"),
    ("sweep-to-file", f"sweep --p-bits 8,10 --bounds-bits 4 --seed {SEED_B} --out {{d}}/s.csv"),
    ("sweep-odd-bound", "sweep --p-bits 8 --bounds-bits 7"),
    ("sweep-bound-over-prime", "sweep --p-bits 8 --bounds-bits 16"),
    ("sweep-not-integers", "sweep --p-bits 8,x"),
    ("sweep-empty-list", "sweep --p-bits ,"),
    ("sweep-empty-item", f"sweep --p-bits 8,,10 --bounds-bits 2 --seed {SEED_A}"),
    ("sweep-with-key", "sweep {d}/key.lgpk --p-bits 8 --bounds-bits 4"),
    ("sweep-with-solver", "sweep --solver mitm --p-bits 8 --bounds-bits 4"),
    ("sweep-n-past-widest", f"sweep --n 17 --p-bits 8 --bounds-bits 4 --seed {SEED_A}"),
    ("sweep-n-below-2", f"sweep --n 1 --p-bits 8 --bounds-bits 4 --seed {SEED_A}"),
    ("sweep-p-bits-past-widest", f"sweep --p-bits 4097 --bounds-bits 4 --seed {SEED_A}"),
    ("sweep-p-bits-negative", f"sweep --p-bits -5 --bounds-bits 2 --seed {SEED_A}"),
    ("sweep-p-bits-zero-after-valid", f"sweep --p-bits 8,0 --bounds-bits 2 --seed {SEED_A}"),
    ("sweep-prime-not-above-n", f"sweep --n 5 --p-bits 3 --bounds-bits 2 --seed {SEED_A}"),
    ("kat-to-file", f"kat --profile toy --seed {SEED_A} --out {{d}}/kat.jsonl"),
    ("kat-no-seed", "kat --profile toy"),
    ("kat-bad-seed", "kat --seed xyz"),
    # argv shapes at the edge of parsing a command's arguments
    ("encrypt-extra-positional", "encrypt {d}/key.lgpk {d}/msg --out {d}/x.lgct extra"),
    ("encrypt-unknown-option", "encrypt {d}/key.lgpk {d}/msg --out {d}/x.lgct --bogus"),
    ("encrypt-dashdash-positionals",
     f"encrypt --out {{d}}/dd.lgct --seed {SEED_B} -- {{d}}/key.lgpk {{d}}/msg"),
    ("encrypt-dashdash-trailing",
     f"encrypt {{d}}/key.lgpk --out {{d}}/dt.lgct --seed {SEED_B} -- {{d}}/msg"),
    ("encrypt-dashdash-extra", "encrypt {d}/key.lgpk {d}/msg --out {d}/x.lgct -- extra"),
    ("encrypt-abbreviated-out", f"encrypt {{d}}/key.lgpk {{d}}/msg --ou {{d}}/ab.lgct --seed {SEED_B}"),
    ("encrypt-out-equals", f"encrypt {{d}}/key.lgpk {{d}}/msg --out={{d}}/eq.lgct --seed {SEED_B}"),
    ("encrypt-help-after-positionals", "encrypt {d}/key.lgpk {d}/msg -h"),
    ("encrypt-abbreviated-help", "encrypt {d}/key.lgpk {d}/msg --he"),
    ("encrypt-seed-without-value", "encrypt {d}/key.lgpk {d}/msg --out {d}/x.lgct --seed"),
    ("encrypt-no-arguments", "encrypt"),
    ("decrypt-extra-positional",
     "decrypt {d}/key.lgsk {d}/key.lgpk {d}/msg.lgct extra --out {d}/x.out"),
    ("params-extra-positional", "params --out {d}/x.lgparams extra"),
    ("keygen-extra-positional", "keygen --out {d}/k extra"),
    ("inspect-extra-positional", "inspect {d}/key.lgpk extra"),
    ("attack-extra-positional", "attack {d}/key.lgpk extra"),
    ("sweep-extra-positional", "sweep --p-bits 8 extra"),
    ("kat-extra-positional", f"kat --seed {SEED_A} extra"),
    ("attack-bounds-bits-not-integer", "attack {d}/key.lgpk --bounds-bits x"),
    ("dashdash-before-command", "-- inspect {d}/key.lgpk"),
    ("help-before-command", "-h encrypt"),
]


def _mask(text, d):
    text = text.replace(str(d), "{d}")
    text = re.sub(r"\.tmp\.\d+", ".tmp.{pid}", text)
    if not text.startswith(SWEEP_CSV_HEADER + "\n"):
        return text
    rows = [line.split(",") for line in text.splitlines()[1:]]
    for row in rows:
        row[MILLIS] = "{millis}"
    return "\n".join([SWEEP_CSV_HEADER] + [",".join(row) for row in rows]) + "\n"


def run_cases(d):
    """Run CASES in order in directory d; map each case name to its result."""
    results = {}
    for case in CASES:
        if callable(case):
            case(d)
            continue
        name, argv = case
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv.format(d=d).split())
        results[name] = {"argv": argv, "exit": code,
                         "stdout": _mask(out.getvalue(), d), "stderr": _mask(err.getvalue(), d)}
    return results


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def results(scratch):
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal width
    try:
        return run_cases(scratch)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


RECORDED = json.loads(RECORD.read_text()) if RECORD.exists() else {}
# the first recorded case of each exit code: an earlier case overwrites a later one
FIRST_OF_EACH_EXIT = {case["exit"]: name for name, case in reversed(RECORDED.items())}


def test_the_record_covers_every_exit_code():
    assert {case["exit"] for case in RECORDED.values()} == {0, 2, 3, 4, 5, 6}
    assert list(RECORDED) == [case[0] for case in CASES if not callable(case)]


@pytest.mark.parametrize("name", list(RECORDED))
def test_cli_output_matches_the_golden_record(results, name):
    assert results[name] == RECORDED[name]


@pytest.mark.usefixtures("results")  # the in-process run fills the scratch directory first
@pytest.mark.parametrize("name", [FIRST_OF_EACH_EXIT[code] for code in sorted(FIRST_OF_EACH_EXIT)])
def test_python_m_lgpk_matches_the_record(scratch, name):
    src = str(Path(codec.__file__).parents[1])
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = RECORDED[name]["argv"]
    done = subprocess.run([sys.executable, "-m", "lgpk", *argv.format(d=scratch).split()],
                          capture_output=True, text=True, cwd=scratch, env=env, timeout=60)
    assert {"argv": argv, "exit": done.returncode, "stdout": _mask(done.stdout, scratch),
            "stderr": _mask(done.stderr, scratch)} == RECORDED[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        record = run_cases(Path(tmp))
    RECORD.write_text(json.dumps(record, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {RECORD} ({len(record)} cases)", file=sys.stderr)
    changed = [name for name in {**RECORDED, **record}
               if any(RECORDED.get(name, {}).get(key) != record.get(name, {}).get(key)
                      for key in ("exit", "stdout", "stderr"))]
    print("\n".join(changed) or "no case changed")
