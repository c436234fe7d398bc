"""Command-line front end: key lifecycle, file encryption, inspection,
attack runs, and known-answer-test bundles.

Exit codes are part of the contract: 0 success, 2 usage, 3 I/O, 4 integrity
(bad frame or failed validity check), 5 key mismatch, 6 budget refusal.
Output files are written to a temp name and renamed, so a failing command
never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import codec
from .bitstrings import BitStr
from .cryptanalysis import (
    NafInstance,
    NaiInstance,
    hardness_sweep,
    naf_bruteforce,
    naf_mitm,
    nai_via_naf,
    sweep_csv,
)
from .errors import (
    BudgetRefusal,
    CodecError,
    KeyMismatchError,
    LgpkError,
    ParameterError,
)
from .matfield import (
    ParameterSet,
    canonical_bytes,
    commutes,
    exp_scaled,
    group_mul,
    is_nilpotent,
    mat_exp,
    mat_inv,
    mat_mul,
)
from .sampler import (
    RngHandle,
    sample_invertible,
    sample_nilpotent,
    sample_noncommuting_pair,
    sample_prime,
)
from .scheme import Ciphertext, OpCounter, PrivateKey, PublicKey, decrypt, encrypt, keygen
from .hashsuite import h1, h2, h3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTEGRITY = 4
EXIT_KEY_MISMATCH = 5
EXIT_BUDGET = 6


class UsageError(LgpkError):
    pass


class IntegrityError(LgpkError):
    pass


# (exception type, exit code, stderr prefix); main() reports the first match
EXIT_TABLE = (
    (UsageError, EXIT_USAGE, "error: "),
    (ParameterError, EXIT_USAGE, "error: "),
    (OSError, EXIT_IO, "error: "),
    (IntegrityError, EXIT_INTEGRITY, "error: "),
    (CodecError, EXIT_INTEGRITY, "error: integrity failure: "),
    (KeyMismatchError, EXIT_KEY_MISMATCH, "error: "),
    (BudgetRefusal, EXIT_BUDGET, "refused: "),
)


# ParameterSet fields per profile; make_params samples the prime p
PROFILES = {
    "toy": dict(kappa1=8, n=2, kappa2=64, kappa3=8, kappa4=8, msg_len=128, toy=True),
    "small": dict(kappa1=32, n=3, kappa2=64, kappa3=16, kappa4=16, msg_len=128, toy=True),
    "paper": dict(kappa1=256, n=5, kappa2=256, kappa3=128, kappa4=128, msg_len=256, toy=False),
}


def parse_seed(text: str | None) -> bytes | None:
    if text is None:
        return None
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise UsageError("--seed must be hexadecimal") from None
    if len(seed) != 32:
        raise UsageError(f"--seed must be 32 bytes (64 hex digits), got {len(seed)}")
    return seed


def parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise UsageError(f"{flag} expects a comma-separated list of integers") from None
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def make_params(profile_name: str, rng: RngHandle) -> ParameterSet:
    fields = PROFILES[profile_name]
    return ParameterSet(p=sample_prime(fields["kappa1"], rng), **fields)


def read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_atomic(path: str, data: bytes):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def load_object(path: str, expect_kind: int | None = None):
    """Decode the one frame in `path`; the only place a decode error gets the path."""
    try:
        return codec.decode(read_file(path), expect_kind=expect_kind)
    except CodecError as e:
        raise IntegrityError(f"integrity failure in {path}: {e}") from e


def resolve_params(args, rng: RngHandle) -> ParameterSet:
    if getattr(args, "params", None):
        return load_object(args.params, codec.KIND_PARAMS)
    return make_params(args.profile, rng)


# ---------------------------------------------------------------- commands

def cmd_params(args) -> int:
    rng = RngHandle(parse_seed(args.seed))
    params = make_params(args.profile, rng)
    write_atomic(args.out, codec.encode(params))
    print(f"wrote {args.out} (profile {args.profile}, n={params.n}, p of {params.kappa1} bits)")
    return EXIT_OK


def cmd_keygen(args) -> int:
    rng = RngHandle(parse_seed(args.seed))
    params = resolve_params(args, rng)
    pk, sk = keygen(params, rng)
    pk_path = args.out + codec.FILE_EXTENSIONS[codec.KIND_PUBLIC_KEY]
    sk_path = args.out + codec.FILE_EXTENSIONS[codec.KIND_PRIVATE_KEY]
    write_atomic(pk_path, codec.encode(pk))
    write_atomic(sk_path, codec.encode(sk))
    print(f"wrote {pk_path} (n={params.n}, p of {params.kappa1} bits)")
    print(f"wrote {sk_path} (fingerprint {sk.pk_fingerprint.hex()[:16]}…)")
    return EXIT_OK


def pad_message(data: bytes, block_bytes: int) -> bytes:
    padded = data + b"\x80"
    fill = (-len(padded)) % block_bytes
    return padded + b"\x00" * fill


def unpad_message(data: bytes) -> bytes:
    stripped = data.rstrip(b"\x00")
    if not stripped.endswith(b"\x80"):
        raise IntegrityError("integrity failure: bad message padding")
    return stripped[:-1]


def _block_bytes(params: ParameterSet) -> int:
    if params.msg_len % 8:
        raise UsageError("file encryption needs a byte-aligned message length")
    return params.msg_len // 8


def cmd_encrypt(args) -> int:
    pk = load_object(args.pk, codec.KIND_PUBLIC_KEY)
    rng = RngHandle(parse_seed(args.seed))
    block_bytes = _block_bytes(pk.params)
    data = pad_message(read_file(args.infile), block_bytes)
    frames = []
    for i in range(0, len(data), block_bytes):
        block = BitStr.from_bytes(data[i:i + block_bytes])
        frames.append(codec.encode(encrypt(pk, block, rng)))
    write_atomic(args.out, b"".join(frames))
    print(f"wrote {args.out} ({len(frames)} block(s))")
    return EXIT_OK


def cmd_decrypt(args) -> int:
    sk = load_object(args.sk, codec.KIND_PRIVATE_KEY)
    pk = load_object(args.pk, codec.KIND_PUBLIC_KEY)
    if sk.pk_fingerprint != codec.pk_fingerprint(pk):
        raise KeyMismatchError(f"{args.sk} is not the private key for {args.pk}")
    blob = read_file(args.infile)
    if not blob:
        raise IntegrityError("integrity failure: empty ciphertext file")
    blocks = []
    offset = 0
    while offset < len(blob):
        ct, offset = codec.decode_prefix(blob, offset, codec.KIND_CIPHERTEXT)
        m = decrypt(sk, pk, ct)
        if m is None:
            raise IntegrityError("integrity failure: ciphertext failed the validity check")
        blocks.append(m.data)
    plain = unpad_message(b"".join(blocks))
    write_atomic(args.out, plain)
    print(f"wrote {args.out} ({len(plain)} bytes)")
    return EXIT_OK


def _describe_params(params: ParameterSet) -> list[str]:
    return [
        f"  toy mode: {'yes' if params.toy else 'no'}",
        f"  n: {params.n}",
        f"  p bits: {params.kappa1}",
        f"  seed bits: {params.kappa2}",
        f"  exponent bits: {params.kappa3}+{params.kappa4}",
        f"  message bits: {params.msg_len}",
    ]


def cmd_inspect(args) -> int:
    obj = load_object(args.file)
    lines = [f"{args.file}:"]
    if isinstance(obj, ParameterSet):
        lines.append("  kind: parameters")
        lines.extend(_describe_params(obj))
    elif isinstance(obj, PublicKey):
        lines.append("  kind: public key")
        lines.extend(_describe_params(obj.params))
        lines.append(f"  generator indices: {obj.left_gen.index}, {obj.right_gen.index}")
        lines.append(f"  fingerprint: {codec.pk_fingerprint(obj).hex()}")
    elif isinstance(obj, PrivateKey):
        lines.append("  kind: private key")
        lines.append(f"  bound to pk fingerprint: {obj.pk_fingerprint.hex()}")
        if args.pk:
            pk = load_object(args.pk, codec.KIND_PUBLIC_KEY)
            if obj.pk_fingerprint != codec.pk_fingerprint(pk):
                raise KeyMismatchError(f"{args.file} is not bound to {args.pk}")
            product = group_mul(obj.left_factor, obj.right_factor)
            if product.mat != pk.key_product.mat:
                raise IntegrityError(
                    "integrity failure: secret factors do not multiply to the public product"
                )
            lines.append(f"  consistent with {args.pk}: yes")
    elif isinstance(obj, Ciphertext):
        lines.append("  kind: ciphertext (single block)")
        lines.append(f"  sealed seed bits: {obj.sealed_seed.nbits}")
        lines.append(f"  group element: {obj.rand_product.mat.n}x{obj.rand_product.mat.n}")
        lines.append(f"  masked message bits: {obj.masked_msg.nbits}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.sweep:
        rng = RngHandle(parse_seed(args.seed))
        p_bits = parse_int_list(args.p_bits, "--p-bits")
        bound_bits = parse_int_list(args.bounds_bits or "8,10,12,14", "--bounds-bits")
        rows = hardness_sweep(args.n, p_bits, bound_bits, rng)
        text = sweep_csv(rows)
        if args.out:
            write_atomic(args.out, text.encode())
            print(f"wrote {args.out} ({len(rows)} rows)")
        else:
            print(text, end="")
        return EXIT_OK

    if not args.pk_file:
        raise UsageError("attack needs a public-key file (or --sweep)")
    pk = load_object(args.pk_file, codec.KIND_PUBLIC_KEY)
    if args.bounds_bits:
        values = parse_int_list(args.bounds_bits, "--bounds-bits")
        if len(values) != 1:
            raise UsageError("a single --bounds-bits value is expected without --sweep")
        total_bits = values[0]
    else:
        total_bits = pk.params.kappa3 + pk.params.kappa4
    bound_left = 1 << ((total_bits + 1) // 2)
    bound_right = 1 << (total_bits // 2)
    inst = NafInstance(pk.left_gen, pk.right_gen, pk.key_product, bound_left, bound_right)
    solver = naf_bruteforce if args.solver == "brute" else naf_mitm
    sol = solver(inst)
    if sol is None:
        print(f"no factorization within 2^{total_bits} pairs")
        return EXIT_OK
    product = group_mul(sol.left_image, sol.right_image)
    verified = product.mat == pk.key_product.mat
    print(
        f"factored the public product: left_scalar={sol.left_scalar} "
        f"right_scalar={sol.right_scalar} ops={sol.ops} verified={str(verified).lower()}"
    )
    return EXIT_OK


def build_kat_bundle(profile_name: str, seed: bytes) -> str:
    """One deterministic transcript exercising every library operation.

    A single seeded RngHandle feeds every sampling step in a fixed order, so
    regenerating with the same seed reproduces the bundle byte for byte.
    Sweep timings are omitted; they are the only non-deterministic output.
    """
    rng = RngHandle(seed)
    lines: list[str] = []

    def emit(**fields):
        lines.append(json.dumps(fields, separators=(",", ":")))

    params = make_params(profile_name, rng)
    n, p = params.n, params.p
    emit(op="sample_prime", bits=params.kappa1, out=hex(p))
    emit(op="encode", kind="params", out=codec.encode(params).hex())

    unit = sample_invertible(n, p, rng)
    emit(op="sample_invertible", n=n, out=canonical_bytes(unit.mat).hex())
    nil = sample_nilpotent(n, p, rng)
    emit(op="sample_nilpotent", index=nil.index, out=canonical_bytes(nil.base).hex())
    left, right = sample_noncommuting_pair(n, p, rng)
    emit(
        op="sample_noncommuting_pair",
        left=canonical_bytes(left.base).hex(), left_index=left.index,
        right=canonical_bytes(right.base).hex(), right_index=right.index,
    )

    emit(
        op="mat_mul",
        a=canonical_bytes(unit.mat).hex(), b=canonical_bytes(nil.base).hex(),
        out=canonical_bytes(mat_mul(unit.mat, nil.base)).hex(),
    )
    emit(
        op="mat_inv",
        a=canonical_bytes(unit.mat).hex(),
        out=canonical_bytes(mat_inv(unit.mat).mat).hex(),
    )
    ok, index = is_nilpotent(nil.base)
    emit(op="is_nilpotent", a=canonical_bytes(nil.base).hex(), nilpotent=ok, index=index)
    emit(op="is_nilpotent", a=canonical_bytes(unit.mat).hex(),
         nilpotent=is_nilpotent(unit.mat)[0], index=None)
    emit(op="mat_exp", a=canonical_bytes(nil.base).hex(), index=nil.index,
         out=canonical_bytes(mat_exp(nil).mat).hex())
    scalar = rng.below(p)
    emit(op="exp_scaled", t=scalar, a=canonical_bytes(nil.base).hex(),
         out=canonical_bytes(exp_scaled(scalar, nil).mat).hex())
    emit(op="commutes", a=canonical_bytes(left.base).hex(),
         b=canonical_bytes(right.base).hex(), out=commutes(left.base, right.base))

    pk, sk = keygen(params, rng)
    suite = pk.suite_id
    sigma = rng.bitstr(params.kappa2)
    message = rng.bitstr(params.msg_len)
    r_left, r_right = h1(params, suite, sigma, message)
    emit(op="h1", sigma=sigma.hex(), m=message.hex(),
         r_left=r_left.hex(), r_right=r_right.hex())
    emit(op="h2", g=canonical_bytes(unit.mat).hex(), out=h2(params, suite, unit).hex())
    emit(op="h3", sigma=sigma.hex(), out=h3(params, suite, sigma).hex())

    emit(op="keygen", pk=codec.encode(pk).hex(), sk=codec.encode(sk).hex())
    ops_enc = OpCounter()
    ct = encrypt(pk, message, rng, ops_enc)
    emit(op="encrypt", m=message.hex(), ct=codec.encode(ct).hex(),
         exp_maps=ops_enc.exp_maps, group_mults=ops_enc.group_mults)
    ops_dec = OpCounter()
    recovered = decrypt(sk, pk, ct, ops_dec)
    emit(op="decrypt", ct=codec.encode(ct).hex(), m=recovered.hex(),
         exp_maps=ops_dec.exp_maps, group_mults=ops_dec.group_mults)
    emit(op="decode", kind="pk", accepted=codec.encode(codec.decode(codec.encode(pk))).hex())

    x, y = rng.below(16), rng.below(16)
    target = group_mul(exp_scaled(x, left), exp_scaled(y, right))
    inst = NafInstance(left, right, target, 16, 16)
    for name, solver in (("naf_bruteforce", naf_bruteforce), ("naf_mitm", naf_mitm)):
        sol = solver(inst)
        emit(op=name, target=canonical_bytes(target.mat).hex(),
             bound_left=16, bound_right=16,
             left_scalar=sol.left_scalar, right_scalar=sol.right_scalar, ops=sol.ops)
    a, b, c, d = (rng.below(8) for _ in range(4))
    nai = NaiInstance(
        left, right,
        group_mul(exp_scaled(a, left), exp_scaled(b, right)),
        group_mul(exp_scaled(c, left), exp_scaled(d, right)),
        16, 16,
    )
    emit(op="nai_via_naf",
         product_one=canonical_bytes(nai.product_one.mat).hex(),
         product_two=canonical_bytes(nai.product_two.mat).hex(),
         out=canonical_bytes(nai_via_naf(nai, naf_bruteforce).mat).hex())

    sweep_rows = hardness_sweep(2, [8], [4, 6], rng)
    emit(op="hardness_sweep", n=2, p_bits=[8], bound_bits=[4, 6],
         rows=[[r.n, r.p_bits, r.bound_bits, r.solver, r.ops, r.found] for r in sweep_rows])
    return "\n".join(lines) + "\n"


def cmd_kat(args) -> int:
    seed = parse_seed(args.seed)
    if seed is None:
        raise UsageError("kat requires --seed for reproducibility")
    text = build_kat_bundle(args.profile, seed)
    if args.out:
        write_atomic(args.out, text.encode())
        print(f"wrote {args.out} ({len(text.splitlines())} vectors)")
    else:
        print(text, end="")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _params_args(p):
    p.add_argument("--profile", choices=sorted(PROFILES), default="toy")
    p.add_argument("--seed", help="32-byte hex seed for reproducibility")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_params)


def _keygen_args(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--profile", choices=sorted(PROFILES), default="toy")
    group.add_argument("--params", help="read parameters from a .lgparams file")
    p.add_argument("--seed", help="32-byte hex seed for reproducibility")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_keygen)


def _encrypt_args(p):
    p.add_argument("pk", help="public-key file")
    p.add_argument("infile", help="plaintext input file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", help="32-byte hex seed for reproducibility")
    p.set_defaults(func=cmd_encrypt)


def _decrypt_args(p):
    p.add_argument("sk", help="private-key file")
    p.add_argument("pk", help="matching public-key file")
    p.add_argument("infile", help="ciphertext input file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decrypt)


def _inspect_args(p):
    p.add_argument("file")
    p.add_argument("--pk", help="cross-check a private key against this public key")
    p.set_defaults(func=cmd_inspect)


def _attack_args(p):
    p.add_argument("pk_file", nargs="?", help="public-key file to attack")
    p.add_argument("--solver", choices=("brute", "mitm"), default="brute")
    p.add_argument("--bounds-bits", dest="bounds_bits",
                   help="total searched pair bits (comma list with --sweep)")
    p.add_argument("--sweep", action="store_true",
                   help="emit a cost-scaling CSV over a parameter grid")
    p.add_argument("--n", type=int, default=2, help="matrix rank for --sweep")
    p.add_argument("--p-bits", dest="p_bits", default="8",
                   help="comma list of prime sizes for --sweep")
    p.add_argument("--seed", help="32-byte hex seed for reproducibility")
    p.add_argument("--out", help="write the sweep CSV here instead of stdout")
    p.set_defaults(func=cmd_attack)


def _kat_args(p):
    p.add_argument("--profile", choices=sorted(PROFILES), default="toy")
    p.add_argument("--seed", required=True, help="32-byte hex seed")
    p.add_argument("--out", help="write the bundle here instead of stdout")
    p.set_defaults(func=cmd_kat)


# command name -> (help line, function adding its arguments), in help order
COMMANDS = {
    "params": ("generate a parameter file", _params_args),
    "keygen": ("generate a key pair", _keygen_args),
    "encrypt": ("encrypt a file under a public key", _encrypt_args),
    "decrypt": ("decrypt a file with a private key", _decrypt_args),
    "inspect": ("validate and describe a wire file", _inspect_args),
    "attack": ("factor a public product, or run a sweep", _attack_args),
    "kat": ("emit a known-answer-test bundle", _kat_args),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The `lgpk` parser with every command, or with the one named `only`.

    Either way the usage line lists every command, so a parse error reads the
    same whichever parser reports it.
    """
    parser = argparse.ArgumentParser(
        prog="lgpk",
        description="Public-key encryption over matrix Lie groups, with attack tooling.",
    )
    # argparse names the choices it holds; with one of them, name them all
    metavar = "{" + ",".join(COMMANDS) + "}" if only else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in COMMANDS.items():
        if only in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command in first place is the only subparser this run can reach
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except tuple(kind for kind, _, _ in EXIT_TABLE) as e:
        for kind, code, prefix in EXIT_TABLE:
            if isinstance(e, kind):
                print(f"{prefix}{e}", file=sys.stderr)
                return code


def main_entry():
    sys.exit(main())
