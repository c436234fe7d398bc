"""Command-line front end: key lifecycle, file encryption, inspection,
attacks on a public key, hardness sweeps, and known-answer-test bundles.

Exit codes are part of the contract: 0 success, 2 usage, 3 I/O, 4 integrity
(bad frame, failed validity check or tag), 5 key mismatch, 6 budget refusal.
A command reports failure only by raising; `main` maps the error to its code.
Output files are written to temp names and renamed, so a failing command
never leaves a partial file, or one key of a pair, behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter

from . import codec
from .cryptanalysis import (
    NafInstance,
    NaiInstance,
    hardness_sweep,
    nai_via_naf,
    solvers,
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
    PROFILES,
    RngHandle,
    make_params,
    sample_invertible,
    sample_nilpotent,
    sample_noncommuting_pair,
)
from .scheme import Ciphertext, PrivateKey, PublicKey, decrypt, encrypt, keygen
from .hashsuite import h1, h2, h3

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTEGRITY = 4
EXIT_KEY_MISMATCH = 5
EXIT_BUDGET = 6


class IntegrityError(LgpkError):
    pass


# (exception type, exit code, stderr prefix); main() reports the first match
EXIT_TABLE = (
    (ParameterError, EXIT_USAGE, "error: "),
    (OSError, EXIT_IO, "error: "),
    (IntegrityError, EXIT_INTEGRITY, "error: "),
    (CodecError, EXIT_INTEGRITY, "error: integrity failure: "),
    (KeyMismatchError, EXIT_KEY_MISMATCH, "error: "),
    (BudgetRefusal, EXIT_BUDGET, "refused: "),
)


def parse_seed(text: str | None) -> bytes | None:
    if text is None:
        return None
    try:
        seed = bytes.fromhex(text)
    except ValueError:
        raise ParameterError("--seed must be hexadecimal") from None
    if len(seed) != 32:
        raise ParameterError(f"--seed must be 32 bytes (64 hex digits), got {len(seed)}")
    return seed


def parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ParameterError(f"{flag} expects a comma-separated list of integers") from None


def read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_atomic(path: str, data: bytes, *also: tuple[str, bytes]):
    """Write `data`, and each further (path, data) pair, to a temp name; then
    rename them into place in that order. On failure remove the temp files
    and every file already renamed, so a failing call leaves none behind."""
    files = [(path, data), *also]
    temps = [f"{name}.tmp.{os.getpid()}" for name, _ in files]
    placed = []
    try:
        for tmp, (_, blob) in zip(temps, files):
            with open(tmp, "wb") as fh:
                fh.write(blob)
        for tmp, (name, _) in zip(temps, files):
            os.replace(tmp, name)
            placed.append(name)
    except BaseException:
        for name in temps + placed:
            with contextlib.suppress(OSError):
                os.remove(name)
        raise


def write_or_print(out: str | None, text: str, count: str):
    """Write `text` to the file `out` and report it with `count`; print it
    when there is no `out`."""
    if out:
        write_atomic(out, text.encode())
        print(f"wrote {out} ({count})")
    else:
        print(text, end="")


@contextlib.contextmanager
def decode_errors_in(path: str):
    """Report a decode error as an integrity failure that names `path`."""
    try:
        yield
    except CodecError as e:
        raise IntegrityError(f"integrity failure in {path}: {e}") from e


def load_object(path: str, expect_kind: int):
    """Decode the one frame in `path`."""
    with decode_errors_in(path):
        return codec.decode(read_file(path), expect_kind=expect_kind)


# ---------------------------------------------------------------- commands

def cmd_params(args):
    rng = RngHandle(parse_seed(args.seed))
    params = make_params(args.profile, rng)
    write_atomic(args.out, codec.encode(params))
    print(f"wrote {args.out} (profile {args.profile}, n={params.n}, p of {params.kappa1} bits)")


def cmd_keygen(args):
    rng = RngHandle(parse_seed(args.seed))
    if args.params:
        params = load_object(args.params, codec.KIND_PARAMS)
    else:
        params = make_params(args.profile, rng)
    pk, sk = keygen(params, rng)
    pk_path = args.out + codec.FILE_EXTENSIONS[codec.KIND_PUBLIC_KEY]
    sk_path = args.out + codec.FILE_EXTENSIONS[codec.KIND_PRIVATE_KEY]
    # the private key first, so not even a killed process leaves a public key without it
    write_atomic(sk_path, codec.encode(sk), (pk_path, codec.encode(pk)))
    print(f"wrote {pk_path} (n={params.n}, p of {params.kappa1} bits)")
    print(f"wrote {sk_path} (fingerprint {sk.pk_fingerprint.hex()[:16]}…)")


def cmd_encrypt(args):
    pk = load_object(args.pk, codec.KIND_PUBLIC_KEY)
    rng = RngHandle(parse_seed(args.seed))
    data = read_file(args.infile)
    write_atomic(args.out, codec.seal_file(pk, data, rng))
    print(f"wrote {args.out} ({len(data)} bytes sealed)")


def cmd_decrypt(args):
    sk = load_object(args.sk, codec.KIND_PRIVATE_KEY)
    pk = load_object(args.pk, codec.KIND_PUBLIC_KEY)
    if sk.pk_fingerprint != codec.pk_fingerprint(pk):
        raise KeyMismatchError(f"{args.sk} is not the private key for {args.pk}")
    plain = codec.open_file(sk, pk, read_file(args.infile))
    write_atomic(args.out, plain)
    print(f"wrote {args.out} ({len(plain)} bytes)")


def _describe_params(params: ParameterSet) -> list[str]:
    return [
        f"  toy mode: {'yes' if params.toy else 'no'}",
        f"  n: {params.n}",
        f"  p bits: {params.kappa1}",
        f"  seed bits: {params.kappa2}",
        f"  exponent bits: {params.kappa3}+{params.kappa4}",
        f"  message bits: {params.msg_len}",
    ]


def cmd_inspect(args):
    blob = read_file(args.file)
    sealed = blob.startswith(codec.SEALED_MAGIC)
    with decode_errors_in(args.file):
        obj, body = codec.read_sealed_header(blob) if sealed else (codec.decode(blob), 0)
    if args.pk and not isinstance(obj, PrivateKey):
        raise ParameterError("--pk is only for a private-key file")
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
            if product != pk.key_product:
                raise IntegrityError(
                    "integrity failure: secret factors do not multiply to the public product"
                )
            lines.append(f"  consistent with {args.pk}: yes")
    elif isinstance(obj, Ciphertext):
        lines.append("  kind: " + ("sealed file" if sealed else "ciphertext frame"))
        lines.append(f"  sealed seed bits: {obj.sealed_seed.nbits}")
        lines.append(f"  group element: {obj.rand_product.n}x{obj.rand_product.n}")
        lines.append(f"  masked message bits: {obj.masked_msg.nbits}")
        if sealed:
            lines.append(f"  plaintext bytes: {len(blob) - body - codec.HMAC_BYTES}")
            lines.append("  tag: HMAC-SHA256, checked only with the private key")
    print("\n".join(lines))


def cmd_attack(args):
    pk = load_object(args.pk_file, codec.KIND_PUBLIC_KEY)
    if args.bounds_bits is None:
        total_bits = pk.params.kappa3 + pk.params.kappa4
    elif args.bounds_bits < 0:
        raise ParameterError("--bounds-bits must be >= 0")
    elif args.bounds_bits > 2 * codec.MAX_PRIME_BITS:  # no key has more: scalars act mod p
        raise ParameterError(f"--bounds-bits must be <= {2 * codec.MAX_PRIME_BITS}")
    else:
        total_bits = args.bounds_bits
    bound_left = 1 << ((total_bits + 1) // 2)
    bound_right = 1 << (total_bits // 2)
    inst = NafInstance(pk.left_gen, pk.right_gen, pk.key_product, bound_left, bound_right)
    sol = solvers()[args.solver](inst)
    if sol is None:
        print(f"no factorization within 2^{total_bits} pairs")
        return
    # an independent check: re-exponentiate the scalars the report prints
    product = group_mul(
        exp_scaled(sol.left_scalar, pk.left_gen), exp_scaled(sol.right_scalar, pk.right_gen)
    )
    verified = product == pk.key_product
    print(
        f"factored the public product: left_scalar={sol.left_scalar} "
        f"right_scalar={sol.right_scalar} ops={sol.ops} verified={str(verified).lower()}"
    )


def cmd_sweep(args):
    rng = RngHandle(parse_seed(args.seed))
    p_bits = parse_int_list(args.p_bits, "--p-bits")
    bound_bits = parse_int_list(args.bounds_bits, "--bounds-bits")
    if args.n > codec.MAX_DIM or max(p_bits) > codec.MAX_PRIME_BITS:  # no key is larger
        raise ParameterError(f"--n must be <= {codec.MAX_DIM}, --p-bits <= {codec.MAX_PRIME_BITS}")
    if args.n < 2:  # no nilpotent generator is smaller; refused before any prime is drawn
        raise ParameterError("--n must be >= 2")
    rows = hardness_sweep(args.n, p_bits, bound_bits, rng)
    write_or_print(args.out, sweep_csv(rows), f"{len(rows)} rows")


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
    emit(op="sample_invertible", n=n, out=canonical_bytes(unit).hex())
    nil = sample_nilpotent(n, p, rng)
    emit(op="sample_nilpotent", index=nil.index, out=canonical_bytes(nil).hex())
    left, right = sample_noncommuting_pair(n, p, rng)
    emit(
        op="sample_noncommuting_pair",
        left=canonical_bytes(left).hex(), left_index=left.index,
        right=canonical_bytes(right).hex(), right_index=right.index,
    )

    emit(
        op="mat_mul",
        a=canonical_bytes(unit).hex(), b=canonical_bytes(nil).hex(),
        out=canonical_bytes(mat_mul(unit, nil)).hex(),
    )
    emit(
        op="mat_inv",
        a=canonical_bytes(unit).hex(),
        out=canonical_bytes(mat_inv(unit)).hex(),
    )
    ok, index = is_nilpotent(nil)
    emit(op="is_nilpotent", a=canonical_bytes(nil).hex(), nilpotent=ok, index=index)
    emit(op="is_nilpotent", a=canonical_bytes(unit).hex(),
         nilpotent=is_nilpotent(unit)[0], index=None)
    emit(op="mat_exp", a=canonical_bytes(nil).hex(), index=nil.index,
         out=canonical_bytes(mat_exp(nil)).hex())
    scalar = rng.below(p)
    emit(op="exp_scaled", t=scalar, a=canonical_bytes(nil).hex(),
         out=canonical_bytes(exp_scaled(scalar, nil)).hex())
    emit(op="commutes", a=canonical_bytes(left).hex(),
         b=canonical_bytes(right).hex(), out=commutes(left, right))

    pk, sk = keygen(params, rng)
    sigma = rng.bitstr(params.kappa2)
    message = rng.bitstr(params.msg_len)
    r_left, r_right = h1(params, sigma, message)
    emit(op="h1", sigma=sigma.hex(), m=message.hex(),
         r_left=r_left.to_bytes((params.kappa3 + 7) // 8, "little").hex(),
         r_right=r_right.to_bytes((params.kappa4 + 7) // 8, "little").hex())
    emit(op="h2", g=canonical_bytes(unit).hex(), out=h2(params, unit).hex())
    emit(op="h3", sigma=sigma.hex(), out=h3(params, sigma).hex())

    emit(op="keygen", pk=codec.encode(pk).hex(), sk=codec.encode(sk).hex())
    ops_enc = Counter()
    ct = encrypt(pk, message, rng, ops_enc)
    emit(op="encrypt", m=message.hex(), ct=codec.encode(ct).hex(),
         exp_maps=ops_enc["exp_maps"], group_mults=ops_enc["group_mults"])
    ops_dec = Counter()
    recovered = decrypt(sk, pk, ct, ops_dec)
    emit(op="decrypt", ct=codec.encode(ct).hex(), m=recovered.hex(),
         exp_maps=ops_dec["exp_maps"], group_mults=ops_dec["group_mults"])
    emit(op="decode", kind="pk", accepted=codec.encode(codec.decode(codec.encode(pk))).hex())

    x, y = rng.below(16), rng.below(16)
    target = group_mul(exp_scaled(x, left), exp_scaled(y, right))
    inst = NafInstance(left, right, target, 16, 16)
    for solver in solvers().values():
        sol = solver(inst)
        emit(op=solver.__name__, target=canonical_bytes(target).hex(),
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
         product_one=canonical_bytes(nai.product_one).hex(),
         product_two=canonical_bytes(nai.product_two).hex(),
         out=canonical_bytes(nai_via_naf(nai, next(iter(solvers().values())))).hex())

    sweep_rows = hardness_sweep(2, [8], [4, 6], rng)
    emit(op="hardness_sweep", n=2, p_bits=[8], bound_bits=[4, 6],
         rows=[row.untimed() for row in sweep_rows])
    return "\n".join(lines) + "\n"


def cmd_kat(args):
    text = build_kat_bundle(args.profile, parse_seed(args.seed))  # --seed is required
    write_or_print(args.out, text, f"{len(text.splitlines())} vectors")


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
    p.add_argument("pk_file", help="public-key file to attack")
    p.add_argument("--solver", choices=list(solvers()), default=next(iter(solvers())))
    p.add_argument("--bounds-bits", type=int, metavar="N", help="searched pair bits (default: all)")
    p.set_defaults(func=cmd_attack)


def _sweep_args(p):
    p.add_argument("--n", type=int, default=2, help="matrix rank (default %(default)s)")
    p.add_argument("--p-bits", default="8", metavar="LIST", help="prime sizes (default %(default)s)")
    p.add_argument("--bounds-bits", default="8,10,12,14", metavar="LIST",
                   help="searched pair bits per instance (default %(default)s)")
    p.add_argument("--seed", help="32-byte hex seed for reproducibility")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)


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
    "attack": ("factor a public key's product", _attack_args),
    "sweep": ("time both solvers over a planted grid", _sweep_args),
    "kat": ("emit a known-answer-test bundle", _kat_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The `lgpk` parser with every command."""
    parser = argparse.ArgumentParser(
        prog="lgpk",
        description="Public-key encryption over matrix Lie groups, with attack tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv with its command's parser alone, which prints the errors and
    help the full parser's subparser would; leftovers are reported as `lgpk`'s."""
    if not argv or argv[0] not in COMMANDS:
        return build_parser().parse_args(argv)
    parser = argparse.ArgumentParser(prog=f"lgpk {argv[0]}")
    COMMANDS[argv[0]][1](parser)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return e.code
    try:
        args.func(args)
        sys.stdout.flush()  # so a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader left (`lgpk inspect f | head`): not a failure of this command;
        # stdout goes to devnull so that the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except tuple(kind for kind, _, _ in EXIT_TABLE) as e:
        for kind, code, prefix in EXIT_TABLE:
            if isinstance(e, kind):
                print(f"{prefix}{e}", file=sys.stderr)
                return code
    return EXIT_OK


def main_entry():
    sys.exit(main())
