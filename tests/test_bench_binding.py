"""The benchmark under bench/ still binds to the package.

bench/ changes only with the benchmark, so a change under src/ alone must
keep every name its tracer watches and every type it rebuilds. The tracer
module is loaded from bench/tracer.py by path and installed over the whole
command-line package, as the benchmark installs it; then a Ciphertext and a
NafSolution are rebuilt with `dataclasses.replace`, as the benchmark's
workloads and tests rebuild them. A change that removes a watched name or
turns one of those types into a plain class fails here, not only in the
benchmark's own run.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import lgpk.cli  # the tracer wraps names in every lgpk module imported so far
from lgpk.bitstrings import BitStr
from lgpk.cryptanalysis import NafSolution
from lgpk.sampler import RngHandle, make_params
from lgpk.scheme import decrypt, encrypt, keygen

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def package_bindings():
    return {name: dict(vars(module)) for name, module in sys.modules.items()
            if name == "lgpk" or name.startswith("lgpk.")}


def test_benchmark_tracer_installs_and_uninstalls_over_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = package_bindings()
    # install raises for a watched name the package no longer has
    with tracer.Tracer():
        assert lgpk.matfield.det is not before["lgpk.matfield"]["det"]
    assert package_bindings() == before


def test_benchmark_rebuilds_ciphertexts_and_solutions_with_replace():
    params = make_params("toy", RngHandle(b"\x11" * 32))
    pk, sk = keygen(params, RngHandle(b"\x12" * 32))
    rng = RngHandle(b"\x13" * 32)
    msg = rng.bitstr(params.msg_len)
    ct = encrypt(pk, msg, rng)
    for field in ("sealed_seed", "masked_msg"):
        bits = getattr(ct, field)
        flipped = BitStr(bits.nbits, bytes([bits.data[0] ^ 1]) + bits.data[1:])
        assert decrypt(sk, pk, dataclasses.replace(ct, **{field: flipped})) is None
    sol = NafSolution(left_scalar=3, right_scalar=4, ops=5)
    assert dataclasses.replace(sol, left_scalar=4) == NafSolution(4, 4, 5)
