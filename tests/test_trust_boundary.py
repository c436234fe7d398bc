"""The trust boundary from the inside: every value that the library builds
unchecked through `bitstrings.trusted` passes its own constructor's checks.

`trusted` skips `__post_init__` for results the code already knows are valid.
Here a validating stand-in replaces it in each module that calls it: it builds
the value through `cls(**fields)`, so every check runs, and compares a
`_terms` table of power rows with the one `__post_init__` builds. Under it the
pinned KAT bundles regenerate byte for byte, and a round trip, a tampered
decrypt, both solvers and a sealed file behave as they do unchecked.
"""

import importlib
import sys
from collections import Counter

import pytest

from lgpk import codec
from lgpk.bitstrings import BitStr
from lgpk.cli import build_kat_bundle
from lgpk.cryptanalysis import NafInstance, naf_bruteforce, naf_mitm
from lgpk.errors import AuthenticationError
from lgpk.matfield import exp_scaled, group_mul
from lgpk.sampler import PROFILES, RngHandle, make_params, sample_noncommuting_pair, sample_prime
from lgpk.scheme import Ciphertext, decrypt, encrypt, keygen
from test_imports import TRUSTED_CALL_SITES
from test_kat import DATA, PIN_SEED

CALLERS = {site.rpartition(".")[2] for _, site in TRUSTED_CALL_SITES}


@pytest.fixture
def validated(monkeypatch):
    """Install the validating `trusted`; count its values by calling function."""
    seen = Counter()

    def trusted(cls, **fields):
        terms = fields.pop("_terms", None)
        value = cls(**fields)
        assert terms is None or terms == value._terms, cls
        hash(value)  # a list where a tuple belongs would not hash
        seen[sys._getframe(1).f_code.co_name] += 1
        return value

    for module in {module for module, _ in TRUSTED_CALL_SITES}:
        monkeypatch.setattr(importlib.import_module(f"lgpk.{module}"), "trusted", trusted)
    return seen


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_pinned_bundle_regenerates_under_validation(validated, profile):
    pinned = (DATA / f"kat_{profile}.jsonl").read_text()
    assert build_kat_bundle(profile, PIN_SEED) == pinned
    assert set(validated) == CALLERS


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_round_trips_under_validation(validated, profile):
    rng = RngHandle(bytes([len(profile)]) * 32)
    pk, sk = keygen(make_params(profile, rng), rng)
    m = rng.bitstr(pk.params.msg_len)
    ct = encrypt(pk, m, rng)
    assert decrypt(sk, pk, ct) == m
    flipped = ct.masked_msg ^ BitStr.from_int(1, m.nbits)
    assert decrypt(sk, pk, Ciphertext(ct.sealed_seed, ct.rand_product, flipped)) is None
    data = bytes(range(200))
    sealed = codec.seal_file(pk, data, rng)
    assert codec.open_file(sk, pk, sealed) == data
    with pytest.raises(AuthenticationError):
        codec.open_file(sk, pk, sealed[:-1] + bytes([sealed[-1] ^ 1]))
    assert validated["exp_scaled"] and validated["xof_bits"]


@pytest.mark.parametrize("solver", [naf_bruteforce, naf_mitm])
def test_solvers_under_validation(validated, solver):
    rng = RngHandle(bytes(32))
    p = sample_prime(16, rng)
    left, right = sample_noncommuting_pair(3, p, rng)
    target = group_mul(exp_scaled(11, left), exp_scaled(6, right))
    sol = solver(NafInstance(left, right, target, 16, 16))
    assert (sol.left_scalar, sol.right_scalar) == (11, 6)
    assert validated["mat_mul"]
