"""Tests of the benchmark harness itself.

Run from the repository root with: python3 -m pytest bench
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import checkout

checkout.import_lgpk()

from lgpk import cli, codec, cryptanalysis, matfield, scheme  # noqa: E402
from lgpk.sampler import RngHandle  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TRACE_COUNTS = (".calls", ".pairs", ".bytes", ".bytes_in", ".bytes_out")


def small_keys():
    rng = RngHandle(b"\x01" * 32)
    params = cli.make_params("small", rng)
    pk, sk = scheme.keygen(params, rng)
    return pk, sk, rng.bitstr(params.msg_len)


def tiny(workload_cls, ops: int, seed: int = 1):
    return workload_cls(seed, ops / workload_cls.rate)


def test_tracer_rebinds_every_alias_and_restores_it():
    original = matfield.exp_scaled
    holders = [m for name, m in sys.modules.items()
               if name.startswith("lgpk") and getattr(m, "exp_scaled", None) is original]
    assert {m.__name__ for m in holders} >= {"lgpk.matfield", "lgpk.scheme", "lgpk.cli",
                                            "lgpk.cryptanalysis"}
    post_init = matfield.FieldMatrix.__post_init__
    with tracer.Tracer():
        wrapper = matfield.exp_scaled
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert all(m.exp_scaled is wrapper for m in holders)
        assert matfield.FieldMatrix.__post_init__ is not post_init
    assert all(m.exp_scaled is original for m in holders)
    assert matfield.FieldMatrix.__post_init__ is post_init


def test_traced_scheme_shows_criterion_6_counts_and_same_ciphertext():
    pk, sk, m = small_keys()
    untraced = codec.encode(scheme.encrypt(pk, m, RngHandle(b"\x02" * 32)))
    with tracer.Tracer() as t:
        ct = scheme.encrypt(pk, m, RngHandle(b"\x02" * 32))
    enc = t.snapshot()
    assert (enc["matfield.exp_scaled.calls"], enc["matfield.group_mul.calls"]) == (2, 3)
    assert codec.encode(ct) == untraced
    with tracer.Tracer() as t:
        assert scheme.decrypt(sk, pk, ct) == m
    dec = t.snapshot()
    assert (dec["matfield.exp_scaled.calls"], dec["matfield.group_mul.calls"]) == (2, 5)
    assert dec["scheme.decrypt.accepted"] == 1


def test_self_time_excludes_traced_children():
    pk, _, m = small_keys()
    with tracer.Tracer() as t:
        scheme.encrypt(pk, m, RngHandle(b"\x02" * 32))
    snap = t.snapshot()
    children = sum(v for k, v in snap.items()
                   if k.endswith(".self_ns") and k != "scheme.encrypt.self_ns")
    assert 0 < snap["scheme.encrypt.self_ns"]
    assert children > snap["scheme.encrypt.self_ns"]


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_inputs_follow_the_seed(cls):
    assert tiny(cls, 8, seed=7).digest == tiny(cls, 8, seed=7).digest
    assert tiny(cls, 8, seed=7).digest != tiny(cls, 8, seed=8).digest


def test_hot_key_counts_wrong_and_raising_outputs_as_failures(monkeypatch, tmp_path):
    wl = tiny(workloads.HotKeyPaper, 16)
    honest = {i for i, t in enumerate(wl.tamper) if t is None}
    assert 0 < len(honest) < wl.n_ops
    assert run.timed_pass(wl, wl.setup(0, tmp_path))[2] == set()

    real_decrypt = scheme.decrypt

    def corrupted(sk, pk, ct, ops=None):
        out = real_decrypt(sk, pk, ct, ops)
        return None if out is None else workloads._flip(out, 0)

    monkeypatch.setattr(scheme, "decrypt", corrupted)
    assert run.timed_pass(wl, wl.setup(1, tmp_path))[2] == honest

    def raising(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(scheme, "encrypt", raising)
    assert run.timed_pass(wl, wl.setup(2, tmp_path))[2] == set(range(wl.n_ops))


def test_cold_cli_counts_corrupted_files_as_failures(monkeypatch, tmp_path):
    wl = tiny(workloads.ColdCliPaper, 2)
    pool = wl.setup(0, tmp_path)
    assert run.timed_pass(wl, pool)[2] == set()
    assert wl.check(pool) == set()

    real_write = cli.write_atomic

    def corrupted(path, data):
        real_write(path, data[:-1] + bytes([data[-1] ^ 1]) if data else b"\x00")

    monkeypatch.setattr(cli, "write_atomic", corrupted)
    pool = wl.setup(1, tmp_path)
    assert run.timed_pass(wl, pool)[2] == set()  # exit codes are still 0
    assert wl.check(pool) == {0, 1}


def test_attack_counts_a_wrong_pair_as_failure(monkeypatch, tmp_path):
    wl = tiny(workloads.AttackPlanted, 2)
    instances = wl.setup(0, tmp_path)
    assert run.timed_pass(wl, instances)[2] == set()
    real_mitm = cryptanalysis.naf_mitm

    def off_by_one(inst, *args):
        sol = real_mitm(inst, *args)
        return dataclasses.replace(sol, left_scalar=sol.left_scalar + 1)

    monkeypatch.setattr(cryptanalysis, "naf_mitm", off_by_one)
    assert run.timed_pass(wl, instances)[2] == {0, 1}


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_traced_counts_repeat_exactly(cls, tmp_path):
    first, _ = run.trace(tiny(cls, 4), tmp_path / "a")
    second, _ = run.trace(tiny(cls, 4), tmp_path / "b")
    assert first["failed"] == second["failed"] == 0
    counts = [k for k in first["metrics"] if k.endswith(TRACE_COUNTS)]
    assert len(counts) > len(tracer.watched_names())
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    if cls is workloads.HotKeyPaper:
        assert first["metrics"]["matfield.exp_scaled.calls"]["value"] == 4
        assert first["metrics"]["matfield.group_mul.calls"]["value"] == 8


def test_benchmark_json_matches_the_harness():
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units(tracer.watched_names()))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(1300))) == (99.0, 1286, 13)
    assert run.tail(list(range(20))) == (50.0, 9, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)


def test_scaled_times_follow_the_local_reference_speed():
    nominal = run.REF_NOMINAL_MS
    assert run.scaled([4.0, 6.0], [nominal, nominal]) == [4.0, 6.0]
    slow = [2 * nominal] * 30
    assert run.scaled([8.0] * 30, slow) == [4.0] * 30
    # a single slow reference does not move the local median
    assert run.scaled([3.0] * 5, [nominal] * 2 + [9 * nominal] + [nominal] * 2) == [3.0] * 5


def test_refuses_to_run_without_the_checked_out_sources(tmp_path):
    shutil.copytree(checkout.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hot-key-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert "lgpk" in done.stderr
