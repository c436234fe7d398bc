"""The benchmark's workloads: seeded inputs, set-up, one timed operation, checks.

Every workload is a closed loop with one client, in one process and one
thread: the next operation starts when the previous one has returned. A run
executes a fixed sequence of `rate * seconds` operations generated from the
seed, so two runs with the same arguments do identical work whatever the
speed of the commit under test.

Calls into `lgpk` go through module attributes (`scheme.encrypt`, not a
local alias), so a Tracer installed over the package sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from pathlib import Path

from lgpk import cli, cryptanalysis, matfield, sampler, scheme
from lgpk.bitstrings import BitStr
from lgpk.sampler import RngHandle

import checkout
import tracer

BENCH = Path(__file__).resolve().parent
POOL_TIMEOUT_S = 170


def _derive(master: bytes, *labels) -> bytes:
    return hashlib.sha256(master + repr(labels).encode()).digest()


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one drawn uniformly from each of n equal strata,
    in shuffled order. Every seed then gets the same mix of cheap and dear
    operations, so a run's total work does not swing with the seed."""
    points = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(points)
    return points


class Workload:
    """Base class. A subclass fills `name`, `rate` and `setup_reps`, builds
    its plan in `__init__`, and implements `setup` and `op`."""

    name = ""
    rate = 1  # operations per second of --seconds; fixes the run's work
    setup_reps = 5  # set-ups timed per run; setup_s uses their median

    def __init__(self, seed: int, seconds: float):
        self.master = hashlib.sha256(f"lgpk-bench/{self.name}/{seed}".encode()).digest()
        self.plan_rng = random.Random(int.from_bytes(_derive(self.master, "plan"), "big"))
        self.n_ops = max(2, round(self.rate * seconds))
        self._digest = hashlib.sha256(self.master)

    def _record(self, *items):
        """Feed generated inputs into the input digest."""
        for item in items:
            self._digest.update(item if isinstance(item, bytes) else repr(item).encode())

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def setup(self, rep: int, workdir: Path):
        """Build the state one pass of `n_ops` operations needs. Repetition
        `rep` uses its own keys, so no set-up reuses another's work."""
        raise NotImplementedError

    def setup_traced(self, rep: int, workdir: Path):
        """setup() under a Tracer; returns (state, counters)."""
        with tracer.Tracer() as t:
            state = self.setup(rep, workdir)
        return state, t.snapshot()

    def op(self, state, i: int) -> bool:
        """Run operation i; True when its output is right."""
        raise NotImplementedError

    def check(self, state) -> set[int]:
        """Indices of operations whose outputs fail checks made after the
        timed phase."""
        return set()


class HotKeyPaper(Workload):
    """Encrypt->decrypt round trips under one paper-profile key pair; one in
    eight ciphertexts has one bit flipped and must be rejected."""

    name = "hot-key-paper"
    rate = 134
    TAMPER_EVERY = 8

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        rng = self.plan_rng
        self.messages = [rng.randbytes(32) for _ in range(self.n_ops)]
        tampered = set(rng.sample(range(self.n_ops), self.n_ops // self.TAMPER_EVERY))
        self.tamper = [
            (rng.choice(("sealed_seed", "masked_msg")), rng.randrange(256)) if i in tampered
            else None
            for i in range(self.n_ops)
        ]
        self._record(*self.messages, self.tamper)

    def setup(self, rep, workdir):
        rng = RngHandle(_derive(self.master, "keygen", rep))
        params = cli.make_params("paper", rng)
        pk, sk = scheme.keygen(params, rng)
        messages = [BitStr.from_bytes(m) for m in self.messages]
        return pk, sk, RngHandle(_derive(self.master, "encrypt", rep)), messages

    def op(self, state, i):
        pk, sk, rng, messages = state
        m = messages[i]
        ct = scheme.encrypt(pk, m, rng)
        if self.tamper[i] is None:
            return scheme.decrypt(sk, pk, ct) == m
        field, bit = self.tamper[i]
        ct = dataclasses.replace(ct, **{field: _flip(getattr(ct, field), bit)})
        return scheme.decrypt(sk, pk, ct) is None


def _flip(bits: BitStr, pos: int) -> BitStr:
    data = bytearray(bits.data)
    data[pos // 8] ^= 1 << (pos % 8)
    return BitStr(bits.nbits, bytes(data))


class ColdCliPaper(Workload):
    """Alternating `lgpk encrypt` and `lgpk decrypt` through `cli.main`, each
    command on a paper key pair this process has never touched."""

    name = "cold-cli-paper"
    rate = 24
    setup_reps = 1  # the key pool is most of a run; it is built once
    MAX_BYTES = 1024

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.n_ops += self.n_ops % 2
        rng = self.plan_rng

        def plaintexts(count):
            """Sizes log-uniform over [0, MAX_BYTES]."""
            return [rng.randbytes(math.floor(math.exp(u * math.log(self.MAX_BYTES + 1))) - 1)
                    for u in _stratified(rng, count)]

        # pair k: op 2k encrypts enc_plain[k], op 2k+1 decrypts dec_plain[k]
        self.pairs = self.n_ops // 2
        self.enc_plain = plaintexts(self.pairs)
        self.dec_plain = plaintexts(self.pairs)
        self.enc_seed = [rng.randbytes(32).hex() for _ in range(self.pairs)]
        self._record(*self.enc_plain, *self.dec_plain, *self.enc_seed)

    def _pool_commands(self, rep: int, pool: Path) -> list[list[str]]:
        """Write the plaintexts; return the CLI commands that make the keys
        and the ciphertexts the decrypt commands read."""
        commands = []
        for k in range(self.pairs):
            (pool / f"e{k}.txt").write_bytes(self.enc_plain[k])
            (pool / f"d{k}.txt").write_bytes(self.dec_plain[k])
            for role in ("e", "d"):
                seed = _derive(self.master, "keygen", rep, role, k).hex()
                commands.append(["keygen", "--profile", "paper", "--seed", seed,
                                 "--out", str(pool / f"{role}{k}")])
            seed = _derive(self.master, "prepare", rep, k).hex()
            commands.append(["encrypt", str(pool / f"d{k}.lgpk"), str(pool / f"d{k}.txt"),
                             "--out", str(pool / f"d{k}.lgct"), "--seed", seed])
        return commands

    def _build_pool(self, rep: int, workdir: Path, trace: bool):
        pool = workdir / f"pool{rep}"
        pool.mkdir(parents=True)
        plan = pool / "commands.json"
        plan.write_text(json.dumps(self._pool_commands(rep, pool)))
        cmd = [sys.executable, str(BENCH / "keypool.py"), str(plan)] + (["--trace"] if trace else [])
        done = subprocess.run(cmd, capture_output=True, text=True, env=checkout.child_env(),
                              timeout=POOL_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"key pool build failed: {done.stderr.strip()}")
        return pool, json.loads(done.stdout.splitlines()[-1])

    def setup(self, rep, workdir):
        return self._build_pool(rep, workdir, trace=False)[0]

    def setup_traced(self, rep, workdir):
        return self._build_pool(rep, workdir, trace=True)

    def command(self, pool: Path, i: int) -> list[str]:
        k = i // 2
        if i % 2 == 0:
            return ["encrypt", str(pool / f"e{k}.lgpk"), str(pool / f"e{k}.txt"),
                    "--out", str(pool / f"e{k}.lgct"), "--seed", self.enc_seed[k]]
        return ["decrypt", str(pool / f"d{k}.lgsk"), str(pool / f"d{k}.lgpk"),
                str(pool / f"d{k}.lgct"), "--out", str(pool / f"d{k}.out")]

    def op(self, pool, i):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.command(pool, i)) == 0

    def check(self, pool):
        """Decrypt each encrypt's output and compare; compare each decrypt's
        output with its plaintext."""
        bad = set()
        for k in range(self.pairs):
            out = pool / f"e{k}.check"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["decrypt", str(pool / f"e{k}.lgsk"), str(pool / f"e{k}.lgpk"),
                               str(pool / f"e{k}.lgct"), "--out", str(out)])
            if rc != 0 or out.read_bytes() != self.enc_plain[k]:
                bad.add(2 * k)
            out = pool / f"d{k}.out"
            if not out.exists() or out.read_bytes() != self.dec_plain[k]:
                bad.add(2 * k + 1)
        return bad


class AttackPlanted(Workload):
    """Brute-force and meet-in-the-middle solves of factoring instances
    planted in set-up: half at n=2 and half at n=3, over 16-32-bit primes,
    with both scalars below BOUND."""

    name = "attack-planted"
    rate = 30
    BOUND = 1 << 6

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        rng = self.plan_rng
        self.shapes = []
        for n, count in ((2, self.n_ops // 2), (3, self.n_ops - self.n_ops // 2)):
            p_bits = [16 + math.floor(u * 17) for u in _stratified(rng, count)]
            # the brute-force scan is x-major, so its cost grows with x * BOUND + y
            cells = [math.floor(u * self.BOUND ** 2) for u in _stratified(rng, count)]
            self.shapes += [(n, bits, *divmod(cell, self.BOUND))
                            for bits, cell in zip(p_bits, cells)]
        rng.shuffle(self.shapes)
        self._record(self.shapes)

    def setup(self, rep, workdir):
        instances = []
        for i, (n, p_bits, x, y) in enumerate(self.shapes):
            rng = RngHandle(_derive(self.master, "plant", rep, i))
            p = sampler.sample_prime(p_bits, rng)
            left, right = sampler.sample_noncommuting_pair(n, p, rng)
            target = matfield.group_mul(matfield.exp_scaled(x, left),
                                        matfield.exp_scaled(y, right))
            instances.append(cryptanalysis.NafInstance(left, right, target,
                                                       self.BOUND, self.BOUND))
        return instances

    def op(self, instances, i):
        planted = self.shapes[i][2:]
        ok = True
        for solve in (cryptanalysis.naf_bruteforce, cryptanalysis.naf_mitm):
            sol = solve(instances[i])
            ok = ok and sol is not None and (sol.left_scalar, sol.right_scalar) == planted
        return ok


WORKLOADS = {w.name: w for w in (HotKeyPaper, ColdCliPaper, AttackPlanted)}
