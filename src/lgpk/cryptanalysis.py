"""Attack oracles for the two search problems the scheme leans on.

Factoring: given a product exp(x*L)*exp(y*R) of exponentials of known
non-commuting nilpotent generators, recover the scalar pair. Both solvers
follow only the row v*exp(x*L)*exp(y*R), for one vector v chosen from the
generators, and confirm a row hit by the full matrix product. Along x and
along y the row is a polynomial of degree below that generator's index, so a
few row products give its forward differences, and `itertools` running sums
walk the whole search from them in C: no row product per pair or per probe.

The brute-force solver tries every pair of the (x, y) grid, prefiltering on
one coordinate of the row, and stores nothing per pair. The meet-in-the-middle
solver tabulates the rows for every y, packed into ints, and probes them with
exp(-x*L) applied to the target, trading memory for a linear-time scan.
`solvers()` is the one table of the solvers by name; every caller reads it.

Insertion: given two such products, produce the product with component-wise
summed scalars; solved here by factoring both inputs and re-exponentiating.

Both solvers refuse instances whose cost exceeds a fixed budget instead of
grinding forever. A refusal shows only that these two solvers would exceed
it, not hardness: a linearization, not bundled yet, breaks the paper profile
(README "Security status", ROADMAP item 4). `hardness_sweep` measures the
solvers' costs over a (prime size x search bound) grid.
"""

from __future__ import annotations

import operator
import time
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from math import comb
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetRefusal, ParameterError
from .matfield import (
    GroupElement,
    NilpotentMatrix,
    Rows,
    commutes,
    exp_scaled,
    group_mul,
    is_probable_prime,
    mat_exp,
)
from .sampler import RngHandle, sample_noncommuting_pair, sample_prime

BRUTE_PAIR_BUDGET = 1 << 32
MITM_TABLE_BUDGET = 1 << 22

SWEEP_CSV_HEADER = "n,p_bits,bound_bits,solver,ops,millis,found"


@dataclass(frozen=True)
class NafInstance:
    """A factoring instance: recover (x, y) with exp(x*left)*exp(y*right) = target,
    searching x in [0, bound_left) and y in [0, bound_right)."""

    left_gen: NilpotentMatrix
    right_gen: NilpotentMatrix
    target: GroupElement
    bound_left: int
    bound_right: int

    def __post_init__(self):
        if self.bound_left < 1 or self.bound_right < 1:
            raise ParameterError("search bounds must be >= 1")
        a, b, t = self.left_gen.base, self.right_gen.base, self.target.mat
        if not (a.n == b.n == t.n and a.p == b.p == t.p and is_probable_prime(a.p)):
            raise ParameterError("generators and target must share dimension and a prime modulus")
        if commutes(a, b):
            raise ParameterError("generators must not commute")


@dataclass(frozen=True)
class NaiInstance:
    """An insertion instance: from exp(a*L)exp(b*R) and exp(c*L)exp(d*R),
    produce exp((a+c)*L)exp((b+d)*R)."""

    left_gen: NilpotentMatrix
    right_gen: NilpotentMatrix
    product_one: GroupElement
    product_two: GroupElement
    bound_left: int
    bound_right: int


@dataclass(frozen=True)
class NafSolution:
    left_scalar: int
    right_scalar: int
    ops: int


def _row_times(row: tuple[int, ...], cols: Rows, p: int) -> tuple[int, ...]:
    """Row vector times the matrix whose columns are `cols`, reduced mod p."""
    return tuple([sum(map(operator.mul, row, col)) % p for col in cols])


def _scan_vector(inst: NafInstance) -> tuple[int, ...]:
    """A 0/1 vector v with v*L != 0 and v*R != 0, so that v*exp(x*L) moves
    with x and v*exp(y*R) with y; a fixed e_0 can fail this, as for
    L = [[0, 1], [0, 0]] and R = [[0, 0], [1, 0]].

    v is e_k for the first k where row k of both generators is nonzero.
    Failing that, every row k is zero in L or in R, so v = e_i + e_j with row
    i of R and row j of L nonzero gives v*R = R_i and v*L = L_j.
    """
    left, right = inst.left_gen.base.rows, inst.right_gen.base.rows
    idx = range(len(left))
    both = [i for i in idx if any(left[i]) and any(right[i])]
    ones = both[:1] or [
        next(i for i in idx if any(right[i])),
        next(j for j in idx if any(left[j])),
    ]
    return tuple(int(i in ones) for i in idx)


def _confirm(inst: NafInstance, x: int, y: int, ops: int) -> Optional[NafSolution]:
    """The full check behind a row hit: exp(x*L)*exp(y*R) == target."""
    product = group_mul(exp_scaled(x, inst.left_gen), exp_scaled(y, inst.right_gen))
    return NafSolution(x, y, ops) if product.mat == inst.target.mat else None


def _diff_rows(start: tuple[int, ...], step: Rows, index: int, p: int) -> list[tuple[int, ...]]:
    """The rows start*(S - I)^i for i < index, S the matrix with rows `step`:
    the forward differences at t = 0 of start*S^t. For S = exp(X), S - I is
    X times a unit that commutes with X, so it vanishes from X's index on."""
    cols = [[(e - (i == j)) % p for i, e in enumerate(col)] for j, col in enumerate(zip(*step))]
    rows = [start]
    for _ in range(1, index):
        rows.append(_row_times(rows[-1], cols, p))
    return rows


def _walk(diffs: Sequence[int], length: int, p: int) -> Iterator[int]:
    """The values at t = 0, 1, ..., length-1, mod p, of the polynomial whose
    forward differences at 0 are `diffs`: running sums of running sums
    (`itertools.accumulate`), with no Python step per value."""
    values = repeat(diffs[-1])
    for d in diffs[-2::-1]:
        values = accumulate(values, initial=d)
    return islice(map(operator.mod, values, repeat(p)), length)


def _row_at(diffs: Sequence[tuple[int, ...]], t: int, p: int) -> tuple[int, ...]:
    """The row at t, sum over i of C(t, i) * diffs[i] mod p, from its forward
    differences at t = 0 (Newton's forward formula)."""
    weights = [comb(t, i) for i in range(len(diffs))]
    return tuple([sum(map(operator.mul, weights, col)) % p for col in zip(*diffs)])


def _matches(values: Iterator[int], goal: int) -> Iterator[int]:
    """The offsets at which `values` equals `goal`. `operator.indexOf` walks
    the stretch up to each one in C."""
    pos = -1
    while True:
        try:
            pos += 1 + operator.indexOf(values, goal)
        except ValueError:
            return
        yield pos


def naf_bruteforce(inst: NafInstance) -> Optional[NafSolution]:
    """Exhaustive scan of the (x, y) grid, x-major, so the smallest x (and for
    it the smallest y) wins. `ops` reports the number of pairs tried.

    The scan follows the row v*exp(x*L)*exp(y*R) (v from `_scan_vector`).
    With G = exp(L) - I and E = exp(R) - I, its forward differences in y are
    v*exp(x*L)*E^i, polynomials in x with differences v*G^a*E^i: the only
    row products made. The scan runs:
    - a prefilter on one coordinate of the row: the x walks of its
      y-differences give each x's y walk (`_walk`, one call per x), and
      those chained end to end are compared with that coordinate of
      v*target over the whole grid in C, with no Python step per pair;
    - the full row, rebuilt from the differences, at each pair that passes;
    - `_confirm`, the full product, at each pair whose full row matches.
    Memory is the differences and a chain of iterators, whatever the bounds.
    """
    total = inst.bound_left * inst.bound_right
    if total > BRUTE_PAIR_BUDGET:
        raise BudgetRefusal(
            f"brute force needs {inst.bound_left} * {inst.bound_right} = {total} "
            f"pair trials, over the budget of {BRUTE_PAIR_BUDGET}"
        )
    p = inst.target.mat.p
    start = _scan_vector(inst)
    goal = _row_times(start, tuple(zip(*inst.target.mat.rows)), p)
    right = mat_exp(inst.right_gen).mat.rows
    # by_y[i][a] = v*G^a*E^i: the x-differences of the i-th y-difference
    by_y = list(zip(*[
        _diff_rows(row, right, inst.right_gen.index, p)
        for row in _diff_rows(start, mat_exp(inst.left_gen).mat.rows, inst.left_gen.index, p)
    ]))
    # the prefilter coordinate: the first that moves with y anywhere, or on a
    # grid one y long, with x; 0 if none does
    steps = [r for d in by_y[1:] for r in d] if inst.bound_right > 1 else by_y[0][1:]
    j = next((j for j in range(len(start)) if any(r[j] for r in steps)), 0)
    y_diffs = zip(*[_walk([r[j] for r in d], inst.bound_left, p) for d in by_y])
    values = chain.from_iterable(map(_walk, y_diffs, repeat(inst.bound_right), repeat(p)))
    for pos in _matches(values, goal[j]):
        x, y = divmod(pos, inst.bound_right)
        if _row_at([_row_at(d, x, p) for d in by_y], y, p) == goal:
            sol = _confirm(inst, x, y, pos + 1)
            if sol is not None:
                return sol
    return None


def _keys(diffs: Sequence[tuple[int, ...]], length: int, p: int) -> Iterator[int]:
    """The rows at t = 0, 1, ..., length-1 of the walk whose row differences
    are `diffs`, each packed into one int by Horner's rule in base p, in C."""
    walks = [_walk(coord, length, p) for coord in zip(*diffs)]
    keys = walks[0]
    for walk in walks[1:]:
        keys = map(operator.add, map(operator.mul, keys, repeat(p)), walk)
    return keys


def naf_mitm(inst: NafInstance) -> Optional[NafSolution]:
    """Meet-in-the-middle: tabulate v*exp(y*R) (v from `_scan_vector`) for
    all y, then probe v*exp(x*L)^-1*target for each x. Cost is
    bound_left + bound_right rows instead of their product; `ops` counts
    table entries built plus probes made. Ties resolve to the smallest x,
    then the smallest y.

    Both sides are walks (`_keys`): the table rows have y-differences v*E^i
    (E = exp(R) - I), the probe rows x-differences v*H^a*target
    (H = exp(-L) - I). The table maps each packed row to its first y, and
    probes test membership, with no Python step per entry or probe. A hit
    confirms its first y alone: v*R != 0 makes v*R, v*R^2, ... independent over
    Z_p (p prime), so rows repeat only for y's equal mod p: the same product.
    """
    if inst.bound_right > MITM_TABLE_BUDGET:
        raise BudgetRefusal(
            f"meet-in-the-middle table needs {inst.bound_right} entries, "
            f"over the budget of {MITM_TABLE_BUDGET}"
        )
    p = inst.target.mat.p
    start = _scan_vector(inst)
    right = _diff_rows(start, mat_exp(inst.right_gen).mat.rows, inst.right_gen.index, p)
    table: dict[int, int] = {}
    deque(map(table.setdefault, _keys(right, inst.bound_right, p), count()), maxlen=0)
    # exp(L)^-1 = exp(-L) = exp((p-1)*L): scalars act mod p
    inv = exp_scaled(p - 1, inst.left_gen).mat.rows
    target_cols = tuple(zip(*inst.target.mat.rows))
    probe = [_row_times(r, target_cols, p) for r in _diff_rows(start, inv, inst.left_gen.index, p)]
    keys, hit_keys = tee(_keys(probe, inst.bound_left, p))
    for x, key in compress(zip(count(), hit_keys), map(table.__contains__, keys)):
        sol = _confirm(inst, x, table[key], inst.bound_right + x + 1)
        if sol is not None:
            return sol
    return None


NafSolver = Callable[[NafInstance], Optional[NafSolution]]


def solvers() -> dict[str, NafSolver]:
    """The factoring solvers by command-line name, the default first. Built per
    call from the module globals, so a solver rebound there (as bench/tracer.py
    does) is the one run."""
    return {"brute": naf_bruteforce, "mitm": naf_mitm}


def nai_via_naf(inst: NaiInstance, naf_solver: NafSolver) -> Optional[GroupElement]:
    """Solve insertion by factoring both products and re-exponentiating the
    scalar sums: exp((a+c)*L)*exp((b+d)*R). None if either factoring fails."""
    sols = []
    for product in (inst.product_one, inst.product_two):
        sols.append(naf_solver(NafInstance(inst.left_gen, inst.right_gen, product,
                                           inst.bound_left, inst.bound_right)))
        if sols[-1] is None:
            return None
    one, two = sols
    return group_mul(
        exp_scaled(one.left_scalar + two.left_scalar, inst.left_gen),
        exp_scaled(one.right_scalar + two.right_scalar, inst.right_gen),
    )


@dataclass(frozen=True)
class SweepRow:
    n: int
    p_bits: int
    bound_bits: int
    solver: str
    ops: int
    millis: float
    found: str

    def csv(self) -> str:
        return (
            f"{self.n},{self.p_bits},{self.bound_bits},{self.solver},"
            f"{self.ops},{self.millis:.3f},{self.found}"
        )


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    return "\n".join([SWEEP_CSV_HEADER] + [row.csv() for row in rows]) + "\n"


def hardness_sweep(
    n: int, p_bits_list: Sequence[int], bound_bits_list: Sequence[int], rng: RngHandle
) -> list[SweepRow]:
    """Plant one instance per grid cell and measure both solvers on it.

    bound_bits is the total size of the searched pair, split evenly:
    bound_left = bound_right = 2^(bound_bits/2). One master scalar pair is
    drawn up front and each cell's plant is its top slice, so measured op
    counts are non-decreasing along both grid axes; over-budget cells are
    recorded as refused rather than run.
    """
    for b in bound_bits_list:
        if b < 2 or b % 2:
            raise ParameterError(f"bound_bits must be even and >= 2, got {b}")
    s_max = max(b // 2 for b in bound_bits_list)
    for p_bits in p_bits_list:
        if s_max > p_bits - 1:
            raise ParameterError(
                f"bound of 2^{s_max} per scalar cannot be planted faithfully "
                f"inside a {p_bits}-bit prime"
            )
    x_master = rng.randbits(s_max)
    y_master = rng.randbits(s_max)
    rows = []
    for p_bits in p_bits_list:
        p = sample_prime(p_bits, rng)
        left_gen, right_gen = sample_noncommuting_pair(n, p, rng)
        for bound_bits in bound_bits_list:
            s = bound_bits // 2
            x = x_master >> (s_max - s)
            y = y_master >> (s_max - s)
            target = group_mul(exp_scaled(x, left_gen), exp_scaled(y, right_gen))
            inst = NafInstance(left_gen, right_gen, target, 1 << s, 1 << s)
            for name, solver in solvers().items():
                start = time.perf_counter()
                try:
                    sol = solver(inst)
                except BudgetRefusal:
                    rows.append(SweepRow(n, p_bits, bound_bits, name, 0, 0.0, "refused"))
                    continue
                millis = (time.perf_counter() - start) * 1000.0
                if sol is not None and (sol.left_scalar, sol.right_scalar) == (x, y):
                    found = "yes"
                else:
                    found = "no"
                rows.append(SweepRow(
                    n, p_bits, bound_bits, name, sol.ops if sol else 0, millis, found
                ))
    return rows
