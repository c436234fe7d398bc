"""Attack oracles for the two search problems the scheme leans on.

Factoring: given a product exp(x*L)*exp(y*R) of exponentials of known
non-commuting nilpotent generators, recover the scalar pair. The brute-force
solver scans the full (x, y) grid; the meet-in-the-middle solver tabulates
the right factor's images for every y and probes them with left-inverses
applied to the target, trading memory for a linear-time scan. Both carry
only v times each running product, for one vector v chosen from the
generators, a row-times-matrix step of n^2 multiplications, and confirm a
row hit by the full matrix product before reporting it; the
meet-in-the-middle table is keyed by that row packed into one int.
Insertion: given two such products, produce the product with component-wise
summed scalars; solved here by factoring both inputs and re-exponentiating.

Both solvers refuse instances whose cost exceeds an explicit budget instead
of grinding forever — at production parameters the refusal arithmetic *is*
the point. `hardness_sweep` turns that into measured scaling curves over a
(prime size x search bound) grid.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import BudgetRefusal, ParameterError
from .matfield import (
    GroupElement,
    NilpotentMatrix,
    Rows,
    commutes,
    exp_scaled,
    group_mul,
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
        if not (a.n == b.n == t.n and a.p == b.p == t.p):
            raise ParameterError("generators and target must share dimension and modulus")
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

    def naf_instances(self) -> tuple[NafInstance, NafInstance]:
        return (
            NafInstance(self.left_gen, self.right_gen, self.product_one,
                        self.bound_left, self.bound_right),
            NafInstance(self.left_gen, self.right_gen, self.product_two,
                        self.bound_left, self.bound_right),
        )


@dataclass(frozen=True)
class NafSolution:
    left_scalar: int
    right_scalar: int
    left_image: GroupElement
    right_image: GroupElement
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
    left_image = exp_scaled(x, inst.left_gen)
    right_image = exp_scaled(y, inst.right_gen)
    if group_mul(left_image, right_image).mat != inst.target.mat:
        return None
    return NafSolution(x, y, left_image, right_image, ops)


def naf_bruteforce(
    inst: NafInstance, pair_budget: int = BRUTE_PAIR_BUDGET
) -> Optional[NafSolution]:
    """Exhaustive scan of the (x, y) grid, x-major, so the smallest x (and for
    it the smallest y) wins. `ops` reports the number of pairs tried.

    The scan carries only v*exp(x*L)*exp(y*R) (v from `_scan_vector`):
    that row is (v*exp(L)^x) * exp(R)^y, so each step is one
    row-times-matrix product. A pair whose row equals v*target is confirmed
    by the full product before it is returned; a pair matching in that row
    alone is passed over.
    """
    total = inst.bound_left * inst.bound_right
    if total > pair_budget:
        raise BudgetRefusal(
            f"brute force needs {inst.bound_left} * {inst.bound_right} = {total} "
            f"pair trials, over the budget of {pair_budget}"
        )
    p = inst.target.mat.p
    left_cols = tuple(zip(*mat_exp(inst.left_gen).mat.rows))
    right_cols = tuple(zip(*mat_exp(inst.right_gen).mat.rows))
    start = _scan_vector(inst)
    goal = _row_times(start, tuple(zip(*inst.target.mat.rows)), p)
    for x in range(inst.bound_left):
        row = start
        for y in range(inst.bound_right):
            if row == goal:
                sol = _confirm(inst, x, y, x * inst.bound_right + y + 1)
                if sol is not None:
                    return sol
            row = _row_times(row, right_cols, p)
        start = _row_times(start, left_cols, p)
    return None


def naf_mitm(
    inst: NafInstance, table_budget: int = MITM_TABLE_BUDGET
) -> Optional[NafSolution]:
    """Meet-in-the-middle: tabulate v*exp(y*R) (v from `_scan_vector`) for
    all y, then probe v*exp(x*L)^-1*target for each x. Cost is
    bound_left + bound_right row-times-matrix products instead of their
    product; `ops` counts table entries built plus probes made. Ties resolve
    to the smallest x, then the smallest y.

    Each row is packed into one int, and the table maps it to its first y;
    later y's with the same row, which occur only when rows repeat, wait in a
    side dict. A probe that hits confirms its candidates by the full product,
    smallest y first.
    """
    if inst.bound_right > table_budget:
        raise BudgetRefusal(
            f"meet-in-the-middle table needs {inst.bound_right} entries, "
            f"over the budget of {table_budget}"
        )
    p = inst.target.mat.p

    def pack(row: tuple[int, ...]) -> int:
        key = 0
        for e in row:
            key = key * p + e
        return key

    start = _scan_vector(inst)
    right_cols = tuple(zip(*mat_exp(inst.right_gen).mat.rows))
    table: dict[int, int] = {}
    later: dict[int, list[int]] = {}
    row = start
    for y in range(inst.bound_right):
        key = pack(row)
        if table.setdefault(key, y) != y:
            later.setdefault(key, []).append(y)
        row = _row_times(row, right_cols, p)
    # exp(L)^-1 = exp(-L) = exp((p-1)*L): scalars act mod p
    inv_cols = tuple(zip(*exp_scaled(p - 1, inst.left_gen).mat.rows))
    target_cols = tuple(zip(*inst.target.mat.rows))
    row = start
    for x in range(inst.bound_left):
        key = pack(_row_times(row, target_cols, p))
        first = table.get(key)
        if first is not None:
            for y in (first, *later.get(key, ())):
                sol = _confirm(inst, x, y, inst.bound_right + x + 1)
                if sol is not None:
                    return sol
        row = _row_times(row, inv_cols, p)
    return None


NafSolver = Callable[[NafInstance], Optional[NafSolution]]


def nai_via_naf(inst: NaiInstance, naf_solver: NafSolver) -> Optional[GroupElement]:
    """Solve insertion by factoring both products and re-exponentiating the
    scalar sums: exp((a+c)*L)*exp((b+d)*R). None if either factoring fails."""
    one, two = inst.naf_instances()
    sol_one = naf_solver(one)
    if sol_one is None:
        return None
    sol_two = naf_solver(two)
    if sol_two is None:
        return None
    return group_mul(
        exp_scaled(sol_one.left_scalar + sol_two.left_scalar, inst.left_gen),
        exp_scaled(sol_one.right_scalar + sol_two.right_scalar, inst.right_gen),
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
    n: int,
    p_bits_list: Sequence[int],
    bound_bits_list: Sequence[int],
    rng: RngHandle,
    pair_budget: int = BRUTE_PAIR_BUDGET,
    table_budget: int = MITM_TABLE_BUDGET,
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
            # built per call from the module globals, so a solver rebound there
            # (as bench/tracer.py does) is the one run
            for name, solver, budget in (
                ("brute", naf_bruteforce, pair_budget), ("mitm", naf_mitm, table_budget)
            ):
                start = time.perf_counter()
                try:
                    sol = solver(inst, budget)
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
