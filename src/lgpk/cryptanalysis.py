"""Attack oracles for the two search problems the scheme leans on.

Factoring: given a product exp(x*L)*exp(y*R) of exponentials of known
non-commuting nilpotent generators, recover the scalar pair. Both solvers
follow only the row v*exp(x*L)*exp(y*R), for one vector v chosen from the
generators, and confirm a hit on it by the full n x n product. Along x and
along y the row is a polynomial of degree below that generator's index, so a
few row products give its forward differences, and `itertools` running sums
walk them in C: no row product per pair or per probe, and no Python call per
x. A solve works on row tuples alone: the rows of exponentials
(`matfield.exp_rows`) and their products (`matfield.rows_mul`), with no
matrix object built.

The brute-force solver tries every pair of the (x, y) grid, prefiltering on
one coordinate of the row less the target's. It packs that coordinate for up
to `LANES` consecutive y into the lanes of one int and steps x by lane-wise
additions mod p, so a few big-int operations test a whole chunk of y at each
x (SIMD within a register), and a hit is a zero lane, handed to the full
product with no row rebuilt; it stores one chunk, never a value per pair. The
meet-in-the-middle solver tabulates, for every y, the fewest coordinates of
the row that tell the table's rows apart (one, on a large p), packed into
ints, and probes them with exp(-x*L) applied to the target, trading memory
for a linear-time scan.
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
from dataclasses import astuple, dataclass, fields
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetRefusal, ParameterError
from .matfield import (
    GroupElement,
    NilpotentMatrix,
    Rows,
    commutes,
    exp_rows,
    exp_scaled,
    group_mul,
    is_probable_prime,
    require_type,
    rows_mul,
)
from .sampler import RngHandle, sample_noncommuting_pair, sample_prime

BRUTE_PAIR_BUDGET = 1 << 32
MITM_TABLE_BUDGET = 1 << 22
LANES = 256  # y values per brute-force chunk: the lanes of one int


def _check_search(inst, noun: str, *elements: GroupElement) -> None:
    """The checks of both instance kinds: bounds that are ints >= 1,
    generators and `elements` (named `noun`) of one dimension and one prime
    modulus, and generators that do not commute."""
    require_type("bound_left", inst.bound_left, int)
    require_type("bound_right", inst.bound_right, int)
    if inst.bound_left < 1 or inst.bound_right < 1:
        raise ParameterError("search bounds must be >= 1")
    a, b = inst.left_gen, inst.right_gen
    if not (all(m.n == a.n and m.p == a.p for m in (b, *elements)) and is_probable_prime(a.p)):
        raise ParameterError(f"generators and {noun} must share dimension and a prime modulus")
    if commutes(a, b):
        raise ParameterError("generators must not commute")


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
        _check_search(self, "target", self.target)


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

    def __post_init__(self):
        _check_search(self, "products", self.product_one, self.product_two)


@dataclass(frozen=True)
class NafSolution:
    left_scalar: int
    right_scalar: int
    ops: int


def _scan_vector(inst: NafInstance) -> tuple[int, ...]:
    """A 0/1 vector v with v*L != 0 and v*R != 0, so that v*exp(x*L) moves
    with x and v*exp(y*R) with y; a fixed e_0 can fail this, as for
    L = [[0, 1], [0, 0]] and R = [[0, 0], [1, 0]].

    v is e_k for the first k where row k of both generators is nonzero.
    Failing that, every row k is zero in L or in R, so v = e_i + e_j with row
    i of R and row j of L nonzero gives v*R = R_i and v*L = L_j.
    """
    left, right = inst.left_gen.rows, inst.right_gen.rows
    idx = range(len(left))
    both = [i for i in idx if any(left[i]) and any(right[i])]
    ones = both[:1] or [
        next(i for i in idx if any(right[i])),
        next(j for j in idx if any(left[j])),
    ]
    return tuple(int(i in ones) for i in idx)


def _confirm(inst: NafInstance, xrows: Rows, x: int, y: int, ops: int) -> Optional[NafSolution]:
    """The full check behind a row hit: the n x n product of `xrows`, the rows
    of exp(x*L), and those of exp(y*R) equals the target's rows."""
    product = rows_mul(xrows, exp_rows(y, inst.right_gen), inst.target.p)
    return NafSolution(x, y, ops) if product == inst.target.rows else None


def _diff_rows(rows: Rows, t: int, gen: NilpotentMatrix) -> list[Rows]:
    """The blocks of row tuples rows*(S - I)^i for i below gen's index,
    S = exp(t*gen), each one `rows_mul` of the last: for each row r of
    `rows`, the forward differences at s = 0 of r*S^s. S - I is t*gen times
    a unit that commutes with gen, so it vanishes from gen's index on.
    `rows_mul` reduces the -1s."""
    p = gen.p
    diff = [list(row) for row in exp_rows(t, gen)]
    for i, row in enumerate(diff):
        row[i] -= 1  # S - I: the identity comes off the diagonal alone
    blocks = [rows]
    for _ in range(1, gen.index):
        blocks.append(rows_mul(blocks[-1], diff, p))
    return blocks


def _walks(diffs: Sequence[Iterable[int]], length: int, p: int) -> Iterator[Iterator[int]]:
    """One walk per position of the streams `diffs`: the values at t = 0, 1,
    ..., length-1, mod p, of the polynomial whose forward differences at 0
    are the streams' entries there, diffs[0] first. Each walk is running sums
    of running sums: `itertools.count` sums the constant last difference and
    `itertools.accumulate` over `chain((d,), ...)` each earlier one d, and the
    `map` that reduces them mod p stops after `length`. Those constructors
    are mapped over the streams, so no Python frame runs per walk or per
    value."""
    values = map(count, diffs[-2], diffs[-1]) if len(diffs) > 1 else map(repeat, diffs[0])
    for d in diffs[-3::-1]:
        values = map(accumulate, map(chain, zip(d), values))
    return map(map, repeat(operator.mod), values, map(repeat, repeat(p), repeat(length)))


def _first_hit(inst: NafInstance, x: int, y0: int, hits: int, width: int) -> Optional[NafSolution]:
    """The first pair (x, y0 + k), lowest lane k first, among the prefilter
    hits (bit width*(k+1) - 1 set in `hits`) whose product `_confirm` accepts;
    the rows of exp(x*L) are made once for all of them."""
    xrows = exp_rows(x, inst.left_gen)
    while hits:
        lane = hits & -hits
        hits ^= lane
        y = y0 + lane.bit_length() // width - 1
        sol = _confirm(inst, xrows, x, y, x * inst.bound_right + y + 1)
        if sol is not None:
            return sol
    return None


def naf_bruteforce(inst: NafInstance) -> Optional[NafSolution]:
    """Exhaustive scan of the (x, y) grid, x-major, so the smallest x (and for
    it the smallest y) wins. `ops` reports the number of pairs tried up to the
    winner, x * bound_right + y + 1.

    The scan follows the row v*exp(x*L)*exp(y*R) (v from `_scan_vector`).
    With G = exp(L) - I and E = exp(R) - I, its forward differences in x are
    v*G^a*exp(y*R), polynomials in y with differences v*G^a*E^i: the only
    row products made, all on row tuples. The scan runs:
    - a prefilter on one coordinate of the row minus the goal's, SIMD within
      a register: for each chunk of at most `LANES` consecutive y, the y walks
      (`_walks`) of that coordinate's x-differences fill one int per
      difference, one byte-aligned lane per y, whose top (guard) bit a sum of
      two lanes never reaches. An x step adds each difference into the one
      before it, lane-wise mod p, and a guard-bit test marks the zero lanes,
      the pairs whose coordinate matches the goal's: a few big-int
      operations per x for the whole chunk, and no Python call per x;
    - `_confirm`, the full product, at each marked lane, lowest y first, with
      no row rebuilt in between: the prefilter's false hits are few.
    Chunks run in y order, and each scans only the x below the best pair
    found so far, so the x-major winner is the one returned. Memory is the
    differences and one chunk, whatever the bounds.
    """
    total = inst.bound_left * inst.bound_right
    if total > BRUTE_PAIR_BUDGET:
        raise BudgetRefusal(
            f"brute force needs {inst.bound_left} * {inst.bound_right} = {total} "
            f"pair trials, over the budget of {BRUTE_PAIR_BUDGET}"
        )
    p = inst.target.p
    start = _scan_vector(inst)
    goal = rows_mul((start,), inst.target.rows, p)[0]
    left = [row for (row,) in _diff_rows((start,), 1, inst.left_gen)]
    # by_y[i][a] = v*G^a*E^i: the x-differences of the i-th y-difference
    by_y = _diff_rows(left, 1, inst.right_gen)
    # the prefilter coordinate: the first that moves with y anywhere, or on a
    # grid one y long, with x; 0 if none does
    steps = [r for d in by_y[1:] for r in d] if inst.bound_right > 1 else by_y[0][1:]
    j = next((j for j in range(len(start)) if any(r[j] for r in steps)), 0)
    # coordinate j of by_y, the row at x = y = 0 less the goal's: a hit is a 0
    columns = [[r[j] for r in d] for d in by_y]
    columns[0][0] -= goal[j]
    # walks[a] gives, for y = 0, 1, ..., the a-th x-difference at x = 0
    walks = list(_walks(columns, inst.bound_right, p))
    size = (p.bit_length() + 9) // 8  # bytes per lane: a sum below 2p stays under the guard bit
    width = 8 * size
    top = width - 1
    stepped = range(len(walks) - 1)  # every difference but the constant last
    best, limit = None, inst.bound_left
    for y0 in range(0, inst.bound_right, LANES):
        if not limit:
            break
        k = min(LANES, inst.bound_right - y0)
        ones = int.from_bytes((b"\x01" + bytes(size - 1)) * k, "little")
        guard = ones << top
        low, bias, pones = guard - ones, guard - p * ones, p * ones
        # s[a]: the a-th x-difference at the current x, one lane per y of the chunk
        s = [int.from_bytes(b"".join(map(int.to_bytes, islice(walk, k), repeat(size),
                                         repeat("little"))), "little") for walk in walks]
        for x in range(limit):
            hits = (s[0] + low & guard) ^ guard  # the guard bit of each zero lane
            if hits:
                sol = _first_hit(inst, x, y0, hits, width)
                if sol is not None:
                    best, limit = sol, x
                    break
            for a in stepped:
                t = s[a] + s[a + 1]
                g = t + bias & guard  # the guard bit of each lane at or past p
                s[a] = t - (pones & g - (g >> top))
    return best


def _keys(diffs: Sequence[tuple[int, ...]], length: int, p: int) -> Iterator[int]:
    """The rows at t = 0, 1, ..., length-1 of the walk whose row differences
    are `diffs`, each packed into one int by Horner's rule in base p, in C."""
    walks = _walks(diffs, length, p)  # one per coordinate
    keys = next(walks)
    for walk in walks:
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
    (H = exp(-L) - I). The table maps each packed key to its first y, and
    probes test membership, with no Python step per entry or probe. Full
    rows repeat only for y's equal mod p, the same product: v*R != 0 makes
    v*R, v*R^2, ... independent over Z_p (p prime). So a full-row hit
    confirms its first y alone.

    A key packs only the first m coordinates of the row, those that move
    with y first. m is the least below n with p^m >= bound_left *
    bound_right, else n, so a solve expects at most about one probe hit
    that `_confirm` rejects (probes x table keys / p^m <= 1). When the table
    holds min(bound_right, p) keys, as many as there are distinct full rows,
    its keys map one-to-one onto them, each with the same first y: a probe
    whose full row is in the table hits that y, and one that matches on m
    coordinates alone fails `_confirm`. So the winner and `ops` are those of
    full-row keys. A table with fewer keys is built once more from all n
    coordinates, which always tell its rows apart.
    """
    if inst.bound_right > MITM_TABLE_BUDGET:
        raise BudgetRefusal(
            f"meet-in-the-middle table needs {inst.bound_right} entries, "
            f"over the budget of {MITM_TABLE_BUDGET}"
        )
    if inst.bound_left > BRUTE_PAIR_BUDGET:
        raise BudgetRefusal(
            f"meet-in-the-middle needs {inst.bound_left} probes, "
            f"over the budget of {BRUTE_PAIR_BUDGET}"
        )
    p, n = inst.target.p, inst.target.n
    start = _scan_vector(inst)
    right = [row for (row,) in _diff_rows((start,), 1, inst.right_gen)]
    order = sorted(range(n), key=lambda c: not any(r[c] for r in right[1:]))
    width = next((m for m in range(1, n) if p ** m >= inst.bound_left * inst.bound_right), n)
    for cols in (order[:width], order):
        table: dict[int, int] = {}
        deque(map(table.setdefault, _keys([[r[c] for c in cols] for r in right],
                                          inst.bound_right, p), count()), maxlen=0)
        if len(table) == min(inst.bound_right, p):  # the keys tell the rows apart
            break
    # exp(L)^-1 = exp(-L) = exp((p-1)*L): scalars act mod p
    probe = rows_mul([row for (row,) in _diff_rows((start,), p - 1, inst.left_gen)],
                     inst.target.rows, p)
    keys, hit_keys = tee(_keys([[r[c] for c in cols] for r in probe], inst.bound_left, p))
    for x, key in compress(zip(count(), hit_keys), map(table.__contains__, keys)):
        sol = _confirm(inst, exp_rows(x, inst.left_gen), x, table[key], inst.bound_right + x + 1)
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
    """A sweep's columns, in order; the float ones are timings, which a seed does not fix."""

    n: int
    p_bits: int
    bound_bits: int
    solver: str
    ops: int
    millis: float
    found: str

    def untimed(self) -> list:
        """The columns a seed fixes, in order: all but the timings."""
        return [v for v in astuple(self) if not isinstance(v, float)]


SWEEP_CSV_HEADER = ",".join(field.name for field in fields(SweepRow))


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = [",".join(f"{v:.3f}" if isinstance(v, float) else str(v) for v in astuple(row))
             for row in rows]
    return "\n".join([SWEEP_CSV_HEADER, *lines]) + "\n"


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
    if not p_bits_list or not bound_bits_list:  # checked before any draw
        raise ParameterError("a sweep needs at least one prime size and one bound size")
    for b in bound_bits_list:
        if b < 2 or b % 2:
            raise ParameterError(f"bound_bits must be even and >= 2, got {b}")
    s_max = max(b // 2 for b in bound_bits_list)
    for p_bits in p_bits_list:
        if p_bits < 3:  # sample_prime's floor, checked before any prime is drawn
            raise ParameterError("prime bit length must be >= 3")
        if s_max > p_bits - 1:
            raise ParameterError(
                f"bound of 2^{s_max} per scalar cannot be planted faithfully "
                f"inside a {p_bits}-bit prime"
            )
        # every p_bits-bit prime must exceed n, not only the one drawn
        if least := next(filter(is_probable_prime, range(1 << (p_bits - 1), n + 1)), None):
            raise ParameterError(f"the smallest {p_bits}-bit prime is {least}, but p must "
                                 f"exceed n={n} so factorial inverses exist")
    if n < 2:  # sample_nilpotent's floor, checked before any draw
        raise ParameterError("nilpotent sampling needs n >= 2")
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
                found = sol is not None and (sol.left_scalar, sol.right_scalar) == (x, y)
                rows.append(SweepRow(n, p_bits, bound_bits, name, sol.ops if sol else 0,
                                     millis, "yes" if found else "no"))
    return rows
