import dataclasses
import json
import sys
import time
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path

import pytest
from conftest import count_calls, slow_naf_bruteforce, slow_naf_mitm, unit_element
from test_kat import PIN_SEED

import lgpk
from lgpk import cli, cryptanalysis, matfield
from lgpk.cryptanalysis import (
    BRUTE_PAIR_BUDGET,
    MITM_TABLE_BUDGET,
    SWEEP_CSV_HEADER,
    NafInstance,
    NaiInstance,
    SweepRow,
    hardness_sweep,
    naf_bruteforce,
    naf_mitm,
    nai_via_naf,
    solvers,
    sweep_csv,
)
from lgpk.errors import BudgetRefusal, ParameterError
from lgpk.matfield import (
    FieldMatrix,
    GroupElement,
    NilpotentMatrix,
    canonical_bytes,
    det,
    exp_scaled,
    group_mul,
    is_invertible,
    mat_mul,
)
from lgpk.sampler import RngHandle, sample_noncommuting_pair, sample_prime

SEED = b"\x99" * 32


def shift_pair(p):
    upper = NilpotentMatrix(2, p, ((0, 1), (0, 0)), 2)
    lower = NilpotentMatrix(2, p, ((0, 0), (1, 0)), 2)
    return upper, lower


def planted(left, right, x, y, bound_left, bound_right):
    target = group_mul(exp_scaled(x, left), exp_scaled(y, right))
    return NafInstance(left, right, target, bound_left, bound_right)


def reexponentiates(sol, inst):
    """The solution's scalars, exponentiated again, multiply to the target."""
    left = exp_scaled(sol.left_scalar, inst.left_gen)
    return group_mul(left, exp_scaled(sol.right_scalar, inst.right_gen)) == inst.target


def test_instance_validation():
    upper, lower = shift_pair(7)
    with pytest.raises(ParameterError):
        NafInstance(upper, lower, unit_element(2, 7), 0, 5)
    with pytest.raises(ParameterError):  # commuting generators
        NafInstance(upper, upper, unit_element(2, 7), 5, 5)
    with pytest.raises(ParameterError):  # modulus mismatch
        NafInstance(upper, lower, unit_element(2, 11), 5, 5)


@pytest.mark.parametrize("bounds, message", [
    ((16.0, 16), "bound_left must be an int, not float"),
    ((16, 16.0), "bound_right must be an int, not float"),
    ((True, 16), "bound_left must be an int, not bool"),
    ((16, "16"), "bound_right must be an int, not str"),
])
def test_instance_bounds_must_be_ints(bounds, message):
    # a float bound was accepted, and the brute-force scan then raised TypeError
    upper, lower = shift_pair(7)
    with pytest.raises(ParameterError) as e:
        NafInstance(upper, lower, unit_element(2, 7), *bounds)
    assert str(e.value) == message


def test_instance_rejects_a_composite_modulus():
    # over Z_15, v*R = (3, 0, 0) for the scanned v = e_1: the rows of y and
    # y + 5 agree while exp(y*R) and exp((y+5)*R) differ in row 2
    left = NilpotentMatrix(3, 15, ((0, 1, 0), (0, 0, 1), (0, 0, 0)), 3)
    right = NilpotentMatrix(3, 15, ((0, 0, 0), (3, 0, 0), (1, 1, 0)), 3)
    with pytest.raises(ParameterError, match="prime modulus"):
        NafInstance(left, right, unit_element(3, 15), 15, 15)


def test_bruteforce_known_toy_instance():
    # with shift generators the product is [[1+xy, x], [y, 1]] mod 7
    upper, lower = shift_pair(7)
    target = GroupElement(2, 7, ((2, 3), (5, 1)))
    inst = NafInstance(upper, lower, target, 7, 7)
    sol = naf_bruteforce(inst)
    assert (sol.left_scalar, sol.right_scalar) == (3, 5)
    assert reexponentiates(sol, inst)


def test_bruteforce_identity_target():
    upper, lower = shift_pair(7)
    sol = naf_bruteforce(NafInstance(upper, lower, unit_element(2, 7), 7, 7))
    assert (sol.left_scalar, sol.right_scalar) == (0, 0)
    assert sol.ops == 1


def test_bruteforce_ops_counts_pairs_tried():
    upper, lower = shift_pair(7)
    sol = naf_bruteforce(planted(upper, lower, 3, 5, 7, 7))
    assert sol.ops == 3 * 7 + 5 + 1


def test_solvers_agree_on_random_instances():
    rng = RngHandle(SEED)
    primes = (7, 11, 13, 17, 19, 23, 29, 31)
    for i in range(100):
        p = primes[i % len(primes)]
        n = 2 if i % 2 else 3
        left, right = sample_noncommuting_pair(n, p, rng)
        x, y = rng.below(p), rng.below(p)
        inst = planted(left, right, x, y, p, p)
        brute = naf_bruteforce(inst)
        mitm = naf_mitm(inst)
        assert brute is not None and mitm is not None
        assert (brute.left_scalar, brute.right_scalar) == (x, y)
        assert (mitm.left_scalar, mitm.right_scalar) == (x, y)
        assert reexponentiates(brute, inst) and reexponentiates(mitm, inst)


def test_mitm_ops_linear_bound():
    upper, lower = shift_pair(251)
    sol = naf_mitm(planted(upper, lower, 200, 13, 251, 251))
    assert sol.ops <= 251 + 251
    assert sol.ops == 251 + 200 + 1  # full table, then probes up to the hit


def test_smallest_scalars_win_when_bounds_exceed_modulus():
    # scalars act mod p, so (x, y) and (x+p, y+p) produce the same target;
    # both solvers must report the smallest representatives
    upper, lower = shift_pair(5)
    inst = planted(upper, lower, 1, 2, 10, 10)
    for solver in (naf_bruteforce, naf_mitm):
        sol = solver(inst)
        assert (sol.left_scalar, sol.right_scalar) == (1, 2)


@pytest.mark.parametrize("diffs", [[5], [0], [3, 0], [3, 4], [2, 0, 6], [1, 6, 0, 5], [4, 1, 3, 0]])
@pytest.mark.parametrize("length", [1, 5, 17])
def test_walk_is_newtons_forward_formula(diffs, length):
    # exactly `length` values, the t-th being sum over i of C(t, i) * d_i mod p,
    # also past t = p, where the walk wraps
    p = 7
    (walk,) = cryptanalysis._walks([(d,) for d in diffs], length, p)
    got = list(walk)
    assert len(got) == length
    assert got == [sum(comb(t, i) * d for i, d in enumerate(diffs)) % p for t in range(length)]


def grid_generators():
    """Generator pairs by test id, with the walks of each solver as deep as
    each generator's nilpotency index."""
    rng = RngHandle(b"\x5a" * 32)
    grid = {f"n{n}-p{p}": sample_noncommuting_pair(n, p, rng)
            for n, p in ((2, 7), (2, 11), (3, 7), (3, 11))}
    for n in (4, 5):
        pair = sample_noncommuting_pair(n, 7, rng)
        while (pair[0].index, pair[1].index) != (n, n):
            pair = sample_noncommuting_pair(n, 7, rng)
        grid[f"n{n}-p7"] = pair
    # u * w^T with w . u = 0 mod 7 squares to zero: index 2 against index 5
    u, w = (1, 2, 3, 4, 5), (1, 3, 0, 0, 0)
    square_zero = NilpotentMatrix(5, 7, tuple(tuple(a * b % 7 for b in w) for a in u), 2)
    deep = grid["n5-p7"][0]
    grid["index2-index5-p7"] = (square_zero, deep)
    grid["index5-index2-p7"] = (deep, square_zero)
    upper, lower = shift_pair(7)
    # every exp(y*lower) has row 0 = (1, 0): all of its row-0 table keys collide.
    # Swapped, the scanned row is (1+x, (1+x)*y + 1): coordinate 0 never moves
    # with y, and at x = 6 no coordinate does, so brute force's coordinate
    # prefilter passes every y or none.
    grid["shift-p7"] = (upper, lower)
    grid["shift-swapped-p7"] = (lower, upper)
    return grid


GRID = grid_generators()


def assert_solvers_match_oracle(inst):
    """Both solvers return the full-matrix oracle's (x, y, ops), or None with it."""
    gens = [([list(r) for r in g.rows], g.index) for g in (inst.left_gen, inst.right_gen)]
    args = (*gens, inst.target.rows, inst.target.p, inst.bound_left, inst.bound_right)
    results = []
    for solver, oracle in ((naf_bruteforce, slow_naf_bruteforce), (naf_mitm, slow_naf_mitm)):
        sol = solver(inst)
        got = None if sol is None else (sol.left_scalar, sol.right_scalar, sol.ops)
        assert got == oracle(*args), solver.__name__
        if sol is not None:
            assert reexponentiates(sol, inst)
        results.append(got)
    return results


def grid_instances(left, right):
    """(a, b, instance) for every target exp(aL)exp(bR), at three bound pairs.

    Bounds below p miss some targets; bounds above p repeat images, so the
    smallest-y tie-break decides.
    """
    p = left.p
    for bound_left, bound_right in ((p // 2, p - 2), (p, p), (p + 2, 2 * p + 1)):
        for a in range(p):
            for b in range(p):
                target = group_mul(exp_scaled(a, left), exp_scaled(b, right))
                yield a, b, NafInstance(left, right, target, bound_left, bound_right)


@pytest.mark.parametrize("left, right", list(GRID.values()), ids=list(GRID))
def test_solvers_match_full_matrix_oracle_on_every_grid_target(left, right):
    for a, b, inst in grid_instances(left, right):
        brute, mitm = assert_solvers_match_oracle(inst)
        if a < inst.bound_left and b < inst.bound_right:
            assert brute is not None and mitm is not None


@pytest.mark.parametrize("left, right", list(GRID.values()), ids=list(GRID))
def test_mitm_table_keys_below_p_are_distinct(left, right):
    # naf_mitm keeps one y per packed row: v*R != 0 for the scanned v, so
    # only y's equal mod p share a row, and they share the verdict too
    p = left.p
    inst = NafInstance(left, right, unit_element(left.n, p), p, p)
    start = cryptanalysis._scan_vector(inst)
    diffs = [row for (row,) in cryptanalysis._diff_rows((start,), 1, right)]
    keys = list(cryptanalysis._keys(diffs, p, p))
    assert len(keys) == p and len(set(keys)) == p
    assert list(cryptanalysis._keys(diffs, 2 * p, p))[p:] == keys  # and repeat with period p
    # so a table keyed on all n coordinates, naf_mitm's fallback, always
    # passes the size check that a narrower table can fail
    for bound_right in (p, 2 * p):
        table = dict.fromkeys(cryptanalysis._keys(diffs, bound_right, p))
        assert len(table) == min(bound_right, p)


def record_key_widths(monkeypatch):
    """The number of coordinates in each `_keys` call, in call order."""
    widths = []
    real = cryptanalysis._keys

    def recorded(diffs, length, p):
        widths.append(len(diffs[0]))
        return real(diffs, length, p)

    monkeypatch.setattr(cryptanalysis, "_keys", recorded)
    return widths


def test_mitm_keys_the_workload_shape_on_one_coordinate(monkeypatch):
    # n = 3, a 16-bit p and 64 x 64 bounds: p >= 64 * 64 probes x table
    # keys, so one coordinate keys both the table and the probes
    rng = RngHandle(SEED)
    p = sample_prime(16, rng)
    left, right = sample_noncommuting_pair(3, p, rng)
    widths = record_key_widths(monkeypatch)
    assert_solvers_match_oracle(planted(left, right, 13, 11, 64, 64))
    assert widths == [1, 1]
    # (1, 1)*exp(y*upper) = (1, 1+y): the coordinate that moves with y keys
    # the table, not coordinate 0, which would make every key the same
    upper, lower = shift_pair(4294967291)
    widths.clear()
    assert_solvers_match_oracle(planted(lower, upper, 13, 11, 64, 64))
    assert widths == [1, 1]


def test_mitm_rebuilds_a_table_whose_first_coordinate_repeats(monkeypatch):
    # v = e_0 and R = -5*E01 + E02 + 2*E21, so R^2 = 2*E01 (index 3) and the
    # leading coordinate of v*exp(y*R) is -5y + y^2 = a*y + b*C(y, 2) with
    # a = -4, b = 2: y1 + y2 = 1 - 2a/b = 5 gives the same key, as for y = 1
    # and 4. p >= 8 * 8, so the first table is keyed on that coordinate alone.
    p = 65537
    right = NilpotentMatrix(3, p, ((0, p - 5, 1), (0, 0, 0), (0, 2, 0)), 3)
    left = NilpotentMatrix(3, p, ((0, 0, 1), (0, 0, 0), (0, 0, 0)), 2)
    widths = record_key_widths(monkeypatch)
    inst = planted(left, right, 3, 4, 8, 8)
    assert cryptanalysis._scan_vector(inst) == (1, 0, 0)
    assert_solvers_match_oracle(inst)
    assert widths == [1, 3, 3]  # the table twice, the second time from all n; the probes


def row0_decoy(good):
    """An invertible matrix with good's row 0 and a different row 1."""
    n, p = good.n, good.p
    rows = [list(r) for r in good.rows]
    for delta in range(1, p):
        rows[1][0] = (good.rows[1][0] + delta) % p
        decoy = FieldMatrix(n, p, tuple(map(tuple, rows)))
        if is_invertible(decoy):
            return GroupElement(n, p, decoy.rows)
    raise AssertionError("no invertible decoy")


def decoy_instances(left, right):
    """(a, b, honest, instance) for two decoys of each exp(aL)exp(bR).

    Brute force sees row 0 of exp(aL)exp(bR) in the first kind; the
    meet-in-the-middle probe at x = a sees row 0 of exp(bR) in the second.
    """
    p = left.p
    for a in range(p):
        for b in range(p):
            honest = group_mul(exp_scaled(a, left), exp_scaled(b, right))
            decoys = (
                row0_decoy(honest),
                group_mul(exp_scaled(a, left), row0_decoy(exp_scaled(b, right))),
            )
            for decoy in decoys:
                yield a, b, honest, NafInstance(left, right, decoy, p, p)


@pytest.mark.parametrize("left, right", list(GRID.values()), ids=list(GRID))
def test_row0_decoys_are_not_reported(left, right):
    for a, b, honest, inst in decoy_instances(left, right):
        assert inst.target != honest
        for got in assert_solvers_match_oracle(inst):
            assert got is None or got[:2] != (a, b)


def test_shift_pair_scans_confirm_few_false_hits(monkeypatch):
    # row 0 of exp(y*lower) is (1, 0) for every y, so a row-0 scan handed
    # more pairs to the full check: 718 failed confirmations over the grid
    # targets and 531 over the decoys, meet-in-the-middle's 114 and 48 of
    # them against 0 and 42 here. (1, 1)*exp(y*lower) moves with y and
    # (1, 1)*exp(x*upper) with x. Brute force confirms each of its
    # prefilter's hits, so its false hits are most of the count.
    upper, lower = shift_pair(7)
    failed = []
    real = cryptanalysis._confirm
    monkeypatch.setattr(cryptanalysis, "_confirm", lambda *a: real(*a) or failed.append(1))
    counts = []
    for instances in (grid_instances(upper, lower), decoy_instances(upper, lower)):
        failed.clear()
        for *_, inst in instances:
            naf_bruteforce(inst)
            naf_mitm(inst)
        counts.append(len(failed))
    assert counts == [626, 497]


def test_bruteforce_prefilters_on_a_coordinate_that_moves_with_x_on_a_grid_one_y_long(monkeypatch):
    # the row is (1 + (1+x)*y, 1+x). With bound_right 1, coordinate 0 reads 1
    # at every x, so a prefilter on it (chosen by the y-differences) passes
    # all 2^10 x's, each handed to `_confirm`; coordinate 1 moves with x and
    # lets only the planted x through
    upper, lower = shift_pair(4294967291)
    calls = count_calls(monkeypatch, cryptanalysis, "_confirm")
    x = (1 << 10) - 1
    sol = naf_bruteforce(planted(upper, lower, x, 0, 1 << 10, 1))
    assert (sol.left_scalar, sol.right_scalar, sol.ops) == (x, 0, 1 << 10)
    assert len(calls) == 1


def test_bruteforce_confirms_the_hits_of_one_x_lowest_y_first(monkeypatch):
    # the scanned row is (1 + (1+x)*y, 1+x), prefiltered on coordinate 0, and
    # the goal at (4, 3) mod 5 is (1, 0): y = 0 passes at every x, and at
    # x = 4, where 1 + x = 0, every y does. So x = 4 hands y = 0, 1, 2 to
    # `_confirm` before the planted 3, and stops there, short of y = 4.
    upper, lower = shift_pair(5)
    confirmed = []
    real = cryptanalysis._confirm
    monkeypatch.setattr(cryptanalysis, "_confirm",
                        lambda inst, xrows, x, y, ops:
                        confirmed.append((x, y)) or real(inst, xrows, x, y, ops))
    sol = naf_bruteforce(planted(upper, lower, 4, 3, 5, 5))
    assert (sol.left_scalar, sol.right_scalar, sol.ops) == (4, 3, 24)
    assert confirmed == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]


def test_bruteforce_scans_a_long_row_in_constant_memory():
    # one x and 2^18 values of y: the planted pair is the last one tried
    upper, lower = shift_pair(4294967291)
    y = (1 << 18) - 1
    inst = planted(upper, lower, 0, y, 1, 1 << 18)
    tracemalloc.start()
    try:
        sol = naf_bruteforce(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sol.left_scalar, sol.right_scalar, sol.ops) == (0, y, 1 << 18)
    assert peak < 64 * 1024  # no table per y


def test_solvers_walk_a_long_column_in_constant_memory():
    # 2^18 values of x and one y: the planted pair is the last x tried. The
    # memory is traced on a 2^14 column after that first, cold call: tracing
    # slows these scans 5-50 times, and one pointer kept per x would already
    # take 128 KiB there.
    upper, lower = shift_pair(4294967291)
    for solver, table in ((naf_bruteforce, 0), (naf_mitm, 1)):
        x = (1 << 18) - 1
        sol = solver(planted(upper, lower, x, 0, 1 << 18, 1))
        assert (sol.left_scalar, sol.right_scalar, sol.ops) == (x, 0, table + x + 1)
        x = (1 << 14) - 1
        inst = planted(upper, lower, x, 0, 1 << 14, 1)
        tracemalloc.start()
        try:
            sol = solver(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (sol.left_scalar, sol.right_scalar) == (x, 0)
        assert peak < 64 * 1024, solver.__name__


def test_solves_make_a_constant_number_of_products(monkeypatch):
    # a solve works on row tuples: no matrix product and no matrix-valued
    # exponential, and the same rows products and row exponentials at
    # every bound, not one per pair tried, per x step, per table entry or
    # per probe
    rng = RngHandle(SEED)
    p = sample_prime(16, rng)
    left, right = sample_noncommuting_pair(3, p, rng)
    assert (left.index, right.index) == (3, 3)
    names = ("mat_mul", "group_mul", "mat_exp", "exp_scaled", "rows_mul", "exp_rows")
    calls = {name: count_calls(monkeypatch, matfield, name,
                               aliases=[cryptanalysis] * hasattr(cryptanalysis, name))
             for name in names}
    counts = {}
    for bound in (16, 64):
        inst = planted(left, right, 13, 11, bound, bound)
        for solver in (naf_bruteforce, naf_mitm):
            for seen in calls.values():
                seen.clear()
            sol = solver(inst)
            assert (sol.left_scalar, sol.right_scalar) == (13, 11)
            counts[solver.__name__, bound] = {name: len(seen) for name, seen in calls.items()}
    zero = dict.fromkeys(names[:4], 0)
    # brute force: the goal row, 2 + 2 blocks of difference rows and the
    # confirm; meet-in-the-middle: 2 + 2 difference rows, the probe rows and
    # the confirm. exp_rows: two steps each, and the confirm's two.
    for bound in (16, 64):
        assert counts["naf_bruteforce", bound] == {**zero, "rows_mul": 6, "exp_rows": 4}
        assert counts["naf_mitm", bound] == {**zero, "rows_mul": 6, "exp_rows": 4}


def python_calls_into_lgpk(fn, *args):
    """fn(*args), and the name of each Python frame that `sys.setprofile`
    sees start or resume in a source file of the lgpk package."""
    root = str(Path(lgpk.__file__).parent)
    names = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            names[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, names


def test_bruteforce_makes_no_python_call_per_x():
    # the planted pair is the last x's: one Python frame per x (a helper
    # call per lane-wise step) would make 48 more calls at bound_left 64
    # than at 16
    upper, lower = shift_pair(4294967291)
    naf_bruteforce(planted(upper, lower, 15, 5, 16, 8))  # compiles the kernels it runs
    seen = []
    for bound_left in (16, 64):
        x = bound_left - 1
        inst = planted(upper, lower, x, 5, bound_left, 8)
        sol, names = python_calls_into_lgpk(naf_bruteforce, inst)
        assert (sol.left_scalar, sol.right_scalar, sol.ops) == (x, 5, 8 * x + 6)
        seen.append(names)
    assert seen[0] == seen[1]


def reference_bruteforce(inst):
    """(x, y, pairs tried) at the first pair, x-major, whose product of the
    rows of exp(x*L) and exp(y*R) equals the target's rows, else None: one
    `exp_rows` and one `rows_mul` per pair."""
    p = inst.target.p
    for x in range(inst.bound_left):
        left = matfield.exp_rows(x, inst.left_gen)
        for y in range(inst.bound_right):
            if matfield.rows_mul(left, matfield.exp_rows(y, inst.right_gen), p) == inst.target.rows:
                return x, y, x * inst.bound_right + y + 1
    return None


LANE_SHAPES = ((1, 1), (1, 7), (9, 1), (5, 13), (16, 16), (40, 3), (8, 70))


def lane_instances(n):
    """Planted instances over every shape of LANE_SHAPES, for small primes
    (bounds past p give repeated and spurious prefilter hits) and a 20-bit
    one, each planted at two pairs inside the bounds and two just outside."""
    rng = RngHandle(bytes([0x60 + n]) * 32)
    for p in (5, 7, 11, 13, sample_prime(20, rng)):
        left, right = sample_noncommuting_pair(n, p, rng)
        for bl, br in LANE_SHAPES:
            for x, y in ((bl - 1, br - 1), (bl // 2, br // 3), (bl, br // 2), (bl // 3, br)):
                yield planted(left, right, x, y, bl, br)


LANE_CASES = {n: [(inst, reference_bruteforce(inst)) for inst in lane_instances(n)]
              for n in (2, 3, 4)}


@pytest.mark.parametrize("lanes", [1, 2, 3, None])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruteforce_matches_a_pair_by_pair_scan(monkeypatch, n, lanes):
    # a few lanes per chunk puts chunk boundaries inside every grid, and a
    # later chunk scans only the x below the best pair found so far
    if lanes is not None:
        monkeypatch.setattr(cryptanalysis, "LANES", lanes)
    found = 0
    for inst, expected in LANE_CASES[n]:
        sol = naf_bruteforce(inst)
        got = None if sol is None else (sol.left_scalar, sol.right_scalar, sol.ops)
        assert got == expected, (inst.target.p, inst.bound_left, inst.bound_right)
        found += got is not None
    assert 0 < found < len(LANE_CASES[n])  # both outcomes are covered


@pytest.mark.parametrize("bits", [14, 15, 16, 17, 30, 31, 32, 33])
def test_bruteforce_lanes_hold_values_near_p(bits):
    # a lane is ceil((bits(p) + 2) / 8) bytes: exactly bits(p) + 2 bits at
    # 14 and 30 bits, and a byte more just past them
    rng = RngHandle(bytes([bits]) * 32)
    for _ in range(3):
        p = sample_prime(bits, rng)
        assert p.bit_length() == bits
        left, right = sample_noncommuting_pair(3, p, rng)
        sol = naf_bruteforce(planted(left, right, 15, 15, 16, 16))
        assert (sol.left_scalar, sol.right_scalar, sol.ops) == (15, 15, 256)


@pytest.mark.parametrize("n", [2, 3])
def test_solves_compile_only_the_shapes_planting_compiled(n):
    # one kernel, the dimension's: every product multiplies by an n x n
    # matrix, and any other kernel would outlive the solve in the cache
    rng = RngHandle(bytes([n]) * 32)
    for _ in range(4):
        matfield._product_kernel.cache_clear()
        left, right = sample_noncommuting_pair(n, sample_prime(16, rng), rng)
        inst = planted(left, right, 5, 6, 8, 8)
        shapes = matfield._product_kernel.cache_info().currsize
        for solver in (naf_bruteforce, naf_mitm):
            sol = solver(inst)
            assert (sol.left_scalar, sol.right_scalar) == (5, 6)
        assert matfield._product_kernel.cache_info().currsize == shapes
        matfield._product_kernel(n)
        assert matfield._product_kernel.cache_info().currsize == 1


def image_census(left, right, p):
    seen = set()
    for x in range(p):
        for y in range(p):
            g = mat_mul(exp_scaled(x, left), exp_scaled(y, right))
            seen.add(canonical_bytes(g))
    return seen


def test_not_found_outside_image_set():
    p = 5
    upper, lower = shift_pair(p)
    census = image_census(upper, lower, p)
    assert len(census) == p * p  # the factoring map is injective here
    outsider = None
    for bits in range(p ** 4):
        rows = ((bits % 5, bits // 5 % 5), (bits // 25 % 5, bits // 125 % 5))
        m = FieldMatrix(2, p, rows)
        if det(m) != 0 and canonical_bytes(m) not in census:
            outsider = GroupElement(m.n, m.p, m.rows)
            break
    assert outsider is not None
    inst = NafInstance(upper, lower, outsider, p, p)
    assert naf_bruteforce(inst) is None
    assert naf_mitm(inst) is None


def test_bruteforce_budget_refusal(monkeypatch):
    upper, lower = shift_pair(7)
    inst = NafInstance(upper, lower, unit_element(2, 7), 1 << 17, 1 << 17)
    with pytest.raises(BudgetRefusal) as exc:
        naf_bruteforce(inst)
    assert str(1 << 34) in str(exc.value)  # the refusal states its arithmetic
    monkeypatch.setattr(cryptanalysis, "BRUTE_PAIR_BUDGET", 49)
    assert naf_bruteforce(planted(upper, lower, 1, 1, 7, 7)) is not None
    with pytest.raises(BudgetRefusal, match="over the budget of 49"):
        naf_bruteforce(planted(upper, lower, 1, 1, 7, 8))


def test_mitm_budget_refusal(monkeypatch):
    upper, lower = shift_pair(7)
    inst = NafInstance(upper, lower, unit_element(2, 7), 4, 1 << 23)
    with pytest.raises(BudgetRefusal):
        naf_mitm(inst)
    monkeypatch.setattr(cryptanalysis, "MITM_TABLE_BUDGET", 7)
    assert naf_mitm(planted(upper, lower, 1, 1, 7, 7)) is not None


def test_mitm_refuses_a_left_bound_over_the_pair_budget():
    # at 2^64 the probe walk's `repeat(p, bound_left)` raised OverflowError
    # (Python int too large to convert to C ssize_t), planted x = 3 or not
    upper, lower = shift_pair(4294967291)
    with pytest.raises(BudgetRefusal, match=f"over the budget of {BRUTE_PAIR_BUDGET}$"):
        naf_mitm(planted(upper, lower, 3, 2, 1 << 64, 4))
    # the table's refusal comes first, so its text is unchanged
    with pytest.raises(BudgetRefusal, match=f"over the budget of {MITM_TABLE_BUDGET}$"):
        naf_mitm(planted(upper, lower, 3, 2, 1 << 64, MITM_TABLE_BUDGET + 1))


def test_mitm_solves_at_a_left_bound_of_the_pair_budget():
    upper, lower = shift_pair(4294967291)
    sol = naf_mitm(planted(upper, lower, 3, 2, BRUTE_PAIR_BUDGET, 4))
    assert (sol.left_scalar, sol.right_scalar, sol.ops) == (3, 2, 4 + 3 + 1)


# (arguments from the shift pair mod 7 and a product g, message); each
# built, and failed only inside nai_via_naf, before NaiInstance checked
NAI_REFUSALS = {
    "float-bound": (lambda u, l, g: (u, l, g, g, 4.0, 4), "bound_left must be an int, not float"),
    "bool-bound": (lambda u, l, g: (u, l, g, g, 4, True), "bound_right must be an int, not bool"),
    "zero-bound": (lambda u, l, g: (u, l, g, g, 4, 0), "search bounds must be >= 1"),
    "commuting": (lambda u, l, g: (u, u, g, g, 4, 4), "generators must not commute"),
    "dimension": (lambda u, l, g: (u, l, g, unit_element(3, 7), 4, 4),
                  "generators and products must share dimension and a prime modulus"),
    "modulus": (lambda u, l, g: (u, l, unit_element(2, 11), g, 4, 4),
                "generators and products must share dimension and a prime modulus"),
    "composite": (lambda u, l, g: (*shift_pair(15), unit_element(2, 15), unit_element(2, 15), 4, 4),
                  "generators and products must share dimension and a prime modulus"),
}


@pytest.mark.parametrize("case", NAI_REFUSALS)
def test_nai_instance_validation(case):
    upper, lower = shift_pair(7)
    product = group_mul(exp_scaled(1, upper), exp_scaled(2, lower))
    arguments, message = NAI_REFUSALS[case]
    with pytest.raises(ParameterError) as e:
        NaiInstance(*arguments(upper, lower, product))
    assert str(e.value) == message


def test_nai_known_toy_instance():
    # (a,b,c,d) = (1,2,3,4): the answer is exp(4*L)*exp(6*R) = [[4,4],[6,1]] mod 7
    upper, lower = shift_pair(7)
    inst = NaiInstance(
        upper,
        lower,
        group_mul(exp_scaled(1, upper), exp_scaled(2, lower)),
        group_mul(exp_scaled(3, upper), exp_scaled(4, lower)),
        7,
        7,
    )
    for solver in (naf_bruteforce, naf_mitm):
        out = nai_via_naf(inst, solver)
        assert out.rows == ((4, 4), (6, 1))


def test_nai_identity_insertion():
    upper, lower = shift_pair(7)
    delta_one = group_mul(exp_scaled(2, upper), exp_scaled(3, lower))
    inst = NaiInstance(upper, lower, delta_one, unit_element(2, 7), 7, 7)
    assert nai_via_naf(inst, naf_bruteforce) == delta_one


def test_nai_fails_when_factoring_fails():
    p = 5
    upper, lower = shift_pair(p)
    delta_one = group_mul(exp_scaled(1, upper), exp_scaled(1, lower))
    inst = NaiInstance(upper, lower, delta_one, delta_one, 2, 1)  # y=1 out of bounds
    assert nai_via_naf(inst, naf_bruteforce) is None


def test_sweep_grid_shape_and_success():
    rows = hardness_sweep(2, [8, 10], [4, 6, 8], RngHandle(SEED))
    assert len(rows) == 2 * 3 * 2
    assert all(row.found == "yes" for row in rows)
    assert all(row.ops > 0 for row in rows)


def test_sweep_costs_monotone_along_both_axes():
    rows = hardness_sweep(2, [8, 12, 16], [4, 8, 12], RngHandle(SEED))
    by_key = {(r.solver, r.p_bits, r.bound_bits): r.ops for r in rows}
    for solver in solvers():
        for p_bits in (8, 12, 16):
            ops = [by_key[(solver, p_bits, b)] for b in (4, 8, 12)]
            assert ops == sorted(ops)
        for b in (4, 8, 12):
            ops = [by_key[(solver, p_bits, b)] for p_bits in (8, 12, 16)]
            assert ops == sorted(ops)


def test_sweep_records_refusals(monkeypatch):
    monkeypatch.setattr(cryptanalysis, "BRUTE_PAIR_BUDGET", 1 << 10)
    monkeypatch.setattr(cryptanalysis, "MITM_TABLE_BUDGET", 1 << 10)
    rows = hardness_sweep(2, [16], [8, 16], RngHandle(SEED))
    brute = {r.bound_bits: r for r in rows if r.solver == "brute"}
    mitm = {r.bound_bits: r for r in rows if r.solver == "mitm"}
    assert brute[8].found == "yes"  # 2^8 pairs within 2^10
    assert brute[16].found == "refused"
    assert mitm[8].found == "yes" and mitm[16].found == "yes"  # tables of 2^4, 2^8


def test_sweep_validates_grid():
    with pytest.raises(ParameterError):
        hardness_sweep(2, [8], [7], RngHandle(SEED))  # odd bound_bits
    with pytest.raises(ParameterError):
        hardness_sweep(2, [8], [16], RngHandle(SEED))  # 2^8 scalars in 8-bit prime


@pytest.mark.parametrize("p_bits", [[-5], [0], [2], [8, 0]])
def test_sweep_refuses_a_prime_below_3_bits_before_sampling(monkeypatch, p_bits):
    # the size check comes before the plant check and before any draw
    monkeypatch.setattr(cryptanalysis, "sample_prime", None)
    rng = RngHandle(SEED)
    with pytest.raises(ParameterError, match=r"^prime bit length must be >= 3$"):
        hardness_sweep(2, p_bits, [2], rng)
    assert rng.take(8) == RngHandle(SEED).take(8)


@pytest.mark.parametrize("p_bits, bound_bits", [([16], []), ([], [8]), ([], [])])
def test_sweep_refuses_an_empty_grid_before_sampling(monkeypatch, p_bits, bound_bits):
    # an empty bound list raised a bare ValueError from max(); an empty prime
    # list drew both master scalars and returned no rows
    monkeypatch.setattr(cryptanalysis, "sample_prime", None)
    rng = RngHandle(SEED)
    with pytest.raises(ParameterError, match="at least one prime size and one bound size"):
        hardness_sweep(3, p_bits, bound_bits, rng)
    assert rng.take(8) == RngHandle(SEED).take(8)


@pytest.mark.parametrize("n", [1, 0, -3])
def test_sweep_refuses_rank_below_2_before_sampling(monkeypatch, n):
    # the rank check comes after the grid checks and before any draw
    monkeypatch.setattr(cryptanalysis, "sample_prime", None)
    rng = RngHandle(SEED)
    with pytest.raises(ParameterError, match=r"^nilpotent sampling needs n >= 2$"):
        hardness_sweep(n, [2048], [2], rng)
    with pytest.raises(ParameterError, match=r"^prime bit length must be >= 3$"):
        hardness_sweep(n, [2], [2], rng)
    assert rng.take(8) == RngHandle(SEED).take(8)


@pytest.mark.parametrize("n, p_bits, least", [(5, [3], 5), (7, [3], 5), (11, [8, 4], 11), (16, [4], 11)])
def test_sweep_refuses_a_prime_size_not_above_n_before_sampling(monkeypatch, n, p_bits, least):
    # exp needs p > n; a prime size whose smallest prime is <= n failed only
    # for the seeds that drew such a prime, after a prime and matrices were drawn
    monkeypatch.setattr(cryptanalysis, "sample_prime", None)
    rng = RngHandle(SEED)
    with pytest.raises(ParameterError, match=(
        rf"^the smallest {p_bits[-1]}-bit prime is {least}, but p must exceed n={n} "
        r"so factorial inverses exist$"
    )):
        hardness_sweep(n, p_bits, [2], rng)
    assert rng.take(8) == RngHandle(SEED).take(8)


def test_sweep_takes_a_3_bit_prime():
    # sample_prime's floor is a sweep's too: 3 bits is the smallest it
    # accepts; its primes are 5 and 7, so n = 4 is the largest rank they serve
    for n in (2, 4):
        rows = hardness_sweep(n, [3], [2], RngHandle(SEED))
        assert [(row.n, row.p_bits, row.found) for row in rows] == [(n, 3, "yes"), (n, 3, "yes")]


def test_sweep_plants_scalars_up_to_one_bit_below_the_prime():
    # scalars of p_bits - 1 bits fit below every p_bits-bit prime; p_bits bits do not
    rows = hardness_sweep(2, [5], [8], RngHandle(SEED))
    assert [row.found for row in rows] == ["yes", "yes"]
    with pytest.raises(ParameterError, match=r"^bound of 2\^5 per scalar cannot be planted"):
        hardness_sweep(2, [5], [10], RngHandle(SEED))


def test_sweep_millis_is_a_duration_within_the_call():
    start = time.perf_counter()
    rows = hardness_sweep(2, [8], [4, 6], RngHandle(SEED))
    wall = (time.perf_counter() - start) * 1000.0
    assert all(0 <= row.millis <= wall for row in rows)
    assert sum(row.millis for row in rows) <= wall



def test_sweep_csv_format():
    rows = hardness_sweep(2, [8], [4], RngHandle(SEED))
    text = sweep_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "8" and first[2] == "4"
    assert first[3] in solvers() and first[6] == "yes"


def test_sweep_csv_has_one_value_per_field(monkeypatch):
    names = [field.name for field in dataclasses.fields(SweepRow)]
    assert SWEEP_CSV_HEADER == ",".join(names)
    monkeypatch.setattr(cryptanalysis, "BRUTE_PAIR_BUDGET", 16)
    monkeypatch.setattr(cryptanalysis, "MITM_TABLE_BUDGET", 4)
    rows = hardness_sweep(2, [8], [4, 6], RngHandle(SEED))  # the 6-bit cells are refused
    assert [row.found for row in rows] == ["yes", "yes", "refused", "refused"]
    lines = sweep_csv(rows).splitlines()
    assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        values = {**dataclasses.asdict(row), "millis": f"{row.millis:.3f}"}
        assert line.split(",") == [str(values[name]) for name in names]


def test_kat_records_the_sweep_rows_without_millis(monkeypatch):
    swept = []

    def recorded(*args):
        swept.extend(hardness_sweep(*args))
        return swept

    monkeypatch.setattr(cli, "hardness_sweep", recorded)
    record = json.loads(cli.build_kat_bundle("toy", PIN_SEED).splitlines()[-1])
    assert record["op"] == "hardness_sweep" and len(swept) == 4
    assert record["rows"] == [
        [value for name, value in dataclasses.asdict(row).items() if name != "millis"]
        for row in swept
    ]


def test_sweep_deterministic_given_seed():
    a = hardness_sweep(2, [8], [4, 6], RngHandle(SEED))
    b = hardness_sweep(2, [8], [4, 6], RngHandle(SEED))
    assert [(r.solver, r.ops, r.found) for r in a] == [(r.solver, r.ops, r.found) for r in b]
