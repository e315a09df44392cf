"""Tests for character tables, P-polynomial recognition, expressibility,
and generic elements."""

import collections
import dataclasses
import functools
import itertools
import json
import math
import random
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

import pytest
from conftest import (
    distinct_orbit_tensors,
    gauss_period_hits,
    hamming,
    johnson,
    parse_poly,
    random_tensor,
    two_class_tensors,
)

from schemealg.errors import (
    AttemptsExhausted,
    InternalInvariantViolation,
    NotCommutative,
    NotConstantIntersectionNumber,
    NotExpressible,
    NotTriangularEnough,
    SchemeAlgError,
    SearchTooLarge,
)
from schemealg.exactmath import Interval, QMatrix, RealRoot, UniPoly, real_roots
from schemealg.analysis import (
    ORTHOGONALITY_WIDTH,
    CharacterTable,
    PPolyReport,
    character_table,
    check_p_polynomial,
    express_in_terms_of,
    find_generic_element,
    minimal_generating_sets,
    variety_points,
    _closure_size,
    _combined_columns,
    _compare_points,
    _generates,
    _generic_element,
    _multiplicity,
    _points_from_generic,
    _shape_basis,
    _shape_lemma,
    _sparse_columns,
    _trace_sums_vanish,
    _unsolved_classes,
)
from schemealg.scheme import (
    IntersectionTensor,
    Scheme,
    intersection_matrix,
    orbit_scheme,
    scheme_from_relations,
)
from schemealg.fglm import (
    _power_walk,
    _SolveContext,
    fglm_convert,
    fglm_from_matrices,
    shape_forms,
    solve_triangular,
)
from schemealg.polyring import MonomialOrder
from schemealg.structure_ideal import multiplication_matrix, structure_basis


def _values(rows):
    return [[c.value for c in row] for row in rows]


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------


def test_ex1_character_table(ex1_scheme):
    ct = character_table(ex1_scheme)
    assert _values(ct.P) == [[1, 6, 2], [1, 0, -1], [1, -3, 2]]
    # this scheme is formally self-dual: P^2 = 9I
    assert _values(ct.Q) == _values(ct.P)
    assert ct.check_orthogonality()


def test_ex2_character_table(ex2_scheme):
    ct = character_table(ex2_scheme)
    assert _values(ct.P) == [
        [1, 4, 2, 1],
        [1, 0, 0, -1],
        [1, 0, -2, 1],
        [1, -4, 2, 1],
    ]
    assert ct.check_orthogonality()


def test_hamming_character_table(hamming_scheme):
    ct = character_table(hamming_scheme)
    assert _values(ct.P) == [
        [1, 3, 3, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -3, 3, -1],
    ]
    assert ct.check_orthogonality()


def test_relabeled_ex1_matches_by_column_permutation(ex1_scheme):
    # swapping the two classes permutes P's columns and re-sorts its rows
    ct = character_table(ex1_scheme.relabel((0, 2, 1)))
    assert _values(ct.P) == [[1, 2, 6], [1, 2, -3], [1, -1, 0]]


def test_prime_power_character_table_takes_the_generic_fallback(monkeypatch):
    # no lex basis of (25, 4) solves, so its points come from a generic
    # element; its valency row comes from a rational eliminant root.
    from schemealg import analysis

    s = orbit_scheme(25, 4)
    calls = []

    def recorded(*args):
        calls.append(args)
        return _points_from_generic(*args)

    monkeypatch.setattr(analysis, "_points_from_generic", recorded)
    ct = character_table(s)
    assert len(calls) == 1
    # character a lands on row nu for exactly m_nu = Q[0][nu] values of a
    assert gauss_period_hits(s, ct) == [q.value for q in ct.Q[0]]


def test_pentagon_character_table_irrational():
    s = orbit_scheme(5, 4)
    ct = character_table(s)
    assert _values(ct.P)[0] == [1, 2, 2]
    golden = real_roots(UniPoly((-1, 1, 1)))  # roots of x^2 + x - 1
    assert ct.P[1][1].compare(golden[1]) == 0
    assert ct.P[1][2].compare(golden[0]) == 0
    assert ct.P[2][1].compare(golden[0]) == 0
    assert ct.P[2][2].compare(golden[1]) == 0
    # multiplicities are 2 and 2, and k_i = 2, so Q mirrors P here
    assert ct.Q[1][1].compare(ct.P[1][1]) == 0
    assert ct.check_orthogonality()


def _perturbed(ct, mu, i, value):
    P = [list(row) for row in ct.P]
    P[mu][i] = value
    return dataclasses.replace(ct, P=tuple(tuple(row) for row in P))


def test_orthogonality_rejects_a_perturbed_rational_entry(ex1_scheme):
    ct = character_table(ex1_scheme)
    assert ct.check_orthogonality()
    bad = _perturbed(ct, 1, 1, RealRoot.rational(Fraction(1, 10**30)))
    assert bad.check_orthogonality() is False


def test_orthogonality_rejects_a_perturbed_irrational_entry():
    ct = character_table(orbit_scheme(5, 4))
    assert not ct.P[1][1].is_rational
    bad = _perturbed(ct, 1, 1, ct.P[1][1].scale(Fraction(10**12 + 1, 10**12)))
    assert bad.check_orthogonality() is False


# the chartab-irrational benchmark rungs: cycles, cyclotomic and prime-power
# orbit schemes (the last three take the generic-element fallback)
BENCHMARK_RUNGS = ((10, 9), (16, 15), (24, 23), (13, 5), (31, 5), (37, 10), (61, 3), (25, 4), (27, 8), (32, 7))


def _with_multiplicities(ct, mults):
    """The table with Q rebuilt from `mults`, as character_table builds it."""
    val = ct.scheme.valencies
    n = ct.size
    Q = tuple(tuple(ct.P[nu][i].scale(Fraction(mults[nu], val[i])) for nu in range(n)) for i in range(n))
    return dataclasses.replace(ct, Q=Q)


def test_trace_sums_agree_with_the_full_orthogonality_check_on_the_rungs():
    for m, r in BENCHMARK_RUNGS:
        ct = character_table(orbit_scheme(m, r))
        order = ct.scheme.order
        mults = [q.value for q in ct.Q[0]]
        assert _trace_sums_vanish(order, mults, ct.P) is True
        assert ct.check_orthogonality() is True
        # one multiplicity up, another down: the sum still is |X|
        shifted = [mults[0] + 1, mults[1] - 1, *mults[2:]]
        assert _trace_sums_vanish(order, shifted, ct.P) is False
        assert _with_multiplicities(ct, shifted).check_orthogonality() is False


@pytest.mark.parametrize("m, r", [(13, 5), (10, 9), (25, 4)])
def test_trace_sums_reject_shifted_multiplicities(m, r):
    ct = character_table(orbit_scheme(m, r))
    mults = [q.value for q in ct.Q[0]]
    n = ct.size
    for a, b in itertools.permutations(range(n), 2):
        shifted = list(mults)
        shifted[a] += 1
        shifted[b] -= 1
        assert _trace_sums_vanish(ct.scheme.order, shifted, ct.P) is False, (a, b)


@pytest.mark.parametrize("m, r", [(13, 5), (10, 9), (25, 4)])
def test_trace_sums_reject_two_swapped_rows(m, r):
    # rows of different multiplicities: the valency row (m_0 = 1) and the
    # first row whose multiplicity is not 1
    ct = character_table(orbit_scheme(m, r))
    mults = [q.value for q in ct.Q[0]]
    nu = next(i for i, x in enumerate(mults) if x != 1)
    P = list(ct.P)
    P[0], P[nu] = P[nu], P[0]
    assert _trace_sums_vanish(ct.scheme.order, mults, tuple(P)) is False


# The verdicts of _multiplicity, of the trace sums and of check_orthogonality
# compute on the integer endpoints of the values scaled by their common
# denominator.  Over seeded boxes around the rows of real tables (points,
# one-sided, straddling 0, shifted off the truth) each must answer exactly
# what its Interval/Fraction formula of before answers, error text included.


def _interval_sum(intervals):
    return functools.reduce(Interval.add, intervals, Interval.point(0))


def _interval_multiplicity(order, valencies, values):
    acc = _interval_sum(v.interval().power(2).scale(Fraction(1, k)) for v, k in zip(values, valencies))
    m_iv = acc.reciprocal().scale(order)
    lo, hi = math.ceil(m_iv.lo), math.floor(m_iv.hi)
    if lo > hi:
        raise InternalInvariantViolation(f"multiplicity in [{m_iv.lo}, {m_iv.hi}] is not an integer")
    return lo if lo == hi else None


def _interval_sums(pairs):
    """The verdict of _certify_sums over (Interval, target) pairs."""
    done = True
    for acc, target in pairs:
        if not acc.contains(target):
            return False
        done = done and acc.width < ORTHOGONALITY_WIDTH
    return True if done else None


def _verdict(monkeypatch, run):
    """The verdict that run() hands to refine_until, never asked there."""
    from schemealg import analysis

    verdicts = []
    monkeypatch.setattr(analysis, "refine_until", lambda values, verdict, layer: verdicts.append(verdict))
    run()
    return verdicts[0]


def _outcome(verdict, values):
    try:
        return verdict(values)
    except InternalInvariantViolation as e:
        return str(e)


def _boxed(rng, c, shift=0):
    """A RealRoot box around c's interval: c itself, or widened by random
    amounts on none, one or both sides, at times across 0, moved by shift."""
    def amount():
        return Fraction(rng.randint(0, 1000), rng.choice((1, 10, 2**20, 10**15, 2**70, 10**25)))

    kind = rng.randrange(5)
    lo, hi = c.low + shift, c.high + shift
    if kind == 0:
        return RealRoot(low=lo, high=hi) if shift else c
    if kind == 1:
        hi += amount()
    elif kind == 2:
        lo -= amount()
    elif kind == 3:
        lo, hi = lo - amount(), hi + amount()
    else:
        lo, hi = -abs(lo) - amount(), abs(hi) + amount()
    return RealRoot(low=lo, high=hi)


_BOX_TABLES = ((13, 5), (10, 9), (5, 4), (25, 4), (16, 15))


def _box_tables():
    """The tables, a rational one first, computed before the verdicts are
    captured."""
    return [character_table(hamming(3, 2))] + [character_table(orbit_scheme(m, r)) for m, r in _BOX_TABLES]


def test_integer_multiplicity_verdict_matches_the_interval_formula(monkeypatch):
    rng = random.Random(30)
    seen = collections.Counter()
    for ct in _box_tables():
        order, val = ct.scheme.order, ct.scheme.valencies
        verdict = _verdict(monkeypatch, lambda: _multiplicity(order, val, ct.P[0]))
        for row in ct.P:
            for _ in range(40):
                shift = rng.choice((0, 0, Fraction(1, 3), Fraction(-1, 2**50), Fraction(1, 10**9)))
                values = [row[0]] + [_boxed(rng, c, shift) for c in row[1:]]  # x_0 = 1 stays certified
                got = _outcome(verdict, values)
                assert got == _outcome(lambda v: _interval_multiplicity(order, val, v), values)
                seen[type(got).__name__] += 1
    assert min(seen["int"], seen["NoneType"], seen["str"]) >= 40, seen


def test_integer_trace_sum_verdict_matches_the_interval_formula(monkeypatch):
    rng = random.Random(31)
    seen = collections.Counter()
    tables = _box_tables()
    for ct in tables:
        order, n = ct.scheme.order, ct.size
        mults = [q.value for q in ct.Q[0]]
        for ms in (mults, [mults[0] + 1, mults[1] - 1, *mults[2:]], [-x for x in mults], [0, *mults[1:]]):
            verdict = _verdict(monkeypatch, lambda: _trace_sums_vanish(order, ms, ct.P))
            for _ in range(30):
                narrow = rng.random() < 0.4  # boxes narrow enough to decide True
                values = [RealRoot(low=c.low, high=c.high) if narrow else _boxed(rng, c) for row in ct.P for c in row]
                ivs = [v.interval() for v in values]
                want = _interval_sums(
                    (_interval_sum(ivs[nu * n + k].scale(m) for nu, m in enumerate(ms)), order if k == 0 else 0)
                    for k in range(n)
                )
                assert verdict(values) is want
                seen[want] += 1
    assert min(seen[True], seen[False], seen[None]) >= 20, seen
    # a sum exactly ORTHOGONALITY_WIDTH wide is undecided: T_1 of a rational
    # table with one entry widened by the width over its multiplicity
    ct = tables[0]
    mults = [q.value for q in ct.Q[0]]
    values = [c for row in ct.P for c in row]
    values[1] = RealRoot(low=values[1].low, high=values[1].high + ORTHOGONALITY_WIDTH / mults[0])
    verdict = _verdict(monkeypatch, lambda: _trace_sums_vanish(ct.scheme.order, mults, ct.P))
    assert verdict(values) is None
    values[1] = RealRoot(low=values[1].low, high=values[1].high - ORTHOGONALITY_WIDTH / 10)
    assert verdict(values) is True


def test_integer_orthogonality_verdict_matches_the_interval_formula(monkeypatch):
    rng = random.Random(32)
    seen = collections.Counter()
    tables = _box_tables()
    for ct in tables:
        v, n = ct.scheme.order, ct.size
        verdict = _verdict(monkeypatch, ct.check_orthogonality)
        for _ in range(30):
            kind = rng.randrange(3)  # the entries' own intervals, boxes around them, or moved off them
            shift = Fraction(rng.choice((1, -1)), 10**rng.randint(3, 12)) if kind == 2 else 0
            values = [
                _boxed(rng, c) if kind == 1 else RealRoot(low=c.low + shift, high=c.high + shift)
                for row in ct.P + ct.Q
                for c in row
            ]
            ivs = [x.interval() for x in values]
            want = _interval_sums(
                (_interval_sum(ivs[mu * n + k].mul(ivs[(n + k) * n + nu]) for k in range(n)), v if mu == nu else 0)
                for mu, nu in itertools.product(range(n), repeat=2)
            )
            assert verdict(values) is want
            seen[want] += 1
    assert min(seen[True], seen[False], seen[None]) >= 10, seen
    # entries exactly ORTHOGONALITY_WIDTH wide are undecided: a rational table
    # with Q[0][0] = 1 widened by the width, which every (P @ Q)[mu][0] meets
    # through P[mu][0] = 1
    ct = tables[0]
    n = ct.size
    verdict = _verdict(monkeypatch, ct.check_orthogonality)
    values = [c for row in ct.P + ct.Q for c in row]
    values[n * n] = RealRoot(low=1, high=1 + ORTHOGONALITY_WIDTH)
    assert verdict(values) is None
    values[n * n] = RealRoot(low=1, high=1 + ORTHOGONALITY_WIDTH / 2)
    assert verdict(values) is True


def test_character_table_certifies_orthogonality_by_trace_sums(monkeypatch):
    # the full P @ Q check stays public but is not what character_table runs
    def must_not_run(self):
        raise AssertionError("check_orthogonality ran")

    monkeypatch.setattr(CharacterTable, "check_orthogonality", must_not_run)
    ct = character_table(orbit_scheme(13, 5))
    assert [q.value for q in ct.Q[0]] == [1, 4, 4, 4]


@pytest.mark.parametrize("m, r", [(13, 5), (10, 9), (25, 4)])
def test_trace_sums_reject_multiplicities_with_the_wrong_total(m, r):
    # P[nu][0] = 1, so T_0 is the point sum_nu m_nu: the k = 0 sum is the
    # check that the multiplicities add up to |X|.  Doubled multiplicities
    # keep T_k = 0 for k >= 1, so only that sum rejects them.
    ct = character_table(orbit_scheme(m, r))
    mults = [q.value for q in ct.Q[0]]
    assert sum(mults) == ct.scheme.order
    assert _trace_sums_vanish(ct.scheme.order, [mults[0] + 1, *mults[1:]], ct.P) is False
    assert _trace_sums_vanish(ct.scheme.order, [2 * x for x in mults], ct.P) is False


def test_character_table_rejects_multiplicities_with_the_wrong_total(monkeypatch):
    from schemealg import analysis

    multiplicity = analysis._multiplicity

    def doubled(*args):
        # they sum to 2|X|, and T_k = 0 for k >= 1 still
        return 2 * multiplicity(*args)

    monkeypatch.setattr(analysis, "_multiplicity", doubled)
    with pytest.raises(InternalInvariantViolation, match="^P and Q fail the orthogonality certificate$"):
        character_table(orbit_scheme(13, 5))


@pytest.mark.parametrize("m, r", [(24, 23), (32, 7)])
def test_rows_sort_with_one_compare_per_coordinate(m, r, monkeypatch):
    # the tuple key calls __eq__ and then __lt__ on the first coordinate that
    # differs, so it runs RealRoot.compare twice there; it skips coordinates
    # that are one object, which the generic path of (32, 7) shares
    pts = variety_points(structure_basis(orbit_scheme(m, r)))
    compare, calls = RealRoot.compare, []

    def counted(self, other):
        calls.append(other)
        return compare(self, other)

    monkeypatch.setattr(RealRoot, "compare", counted)
    by_tuple = sorted(pts, key=lambda pt: pt.coordinates, reverse=True)
    tuple_calls = len(calls)
    calls.clear()
    by_first_difference = sorted(pts, key=cmp_to_key(_compare_points), reverse=True)
    assert 0 < len(calls) < tuple_calls, (len(calls), tuple_calls)
    assert all(a is b for a, b in zip(by_first_difference, by_tuple, strict=True))


@pytest.mark.parametrize("m, r, pairs, irrational", [(24, 23, 3, 52), (61, 3, 1, 36), (32, 7, 3, 12), (13, 5, 1, 9)])
def test_q_entries_are_the_scaled_p_entries(m, r, pairs, irrational, monkeypatch):
    # Q[i][nu] = m_nu P[nu][i] / k_i is RealRoot.scale of the P entry, value,
    # interval and witness; the witness of each distinct (witness, factor)
    # pair is scaled once per table, and the entries that share it share its
    # object
    calls = []
    scale_argument = UniPoly.scale_argument
    monkeypatch.setattr(UniPoly, "scale_argument", lambda p, c: calls.append((p.coeffs, c)) or scale_argument(p, c))
    s = orbit_scheme(m, r)
    table = character_table(s)
    monkeypatch.undo()
    mults = [q.value for q in table.Q[0]]  # Q[0][nu] = m_nu P[nu][0] / k_0 = m_nu
    shared = {}  # (witness, factor) -> the witness objects of its Q entries
    for i, k in enumerate(s.valencies):
        for nu, row in enumerate(table.P):
            got, want = table.Q[i][nu], row[i].scale(Fraction(mults[nu], k))
            assert (got.value, got.low, got.high, got.poly) == (want.value, want.low, want.high, want.poly)
            if not got.is_rational:
                shared.setdefault((row[i].poly.coeffs, Fraction(mults[nu], k)), set()).add(id(got.poly))
    assert sorted(calls) == sorted(shared)
    assert all(len(ids) == 1 for ids in shared.values())
    assert len(shared) == pairs
    assert sum(not q.is_rational for col in table.Q for q in col) == irrational


# Linear axioms hold and the tensor associates, but class 2 would be a perfect
# matching on 5 points: the multiplicities come out as 5/2 and 3/2.
NON_INTEGRAL_MULTIPLICITIES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (3, 1, 3), (0, 1, 0)),
    ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
)


def test_rational_table_with_non_integral_multiplicities_raises():
    s = Scheme(tensor=IntersectionTensor(NON_INTEGRAL_MULTIPLICITIES).validate())
    assert all(pt.is_rational() for pt in variety_points(structure_basis(s)))
    with pytest.raises(InternalInvariantViolation, match="multiplicity in \\[5/2, 5/2\\]"):
        character_table(s)


# The tensor of "srg(7,3,0,2)": it validates and associates, but the
# multiplicities are irrational, so the variety points are too.
IRRATIONAL_MULTIPLICITIES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (3, 0, 2), (0, 2, 1)),
    ((0, 0, 1), (0, 2, 1), (3, 1, 1)),
)


def test_irrational_table_with_non_integral_multiplicities_raises():
    s = Scheme(tensor=IntersectionTensor(IRRATIONAL_MULTIPLICITIES).validate())
    assert not all(pt.is_rational() for pt in variety_points(structure_basis(s)))
    with pytest.raises(InternalInvariantViolation, match="multiplicity in \\[.*\\] is not an integer"):
        character_table(s)


def test_trivial_scheme():
    s = scheme_from_relations([[0]])
    # the lex ladder has no class to try, so the point comes from the
    # generic element's eliminant x - 1
    (pt,) = variety_points(structure_basis(s))
    assert pt.rational_tuple() == (1,)
    ct = character_table(s)
    assert _values(ct.P) == [[1]]
    assert _values(ct.Q) == [[1]]
    rep = check_p_polynomial(s)
    assert rep.is_p_polynomial
    assert minimal_generating_sets(s) == ((),)
    # the generic element runs the general loop: x_0 is read off the power
    # walk of y = B_0 as 1, the root of y - 1
    ge = find_generic_element(s)
    assert ge.coefficients == (1,)
    assert ge.changes == ()
    assert ge.eliminant == UniPoly((-1, 1))
    assert ge.expressions == (UniPoly.constant(1),)


def test_variety_points_match_table_rows(hamming_scheme):
    sb = structure_basis(hamming_scheme)
    pts = variety_points(sb)
    assert len(pts) == 4
    ct = character_table(hamming_scheme)
    assert sorted(p.rational_tuple() for p in pts) == sorted(
        tuple(v) for v in _values(ct.P)
    )


# ---------------------------------------------------------------------------
# P-polynomial recognition
# ---------------------------------------------------------------------------


def test_ex1_is_p_polynomial(ex1_scheme):
    rep = check_p_polynomial(ex1_scheme)
    assert rep.is_p_polynomial
    assert rep.generator_variable == 1
    assert rep.distance_relabeling == (0, 1, 2)
    assert rep.eliminant.coeffs == (0, -18, -3, 1)  # x^3 - 3x^2 - 18x
    assert rep.witness_basis is not None


def test_ex2_is_not_p_polynomial(ex2_scheme):
    rep = check_p_polynomial(ex2_scheme)
    assert not rep.is_p_polynomial
    assert rep.generator_variable is None
    assert set(rep.diagnostics) == {1, 2, 3}
    assert "degree 3" in rep.diagnostics[1]
    assert "degree 3" in rep.diagnostics[2]
    assert "degree 2" in rep.diagnostics[3]


def test_hamming_is_p_polynomial(hamming_scheme):
    rep = check_p_polynomial(hamming_scheme)
    assert rep.is_p_polynomial
    assert rep.generator_variable == 1
    assert rep.distance_relabeling == (0, 1, 2, 3)
    assert rep.eliminant.degree == 4


def test_k3_is_p_polynomial(k3_scheme):
    rep = check_p_polynomial(k3_scheme)
    assert rep.is_p_polynomial
    assert rep.generator_variable == 1
    assert rep.distance_relabeling == (0, 1)


def test_p_polynomial_verdict_survives_relabeling(ex1_scheme, hamming_scheme):
    rep = check_p_polynomial(ex1_scheme.relabel((0, 2, 1)))
    assert rep.is_p_polynomial
    assert rep.generator_variable == 2
    assert rep.distance_relabeling == (0, 2, 1)
    rep = check_p_polynomial(hamming_scheme.relabel((0, 3, 2, 1)))
    assert rep.is_p_polynomial
    assert rep.generator_variable == 3
    assert rep.distance_relabeling == (0, 3, 2, 1)


def _moved_hamming(n):
    """H(n, 2) with its distance-1 class moved to the last label."""
    return hamming(n, 2).relabel((0, n, *range(1, n)))


def _lex_ppoly_report(s):
    """The P-polynomial test by one lex conversion per class, read back by
    `shape_forms`: the reference for the power walks of `check_p_polynomial`."""
    d = s.d
    sb = structure_basis(s)
    diagnostics = {}
    for i in range(1, d + 1):
        rgb = fglm_convert(sb, MonomialOrder.lex_smallest(d + 1, i))
        elim, exprs = shape_forms(rgb, i)
        if elim.degree != d + 1:
            diagnostics[i] = (
                f"eliminant degree {elim.degree} < {d + 1}: not every class is a polynomial in class {i}"
            )
            continue
        degs = sorted(exprs[j].degree for j in range(1, d + 1) if j != i)
        if degs != list(range(2, d + 1)):
            diagnostics[i] = f"polynomial degrees {degs} are not one of each degree 2..{d}"
            continue
        sigma = tuple(0 if j == 0 else 1 if j == i else exprs[j].degree for j in range(d + 1))
        return PPolyReport(True, i, sigma, rgb, diagnostics, elim)
    return PPolyReport(False, None, None, None, diagnostics)


def test_p_polynomial_walks_match_the_lex_conversions(monkeypatch):
    # every field of the report, the witness basis with its normal set and
    # order among them, is what one lex conversion per class gives; the walks
    # run no conversion and build no dense matrix, take one power walk per
    # class tried and write one basis, for the class returned
    from schemealg import analysis, fglm

    schemes = distinct_orbit_tensors(40) + [_moved_hamming(n) for n in (3, 4, 5)]
    expected = [_lex_ppoly_report(s) for s in schemes]
    assert sum(rep.is_p_polynomial for rep in expected) > 1
    assert any(rep.generator_variable not in (None, 1) for rep in expected)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_p_polynomial ran a conversion or built a dense matrix")

    walks, bases = [], []

    def counted(calls, f):
        def wrapper(*args):
            calls.append(args)
            return f(*args)

        return wrapper

    monkeypatch.setattr(analysis, "fglm_convert", forbidden)
    monkeypatch.setattr(fglm, "fglm_from_matrices", forbidden)
    monkeypatch.setattr(QMatrix, "__init__", forbidden)
    monkeypatch.setattr(analysis, "_power_walk", counted(walks, _power_walk))
    monkeypatch.setattr(analysis, "_shape_basis", counted(bases, _shape_basis))
    for s, ref in zip(schemes, expected):
        walks.clear()
        bases.clear()
        assert check_p_polynomial(s) == ref, s.tensor.p
        assert len(walks) == (ref.generator_variable or s.d), s.tensor.p
        assert [args[2] for args in bases] == ([ref.generator_variable] if ref.is_p_polynomial else [])
    walks.clear()
    s = orbit_scheme(31, 5)
    assert not check_p_polynomial(s).is_p_polynomial
    assert len(walks) == s.d == 5


def _bfs_distance_class(s):
    """(i, distances) for the first class i from which a breadth-first search
    over the classes, stepping j -> k wherever p_ij^k != 0, puts exactly one
    class at each distance from class 0 and reaches every class; None if no
    class does.  Such an i is a distance-1 class, B_k a polynomial of degree
    dist(k) in B_i."""
    p = s.tensor.p
    n = len(p)
    for i in range(1, n):
        dist = {0: 0}
        layer = [0]
        while len(layer) == 1:
            j = layer[0]
            layer = sorted({k for k in range(n) if p[i][j][k] and k not in dist})
            for k in layer:
                dist[k] = dist[j] + 1
        if not layer and len(dist) == n:
            return i, tuple(dist[k] for k in range(n))
    return None


def test_p_polynomial_verdict_matches_the_breadth_first_distances():
    # an oracle read off the tensor alone: the generator is the first class
    # whose breadth-first layers are single classes, and the relabeling is
    # the layer of each class
    schemes = distinct_orbit_tensors(40) + [_xor_scheme(n) for n in range(2, 6)]
    schemes += [_moved_hamming(n) for n in (3, 4, 5)]
    metric = 0
    for s in schemes:
        rep = check_p_polynomial(s)
        oracle = _bfs_distance_class(s)
        assert rep.is_p_polynomial == (oracle is not None), s.tensor.p
        if oracle is not None:
            metric += 1
            assert (rep.generator_variable, rep.distance_relabeling) == oracle, s.tensor.p
    assert 0 < metric < len(schemes)


# ---------------------------------------------------------------------------
# tensors that are not schemes, and eliminants of those that are
# ---------------------------------------------------------------------------


# x1^2 = 0: class 1 is nilpotent, with valency 0, eliminant x^2 and the
# single eigenvalue 0, repeated
NILPOTENT = (((1, 0), (0, 1)), ((0, 1), (0, 0)))


@pytest.mark.parametrize(
    "p, error, message",
    [
        (NILPOTENT, NotConstantIntersectionNumber, r"invalid valencies \(1, 0\)"),
        ((((1, 0), (0, 1)), ((0, 1), (2,))), NotConstantIntersectionNumber, "tensor is not cubical"),
        ((((1, 0), (3, -1)), ((0, -1), (0, -1))), NotCommutative, r"p_01\^0 = 3 but p_10\^0 = 0"),
        # bool is an int subclass, and a tensor must be tuples of tuples of tuples
        ((((True,),),), NotConstantIntersectionNumber, r"p_00\^0 = True is not a nonnegative integer"),
        (5, NotConstantIntersectionNumber, "tensor is not a tuple of tuples of tuples"),
        (((1,),), NotConstantIntersectionNumber, "tensor is not a tuple of tuples of tuples"),
        ([[[1]]], NotConstantIntersectionNumber, "tensor is not a tuple of tuples of tuples"),
    ],
    ids=["nilpotent", "ragged", "noncommutative", "bool", "int", "two-deep", "lists"],
)
def test_tensor_failing_the_axioms_is_rejected_at_construction(p, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        IntersectionTensor(p)


def test_p_polynomial_reports_a_non_squarefree_eliminant():
    # only a tensor that fails the axioms has a non-squarefree eliminant, and
    # it is reported by the typed error of its construction
    with pytest.raises(NotConstantIntersectionNumber, match=r"^invalid valencies \(1, 0\)$"):
        check_p_polynomial(Scheme(IntersectionTensor(NILPOTENT)))


def test_random_tensors_end_in_a_typed_error_or_a_result():
    rng = random.Random(17)
    analysed = 0
    for _ in range(3000):
        try:
            s = Scheme(IntersectionTensor(random_tensor(rng)))
        except SchemeAlgError:
            continue
        analysed += s.d >= 1
        for entry_point in (character_table, check_p_polynomial, minimal_generating_sets, find_generic_element):
            try:
                entry_point(s)
            except SchemeAlgError:
                pass
    assert analysed >= 40


def test_eliminants_of_schemes_are_squarefree_with_real_roots():
    # the argument in the structure_basis docstring, which lets
    # check_p_polynomial and the generic element skip a squarefree test
    family = []
    for p in two_class_tensors(8):
        try:
            family.append(structure_basis(Scheme(IntersectionTensor(p))))
        except InternalInvariantViolation:
            pass
    assert len(family) == 92
    for sb in family + [structure_basis(s) for s in distinct_orbit_tensors(24)]:
        nv = sb.nvars
        eliminants = [shape_forms(fglm_convert(sb, MonomialOrder.lex_smallest(nv, i)), i)[0] for i in range(1, nv)]
        eliminants.append(find_generic_element(sb.scheme).eliminant)
        for f in eliminants:
            assert f.is_squarefree()
            assert len(real_roots(f)) == f.degree
        assert len(variety_points(sb)) == nv


# ---------------------------------------------------------------------------
# expressibility
# ---------------------------------------------------------------------------


def test_express_ex1_in_class_1(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    exprs = express_in_terms_of(sb, [1])
    assert exprs[0] == parse_poly("1", 3)
    assert exprs[2] == parse_poly("1/6*x1^2 - 1/2*x1 - 1", 3)


def test_express_ex2_subsets(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    by12 = express_in_terms_of(sb, [1, 2])
    assert by12[3] == parse_poly("1/2*x2^2 - 1", 4)
    by13 = express_in_terms_of(sb, [1, 3])
    assert by13[2] == parse_poly("1/4*x1^2 - x3 - 1", 4)


def test_express_failures_name_first_class(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    with pytest.raises(NotExpressible) as info:
        express_in_terms_of(sb, [2, 3])
    assert info.value.variable == 1
    with pytest.raises(NotExpressible) as info:
        express_in_terms_of(sb, [2])
    assert info.value.variable == 1


def test_express_rejects_bad_subsets(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    with pytest.raises(ValueError):
        express_in_terms_of(sb, [])
    with pytest.raises(ValueError):
        express_in_terms_of(sb, [0, 1])
    with pytest.raises(ValueError):
        express_in_terms_of(sb, [5])


def test_minimal_generating_sets(ex1_scheme, ex2_scheme, hamming_scheme):
    assert minimal_generating_sets(ex1_scheme) == ((1,),)
    assert minimal_generating_sets(ex2_scheme) == ((1, 2), (1, 3))
    assert minimal_generating_sets(hamming_scheme) == ((1,),)


def _xor_scheme(n):
    """The regular scheme of (Z_2)^n: (x, y) is in class x XOR y."""
    return scheme_from_relations([[x ^ y for y in range(2**n)] for x in range(2**n)])


def test_mingen_skips_sizes_below_the_eigenvalue_bound(monkeypatch):
    # every class of (Z_2)^4 has the two eigenvalues +-1, so no set of
    # fewer than 4 classes can span the 16-dimensional algebra: only the
    # C(15, 4) = 1365 sets of size 4 are tried
    from schemealg import analysis

    tried = []

    def counted(columns, subset):
        tried.append(subset)
        return _generates(columns, subset)

    monkeypatch.setattr(analysis, "_generates", counted)
    assert len(minimal_generating_sets(_xor_scheme(4))) == 840
    assert len(tried) == 1365 and {len(c) for c in tried} == {4}


def test_mingen_over_the_candidate_limit_raises_before_trying_any(monkeypatch):
    # (Z_2)^5: sizes 1..4 are skipped by the bound, and size 5 has
    # C(31, 5) = 169911 candidates
    from schemealg import analysis

    def must_not_run(columns, subset):
        raise AssertionError("a candidate was tried")

    monkeypatch.setattr(analysis, "_generates", must_not_run)
    assert analysis.MAX_MINGEN_CANDIDATES == 10_000
    with pytest.raises(SearchTooLarge, match=r"C\(31, 5\) = 169911 class sets of size 5; the limit is 10000"):
        minimal_generating_sets(_xor_scheme(5))


def test_closure_size_of_one_class_counts_its_distinct_eigenvalues():
    schemes = _distinct_orbit_tensors(20, 10) + [hamming(4, 3), johnson(8, 3), _xor_scheme(3)]
    for s in schemes:
        sb = structure_basis(s)
        columns = _sparse_columns(sb)
        for i in range(1, s.d + 1):
            eigenvalues = real_roots(intersection_matrix(s, i).charpoly())
            assert _closure_size(columns, (i,)) == len(eigenvalues), (s.tensor.p, i)


def test_the_krylov_minimal_polynomial_is_the_squarefree_charpoly():
    # the spectra and moller_stetter_check take roots of this polynomial in
    # place of the charpoly: the same witness after real_roots' squarefree
    # reduction, and the same zero set
    schemes = distinct_orbit_tensors(24) + [hamming(4, 3), johnson(8, 3), _xor_scheme(3)]
    assert len(schemes) == 56
    for s in schemes:
        columns = _sparse_columns(structure_basis(s))
        for i in range(s.d + 1):
            mp = _power_walk(columns[i])[0]
            assert mp == intersection_matrix(s, i).charpoly().squarefree_part().primitive(), (s.tensor.p, i)
            assert mp.degree == _closure_size(columns, (i,)), (s.tensor.p, i)


def _distinct_orbit_tensors(max_m, max_d):
    tensors = {}
    for m in range(3, max_m + 1):
        for r in range(2, m):
            if gcd(m, r) == 1:
                s = orbit_scheme(m, r)
                if s.d <= max_d:
                    tensors.setdefault(s.tensor.p, s)
    return list(tensors.values())


def test_closure_verdict_agrees_with_express_on_every_subset():
    # `minimal_generating_sets` trusts the integer closure where the paper
    # reads expressibility off a block-lex FGLM conversion: the two must
    # agree on every class subset
    schemes = _distinct_orbit_tensors(30, 6)
    assert len(schemes) == 47
    schemes += [hamming(4, 3), johnson(8, 3)]
    subsets = 0
    for s in schemes:
        sb = structure_basis(s)
        columns = _sparse_columns(sb)
        for size in range(1, s.d + 1):
            for cand in itertools.combinations(range(1, s.d + 1), size):
                subsets += 1
                try:
                    express_in_terms_of(sb, cand)
                    expressible = True
                except NotExpressible:
                    expressible = False
                assert _generates(columns, cand) == expressible, (s.tensor.p, cand)
    assert subsets == 789


def test_every_class_matrix_sends_the_identity_to_its_class():
    # p_i0^k = delta_ik, so B_i e_0 = e_i and the full class set spans the
    # algebra in one round of the closure: `minimal_generating_sets` returns
    # it without a check when no smaller set generates
    schemes = _distinct_orbit_tensors(40, 20)
    assert len(schemes) == 122
    for s in schemes:
        n = s.d + 1
        for i in range(n):
            assert intersection_matrix(s, i).column(0) == tuple(int(k == i) for k in range(n))


def _separating_sets(s):
    """All smallest class sets whose columns of P separate the rows of P.

    The Bose-Mesner algebra is isomorphic to C^(d+1) through its characters
    (the rows of P), so a class set S generates it exactly when no two rows
    agree on every column in S (Bannai-Ito, Algebraic Combinatorics I, 2.2):
    S must meet every difference mask {i : P[nu][i] != P[mu][i]}.  The masks
    come from the certified character table, not from the closure that
    `minimal_generating_sets` runs.
    """
    P = character_table(s).P
    masks = [
        {i for i in range(1, s.d + 1) if P[nu][i].compare(P[mu][i])}
        for nu, mu in itertools.combinations(range(len(P)), 2)
    ]
    for size in range(1, s.d + 1):
        found = tuple(
            cand
            for cand in itertools.combinations(range(1, s.d + 1), size)
            if all(mask.intersection(cand) for mask in masks)
        )
        if found:
            return found


def test_minimal_generating_sets_are_the_smallest_separating_sets():
    schemes = _distinct_orbit_tensors(24, 24)
    assert len(schemes) == 53
    for s in schemes:
        assert minimal_generating_sets(s) == _separating_sets(s), s.tensor.p


def test_shape_forms_satisfy_the_structure_relations_modulo_the_eliminant():
    # An exact oracle in Q[t]/(f) for the two shape-lemma parametrizations:
    # if x_j = q_j(t) on every root of f, then every structure relation
    # x_a x_b = sum_k p_ab^k x_k holds as q_a q_b = sum_k p_ab^k q_k mod f.
    # One case is the lex basis of the first class i with dim Q[B_i] = d+1
    # (q_i = t), the other the generic element's eliminant and expressions.
    schemes = _distinct_orbit_tensors(24, 24)
    assert len(schemes) == 53
    separating = 0
    for s in schemes:
        sb, nv, p = structure_basis(s), s.d + 1, s.tensor.p
        columns = _sparse_columns(sb)
        cases = []
        i = next((i for i in range(1, nv) if _closure_size(columns, (i,)) == nv), None)
        if i is not None:
            separating += 1
            f, q = shape_forms(fglm_convert(sb, MonomialOrder.lex_smallest(nv, i)), i)
            q[i] = UniPoly.monomial(1)
            cases.append((f, [q[j] for j in range(nv)]))
        ge = find_generic_element(s)
        cases.append((ge.eliminant, list(ge.expressions)))
        for f, q in cases:
            assert f.degree == nv and q[0] == UniPoly.constant(1)
            for a in range(1, nv):
                for b in range(a, nv):
                    rhs = UniPoly()
                    for k, c in enumerate(p[a][b]):
                        if c:
                            rhs = rhs + q[k] * c
                    assert (q[a] * q[b]) % f == rhs % f, (p, a, b)
    assert separating == 43


# ROADMAP item 7's two facts about the lex ladder of `variety_points`, on the
# 53 distinct orbit tensors with m <= 24.  dim Q[B_i] is `_closure_size` of
# {i}, the number of distinct eigenvalues of B_i.


def test_a_separating_class_prints_what_the_generic_path_prints(tmp_path, capsys, monkeypatch):
    # (b): with dim Q[B_i] = d+1 the lex basis is in shape position, and its
    # points are the generic path's to the byte.  Tensors without such a
    # class are left out: (52, 3) prints differently on the generic path.
    from schemealg import analysis, cli

    def chartab_json(s):
        path = tmp_path / "tensor.json"
        path.write_text(json.dumps({"type": "tensor", "p": s.tensor.p}))
        assert cli.main(["chartab", str(path), "--format", "json"]) == 0
        return capsys.readouterr().out

    schemes = distinct_orbit_tensors(24)
    assert len(schemes) == 53
    separating = [
        s for s in schemes
        if any(_closure_size(_sparse_columns(structure_basis(s)), (i,)) == s.d + 1 for i in range(1, s.d + 1))
    ]
    assert len(separating) == 43
    lex = [chartab_json(s) for s in separating]
    calls = []

    def recorded(*args):
        calls.append(args)
        return _points_from_generic(*args)

    # no class solves, so every tensor is forced onto the generic element
    monkeypatch.setattr(analysis, "_lex_points", lambda ctx: None)
    monkeypatch.setattr(analysis, "_points_from_generic", recorded)
    for s, text in zip(separating, lex):
        assert chartab_json(s) == text, s.tensor.p
    assert len(calls) == len(separating)


def test_a_class_with_an_irrational_eigenvalue_that_does_not_separate_is_not_triangular():
    # (a): stage 0 puts an irrational root on the stack, so every later stage
    # needs a solved form; if all had one, Q[B_i] would be the whole algebra
    pairs = 0
    for s in distinct_orbit_tensors(24):
        sb, nv = structure_basis(s), s.d + 1
        columns = _sparse_columns(sb)
        for i in range(1, nv):
            irrational = any(not x.is_rational for x in real_roots(intersection_matrix(s, i).charpoly()))
            if irrational and _closure_size(columns, (i,)) < nv:
                pairs += 1
                with pytest.raises(NotTriangularEnough):
                    solve_triangular(fglm_convert(sb, MonomialOrder.lex_smallest(nv, i)), sb)
    assert pairs == 53


def _convert_every_class(sb):
    """The reference ladder: one lex conversion and `solve_triangular` per
    class i = 1..d, then the generic element."""
    ctx = _SolveContext(sb)
    for i in range(1, sb.nvars):
        try:
            return solve_triangular(fglm_convert(sb, MonomialOrder.lex_smallest(sb.nvars, i)), sb, _ctx=ctx)
        except NotTriangularEnough:
            continue
    return _points_from_generic(ctx, _generic_element(ctx.columns, rng_seed=0, max_coeff=10, max_attempts=32))


def _exact_coordinates(points):
    return [
        tuple(c.value if c.is_rational else (c.poly.coeffs, c.low, c.high) for c in pt.coordinates)
        for pt in points
    ]


def test_the_walk_first_ladder_finds_the_points_of_the_convert_every_class_ladder():
    # every coordinate, in order, is the reference ladder's: the same
    # rational value, or the same witness and isolating interval
    schemes = distinct_orbit_tensors(40)
    schemes += [hamming(n, 2) for n in range(2, 6)] + [_xor_scheme(n) for n in range(2, 6)]
    for s in schemes:
        sb = structure_basis(s)
        assert _exact_coordinates(variety_points(sb)) == _exact_coordinates(_convert_every_class(sb)), s.tensor.p


def test_the_ladder_converts_only_the_classes_with_a_rational_spectrum(monkeypatch):
    # no class of a prime-power rung separates; a class with an irrational
    # eigenvalue is skipped (fact (a)) and one with a rational spectrum is
    # converted, its stage walk failing too
    from schemealg import analysis

    smallest = []

    def recorded(sb, order):
        smallest.append(order.priority[-1])
        return fglm_convert(sb, order)

    monkeypatch.setattr(analysis, "fglm_convert", recorded)
    for (m, r), count in {(25, 4): 0, (27, 8): 1, (32, 7): 2}.items():
        s = orbit_scheme(m, r)
        rational = [
            i for i in range(1, s.d + 1)
            if all(x.is_rational for x in real_roots(intersection_matrix(s, i).charpoly()))
        ]
        assert len(rational) == count
        smallest.clear()
        variety_points(structure_basis(s))
        assert smallest == rational, (m, r)


# ---------------------------------------------------------------------------
# generic elements
# ---------------------------------------------------------------------------


def test_generic_element_k3(k3_scheme):
    ge = find_generic_element(k3_scheme)
    assert ge.changes == ()
    assert ge.coefficients == (0, 1)
    assert ge.eliminant.coeffs == (-2, -1, 1)  # x^2 - x - 2


def test_generic_element_ex1_needs_one_change(ex1_scheme):
    # class 2 alone has eigenvalues {2, -1} with 2 repeated, so the first
    # candidate fails and one weighted change must fix it
    ge = find_generic_element(ex1_scheme, rng_seed=0)
    assert len(ge.changes) == 1
    assert ge.changes[0][0] == 1
    assert ge.eliminant.degree == 3
    assert ge.eliminant.is_squarefree()
    roots = real_roots(ge.eliminant)
    points = set()
    for r in roots:
        assert r.is_rational
        points.add(tuple(e.evaluate(r.value) for e in ge.expressions))
    assert points == {(1, 6, 2), (1, 0, -1), (1, -3, 2)}


def test_generic_element_ex2(ex2_scheme):
    ge = find_generic_element(ex2_scheme, rng_seed=0)
    assert ge.changes == ((1, 7),)
    assert ge.coefficients == (0, 7, 0, 1)
    assert ge.eliminant.degree == 4
    assert ge.eliminant.is_squarefree()
    roots = real_roots(ge.eliminant)
    points = {tuple(e.evaluate(r.value) for e in ge.expressions) for r in roots}
    assert points == {(1, 4, 2, 1), (1, -4, 2, 1), (1, 0, 0, -1), (1, 0, -2, 1)}


def test_generic_element_rejects_a_repeated_eigenvalue():
    # a separating candidate with a repeated eigenvalue needs a tensor that
    # fails the axioms, and such a tensor is rejected at construction
    with pytest.raises(NotConstantIntersectionNumber, match=r"^invalid valencies \(1, 0\)$"):
        find_generic_element(Scheme(IntersectionTensor(NILPOTENT)))


# with seed 0, orbit (32, 7) separates only after these coordinate changes
ORBIT_32_7_CHANGES = ((1, 7), (2, 7), (1, 1), (4, 5))


@pytest.mark.parametrize("max_attempts", range(5))
def test_generic_element_spends_exactly_its_attempt_budget(monkeypatch, max_attempts):
    # one power walk for the first candidate, then one per coordinate change;
    # the separating candidate is read off its walk, with no conversion
    walks = []
    monkeypatch.setattr(
        "schemealg.analysis._power_walk",
        lambda ycols: walks.append(ycols) or _power_walk(ycols),
    )
    monkeypatch.setattr("schemealg.fglm.fglm_from_matrices", lambda *args: pytest.fail("converted"))
    s = orbit_scheme(32, 7)
    if max_attempts < len(ORBIT_32_7_CHANGES):
        message = f"^no separating combination found after {max_attempts} coordinate changes$"
        with pytest.raises(AttemptsExhausted, match=message):
            find_generic_element(s, max_attempts=max_attempts)
    else:
        assert find_generic_element(s, max_attempts=max_attempts).changes == ORBIT_32_7_CHANGES
    assert len(walks) == max_attempts + 1


def test_krylov_decision_matches_the_conversion_on_seeded_candidates():
    # the reference is the lex conversion of Q[x_0..x_{d-1}, y] with
    # y = sum_v lam_v B_v smallest: the classes `_unsolved_classes` reads off
    # the power walk of y are those with no solved form in it, and on a
    # separating y `_shape_lemma` reads its eliminant and solved forms (x_d's
    # form is y - sum_v lam_v q_v(y) mod f) and `_shape_basis` writes the
    # basis with y in x_d's slot; the last class alone,
    # then three seeded combinations, on every distinct tensor
    rng = random.Random(24)
    cases = separating = 0
    for s in distinct_orbit_tensors(24):
        sb = structure_basis(s)
        d = s.d
        columns = _sparse_columns(sb)
        mats = [multiplication_matrix(sb, i) for i in range(d + 1)]
        for t in range(4):
            lam = [0] * d + [1]
            if t:
                for v in rng.sample(range(d), rng.randint(1, d)):
                    lam[v] = rng.randint(0, 4)
            last = mats[d]
            for v in range(d):
                last = last + mats[v].scale(lam[v])
            rgb = fglm_from_matrices(mats[:d] + [last], MonomialOrder.lex(tuple(range(d + 1))))
            elim, exprs = shape_forms(rgb, d)
            missing = [j for j in range(d) if j not in exprs]
            f, echelon = _power_walk(_combined_columns(columns, lam))
            assert _unsolved_classes(echelon, d + 1) == missing, (s.tensor.p, lam)
            cases += 1
            if not missing:
                separating += 1
                x_d = UniPoly.monomial(1)
                for v in range(d):
                    x_d = x_d - exprs[v] * lam[v]
                expected = (elim, tuple(exprs[j] for j in range(d)) + (x_d % elim,))
                assert _shape_lemma(f, echelon) == expected, (s.tensor.p, lam)
                assert _shape_basis(*expected, d) == rgb, (s.tensor.p, lam)
    assert cases == 212
    assert 0 < separating < cases


def test_character_table_isolates_each_distinct_polynomial_once(monkeypatch):
    # on orbit (61, 3) the six classes share one minimal polynomial, which is
    # also the lex eliminant, and x - 1 is class 0's; the lex basis is in
    # shape position, so every coordinate, the valency point's 10 among them,
    # is read off a spectrum and no other polynomial is isolated
    s = orbit_scheme(61, 3)
    columns = _sparse_columns(structure_basis(s))
    minimal = {_power_walk(columns[i])[0].coeffs for i in range(s.d + 1)}
    assert minimal == {(-1, 1), _power_walk(columns[1])[0].coeffs}
    calls = []
    monkeypatch.setattr(
        "schemealg.fglm.real_roots",
        lambda p, *args: calls.append(p.primitive().coeffs) or real_roots(p, *args),
    )
    assert character_table(s).size == 7
    assert len(calls) == 2
    assert set(calls) == minimal


def test_character_table_refines_each_value_to_each_width_once(monkeypatch):
    # on the cycle (24, 23) the points share spectrum members, and every
    # certificate refines them to the same widths; the solve context's memo
    # hands back the refinement it made, so no (value, width) pair reaches
    # RealRoot.refine twice (without it, 168 calls made 40 distinct pairs)
    refine, seen = RealRoot.refine, []

    def counted(self, width):
        seen.append((self.value, self.low, self.high, self.poly and self.poly.coeffs, width))
        return refine(self, width)

    monkeypatch.setattr(RealRoot, "refine", counted)
    assert character_table(orbit_scheme(24, 23)).size == 13
    assert seen and len(set(seen)) == len(seen)


def test_generic_element_many_seeds_terminate(ex2_scheme):
    for seed in range(5):
        ge = find_generic_element(ex2_scheme, rng_seed=seed)
        assert ge.eliminant.degree == 4
        assert ge.eliminant.is_squarefree()


def _same_point_sets(a, b):
    if len(a) != len(b):
        return False
    used = set()
    for p in a:
        hit = None
        for i, q in enumerate(b):
            if i in used:
                continue
            if all(x.compare(y) == 0 for x, y in zip(p.coordinates, q.coordinates)):
                hit = i
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def test_generic_element_reproduces_pentagon_variety():
    s = orbit_scheme(5, 4)
    sb = structure_basis(s)
    ge = find_generic_element(s)
    assert ge.changes == ()
    pts = _points_from_generic(_SolveContext(sb), ge)
    assert _same_point_sets(pts, variety_points(sb))
