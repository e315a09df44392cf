"""Tests for character tables, P-polynomial recognition, expressibility,
and generic elements."""

import dataclasses
from fractions import Fraction

import pytest
from conftest import gauss_period_hits, parse_poly

from schemealg.errors import InternalInvariantViolation, NotExpressible
from schemealg.exactmath import RealRoot, UniPoly, real_roots
from schemealg.analysis import (
    character_table,
    check_p_polynomial,
    express_in_terms_of,
    find_generic_element,
    minimal_generating_sets,
    variety_points,
    _points_from_generic,
)
from schemealg.scheme import IntersectionTensor, Scheme, orbit_scheme, scheme_from_relations
from schemealg.structure_ideal import structure_basis


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
    # (25, 4) fails every lex conversion, so its points come from a generic
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


def test_trivial_scheme():
    s = scheme_from_relations([[0]])
    ct = character_table(s)
    assert _values(ct.P) == [[1]]
    assert _values(ct.Q) == [[1]]
    rep = check_p_polynomial(s)
    assert rep.is_p_polynomial
    assert minimal_generating_sets(s) == ((),)


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


# x1^2 = 0: a tensor that never went through validate, whose one class is
# nilpotent, so every eliminant in x1 has a double root
NILPOTENT = Scheme(IntersectionTensor((((1, 0), (0, 1)), ((0, 1), (0, 0)))))


def test_p_polynomial_reports_a_non_squarefree_eliminant():
    rep = check_p_polynomial(NILPOTENT)
    assert not rep.is_p_polynomial
    assert rep.diagnostics == {1: "eliminant is not squarefree"}


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
    with pytest.raises(InternalInvariantViolation, match="has a repeated eigenvalue"):
        find_generic_element(NILPOTENT)


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
    pts = _points_from_generic(sb, ge)
    assert _same_point_sets(pts, variety_points(sb))
