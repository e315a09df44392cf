"""Tests for the structure ideal: generators, multiplication matrices,
idempotent equations, and radicality."""

import random

import pytest
from conftest import parse_basis, random_tensor, two_class_tensors

from schemealg.errors import InternalInvariantViolation, NotConstantIntersectionNumber, SchemeAlgError
from schemealg.exactmath import QMatrix
from schemealg.polyring import Monomial, MonomialOrder, MPoly, PolyBasis, is_groebner, normal_form
from schemealg.scheme import IntersectionTensor, Scheme, intersection_matrices, orbit_scheme
from schemealg import polyring, structure_ideal
from schemealg.structure_ideal import (
    idempotent_equations,
    multiplication_matrix,
    structure_basis,
    verify_radical,
)

EX1_BASIS = [
    "x0 - 1",
    "x1^2 - 3*x1 - 6*x2 - 6",
    "x1*x2 - 2*x1",
    "x2^2 - x2 - 2",
]


def test_ex1_generators(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    assert set(sb.basis.generators) == set(parse_basis(EX1_BASIS, 3))


def test_ex1_normal_set(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    assert sb.normal_set == (
        Monomial((0, 0, 0)),
        Monomial((0, 1, 0)),
        Monomial((0, 0, 1)),
    )
    assert sb.quotient_dimension == 3
    assert sb.nvars == 3


@pytest.mark.parametrize("m,r", [(9, 2), (8, 3), (12, 5), (16, 7)])
def test_generator_count_and_leads(m, r):
    s = orbit_scheme(m, r)
    sb = structure_basis(s)
    d = s.d
    assert len(sb.basis.generators) == 1 + d * (d + 1) // 2
    nv = d + 1
    expected = {Monomial.variable(0, nv)}
    for i in range(1, nv):
        for j in range(i, nv):
            expected.add(Monomial.variable(i, nv).mul(Monomial.variable(j, nv)))
    assert set(sb.basis.leading_monomials()) == expected


def test_basis_is_groebner_and_reduced(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    ok, witness = is_groebner(sb.basis)
    assert ok and witness is None
    # reduced: no term of any generator lies in the ideal of the other leads
    leads = set(sb.basis.leading_monomials())
    for g in sb.basis:
        lead = g.leading_monomial(sb.basis.order)
        for m in g.terms:
            if m != lead:
                assert not any(lt.divides(m) for lt in leads)


def test_multiplication_matrices_match_intersection_matrices(ex1_scheme, ex2_scheme, k3_scheme):
    for s in (ex1_scheme, ex2_scheme, k3_scheme):
        sb = structure_basis(s)
        mats = intersection_matrices(s)
        for i in range(s.d + 1):
            assert multiplication_matrix(sb, i) == mats[i]


def test_multiplication_matrix_identity_and_k3(k3_scheme):
    sb = structure_basis(k3_scheme)
    assert multiplication_matrix(sb, 0) == QMatrix.identity(2)
    assert multiplication_matrix(sb, 1) == QMatrix(((0, 2), (1, 1)))


def test_multiplication_matrices_commute(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    mats = [multiplication_matrix(sb, i) for i in range(4)]
    for a in mats:
        for b in mats:
            assert a @ b == b @ a


def test_normal_form_of_products_stays_in_normal_set(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    nv = sb.nvars
    span = set(sb.normal_set)
    for i in range(nv):
        for t in sb.normal_set:
            nf = normal_form(
                MPoly(nv, {Monomial.variable(i, nv).mul(t): 1}), sb.basis
            )
            assert set(nf.terms) <= span


K3_IDEMPOTENT_EQS = ["x0^2 + 2*x1^2 - x0", "2*x0*x1 + x1^2 - x1"]


def test_k3_idempotent_equations(k3_scheme):
    sb = structure_basis(k3_scheme)
    assert list(idempotent_equations(sb)) == parse_basis(K3_IDEMPOTENT_EQS, 2)


@pytest.mark.parametrize("m,r", [(9, 2), (8, 3), (7, 2), (13, 5)])
def test_uniform_vector_is_idempotent(m, r):
    # E = J/|X| is always an idempotent: its class-basis coordinates are all 1/|X|.
    from fractions import Fraction

    s = orbit_scheme(m, r)
    sb = structure_basis(s)
    w = [Fraction(1, s.order)] * (s.d + 1)
    for eq in idempotent_equations(sb):
        assert eq.evaluate(w) == 0


def test_tampered_tensor_rejected():
    # passes the linear axioms but is not associative, so the Groebner
    # certificate must fail
    p = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (6, 4, 5), (0, 1, 1)),
        ((0, 0, 1), (0, 1, 1), (2, 1, 0)),
    )
    tensor = IntersectionTensor(p).validate()
    with pytest.raises(
        InternalInvariantViolation,
        match=r"\(x1\*x1\)\*x2 != x1\*\(x1\*x2\); offending reduction: -4\*x1 - 4\*x2 - 4$",
    ):
        structure_basis(Scheme(tensor=tensor))


def _written_out_basis(p):
    """The degree-order structure basis built term by term, as structure_basis
    built it before the basis became a view: the relations, keyed (i, j), and
    the basis of x0 - 1 and all of them."""
    nv = len(p)
    relation = {}
    for i in range(1, nv):
        for j in range(i, nv):
            terms = {Monomial.variable(i, nv).mul(Monomial.variable(j, nv)): 1}
            terms[Monomial.one(nv)] = terms.get(Monomial.one(nv), 0) - p[i][j][0]
            for k in range(1, nv):
                if p[i][j][k]:
                    terms[Monomial.variable(k, nv)] = -p[i][j][k]
            relation[i, j] = MPoly(nv, terms)
    gens = [MPoly.variable(0, nv) - 1, *relation.values()]
    order = MonomialOrder.degree(nv)
    gens.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return relation, PolyBasis(gens, order)


def _s_pair_message(p):
    """The failure structure_basis must report, found the Buchberger way: the
    first triple i <= j, l (in loop order) whose S-polynomial
    x_l (x_i x_j - ...) - x_i (x_j x_l - ...) has a nonzero normal form."""
    nv = len(p)
    relation, basis = _written_out_basis(p)
    for i in range(1, nv):
        for j in range(i, nv):
            for l in range(1, nv):
                xi, xl = MPoly.variable(i, nv), MPoly.variable(l, nv)
                s_pair = xl * relation[i, j] - xi * relation[min(j, l), max(j, l)]
                nf = normal_form(s_pair, basis)
                if not nf.is_zero():
                    return (
                        f"structure relations are not a Groebner basis: "
                        f"(x{i}*x{j})*x{l} != x{i}*(x{j}*x{l}); "
                        f"offending reduction: {nf.render()}"
                    )
    return None


def test_certificate_builds_no_polynomials(monkeypatch, hamming_scheme):
    schemes = [orbit_scheme(13, 5), orbit_scheme(40, 39), hamming_scheme]

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate built a polynomial")

    monkeypatch.setattr(MPoly, "__init__", refuse)
    monkeypatch.setattr(PolyBasis, "__init__", refuse)
    monkeypatch.setattr(polyring, "normal_form", refuse)
    monkeypatch.setattr(structure_ideal, "normal_form", refuse)
    for s in schemes:
        assert structure_basis(s).scheme is s


def test_basis_view_equals_the_written_out_basis(hamming_scheme):
    for s in (orbit_scheme(13, 5), orbit_scheme(40, 39), hamming_scheme):
        sb = structure_basis(s)
        assert sb.basis == _written_out_basis(s.tensor.p)[1]
        nv = s.d + 1
        assert sb.normal_set == (Monomial.one(nv),) + tuple(
            Monomial.variable(i, nv) for i in range(1, nv)
        )


def _failure(p):
    try:
        structure_basis(Scheme(tensor=IntersectionTensor(p).validate()))
    except InternalInvariantViolation as e:
        return str(e)
    return None


def test_failure_message_is_the_s_pair_normal_form():
    tampered = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (6, 4, 5), (0, 1, 1)),
        ((0, 0, 1), (0, 1, 1), (2, 1, 0)),
    )
    tensors = [tampered, CONSTANT_TERMS_ASSOCIATE, *two_class_tensors(4), *_perturbed_orbit_tensors(7, 60)]
    failing = 0
    for p in tensors:
        expected = _s_pair_message(p)
        assert _failure(p) == expected, p
        failing += expected is not None
    assert (len(tensors), failing) == (101, 83)


def _buchberger_accepts(p):
    """is_groebner on x0 - 1 and x_i*x_j - sum_k p_ij^k x_k, built here
    rather than taken from structure_basis."""
    nv = len(p)
    x = [MPoly.variable(i, nv) for i in range(nv)]
    gens = [x[0] - 1] + [
        x[i] * x[j] - sum(p[i][j][k] * x[k] for k in range(nv))
        for i in range(1, nv)
        for j in range(i, nv)
    ]
    return is_groebner(PolyBasis(gens, MonomialOrder.degree(nv)))[0]


def _certificate_accepts(p):
    try:
        structure_basis(Scheme(tensor=IntersectionTensor(p).validate()))
    except InternalInvariantViolation:
        return False
    return True


def _valid(p):
    try:
        IntersectionTensor(p).validate()
    except NotConstantIntersectionNumber:
        return False
    return True


def _perturbed_orbit_tensors(seed, tries=400):
    """Orbit-scheme tensors (d >= 3) with p_ab^k, p_cc^k raised by one and
    p_ac^k, p_bb^k lowered by one (and their symmetric counterparts), for
    distinct a, b, c >= 1 and k >= 1: every row sum is kept."""
    rng = random.Random(seed)
    schemes = [orbit_scheme(m, r) for m, r in [(8, 3), (12, 5), (15, 2), (16, 3), (20, 3)]]
    out = []
    for _ in range(tries):
        p = [[list(pij) for pij in pi] for pi in rng.choice(schemes).tensor.p]
        a, b, c = rng.sample(range(1, len(p)), 3)
        k = rng.randrange(1, len(p))
        for (i, j), delta in (((a, b), 1), ((c, c), 1), ((a, c), -1), ((b, b), -1)):
            p[i][j][k] += delta
            if i != j:
                p[j][i][k] += delta
        p = tuple(tuple(tuple(pij) for pij in pi) for pi in p)
        if _valid(p):
            out.append(p)
    return out


def test_certificate_agrees_with_buchberger_on_all_small_d2_tensors():
    tensors = two_class_tensors(4)
    verdicts = [(_certificate_accepts(p), _buchberger_accepts(p)) for p in tensors]
    assert all(mine == oracle for mine, oracle in verdicts)
    assert len(tensors) == 90
    assert sum(not mine for mine, _ in verdicts) == 72


# orbit_scheme(13, 5) after a few perturbations as above, non-associative
# although every constant coordinate of the identity, k_l p_ij^l = k_i p_jl^i,
# still holds.
CONSTANT_TERMS_ASSOCIATE = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (4, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 1)),
    ((0, 0, 1, 0), (0, 1, 1, 2), (4, 1, 1, 1), (0, 2, 1, 1)),
    ((0, 0, 0, 1), (0, 1, 2, 1), (0, 2, 1, 1), (4, 1, 1, 1)),
)


def test_certificate_agrees_with_buchberger_on_perturbed_orbit_tensors():
    tensors = _perturbed_orbit_tensors(20260101) + [CONSTANT_TERMS_ASSOCIATE]
    assert len(tensors) >= 20
    for p in tensors:
        assert _certificate_accepts(p) == _buchberger_accepts(p)


def test_verify_radical(ex1_scheme, ex2_scheme, k3_scheme, hamming_scheme):
    for s in (ex1_scheme, ex2_scheme, k3_scheme, hamming_scheme):
        assert verify_radical(structure_basis(s))


def test_random_schemes_structure_properties():
    from math import gcd

    rng = random.Random(20240817)
    seen = 0
    while seen < 6:
        m = rng.randint(5, 40)
        r = rng.randint(2, m - 1)
        if r == 1 or gcd(r, m) != 1:
            continue
        s = orbit_scheme(m, r)
        if s.d > 8:
            continue
        seen += 1
        sb = structure_basis(s)
        assert sb.quotient_dimension == s.d + 1
        ok, _ = is_groebner(sb.basis)
        assert ok
        mats = intersection_matrices(s)
        for i in range(s.d + 1):
            assert multiplication_matrix(sb, i) == mats[i]


def _products(p, i, j, l):
    """Dense reference rows: the coordinates of (x_i x_j) x_l and
    x_i (x_j x_l), sum_t p_ij^t p_tl^k and sum_t p_jl^t p_it^k for every k."""
    left, right = [0] * len(p), [0] * len(p)
    for t in range(len(p)):
        a, b = p[i][j][t], p[j][l][t]
        if a:
            left = [x + a * y for x, y in zip(left, p[t][l])]
        if b:
            right = [x + b * y for x, y in zip(right, p[i][t])]
    return left, right


def _dense_failure(p):
    """The certificate over dense `_products` rows, in the loop order of
    structure_basis: None, or the message of the first failing triple."""
    n = len(p)
    for i in range(1, n):
        for j in range(i, n):
            for l in range(1, n):
                left, right = _products(p, i, j, l)
                if left != right:
                    nf = structure_ideal._linear([b - a for a, b in zip(left, right)])
                    return (
                        f"structure relations are not a Groebner basis: "
                        f"(x{i}*x{j})*x{l} != x{i}*(x{j}*x{l}); "
                        f"offending reduction: {nf.render()}"
                    )
    return None


def test_sparse_certificate_matches_the_dense_rows_on_the_fuzz():
    # the seeded 3000-tensor fuzz of the entry points, plus the perturbed
    # orbit tensors: the certificate over the nonzero entries accepts or
    # rejects exactly when the dense rows do, with the same message
    rng = random.Random(17)
    tensors = []
    for _ in range(3000):
        try:
            tensors.append(IntersectionTensor(random_tensor(rng)).p)
        except SchemeAlgError:
            pass
    tensors += _perturbed_orbit_tensors(20260101) + [CONSTANT_TERMS_ASSOCIATE]
    failing = 0
    for p in tensors:
        expected = _dense_failure(p)
        assert _failure(p) == expected, p
        failing += expected is not None
    assert (len(tensors), failing) == (473, 59)
