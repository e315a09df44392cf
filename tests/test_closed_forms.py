"""Character tables against closed forms that do not come from the program:
Krawtchouk polynomials for Hamming schemes and Eberlein polynomials for
Johnson schemes (Delsarte 1973; Bannai-Ito, Algebraic Combinatorics I,
section 3.2).  Both families are metric in the distance class.  The minimal
generating sets of an elementary abelian 2-group's regular scheme are the
bases of its F_2-vector space."""

import itertools
from math import comb

import pytest
from conftest import hamming, johnson

from schemealg.analysis import character_table, check_p_polynomial, minimal_generating_sets
from schemealg.scheme import scheme_from_relations


def krawtchouk_rows(n, q):
    """P[x][i] = K_i(x) = sum_h (-1)^h (q-1)^(i-h) C(x, h) C(n-x, i-h)."""
    return [
        tuple(
            sum((-1) ** h * (q - 1) ** (i - h) * comb(x, h) * comb(n - x, i - h) for h in range(i + 1))
            for i in range(n + 1)
        )
        for x in range(n + 1)
    ]


def eberlein_rows(n, k):
    """P[j][i] = E_i(j) = sum_h (-1)^h C(j, h) C(k-j, i-h) C(n-k-j, i-h)."""
    return [
        tuple(
            sum((-1) ** h * comb(j, h) * comb(k - j, i - h) * comb(n - k - j, i - h) for h in range(i + 1))
            for i in range(k + 1)
        )
        for j in range(k + 1)
    ]


# name -> (v, scheme builder, closed-form rows, their arguments)
CASES = {
    "H(4,3)": (81, hamming, krawtchouk_rows, (4, 3)),
    "J(8,3)": (56, johnson, eberlein_rows, (8, 3)),
    "J(10,4)": (210, johnson, eberlein_rows, (10, 4)),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    v, build, rows, args = CASES[request.param]
    s = build(*args)
    assert s.order == v
    return s, rows(*args)


def test_p_matches_the_closed_form_up_to_row_order(case):
    s, rows = case
    assert sorted(character_table(s).p_fractions()) == sorted(rows)


def test_distance_class_makes_the_scheme_p_polynomial(case):
    s, _ = case
    d = s.d
    rep = check_p_polynomial(s)
    assert rep.is_p_polynomial
    assert rep.generator_variable == 1
    assert rep.distance_relabeling == tuple(range(d + 1))
    # move the distance-1 class to the last label and every other up by one
    perm = (0, d, *range(1, d))
    rep = check_p_polynomial(s.relabel(perm))
    assert rep.is_p_polynomial
    assert rep.generator_variable == d
    assert all(rep.distance_relabeling[perm[i]] == i for i in range(d + 1))


def test_minimal_generating_sets_of_z2_cubed_are_its_bases():
    # the regular scheme of (Z_2)^3: (x, y) is in class x XOR y, so
    # x_a x_b = x_(a XOR b) and a set of classes generates the algebra
    # exactly when its labels span F_2^3; no two labels do, and three
    # distinct nonzero labels a < b < c are independent unless c = a XOR b
    s = scheme_from_relations([[x ^ y for y in range(8)] for x in range(8)])
    bases = tuple(c for c in itertools.combinations(range(1, 8), 3) if c[0] ^ c[1] != c[2])
    assert len(bases) == 28
    assert minimal_generating_sets(s) == bases


def test_minimal_generating_sets_of_z2_to_the_fourth_are_its_bases():
    # the same for (Z_2)^4: 15 classes, and four labels generate exactly
    # when the XOR closure of their subsets is all 16 vectors of F_2^4
    s = scheme_from_relations([[x ^ y for y in range(16)] for x in range(16)])

    def span(labels):
        out = {0}
        for a in labels:
            out |= {a ^ x for x in out}
        return out

    bases = tuple(c for c in itertools.combinations(range(1, 16), 4) if len(span(c)) == 16)
    assert len(bases) == 840  # 15 * 14 * 12 * 8 / 4!
    assert minimal_generating_sets(s) == bases
