import random
from fractions import Fraction

import pytest

from schemealg.errors import DimensionMismatch, ZeroPolynomial
from schemealg.exactmath import Interval, RealRoot
from schemealg.fglm import _relation_enclosures
from schemealg.polyring import (
    Monomial,
    MonomialOrder,
    MPoly,
    PolyBasis,
    is_groebner,
    normal_form,
)
from schemealg.scheme import orbit_scheme
from schemealg.structure_ideal import _sparse_columns, structure_basis

from conftest import parse_basis, parse_poly


# The running example basis (degree order, variables x0..x2): the quotient
# has dimension 3 and normal set {1, x1, x2}.
EX_BASIS_TEXT = [
    "x0 - 1",
    "x1^2 - x1 - 2",
    "x1*x2 - 2*x2",
    "x2^2 - 3*x2 - 6*x1 - 6",
]


def example_basis():
    return PolyBasis(parse_basis(EX_BASIS_TEXT, 3), MonomialOrder.degree(3))


class TestMonomialOrder:
    def test_degree_order_chain(self):
        o = MonomialOrder.degree(2)
        chain = ["x0^2", "x0*x1", "x1^2", "x0", "x1", "1"]
        monos = [parse_poly(t, 2).leading_monomial(o) for t in chain]
        for a, b in zip(monos, monos[1:]):
            assert o.compare(a, b) > 0

    def test_lex_smallest(self):
        # x1 smallest among x0, x1, x2: x0 > x2^5 > x1^7
        o = MonomialOrder.lex_smallest(3, 1)
        x0 = Monomial((1, 0, 0))
        x1_7 = Monomial((0, 7, 0))
        x2_5 = Monomial((0, 0, 5))
        assert o.compare(x0, x2_5) > 0
        assert o.compare(x2_5, x1_7) > 0

    def test_lex_block_smallest(self):
        # variables {1, 2} below everything else
        o = MonomialOrder.lex_block_smallest(4, [1, 2])
        assert o.priority == (0, 3, 1, 2)
        x3 = Monomial((0, 0, 0, 1))
        x1x2 = Monomial((0, 3, 3, 0))
        assert o.compare(x3, x1x2) > 0

    @pytest.mark.parametrize("kind", ["degree", "lex"])
    @pytest.mark.parametrize("seed", range(6))
    def test_admissibility(self, kind, seed):
        rng = random.Random(seed)
        nv = rng.randint(1, 4)
        prio = list(range(nv))
        rng.shuffle(prio)
        o = MonomialOrder(kind, prio)
        one = Monomial.one(nv)

        def rand_mono():
            return Monomial(tuple(rng.randint(0, 4) for _ in range(nv)))

        for _ in range(30):
            a, b, c = rand_mono(), rand_mono(), rand_mono()
            assert o.compare(a.mul(c), b.mul(c)) == o.compare(a, b)
            assert o.compare(one, a) <= 0
            assert o.compare(a, b) == -o.compare(b, a)

    def test_dimension_mismatch(self):
        o = MonomialOrder.degree(2)
        with pytest.raises(DimensionMismatch):
            o.compare(Monomial((1, 2)), Monomial((1, 2, 3)))

    def test_bad_priority(self):
        with pytest.raises(ValueError):
            MonomialOrder("lex", (0, 0, 1))


class TestMPoly:
    def test_arithmetic_identities(self):
        rng = random.Random(42)

        def rand_poly(nv):
            return MPoly(
                nv,
                {
                    Monomial(tuple(rng.randint(0, 3) for _ in range(nv))): Fraction(
                        rng.randint(-5, 5), rng.randint(1, 3)
                    )
                    for _ in range(rng.randint(0, 5))
                },
            )

        for _ in range(20):
            a, b, c = rand_poly(3), rand_poly(3), rand_poly(3)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == MPoly.zero(3)
            assert a * MPoly.zero(3) == MPoly.zero(3) == MPoly.zero(3) * a
            assert a - 3 == a + MPoly.constant(-3, 3)
        # cancellation stores no zero coefficient
        x = MPoly.variable(1, 3)
        p = parse_poly("x1^2 - x1 - 2", 3)
        m = Monomial((0, 1, 2))
        for z in (x - x, p - p, p * 0, p * Fraction(0), p.term_mul(m, 0), p * MPoly.zero(3)):
            assert z.terms == {}
        # (x1 + 1)(x1 - 1) cancels its x1 terms
        q = (x + 1) * (x - 1)
        assert q.terms == {Monomial((0, 2, 0)): 1, Monomial((0, 0, 0)): -1}
        assert 0 not in (x + p - x).terms.values()

    def test_evaluate(self):
        p = parse_poly("x1^2 - x1 - 2", 3)
        assert p.evaluate([1, 2, 0]) == 0
        assert p.evaluate([0, -1, 5]) == 0
        assert p.evaluate([0, 3, 0]) == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_evaluate_interval_matches_the_fraction_loop(self, seed):
        # evaluate_interval is the term-by-term Fraction loop over every
        # term of the written-out relation; residual certification encloses
        # the same relations on plain integers over the box scaled by D,
        # read off the nonzero entries of the tensor, and divided by D^2 must
        # give the same rationals (a square by the even-power rule, a product
        # by its sign cases, the linear terms scaled by D), in (i, j) order
        m, r = [(5, 4), (13, 5), (16, 15), (25, 4), (32, 7), (21, 2)][seed]
        sb = structure_basis(orbit_scheme(m, r))
        order = sb.basis.order
        generator = {g.leading_monomial(order): g for g in sb.basis}
        rng = random.Random(700 + seed)

        def rational():
            den = rng.choice([1, 3, 2**40, 10**12, 7 * 2**40])
            return Fraction(rng.randint(-10**6, 10**6), den)

        for _ in range(60):
            ivs = [Interval.point(1)]
            for _ in range(sb.nvars - 1):
                kind = rng.randrange(4)
                if kind == 0:
                    ivs.append(Interval.point(rational()))
                elif kind == 1:  # straddles zero
                    ivs.append(Interval(-abs(rational()), abs(rational())))
                elif kind == 2:  # one end at zero, where the sign cases meet
                    ivs.append(Interval(*sorted((0, rational()))))
                else:
                    ivs.append(Interval(*sorted((rational(), rational()))))
            values = [RealRoot(low=iv.lo, high=iv.hi) for iv in ivs]
            den, enclosures = _relation_enclosures(_sparse_columns(sb), values)
            pairs = [(i, j) for i in range(1, sb.nvars) for j in range(i, sb.nvars)]
            assert list(enclosures) == pairs and len(pairs) == len(sb.basis) - 1
            for (i, j), (lo, hi) in enclosures.items():
                assert type(lo) is int and type(hi) is int
                g = generator[Monomial.variable(i, sb.nvars).mul(Monomial.variable(j, sb.nvars))]
                want = g.evaluate_interval(ivs)
                assert (Fraction(lo, den**2), Fraction(hi, den**2)) == (want.lo, want.hi)

    def test_partial_eval(self):
        p = parse_poly("x1*x2 - 2*x1", 3)
        q = p.partial_eval({1: 4})
        assert q == parse_poly("4*x2 - 8", 3)

    def test_univariate_in(self):
        p = parse_poly("x2^3 - 4*x2", 3)
        u = p.univariate_in(2)
        assert u.coeffs == (0, -4, 0, 1)
        with pytest.raises(ValueError):
            parse_poly("x1*x2", 3).univariate_in(2)

    def test_render(self):
        p = parse_poly("x1^2*x2 - 3*x1 + 1/2", 3)
        assert p.render() == "x1^2*x2 - 3*x1 + 1/2"
        assert MPoly.zero(2).render() == "0"

    def test_monic(self):
        o = MonomialOrder.degree(2)
        p = parse_poly("-2*x0^2 + 4*x1", 2)
        assert p.monic(o) == parse_poly("x0^2 - 2*x1", 2)


class TestNormalForm:
    def test_example_reduction(self):
        nf = normal_form(parse_poly("x1^3", 3), example_basis())
        assert nf == parse_poly("3*x1 + 2", 3)

    def test_generators_reduce_to_zero(self):
        b = example_basis()
        for g in b:
            assert normal_form(g, b).is_zero()

    def test_idempotent(self):
        b = example_basis()
        f = parse_poly("x1^2*x2^2 - 5*x0*x1 + 7", 3)
        r = normal_form(f, b)
        assert normal_form(r, b) == r
        # the reduction difference lies in the ideal
        assert normal_form(f - r, b).is_zero()

    def test_normal_set_untouched(self):
        b = example_basis()
        f = parse_poly("5*x1 - 2/3*x2 + 1", 3)
        assert normal_form(f, b) == f


class TestIsGroebner:
    def test_accepts_example_basis(self):
        ok, witness = is_groebner(example_basis())
        assert ok and witness is None

    def test_rejects_with_witness(self):
        o = MonomialOrder.degree(2)
        b = PolyBasis([parse_poly("x0^2 - 1", 2), parse_poly("x0*x1 - 1", 2)], o)
        ok, witness = is_groebner(b)
        assert not ok
        assert witness == parse_poly("x0 - x1", 2)


class TestPolyBasis:
    def test_monic_normalization(self):
        o = MonomialOrder.degree(2)
        b = PolyBasis([parse_poly("3*x0 - 3", 2)], o)
        assert b.generators[0] == parse_poly("x0 - 1", 2)

    def test_zero_generator_rejected(self):
        with pytest.raises(ZeroPolynomial):
            PolyBasis([MPoly.zero(2)], MonomialOrder.degree(2))

    def test_variable_count_checked(self):
        with pytest.raises(DimensionMismatch):
            PolyBasis([parse_poly("x0 - 1", 3)], MonomialOrder.degree(2))

