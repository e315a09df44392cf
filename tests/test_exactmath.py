import math
import random
from fractions import Fraction

import pytest

from schemealg.errors import InternalInvariantViolation, SingularMatrix, ZeroPolynomial
from schemealg.exactmath import (
    DEFAULT_PRECISION,
    REFINE_ROUNDS,
    Interval,
    QMatrix,
    RealRoot,
    UniPoly,
    _reduce_row,
    _sign,
    _sign_at,
    format_decimal,
    real_roots,
    refine_until,
)


def upoly(*coeffs_desc):
    """Build a UniPoly from descending coefficients (reads like the formula)."""
    return UniPoly(tuple(reversed(coeffs_desc)))


class TestQMatrix:
    def test_rref_simple(self):
        m, pivots = QMatrix([[0, 2], [1, 1]]).rref()
        assert m == QMatrix.identity(2)
        assert pivots == (0, 1)

    def test_rref_rank_deficient(self):
        m, pivots = QMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).rref()
        assert pivots == (0, 2)
        assert m.rows[0] == (1, 2, 0)
        assert m.rows[1] == (0, 0, 1)
        assert m.rows[2] == (0, 0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_rref_shape_properties(self, seed):
        rng = random.Random(seed)
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = QMatrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)])
        r, pivots = a.rref()
        assert list(pivots) == sorted(pivots)
        for row, c in enumerate(pivots):
            col = r.column(c)
            assert col[row] == 1
            assert all(x == 0 for i, x in enumerate(col) if i != row)
        # rows past the last pivot are zero
        for row in r.rows[len(pivots):]:
            assert all(x == 0 for x in row)

    def test_inverse(self):
        a = QMatrix([[1, 2], [1, -1]])
        inv = a.inverse()
        assert inv == QMatrix([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 3), Fraction(-1, 3)]])
        assert a @ inv == QMatrix.identity(2)

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrix):
            QMatrix([[1, 2], [2, 4]]).inverse()

    @pytest.mark.parametrize("seed", range(6))
    def test_inverse_round_trip(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 4)
        while True:
            a = QMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            try:
                inv = a.inverse()
                break
            except SingularMatrix:
                continue
        assert a @ inv == QMatrix.identity(n)
        assert inv @ a == QMatrix.identity(n)

    def test_charpoly_known(self):
        assert QMatrix([[0, 2], [1, 1]]).charpoly() == upoly(1, -1, -2)
        assert QMatrix([[2, 0], [0, 3]]).charpoly() == upoly(1, -5, 6)

    @pytest.mark.parametrize("seed", range(5))
    def test_charpoly_triangular(self, seed):
        rng = random.Random(7 + seed)
        n = rng.randint(1, 4)
        diag = [rng.randint(-3, 3) for _ in range(n)]
        rows = [[diag[i] if i == j else (rng.randint(-3, 3) if j > i else 0) for j in range(n)] for i in range(n)]
        expect = UniPoly((1,))
        for d in diag:
            expect = expect * UniPoly((-d, 1))
        assert QMatrix(rows).charpoly() == expect


    @pytest.mark.parametrize("seed", range(6))
    def test_charpoly_matches_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(900 + seed)
        n = rng.randint(1, 7)
        if seed % 2:
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        x = sympy.Symbol("x")
        ref = sympy.Matrix(
            [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows]
        ).charpoly(x)
        expect = [Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())]
        assert QMatrix(rows).charpoly() == UniPoly(expect)


def test_reduce_row_keeps_an_integer_echelon_and_carries_the_tail():
    # Seeded random vectors drawn from a low-rank span, so that dependent
    # heads are common.  Each enters as scale*[head | e_k], scale in 1..3
    # (content at least scale), and the kernel must turn the tail into the exact
    # combination of the heads that its row is.
    def rank(rows):
        return len(QMatrix(rows).rref()[1]) if rows else 0

    rng = random.Random(14)
    dependent = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        span = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))]
        heads = [
            [sum(rng.randint(-3, 3) * b[i] for b in span) for i in range(n)]
            for _ in range(rng.randint(1, 9))
        ]
        echelon = {}
        for k, head in enumerate(heads):
            scale = rng.randint(1, 3)
            w = [scale * x for x in head] + [0] * len(heads)
            w[n + k] = scale
            row, pivot = _reduce_row(echelon, w, n)
            tail = row[n:]
            assert tail[k] != 0 and not any(tail[k + 1 :])
            assert list(row[:n]) == [sum(c * h[i] for c, h in zip(tail, heads)) for i in range(n)]
            in_span = rank(heads[: k + 1]) == rank(heads[:k])
            assert (pivot is None) == in_span
            if pivot is None:
                assert not any(row[:n])
                dependent += 1
            else:
                assert pivot not in echelon
                assert row[pivot] != 0 and not any(row[:pivot])
                assert math.gcd(*row) == 1
                echelon[pivot] = row
        assert len(echelon) == rank(heads)
    assert dependent > 30


class TestUniPoly:
    def test_divmod_exact(self):
        p = upoly(1, -3, -18, 0)  # x^3 - 3x^2 - 18x
        q, r = divmod(p, upoly(1, -6))
        assert r.is_zero()
        assert q == upoly(1, 3, 0)
        # a dividend shorter than the divisor is its own remainder
        assert divmod(upoly(2, -1), p) == (UniPoly(), upoly(2, -1))
        assert divmod(upoly(Fraction(1, 3)), upoly(1, -6)) == (UniPoly(), upoly(Fraction(1, 3)))

    @pytest.mark.parametrize("seed", range(10))
    def test_divmod_property(self, seed):
        rng = random.Random(seed)

        def rand_poly(max_deg):
            return UniPoly([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(rng.randint(1, max_deg + 1))])

        a, b = rand_poly(6), rand_poly(3)
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree

    def test_gcd(self):
        a = upoly(1, 1, -2)  # (x-1)(x+2)
        b = upoly(1, 4, -5)  # (x-1)(x+5)
        assert a.gcd(b) == upoly(1, -1)
        zero = UniPoly()
        assert zero.gcd(upoly(2, 8, -10)) == b and upoly(2, 8, -10).gcd(zero) == b
        assert zero.gcd(zero) == zero
        assert upoly(3, -3).gcd(a) == upoly(1, -1)  # deg a < deg b

    def test_squarefree_part(self):
        p = upoly(1, -1)* upoly(1, -1) * upoly(1, 2)  # (x-1)^2 (x+2)
        assert p.squarefree_part() == upoly(1, 1, -2)
        already = upoly(1, -3, -18, 0)
        assert already.squarefree_part() == already
        assert upoly(-7).squarefree_part() == upoly(1)
        assert upoly(Fraction(2, 3)).squarefree_part() == upoly(1)
        assert upoly(-7).is_squarefree()
        assert already.is_squarefree() and not p.is_squarefree()

    def test_zero_polynomial_guards(self):
        z = UniPoly()
        p = upoly(1, -3, -18, 0)
        assert p * z == z * p == z * z == z
        with pytest.raises(ZeroPolynomial):
            z.monic()
        with pytest.raises(ZeroPolynomial):
            z.squarefree_part()
        with pytest.raises(ZeroPolynomial):
            divmod(upoly(1, 0), z)
        with pytest.raises(ZeroPolynomial):
            real_roots(z)

    def test_render(self):
        assert upoly(1, -3, -18, 0).render() == "x^3 - 3*x^2 - 18*x"
        assert upoly(Fraction(1, 2), 0, -1).render("t") == "1/2*t^2 - 1"
        assert UniPoly().render() == "0"

    def test_primitive(self):
        p = UniPoly([Fraction(-1, 2), 0, Fraction(3, 2)])
        assert p.primitive() == upoly(3, 0, -1)
        q = upoly(-2, 0, 4)
        assert q.primitive() == upoly(1, 0, -2)


class TestRealRoots:
    def test_rational_roots_exact(self):
        roots = real_roots(upoly(1, -3, -18, 0))
        assert all(r.is_rational for r in roots)
        assert [r.value for r in roots] == [-3, 0, 6]

    def test_fractional_root_via_lc_divisor(self):
        p = upoly(2, -1) * upoly(1, -3)  # (2x-1)(x-3)
        roots = real_roots(p)
        assert [r.value for r in roots] == [Fraction(1, 2), 3]

    def test_irrational_isolation(self):
        roots = real_roots(upoly(1, 0, -2), precision=Fraction(1, 10**6))
        assert len(roots) == 2
        assert all(not r.is_rational for r in roots)
        lo, hi = roots[1].low, roots[1].high
        assert lo < Fraction(141422, 100000) and hi > Fraction(141421, 100000)
        assert hi - lo < Fraction(1, 10**6)

    def test_no_real_roots(self):
        assert real_roots(upoly(1, 0, 1)) == []

    def test_mixed_rational_and_irrational(self):
        p = upoly(1, 0, -2) * upoly(1, -1)
        roots = real_roots(p)
        kinds = [r.is_rational for r in roots]
        assert kinds == [False, True, False]
        assert roots[1].value == 1
        assert roots[0] < roots[1] < roots[2]

    def test_defensive_squarefree(self):
        p = upoly(1, -1) * upoly(1, -1)
        roots = real_roots(p)
        assert [r.value for r in roots] == [1]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_integer_root_sets(self, seed):
        rng = random.Random(400 + seed)
        wanted = sorted(rng.sample(range(-8, 9), rng.randint(1, 4)))
        p = UniPoly((1,))
        for w in wanted:
            p = p * upoly(1, -w)
        roots = real_roots(p)
        assert [r.value for r in roots] == wanted


    def test_endpoints_with_a_non_dyadic_cauchy_bound(self):
        # 3x^2 - 5: the bound 1 + 5/3 = 8/3 is not an integer, so bisection
        # from (-8/3, 8/3) gives endpoints with a factor 3 in the denominator.
        # The JSON reports print these endpoints, so they are pinned exactly.
        roots = real_roots(upoly(3, 0, -5))
        lo = Fraction(818264943915628068343207418581, 633825300114114700748351602688)
        hi = Fraction(1227397415873442102514811127871, 950737950171172051122527404032)
        assert [(r.low, r.high) for r in roots] == [(-lo, -hi), (hi, lo)]
        assert all(r.poly == upoly(3, 0, -5) for r in roots)

    # Literal outputs, pinned: each irrational interval is a dyadic cell of
    # (-B, B), B the Cauchy bound of the witness left once every rational
    # root is divided out, so the endpoints also pin that witness.
    PINNED = {
        "mixed (x^2 - 2)(x - 1)": (
            upoly(1, 0, -2) * upoly(1, -1),
            [
                (upoly(1, 0, -2), -7170914684772625909597688093115, 5070602400912917605986812821504,
                 -896364335596578238699711011639, 633825300114114700748351602688),
                1,
                (upoly(1, 0, -2), 896364335596578238699711011639, 633825300114114700748351602688,
                 7170914684772625909597688093115, 5070602400912917605986812821504),
            ],
        ),
        "root at 0, x(x + 3)(2x^2 - 7)": (
            upoly(1, 3, 0) * upoly(2, 0, -7),
            [
                -3,
                (upoly(2, 0, -7), -18972456928769500351156822452165, 10141204801825835211973625643008,
                 -4743114232192375087789205613039, 2535301200456458802993406410752),
                0,
                (upoly(2, 0, -7), 4743114232192375087789205613039, 2535301200456458802993406410752,
                 18972456928769500351156822452165, 10141204801825835211973625643008),
            ],
        ),
        "leading coefficient 6, (2x - 1)(3x + 1)(x^2 - 3)": (
            upoly(2, -1) * upoly(3, 1) * upoly(1, 0, -3),
            [
                (upoly(1, 0, -3), -274454405730059595204971223777, 158456325028528675187087900672,
                 -2195635245840476761639769790215, 1267650600228229401496703205376),
                Fraction(-1, 3),
                Fraction(1, 2),
                (upoly(1, 0, -3), 2195635245840476761639769790215, 1267650600228229401496703205376,
                 274454405730059595204971223777, 158456325028528675187087900672),
            ],
        ),
        "repeated factor (x^2 - 5)^2 (x + 1)": (
            upoly(1, 0, -5) * upoly(1, 0, -5) * upoly(1, 1),
            [
                (upoly(1, 0, -5), -708638228457182841184406864643, 316912650057057350374175801344,
                 -11338211655314925458950509834285, 5070602400912917605986812821504),
                -1,
                (upoly(1, 0, -5), 11338211655314925458950509834285, 5070602400912917605986812821504,
                 708638228457182841184406864643, 316912650057057350374175801344),
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_roots(self, name):
        p, expected = self.PINNED[name]
        got = []
        for r in real_roots(p):
            if r.is_rational:
                got.append(r.value)
            else:
                got.append((r.poly, r.low.numerator, r.low.denominator, r.high.numerator, r.high.denominator))
        assert got == expected

    def test_leading_coefficient_near_10_to_the_30(self):
        # one sign test decides whether a root is rational, so a leading
        # coefficient this large costs no divisor search
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        p = UniPoly((7, 10**30)) * UniPoly((-5, 0, 3))  # (10^30 x + 7)(3x^2 - 5)
        roots = real_roots(p)
        truth = sympy.Poly(list(reversed(p.coeffs)), x).real_roots()
        assert [r.is_rational for r in roots] == [t.is_Rational for t in truth] == [False, True, False]
        assert roots[1].value == Fraction(-7, 10**30)
        for r, t in zip(roots[::2], truth[::2]):
            assert r.poly == upoly(3, 0, -5)
            assert sympy.Rational(r.low) < t < sympy.Rational(r.high)
            assert r.width < DEFAULT_PRECISION

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(500 + seed)
        widths = (Fraction(1, 10**30), Fraction(1, 10**6), Fraction(1, 3), Fraction(5))
        for case in range(25):
            p = UniPoly((rng.choice([1, -2, 3, Fraction(1, 2)]),))
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.4:
                    f = UniPoly((-rng.randint(-9, 9), rng.randint(1, 4)))  # a rational root
                else:
                    tail = [rng.randint(-7, 7) for _ in range(rng.randint(2, 3))]
                    f = UniPoly(tail + [rng.randint(1, 3)])
                p = p * f * (f if rng.random() < 0.2 else 1)
            width = widths[case % 4]
            truth = [t for t, _ in sympy.Poly(list(reversed(p.coeffs)), x).real_roots(multiple=False)]
            roots = real_roots(p, width)
            assert len(roots) == len(truth)
            assert [r.value for r in roots if r.is_rational] == [
                Fraction(int(t.p), int(t.q)) for t in truth if t.is_Rational
            ]
            # the witness holds every irrational root, and its isolating
            # interval is refined until its closed cell holds no rational
            # root of p, even at the coarse widths
            irrational = [t for t in truth if not t.is_Rational]
            for r in roots:
                if r.is_rational:
                    continue
                lo, hi = sympy.Rational(r.low), sympy.Rational(r.high)
                assert sum(1 for t in irrational if lo < t < hi) == 1
                assert not any(lo <= t <= hi for t in truth if t.is_Rational)
                assert r.width < width
                w = sympy.Poly(list(reversed(r.poly.coeffs)), x)
                assert w.LC() > 0 and w.is_primitive and w.is_sqf
                assert all(g.degree() != 1 for g, _ in w.factor_list()[1])


class TestSignKernel:
    @pytest.mark.parametrize("seed", range(6))
    def test_sign_at_matches_fraction_horner(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(40):
            q = UniPoly([rng.randint(-50, 50) for _ in range(rng.randint(1, 9))])
            points = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(6)]
            points += [rng.randint(-20, 20), Fraction(0)]
            if q:
                # make some points exact roots: multiply in (b x - a)
                a, b = rng.randint(-30, 30), rng.randint(1, 12)
                q = q * UniPoly((-a, b))
                points.append(Fraction(a, b))
            for x in points:
                assert _sign_at(q, x) == _sign(q.evaluate(x))
            if q:
                assert _sign_at(q, points[-1]) == 0


class TestRealRoot:
    def sqrt2(self):
        return real_roots(upoly(1, 0, -2))[1]

    def test_compare_with_rational(self):
        s = self.sqrt2()
        assert RealRoot.rational(Fraction(3, 2)) > s
        assert RealRoot.rational(Fraction(7, 5)) < s
        assert s != RealRoot.rational(Fraction(141421356, 100000000))

    def test_compare_with_a_rational_inside_the_interval(self):
        x2m2 = upoly(1, 0, -2)
        plus = RealRoot.isolated(x2m2, Fraction(1), Fraction(2))  # the witness rises
        minus = RealRoot.isolated(x2m2, Fraction(-2), Fraction(-1))  # the witness falls
        assert plus.compare(Fraction(7, 5)) == 1 and plus.compare(Fraction(3, 2)) == -1
        assert minus.compare(Fraction(-3, 2)) == 1 and minus.compare(Fraction(-7, 5)) == -1
        assert RealRoot.rational(Fraction(3, 2)).compare(plus) == 1

    def test_compare_with_a_rational_at_either_end_or_inside_in_both_orders(self):
        # a rational is a point: the halving loop that separates two isolated
        # roots decides it too, at an endpoint at once
        x2m2 = upoly(1, 0, -2)
        plus = RealRoot.isolated(x2m2, Fraction(1), Fraction(2))  # the witness rises
        minus = RealRoot.isolated(x2m2, Fraction(-2), Fraction(-1))  # the witness falls
        cases = [
            (plus, 1, 1), (plus, 2, -1), (plus, Fraction(7, 5), 1), (plus, Fraction(3, 2), -1),
            (minus, -2, 1), (minus, -1, -1), (minus, Fraction(-3, 2), 1), (minus, Fraction(-7, 5), -1),
        ]
        for root, q, sign in cases:
            point = RealRoot.rational(q)
            assert root.compare(point) == sign and point.compare(root) == -sign, (root, q)
            assert root.compare(q) == sign
            assert (root > point) == (sign > 0) and (point != root)

    def test_a_rational_is_a_point_interval(self):
        r = RealRoot.rational(Fraction(-7, 3))
        assert r.value == r.low == r.high == Fraction(-7, 3)
        iv = r.interval()
        assert (iv.lo, iv.hi) == (Fraction(-7, 3), Fraction(-7, 3))
        assert r.width == 0 and r.refine(Fraction(1, 10**6)) is r
        two = RealRoot.rational(Fraction(6, 3))
        assert type(two.value) is type(two.low) is type(two.high) is int and two.low == 2

    def test_equality_of_irrationals(self):
        a = real_roots(upoly(1, 0, -2))[1]
        b = real_roots(upoly(1, 0, -2) * upoly(1, 1, 1))[1]  # same root, bigger witness
        assert a == b
        assert a.compare(b) == 0

    def test_compare_halves_overlapping_intervals_until_they_separate(self):
        # every enclosure starts as (1, 2) and no two witnesses share a root,
        # so compare must halve both until they separate: 28 halvings for
        # sqrt(2 + 10^-8) - sqrt(2) ~ 3.5e-9
        one, two = Fraction(1), Fraction(2)
        sqrt2 = RealRoot.isolated(upoly(1, 0, -2), one, two)
        sqrt3 = RealRoot.isolated(upoly(1, 0, -3), one, two)
        near = RealRoot.isolated(upoly(10**8, 0, -(2 * 10**8 + 1)), one, two)
        assert sqrt2.compare(sqrt3) == -1 and sqrt3.compare(sqrt2) == 1
        assert sqrt2.compare(near) == -1 and near.compare(sqrt2) == 1
        assert sorted([near, sqrt3, sqrt2]) == [sqrt2, near, sqrt3]
        assert (sqrt2.low, sqrt2.high) == (one, two)

    def test_negation_via_scale(self):
        plus, minus = self.sqrt2(), real_roots(upoly(1, 0, -2))[0]
        assert plus.scale(-1) == minus

    def test_scale(self):
        s = self.sqrt2().scale(3)
        expect = real_roots(upoly(1, 0, -18))[1]
        assert s == expect
        assert s.scale(Fraction(1, 3)) == self.sqrt2()

    def test_refine_shrinks(self):
        s = self.sqrt2().refine(Fraction(1, 10**40))
        assert s.width < Fraction(1, 10**40)
        assert s == self.sqrt2()

    def test_decimal(self):
        assert self.sqrt2().decimal(12) == "1.414213562373"
        assert RealRoot.rational(Fraction(-1, 3)).decimal(4) == "-0.3333"

    def test_decimal_rounds_a_rational_tie_half_up(self):
        # rationals take the same path as irrationals: ties toward +infinity
        assert RealRoot.rational(Fraction(1, 8)).decimal(2) == "0.13"
        assert RealRoot.rational(Fraction(-1, 8)).decimal(2) == "-0.12"

    @pytest.mark.parametrize("digits", [12, 40, 100])
    def test_decimal_is_correctly_rounded(self, digits):
        # the midpoint of an interval that straddles a rounding boundary can
        # round the wrong way: sqrt(139) = ...2610804994... to 40 places
        # once printed ...261081
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(digits + 30):
            for a in range(2, 400):
                if math.isqrt(a) ** 2 == a:
                    continue
                q = int(mpmath.floor(mpmath.sqrt(a) * mpmath.mpf(10) ** digits + mpmath.mpf(1) / 2))
                expect = f"{q // 10**digits}.{q % 10**digits:0{digits}d}"
                assert real_roots(upoly(1, 0, -a))[1].decimal(digits) == expect, a

    def test_ordering_mixed(self):
        vals = [self.sqrt2(), RealRoot.rational(0), self.sqrt2().scale(-1), RealRoot.rational(2)]
        svals = sorted(vals)
        assert [v.decimal(2) for v in svals] == ["-1.41", "0.00", "1.41", "2.00"]

    def test_is_root_of_rational(self):
        three = RealRoot.rational(3)
        assert three.is_root_of(upoly(1, -2, -3))  # (x - 3)(x + 1)
        assert not three.is_root_of(upoly(1, 0, -2))

    def test_is_root_of_irrational(self):
        assert self.sqrt2().is_root_of(upoly(1, 0, -2) * upoly(1, -7))
        assert not self.sqrt2().is_root_of(upoly(1, 0, -3))

    def test_is_root_of_a_shared_factor_without_this_root(self):
        witness = upoly(1, 0, -2) * upoly(1, 0, -3)
        r = RealRoot.isolated(witness, Fraction(1), Fraction(3, 2))  # sqrt 2 alone
        assert witness.gcd(upoly(1, 0, -3)).degree == 2
        assert not r.is_root_of(upoly(1, 0, -3))
        assert r.is_root_of(upoly(1, 0, -2))

    def test_is_root_of_a_non_squarefree_polynomial(self):
        charpoly = upoly(1, 0, -2) * upoly(1, 0, -2) * upoly(1, 1)  # (x^2 - 2)^2 (x + 1)
        assert self.sqrt2().is_root_of(charpoly)
        assert RealRoot.rational(-1).is_root_of(charpoly)

    def test_compare_counts_common_roots_in_the_overlap_only(self):
        # sqrt 2 is a root of both witnesses and lies in the first interval,
        # not in the overlap (3/2, 2), so the roots differ
        sqrt2 = RealRoot.isolated(upoly(1, 0, -2), Fraction(1), Fraction(2))
        sqrt3 = RealRoot.isolated(upoly(1, 0, -2) * upoly(1, 0, -3), Fraction(3, 2), Fraction(2))
        assert sqrt2.compare(sqrt3) == -1 and sqrt3.compare(sqrt2) == 1

    def test_compare_and_is_root_of_agree_with_sympy(self):
        # witnesses w1, w2 share a quadratic factor, and every root keeps the
        # first interval isolation gives it: each shared root appears under
        # two witnesses and intervals, and distinct roots often overlap
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(18)

        def quadratic():
            while True:
                a, b, c = rng.randint(1, 2), rng.randint(-5, 5), rng.randint(-5, 5)
                disc = b * b - 4 * a * c
                if disc > 0 and math.isqrt(disc) ** 2 != disc:
                    return upoly(a, b, c)

        def roots(p):
            # ours (coarse: no refinement below width 1) beside sympy's
            ours = real_roots(p, precision=1)
            truth = sympy.Poly(list(reversed(p.squarefree_part().coeffs)), x).real_roots()
            assert len(ours) == len(truth)
            return list(zip(ours, truth))

        equal = overlapping = 0
        for _ in range(30):
            shared = quadratic()
            w1, w2 = shared * quadratic(), shared * quadratic() * quadratic()
            for ra, ta in roots(w1):
                for rb, tb in roots(w2):
                    truth = 0 if ta == tb else 1 if sympy.N(ta - tb, 50) > 0 else -1
                    assert ra.compare(rb) == truth and rb.compare(ra) == -truth
                    equal += truth == 0 and ra.poly != rb.poly
                    overlapping += truth != 0 and max(ra.low, rb.low) < min(ra.high, rb.high)
                for f in (shared, w2, quadratic()):
                    assert ra.is_root_of(f) == (ta in {t for _, t in roots(f)})
        assert equal >= 30 and overlapping >= 10, (equal, overlapping)


class TestRefineUntil:
    def test_undecided_verdict_exhausts_the_rounds_naming_the_layer(self):
        # a wide interval, so that every round refines it and the verdict is
        # asked on every round
        sqrt2 = RealRoot.isolated(upoly(1, 0, -2), 1, 2)
        rounds = []

        def never(values):
            rounds.append(values[0].width)

        with pytest.raises(InternalInvariantViolation, match="^some layer: no certificate after 512"):
            refine_until([sqrt2], never, "some layer")
        assert len(rounds) == REFINE_ROUNDS == 512
        # checked before the first refinement, then below 2^-8, 2^-10, ...
        assert rounds[0] == sqrt2.width
        assert all(w < Fraction(1, 2 ** (8 + 2 * r)) for r, w in enumerate(rounds[1:]))

    def test_verdict_is_not_asked_again_of_unchanged_values(self):
        # real_roots delivers sqrt(2) narrower than 10^-30, so the rounds at
        # widths 2^-8, 2^-10, ... above that leave it unchanged
        sqrt2 = real_roots(upoly(1, 0, -2))[1]
        seen = []

        def never(values):
            seen.append(values[0])

        with pytest.raises(InternalInvariantViolation, match="^some layer: no certificate after 512"):
            refine_until([sqrt2], never, "some layer")
        assert seen[0] is sqrt2
        assert all(a is not b for a, b in zip(seen, seen[1:]))
        assert len(seen) < REFINE_ROUNDS

    def test_returns_the_first_decided_answer(self):
        sqrt2 = real_roots(upoly(1, 0, -2))[1]
        seen = []

        def below_millionth(values):
            seen.append(values)
            return values[0] if values[0].width < Fraction(1, 10**6) else None

        r = refine_until((sqrt2, RealRoot.rational(3)), below_millionth, "layer")
        assert r == sqrt2 and r.width < Fraction(1, 10**6)
        assert all(v[1] is seen[0][1] for v in seen)  # rationals are never refined

    def test_rounds_above_every_width_call_no_refine(self, monkeypatch):
        # sqrt(2) from real_roots is narrower than 10^-30: the rounds at
        # 2^-8, 2^-10, ... down to its width cannot change it
        sqrt2 = real_roots(upoly(1, 0, -2))[1]
        assert sqrt2.width < Fraction(1, 10**30)
        calls = []
        refine = RealRoot.refine

        def counted(self, max_width):
            calls.append(max_width)
            return refine(self, max_width)

        monkeypatch.setattr(RealRoot, "refine", counted)
        asked = []

        def third(values):
            asked.append(values[0])
            return values[0] if len(asked) == 3 else None

        r = refine_until([sqrt2], third, "layer")
        # the first call is at the first round width at or below sqrt(2)'s,
        # and each refined value is at least a quarter of its width wide, so
        # every later round refines it
        assert calls[0] <= sqrt2.width < 4 * calls[0]
        assert calls == [calls[0], calls[0] / 4]
        assert r is asked[2] and r.width < calls[1]

    def test_undecided_verdict_on_rationals_is_asked_once(self):
        # every width is 0, so no round can change a value
        asked = []
        with pytest.raises(InternalInvariantViolation, match="^rationals: no certificate after 512"):
            refine_until([RealRoot.rational(1), RealRoot.rational(Fraction(-2, 3))], asked.append, "rationals")
        assert len(asked) == 1


class TestInterval:
    def test_mul_signs(self):
        a = Interval(-2, 3)
        b = Interval(-1, 4)
        assert (a.mul(b).lo, a.mul(b).hi) == (-8, 12)

    def test_power_even_straddling_zero(self):
        p = Interval(-2, 1).power(2)
        assert (p.lo, p.hi) == (0, 4)

    def test_power_odd(self):
        p = Interval(-2, 1).power(3)
        assert (p.lo, p.hi) == (-8, 1)

    def test_reciprocal(self):
        r = Interval(2, 4).reciprocal()
        assert (r.lo, r.hi) == (Fraction(1, 4), Fraction(1, 2))
        with pytest.raises(ZeroDivisionError):
            Interval(-1, 1).reciprocal()

    def test_poly_evaluation_contains_truth(self):
        p = upoly(1, -3, -18, 0)
        iv = Interval(Fraction(59, 10), Fraction(61, 10))
        out = p.evaluate_interval(iv)
        assert out.contains(p.evaluate(6))


def test_format_decimal():
    assert format_decimal(Fraction(1, 3), 5) == "0.33333"
    assert format_decimal(Fraction(-7, 2), 2) == "-3.50"
    assert format_decimal(7, 0) == "7"


@pytest.mark.parametrize(
    "value, digits, text",
    [(Fraction(1, 8), 2, "0.13"), (Fraction(-1, 8), 2, "-0.12"), (Fraction(5, 2), 0, "3"), (Fraction(-5, 2), 0, "-2")],
)
def test_format_decimal_rounds_ties_half_up(value, digits, text):
    # the one rounding rule: RealRoot.decimal renders through it
    assert format_decimal(value, digits) == text
    assert RealRoot.rational(value).decimal(digits) == text


def test_floats_and_strings_are_not_exact_rationals():
    # Fraction(0.1) would be the binary fraction 3602879701896397/2^55
    sqrt2 = real_roots(upoly(1, 0, -2))[1]
    for call in (
        lambda: RealRoot.rational(0.1),
        lambda: RealRoot.rational("1/10"),
        lambda: sqrt2.scale(0.5),
        lambda: RealRoot.rational(3).scale("2"),
        lambda: upoly(1, 0, -2).scale_argument(0.1),
        lambda: upoly(1, 0, -2).scale_argument("1/10"),
        lambda: format_decimal(0.1, 20),
        lambda: format_decimal("0.1", 20),
        lambda: sqrt2 < 1.5,
    ):
        with pytest.raises(TypeError, match="^expected an exact rational, got (float|str)$"):
            call()


def test_negative_digits_raise_value_error():
    sqrt2 = real_roots(upoly(1, 0, -2))[1]
    for render in (lambda: format_decimal(1, -1), lambda: sqrt2.decimal(-1), lambda: RealRoot.rational(1).decimal(-2)):
        with pytest.raises(ValueError, match="^digits must be nonnegative$"):
            render()
