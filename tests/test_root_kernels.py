"""Property tests: the integer kernels of `exactmath` and `polyring` against
a small Fraction reference.

`_sturm_chain(a, b)` is the one remainder sequence, dividing with integer
pseudo-remainders: _sturm_chain(p, p') is the Sturm sequence of p, and
`UniPoly.gcd` is its last nonzero member made monic.  `_isolate` bisects
with integer numerators over a common denominator and collects every
rational root in one walk; `real_roots` divides them all out and walks the
witness that is left once more.  `RealRoot.refine` reaches the cell that
bisection on the same grid would end in, by one walk (`_grid_cell`):
integer Newton steps, probes and grid bisection.  The common-root test of
`RealRoot.is_root_of` and `RealRoot.compare` is a sign change of the gcd.
`UniPoly.evaluate_interval` and `MPoly.evaluate_interval` step Horner's rule
and the term products in integers over the box scaled by its common
denominator.  The reference below does the same steps with `Fraction`
remainders (its own Euclid loop for the gcd), `Fraction` midpoints and
bisection only, an isolation that starts again after each rational root,
a Sturm count of the monic gcd as the common-root test, signs coming from
`Fraction` evaluation, and `Interval` arithmetic on the Fractions
themselves.  Both must return exactly the same chains, gcds, roots,
verdicts and enclosures, on squarefree integer polynomials with rational
roots, close irrational pairs and leading coefficients up to 10^6, on the
spectra of the orbit schemes, and on rational polynomials over point boxes
and boxes that straddle 0.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import distinct_orbit_tensors  # noqa: E402

from schemealg.exactmath import (  # noqa: E402
    DEFAULT_PRECISION,
    Interval,
    RealRoot,
    UniPoly,
    _isolate,
    _sturm_chain,
    real_roots,
)
from schemealg.fglm import _power_walk, _sparse_columns  # noqa: E402
from schemealg.polyring import Monomial, MPoly  # noqa: E402
from schemealg.structure_ideal import structure_basis  # noqa: E402

# ---------------------------------------------------------------------------
# the Fraction reference
# ---------------------------------------------------------------------------


def _ref_sign(q, x):
    v = q.evaluate(Fraction(x))
    return (v > 0) - (v < 0)


def _ref_sturm_chain(p):
    chain = [p, p.derivative()]
    while chain[-1]:
        r = -(chain[-2] % chain[-1])
        if not r:
            break
        prim = r.primitive()
        chain.append(-prim if r.leading_coeff() < 0 else prim)
    return chain


def _ref_gcd(a, b):
    if not a:
        return b.monic() if b else b
    a, b = a.primitive(), b.primitive()
    while b:
        a, b = b, (a % b).primitive()
    return a.monic()


def _ref_variations(chain, x):
    signs = [s for s in (_ref_sign(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_isolate(q):
    chain = _ref_sturm_chain(q)
    bound = q.cauchy_root_bound()
    lc = abs(q.leading_coeff())
    stack = [(-bound, bound)]
    found = []
    while stack:
        lo, hi = stack.pop()
        n = _ref_variations(chain, lo) - _ref_variations(chain, hi)
        if n == 0:
            continue
        if n == 1 and hi - lo < Fraction(1, lc + 1):
            a = math.floor(lc * lo) + 1
            if a < lc * hi and _ref_sign(q, Fraction(a, lc)) == 0:
                return "rational", Fraction(a, lc)
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if _ref_sign(q, mid) == 0:
            return "rational", mid
        stack.append((lo, mid))
        stack.append((mid, hi))
    return "intervals", sorted(found)


def _ref_evaluate_interval(p, iv):
    acc = Interval.point(0)
    for a in reversed(p.coeffs):
        acc = acc.mul(iv).add(Interval.point(a))
    return acc


def _ref_mpoly_evaluate_interval(f, intervals):
    acc = Interval.point(0)
    for m, c in f.terms.items():
        t = Interval.point(c)
        for iv, e in zip(intervals, m):
            if e:
                t = t.mul(iv.power(e))
        acc = acc.add(t)
    return acc


def _ref_refine(q, lo, hi, width):
    s_low = _ref_sign(q, lo)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if _ref_sign(q, mid) != s_low:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _ref_real_roots(p):
    # one rational root at a time is divided out and isolation starts again
    q, roots = p, []
    while q.degree >= 1:
        kind, payload = _ref_isolate(q)
        if kind != "rational":
            for lo, hi in payload:
                roots.append((None, *_ref_refine(q, lo, hi, DEFAULT_PRECISION), q.coeffs))
            break
        roots.append((payload, payload, payload, None))
        q = (q // UniPoly((-payload, 1))).primitive()
    return sorted(roots, key=lambda r: r[1] + r[2])


def _ref_common_root_in(p, q, lo, hi):
    # a Sturm count of 1 for the monic gcd
    g = _ref_gcd(p, q)
    chain = _ref_sturm_chain(g.primitive())
    return _ref_variations(chain, lo) - _ref_variations(chain, hi) == 1


def _ref_compare(x, y):
    if x.is_rational and y.is_rational:
        return (x.value > y.value) - (x.value < y.value)
    lo, hi = max(x.low, y.low), min(x.high, y.high)
    if lo < hi and _ref_common_root_in(x.poly, y.poly, lo, hi):
        return 0
    (a, b), (c, d) = (x.low, x.high), (y.low, y.high)
    while b > c and d > a:  # halve each irrational interval until they are apart
        if not x.is_rational:
            a, b = _ref_refine(x.poly, a, b, b - a)
        if not y.is_rational:
            c, d = _ref_refine(y.poly, c, d, d - c)
    return -1 if b <= c else 1


# ---------------------------------------------------------------------------
# squarefree integer polynomials
# ---------------------------------------------------------------------------


def _rational_root(max_lead):
    return st.builds(
        lambda a, b: UniPoly((-a, b)),
        st.integers(-(10**6), 10**6),
        st.integers(1, max_lead),
    )


def _close_pair(max_n):
    # (n x - a)^2 - k: the roots a/n +- sqrt(k)/n, a pair 2 sqrt(k)/n apart
    return st.builds(
        lambda n, a, k: UniPoly((a * a - k, -2 * a * n, n * n)),
        st.integers(1, max_n),
        st.integers(-(10**4), 10**4),
        st.sampled_from((2, 3, 5, 6, 7, 10)),
    )


_monic_factor = st.one_of(
    _rational_root(1),
    _close_pair(1),
    st.lists(st.integers(-20, 20), min_size=1, max_size=3).map(lambda c: UniPoly((*c, 1))),
)
# one factor carries the leading coefficient, up to 10^6
_lead_factor = st.one_of(_rational_root(10**6), _close_pair(1000))
_factor = st.one_of(_lead_factor, _monic_factor)


@st.composite
def squarefree_polys(draw):
    p = draw(_lead_factor)
    for f in draw(st.lists(_monic_factor, max_size=3)):
        p = p * f
    p = p.primitive()
    assume(_ref_gcd(p, p.derivative()).degree == 0)
    return p


KERNEL_SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@KERNEL_SETTINGS
@given(squarefree_polys())
# chains with a step whose degree drops by 2 under a negative leading
# coefficient: a signed lc^(delta+1) there would flip the member's sign
@example(UniPoly((1, 2, 0, 0, 1)))
@example(UniPoly((4, -1, -1, 3, 0, 0, 1)))
def test_sturm_chain_matches_the_fraction_reference(p):
    assert [q.coeffs for q in _sturm_chain(p, p.derivative())] == [q.coeffs for q in _ref_sturm_chain(p)]


@KERNEL_SETTINGS
@given(squarefree_polys(), squarefree_polys(), _factor)
def test_gcd_matches_the_fraction_reference(p, q, common):
    # a shared factor, so the gcd is not always 1
    a, b = p * common, q * common
    assert a.gcd(b) == _ref_gcd(a, b)
    assert p.gcd(q) == _ref_gcd(p, q)


@settings(KERNEL_SETTINGS, max_examples=30)
@given(squarefree_polys())
@example(UniPoly((0, -2, 0, 1)))  # x^3 - 2x: 0 is the first midpoint
# (x - 1)(x + 1)(2x - 1)(x^2 - 2): several rational roots, one of them dyadic
@example(UniPoly((-1, 0, 1)) * UniPoly((-1, 2)) * UniPoly((-2, 0, 1)))
# x(x - 1)(x + 1)(x - 2)(x + 2): every root rational, a witness of degree 0
@example(UniPoly((0, 1)) * UniPoly((-1, 0, 1)) * UniPoly((-4, 0, 1)))
def test_isolate_matches_the_fraction_reference(p):
    # one walk collects the rational roots, and the witness left after
    # dividing them all out gives the same cells as the restart loop
    want = _ref_real_roots(p)
    got = [(r.value, r.low, r.high, r.poly and r.poly.coeffs) for r in real_roots(p)]
    assert got == want
    # the walk of p itself isolates each irrational root once: a midpoint
    # that is a root leaves no interval ending at it
    rationals, intervals = _isolate(p, _sturm_chain(p, p.derivative()))
    assert sorted(rationals) == [r[0] for r in want if r[0] is not None]
    assert len(rationals) + len(intervals) == len(want)


@settings(KERNEL_SETTINGS, max_examples=30)
@given(squarefree_polys(), squarefree_polys(), _factor)
def test_common_root_test_matches_the_sturm_count_of_the_gcd(p, q, common):
    a, b = p * common, q * common
    roots_a, roots_b = real_roots(a), real_roots(b)
    for x in roots_a + roots_b:
        for poly in (a, b):
            if x.is_rational:
                want = _ref_sign(poly, x.value) == 0
            else:
                want = _ref_common_root_in(poly, x.poly, x.low, x.high)
            assert x.is_root_of(poly) is want
        assert x.is_root_of(UniPoly()) is True
        assert x.is_root_of(UniPoly((7,))) is False
    for x in roots_a:
        for y in roots_b:
            want = _ref_compare(x, y)
            assert (x.compare(y), y.compare(x)) == (want, -want)


@settings(KERNEL_SETTINGS, max_examples=20)
@given(squarefree_polys(), st.integers(0, 120))
def test_refine_matches_the_fraction_reference(p, exponent):
    q = p
    while q.degree >= 1:
        kind, payload = _ref_isolate(q)
        if kind != "rational":
            break
        q = (q // UniPoly((-payload, 1))).primitive()
    assume(q.degree >= 1)
    widths = (Fraction(1, 2**exponent), Fraction(1, 10**30), Fraction(3, 7))
    for lo, hi in payload:
        root = RealRoot.isolated(q, lo, hi)
        # a width equal to the interval's still bisects it
        for w in (*widths, hi - lo):
            r = root.refine(w)
            if hi - lo < w:
                assert r is root
            assert (r.low, r.high) == _ref_refine(q, lo, hi, w)
            # refining further continues from the refined interval
            r2 = r.refine(w / 5)
            assert (r2.low, r2.high) == _ref_refine(q, r.low, r.high, w / 5)


def test_refine_lands_on_the_bisection_cell_on_the_orbit_spectra():
    # every irrational eigenvalue of the 53 distinct orbit tensors with
    # m <= 24, from its isolating interval (the long refinements that
    # real_roots makes) and from its spectrum value (already below 10^-30)
    widths = (Fraction(1, 2**8), Fraction(1, 2**100), Fraction(1, 10**30))
    schemes = distinct_orbit_tensors(24)
    assert len(schemes) == 53
    minpolys = set()
    for s in schemes:
        columns = _sparse_columns(structure_basis(s))
        minpolys.update(_power_walk(columns[i])[0] for i in range(1, s.d + 1))
    roots = 0
    for p in minpolys:
        for value in real_roots(p):
            if value.is_rational:
                continue
            rationals, intervals = _isolate(value.poly, _sturm_chain(value.poly, value.poly.derivative()))
            assert rationals == []
            (lo, hi), = [(a, b) for a, b in intervals if a <= value.low and value.high <= b]
            # widths that land at levels 1-6 from the isolating interval,
            # across the switch from bisection alone to Newton steps
            levels = tuple((hi - lo) * 3 / 2 ** (k + 1) for k in range(1, 7))
            for w in widths + levels:
                for a, b in ((lo, hi), (value.low, value.high)):
                    r = RealRoot.isolated(value.poly, a, b).refine(w)
                    assert (r.low, r.high) == _ref_refine(value.poly, a, b, w)
            roots += 1
    assert (len(minpolys), roots) == (54, 154)


_rationals = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6),
    st.sampled_from((1, 2, 3, 7, 2**40, 10**12, 7 * 2**40)),
)


@st.composite
def _intervals(draw):
    kind = draw(st.sampled_from(("point", "straddle", "any")))
    if kind == "point":
        return Interval.point(draw(_rationals))
    if kind == "straddle":  # even powers of it take the 0 branch of Interval.power
        return Interval(-abs(draw(_rationals)), abs(draw(_rationals)))
    return Interval(*sorted((draw(_rationals), draw(_rationals))))


@KERNEL_SETTINGS
@given(st.lists(_rationals | st.just(Fraction(0)), max_size=7), _intervals())
def test_univariate_evaluate_interval_matches_the_fraction_reference(coeffs, iv):
    # all-zero coefficient lists give the zero polynomial
    p = UniPoly(coeffs)
    got, want = p.evaluate_interval(iv), _ref_evaluate_interval(p, iv)
    assert (got.lo, got.hi) == (want.lo, want.hi)


@KERNEL_SETTINGS
@given(
    st.integers(1, 4).flatmap(
        lambda nv: st.tuples(
            st.just(nv),
            # exponents 0..4, 0 included: a variable absent from a term
            st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * nv), _rationals), max_size=6),
            st.lists(_intervals(), min_size=nv, max_size=nv),
        )
    )
)
def test_multivariate_evaluate_interval_matches_the_fraction_reference(case):
    nv, terms, box = case
    f = MPoly(nv, [(Monomial(m), c) for m, c in terms])
    got, want = f.evaluate_interval(box), _ref_mpoly_evaluate_interval(f, box)
    assert (got.lo, got.hi) == (want.lo, want.hi)
