"""Property tests: the integer root kernels of `exactmath` against a small
Fraction reference.

`_sturm_chain(a, b)` is the one remainder sequence, dividing with integer
pseudo-remainders: _sturm_chain(p, p') is the Sturm sequence of p, and
`UniPoly.gcd` is its last nonzero member made monic.  `_isolate` and
`RealRoot.refine` bisect with integer numerators over a common denominator.
The reference below does the same steps with `Fraction` remainders (its own
Euclid loop for the gcd) and `Fraction` midpoints, signs coming from
`Fraction` evaluation.  Both must return exactly the same chains, gcds and
intervals, on squarefree integer polynomials with rational roots, close
irrational pairs and leading coefficients up to 10^6.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from schemealg.exactmath import RealRoot, UniPoly, _isolate, _sturm_chain  # noqa: E402

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


def _ref_refine(q, lo, hi, width):
    s_low = _ref_sign(q, lo)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if _ref_sign(q, mid) != s_low:
            hi = mid
        else:
            lo = mid
    return lo, hi


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
def test_isolate_matches_the_fraction_reference(p):
    # the rational roots are divided out one at a time, as real_roots does
    q = p
    while q.degree >= 1:
        kind, payload = _isolate(q)
        assert (kind, payload) == _ref_isolate(q)
        if kind != "rational":
            break
        q = (q // UniPoly((-payload, 1))).primitive()


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
