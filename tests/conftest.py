"""Shared test helpers: a tiny polynomial-literal parser, the Gauss-period
oracle for orbit schemes, and scheme fixtures."""

from fractions import Fraction

import pytest

from schemealg.polyring import Monomial, MPoly


def parse_poly(text, nvars):
    """Parse literals like 'x1^2*x2 - 3*x1 + 1/2' into an MPoly.

    Strictly for tests: factors are separated by '*', variables written x<i>,
    integer or p/q coefficients, no parentheses.
    """
    cleaned = text.replace(" ", "").replace("-", "+-")
    poly = MPoly.zero(nvars)
    for chunk in cleaned.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign, chunk = -1, chunk[1:]
        coeff = Fraction(1)
        exps = [0] * nvars
        for factor in chunk.split("*"):
            if factor.startswith("x"):
                if "^" in factor:
                    v, e = factor[1:].split("^")
                    exps[int(v)] += int(e)
                else:
                    exps[int(factor[1:])] += 1
            else:
                coeff *= Fraction(factor)
        poly = poly + MPoly(nvars, {Monomial(exps): sign * coeff})
    return poly


def parse_basis(texts, nvars):
    return [parse_poly(t, nvars) for t in texts]


@pytest.fixture
def poly():
    return parse_poly


def gauss_period_hits(s, ct):
    """Match the characters of the orbit scheme `s` on Z_m against the
    character table `ct`: character a has, in class i, the Gauss period
    sum over x in class i of cos(2 pi a x / m), computed to 40 digits with
    mpmath.  Asserts that the certified P intervals of exactly one row hold
    each character's periods, and returns how many characters hit each row."""
    mpmath = pytest.importorskip("mpmath")
    m = s.order
    classes = [[x for x in range(m) if s.partition.labels[x][0] == i] for i in range(s.d + 1)]
    with mpmath.workdps(45):
        tol = mpmath.mpf(10) ** -40

        def mp(q):
            q = Fraction(q)
            return mpmath.mpf(q.numerator) / q.denominator

        def encloses(c, v):
            iv = c.interval()
            return mp(iv.lo) - tol <= v <= mp(iv.hi) + tol

        hits = [0] * ct.size
        for a in range(m):
            periods = [mpmath.fsum(mpmath.cos(2 * mpmath.pi * a * x / m) for x in o) for o in classes]
            rows = [nu for nu, row in enumerate(ct.P) if all(map(encloses, row, periods))]
            assert len(rows) == 1, f"character {a} of Z_{m} matches rows {rows}"
            hits[rows[0]] += 1
    return hits


# --- scheme fixtures --------------------------------------------------------

K3_LABELS = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def hamming_labels(n=3):
    """Distance classes of binary n-tuples (the n-cube)."""
    points = [tuple((w >> i) & 1 for i in range(n)) for w in range(2**n)]
    return tuple(
        tuple(sum(a != b for a, b in zip(p, q)) for q in points) for p in points
    )


@pytest.fixture(scope="session")
def k3_scheme():
    from schemealg.scheme import scheme_from_relations

    return scheme_from_relations(K3_LABELS)


@pytest.fixture(scope="session")
def ex1_scheme():
    from schemealg.scheme import orbit_scheme

    return orbit_scheme(9, 2)


@pytest.fixture(scope="session")
def ex2_scheme():
    from schemealg.scheme import orbit_scheme

    return orbit_scheme(8, 3)


@pytest.fixture(scope="session")
def hamming_scheme():
    from schemealg.scheme import scheme_from_relations

    return scheme_from_relations(hamming_labels(3))
