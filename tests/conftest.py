"""Shared test helpers: a tiny polynomial-literal parser, the Gauss-period
oracle for orbit schemes, the distinct orbit tensors, the two-class tensors,
the random tensors of the seeded fuzz, Hamming and Johnson scheme builders,
and scheme fixtures."""

import itertools
import math
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


def hamming(n, q):
    """H(n, q): words of length n over q letters, classed by Hamming distance."""
    from schemealg.scheme import scheme_from_relations

    words = list(itertools.product(range(q), repeat=n))
    return scheme_from_relations(
        [[sum(a != b for a, b in zip(x, y)) for y in words] for x in words]
    )


def distinct_orbit_tensors(max_m):
    """One orbit scheme per distinct tensor among coprime (m, r), 3 <= m <= max_m."""
    from schemealg.scheme import orbit_scheme

    tensors = {}
    for m in range(3, max_m + 1):
        for r in range(2, m):
            if math.gcd(r, m) == 1:
                s = orbit_scheme(m, r)
                tensors.setdefault(s.tensor.p, s)
    return list(tensors.values())


def random_tensor(rng):
    """A tensor on n <= 4 classes with entries in -1..3: one in five ragged,
    and half of the cubical ones with the class-0 slices of a scheme,
    p_0j^k = p_j0^k = delta_jk, so that some pass the axioms."""
    n = rng.randint(1, 4)
    if rng.random() < 0.2:
        return tuple(
            tuple(tuple(rng.randint(-1, 3) for _ in range(rng.randint(0, 4))) for _ in range(rng.randint(0, 4)))
            for _ in range(n)
        )
    p = [[[rng.randint(-1, 3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        for j in range(n):
            for k in range(n):
                p[0][j][k] = p[j][0][k] = int(j == k)
    return tuple(tuple(map(tuple, pi)) for pi in p)


def two_class_tensors(max_k):
    """Every d=2 tensor with valencies 1..max_k that passes the axioms:
    p_11^1 and p_11^2 are free, the row sums fix the rest."""
    from schemealg.errors import NotConstantIntersectionNumber
    from schemealg.scheme import IntersectionTensor

    out = []
    for k1 in range(1, max_k + 1):
        for k2 in range(1, max_k + 1):
            for a1 in range(k1):
                for a2 in range(k1 + 1):
                    b1, b2 = k1 - 1 - a1, k1 - a2  # p_12^1, p_12^2
                    p11, p12, p22 = (k1, a1, a2), (0, b1, b2), (k2, k2 - b1, k2 - 1 - b2)
                    p = (
                        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                        ((0, 1, 0), p11, p12),
                        ((0, 0, 1), p12, p22),
                    )
                    try:
                        IntersectionTensor(p)
                    except NotConstantIntersectionNumber:
                        continue
                    out.append(p)
    return out


def johnson(n, k):
    """J(n, k): k-subsets of an n-set, A ~ B in class k - |A & B|."""
    from schemealg.scheme import scheme_from_relations

    sets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    return scheme_from_relations([[k - len(a & b) for b in sets] for a in sets])


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
