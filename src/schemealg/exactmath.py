"""Exact rational linear algebra and univariate real-root machinery.

Everything here works over ``fractions.Fraction`` (plain ``int`` is accepted
anywhere a rational is; integer values are kept as ``int`` internally, which
keeps the common all-integer paths fast).  Real algebraic numbers are either
exact rationals or Sturm-isolated roots of a squarefree integer polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .errors import DimensionMismatch, InternalInvariantViolation, SingularMatrix, ZeroPolynomial


def _num(x):
    """Normalize a scalar: integral Fractions collapse to int."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _sign(x):
    return (x > 0) - (x < 0)


def format_decimal(value, digits):
    """Exact decimal rendering of a rational, rounded to `digits` places."""
    v = Fraction(value)
    q = round(v * 10**digits)  # nearest integer, ties to even; exact
    sign = "-" if q < 0 else ""
    q = abs(q)
    ip, fp = divmod(q, 10**digits)
    if digits == 0:
        return f"{sign}{ip}"
    return f"{sign}{ip}.{str(fp).zfill(digits)}"


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------


class UniPoly:
    """Dense univariate polynomial over the rationals.

    Coefficients are stored ascending (index = degree); the zero polynomial
    stores an empty tuple and has degree -1.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = [_num(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    # -- construction -------------------------------------------------------

    @classmethod
    def constant(cls, v):
        return cls((v,))

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls((0,) * degree + (coeff,))

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        return f"UniPoly({list(self._c)!r})"

    def coeff(self, k):
        return self._c[k] if 0 <= k <= self.degree else 0

    def leading_coeff(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._c[-1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self._c), len(other._c))
        return UniPoly(
            tuple(self.coeff(k) + other.coeff(k) for k in range(n))
        )

    def __sub__(self, other):
        other = self._coerce(other)
        n = max(len(self._c), len(other._c))
        return UniPoly(
            tuple(self.coeff(k) - other.coeff(k) for k in range(n))
        )

    def __neg__(self):
        return UniPoly(tuple(-a for a in self._c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(a * other for a in self._c))
        other = self._coerce(other)
        if not self._c or not other._c:
            return UniPoly()
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return UniPoly(tuple(out))

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly((other,))
        raise TypeError(f"cannot combine UniPoly with {type(other).__name__}")

    def __divmod__(self, other):
        other = self._coerce(other)
        if not other._c:
            raise ZeroPolynomial("division by the zero polynomial")
        rem = list(self._c)
        dq = len(rem) - len(other._c)
        if dq < 0:
            return UniPoly(), self
        quo = [0] * (dq + 1)
        lc = other._c[-1]
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top:
                c = _num(Fraction(top, lc)) if lc != 1 else top
                quo[k] = c
                for j, b in enumerate(other._c):
                    rem[k + j] -= c * b
        return UniPoly(tuple(quo)), UniPoly(tuple(rem[: other.degree]))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        return UniPoly(tuple(k * a for k, a in enumerate(self._c) if k))

    def monic(self):
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return UniPoly(tuple(_num(Fraction(a, 1) / lc) for a in self._c))

    def evaluate(self, x):
        acc = 0
        for a in reversed(self._c):
            acc = acc * x + a
        return _num(acc)

    def evaluate_interval(self, iv):
        acc = Interval.point(0)
        for a in reversed(self._c):
            acc = acc.mul(iv).add(Interval.point(a))
        return acc

    # -- number-theoretic normal forms --------------------------------------

    def primitive(self):
        """Integer-coefficient associate with content 1 and positive lead."""
        if not self._c:
            return self
        den = 1
        for a in self._c:
            if isinstance(a, Fraction):
                den = den * a.denominator // math.gcd(den, a.denominator)
        ints = [int(a * den) for a in self._c]
        g = 0
        for a in ints:
            g = math.gcd(g, a)
        if ints[-1] < 0:
            g = -g
        return UniPoly(tuple(a // g for a in ints))

    def gcd(self, other):
        """Monic greatest common divisor (Euclid with primitive reduction)."""
        a, b = self, self._coerce(other)
        if not a._c:
            return b.monic() if b._c else b
        a, b = a.primitive(), b.primitive()
        while b._c:
            a, b = b, (a % b)
            if b._c:
                b = b.primitive()
        return a.monic()

    def squarefree_part(self):
        """Monic product of the distinct irreducible factors of self."""
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no squarefree part")
        if self.degree == 0:
            return UniPoly((1,))
        g = self.gcd(self.derivative())
        if g.degree == 0:
            return self.monic()
        return (self // g).monic()

    def is_squarefree(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial")
        return self.degree == 0 or self.gcd(self.derivative()).degree == 0

    def scale_argument(self, c):
        """Primitive integer polynomial whose roots are c times ours (c != 0)."""
        c = Fraction(c)
        if c == 0:
            raise ZeroDivisionError("scale factor must be nonzero")
        return UniPoly(
            tuple(a / c**k for k, a in enumerate(self._c))
        ).primitive()

    def cauchy_root_bound(self):
        """Rational B with every real root strictly inside (-B, B)."""
        lc = abs(self.leading_coeff())
        top = max((abs(Fraction(a)) for a in self._c[:-1]), default=Fraction(0))
        return 1 + top / lc

    # -- display ------------------------------------------------------------

    def render(self, var="x"):
        if not self._c:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            a = self.coeff(k)
            if a == 0:
                continue
            mag = abs(a)
            if k == 0:
                body = str(mag)
            else:
                pw = var if k == 1 else f"{var}^{k}"
                body = pw if mag == 1 else f"{mag}*{pw}"
            if not parts:
                parts.append(body if a > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if a > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# dense rational matrices
# ---------------------------------------------------------------------------


class QMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        data = tuple(tuple(_num(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        self.rows = data

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"QMatrix({[list(r) for r in self.rows]!r})"

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return QMatrix(tuple(zip(*self.rows))) if self.rows else self

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return QMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return QMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def scale(self, c):
        return QMatrix(tuple(tuple(a * c for a in r) for r in self.rows))

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        cols = other.transpose().rows
        return QMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in self.rows)
        )

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of rationals."""
        if self.ncols != len(vec):
            raise DimensionMismatch(f"{self.shape} applied to length-{len(vec)} vector")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def rref(self):
        """Reduced row-echelon form; returns (matrix, pivot column indices)."""
        m = [list(r) for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            pr = next((i for i in range(r, nr) if m[i][c] != 0), None)
            if pr is None:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            if pv != 1:
                m[r] = [_num(Fraction(x, 1) / pv) for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nr:
                break
        return QMatrix(m), tuple(pivots)

    def inverse(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.nrows
        aug = QMatrix(
            tuple(self.rows[i] + tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )
        red, pivots = aug.rref()
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return QMatrix(tuple(r[n:] for r in red.rows))

    def charpoly(self):
        """Characteristic polynomial det(xI - M) via Faddeev-LeVerrier, on
        plain row lists: A_1 = M, A_k = M (A_{k-1} + c_{k-1} I) with
        c_k = -tr(A_k) / k the coefficient of x^(n-k)."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("charpoly of a non-square matrix")
        n = self.nrows
        if n == 0:
            return UniPoly((1,))
        rows = self.rows
        coeffs = [0] * n + [1]  # ascending; x^n coefficient 1
        a = [list(r) for r in rows]
        c = _num(-Fraction(sum(a[i][i] for i in range(n))))
        coeffs[n - 1] = c
        for k in range(2, n + 1):
            for i in range(n):
                a[i][i] += c
            cols = tuple(zip(*a))
            a = [[sum(map(mul, row, col)) for col in cols] for row in rows]
            c = _num(-Fraction(sum(a[i][i] for i in range(n)), k))
            coeffs[n - k] = c
        return UniPoly(coeffs)


# ---------------------------------------------------------------------------
# rational interval arithmetic (closed intervals, outward exact bounds)
# ---------------------------------------------------------------------------


class Interval:
    """Closed rational interval [lo, hi]; arithmetic is exact, so enclosures
    are tight for single operations."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError("interval bounds out of order")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, v):
        return cls(v, v)

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return Fraction(self.lo + self.hi, 2)

    def contains(self, v):
        return self.lo <= v <= self.hi

    def add(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def mul(self, other):
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    def scale(self, c):
        return Interval(self.lo * c, self.hi * c) if c >= 0 else Interval(self.hi * c, self.lo * c)

    def power(self, n):
        if n == 0:
            return Interval.point(1)
        if n % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**n, self.hi**n)
        if self.hi <= 0:
            return Interval(self.hi**n, self.lo**n)
        return Interval(0, max(self.lo**n, self.hi**n))

    def reciprocal(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Interval(Fraction(1, 1) / self.hi, Fraction(1, 1) / self.lo)

    def intersect(self, other):
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# Sturm chains and real-root isolation
# ---------------------------------------------------------------------------


def _sturm_chain(p):
    """Sturm sequence of a squarefree primitive integer polynomial, with each
    remainder renormalized to a primitive integer polynomial (positive scaling
    only, so sign variations are preserved)."""
    chain = [p, p.derivative()]
    while chain[-1]._c:
        r = -(chain[-2] % chain[-1])
        if not r._c:
            break
        # divide by the positive content, keeping the sign of the remainder
        prim = r.primitive()
        if r.leading_coeff() < 0:
            prim = -prim
        chain.append(prim)
    return chain


def _sign_at(q, x):
    """Sign of q(x), for an integer polynomial q and a rational x = a/b
    (b > 0): the sign of b^n q(a/b), computed by integer Horner steps.
    Rational coefficients give the exact sign too, through Fraction steps."""
    a, b = x.numerator, x.denominator
    acc = 0
    bk = 1  # b^(n - k) at coefficient k
    for c in reversed(q._c):
        acc = acc * a + c * bk
        bk *= b
    return _sign(acc)


def _variations(chain, x):
    signs = []
    for q in chain:
        s = _sign_at(q, x)
        if s:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain, lo, hi):
    """Distinct real roots in (lo, hi); endpoints must not be roots of chain[0]."""
    return _variations(chain, lo) - _variations(chain, hi)


def _positive_divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _isolate(q):
    """Either ('rational', value) for the first rational root found, or
    ('intervals', [(lo, hi), ...]) isolating every (irrational) real root of q.

    q: squarefree primitive integer polynomial of degree >= 1.  Intervals are
    split at their midpoints by Sturm count until each holds one root and is
    narrower than 1/(|lc| + 1); a denominator b of lc then leaves at most one
    candidate a/b inside it, so one sign test per denominator decides whether
    the root is rational.
    """
    chain = _sturm_chain(q)
    bound = q.cauchy_root_bound()
    lc_divisors = _positive_divisors(q.leading_coeff())
    guarantee = Fraction(1, abs(q.leading_coeff()) + 1)
    stack = [(-bound, bound, _count_roots(chain, -bound, bound))]
    found = []
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1 and hi - lo < guarantee:
            for b in lc_divisors:
                a = math.floor(b * lo) + 1
                if a < b * hi and _sign_at(q, Fraction(a, b)) == 0:
                    return "rational", Fraction(a, b)
            found.append((lo, hi))
            continue
        mid = Fraction(lo + hi, 2)
        if _sign_at(q, mid) == 0:
            return "rational", mid
        nl = _count_roots(chain, lo, mid)
        stack.append((lo, mid, nl))
        stack.append((mid, hi, n - nl))
    return "intervals", sorted(found)


DEFAULT_PRECISION = Fraction(1, 10**30)


def real_roots(p, precision=DEFAULT_PRECISION):
    """All real roots of p, sorted ascending.

    p is reduced once to its primitive squarefree part.  Rational roots are
    identified exactly (denominator-of-leading-coefficient test) and divided
    out; the rest come back as isolating intervals, refined below
    `precision`, around the squarefree witness polynomial that is left.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    q = p.squarefree_part().primitive()
    roots = []
    while q.degree >= 1:
        kind, payload = _isolate(q)
        if kind == "rational":
            roots.append(RealRoot.rational(payload))
            q = (q // UniPoly((-payload, 1))).primitive()
        else:
            roots.extend(RealRoot.isolated(q, lo, hi).refine(precision) for lo, hi in payload)
            break
    roots.sort(key=_root_sort_key)
    return roots


def _root_sort_key(r):
    # Distinct roots coming out of one isolation run have disjoint intervals,
    # so midpoints order them correctly (rationals are points).
    return r.interval().midpoint()


# ---------------------------------------------------------------------------
# real algebraic numbers
# ---------------------------------------------------------------------------


class RealRoot:
    """A real algebraic number: an exact rational, or one isolated root of a
    squarefree integer polynomial.

    Isolated form invariants: the witness polynomial has exactly one root in
    the open interval (low, high), neither endpoint is a root, and the root is
    irrational.  Instances are immutable; `refine` returns a new value.
    """

    __slots__ = ("value", "low", "high", "poly")

    def __init__(self, value=None, low=None, high=None, poly=None):
        self.value = value
        self.low = low
        self.high = high
        self.poly = poly

    @classmethod
    def rational(cls, v):
        return cls(value=_num(Fraction(v)))

    @classmethod
    def isolated(cls, poly, low, high):
        return cls(value=None, low=low, high=high, poly=poly)

    @property
    def is_rational(self):
        return self.value is not None

    def interval(self):
        if self.is_rational:
            return Interval.point(self.value)
        return Interval(self.low, self.high)

    @property
    def width(self):
        return 0 if self.is_rational else self.high - self.low

    def _sign_low(self):
        # The witness changes sign once in (low, high), at the root, so its
        # sign at low is the same for every bisected interval.
        return _sign_at(self.poly, self.low)

    def _bisected(self, s_low):
        """The half of the interval holding the root; s_low is _sign_low()."""
        mid = Fraction(self.low + self.high, 2)
        # mid cannot be the root: the root is irrational
        if s_low != _sign_at(self.poly, mid):
            return RealRoot.isolated(self.poly, self.low, mid)
        return RealRoot.isolated(self.poly, mid, self.high)

    def refine(self, max_width):
        if self.is_rational or self.high - self.low < max_width:
            return self
        r = self
        s_low = self._sign_low()
        while r.high - r.low >= max_width:
            r = r._bisected(s_low)
        return r

    def is_root_of(self, p):
        """Whether p vanishes here: exact evaluation on a rational, else
        whether gcd(p, witness) has its one root in the isolating interval."""
        if self.is_rational:
            return _sign_at(p, self.value) == 0
        g = p.gcd(self.poly)
        return g.degree >= 1 and _count_roots(_sturm_chain(g.primitive()), self.low, self.high) == 1

    def scale(self, c):
        """c * self for a nonzero rational c."""
        c = Fraction(c)
        if self.is_rational:
            return RealRoot.rational(self.value * c)
        lo, hi = self.low * c, self.high * c
        if c < 0:
            lo, hi = hi, lo
        return RealRoot.isolated(self.poly.scale_argument(c), lo, hi)

    # -- comparisons --------------------------------------------------------

    def compare(self, other):
        """Trichotomy: -1, 0, or 1.  Exact (refines as needed)."""
        if not isinstance(other, RealRoot):
            other = RealRoot.rational(other)
        a, b = self, other
        if a.is_rational and b.is_rational:
            return _sign(a.value - b.value)
        if a.is_rational or b.is_rational:
            if a.is_rational:
                return -(b.compare(a))
            # a isolated, b rational: the root is irrational so never equal,
            # and inside the interval the witness has its sign at low exactly
            # left of the root
            q = b.value
            if q >= a.high:
                return -1
            if q <= a.low:
                return 1
            return 1 if _sign_at(a.poly, q) == a._sign_low() else -1
        # both isolated: decide equality via common roots of gcd in the overlap;
        # the gcd's Sturm chain is built once, when the intervals first overlap
        ra, rb = a, b
        chain = None
        while True:
            if ra.high <= rb.low:
                return -1
            if rb.high <= ra.low:
                return 1
            if chain is None:
                g = a.poly.gcd(b.poly)
                chain = _sturm_chain(g.primitive()) if g.degree >= 1 else []
                sa, sb = a._sign_low(), b._sign_low()
            # the intervals overlap, so max(lows) < min(highs)
            if chain and _count_roots(chain, max(ra.low, rb.low), min(ra.high, rb.high)) == 1:
                return 0
            ra, rb = ra._bisected(sa), rb._bisected(sb)

    def __eq__(self, other):
        if not isinstance(other, (RealRoot, int, Fraction)):
            return NotImplemented
        return self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    __hash__ = None  # equality is semantic; do not use as dict keys

    def decimal(self, digits=12):
        """Deterministic decimal rendering to `digits` places."""
        if self.is_rational:
            return format_decimal(self.value, digits)
        r = self.refine(Fraction(1, 10 ** (digits + 2)))
        return format_decimal(r.interval().midpoint(), digits)

    def __repr__(self):
        if self.is_rational:
            return f"RealRoot({self.value})"
        return f"RealRoot(~{self.decimal(6)})"


# ---------------------------------------------------------------------------
# certification by refinement
# ---------------------------------------------------------------------------


REFINE_ROUNDS = 512


def refine_until(values, verdict, layer):
    """Refine `values` (RealRoots) until `verdict` decides, and return its answer.

    Each round asks verdict(values) first; None means "undecided", and every
    value is then refined below the round's width (2^-8, a quarter of that
    the next round, and so on).  Any other answer is returned; the verdict may
    also raise.  Rational values are points that refinement leaves alone, so
    an interval verdict on them is exact and decides in the first round.
    Raises InternalInvariantViolation naming `layer` once the rounds run out.
    """
    values = list(values)
    width = Fraction(1, 2**8)
    for _ in range(REFINE_ROUNDS):
        answer = verdict(values)
        if answer is not None:
            return answer
        values = [v.refine(width) for v in values]
        width /= 4
    raise InternalInvariantViolation(
        f"{layer}: no certificate after {REFINE_ROUNDS} refinement rounds"
    )
