"""Exact rational linear algebra and univariate real-root machinery.

Everything here works over ``fractions.Fraction`` (plain ``int`` is accepted
anywhere a rational is; integer values are kept as ``int`` internally, which
keeps the common all-integer paths fast).  Real algebraic numbers are either
exact rationals or Sturm-isolated roots of a squarefree integer polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
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
    """Exact decimal rendering of a rational, rounded to `digits` places,
    ties half up (toward +infinity).  Raises ValueError when digits < 0, and
    TypeError when value is not an int or a Fraction."""
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    q = (2 * 10**digits * _num(value) + 1) // 2  # floor(v * 10^digits + 1/2)
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

    def leading_coeff(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self._c[-1]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return UniPoly(a + b for a, b in zip_longest(self._c, other._c, fillvalue=0))

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __neg__(self):
        return UniPoly(tuple(-a for a in self._c))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(a * other for a in self._c))
        other = self._coerce(other)
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
        """Enclosure of self over the Interval iv by Horner's rule in Interval
        arithmetic, stepped in integers: with iv = X/D (`_integer_box`) and
        coefficients A_k/C, the k-th Horner value times C*D^(n-k) is the
        integer interval acc*X + A_k*D^(n-k), so only the result is divided,
        by C*D^n.  Scaling by a positive constant keeps every min and max, so
        the enclosure is the one the same steps give over Fractions."""
        den, (x,) = _integer_box((iv,))
        cden, coeffs = _integers(self._c)
        acc, pw = Interval.point(0), 1
        for a in reversed(coeffs):
            acc = acc.mul(x).add(Interval.point(a * pw))
            pw *= den
        q = cden * den ** max(self.degree, 0)
        return Interval(Fraction(acc.lo, q), Fraction(acc.hi, q))

    # -- number-theoretic normal forms --------------------------------------

    def primitive(self):
        """Integer-coefficient associate with content 1 and positive lead."""
        if not self._c:
            return self
        _, ints = _integers(self._c)
        g = math.gcd(*ints)
        if ints[-1] < 0:
            g = -g
        return UniPoly(tuple(a // g for a in ints))

    def gcd(self, other):
        """Monic greatest common divisor: the last nonzero member of
        `_sturm_chain` of the primitive associates, made monic (0 if none)."""
        chain = _sturm_chain(self.primitive(), self._coerce(other).primitive())
        g = chain[-1] or chain[-2]
        return g.monic() if g else g

    def squarefree_part(self):
        """Monic product of the distinct irreducible factors of self."""
        if not self._c:
            raise ZeroPolynomial("zero polynomial has no squarefree part")
        return (self // self.gcd(self.derivative())).monic()

    def is_squarefree(self):
        if not self._c:
            raise ZeroPolynomial("zero polynomial")
        return self.gcd(self.derivative()).degree == 0

    def scale_argument(self, c):
        """Primitive integer polynomial whose roots are c times ours (c != 0)."""
        c = Fraction(_num(c))
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
        powers = [None, var] + [f"{var}^{k}" for k in range(2, len(self._c))]
        return _render_terms((a, powers[k]) for k, a in reversed(list(enumerate(self._c))) if a)


def _render_terms(terms):
    """Join (coefficient, monomial text or None for 1) pairs, in print order,
    as signed terms: "-2*x^2 + x - 3"; "0" when there are none."""
    parts = []
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if mono is None else mono if mag == 1 else f"{mag}*{mono}"
        sign = ("+ " if c > 0 else "- ") if parts else ("" if c > 0 else "-")
        parts.append(sign + body)
    return " ".join(parts) or "0"


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
        return self + other.scale(-1)

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


def _reduce_row(echelon, w, n):
    """Reduce the integer vector `w` over its first n entries (its head)
    against `echelon`, a dict pivot -> integer row whose entries before the
    pivot are 0.  Returns (row, pivot): the remainder divided by its content
    and the index of its first nonzero head entry, or the remainder and None
    when the head reduced to 0.

    Each step is fraction-free, w <- a*w - c*v for the row v at w's first
    nonzero head entry c (a the pivot entry of v), so the remainder is an
    integer combination of w and the echelon rows; entries past n are carried
    through the same steps and record that combination when they start as a
    unit vector."""
    for p in range(n):
        c = w[p]
        if not c:
            continue
        v = echelon.get(p)
        if v is None:
            g = math.gcd(*w)
            return tuple(x // g for x in w), p
        a = v[p]
        w = [a * x - c * y for x, y in zip(w, v)]
        g = math.gcd(*w)
        if g > 1:
            w = [x // g for x in w]
    return tuple(w), None


def _integers(xs):
    """(den, ints): the least common denominator of the rationals xs and the
    integers den * x, in order."""
    xs = tuple(xs)
    den = math.lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _integer_box(intervals):
    """(den, box): the least common denominator of the endpoints of the
    Intervals and the integer Intervals den * iv, in order."""
    den, ends = _integers(x for iv in intervals for x in (iv.lo, iv.hi))
    return den, [Interval(lo, hi) for lo, hi in zip(ends[::2], ends[1::2])]


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


def _pseudo_remainder(a, b):
    """|lc(b)|^(deg a - deg b + 1) * a mod b, for integer coefficient tuples
    (ascending, b nonzero): a positive multiple of the remainder, so it has
    the remainder's signs, found with integer steps only.  a itself when
    deg a < deg b."""
    lc = b[-1]
    m, sgn = abs(lc), _sign(lc)
    db = len(b) - 1
    rem = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        c = rem.pop() * sgn  # the x^(k + db) term, cancelled by m*top - c*lc = 0
        rem = [m * x for x in rem]
        if c:
            for j in range(db):
                rem[k + j] -= c * b[j]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def _sturm_chain(a, b):
    """The one remainder sequence: a, b, then minus the pseudo-remainder of
    the last two, made primitive by a positive scaling (so sign variations
    are kept), until it is 0.  Its last nonzero member is an associate of
    gcd(a, b), and _sturm_chain(p, p') is the Sturm sequence of a squarefree p."""
    chain = [a, b]
    while chain[-1]._c:
        r = UniPoly(_pseudo_remainder(chain[-2]._c, chain[-1]._c))
        if not r._c:
            break
        # divide by the positive content, keeping the sign of -remainder
        prim = r.primitive()
        chain.append(-prim if r.leading_coeff() > 0 else prim)
    return chain


def _sign_num(coeffs, a, b):
    """Sign of q(a/b), for the ascending coefficients of an integer
    polynomial q and integers a, b with b > 0: the sign of b^n q(a/b),
    computed by integer Horner steps.  Rational coefficients give the exact
    sign too, through Fraction steps."""
    acc = 0
    bk = 1  # b^(n - k) at coefficient k
    for c in reversed(coeffs):
        acc = acc * a + c * bk
        bk *= b
    return _sign(acc)


def _sign_at(q, x):
    """Sign of q(x) for a rational x (see _sign_num)."""
    return _sign_num(q._c, x.numerator, x.denominator)


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k, for integer coefficients and an integer x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _grid_cell(big, lo, hi, gap):
    """The left end x of the cell [x, x + gap] of the grid lo + gap Z across
    which the integer polynomial `big` changes sign, given a bracket [lo, hi]
    of grid points at least two cells apart that holds its only root there,
    an irrational one.

    Across more than 16 cells, integer Newton steps narrow the bracket
    first.  They start at its midpoint, keep the bracket by the sign of each
    iterate, replace a step that would leave it by its midpoint, and stop
    once a step is at most a cell wide: within about 2 log2 log2 of the cell
    count once a few halvings put x near the root.  The bracket is then
    snapped outward to the grid, which keeps the signs at its ends, and the
    cell of the last iterate is probed, then its neighbour on the root's
    side, each clamped one cell inside the bracket.  Grid bisection of what
    is left ends the walk.  Every probe keeps the sign change inside the
    bracket, so a poor Newton guess costs steps, never a wrong cell.  Across
    16 cells or fewer, bisection takes at most four evaluations, as many as
    the shortest Newton walk (midpoint, slope, two probes), so it runs
    alone."""
    s_low = _sign(_horner(big, lo))
    if hi - lo > 16 * gap:
        slope = [k * c for k, c in enumerate(big)][1:]
        start, x = lo, (lo + hi) // 2
        for _ in range(2 * ((hi - lo) // gap).bit_length().bit_length() + 8):
            value = _horner(big, x)
            if _sign(value) == s_low:  # x is not the root: the root is irrational
                lo = x
            else:
                hi = x
            d = _horner(slope, x)
            step = value // d if d else x - lo + 1  # P'(x) = 0: a step out of the bracket
            if lo <= x - step <= hi:
                x -= step
            else:
                step, x = hi - lo, (lo + hi) // 2
            if abs(step) <= gap:
                break
        lo = start + (lo - start) // gap * gap
        hi = start - (start - hi) // gap * gap
        x = start + (x - start) // gap * gap
        for _ in range(2):
            if hi - lo <= gap:
                break
            x = min(max(x, lo + gap), hi - gap)
            if _sign(_horner(big, x)) == s_low:
                lo, x = x, x + gap
            else:
                hi, x = x, x - gap
    while hi - lo > gap:
        x = lo + (hi - lo) // (2 * gap) * gap
        if _sign(_horner(big, x)) == s_low:
            lo = x
        else:
            hi = x
    return lo


def _variations(chain, a, b):
    """(V, s) at a/b (integers, b > 0): the chain's sign variations V, zeros
    skipped, and the sign s of its first member, from one pass."""
    signs = [_sign_num(q._c, a, b) for q in chain]
    nonzero = [s for s in signs if s]
    return sum(1 for x, y in zip(nonzero, nonzero[1:]) if x != y), signs[0]


def _common_root_in(p, q, lo, hi):
    """Whether p and q have a common root in (lo, hi), for q squarefree with
    at most one root there and neither end a root, as when q is the witness
    of a root isolated around (lo, hi).  Their gcd g divides q, so it has at
    most one root there, a simple one, there exactly when g changes sign."""
    g = _sturm_chain(p.primitive(), q.primitive())[-1]  # q is not 0
    return _sign_at(g, lo) != _sign_at(g, hi)


def _isolate(q, chain):
    """(rationals, intervals): every rational real root of q and the sorted
    isolating intervals (lo, hi) of the others, from one walk.

    q: squarefree primitive integer polynomial; chain: _sturm_chain(q, q').
    Intervals are split at their midpoints by Sturm count until each holds
    one root and is narrower than 1/(L + 1), L = |lc|.  A rational root a/b
    has b | L, so L times it is an integer in (L*lo, L*hi), an interval
    shorter than 1: one sign test at the only candidate, (floor(L*lo) + 1)/L,
    decides whether the root is rational.  A midpoint c that is a root is
    recorded and both halves kept: V(c-) = V(c) + 1 = V(c+) + 1.

    An interval is kept as integers (a, b, den, va, vb): the endpoints a/den
    and b/den over one common denominator, doubled at each split, and the
    chain's sign variations at them, so a split evaluates the chain at its
    midpoint only, and that one pass gives q's sign there (q is chain[0]).
    Fractions are built only for the roots returned.
    """
    bound = q.cauchy_root_bound()
    lc = abs(q.leading_coeff())
    top, den = bound.numerator, bound.denominator
    stack = [(-top, top, den, _variations(chain, -top, den)[0], _variations(chain, top, den)[0])]
    rationals, intervals = [], []
    while stack:
        a, b, den, va, vb = stack.pop()
        n = va - vb
        if n == 0:
            continue
        if n == 1 and (b - a) * (lc + 1) < den:
            c = lc * a // den + 1
            if c * den < lc * b and _sign_num(q._c, c, lc) == 0:
                rationals.append(Fraction(c, lc))
            else:
                intervals.append((Fraction(a, den), Fraction(b, den)))
            continue
        mid, den = a + b, 2 * den
        vm, sign = _variations(chain, mid, den)
        at_root = sign == 0
        if at_root:
            rationals.append(Fraction(mid, den))
        stack.append((2 * a, mid, den, va, vm + at_root))
        stack.append((mid, 2 * b, den, vm, vb))
    return rationals, sorted(intervals)


DEFAULT_PRECISION = Fraction(1, 10**30)


def real_roots(p, precision=DEFAULT_PRECISION):
    """All real roots of p, sorted ascending.

    p is reduced to its primitive squarefree part q, which `_isolate` walks
    once.  When irrational roots are left, the rational ones are divided out
    and the witness left is walked once more, so that its isolating
    intervals are cells of its own grid; they are refined below `precision`,
    and on while a closed cell holds a rational root.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot take roots of the zero polynomial")
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    q = p.primitive()
    chain = _sturm_chain(q, q.derivative())
    if chain[-1].degree > 0:  # the gcd of q and q'
        q = (q // chain[-1]).primitive()
        chain = _sturm_chain(q, q.derivative())
    rationals, intervals = _isolate(q, chain)
    if rationals and intervals:
        q //= math.prod(UniPoly((-r.numerator, r.denominator)) for r in rationals)  # primitive: Gauss
        _, intervals = _isolate(q, _sturm_chain(q, q.derivative()))
    roots = [RealRoot.rational(r) for r in rationals]
    for lo, hi in intervals:
        r = RealRoot.isolated(q, lo, hi).refine(precision)
        while any(r.low <= a <= r.high for a in rationals):  # a is not a root of q
            r = r.refine(r.width)
        roots.append(r)
    # The irrational cells come from one walk of q (interiors disjoint) and
    # hold no rational root, so midpoints order the roots correctly.
    roots.sort(key=lambda r: r.interval().midpoint())
    return roots


# ---------------------------------------------------------------------------
# real algebraic numbers
# ---------------------------------------------------------------------------


class RealRoot:
    """A real algebraic number: an exact rational, or one isolated root of a
    squarefree integer polynomial.

    A rational v is the point interval low = high = value = v, with no witness.
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
        v = _num(v)
        return cls(value=v, low=v, high=v)

    @classmethod
    def isolated(cls, poly, low, high):
        return cls(value=None, low=low, high=high, poly=poly)

    @property
    def is_rational(self):
        return self.value is not None

    def interval(self):
        return Interval(self.low, self.high)

    @property
    def width(self):
        return self.high - self.low

    def refine(self, max_width):
        """The root in the first cell of bisection at dyadic midpoints that
        is narrower than max_width (self when it already is, or is rational).

        The endpoints are kept as integer numerators a, b over a common
        denominator den, so the bisections walk the grid of cells of width
        (b - a)/(den 2^k) anchored at a, and end at level N, the least one
        narrower than max_width, in the one cell that holds the root.
        `_grid_cell` walks to that cell at its scale S = den 2^N, from the
        bracket [a 2^N, b 2^N] with cells b - a wide: the witness scaled to
        C_k = c_k S^(n-k) has at x/S the sign of the integer sum C_k x^k."""
        if self.is_rational or self.high - self.low < max_width:
            return self
        den, (a, b) = _integers((self.low, self.high))
        gap = b - a
        top, bottom = gap * max_width.denominator, max_width.numerator * den
        level = max(top.bit_length() - bottom.bit_length(), 0)
        while top >= bottom << level:
            level += 1
        big, pw = [], 1
        for j, c in enumerate(reversed(self.poly._c)):  # j = n - k
            big.append(c * pw << level * j)
            pw *= den
        x = _grid_cell(big[::-1], a << level, b << level, gap)
        den <<= level
        return RealRoot.isolated(self.poly, Fraction(x, den), Fraction(x + gap, den))

    def is_root_of(self, p):
        """Whether p vanishes here: exact evaluation on a rational, else
        whether p and the witness have a common root in the isolating
        interval (`_common_root_in`)."""
        if self.is_rational:
            return _sign_at(p, self.value) == 0
        return _common_root_in(p, self.poly, self.low, self.high)

    def scale(self, c):
        """c * self for a nonzero rational c."""
        c = _num(c)
        if self.is_rational:
            return RealRoot.rational(self.value * c)
        iv = self.interval().scale(c)
        return RealRoot.isolated(self.poly.scale_argument(c), iv.lo, iv.hi)

    # -- comparisons --------------------------------------------------------

    def compare(self, other):
        """Trichotomy: -1, 0, or 1, exact.  Two rationals compare by value.
        Otherwise the values are equal exactly when the witnesses have a
        common root in the open overlap of the intervals (`_common_root_in`),
        and are halved until apart when not.  A rational is a point, which has
        no open overlap and which `refine` keeps as it is."""
        if not isinstance(other, RealRoot):
            other = RealRoot.rational(other)
        a, b = self, other
        if a.is_rational and b.is_rational:
            return _sign(a.value - b.value)
        lo, hi = max(a.low, b.low), min(a.high, b.high)
        if lo < hi and _common_root_in(a.poly, b.poly, lo, hi):
            return 0
        while a.high > b.low and b.high > a.low:
            # refining to the current width halves each interval once
            a, b = a.refine(a.width), b.refine(b.width)
        return -1 if a.high <= b.low else 1

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
        """Decimal rendering to `digits` places, correctly rounded by
        `format_decimal`: the interval is narrowed until both ends give the
        same text (at once on a rational, whose ends are equal)."""
        r = self
        while (text := format_decimal(r.low, digits)) != format_decimal(r.high, digits):
            r = r.refine(min(r.width / 2, Fraction(1, 100 * 10**digits)))
        return text

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

    The verdict is asked of the values as given; while it answers None
    ("undecided"), the values are refined below the next of the widths
    2^-8, 2^-10, 2^-12, ... and it is asked again, REFINE_ROUNDS times in
    all at most.  Any other answer is returned; the verdict may also raise.
    A width above every value's width is skipped but counts as a round:
    `refine` would return every value as it is (one already narrower, and a
    rational always), and the verdict, a function of the values alone,
    would answer as before.  Rational values are points, so an interval
    verdict on them is exact and decides at once.
    Raises InternalInvariantViolation naming `layer` once the rounds run out.
    """
    values = list(values)
    widths = (Fraction(1, 2 ** (8 + 2 * r)) for r in range(REFINE_ROUNDS - 1))
    while (answer := verdict(values)) is None:
        widest = max((v.width for v in values), default=0)
        width = next((w for w in widths if w <= widest), None)
        if width is None:
            raise InternalInvariantViolation(
                f"{layer}: no certificate after {REFINE_ROUNDS} refinement rounds"
            )
        values = [v.refine(width) for v in values]
    return answer
