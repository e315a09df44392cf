"""Sparse multivariate polynomials over Q, monomial orders, and reduction.

Monomials are exponent tuples; polynomials are monomial -> coefficient maps.
Only what the structure-ideal pipeline needs is implemented: ring arithmetic,
deterministic normal forms, and the Buchberger criterion as a *checker*.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, ZeroPolynomial
from .exactmath import Interval, UniPoly, _integer_box, _integers, _num, _render_terms


class Monomial(tuple):
    """An exponent vector.  Behaves as a tuple; arithmetic is explicit."""

    __slots__ = ()

    @property
    def degree(self):
        return sum(self)

    def is_one(self):
        return not any(self)

    def mul(self, other):
        return Monomial(a + b for a, b in zip(self, other))

    def divides(self, other):
        return len(self) == len(other) and all(a <= b for a, b in zip(self, other))

    def quotient(self, other):
        """self / other, assuming other divides self."""
        return Monomial(a - b for a, b in zip(self, other))

    def lcm(self, other):
        return Monomial(max(a, b) for a, b in zip(self, other))

    def coprime(self, other):
        return all(a == 0 or b == 0 for a, b in zip(self, other))

    @classmethod
    def one(cls, nvars):
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, i, nvars):
        return cls(tuple(1 if j == i else 0 for j in range(nvars)))

    def render(self):
        if self.is_one():
            return "1"
        parts = []
        for i, e in enumerate(self):
            if e == 1:
                parts.append(f"x{i}")
            elif e > 1:
                parts.append(f"x{i}^{e}")
        return "*".join(parts)


class MonomialOrder:
    """A monomial order: 'degree' (total degree, lex tie-break) or pure 'lex',
    both parameterized by a variable priority (earlier in `priority` = greater
    variable)."""

    __slots__ = ("kind", "priority")

    def __init__(self, kind, priority):
        if kind not in ("degree", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        priority = tuple(priority)
        if sorted(priority) != list(range(len(priority))):
            raise ValueError("priority must be a permutation of the variable indices")
        self.kind = kind
        self.priority = priority

    @classmethod
    def degree(cls, nvars):
        return cls("degree", range(nvars))

    @classmethod
    def lex(cls, priority):
        return cls("lex", priority)

    @classmethod
    def lex_smallest(cls, nvars, smallest):
        """Pure lex, natural index order except `smallest` is the least variable."""
        return cls("lex", tuple(i for i in range(nvars) if i != smallest) + (smallest,))

    @classmethod
    def lex_block_smallest(cls, nvars, small_vars):
        """Pure lex with every variable in small_vars below every other variable;
        natural index order inside each block."""
        small = sorted(set(small_vars))
        big = [i for i in range(nvars) if i not in set(small)]
        return cls("lex", tuple(big) + tuple(small))

    @property
    def nvars(self):
        return len(self.priority)

    def key(self, m):
        """Sort key: key(a) < key(b) iff a < b in this order."""
        if len(m) != self.nvars:
            raise DimensionMismatch(f"monomial has {len(m)} variables, order has {self.nvars}")
        permuted = tuple(m[i] for i in self.priority)
        return (m.degree if isinstance(m, Monomial) else sum(m), permuted) if self.kind == "degree" else permuted

    def compare(self, a, b):
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.priority == other.priority
        )

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        return f"MonomialOrder({self.kind!r}, {self.priority!r})"


class MPoly:
    """Sparse multivariate polynomial: dict from Monomial to nonzero rational."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for m, c in items:
            if len(m) != nvars:
                raise DimensionMismatch(f"term has {len(m)} exponents, ring has {nvars}")
            c = _num(c)
            if c == 0:
                continue
            m = m if isinstance(m, Monomial) else Monomial(m)
            data[m] = data.get(m, 0) + c
        self.terms = {m: c for m, c in data.items() if c != 0}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {Monomial.one(nvars): c})

    @classmethod
    def variable(cls, i, nvars):
        return cls(nvars, {Monomial.variable(i, nvars): 1})

    # -- structure -----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def support_vars(self):
        out = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    out.add(i)
        return out

    def leading_term(self, order):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order):
        return self.leading_term(order)[0]

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise DimensionMismatch(f"{self.nvars} variables vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.constant(other, self.nvars)
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MPoly(self.nvars, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = ma.mul(mb)
                out[m] = out.get(m, 0) + ca * cb
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def term_mul(self, monomial, coeff):
        """self * (coeff * monomial)."""
        return MPoly(self.nvars, {m.mul(monomial): c * coeff for m, c in self.terms.items()})

    def monic(self, order):
        _, lc = self.leading_term(order)
        if lc == 1:
            return self
        inv = Fraction(1, 1) / lc
        return self * inv

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values):
        if len(values) != self.nvars:
            raise DimensionMismatch("wrong number of values")
        acc = 0
        for m, c in self.terms.items():
            t = c
            for v, e in zip(values, m):
                if e:
                    t *= v**e
            acc += t
        return _num(acc)

    def evaluate_interval(self, intervals):
        """Enclosure of self over a box of Intervals (one per variable): the
        sum over terms of c * prod(iv^e), with Interval's product and power,
        stepped in integers.  With the box D*box (`_integer_box`), the
        coefficients C*c and t the top degree, the term of monomial m times
        C*D^t is (C*c*D^(t - deg m)) * prod((D*iv)^e), so only the sum is
        divided, by C*D^t; positive scalings keep every min and max."""
        if len(intervals) != self.nvars:
            raise DimensionMismatch("wrong number of values")
        den, box = _integer_box(intervals)
        cden, coeffs = _integers(self.terms.values())
        top = max((m.degree for m in self.terms), default=0)
        acc = Interval.point(0)
        for m, c in zip(self.terms, coeffs):
            t = Interval.point(c * den ** (top - m.degree))
            for iv, e in zip(box, m):
                if e:
                    t = t.mul(iv.power(e))
            acc = acc.add(t)
        q = cden * den**top
        return Interval(Fraction(acc.lo, q), Fraction(acc.hi, q))

    def partial_eval(self, assignment):
        """Substitute exact rational values for some variables (dict var -> value);
        the result stays in the same ring with those variables eliminated."""
        out = {}
        for m, c in self.terms.items():
            exps = list(m)
            for var, val in assignment.items():
                e = exps[var]
                if e:
                    c *= Fraction(val) ** e
                    exps[var] = 0
            mono = Monomial(exps)
            out[mono] = out.get(mono, 0) + c
        return MPoly(self.nvars, out)

    def univariate_in(self, var):
        """View as a UniPoly in `var`; raises if other variables occur."""
        coeffs = {}
        for m, c in self.terms.items():
            if any(e and i != var for i, e in enumerate(m)):
                raise ValueError(f"polynomial is not univariate in x{var}")
            coeffs[m[var]] = c
        if not coeffs:
            return UniPoly()
        out = [0] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return UniPoly(out)

    # -- display ---------------------------------------------------------------

    def render(self, order=None):
        order = order or MonomialOrder.degree(self.nvars)
        return _render_terms(
            (self.terms[m], None if m.is_one() else m.render())
            for m in sorted(self.terms, key=order.key, reverse=True)
        )

    def __repr__(self):
        return f"MPoly({self.render()})"


class PolyBasis:
    """An ordered list of nonzero generators, stored monic, with its order."""

    __slots__ = ("generators", "order")

    def __init__(self, generators, order):
        gens = []
        for g in generators:
            if g.is_zero():
                raise ZeroPolynomial("zero generator in basis")
            if g.nvars != order.nvars:
                raise DimensionMismatch("generator/order variable count mismatch")
            gens.append(g.monic(order))
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generators in basis")
        self.generators = tuple(gens)
        self.order = order

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, PolyBasis)
            and self.order == other.order
            and self.generators == other.generators
        )

    def leading_monomials(self):
        return tuple(g.leading_monomial(self.order) for g in self.generators)

    def __repr__(self):
        return f"PolyBasis({len(self.generators)} generators, {self.order!r})"


def normal_form(f, basis):
    """Remainder of f under multivariate division by basis (deterministic:
    always reduce the greatest reducible term, by the first dividing generator)."""
    order = basis.order
    if f.nvars != order.nvars:
        raise DimensionMismatch("polynomial/basis variable count mismatch")
    lts = [(g.leading_monomial(order), g) for g in basis.generators]
    work = f
    while work.terms:
        hit = None
        for m in sorted(work.terms, key=order.key, reverse=True):
            for lm, g in lts:
                if lm.divides(m):
                    hit = (m, lm, g)
                    break
            if hit:
                break
        if hit is None:
            break
        m, lm, g = hit
        work = work - g.term_mul(m.quotient(lm), work.terms[m])
    return work


def is_groebner(basis):
    """Buchberger's criterion as a checker.

    Returns (True, None) or (False, witness) where witness is the nonzero
    normal form of the first failing S-polynomial.  Pairs with coprime leading
    monomials are skipped (their S-polynomials always reduce to zero).
    """
    gens = basis.generators
    order = basis.order
    lms = [g.leading_monomial(order) for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if lms[i].coprime(lms[j]):
                continue
            l = lms[i].lcm(lms[j])
            s = gens[i].term_mul(l.quotient(lms[i]), 1) - gens[j].term_mul(l.quotient(lms[j]), 1)
            if s.is_zero():
                continue
            nf = normal_form(s, basis)
            if not nf.is_zero():
                return False, nf
    return True, None
