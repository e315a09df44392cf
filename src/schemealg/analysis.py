"""Spectral analysis of association schemes through their structure ideals.

Everything here rides on the same pipeline: convert the structure basis to a
pure-lex basis, solve it exactly, and read scheme-theoretic facts off the
variety — the character table from the points themselves, the P-polynomial
property from the shape of the lex basis, generating sets from which
variables admit solved forms, and "generic" elements (single matrices whose
eigenvalues separate the whole spectrum) from random coordinate changes that
never re-run any Groebner computation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor

from .errors import AttemptsExhausted, InternalInvariantViolation, NotExpressible, NotTriangularEnough
from .exactmath import RealRoot, UniPoly, real_roots, refine_until
from .fglm import (
    ReducedGB,
    VarietyPoint,
    _algebraic_value,
    _certify_point,
    _SolveContext,
    fglm_convert,
    fglm_from_matrices,
    moller_stetter_check,
    shape_forms,
    solve_triangular,
    solved_forms,
)
from .polyring import MonomialOrder, MPoly
from .scheme import Scheme
from .structure_ideal import StructureBasis, multiplication_matrix, structure_basis


def _cmp_rows(a, b):
    for x, y in zip(a, b):
        c = x.compare(y)
        if c:
            return c
    return 0


# ---------------------------------------------------------------------------
# variety points
# ---------------------------------------------------------------------------


def variety_points(sb: StructureBasis):
    """All common zeros of the structure ideal, exactly.

    Tries each variable in turn as the smallest one of a pure-lex order; if
    no conversion is triangular enough to solve (possible when irrational
    eigenvalues collide), falls back to a generic element, whose eigenvalue
    separates the points by construction.
    """
    nv = sb.nvars
    d = nv - 1
    if d == 0:
        return (VarietyPoint((RealRoot.rational(1),)),)
    for i in range(1, nv):
        rgb = fglm_convert(sb, MonomialOrder.lex_smallest(nv, i))
        try:
            return solve_triangular(rgb, sb)
        except NotTriangularEnough:
            continue
    ge = _generic_element(sb, rng_seed=0, max_coeff=10, max_attempts=32)
    return _points_from_generic(sb, ge)


def _points_from_generic(sb, ge):
    nv = sb.nvars
    d = nv - 1
    ctx = _SolveContext(sb)
    exprs = [MPoly.from_unipoly(e, d, nv) for e in ge.expressions]
    points = []
    for root in real_roots(ge.eliminant):
        coords = tuple(_algebraic_value(ctx, e, {d: root}, j) for j, e in enumerate(exprs))
        points.append(_certify_point(ctx, coords))
    return tuple(points)


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------


# width below which check_orthogonality accepts an entry of P @ Q
ORTHOGONALITY_WIDTH = Fraction(1, 10**20)


@dataclass(frozen=True)
class CharacterTable:
    """First and second eigenmatrices of a scheme.

    P rows are the variety points (valencies first, the rest in descending
    coordinate order); Q satisfies P @ Q = |X| * I.  Entries are RealRoot.
    """

    scheme: Scheme
    points: tuple
    P: tuple
    Q: tuple

    @property
    def size(self):
        return len(self.P)

    def all_rational(self):
        return all(c.is_rational for row in self.P for c in row)

    def p_fractions(self):
        """P as exact numbers; raises if any entry is irrational."""
        if not self.all_rational():
            raise ValueError("character table has irrational entries")
        return tuple(tuple(c.value for c in row) for row in self.P)

    def q_fractions(self):
        if any(not c.is_rational for row in self.Q for c in row):
            raise ValueError("character table has irrational entries")
        return tuple(tuple(c.value for c in row) for row in self.Q)

    def check_orthogonality(self) -> bool:
        """Certify P @ Q = |X| * I by interval enclosures of every entry,
        refined until each is narrower than ORTHOGONALITY_WIDTH (exact
        when P and Q are rational); False the moment any enclosure excludes
        its target."""
        v = self.scheme.order
        n = self.size

        def verdict(values):
            ivs = [c.interval() for c in values]
            p, q = ivs[: n * n], ivs[n * n :]
            done = True
            for mu in range(n):
                for nu in range(n):
                    acc = None
                    for k in range(n):
                        t = p[mu * n + k].mul(q[k * n + nu])
                        acc = t if acc is None else acc.add(t)
                    if not acc.contains(v if mu == nu else 0):
                        return False
                    if acc.width >= ORTHOGONALITY_WIDTH:
                        done = False
            return True if done else None

        entries = [c for row in self.P for c in row] + [c for row in self.Q for c in row]
        return refine_until(entries, verdict, "orthogonality")


def _multiplicity(order, valencies, row):
    """The multiplicity |X| / sum_i P[nu][i]^2 / k_i as a certified integer:
    the row is refined until the enclosure of that quotient holds exactly one
    integer (exact on a rational row).  Raises InternalInvariantViolation as
    soon as the enclosure holds none."""

    def verdict(values):
        acc = None
        for c, k in zip(values, valencies):
            t = c.interval().power(2).scale(Fraction(1, k))
            acc = t if acc is None else acc.add(t)
        try:
            m_iv = acc.reciprocal().scale(order)
        except ZeroDivisionError:
            return None
        lo, hi = ceil(m_iv.lo), floor(m_iv.hi)
        if lo > hi:
            raise InternalInvariantViolation(
                f"multiplicity in [{m_iv.lo}, {m_iv.hi}] is not an integer"
            )
        return lo if lo == hi and lo > 0 else None

    return refine_until(row, verdict, "multiplicity")


def character_table(s: Scheme) -> CharacterTable:
    """Compute P and Q for a scheme, with every step certified.

    Q comes from the multiplicities, Q[i][nu] = m_nu * P[nu][i] / k_i, each
    m_nu certified to be a positive integer.  Raises
    InternalInvariantViolation if the variety is deficient (fewer than d+1
    real points), fails the eigenvalue cross-check, lacks the valency row, or
    has a non-integral multiplicity — all signs of a tensor that is not a
    genuine scheme.
    """
    sb = structure_basis(s)
    pts = variety_points(sb)
    n = sb.quotient_dimension
    if len(pts) != n:
        raise InternalInvariantViolation(
            f"found {len(pts)} real points; a scheme of rank {n} must have {n}"
        )
    if not moller_stetter_check(sb, pts):
        raise InternalInvariantViolation("variety points fail the eigenvalue cross-check")
    val = s.valencies
    valency_rows = [
        pt
        for pt in pts
        if pt.is_rational() and pt.rational_tuple() == tuple(val)
    ]
    if len(valency_rows) != 1:
        raise InternalInvariantViolation("valency point missing from the variety")
    rest = [pt for pt in pts if pt is not valency_rows[0]]
    rest.sort(key=cmp_to_key(lambda a, b: _cmp_rows(a.coordinates, b.coordinates)), reverse=True)
    ordered = (valency_rows[0], *rest)
    P = tuple(pt.coordinates for pt in ordered)
    mults = [_multiplicity(s.order, val, row) for row in P]
    if sum(mults) != s.order:
        raise InternalInvariantViolation(
            f"multiplicities {mults} do not sum to the order {s.order}"
        )
    Q = tuple(
        tuple(P[nu][i].scale(Fraction(mults[nu], val[i])) for nu in range(n))
        for i in range(n)
    )
    table = CharacterTable(scheme=s, points=ordered, P=P, Q=Q)
    if not table.check_orthogonality():
        raise InternalInvariantViolation("P and Q fail the orthogonality certificate")
    return table


# ---------------------------------------------------------------------------
# P-polynomial recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PPolyReport:
    """Outcome of the P-polynomial test.

    On success: the class whose powers generate everything, the relabeling
    sending each class to its distance (class -> new index), and the lex
    basis that witnesses it.  On failure: one diagnostic per tried class.
    """

    is_p_polynomial: bool
    generator_variable: int | None
    distance_relabeling: tuple | None
    witness_basis: ReducedGB | None
    diagnostics: dict
    eliminant: UniPoly | None = None


def check_p_polynomial(s: Scheme) -> PPolyReport:
    """Decide whether some class makes the scheme P-polynomial (metric).

    For each candidate class i the structure basis is converted to pure lex
    with x_i smallest; the scheme is metric with respect to i exactly when
    every other class is a polynomial in class i with the degree sequence of
    a distance ordering (one class at each degree 2..d).
    """
    d = s.d
    if d == 0:
        return PPolyReport(True, None, (0,), None, {})
    sb = structure_basis(s)
    nv = d + 1
    diagnostics = {}
    for i in range(1, nv):
        rgb = fglm_convert(sb, MonomialOrder.lex_smallest(nv, i))
        elim, exprs = shape_forms(rgb, i)
        if elim.degree != d + 1:
            diagnostics[i] = (
                f"eliminant degree {elim.degree} < {d + 1}: "
                f"not every class is a polynomial in class {i}"
            )
            continue
        if not elim.is_squarefree():
            diagnostics[i] = "eliminant is not squarefree"
            continue
        degs = sorted(exprs[j].degree for j in range(1, nv) if j != i)
        if degs != list(range(2, d + 1)):
            diagnostics[i] = (
                f"polynomial degrees {degs} are not one of each degree 2..{d}"
            )
            continue
        sigma = [0] * nv
        sigma[i] = 1
        for j in range(1, nv):
            if j != i:
                sigma[j] = exprs[j].degree
        return PPolyReport(True, i, tuple(sigma), rgb, diagnostics, elim)
    return PPolyReport(False, None, None, None, diagnostics)


# ---------------------------------------------------------------------------
# expressibility and generating sets
# ---------------------------------------------------------------------------


def express_in_terms_of(sb: StructureBasis, subset):
    """Write every class outside `subset` as a polynomial in the subset ones.

    Returns {j: polynomial} with each polynomial supported on subset
    variables only (x_0 comes out as the constant 1).  Raises NotExpressible
    naming the smallest class that admits no such expression.
    """
    nv = sb.nvars
    subset = sorted(set(subset))
    if not subset or not all(isinstance(v, int) and 1 <= v < nv for v in subset):
        raise ValueError("subset must be a nonempty collection of classes 1..d")
    order = MonomialOrder.lex_block_smallest(nv, subset)
    forms = solved_forms(fglm_convert(sb, order), subset)
    missing = [j for j in range(nv) if j not in subset and j not in forms]
    if missing:
        raise NotExpressible(missing[0])
    return {j: forms[j] for j in sorted(forms)}


def minimal_generating_sets(s: Scheme):
    """All smallest subsets of classes that polynomially generate the rest."""
    d = s.d
    if d == 0:
        return ((),)
    sb = structure_basis(s)
    for size in range(1, d + 1):
        found = []
        for cand in itertools.combinations(range(1, d + 1), size):
            try:
                express_in_terms_of(sb, cand)
            except NotExpressible:
                continue
            found.append(cand)
        if found:
            return tuple(found)
    raise InternalInvariantViolation("the full class set failed to generate itself")


# ---------------------------------------------------------------------------
# generic elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericElement:
    """An integer combination of the classes with d+1 distinct eigenvalues.

    coefficients[v] is the weight of class v; eliminant is the (monic,
    squarefree, degree d+1) minimal polynomial of the combination; and
    expressions[j] recovers class j from an eigenvalue, so the whole variety
    is parametrized by the eliminant's roots.
    """

    coefficients: tuple
    changes: tuple
    eliminant: UniPoly
    expressions: tuple
    basis: ReducedGB


def find_generic_element(s: Scheme, rng_seed=0, max_coeff=10, max_attempts=32) -> GenericElement:
    return _generic_element(structure_basis(s), rng_seed, max_coeff, max_attempts)


def _generic_element(sb: StructureBasis, rng_seed, max_coeff, max_attempts):
    """Hunt for a separating linear combination by repeated coordinate changes.

    Starts from the last class alone.  After each failed try, the smallest
    class with no solved form gets a random positive weight added.  The key
    saving: a linear change of the last coordinate only changes its
    multiplication matrix to the matching linear combination, so each retry
    is a fresh linear-algebra conversion, never a new Groebner computation.
    """
    nv = sb.nvars
    d = nv - 1
    order = MonomialOrder.lex(tuple(range(nv)))
    if d == 0:
        rgb = fglm_from_matrices([multiplication_matrix(sb, 0)], order)
        return GenericElement(
            coefficients=(1,),
            changes=(),
            eliminant=UniPoly((-1, 1)),
            expressions=(UniPoly.constant(1),),
            basis=rgb,
        )
    mats = [multiplication_matrix(sb, i) for i in range(nv)]
    rng = random.Random(rng_seed)
    lam = [0] * nv
    lam[d] = 1
    changes = []
    for round_num in range(max_attempts + 1):
        eff_last = mats[d]
        for v in range(d):
            if lam[v]:
                eff_last = eff_last + mats[v].scale(lam[v])
        eff = list(mats)
        eff[d] = eff_last
        rgb = fglm_from_matrices(eff, order)
        elim, exprs = shape_forms(rgb, d)
        missing = [j for j in range(d) if j not in exprs]
        if not missing:
            if not elim.is_squarefree():
                raise InternalInvariantViolation(
                    "separating candidate has a repeated eigenvalue; the ideal is not radical"
                )
            last = UniPoly.monomial(1)
            for v in range(d):
                if lam[v]:
                    last = last - exprs[v] * lam[v]
            expressions = tuple(exprs[j] for j in range(d)) + (last,)
            return GenericElement(
                coefficients=tuple(lam),
                changes=tuple(changes),
                eliminant=elim,
                expressions=expressions,
                basis=rgb,
            )
        if round_num == max_attempts:
            break
        v = min(missing)
        c = rng.randint(1, max_coeff)
        lam[v] += c
        changes.append((v, c))
    raise AttemptsExhausted(
        f"no separating combination found after {max_attempts} coordinate changes"
    )
