"""Spectral analysis of association schemes through their structure ideals.

One walk does most of the work here: the FGLM walk over the powers of a
single element, `fglm._power_walk`.  It gives the element's minimal
polynomial; when that has degree d+1 the lex basis with the element smallest
is in shape position, and the shape lemma reads each class off the walk as a
polynomial in the element (`_shape_lemma`, `_shape_basis`).  The
P-polynomial property is the degree sequence of these polynomials for some
class, and "generic" elements (single matrices whose eigenvalues separate
the whole spectrum) are found by random coordinate changes, each candidate
decided by its walk, with no Groebner computation.  The character table
comes from the variety points, found by trying each class as the smallest
variable of a pure-lex order: a separating class is read off its walk by the
shape lemma, a class with an irrational eigenvalue that does not separate is
skipped, as its lex basis cannot be solved stage by stage, and only a class
with a rational spectrum is converted.  Expressions of classes in a subset
come from the solved forms of a block-lex basis.

Minimal generating sets are decided otherwise: whether a class set generates
depends only on the dimension of the subalgebra its intersection matrices
span, so `minimal_generating_sets` decides each candidate by an integer
closure of e_0 under those matrices and runs no conversion.  Its cost grows
with the number of candidates, sum_k C(d, k) over the sizes tried up to the
smallest one that generates; sizes too small for the product of the class
dimensions to reach d+1 are skipped, and a size with more than
MAX_MINGEN_CANDIDATES candidates raises SearchTooLarge.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, reduce
from math import ceil, comb, floor, prod

from .errors import (
    AttemptsExhausted,
    InternalInvariantViolation,
    NotExpressible,
    NotTriangularEnough,
    SearchTooLarge,
)
from .exactmath import Interval, RealRoot, UniPoly, _reduce_row, refine_until
# _algebraic_value and _certify_point are unused here: perfbench/test_perfbench.py
# checks that its tracer wraps these bindings
from .fglm import (  # noqa: F401
    ReducedGB,
    _algebraic_value,
    _apply,
    _certify_point,
    _power_walk,
    _shape_points,
    _SolveContext,
    fglm_convert,
    moller_stetter_check,
    solve_triangular,
    solved_forms,
)
from .polyring import Monomial, MonomialOrder, MPoly, PolyBasis
from .scheme import Scheme
from .structure_ideal import StructureBasis, _sparse_columns, structure_basis


# ---------------------------------------------------------------------------
# variety points
# ---------------------------------------------------------------------------


def variety_points(sb: StructureBasis, *, _ctx=None):
    """All common zeros of the structure ideal, exactly.

    Tries each class in turn as the smallest variable of a pure-lex order
    (`_lex_points`); if none solves (possible when irrational eigenvalues
    collide), falls back to a generic element, whose eigenvalue separates
    the points by construction.  The ladder and the fallback share one
    _SolveContext, so each class's power walk is made once and each
    distinct polynomial is isolated once: an eliminant shares the spectrum
    of its smallest class, and the spectra the ladder isolated are the ones
    the fallback reads.  `_ctx`, a _SolveContext of sb, extends that sharing
    to the caller (`character_table`).
    """
    ctx = _SolveContext(sb) if _ctx is None else _ctx
    points = _lex_points(ctx)
    if points is None:
        ge = _generic_element(ctx.columns, rng_seed=0, max_coeff=10, max_attempts=32)
        points = _points_from_generic(ctx, ge)
    return points


def _lex_points(ctx):
    """The points of the lex basis with x_i smallest for the first class
    i = 1..d whose basis solves, or None.  Each class is decided by its
    power walk (`ctx.walk`) first:
    - a separating class (minimal polynomial of degree d+1) has its basis in
      shape position, so its points are read off the walk by the shape
      lemma (`_shape_lemma`, `_shape_points`) with no conversion; the basis
      is unique, so these are the points `solve_triangular` finds on it;
    - a class that does not separate and has an irrational eigenvalue is
      skipped, as its attempt would raise NotTriangularEnough: the stage
      walk puts that root on the stack, so every later stage needs a solved
      form, and if all had one, Q[B_i] would be the whole algebra;
    - any other class, with a rational spectrum, is converted by
      `fglm_convert` and solved by `solve_triangular`, whose rational
      branching may succeed or raise NotTriangularEnough.
    """
    sb, nv = ctx.sb, ctx.sb.nvars
    for i in range(1, nv):
        g, echelon = ctx.walk(i)
        if g.degree == nv:
            f, exprs = _shape_lemma(g, echelon)
            return _shape_points(ctx, f, [None if j == i else q for j, q in enumerate(exprs)])
        if not all(t.is_rational for t in ctx.spectrum(i)):
            continue
        try:
            return solve_triangular(fglm_convert(sb, MonomialOrder.lex_smallest(nv, i)), sb, _ctx=ctx)
        except NotTriangularEnough:
            continue
    return None


def _points_from_generic(ctx, ge):
    """The points (q_0(t), ..., q_d(t)) over the roots t of the generic
    eliminant: the univariate kernel a shape-position lex basis uses too."""
    return _shape_points(ctx, ge.eliminant, ge.expressions)


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------


# width below which _certify_sums accepts an entry of P @ Q or a trace sum
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

    def p_fractions(self):
        """P as exact numbers; raises if any entry is irrational."""
        return _fractions(self.P)

    def q_fractions(self):
        return _fractions(self.Q)

    def check_orthogonality(self) -> bool:
        """Certify P @ Q = |X| * I entry by entry with `_certify_sums` (exact
        when P and Q are rational)."""
        v, n = self.scheme.order, self.size

        def sums(ivs):  # the entries of P, then of Q: Q[k][nu] is ivs[(n + k) * n + nu]
            for mu, nu in itertools.product(range(n), repeat=2):
                yield _sum(ivs[mu * n + k].mul(ivs[(n + k) * n + nu]) for k in range(n)), v if mu == nu else 0

        return _certify_sums([c for row in self.P + self.Q for c in row], sums)


def _fractions(rows):
    if any(not c.is_rational for row in rows for c in row):
        raise ValueError("character table has irrational entries")
    return tuple(tuple(c.value for c in row) for row in rows)


def _multiplicity(order, valencies, row):
    """The multiplicity |X| / sum_i P[nu][i]^2 / k_i as a certified integer:
    the row is refined until the enclosure of that quotient holds exactly one
    integer (exact on a rational row).  The sum is at least P[nu][0]^2 / k_0 = 1,
    as x_0 = 1 is certified.  Raises InternalInvariantViolation as soon as the
    enclosure holds no integer."""

    def verdict(values):
        acc = _sum(c.interval().power(2).scale(Fraction(1, k)) for c, k in zip(values, valencies))
        m_iv = acc.reciprocal().scale(order)
        lo, hi = ceil(m_iv.lo), floor(m_iv.hi)
        if lo > hi:
            raise InternalInvariantViolation(
                f"multiplicity in [{m_iv.lo}, {m_iv.hi}] is not an integer"
            )
        return lo if lo == hi else None

    return refine_until(row, verdict, "multiplicity")


def character_table(s: Scheme) -> CharacterTable:
    """Compute P and Q for a scheme, with every step certified.

    P's rows are the variety points in descending lexicographic order.  Q
    comes from the multiplicities, Q[i][nu] = m_nu * P[nu][i] / k_i, each
    m_nu certified to be a positive integer.  Raises
    InternalInvariantViolation if the variety points fail the eigenvalue
    cross-check (which includes their count, d+1), lack the valency row, or
    give a non-integral multiplicity.  Only the last can happen on a
    validated associative tensor (srg(5,3,1,3) gives m = 5/2); the others
    are internal invariants.

    One _SolveContext serves the solve and the cross-check, so each class's
    minimal polynomial and each distinct polynomial's real roots are
    computed once per call.
    """
    sb = structure_basis(s)
    ctx = _SolveContext(sb)
    pts = variety_points(sb, _ctx=ctx)
    if not moller_stetter_check(sb, pts, _ctx=ctx):
        raise InternalInvariantViolation("variety points fail the eigenvalue cross-check")
    val = s.valencies
    # |P[nu][i]| <= k_i (Perron-Frobenius: B_i is nonnegative with row sums
    # k_i) and the rows are distinct, so the valency row sorts first
    ordered = tuple(sorted(pts, key=cmp_to_key(_compare_points), reverse=True))
    if not (ordered[0].is_rational() and ordered[0].rational_tuple() == tuple(val)):
        raise InternalInvariantViolation("valency point missing from the variety")
    P = tuple(pt.coordinates for pt in ordered)
    mults = [_multiplicity(s.order, val, row) for row in P]
    Q = _second_eigenmatrix(P, mults, val)
    if not _trace_sums_vanish(s.order, mults, P):
        raise InternalInvariantViolation("P and Q fail the orthogonality certificate")
    return CharacterTable(scheme=s, points=ordered, P=P, Q=Q)


def _second_eigenmatrix(P, mults, valencies):
    """Q[i][nu] = m_nu P[nu][i] / k_i, each entry what `RealRoot.scale`
    gives, with the witness of each distinct (witness, factor) pair scaled
    once: the irrational entries of an orbit scheme's P share a few
    witnesses, and `UniPoly.scale_argument` is the costly step."""
    witnesses = {}  # (witness, factor) -> the witness of factor times its roots

    def scale(c, f):
        if c.is_rational:
            return c.scale(f)
        w = witnesses.get((c.poly, f))
        if w is None:
            w = witnesses[c.poly, f] = c.poly.scale_argument(f)
        iv = c.interval().scale(f)
        return RealRoot.isolated(w, iv.lo, iv.hi)

    return tuple(
        tuple(scale(row[i], Fraction(m, k)) for row, m in zip(P, mults))
        for i, k in enumerate(valencies)
    )


def _compare_points(a, b):
    """Lexicographic order of two points: the first nonzero `RealRoot.compare`
    of their coordinates, skipping any the two share as one object (0 if none)."""
    pairs = zip(a.coordinates, b.coordinates)
    return next(filter(None, (x.compare(y) for x, y in pairs if x is not y)), 0)


def _trace_sums_vanish(order, mults, P):
    """Certify T_k = sum_nu m_nu P[nu][k] = |X| delta_k0 for k = 0..d with
    `_certify_sums`.

    Inside `character_table` this is P @ Q = |X| I.  There
    Q[i][nu] = m_nu P[nu][i] / k_i, and every row is a variety point, so
    P[nu][i] P[nu][j] = sum_k p_ij^k P[nu][k].  Hence
    (Q @ P)[i][j] = sum_k p_ij^k T_k / k_i, which is |X| delta_ij for every
    i, j exactly when T_k = |X| delta_k0, as p_ij^0 = k_i delta_ij
    (Bannai-Ito, Algebraic Combinatorics I, 2.3).  d+1 sums of d+1 products
    replace the (d+1)^3 products of `CharacterTable.check_orthogonality`.
    P[nu][0] is the certified rational 1, so T_0 is the point sum_nu m_nu:
    the k = 0 sum checks that the multiplicities add up to |X|.
    """
    n = len(P)

    def sums(ivs):
        for k in range(n):
            yield _sum(ivs[nu * n + k].scale(m) for nu, m in enumerate(mults)), order if k == 0 else 0

    return _certify_sums([c for row in P for c in row], sums)


def _certify_sums(values, sums):
    """Refine `values` (RealRoots) until the (enclosure, target) pairs that
    sums(intervals of the values) yields decide: False as soon as an enclosure
    excludes its target, True once all are narrower than ORTHOGONALITY_WIDTH."""

    def verdict(values):
        done = True
        for acc, target in sums([c.interval() for c in values]):
            if not acc.contains(target):
                return False
            done = done and acc.width < ORTHOGONALITY_WIDTH
        return True if done else None

    return refine_until(values, verdict, "orthogonality")


def _sum(intervals):
    """The interval sum of `intervals`, from the point 0."""
    return reduce(Interval.add, intervals, Interval.point(0))


# ---------------------------------------------------------------------------
# P-polynomial recognition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PPolyReport:
    """Outcome of the P-polynomial test.

    On success: the class whose powers generate everything, the relabeling
    sending each class to its distance (class -> new index), the lex basis
    with that class smallest that witnesses it, and its eliminant, the
    class's minimal polynomial.  On failure: one diagnostic per tried class.
    """

    is_p_polynomial: bool
    generator_variable: int | None
    distance_relabeling: tuple | None
    witness_basis: ReducedGB | None
    diagnostics: dict
    eliminant: UniPoly | None = None


def check_p_polynomial(s: Scheme) -> PPolyReport:
    """Decide whether some class makes the scheme P-polynomial (metric).

    The scheme is metric with respect to class i exactly when the lex basis
    with x_i smallest is {f(x_i)} + {x_j - q_j(x_i)} (shape position) and the
    q_j have the degree sequence of a distance ordering, one class at each
    degree 2..d.  In shape position FGLM visits only the powers of x_i, so
    each class takes one `fglm._power_walk`, whose f is the lex eliminant and
    off which the q_j are read (`_shape_lemma`); f is squarefree by
    `structure_basis`, so only these degrees can fail.
    """
    d = s.d
    if d == 0:
        return PPolyReport(True, None, (0,), None, {})
    columns = _sparse_columns(structure_basis(s))
    diagnostics = {}
    for i in range(1, d + 1):
        f, echelon = _power_walk(columns[i])
        if f.degree != d + 1:
            diagnostics[i] = (
                f"eliminant degree {f.degree} < {d + 1}: "
                f"not every class is a polynomial in class {i}"
            )
            continue
        f, exprs = _shape_lemma(f, echelon)
        degs = sorted(exprs[j].degree for j in range(1, d + 1) if j != i)
        if degs != list(range(2, d + 1)):
            diagnostics[i] = (
                f"polynomial degrees {degs} are not one of each degree 2..{d}"
            )
            continue
        # q_0 = 1 and q_i = x_i, so every class's degree is its distance
        sigma = tuple(q.degree for q in exprs)
        return PPolyReport(True, i, sigma, _shape_basis(f, exprs, i), diagnostics, f)
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


# The most candidates of one size that minimal_generating_sets will try.  At
# d = 64 one candidate's closure takes up to about 5 ms (2 vCPUs, Python
# 3.11), so no size that passes this check runs for more than about a minute.
MAX_MINGEN_CANDIDATES = 10_000


def minimal_generating_sets(s: Scheme):
    """All smallest subsets of classes that polynomially generate the rest.

    Candidates are tried by size, each size in `itertools.combinations`
    order, and the first size with a hit is returned.  `_generates` decides
    each candidate by an integer closure, with no Groebner conversion.  The
    full class set always generates: B_i e_0 = e_i, since p_i0^k = delta_ik.

    A size k is skipped when the k largest dim Q[B_i] multiply to less than
    d+1: the subalgebra of a set S is spanned by the products of powers
    B_i^e, e < dim Q[B_i], so S can generate only if the product of its
    dimensions is at least d+1.  dim Q[B_i] (the number of distinct
    eigenvalues of B_i) is the closure size of {i}.  Before a size is tried,
    SearchTooLarge is raised if it has more than MAX_MINGEN_CANDIDATES
    candidates.
    """
    d = s.d
    columns = _sparse_columns(structure_basis(s))
    dims = sorted((_closure_size(columns, (i,)) for i in range(1, d + 1)), reverse=True)
    for size in range(1, d):
        if prod(dims[:size]) < d + 1:
            continue
        if comb(d, size) > MAX_MINGEN_CANDIDATES:
            raise SearchTooLarge(
                f"mingen would try C({d}, {size}) = {comb(d, size)} class sets of size {size}; "
                f"the limit is {MAX_MINGEN_CANDIDATES}"
            )
        found = tuple(
            cand for cand in itertools.combinations(range(1, d + 1), size) if _generates(columns, cand)
        )
        if found:
            return found
    return (tuple(range(1, d + 1)),)


def _generates(columns, subset):
    """True iff the unital subalgebra Q[B_i : i in subset] has dimension d+1
    (see `_closure_size`); that is, iff every class is a polynomial in the
    subset classes modulo the structure ideal (Bannai-Ito, Algebraic
    Combinatorics I, 2.2), i.e. iff `express_in_terms_of` succeeds."""
    return _closure_size(columns, subset) == len(columns[0])


def _closure_size(columns, subset):
    """The dimension of the unital subalgebra Q[B_i : i in subset], given
    `structure_ideal._sparse_columns`: the closure of e_0 (the identity) under
    the B_i.  Each round applies every B_i to the rows the last round added
    and reduces the products by `exactmath._reduce_row`, keeping those with a
    pivot; it stops at d+1 rows or at a round that adds none."""
    n = len(columns[0])
    start = [1] + [0] * (n - 1)
    echelon = {0: start}
    new = [start]
    while new:
        added = []
        for u in new:
            for i in subset:
                w, pivot = _reduce_row(echelon, _apply(columns[i], u), n)
                if pivot is not None:
                    echelon[pivot] = w
                    if len(echelon) == n:
                        return n
                    added.append(w)
        new = added
    return len(echelon)


# ---------------------------------------------------------------------------
# generic elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericElement:
    """An integer combination y of the classes with d+1 distinct eigenvalues.

    coefficients[v] is the weight of class v; eliminant is the monic minimal
    polynomial f of y, of degree d+1 and squarefree by `structure_basis`;
    expressions[j] is the q_j, deg q_j <= d, with B_j = q_j(y), so the roots
    of f parametrize the variety; basis is the lex basis of Q[x_0..x_{d-1}, y]
    (y in x_d's slot, smallest) by the shape lemma: f(y), x_{d-1} - q_{d-1}(y),
    ..., x_0 - q_0(y), with normal set 1, y, ..., y^d.
    """

    coefficients: tuple
    changes: tuple
    eliminant: UniPoly
    expressions: tuple
    basis: ReducedGB


def find_generic_element(s: Scheme, rng_seed=0, max_coeff=10, max_attempts=32) -> GenericElement:
    return _generic_element(_sparse_columns(structure_basis(s)), rng_seed, max_coeff, max_attempts)


def _generic_element(columns, rng_seed, max_coeff, max_attempts):
    """Hunt for a separating linear combination by repeated coordinate changes.

    Starts from the last class alone, y = B_d, with `columns` the
    `_sparse_columns` of the structure basis.  Each candidate
    y = sum_v lam_v B_v takes one `fglm._power_walk` and no conversion: y
    separates when its minimal polynomial has degree d+1, and is then read
    off the walk (`_shape_lemma`, `_shape_basis` with y in x_d's slot);
    otherwise the smallest of its `_unsolved_classes` gets a random positive
    weight added.
    """
    n = len(columns)
    rng = random.Random(rng_seed)
    lam = [0] * (n - 1) + [1]
    changes = []
    while True:
        f, echelon = _power_walk(_combined_columns(columns, lam))
        if f.degree == n:
            f, exprs = _shape_lemma(f, echelon)
            return GenericElement(tuple(lam), tuple(changes), f, exprs, _shape_basis(f, exprs, n - 1))
        if len(changes) >= max_attempts:
            raise AttemptsExhausted(
                f"no separating combination found after {max_attempts} coordinate changes"
            )
        v = _unsolved_classes(echelon, n)[0]
        c = rng.randint(1, max_coeff)
        lam[v] += c
        changes.append((v, c))


def _combined_columns(columns, lam):
    """The sparse columns of y = sum_v lam_v B_v, in the form of `columns`."""
    combined = []
    for m in range(len(columns)):
        acc = {}
        for v, c in enumerate(lam):
            if c:
                for k, a in columns[v][m]:
                    acc[k] = acc.get(k, 0) + c * a
        combined.append([(k, a) for k, a in acc.items() if a])
    return combined


def _unsolved_classes(echelon, n):
    """The classes 0 < j < d = n - 1 with no solved form x_j - q_j(y) in the
    lex basis with y smallest: those whose e_j keeps a pivot against y's
    `fglm._power_walk` echelon, so lies outside span{y^k e_0}."""
    return [j for j in range(1, n - 1) if _reduce_row(echelon, [int(k == j) for k in range(n)], n)[1] is not None]


def _shape_lemma(f, echelon):
    """(monic f, (q_0, ..., q_d)) of an element y from its minimal polynomial
    f, of degree n = d+1, and its `fglm._power_walk` echelon: B_j = q_j(y),
    deg q_j <= d.  Each q_j is read by reducing [e_j | 0 ... 0 | 1] to head 0:
    no echelon row uses tail slot n, so the tail is -s * q_j with s in slot n."""
    n = f.degree
    exprs = []
    for j in range(n):
        w = [0] * (2 * n + 1)
        w[j] = w[-1] = 1
        row, _ = _reduce_row(echelon, w, n)
        exprs.append(UniPoly(Fraction(-c, row[-1]) for c in row[n:-1]))
    return f.monic(), tuple(exprs)


def _shape_basis(f, exprs, v):
    """The reduced lex basis with x_v smallest of an element in x_v's slot
    whose `_shape_lemma` is (f, exprs), by the shape lemma: f(x_v), then
    x_j - q_j(x_v) for j descending, j != v, with normal set 1, x_v, ...,
    x_v^d.  It is unique, so it is what `fglm.fglm_convert` would return."""
    n = f.degree
    powers = [Monomial(tuple(k if u == v else 0 for u in range(n))) for k in range(n + 1)]
    gens = [MPoly(n, zip(powers, f.coeffs))] + [
        MPoly(n, [(Monomial.variable(j, n), 1), *zip(powers, (-c for c in exprs[j].coeffs))])
        for j in reversed(range(n))
        if j != v
    ]
    order = MonomialOrder.lex_smallest(n, v)
    return ReducedGB(PolyBasis(gens, order), tuple(powers[:n]), order)
