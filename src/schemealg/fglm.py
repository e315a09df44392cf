"""Order conversion by linear algebra (FGLM) and triangular solving.

The quotient algebra of a structure ideal is finite-dimensional, so a target
Groebner basis can be read off from linear dependencies among normal-form
coordinate vectors; no polynomial division in the target order is ever
needed.  The walk keeps the new normal set, an order ideal, as one dict,
applies each matrix through the nonzero entries of its columns (`_apply`),
and finds the dependencies by fraction-free integer elimination, the
`exactmath._reduce_row` kernel.  `_power_walk` is this walk restricted to
the powers y^k e_0 of one element, the whole walk when the target lex basis
with y smallest is in shape position: it gives the minimal polynomials whose
roots are the spectra, and `analysis` reads off it the generic element, the
P-polynomial test and the variety points of a separating class, by the
shape lemma.
`solved_forms` is the one reader of generators x_j - tail(smaller
variables) off such a basis, and `shape_forms` reads a lex basis in its
shape-lemma form {f(x_v)} + {x_j - q_j(x_v)}.  Variety points are then
extracted from a lex basis: in shape position every coordinate is q_j(t)
for a real root t of f, matched against its class's spectrum from t alone
(`_shape_points`, the kernel the generic element and a separating class's
walk use too).  That back-substitution runs on integers: q_j is scaled
once, its enclosure over t's interval is the Horner kernel's (lo, hi, q),
and the spectrum members that meet it are found by two bisections over the
spectrum's endpoints, scaled once per class (`_meeting`).  Any other basis
is solved stage by stage (`_stage_points`),
which fails with NotTriangularEnough once an irrational coordinate lacks a
solved form, always so when the smallest variable has an irrational
eigenvalue and does not generate the algebra.  Every point passes residual
certification by interval enclosures of the structure relations, read off
the nonzero entries of the intersection tensor and computed on the integer
endpoints of the box scaled by its common denominator (exact on rational
points).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial, reduce

from .errors import DimensionMismatch, InternalInvariantViolation, NotTriangularEnough
from .exactmath import (
    DEFAULT_PRECISION,
    Interval,
    UniPoly,
    _horner_enclosure,
    _integer_ends,
    _integers,
    _product,
    _reduce_row,
    _square,
    _sign_at,
    _sturm_chain,
    real_roots,
    refine_until,
)
from .polyring import Monomial, MonomialOrder, MPoly, PolyBasis
from .structure_ideal import StructureBasis, _sparse_columns, multiplication_matrix


@dataclass(frozen=True)
class ReducedGB:
    """A reduced, monic Groebner basis with its normal set (staircase)."""

    basis: PolyBasis
    normal_set: tuple
    target_order: MonomialOrder


@dataclass(frozen=True)
class VarietyPoint:
    """One common zero; coordinates indexed by variable, coordinate 0 is 1."""

    coordinates: tuple

    def __len__(self):
        return len(self.coordinates)

    def is_rational(self):
        return all(c.is_rational for c in self.coordinates)

    def rational_tuple(self):
        if not self.is_rational():
            raise ValueError("point has irrational coordinates")
        return tuple(c.value for c in self.coordinates)


def solved_forms(rgb: ReducedGB, allowed) -> dict:
    """Map j -> tail for every generator x_j - tail of the basis whose j is
    outside `allowed` and whose tail uses only `allowed` variables."""
    allowed = set(allowed)
    nv = rgb.target_order.nvars
    out = {}
    for g in rgb.basis:
        lm = g.leading_monomial(rgb.target_order)
        if lm.degree != 1:
            continue
        j = lm.index(1)
        if j in allowed:
            continue
        tail = MPoly(nv, {m: -c for m, c in g.terms.items() if m != lm})
        if tail.support_vars() <= allowed:
            out[j] = tail
    return out


def shape_forms(rgb: ReducedGB, v):
    """Read a lex basis with x_v smallest as (f, {j: q_j}): its eliminant
    f(x_v) and the univariate q_j of every solved form x_j - q_j(x_v).  By the
    shape lemma the forms cover every other variable exactly when deg f is
    the quotient dimension."""
    (f,) = (g.univariate_in(v) for g in rgb.basis if g.support_vars() <= {v})
    return f, {j: t.univariate_in(v) for j, t in solved_forms(rgb, {v}).items()}


def fglm_convert(sb: StructureBasis, target: MonomialOrder) -> ReducedGB:
    """Convert the structure basis to a reduced basis for `target`."""
    if target.nvars != sb.nvars:
        raise DimensionMismatch("target order has the wrong number of variables")
    mats = [multiplication_matrix(sb, i) for i in range(sb.nvars)]
    return fglm_from_matrices(mats, target)


def fglm_from_matrices(mats, target: MonomialOrder) -> ReducedGB:
    """FGLM over explicit multiplication matrices (column m = image of the
    m-th normal-set monomial).  The matrices must pairwise commute and the
    first normal-set monomial must be 1.

    The new normal set is an order ideal, and its one record is a dict from
    staircase monomial to coordinate vector, filled in ascending target
    order.  A popped monomial is on the border, and skipped, exactly when
    some mono / x_u is not a key.  Each monomial is pushed once, by
    mono / x_top (x_top its largest variable), and its vector is mats[top]
    applied to that parent's; as the matrices commute, every parent gives
    the same vector.  Each matrix is read once, into the nonzero entries of
    its columns, when the walk first applies it (`_apply`).  The vector,
    with a unit slot appended and scaled to integers (the matrices may be
    rational), is reduced by `_reduce_row` against an integer echelon whose
    rows carry, past the head, their combination over the staircase.  An independent vector joins the
    staircase; a dependent one leaves a tail that is the relation
    mono + sum_t (tail_t / tail_mono) t, a border generator, led by mono, so
    the generators come out in ascending leading-monomial order.  The
    staircase and each generator are fixed by the span alone, so the basis
    does not depend on the echelon's form."""
    nv = target.nvars
    if len(mats) != nv:
        raise DimensionMismatch("need one multiplication matrix per variable")
    dim = mats[0].nrows
    if any(m.shape != (dim, dim) for m in mats):
        raise DimensionMismatch(f"multiplication matrices must all be {dim} x {dim}")
    one = Monomial.one(nv)

    columns = {}  # var -> the nonzero (k, entry) of each column of mats[var], read once
    staircase = {}  # monomial -> its coordinate vector, in ascending target order
    echelon = {}  # pivot -> integer row [head | tail]
    generators = []
    heap = [(target.key(one), one, None)]
    while heap:
        _, mono, var = heapq.heappop(heap)
        below = {u: mono[:u] + (e - 1,) + mono[u + 1 :] for u, e in enumerate(mono) if e}
        if not all(b in staircase for b in below.values()):
            continue
        if var is None:
            vec = tuple(1 if i == 0 else 0 for i in range(dim))
        else:
            if var not in columns:
                columns[var] = [[(k, a) for k, a in enumerate(col) if a] for col in zip(*mats[var].rows)]
            vec = _apply(columns[var], staircase[below[var]])
        # The row starts as den * [vec | e_slot], slot len(staircase) and den
        # the common denominator; every row stays sum_s tail[s] * [vec(s) | e_s]
        # over the staircase and the candidate.
        den, w = _integers(vec)
        w += [0] * (dim + 1)
        w[dim + len(staircase)] = den
        row, pivot = _reduce_row(echelon, w, dim)
        if pivot is not None:
            staircase[mono] = vec
            echelon[pivot] = row
            for v in range(max(below, default=0), nv):
                up = Monomial(mono[:v] + (mono[v] + 1,) + mono[v + 1 :])
                heapq.heappush(heap, (target.key(up), up, v))
        else:
            # head 0: the tail is a relation, made monic by PolyBasis below
            generators.append(MPoly(nv, zip((*staircase, mono), row[dim:])))
    if len(staircase) != dim:
        raise InternalInvariantViolation(
            f"normal set has {len(staircase)} monomials; expected {dim}"
        )
    return ReducedGB(
        basis=PolyBasis(generators, target),
        normal_set=tuple(staircase),
        target_order=target,
    )


# ---------------------------------------------------------------------------
# triangular solving
# ---------------------------------------------------------------------------


def _apply(columns, vec):
    """The product of a matrix, given by the nonzero (k, entry) of each of its
    columns (as `_sparse_columns` gives B_i), with the vector `vec`, as a list."""
    out = [0] * len(columns)
    for x, col in zip(vec, columns):
        if x:
            for k, a in col:
                out[k] += a * x
    return out


def _power_walk(ycols):
    """(g, echelon): the walk of `fglm_from_matrices` over the powers of one
    element Y alone, given by its sparse columns (`_apply`).  Row k is
    [Y^k e_0 | unit k], n + 1 tail slots, reduced by `_reduce_row`; a row with
    a pivot joins `echelon` (slot n stays 0 in it), and the first with head 0
    has Y's minimal polynomial g as its tail, primitive and squarefree (see
    `structure_basis`): g(Y) e_0 = 0 suffices, as e_0 is the identity."""
    n = len(ycols)
    echelon = {}
    vec = [1] + [0] * (n - 1)
    for k in range(n + 1):
        w = vec + [0] * (n + 1)
        w[n + k] = 1
        row, pivot = _reduce_row(echelon, w, n)
        if pivot is None:
            return UniPoly(row[n:]).primitive(), echelon
        echelon[pivot] = row
        vec = _apply(ycols, vec)


class _SolveContext:
    """What one structure basis gives every solve that reads it, computed
    once: the sparse columns, each class's power walk (its minimal
    polynomial and echelon), the real roots of each distinct polynomial,
    each spectrum's endpoints on integers and each distinct refinement.

    `walk(var)` is `_power_walk` of B_var, which decides each class of the
    `variety_points` ladder: its minimal polynomial is `walk(var)[0]`, and
    a separating class's points are read off the walk by the shape lemma.
    `roots(p)` memoises `real_roots` by the coefficients of p's primitive
    associate, the only form of p that `real_roots` reads, so it returns
    what `real_roots(p)` would.  A spectrum (the real roots of a class's
    minimal polynomial, the zero set of its characteristic polynomial) is
    `roots` of that polynomial, kept per class by `spectrum(var)` so that a
    repeated call does not make the polynomial primitive again: classes
    with one minimal polynomial share it, and so does a lex eliminant,
    which is the minimal polynomial of its smallest class.  `ends(var)` is
    `_integer_ends` of the spectrum, (D, D*lows, D*highs), which
    `_meeting` bisects.  `refine(value, width)` is `value.refine(width)`,
    made once per (value, width) and handed back as the same object (a
    rational is returned as it is): the points of one table share spectrum
    members, which back-substitution and residual certification refine to
    the same widths, so it is the step `refine_until` takes there.  A memo
    entry keeps its value alive, so the id in its key is not reused while
    the context lives.  One context serves one solve, the ladder of one
    `variety_points` call, or a whole `character_table`."""

    def __init__(self, sb):
        self.sb = sb
        self.columns = _sparse_columns(sb)
        self._walks = {}
        self._roots = {}
        self._spectra = {}
        self._ends = {}
        self._refined = {}

    def walk(self, var):
        if var not in self._walks:
            self._walks[var] = _power_walk(self.columns[var])
        return self._walks[var]

    def minimal_polynomial(self, var):
        return self.walk(var)[0]

    def roots(self, p):
        key = p.primitive().coeffs
        if key not in self._roots:
            self._roots[key] = tuple(real_roots(p))
        return self._roots[key]

    def spectrum(self, var):
        if var not in self._spectra:
            self._spectra[var] = self.roots(self.minimal_polynomial(var))
        return self._spectra[var]

    def ends(self, var):
        if var not in self._ends:
            self._ends[var] = _integer_ends(self.spectrum(var))
        return self._ends[var]

    def refine(self, value, width):
        if value.is_rational:
            return value
        key = id(value), width
        if key not in self._refined:
            self._refined[key] = value, value.refine(width)
        return self._refined[key][1]


def _algebraic_value(ctx, values, enclosure, var):
    """The eigenvalue of the var-th multiplication matrix that lies in
    enclosure(values) = (lo, hi, q), the integers of [lo/q, hi/q], q > 0:
    the one spectrum value whose interval meets it, with `values`
    (RealRoots) refined until exactly one does (rational values are points,
    so they decide in the first round).  The members that meet the
    enclosure are found by two integer bisections (`_meeting`)."""
    spectrum, ends = ctx.spectrum(var), ctx.ends(var)

    def verdict(values):
        hits = _meeting(spectrum, ends, *enclosure(values))
        if not hits:
            raise InternalInvariantViolation(
                "back-substituted value escaped the multiplication-matrix spectrum"
            )
        return hits[0] if len(hits) == 1 else None

    return refine_until(values, verdict, "back-substitution", ctx.refine)


def _meeting(spectrum, ends, lo, hi, q):
    """The members of `spectrum` whose intervals meet [lo/q, hi/q] (integers,
    q > 0), with ends = (D, lows, highs) = `_integer_ends(spectrum)`.

    A spectrum is `real_roots` of one polynomial: sorted, its irrational
    members isolated by one walk of their witness (interiors disjoint, ends
    possibly shared) and no rational member in an irrational one's closed
    cell.  So both ends ascend along it and the members that meet the
    enclosure are consecutive: from the first whose upper end reaches lo/q,
    D*high >= ceil(lo*D/q), to the last whose lower end is at most hi/q,
    D*low <= floor(hi*D/q), each found by bisection on integers."""
    den, lows, highs = ends
    first = bisect_left(highs, -(-lo * den // q))
    return spectrum[first : bisect_right(lows, hi * den // q, first)]


def _root_enclosure(cden, coeffs, values):
    """(lo, hi, q): `_horner_enclosure` of the polynomial coeffs/cden over
    the interval of the one RealRoot in `values`."""
    (t,) = values
    den, (lo, hi) = _integers((t.low, t.high))
    return _horner_enclosure(cden, coeffs, den, lo, hi)


def _shape_points(ctx, eliminant, forms):
    """The certified points (q_0(t), ..., q_d(t)) over the real roots t of
    `eliminant`, in ascending order of t: forms[j] is the univariate q_j, or
    None where x_j is t itself.  Each coordinate is `_algebraic_value` of t
    alone, enclosed by the Horner kernel over q_j's coefficients, scaled to
    integers once per form (`_root_enclosure`), so it is a member of its
    class's spectrum, shared by every point that has that value (a rational
    t is a point, and its coordinates decide in the first round).  The one
    kernel for a lex basis in shape position and for a generic element."""
    enclosures = [None if q is None else partial(_root_enclosure, *_integers(q.coeffs)) for q in forms]
    points = []
    for t in ctx.roots(eliminant):
        coords = tuple(
            t if enc is None else _algebraic_value(ctx, (t,), enc, j) for j, enc in enumerate(enclosures)
        )
        points.append(_certify_point(ctx, coords))
    return tuple(points)


def solve_triangular(rgb: ReducedGB, sb: StructureBasis, *, _ctx=None):
    """All real variety points of a (zero-dimensional, radical) lex basis.

    A basis in shape position, whose eliminant f(x_v) (x_v the smallest
    variable) has the quotient dimension as its degree, is read by
    `shape_forms` as {f} + {x_j - q_j(x_v)}, and every coordinate comes from
    the root of f alone (`_shape_points`).  Any other basis needs rational
    branching and is worked stage by stage (`_stage_points`).  Every point
    is certified against the structure basis before being returned.  `_ctx`,
    a _SolveContext of sb, lets the attempts of one `variety_points` call
    share their real roots: eliminants and the rational partials'
    polynomials are isolated through it, as the spectra are.
    `variety_points` reads a separating class off its power walk and skips
    a class with an irrational eigenvalue that does not separate, whose
    basis raises NotTriangularEnough here, so its attempts are the classes
    with a rational spectrum.
    """
    ctx = _SolveContext(sb) if _ctx is None else _ctx
    nv = rgb.target_order.nvars
    eliminant, exprs = shape_forms(rgb, rgb.target_order.priority[-1])
    if eliminant.degree == len(rgb.normal_set):
        return _shape_points(ctx, eliminant, [exprs.get(j) for j in range(nv)])
    return _stage_points(ctx, rgb)


def _stage_points(ctx, rgb):
    """The points of a lex basis, stage by stage from the smallest variable
    up: real roots of the eliminant, then each next variable from the
    generators that become univariate (branching when several roots
    survive).  Once an irrational coordinate is on the stack only
    solved-form generators x_j - g(smaller) are accepted, evaluated over the
    box of the coordinates so far; anything else raises
    NotTriangularEnough."""
    order = rgb.target_order
    nv = order.nvars
    gens = rgb.basis.generators
    stages = list(reversed(order.priority))  # smallest variable first
    partials = [{}]
    for idx, y in enumerate(stages):
        allowed = set(stages[: idx + 1])
        stage_gens = [
            g for g in gens if y in g.support_vars() and g.support_vars() <= allowed
        ]
        forms = None  # read once per stage, the first time an irrational partial needs it
        nxt = []
        for assign in partials:
            if all(v.is_rational for v in assign.values()):
                values = {j: v.value for j, v in assign.items()}
                upolys = [g.partial_eval(values).univariate_in(y) for g in stage_gens]
                h = reduce(lambda a, b: a.gcd(b), (u for u in upolys if not u.is_zero()))
                for root in ctx.roots(h):
                    ext = dict(assign)
                    ext[y] = root
                    nxt.append(ext)
            else:
                if forms is None:
                    forms = solved_forms(rgb, stages[:idx])
                if y not in forms:
                    raise NotTriangularEnough(
                        f"no solved form for x{y} over an irrational partial point"
                    )
                form, variables = forms[y], list(assign)

                def enclosure(values):
                    box = [Interval.point(0)] * nv
                    for j, v in zip(variables, values):
                        box[j] = v.interval()
                    iv = form.evaluate_interval(box)
                    q, (lo, hi) = _integers((iv.lo, iv.hi))
                    return lo, hi, q

                ext = dict(assign)
                ext[y] = _algebraic_value(ctx, assign.values(), enclosure, y)
                nxt.append(ext)
        partials = nxt
    return tuple(_certify_point(ctx, tuple(a[j] for j in range(nv))) for a in partials)


def _certify_point(ctx, coords):
    """The variety point at `coords` (RealRoots, x0 first), certified: x0
    must be 1, and every structure relation's residual must have an interval
    enclosure that contains 0 and is narrower than DEFAULT_PRECISION, checked
    on the integer enclosures of `_relation_enclosures`, D^2 times the
    relations', against D^2 * DEFAULT_PRECISION.  The first relation, in
    (i, j) order, whose enclosure excludes 0 raises.  The point keeps the
    coordinates as refined as that took (rational ones are points, so on a
    rational point the check is exact and refines nothing)."""
    if not (coords[0].is_rational and coords[0].value == 1):
        raise InternalInvariantViolation("variety point has x0 != 1")
    tol_num, tol_den = DEFAULT_PRECISION.numerator, DEFAULT_PRECISION.denominator

    def verdict(values):
        den, enclosures = _relation_enclosures(ctx.columns, values)
        limit = den * den * tol_num
        narrow = True
        for (i, j), (lo, hi) in enclosures.items():
            if not lo <= 0 <= hi:
                raise InternalInvariantViolation(
                    f"candidate point residual on x{i}*x{j} is certified nonzero"
                )
            narrow = narrow and (hi - lo) * tol_den < limit
        return tuple(values) if narrow else None

    return VarietyPoint(refine_until(coords, verdict, "residual certification", ctx.refine))


def _relation_enclosures(columns, values):
    """(D, {(i, j): (lo, hi)}) for the structure relations
    x_i*x_j - sum_k p_ij^k x_k, 1 <= i <= j <= d, of the tensor over the
    intervals of `values` (RealRoots, x0 first, the point 1), with
    columns[i][j] the nonzero (k, p_ij^k) (`_sparse_columns`).  D is the
    common denominator of the endpoints (`_integer_ends`), and (lo, hi) is
    D^2 times the relation's Interval enclosure, computed on plain integers
    over the box scaled by D: the product (D x_i)(D x_j) by `_product`, or
    the square rule `_square` when i = j, then one multiply-add of
    (D x_k) * (-p_ij^k D) for each nonzero p_ij^k (D x_0 = D carries the
    constant term).  A nonzero p_ij^k of a validated tensor is positive, so
    the upper end of D x_k lowers lo and its lower end lowers hi."""
    den, lows, highs = _integer_ends(values)
    out = {}
    for i in range(1, len(columns)):
        i_lo, i_hi, row = lows[i], highs[i], columns[i]
        for j in range(i, len(columns)):
            lo, hi = _square(i_lo, i_hi) if i == j else _product(i_lo, i_hi, lows[j], highs[j])
            for k, c in row[j]:
                step = c * den
                lo -= highs[k] * step
                hi -= lows[k] * step
            out[i, j] = lo, hi
    return den, out


def moller_stetter_check(sb: StructureBasis, points, *, _ctx=None) -> bool:
    """Eigenvalue consistency, class by class: the point count must equal the
    quotient dimension, and coordinate i of every point must be a root of
    the minimal polynomial of multiplication matrix i (the zero set of its
    characteristic polynomial).  It does not check which point holds which
    eigenvalue: points that swap one coordinate pass.  `_certify_point` ties
    the coordinates of one point together.

    A rational coordinate is one exact sign test.  An irrational one is
    `RealRoot.is_root_of`, with its gcd taken once per distinct (class,
    witness): g = gcd(minimal polynomial, witness) divides the witness, so
    the coordinate is a root exactly when g changes sign across its
    isolating interval.  `_ctx`, a _SolveContext of sb, shares the minimal
    polynomials with the solve that found the points."""
    points = tuple(points)
    if len(points) != sb.quotient_dimension:
        return False
    ctx = _SolveContext(sb) if _ctx is None else _ctx
    for i in range(sb.nvars):
        mp = ctx.minimal_polynomial(i)
        gcds = {}  # witness coefficients -> an associate of gcd(mp, witness)
        for pt in points:
            c = pt.coordinates[i]
            if c.is_rational:
                if _sign_at(mp, c.value):
                    return False
                continue
            g = gcds.get(c.poly.coeffs)
            if g is None:
                g = gcds[c.poly.coeffs] = _sturm_chain(mp, c.poly)[-1]
            if _sign_at(g, c.low) == _sign_at(g, c.high):
                return False
    return True
