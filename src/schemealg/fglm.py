"""Order conversion by linear algebra (FGLM) and triangular solving.

The quotient algebra of a structure ideal is finite-dimensional, so a target
Groebner basis can be read off from linear dependencies among normal-form
coordinate vectors; no polynomial division in the target order is ever
needed.  `solved_forms` is the one reader of generators x_j - tail(smaller
variables) off such a basis, and `shape_forms` reads a lex basis in its
shape-lemma form {f(x_v)} + {x_j - q_j(x_v)}.  Variety points are then
extracted from a lex basis: real roots of the eliminant, back-substitution
through the remaining generators, and residual certification by interval
enclosures (exact on rational points).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import DimensionMismatch, InternalInvariantViolation, NotTriangularEnough
from .exactmath import (
    DEFAULT_PRECISION,
    Interval,
    real_roots,
    refine_until,
)
from .polyring import Monomial, MonomialOrder, MPoly, PolyBasis
from .structure_ideal import StructureBasis, multiplication_matrix


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
    first normal-set monomial must be 1."""
    nv = target.nvars
    if len(mats) != nv:
        raise DimensionMismatch("need one multiplication matrix per variable")
    dim = mats[0].nrows
    one = Monomial.one(nv)

    staircase = []  # new normal set, in ascending target order (discovery order)
    raw = {}  # staircase monomial -> its coordinate vector
    echelon = []  # (pivot, unit-pivot vector, combination over staircase monomials)
    generators = []
    lead_terms = []

    heap = []
    seen = set()
    parents = {}

    def push(m, parent):
        if m not in seen:
            seen.add(m)
            parents[m] = parent
            heapq.heappush(heap, (target.key(m), m))

    push(one, None)
    while heap:
        _, mono = heapq.heappop(heap)
        if any(lt.divides(mono) for lt in lead_terms):
            continue
        if mono == one:
            vec = tuple(1 if i == 0 else 0 for i in range(dim))
        else:
            pmono, var = parents[mono]
            vec = mats[var].apply(raw[pmono])
        residue = list(vec)
        combo = {}
        for pivot, unit, expansion in echelon:
            c = residue[pivot]
            if c:
                for idx in range(dim):
                    residue[idx] -= c * unit[idx]
                for t, ct in expansion.items():
                    combo[t] = combo.get(t, 0) + c * ct
        if any(residue):
            pivot = next(i for i, x in enumerate(residue) if x)
            pv = residue[pivot]
            unit = tuple(Fraction(x, 1) / pv if pv != 1 else x for x in residue)
            expansion = {mono: Fraction(1, 1) / pv}
            for t, ct in combo.items():
                expansion[t] = -Fraction(ct, 1) / pv
            staircase.append(mono)
            raw[mono] = vec
            echelon.append((pivot, unit, expansion))
            for var in range(nv):
                push(mono.mul(Monomial.variable(var, nv)), (mono, var))
        else:
            terms = {mono: 1}
            for t, ct in combo.items():
                if ct:
                    terms[t] = -ct
            generators.append(MPoly(nv, terms))
            lead_terms.append(mono)
    if len(staircase) != dim:
        raise InternalInvariantViolation(
            f"normal set has {len(staircase)} monomials; expected {dim}"
        )
    generators.sort(key=lambda g: target.key(g.leading_monomial(target)))
    return ReducedGB(
        basis=PolyBasis(generators, target),
        normal_set=tuple(staircase),
        target_order=target,
    )


# ---------------------------------------------------------------------------
# triangular solving
# ---------------------------------------------------------------------------


class _SolveContext:
    """Caches per-solve data: spectra (real roots of the charpolys of the
    multiplication matrices) used to represent irrational coordinates."""

    def __init__(self, sb):
        self.sb = sb
        self._spectra = {}

    def spectrum(self, var):
        if var not in self._spectra:
            cp = multiplication_matrix(self.sb, var).charpoly()
            self._spectra[var] = tuple(real_roots(cp))
        return self._spectra[var]


def _algebraic_value(ctx, expr: MPoly, assign, var):
    """Value of `expr` at an assignment (dict variable -> RealRoot), known to
    be an eigenvalue of the var-th multiplication matrix: the one spectrum
    value whose interval meets the interval enclosure of `expr`, with the
    assignment refined until exactly one does (a rational assignment is a
    point, so it decides in the first round)."""
    spectrum = ctx.spectrum(var)
    variables = list(assign)

    def verdict(values):
        ivs = [Interval.point(0)] * expr.nvars
        for j, v in zip(variables, values):
            ivs[j] = v.interval()
        enclosure = expr.evaluate_interval(ivs)
        hits = [c for c in spectrum if c.interval().intersect(enclosure) is not None]
        if not hits:
            raise InternalInvariantViolation(
                "back-substituted value escaped the multiplication-matrix spectrum"
            )
        return hits[0] if len(hits) == 1 else None

    return refine_until(assign.values(), verdict, "back-substitution")


def solve_triangular(rgb: ReducedGB, sb: StructureBasis):
    """All real variety points of a (zero-dimensional, radical) lex basis.

    Works stage by stage from the smallest variable up: real roots of the
    eliminant, then each next variable from the generators that become
    univariate (branching when several roots survive).  Once an irrational
    coordinate is on the stack only solved-form generators x_j - g(smaller)
    are accepted; anything else raises NotTriangularEnough.  Every point is
    certified against the structure basis before being returned.
    """
    ctx = _SolveContext(sb)
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
                for root in real_roots(h):
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
                ext = dict(assign)
                ext[y] = _algebraic_value(ctx, forms[y], assign, y)
                nxt.append(ext)
        partials = nxt
    return tuple(_certify_point(ctx, tuple(a[j] for j in range(nv))) for a in partials)


def _certify_point(ctx, coords):
    """The variety point at `coords` (RealRoots, x0 first), certified: x0
    must be 1, and every structure relation's residual must have an interval
    enclosure that contains 0 and is narrower than DEFAULT_PRECISION.  The point
    keeps the coordinates as refined as that took (rational ones are points,
    so on a rational point the check is exact and refines nothing)."""
    if not (coords[0].is_rational and coords[0].value == 1):
        raise InternalInvariantViolation("variety point has x0 != 1")
    basis = ctx.sb.basis

    def verdict(values):
        ivs = [c.interval() for c in values]
        worst = 0
        for g in basis:
            enc = g.evaluate_interval(ivs)
            if not enc.contains(0):
                raise InternalInvariantViolation(
                    f"candidate point residual on {g.render()} is certified nonzero"
                )
            worst = max(worst, enc.width)
        return tuple(values) if worst < DEFAULT_PRECISION else None

    return VarietyPoint(refine_until(coords, verdict, "residual certification"))


def moller_stetter_check(sb: StructureBasis, points) -> bool:
    """Eigenvalue consistency: the characteristic polynomial of every
    multiplication matrix must vanish on the matching coordinate of every
    point, and the point count must equal the quotient dimension."""
    points = tuple(points)
    if len(points) != sb.quotient_dimension:
        return False
    for i in range(sb.nvars):
        cp = multiplication_matrix(sb, i).charpoly()
        if not all(pt.coordinates[i].is_root_of(cp) for pt in points):
            return False
    return True
