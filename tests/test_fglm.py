"""Tests for order conversion and triangular solving."""

import heapq
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import distinct_orbit_tensors, parse_basis, parse_poly

from schemealg.analysis import find_generic_element, variety_points
from schemealg.errors import DimensionMismatch, InternalInvariantViolation, NotTriangularEnough
from schemealg.exactmath import (
    DEFAULT_PRECISION,
    Interval,
    QMatrix,
    RealRoot,
    UniPoly,
    _integer_ends,
    _integers,
    _isolate,
    _sturm_chain,
    real_roots,
)
from schemealg.fglm import (
    ReducedGB,
    VarietyPoint,
    _certify_point,
    _meeting,
    _power_walk,
    _shape_points,
    _SolveContext,
    _stage_points,
    fglm_convert,
    fglm_from_matrices,
    moller_stetter_check,
    shape_forms,
    solve_triangular,
)
from schemealg.polyring import Monomial, MonomialOrder, MPoly, PolyBasis, normal_form
from schemealg.scheme import orbit_scheme
from schemealg.structure_ideal import _sparse_columns, multiplication_matrix, structure_basis

# frozen conversions, in ascending leading-term order under the target


EX1_LEX_X1 = [
    "x1^3 - 3*x1^2 - 18*x1",
    "x2 - 1/6*x1^2 + 1/2*x1 + 1",
    "x0 - 1",
]

EX2_LEX_X1 = [
    "x1^3 - 16*x1",
    "x1*x3 - x1",
    "x3^2 - 1",
    "x2 + x3 - 1/4*x1^2 + 1",
    "x0 - 1",
]

EX2_LEX_X2 = [
    "x2^3 - 4*x2",
    "x3 - 1/2*x2^2 + 1",
    "x1*x2 - 2*x1",
    "x1^2 - 2*x2^2 - 4*x2",
    "x0 - 1",
]


def test_degree_order_roundtrip(ex1_scheme, ex2_scheme, k3_scheme):
    for s in (ex1_scheme, ex2_scheme, k3_scheme):
        sb = structure_basis(s)
        rgb = fglm_convert(sb, MonomialOrder.degree(sb.nvars))
        assert rgb.basis == sb.basis
        assert set(rgb.normal_set) == set(sb.normal_set)


def test_ex1_lex_conversion(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    rgb = fglm_convert(sb, MonomialOrder.lex_smallest(3, 1))
    assert list(rgb.basis.generators) == parse_basis(EX1_LEX_X1, 3)
    assert rgb.normal_set == (
        Monomial((0, 0, 0)),
        Monomial((0, 1, 0)),
        Monomial((0, 2, 0)),
    )


@pytest.mark.parametrize(
    "smallest,expected",
    [(1, EX2_LEX_X1), (2, EX2_LEX_X2)],
)
def test_ex2_lex_conversions(ex2_scheme, smallest, expected):
    sb = structure_basis(ex2_scheme)
    rgb = fglm_convert(sb, MonomialOrder.lex_smallest(4, smallest))
    assert list(rgb.basis.generators) == parse_basis(expected, 4)


def test_ex2_lex_x3_is_structure_basis(ex2_scheme):
    # x3 alone satisfies a quadratic, so making it smallest changes nothing
    # but the order: same seven generators.
    sb = structure_basis(ex2_scheme)
    rgb = fglm_convert(sb, MonomialOrder.lex_smallest(4, 3))
    assert set(rgb.basis.generators) == set(sb.basis.generators)
    assert len(rgb.basis) == 7


def test_conversion_preserves_ideal(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    for smallest in (1, 2, 3):
        rgb = fglm_convert(sb, MonomialOrder.lex_smallest(4, smallest))
        for g in sb.basis:
            assert normal_form(g, rgb.basis).is_zero()
        for g in rgb.basis:
            assert normal_form(g, sb.basis).is_zero()


def test_fglm_from_matrices_linear_combination(ex2_scheme):
    # replacing the last matrix by M3 + M1 converts the ideal after the
    # substitution x3 -> x3 + x1 without touching any generator
    sb = structure_basis(ex2_scheme)
    mats = [multiplication_matrix(sb, i) for i in range(4)]
    mats[3] = mats[3] + mats[1]
    rgb = fglm_from_matrices(mats, MonomialOrder.lex((0, 1, 2, 3)))
    expected = parse_basis(
        [
            "x3^4 - 2*x3^3 - 16*x3^2 + 2*x3 + 15",
            "x2 - 1/24*x3^3 - 1/8*x3^2 + 25/24*x3 + 9/8",
            "x1 - 1/12*x3^3 + 1/4*x3^2 + 1/12*x3 - 1/4",
            "x0 - 1",
        ],
        4,
    )
    assert list(rgb.basis.generators) == expected


def test_fglm_from_matrices_rejects_matrices_of_another_shape(ex1_scheme):
    # the walk reads each matrix's columns once, so the shapes are checked
    # before any is applied
    sb = structure_basis(ex1_scheme)
    mats = [multiplication_matrix(sb, i) for i in range(3)]
    with pytest.raises(DimensionMismatch, match="^multiplication matrices must all be 3 x 3$"):
        fglm_from_matrices(mats[:2] + [QMatrix(((1, 0), (0, 1)))], MonomialOrder.lex((0, 1, 2)))


EX1_POINTS = [(1, -3, 2), (1, 0, -1), (1, 6, 2)]
EX2_POINTS = [(1, -4, 2, 1), (1, 0, -2, 1), (1, 0, 0, -1), (1, 4, 2, 1)]


def _rational_points(points):
    return sorted(p.rational_tuple() for p in points)


def test_solve_ex1(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    rgb = fglm_convert(sb, MonomialOrder.lex_smallest(3, 1))
    pts = solve_triangular(rgb, sb)
    assert _rational_points(pts) == EX1_POINTS
    assert all(p.coordinates[0].value == 1 for p in pts)


def test_solve_ex2_all_orders(ex2_scheme):
    sb = structure_basis(ex2_scheme)
    for smallest in (1, 2, 3):
        rgb = fglm_convert(sb, MonomialOrder.lex_smallest(4, smallest))
        pts = solve_triangular(rgb, sb)
        assert _rational_points(pts) == EX2_POINTS


def test_solve_pentagon_irrational():
    s = orbit_scheme(5, 4)
    sb = structure_basis(s)
    rgb = fglm_convert(sb, MonomialOrder.lex_smallest(3, 1))
    pts = solve_triangular(rgb, sb)
    assert len(pts) == 3
    golden = real_roots(UniPoly((-1, 1, 1)))  # x^2 + x - 1
    irrational = [p for p in pts if not p.is_rational()]
    assert len(irrational) == 2
    for p in irrational:
        assert any(p.coordinates[1].compare(r) == 0 for r in golden)
        # the two nontrivial coordinates are conjugate: x2 is the other root
        assert any(p.coordinates[2].compare(r) == 0 for r in golden)
        assert p.coordinates[1].compare(p.coordinates[2]) != 0


def test_solver_requires_solved_forms_over_irrational_partials(ex1_scheme):
    # x1^2 - 2 forces an irrational x1; the x2 stage then offers only a
    # quadratic, which the solver must refuse rather than guess at.
    sb = structure_basis(ex1_scheme)
    order = MonomialOrder.lex_smallest(3, 1)
    gens = parse_basis(["x1^2 - 2", "x2^2 - x1", "x0 - 1"], 3)
    rgb = ReducedGB(
        basis=PolyBasis(gens, order),
        normal_set=(
            Monomial((0, 0, 0)),
            Monomial((0, 1, 0)),
            Monomial((0, 0, 1)),
            Monomial((0, 1, 1)),
        ),
        target_order=order,
    )
    with pytest.raises(NotTriangularEnough):
        solve_triangular(rgb, sb)


def test_solver_drops_branches_with_no_real_roots(k3_scheme):
    sb = structure_basis(k3_scheme)
    order = MonomialOrder.lex_smallest(2, 1)
    gens = parse_basis(["x1^2 + 1", "x0 - 1"], 2)
    rgb = ReducedGB(
        basis=PolyBasis(gens, order),
        normal_set=(Monomial((0, 0)), Monomial((0, 1))),
        target_order=order,
    )
    assert solve_triangular(rgb, sb) == ()


def test_certification_rejects_wrong_points(ex1_scheme):
    # a lex basis for a DIFFERENT ideal must be caught by the residual check
    sb = structure_basis(ex1_scheme)
    order = MonomialOrder.lex_smallest(3, 1)
    gens = parse_basis(["x1^2 - 1", "x2 - x1", "x0 - 1"], 3)
    rgb = ReducedGB(
        basis=PolyBasis(gens, order),
        normal_set=(Monomial((0, 0, 0)), Monomial((0, 1, 0))),
        target_order=order,
    )
    with pytest.raises(InternalInvariantViolation):
        solve_triangular(rgb, sb)


def _moller_stetter(sb, points, ctx):
    """The verdict of moller_stetter_check, asserted to be the same on its own
    and with `ctx`, the _SolveContext that found the points."""
    verdict = moller_stetter_check(sb, points)
    assert moller_stetter_check(sb, points, _ctx=ctx) is verdict
    return verdict


def _lex_points(sb, ctx):
    return list(solve_triangular(fglm_convert(sb, MonomialOrder.lex_smallest(sb.nvars, 1)), sb, _ctx=ctx))


def test_moller_stetter_accepts_true_points(ex1_scheme, ex2_scheme, k3_scheme):
    for s in (ex1_scheme, ex2_scheme, k3_scheme):
        sb = structure_basis(s)
        ctx = _SolveContext(sb)
        assert _moller_stetter(sb, _lex_points(sb, ctx), ctx)


def test_moller_stetter_rejects_wrong_count_and_values(ex1_scheme):
    sb = structure_basis(ex1_scheme)
    ctx = _SolveContext(sb)
    pts = _lex_points(sb, ctx)
    assert not _moller_stetter(sb, pts[:-1], ctx)
    fake = VarietyPoint(
        coordinates=(RealRoot.rational(1), RealRoot.rational(5), RealRoot.rational(2))
    )
    assert not _moller_stetter(sb, pts[:-1] + [fake], ctx)


def test_moller_stetter_sees_values_not_which_point_holds_them():
    # class by class, each coordinate must be a root of the class's minimal
    # polynomial, the characteristic polynomial's zero set
    def points(m, r):
        sb = structure_basis(orbit_scheme(m, r))
        ctx = _SolveContext(sb)
        return sb, ctx, _lex_points(sb, ctx)

    # two points of orbit (13, 5) that swap their x1: every coordinate is
    # still an eigenvalue of its class, so the check passes, and the residual
    # certificate rejects both points
    sb, ctx, pts = points(13, 5)
    a, b = pts[1].coordinates, pts[2].coordinates
    swapped = [(a[0], b[1], *a[2:]), (b[0], a[1], *b[2:])]
    assert not (a[1].is_rational or b[1].is_rational) and a[1] != b[1]
    assert _moller_stetter(sb, pts[:1] + [VarietyPoint(c) for c in swapped] + pts[3:], ctx)
    for coords in swapped:
        with pytest.raises(InternalInvariantViolation, match="certified nonzero"):
            _certify_point(_SolveContext(sb), coords)
    # an irrational x1 of the 8-cycle copied into x2, whose class has the
    # eigenvalues 0 and +-2 only
    sb, ctx, pts = points(8, 7)
    k, x = next((k, pt.coordinates) for k, pt in enumerate(pts) if not pt.coordinates[1].is_rational)
    fake = VarietyPoint((x[0], x[1], x[1], *x[3:]))
    assert _moller_stetter(sb, pts, ctx)
    assert not _moller_stetter(sb, pts[:k] + [fake] + pts[k + 1 :], ctx)


def test_residual_verdict_matches_the_interval_formula(monkeypatch):
    # the verdict of _certify_point computes on the integer endpoints of the
    # box scaled by its common denominator; over boxes around the points of
    # orbit schemes (their own cells, widened, or moved off the point) it
    # answers what the Interval formula does: the written-out relations
    # enclosed by MPoly.evaluate_interval, the first one in (i, j) order that
    # excludes 0 raising, then every width below the precision.  A precision
    # equal to the widest enclosure's width leaves the point undecided.
    from schemealg import fglm

    def reference(values, relations, precision):
        ivs = [v.interval() for v in values]
        enclosures = [(i, j, g.evaluate_interval(ivs)) for i, j, g in relations]
        for i, j, enc in enclosures:
            if not enc.contains(0):
                raise InternalInvariantViolation(f"candidate point residual on x{i}*x{j} is certified nonzero")
        return tuple(values) if all(enc.width < precision for _, _, enc in enclosures) else None

    def verdict(ctx, coords, precision):
        verdicts = []
        monkeypatch.setattr(fglm, "DEFAULT_PRECISION", precision)
        monkeypatch.setattr(fglm, "refine_until", lambda values, verdict, layer, step=None: verdicts.append(verdict))
        fglm._certify_point(ctx, coords)
        return verdicts[0]

    def outcome(decide, values):
        try:
            return decide(values)
        except InternalInvariantViolation as e:
            return str(e)

    cases = []  # the points are solved before the verdicts are captured
    for m, r in [(13, 5), (10, 9), (16, 15), (25, 4)]:
        sb = structure_basis(orbit_scheme(m, r))
        order, nv = sb.basis.order, sb.nvars
        generator = {g.leading_monomial(order): g for g in sb.basis}
        relations = [
            (i, j, generator[Monomial.variable(i, nv).mul(Monomial.variable(j, nv))])
            for i in range(1, nv)
            for j in range(i, nv)
        ]
        cases.append((_SolveContext(sb), relations, variety_points(sb)))
    rng = random.Random(34)
    seen = {"point": 0, "undecided": 0, "error": 0, "boundary": 0}
    for ctx, relations, points in cases:
        for pt in points:
            coords = pt.coordinates
            for _ in range(12):
                kind = rng.randrange(3)
                shift = Fraction(rng.choice((1, -1)), 10 ** rng.randint(2, 40)) if kind == 2 else 0
                widen = Fraction(1, 10 ** rng.randint(0, 40)) if kind == 1 else 0
                values = [coords[0]] + [
                    c if not (shift or widen) else RealRoot(low=c.low + shift - widen, high=c.high + shift + widen)
                    for c in coords[1:]
                ]
                got = outcome(verdict(ctx, coords, DEFAULT_PRECISION), values)
                want = outcome(lambda v: reference(v, relations, DEFAULT_PRECISION), values)
                assert got == want
                seen["error" if isinstance(got, str) else "undecided" if got is None else "point"] += 1
            if not pt.is_rational():
                widest = max(g.evaluate_interval([c.interval() for c in coords]).width for _, _, g in relations)
                for precision, want in ((widest, None), (widest * (1 + Fraction(1, 10**9)), tuple(coords))):
                    assert verdict(ctx, coords, precision)(list(coords)) == want == reference(coords, relations, precision)
                seen["boundary"] += 1
    assert min(seen.values()) >= 10, seen


def _unrefined(c):
    """c on the interval `_isolate` gave its witness, before any refinement:
    wide enough to hold roots of other polynomials."""
    if c.is_rational:
        return c
    _, intervals = _isolate(c.poly, _sturm_chain(c.poly, c.poly.derivative()))
    lo, hi = next((lo, hi) for lo, hi in intervals if lo <= c.low and c.high <= hi)
    return RealRoot.isolated(c.poly, lo, hi)


def test_moller_stetter_agrees_with_is_root_of_on_moved_coordinates():
    # coordinate i of every point replaced by its coordinate j, unrefined: the
    # check accepts exactly when each moved value is a root of class i's
    # minimal polynomial by `RealRoot.is_root_of`, though it takes one gcd
    # per witness
    verdicts = []
    for s in distinct_orbit_tensors(16):
        sb = structure_basis(s)
        ctx = _SolveContext(sb)
        pts = [[_unrefined(c) for c in pt.coordinates] for pt in variety_points(sb, _ctx=ctx)]
        for i, j in itertools.permutations(range(1, s.d + 1), 2):
            moved = [VarietyPoint((*x[:i], x[j], *x[i + 1 :])) for x in pts]
            want = all(pt.coordinates[i].is_root_of(ctx.minimal_polynomial(i)) for pt in moved)
            assert _moller_stetter(sb, moved, ctx) is want, (s.tensor.p, i, j)
            verdicts.append(want)
    assert (len(verdicts), sum(verdicts)) == (396, 193)


def test_solve_context_isolates_associates_once(monkeypatch):
    # `roots` keys its memo by the primitive associate, the one form of the
    # polynomial that `real_roots` reads
    calls = []
    monkeypatch.setattr("schemealg.fglm.real_roots", lambda p: calls.append(p) or real_roots(p))
    ctx = _SolveContext(structure_basis(orbit_scheme(13, 5)))
    roots = ctx.roots(UniPoly((-2, 0, 1)))
    assert ctx.roots(UniPoly((Fraction(-1), 0, Fraction(1, 2)))) is roots
    assert ctx.roots(UniPoly((4, 0, -2))) is roots
    assert ctx.roots(UniPoly((-3, 0, 1))) is not roots
    assert len(calls) == 2


def _ends_ascend(spectrum):
    return all(a.low <= b.low and a.high <= b.high for a, b in zip(spectrum, spectrum[1:]))


def test_meeting_bisection_matches_the_linear_scan():
    # every spectrum of the distinct orbit tensors up to m = 24 as the solve
    # reads it, and each one isolated but unrefined, where adjacent cells can
    # share an endpoint; seeded enclosures between any two of the endpoints,
    # values and random rationals, and the point at every endpoint and value.
    # The kernel takes the spectrum's ends scaled to integers and each
    # enclosure as integers over its own denominator, [lo/q, hi/q]
    rng = random.Random(2501)
    shared = rational = cases = 0
    for s in distinct_orbit_tensors(24):
        ctx = _SolveContext(structure_basis(s))
        for i in range(s.d + 1):
            fine, coarse = ctx.spectrum(i), tuple(real_roots(ctx.minimal_polynomial(i), precision=1))
            for spectrum in (fine, coarse):
                assert _ends_ascend(spectrum)
                scaled = _integer_ends(spectrum)
                ends = sorted({x for c in spectrum for x in (c.low, c.high)})
                shared += any(a.high == b.low for a, b in zip(spectrum, spectrum[1:]))
                top = abs(ends[0]) + abs(ends[-1]) + 1
                points = ends + [Fraction(rng.randint(-(10**6), 10**6), 10**6) * top for _ in range(8)]
                enclosures = [Interval.point(x) for x in ends]
                enclosures += [Interval(*sorted(rng.sample(points, 2))) for _ in range(24)]
                for enc in enclosures:
                    expected = [c for c in spectrum if c.interval().intersect(enc) is not None]
                    q, (lo, hi) = _integers((enc.lo, enc.hi))
                    assert list(_meeting(spectrum, scaled, lo, hi, q)) == expected, (spectrum, enc)
                    rational += any(c.is_rational and enc.contains(c.value) for c in spectrum)
                    cases += 1
    assert (cases, shared, rational) == (19343, 67, 10768)


def test_coarse_spectra_keep_rational_roots_out_of_the_irrational_cells():
    # once narrower than 1, the witness walk's cell of an irrational root
    # still holds a rational root of the class polynomial in 15 of the 340
    # (rational, irrational) pairs here; real_roots refines such cells on,
    # so the members are sorted, each interval wholly below the next
    polys = set()
    for s in distinct_orbit_tensors(24):
        columns = _sparse_columns(structure_basis(s))
        polys.update(_power_walk(columns[i])[0] for i in range(s.d + 1))
    pairs = 0
    for p in polys:
        roots = real_roots(p, precision=1)
        rationals = [r.value for r in roots if r.is_rational]
        for r in roots:
            if not r.is_rational:
                assert r.width < 1
                assert not any(r.low <= a <= r.high for a in rationals), (p, r)
                pairs += len(rationals)
        assert all(a.high <= b.low for a, b in zip(roots, roots[1:])), p
    assert (len(polys), pairs) == (55, 340)


def test_shape_kernel_matches_the_stage_walk():
    # on every shape-position lex basis of the distinct orbit tensors up to
    # m = 20, the univariate kernel and the stage walk give the same points,
    # value, certified interval and witness, in the same order
    shape = 0
    for s in distinct_orbit_tensors(20):
        sb = structure_basis(s)
        for i in range(1, sb.nvars):
            rgb = fglm_convert(sb, MonomialOrder.lex_smallest(sb.nvars, i))
            f, exprs = shape_forms(rgb, i)
            if f.degree < sb.nvars:
                continue
            kernel = _shape_points(_SolveContext(sb), f, [exprs.get(j) for j in range(sb.nvars)])
            walk = _stage_points(_SolveContext(sb), rgb)
            assert [[_entry(c) for c in pt.coordinates] for pt in kernel] == [
                [_entry(c) for c in pt.coordinates] for pt in walk
            ]
            shape += 1
    assert shape == 89


def _entry(c):
    return c.value, c.low, c.high, None if c.poly is None else c.poly.coeffs


def test_random_roundtrip_and_solve():
    rng = random.Random(99)
    seen = 0
    while seen < 5:
        m = rng.randint(5, 30)
        r = rng.randint(2, m - 1)
        if r == 1 or gcd(r, m) != 1:
            continue
        s = orbit_scheme(m, r)
        if s.d > 6:
            continue
        seen += 1
        sb = structure_basis(s)
        nv = sb.nvars
        rgb = fglm_convert(sb, MonomialOrder.degree(nv))
        assert rgb.basis == sb.basis
        lex = fglm_convert(sb, MonomialOrder.lex_smallest(nv, 1))
        for g in lex.basis:
            assert normal_form(g, sb.basis).is_zero()
        assert len(lex.normal_set) == nv


def test_lex_bases_of_orbit_schemes_have_the_shape_lemma_form():
    # Every distinct orbit tensor with 3 <= m <= 28, every class as the
    # smallest lex variable: the facts `shape_forms`, `check_p_polynomial`,
    # `find_generic_element` and `solve_triangular` rely on instead of
    # checking them.
    tensors = distinct_orbit_tensors(28)
    assert len(tensors) == 68
    conversions = 0
    for s in tensors:
        sb = structure_basis(s)
        nv = sb.nvars
        for v in range(1, nv):
            rgb = fglm_convert(sb, MonomialOrder.lex_smallest(nv, v))
            order = rgb.target_order
            conversions += 1
            assert sum(g.support_vars() <= {v} for g in rgb.basis) == 1
            f, forms = shape_forms(rgb, v)
            assert (f.degree == nv) == (set(forms) == set(range(nv)) - {v})
            # each variable leads a generator by a pure power, and such a
            # generator involves only that variable and smaller ones
            leads = [(g, g.leading_monomial(order)) for g in rgb.basis]
            below = set()
            for y in reversed(order.priority):
                below.add(y)
                leaders = [g for g, lm in leads if 0 < lm[y] == lm.degree]
                assert leaders
                assert all(g.support_vars() <= below for g in leaders)
        assert find_generic_element(s).eliminant.degree == nv
    assert conversions == 370


def _fraction_fglm(mats, target):
    """A reference FGLM, independent of `fglm_from_matrices` in both of its
    parts.  The walk pushes every product of a staircase monomial, remembers
    the first parent of each, and skips a popped monomial when a leading
    term found so far divides it.  The elimination is unit-pivot Fraction
    arithmetic: each echelon row is scaled to pivot 1 and carries its
    combination over the staircase as a dict.  Returns (basis, normal set)."""
    nv = target.nvars
    dim = mats[0].nrows
    one = Monomial.one(nv)
    staircase, raw, echelon, generators, lead_terms = [], {}, [], [], []
    heap, seen, parents = [], set(), {}

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
            pv = Fraction(residue[pivot])
            expansion = {mono: 1 / pv}
            for t, ct in combo.items():
                expansion[t] = -ct / pv
            staircase.append(mono)
            raw[mono] = vec
            echelon.append((pivot, tuple(x / pv for x in residue), expansion))
            for var in range(nv):
                push(mono.mul(Monomial.variable(var, nv)), (mono, var))
        else:
            generators.append(MPoly(nv, {mono: 1, **{t: -ct for t, ct in combo.items()}}))
            lead_terms.append(mono)
    generators.sort(key=lambda g: target.key(g.leading_monomial(target)))
    return PolyBasis(generators, target), tuple(staircase)


def test_fglm_from_matrices_matches_the_fraction_reference():
    # Distinct orbit tensors with m <= 18 under every lex_smallest order, the
    # degree order and a block order; one matrix set with the last class
    # replaced by an integer combination, as `_generic_element` builds it;
    # rational input, B_i scaled by 1/(i+1), whose vectors mix int,
    # Fraction(x, 1) and proper fractions; and walks that pop many border
    # monomials: (40, 39) with x1 smallest and in degree order, and every
    # lex order of (25, 4) and (32, 7), which have no shape basis.  A scheme's
    # B_i is conjugate to its transpose by the valencies, which keeps every
    # dependency, so Q[x]/(x^3) on (1, x, x^2), whose x is nilpotent, checks
    # that the walk applies columns.
    x = QMatrix(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    nilpotent = [QMatrix.identity(3), x, x @ x]
    cases = [(nilpotent, MonomialOrder.lex_smallest(3, 1)), (nilpotent, MonomialOrder.degree(3))]
    for s in distinct_orbit_tensors(18):
        sb = structure_basis(s)
        nv = sb.nvars
        mats = [multiplication_matrix(sb, i) for i in range(nv)]
        orders = [MonomialOrder.lex_smallest(nv, v) for v in range(1, nv)]
        orders += [MonomialOrder.degree(nv), MonomialOrder.lex_block_smallest(nv, range(1, min(3, nv)))]
        cases += [(mats, order) for order in orders]
        scaled = [b.scale(Fraction(1, i + 1)) for i, b in enumerate(mats)]
        cases += [(scaled, MonomialOrder.lex_smallest(nv, nv - 1)), (scaled, MonomialOrder.degree(nv))]
    sb = structure_basis(orbit_scheme(13, 5))
    mats = [multiplication_matrix(sb, i) for i in range(4)]
    mats[3] = mats[3] + mats[1].scale(3) + mats[2].scale(7)
    cases.append((mats, MonomialOrder.lex(tuple(range(sb.nvars)))))
    for (m, r), orders in (
        ((40, 39), lambda nv: [MonomialOrder.lex_smallest(nv, 1), MonomialOrder.degree(nv)]),
        ((25, 4), lambda nv: [MonomialOrder.lex_smallest(nv, v) for v in range(nv)]),
        ((32, 7), lambda nv: [MonomialOrder.lex_smallest(nv, v) for v in range(nv)]),
    ):
        sb = structure_basis(orbit_scheme(m, r))
        mats = [multiplication_matrix(sb, i) for i in range(sb.nvars)]
        cases += [(mats, order) for order in orders(sb.nvars)]
    for mats, order in cases:
        rgb = fglm_from_matrices(mats, order)
        assert (rgb.basis, rgb.normal_set) == _fraction_fglm(mats, order)


def _below(mono):
    """mono / x_u for every variable x_u that divides mono."""
    return [mono[:u] + (e - 1,) + mono[u + 1 :] for u, e in enumerate(mono) if e]


def test_normal_sets_are_order_ideals_bounded_by_the_leading_monomials(monkeypatch):
    # Every lex_smallest order of the distinct orbit tensors with m <= 18:
    # each normal set is closed under division, the generators lead with
    # exactly its minimal outside monomials in ascending target order, and
    # the walk pushes no monomial twice.
    pushed = []
    heappush = heapq.heappush

    def recording_push(heap, entry):
        pushed.append(entry[1])  # entries are (key, monomial, ...)
        heappush(heap, entry)

    monkeypatch.setattr(heapq, "heappush", recording_push)
    for s in distinct_orbit_tensors(18):
        sb = structure_basis(s)
        nv = sb.nvars
        for v in range(nv):
            order = MonomialOrder.lex_smallest(nv, v)
            pushed.clear()
            rgb = fglm_convert(sb, order)
            assert len(set(pushed)) == len(pushed)
            normal = set(rgb.normal_set)
            assert all(b in normal for mono in normal for b in _below(mono))
            outside = {mono.mul(Monomial.variable(u, nv)) for mono in normal for u in range(nv)} - normal
            minimal = sorted((o for o in outside if all(b in normal for b in _below(o))), key=order.key)
            assert [g.leading_monomial(order) for g in rgb.basis] == minimal
