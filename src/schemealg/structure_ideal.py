"""The structure ideal of a scheme: its Bose-Mesner relations as polynomials.

For a scheme with classes 0..d the ideal is generated by x_0 - 1 together
with x_i*x_j - sum_k p_ij^k x_k (constants absorbed via x_0 = 1).  That set
is a reduced Groebner basis for any total-degree order, with normal set
{1, x_1, ..., x_d}, exactly when the tensor is associative; this module builds
it, certifies that integer identity, and reads the multiplication matrices of
the quotient algebra off the tensor (they are the intersection matrices).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantViolation
from .exactmath import QMatrix
from .polyring import Monomial, MonomialOrder, MPoly, PolyBasis, normal_form
from .scheme import Scheme, intersection_matrix


@dataclass(frozen=True)
class StructureBasis:
    """A scheme's structure ideal, held as a reduced degree-order basis."""

    scheme: Scheme
    basis: PolyBasis
    normal_set: tuple

    @property
    def nvars(self):
        return self.scheme.d + 1

    @property
    def quotient_dimension(self):
        return len(self.normal_set)


def structure_basis(s: Scheme) -> StructureBasis:
    """Build the structure basis and certify it: (x_i x_j) x_l = x_i (x_j x_l)
    in integers for all i <= j and l.  That is Buchberger's criterion for this
    basis (the S-polynomial of x_i x_j and x_j x_l compares exactly those two
    products; pairs with x_0 - 1 are coprime), so a failure means the tensor
    is not associative, i.e. broken.
    """
    d = s.d
    nv = d + 1
    p = s.tensor.p
    relation = {}
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            terms = {Monomial.variable(i, nv).mul(Monomial.variable(j, nv)): 1}
            terms[Monomial.one(nv)] = terms.get(Monomial.one(nv), 0) - p[i][j][0]
            for k in range(1, d + 1):
                if p[i][j][k]:
                    terms[Monomial.variable(k, nv)] = -p[i][j][k]
            relation[i, j] = MPoly(nv, terms)
    gens = [MPoly.variable(0, nv) - 1, *relation.values()]
    order = MonomialOrder.degree(nv)
    gens.sort(key=lambda g: order.key(g.leading_monomial(order)))
    basis = PolyBasis(gens, order)
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for l in range(1, d + 1):
                if _associates(p, i, j, l):
                    continue
                xi, xl = MPoly.variable(i, nv), MPoly.variable(l, nv)
                s_pair = xl * relation[i, j] - xi * relation[min(j, l), max(j, l)]
                raise InternalInvariantViolation(
                    f"structure relations are not a Groebner basis: "
                    f"(x{i}*x{j})*x{l} != x{i}*(x{j}*x{l}); "
                    f"offending reduction: {normal_form(s_pair, basis).render()}"
                )
    normal_set = (Monomial.one(nv),) + tuple(Monomial.variable(i, nv) for i in range(1, nv))
    return StructureBasis(scheme=s, basis=basis, normal_set=normal_set)


def _associates(p, i, j, l):
    """True iff sum_t p_ij^t p_tl^k == sum_t p_jl^t p_it^k for every k."""
    left, right = [0] * len(p), [0] * len(p)
    for t in range(len(p)):
        a, b = p[i][j][t], p[j][l][t]
        if a:
            left = [x + a * y for x, y in zip(left, p[t][l])]
        if b:
            right = [x + b * y for x, y in zip(right, p[i][t])]
    return left == right


def multiplication_matrix(sb: StructureBasis, i: int) -> QMatrix:
    """Matrix of multiplication by x_i on the quotient, over the normal set:
    column m holds the coordinates of x_i * (m-th basis monomial), which are
    the intersection numbers p_im^k, so this is the intersection matrix B_i."""
    return intersection_matrix(sb.scheme, i)


def idempotent_equations(sb: StructureBasis):
    """The quadratic system cutting out the idempotents of the algebra:
    for each k, sum_{i<=j} (1 or 2) p_ij^k y_i y_j - y_k, in variables y_0..y_d."""
    s = sb.scheme
    d = s.d
    nv = d + 1
    p = s.tensor.p
    eqs = []
    for k in range(nv):
        terms = {}
        for i in range(nv):
            for j in range(i, nv):
                c = p[i][j][k] * (1 if i == j else 2)
                if c:
                    m = Monomial.variable(i, nv).mul(Monomial.variable(j, nv))
                    terms[m] = terms.get(m, 0) + c
        yk = Monomial.variable(k, nv)
        terms[yk] = terms.get(yk, 0) - 1
        eqs.append(MPoly(nv, terms))
    return tuple(eqs)


def verify_radical(sb: StructureBasis) -> bool:
    """True iff the ideal has d+1 distinct real points (schemes always should).

    Delegates to the solving pipeline; a squarefree eliminant with a full set
    of distinct points is exactly what radicality buys for these ideals.
    """
    from . import analysis  # local import: analysis sits above this module

    points = analysis.variety_points(sb)
    if len(points) != sb.quotient_dimension:
        return False
    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if all(x.compare(y) == 0 for x, y in zip(points[a].coordinates, points[b].coordinates)):
                return False
    return True
