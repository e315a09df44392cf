"""The structure ideal of a scheme: its Bose-Mesner relations as polynomials.

For a scheme with classes 0..d the ideal is generated by x_0 - 1 together
with x_i*x_j - sum_k p_ij^k x_k (constants absorbed via x_0 = 1).  That set
is a reduced Groebner basis for any total-degree order, with normal set
{1, x_1, ..., x_d}, exactly when the tensor is associative.  This module
certifies that integer identity over the nonzero entries of the tensor
(`_sparse_columns`, the one sparse view of it, which the solve and the
Krylov walks read too), reads the multiplication matrices of the quotient
algebra off the tensor (they are the intersection matrices), and writes the
basis out as polynomials only when a caller asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantViolation
from .exactmath import QMatrix
# normal_form is unused here: perfbench/test_perfbench.py checks that its tracer wraps this binding
from .polyring import Monomial, MonomialOrder, MPoly, PolyBasis, normal_form  # noqa: F401
from .scheme import Scheme, intersection_matrix


@dataclass(frozen=True)
class StructureBasis:
    """A scheme whose tensor passed the associativity certificate, viewed as
    the reduced degree-order basis of its structure ideal."""

    scheme: Scheme

    @property
    def nvars(self):
        return self.scheme.d + 1

    @property
    def quotient_dimension(self):
        return self.nvars

    @property
    def normal_set(self):
        nv = self.nvars
        return (Monomial.one(nv),) + tuple(Monomial.variable(i, nv) for i in range(1, nv))

    @property
    def basis(self) -> PolyBasis:
        """x_0 - 1 and x_i x_j - sum_k p_ij^k x_k for 1 <= i <= j, sorted by
        leading monomial; written out from the tensor on every read."""
        nv, p = self.nvars, self.scheme.tensor.p
        x = [MPoly.variable(i, nv) for i in range(nv)]
        gens = [x[0] - 1] + [x[i] * x[j] - _linear(p[i][j]) for i in range(1, nv) for j in range(i, nv)]
        order = MonomialOrder.degree(nv)
        return PolyBasis(sorted(gens, key=lambda g: order.key(g.leading_monomial(order))), order)


def _linear(v):
    """sum_k v[k] x_k, with x_0 read as 1."""
    nv = len(v)
    return MPoly(nv, {Monomial.one(nv) if k == 0 else Monomial.variable(k, nv): c for k, c in enumerate(v)})


def structure_basis(s: Scheme) -> StructureBasis:
    """Certify the structure basis: (x_i x_j) x_l = x_i (x_j x_l) in integers
    for all i <= j and l.  That is Buchberger's criterion for this basis (the
    S-polynomial of x_i x_j and x_j x_l compares exactly those two products;
    pairs with x_0 - 1 are coprime), so a failure means the tensor is not
    associative, i.e. broken.  The failure names the S-polynomial's normal
    form, sum_k (right_k - left_k) x_k: each x_t x_l has one reducer.

    Both products are summed over the nonzero entries of the p_ij only
    (`_sparse_columns`): (x_i x_j) x_l = sum_t p_ij^t x_t x_l, and
    x_i (x_j x_l) = sum_t p_jl^t x_i x_t.

    Every lex or generic eliminant of a certified tensor is squarefree with
    real roots: the validated p_ij^0 = delta_ij k_i, k_i >= 1, make <a, b> =
    (x_0-coefficient of ab) positive definite, and commutativity with
    associativity make every real combination of the B_i self-adjoint for it
    (Bannai-Ito, Algebraic Combinatorics I, 2.2-2.3).
    """
    sb = StructureBasis(scheme=s)
    columns = _sparse_columns(sb)
    n = len(columns)
    for i in range(1, n):
        for j in range(i, n):
            for l in range(1, n):
                left, right = [0] * n, [0] * n
                for t, a in columns[i][j]:
                    for k, b in columns[t][l]:
                        left[k] += a * b
                for t, a in columns[j][l]:
                    for k, b in columns[i][t]:
                        right[k] += a * b
                if left != right:
                    nf = _linear([b - a for a, b in zip(left, right)])
                    raise InternalInvariantViolation(
                        f"structure relations are not a Groebner basis: "
                        f"(x{i}*x{j})*x{l} != x{i}*(x{j}*x{l}); "
                        f"offending reduction: {nf.render()}"
                    )
    return sb


def _sparse_columns(sb: StructureBasis):
    """columns[i][m]: the nonzero entries (k, p_im^k) of column m of B_i,
    which is the tensor's vector p[i][m], k ascending.  The one sparse view
    of the tensor: the certificate, the solve context, the residual
    enclosures and the Krylov walks read it."""
    return [[[(k, a) for k, a in enumerate(col) if a] for col in pi] for pi in sb.scheme.tensor.p]


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
