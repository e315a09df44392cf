"""Symmetric association schemes: validation and intersection numbers.

A scheme is held as its intersection tensor p_ij^k (plus the relation
partition when it came from one).  Construction from explicit relation
matrices brute-forces the defining axioms in O(v^3); the orbit construction
builds Z_m with classes the orbits of the subgroup of units generated by
r and -1, counting intersection numbers by translation invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    InvalidRadix,
    NotAPartition,
    NotCommutative,
    NotConstantIntersectionNumber,
    NotSymmetric,
)
from .exactmath import QMatrix


@dataclass(frozen=True)
class RelationPartition:
    """A labeling of X x X by classes 0..d, class 0 the diagonal."""

    labels: tuple

    @property
    def size(self):
        return len(self.labels)


@dataclass(frozen=True)
class IntersectionTensor:
    """The numbers p_ij^k, indexed p[i][j][k], for classes 0..d; `validate` runs on construction."""

    p: tuple

    def __post_init__(self):
        self.validate()

    @property
    def d(self):
        return len(self.p) - 1

    def get(self, i, j, k):
        return self.p[i][j][k]

    @property
    def valencies(self):
        return tuple(self.p[i][i][0] for i in range(len(self.p)))

    @property
    def order(self):
        return sum(self.valencies)

    def validate(self):
        """Check the linear axioms of a commutative symmetric scheme on p_ij^k
        and return self; `structure_basis` certifies associativity."""
        if not isinstance(self.p, tuple) or any(
            not isinstance(pi, tuple) or any(not isinstance(pij, tuple) for pij in pi) for pi in self.p
        ):
            raise NotConstantIntersectionNumber("tensor is not a tuple of tuples of tuples")
        n = len(self.p)
        if any(len(pi) != n or any(len(pij) != n for pij in pi) for pi in self.p):
            raise NotConstantIntersectionNumber("tensor is not cubical")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    v = self.p[i][j][k]
                    if type(v) is not int or v < 0:
                        raise NotConstantIntersectionNumber(
                            f"p_{i}{j}^{k} = {v!r} is not a nonnegative integer"
                        )
                    if self.p[i][j][k] != self.p[j][i][k]:
                        raise NotCommutative(
                            f"p_{i}{j}^{k} = {self.p[i][j][k]} but p_{j}{i}^{k} = {self.p[j][i][k]}"
                        )
        for j in range(n):
            for k in range(n):
                if self.p[0][j][k] != (1 if j == k else 0):
                    raise NotConstantIntersectionNumber(
                        f"identity class: p_0{j}^{k} = {self.p[0][j][k]}"
                    )
        ks = self.valencies
        if not ks or ks[0] != 1 or any(v < 1 for v in ks):
            raise NotConstantIntersectionNumber(f"invalid valencies {ks}")
        for i in range(n):
            for k in range(n):
                total = sum(self.p[i][j][k] for j in range(n))
                if total != ks[i]:
                    raise NotConstantIntersectionNumber(
                        f"sum_j p_{i}j^{k} = {total} != k_{i} = {ks[i]}"
                    )
        return self


@dataclass(frozen=True)
class Scheme:
    """A (symmetric, hence commutative) association scheme."""

    tensor: IntersectionTensor
    partition: RelationPartition | None = None
    origin: str = field(default="tensor", compare=False)

    @property
    def d(self):
        return self.tensor.d

    @property
    def order(self):
        return self.tensor.order

    @property
    def valencies(self):
        return self.tensor.valencies

    def relabel(self, perm):
        """Apply a class relabeling (perm[old] = new; perm[0] must be 0)."""
        n = self.d + 1
        if sorted(perm) != list(range(n)) or perm[0] != 0:
            raise ValueError("relabeling must permute classes 1..d and fix 0")
        inv, old = sorted(range(n), key=perm.__getitem__), self.tensor.p  # inv[new] = old
        tensor = IntersectionTensor(tuple(tuple(tuple(old[a][b][c] for c in inv) for b in inv) for a in inv))
        part = None
        if self.partition is not None:
            part = RelationPartition(
                tuple(tuple(perm[x] for x in row) for row in self.partition.labels)
            )
        return Scheme(tensor=tensor, partition=part, origin=self.origin)


def scheme_from_relations(labels):
    """Build a Scheme from a v x v class-label matrix, checking every axiom.

    Raises NotAPartition / NotSymmetric / NotConstantIntersectionNumber /
    NotCommutative as appropriate.  O(v^3) by direct counting.
    """
    rows = tuple(tuple(row) for row in labels)
    v = len(rows)
    if v == 0 or any(len(r) != v for r in rows):
        raise NotAPartition("label matrix must be square and nonempty")
    seen = set()
    for x in range(v):
        for y in range(v):
            lab = rows[x][y]
            if type(lab) is not int or lab < 0:
                raise NotAPartition(f"label {lab!r} at ({x},{y}) is not a nonnegative integer")
            if (lab == 0) != (x == y):
                raise NotAPartition(
                    f"class 0 must be exactly the diagonal; label {lab} at ({x},{y})"
                )
            seen.add(lab)
    d = max(seen)
    if seen != set(range(d + 1)):
        missing = sorted(set(range(d + 1)) - seen)
        raise NotAPartition(f"classes {missing} are empty")
    for x in range(v):
        for y in range(x + 1, v):
            if rows[x][y] != rows[y][x]:
                raise NotSymmetric(
                    f"label at ({x},{y}) is {rows[x][y]} but ({y},{x}) is {rows[y][x]}"
                )
    n = d + 1
    ref = [None] * n  # ref[k] = counts seen at the first pair of class k
    ref_pair = [None] * n
    for x in range(v):
        rx = rows[x]
        for y in range(v):
            k = rx[y]
            counts = [[0] * n for _ in range(n)]
            for z in range(v):
                counts[rx[z]][rows[z][y]] += 1
            if ref_pair[k] is None:
                ref[k] = counts
                ref_pair[k] = (x, y)
            elif counts != ref[k]:
                rx0, ry0 = ref_pair[k]
                raise NotConstantIntersectionNumber(
                    f"class {k}: counts at ({x},{y}) differ from those at ({rx0},{ry0})"
                )
    p = tuple(
        tuple(tuple(ref[k][i][j] for k in range(n)) for j in range(n)) for i in range(n)
    )
    return Scheme(tensor=IntersectionTensor(p), partition=RelationPartition(rows), origin="relations")


def orbit_classes(m, r):
    """The orbits of <r, -1> acting by multiplication on Z_m, as (orbit_of,
    reps): orbit_of[x] is the orbit index of x, reps[k] the smallest member of
    orbit k (so orbit 0 is {0}, and the scheme has len(reps) - 1 classes)."""
    if not (isinstance(m, int) and isinstance(r, int)):
        raise InvalidRadix("m and r must be integers")
    if r <= 1 or r >= m or math.gcd(r, m) != 1:
        raise InvalidRadix(f"need 1 < r < m with gcd(r, m) = 1; got m={m}, r={r}")
    # <r, -1> = {+-r^a}.  The powers of the unit r return to 1, and at the first
    # r^a already held, r maps {+-r^j : j < a} into itself: that is the group.
    group = set()
    h = 1
    while h not in group:
        group |= {h, m - h}
        h = h * r % m
    orbit_of = [None] * m
    reps = []
    for x in range(m):  # ascending, so orbit indices sort by minimal representative
        if orbit_of[x] is None:
            for h in group:
                orbit_of[(h * x) % m] = len(reps)
            reps.append(x)
    return orbit_of, reps


def orbit_scheme(m, r):
    """The scheme on Z_m whose classes are the orbits of <r, -1> acting by
    multiplication; class i of (x, y) is the orbit of x - y."""
    orbit_of, reps = orbit_classes(m, r)
    # Row x is orbit_of[(x - y) % m] over y, which is orbit_of[(y - x) % m]
    # since -1 is in the group: orbit_of rotated right by x.
    labels = tuple(tuple(orbit_of[-x:] + orbit_of[:-x]) for x in range(m))
    # Classes depend on x - y only, so count p_ij^k at the pair (reps[k], 0).
    n = len(reps)
    p = [[[0] * n for _ in range(n)] for _ in range(n)]
    for k, x in enumerate(reps):
        for z in range(m):
            p[orbit_of[(x - z) % m]][orbit_of[z]][k] += 1
    tensor = IntersectionTensor(tuple(tuple(tuple(r) for r in pi) for pi in p))
    return Scheme(tensor=tensor, partition=RelationPartition(labels), origin=f"orbit(m={m}, r={r})")


def intersection_matrix(s, i):
    """The matrix of multiplication by class i on the basis (1, x_1..x_d):
    column m holds the coefficients of x_i * x_m, i.e. M[k][m] = p_im^k."""
    return QMatrix(zip(*s.tensor.p[i]))


def intersection_matrices(s):
    """intersection_matrix(s, i) for every class i = 0..d."""
    return tuple(intersection_matrix(s, i) for i in range(s.d + 1))
