"""Independent checks of the program's outputs.

Nothing here calls into `schemealg`'s algorithms: the expected values come
from closed forms (Gauss periods, Krawtchouk polynomials), breadth-first
search on the label matrix the benchmark built itself, and stdout digests
pinned in `cli_expected.json`.  Each check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from fractions import Fraction
from math import comb
from pathlib import Path

PINS = Path(__file__).with_name("cli_expected.json")


# -- orbit schemes on Z_m ------------------------------------------------------


def orbits(m, r):
    """Orbits of <r, -1> acting on Z_m by multiplication, ordered by their
    least element (class 0 is {0})."""
    group, frontier = {1}, [1]
    while frontier:
        h = frontier.pop()
        for g in (r, m - 1):
            x = h * g % m
            if x not in group:
                group.add(x)
                frontier.append(x)
    out, seen = [], set()
    for x in range(m):
        if x not in seen:
            orb = sorted({h * x % m for h in group})
            seen.update(orb)
            out.append(orb)
    return out


def orbit_labels(m, r, perm):
    """Label matrix of the orbit scheme after the relabelling perm[old] = new."""
    cls = [0] * m
    for i, orb in enumerate(orbits(m, r)):
        for x in orb:
            cls[x] = perm[i]
    return [[cls[(x - y) % m] for y in range(m)] for x in range(m)]


def check_gauss_periods(P, m, r, perm, digits=40):
    """Every certified entry of P must enclose the Gauss period
    sum_{x in O_i} cos(2 pi a x / m), computed to `digits` digits, for one
    character a per row; rows match characters one to one, in any order."""
    import mpmath

    orbs = orbits(m, r)
    n = len(orbs)
    if len(P) != n or any(len(row) != n for row in P):
        return f"P is not {n}x{n}"
    with mpmath.workdps(digits + 5):
        tol = mpmath.mpf(10) ** -(digits - 2)
        expected = []
        for orb in orbs:  # one character per dual orbit; orbit reps suffice
            a = orb[0]
            row = [mpmath.fsum(mpmath.cos(2 * mpmath.pi * a * x / m) for x in o) for o in orbs]
            expected.append([row[old] for old in inverse(perm)])
        used = set()
        for mu, row in enumerate(P):
            hits = [k for k, exp in enumerate(expected) if _row_encloses(row, exp, tol, mpmath)]
            if len(hits) != 1:
                return f"row {mu} matches {len(hits)} Gauss-period rows"
            if hits[0] in used:
                return f"row {mu} repeats a character"
            used.add(hits[0])
    return None


def inverse(perm):
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _mp(x, mpmath):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _row_encloses(row, exp, tol, mpmath):
    for c, v in zip(row, exp):
        if c.is_rational:
            if abs(_mp(c.value, mpmath) - v) > tol:
                return False
        elif not (_mp(c.low, mpmath) - tol <= v <= _mp(c.high, mpmath) + tol):
            return False
    return True


# -- metric (P-polynomial) structure by breadth-first search ----------------


def bfs_distances(labels, cls):
    """Graph distances from vertex 0 in the graph whose edges carry label
    `cls`; None for unreachable vertices."""
    v = len(labels)
    dist = [None] * v
    dist[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in range(v):
            if labels[x][y] == cls and dist[y] is None:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distance_relabelling(labels, cls):
    """class -> distance when the distance classes of graph `cls` are exactly
    the scheme's classes (the scheme is P-polynomial for `cls`), else None."""
    d = max(max(row) for row in labels)
    dist = bfs_distances(labels, cls)
    if None in dist:
        return None
    sigma = [None] * (d + 1)
    for y, k in enumerate(labels[0]):
        if sigma[k] is None:
            sigma[k] = dist[y]
        elif sigma[k] != dist[y]:
            return None
    if sorted(sigma) != list(range(d + 1)):
        return None
    # vertex 0 suffices: in an association scheme the number of walks
    # between two vertices depends only on their class
    return tuple(sigma)


def check_metric(report, labels):
    """The verdict must agree with BFS over every class, and a reported
    distance relabelling must equal the BFS distances of its generator."""
    d = max(max(row) for row in labels)
    metric = [c for c in range(1, d + 1) if distance_relabelling(labels, c) is not None]
    if bool(metric) != report.is_p_polynomial:
        return f"verdict {report.is_p_polynomial} but BFS finds metric classes {metric}"
    if not report.is_p_polynomial:
        return None
    g = report.generator_variable
    if g not in metric:
        return f"generator class {g} is not metric by BFS"
    if tuple(report.distance_relabeling) != distance_relabelling(labels, g):
        return f"distance relabelling {report.distance_relabeling} disagrees with BFS"
    return None


# -- binary Hamming schemes ------------------------------------------------------


def hamming_labels(n, perm):
    v = 1 << n
    return [[perm[bin(x ^ y).count("1")] for y in range(v)] for x in range(v)]


def krawtchouk(n, k, j):
    """K_k(j) for the binary Hamming scheme H(n, 2)."""
    return sum((-1) ** i * comb(j, i) * comb(n - j, k - i) for i in range(k + 1))


def check_krawtchouk(report, n, perm):
    """Rows of P read off the witness lex basis must equal the Krawtchouk rows.

    The basis holds x_g's eliminant and solved forms x_k = q_k(x_g); each
    eigenvalue theta of class g gives the row (q_0(theta), ..., q_d(theta)).
    """
    g = report.generator_variable
    inv = inverse(perm)
    expected = {
        tuple(krawtchouk(n, inv[c], j) for c in range(n + 1)) for j in range(n + 1)
    }
    elim = report.eliminant
    thetas = {row[g] for row in expected}
    if len(thetas) != n + 1 or elim.degree != n + 1:
        return "eliminant degree does not match the Krawtchouk spectrum"
    if any(elim.evaluate(t) != 0 for t in thetas):
        return "eliminant does not vanish on the Krawtchouk spectrum"
    basis = report.witness_basis
    forms = {}
    for gen in basis.basis:
        lead = gen.leading_monomial(basis.target_order)
        if sum(lead) == 1 and lead[g] == 0:
            forms[lead.index(1)] = {m: c for m, c in gen.terms.items() if m != lead}
    if set(forms) != set(range(n + 1)) - {g}:
        return "witness basis lacks solved forms"
    got = set()
    for t in thetas:
        row = [None] * (n + 1)
        row[g] = Fraction(t)
        for k, tail in forms.items():
            row[k] = -sum(Fraction(c) * Fraction(t) ** m[g] for m, c in tail.items())
        got.add(tuple(row))
    if got != {tuple(Fraction(x) for x in row) for row in expected}:
        return "P rows differ from the Krawtchouk values"
    return None


# -- command line ---------------------------------------------------------------


def load_pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


def check_cli(pins, request_id, code, stdout):
    pin = pins.get(request_id)
    if pin is None:
        return f"no pinned output for {request_id}"
    if code != pin["exit"]:
        return f"exit {code}, expected {pin['exit']}"
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if digest != pin["stdout_sha256"]:
        return "stdout differs from the pinned digest"
    return None
