"""Command-line interface.

Scheme descriptions are JSON documents, read from a file or stdin ("-"):

    {"type": "orbit", "m": 9, "r": 2}
    {"type": "relations", "labels": [[0,1,1],[1,0,1],[1,1,0]]}
    {"type": "tensor", "p": [[[...],...],...]}

Every command accepts --format text|json and writes one deterministic
report to stdout.  Exit codes: 0 success, 2 unusable input (bad JSON,
bad arguments or an argument out of its bounds, an orbit modulus m above
MAX_ORBIT_M, a relations matrix with more than MAX_RELATIONS_V rows, a
scheme with more than MAX_CLASSES classes), 3 the input is not an
association scheme, 4 analysis failed on a valid scheme.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analysis import (
    character_table,
    check_p_polynomial,
    express_in_terms_of,
    find_generic_element,
    minimal_generating_sets,
)
from .errors import (
    InternalInvariantViolation,
    InvalidRadix,
    NotAPartition,
    NotCommutative,
    NotConstantIntersectionNumber,
    NotSymmetric,
    ParseError,
    SchemeAlgError,
)
from .fglm import fglm_convert
from .polyring import MonomialOrder
from .scheme import (
    IntersectionTensor,
    Scheme,
    orbit_classes,
    orbit_scheme,
    scheme_from_relations,
)
from .structure_ideal import structure_basis

# An orbit scheme keeps an m x m label matrix; this bounds what a small JSON
# document may ask to allocate.
MAX_ORBIT_M = 2048
# Building a scheme from a v x v label matrix checks the axioms in O(v^3)
# time.
MAX_RELATIONS_V = 256
# A scheme with d classes has a (d+1)^3 intersection tensor, certified in
# O(d^4) integer steps.
MAX_CLASSES = 64
# Rendering an irrational entry bisects it to 10^-(digits+2), so the cost of
# a chartab report grows with the digits asked for.
MAX_DIGITS = 100

_SCHEME_AXIOM_ERRORS = (
    NotAPartition,
    NotSymmetric,
    NotConstantIntersectionNumber,
    NotCommutative,
    InvalidRadix,
)


# ---------------------------------------------------------------------------
# input
# ---------------------------------------------------------------------------


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _check_keys(doc, allowed):
    extra = set(doc) - set(allowed)
    if extra:
        raise ParseError(f"unexpected keys in scheme description: {sorted(extra)}")


def _check_classes(d, what):
    if d > MAX_CLASSES:
        raise ParseError(f"{what}: d={d} classes exceed the limit d <= {MAX_CLASSES}")


def load_scheme(path: str) -> Scheme:
    """Read and build a scheme from a JSON description file ('-' = stdin)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer over the digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("scheme description must be a JSON object")
    kind = doc.get("type")
    if kind == "orbit":
        _check_keys(doc, {"type", "m", "r"})
        if "m" not in doc or "r" not in doc:
            raise ParseError("orbit scheme needs keys 'm' and 'r'")
        m = _as_int(doc["m"], "m")
        if m > MAX_ORBIT_M:
            raise ParseError(f"orbit m={m} exceeds the limit m <= {MAX_ORBIT_M}")
        r = _as_int(doc["r"], "r")
        _check_classes(len(orbit_classes(m, r)[1]) - 1, f"orbit m={m}, r={r}")
        return orbit_scheme(m, r)
    if kind == "relations":
        _check_keys(doc, {"type", "labels"})
        labels = doc.get("labels")
        if not isinstance(labels, list) or not all(isinstance(r, list) for r in labels):
            raise ParseError("'labels' must be a list of rows")
        if len(labels) > MAX_RELATIONS_V:
            raise ParseError(
                f"relations on v={len(labels)} points exceed the limit v <= {MAX_RELATIONS_V}"
            )
        rows = [[_as_int(x, "label") for x in row] for row in labels]
        _check_classes(max((max(row) for row in rows if row), default=0), "relations")
        return scheme_from_relations(rows)
    if kind == "tensor":
        _check_keys(doc, {"type", "p"})
        p = doc.get("p")
        ok = isinstance(p, list) and all(
            isinstance(pi, list) and all(isinstance(r, list) for r in pi) for pi in p
        )
        if not ok:
            raise ParseError("'p' must be a triply nested list of integers")
        _check_classes(len(p) - 1, "tensor")
        tensor = IntersectionTensor(
            tuple(
                tuple(tuple(_as_int(x, "intersection number") for x in row) for row in pi)
                for pi in p
            )
        ).validate()
        return Scheme(tensor=tensor, origin="tensor")
    raise ParseError(f"unknown scheme type {kind!r}")


# ---------------------------------------------------------------------------
# value rendering
# ---------------------------------------------------------------------------


def _value_text(c, digits):
    if c.is_rational:
        return str(Fraction(c.value))
    return "~" + c.decimal(digits)


def _value_json(c):
    if c.is_rational:
        return str(Fraction(c.value))
    return {
        "minpoly": [str(x) for x in c.poly.coeffs],
        "interval": [str(c.low), str(c.high)],
    }


def _unipoly_json(p):
    return [str(Fraction(c)) for c in p.coeffs]


def _emit(args, text_lines, json_doc):
    if args.format == "json":
        print(json.dumps(json_doc, indent=2))
    else:
        print("\n".join(text_lines))
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args):
    s = load_scheme(args.scheme)
    try:
        structure_basis(s)
    except InternalInvariantViolation as e:
        print(f"not a scheme: {e}", file=sys.stderr)
        return 3
    lines = [
        "valid: yes",
        f"order: {s.order}",
        f"classes: {s.d}",
        "valencies: " + " ".join(str(k) for k in s.valencies),
        f"origin: {s.origin}",
    ]
    doc = {
        "valid": True,
        "order": s.order,
        "classes": s.d,
        "valencies": list(s.valencies),
        "origin": s.origin,
    }
    return _emit(args, lines, doc)


def cmd_chartab(args):
    if not 0 <= args.digits <= MAX_DIGITS:
        raise ParseError(f"--digits must be between 0 and {MAX_DIGITS}")
    s = load_scheme(args.scheme)
    ct = character_table(s)
    lines = [
        f"order: {s.order}",
        "valencies: " + " ".join(str(k) for k in s.valencies),
        "P:",
    ]
    for row in ct.P:
        lines.append("  " + " ".join(_value_text(c, args.digits) for c in row))
    lines.append("Q:")
    for row in ct.Q:
        lines.append("  " + " ".join(_value_text(c, args.digits) for c in row))
    doc = {
        "order": s.order,
        "valencies": list(s.valencies),
        "P": [[_value_json(c) for c in row] for row in ct.P],
        "Q": [[_value_json(c) for c in row] for row in ct.Q],
    }
    return _emit(args, lines, doc)


def cmd_ppoly(args):
    s = load_scheme(args.scheme)
    rep = check_p_polynomial(s)
    if rep.is_p_polynomial:
        lines = ["p-polynomial: yes"]
        doc = {"p_polynomial": True}
        if rep.generator_variable is not None:
            lines.append(f"generator class: {rep.generator_variable}")
            lines.append(
                "distance relabeling: "
                + " ".join(str(x) for x in rep.distance_relabeling)
            )
            lines.append(f"eliminant: {rep.eliminant.render()}")
            doc["generator_class"] = rep.generator_variable
            doc["distance_relabeling"] = list(rep.distance_relabeling)
            doc["eliminant"] = _unipoly_json(rep.eliminant)
        else:
            lines.append("generator class: none needed (single class)")
            doc["generator_class"] = None
    else:
        lines = ["p-polynomial: no"]
        for i in sorted(rep.diagnostics):
            lines.append(f"class {i}: {rep.diagnostics[i]}")
        doc = {
            "p_polynomial": False,
            "diagnostics": {str(i): rep.diagnostics[i] for i in sorted(rep.diagnostics)},
        }
    return _emit(args, lines, doc)


def _parse_classes(text):
    try:
        out = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ParseError(f"bad class list {text!r}") from e
    if not out:
        raise ParseError("class list is empty")
    return out


def cmd_express(args):
    s = load_scheme(args.scheme)
    subset = _parse_classes(args.classes)
    if any(not 1 <= v <= s.d for v in subset):
        raise ParseError(f"classes must be between 1 and {s.d}")
    sb = structure_basis(s)
    exprs = express_in_terms_of(sb, subset)
    lines = ["subset: " + " ".join(str(v) for v in sorted(set(subset)))]
    for j in sorted(exprs):
        lines.append(f"x{j} = {exprs[j].render()}")
    doc = {
        "subset": sorted(set(subset)),
        "expressions": {str(j): exprs[j].render() for j in sorted(exprs)},
    }
    return _emit(args, lines, doc)


def cmd_mingen(args):
    s = load_scheme(args.scheme)
    sets = minimal_generating_sets(s)
    size = len(sets[0]) if sets else 0
    lines = [f"minimal size: {size}"]
    for cand in sets:
        lines.append("generating set: " + " ".join(str(v) for v in cand))
    doc = {"minimal_size": size, "generating_sets": [list(c) for c in sets]}
    return _emit(args, lines, doc)


def cmd_generator(args):
    if args.max_coeff < 1:
        raise ParseError("--max-coeff must be at least 1")
    if args.max_attempts < 0:
        raise ParseError("--max-attempts must be at least 0")
    s = load_scheme(args.scheme)
    ge = find_generic_element(
        s, rng_seed=args.seed, max_coeff=args.max_coeff, max_attempts=args.max_attempts
    )
    lines = [
        "coefficients: " + " ".join(str(c) for c in ge.coefficients),
        "changes: "
        + (" ".join(f"x{v}+={c}" for v, c in ge.changes) if ge.changes else "none"),
        f"eliminant: {ge.eliminant.render('y')}",
    ]
    for j, expr in enumerate(ge.expressions):
        lines.append(f"x{j} = {expr.render('y')}")
    doc = {
        "coefficients": list(ge.coefficients),
        "changes": [[v, c] for v, c in ge.changes],
        "eliminant": _unipoly_json(ge.eliminant),
        "expressions": [_unipoly_json(e) for e in ge.expressions],
    }
    return _emit(args, lines, doc)


def cmd_gb(args):
    s = load_scheme(args.scheme)
    sb = structure_basis(s)
    nv = sb.nvars
    if args.order == "degree":
        if args.smallest is not None:
            raise ParseError("--smallest only applies to --order lex")
        basis, normal_set, order = sb.basis, sb.normal_set, sb.basis.order
    else:
        if args.smallest is None:
            raise ParseError("--order lex requires --smallest")
        if not 0 <= args.smallest <= s.d:
            raise ParseError(f"--smallest must be between 0 and {s.d}")
        rgb = fglm_convert(sb, MonomialOrder.lex_smallest(nv, args.smallest))
        basis, normal_set, order = rgb.basis, rgb.normal_set, rgb.target_order
    lines = [f"order: {args.order}"]
    if args.order == "lex":
        lines.append(f"smallest: x{args.smallest}")
    lines.append("generators:")
    lines.extend("  " + g.render(order) for g in basis)
    lines.append("normal set: " + " ".join(m.render() for m in normal_set))
    doc = {
        "order": args.order,
        "generators": [g.render(order) for g in basis],
        "normal_set": [m.render() for m in normal_set],
    }
    if args.order == "lex":
        doc["smallest"] = args.smallest
    return _emit(args, lines, doc)


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="schemealg",
        description="Exact algebraic analysis of commutative association schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scheme", help="JSON scheme description file, or - for stdin")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser(
        "validate", help="check the scheme axioms (including associativity) and summarize"
    )
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chartab", help="character table (first and second eigenmatrices)")
    common(p)
    p.add_argument("--digits", type=int, default=12, help="digits for irrational entries")
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("ppoly", help="test for the P-polynomial (metric) property")
    common(p)
    p.set_defaults(func=cmd_ppoly)

    p = sub.add_parser("express", help="write the other classes as polynomials in a subset")
    common(p)
    p.add_argument("--classes", required=True, help="comma-separated class numbers, e.g. 1,2")
    p.set_defaults(func=cmd_express)

    p = sub.add_parser("mingen", help="all minimum-size polynomially generating class sets")
    common(p)
    p.set_defaults(func=cmd_mingen)

    p = sub.add_parser("generator", help="find a single element with d+1 distinct eigenvalues")
    common(p)
    p.add_argument("--seed", type=int, default=0, help="random seed for coefficient picks")
    p.add_argument("--max-coeff", type=int, default=10, help="largest random coefficient")
    p.add_argument("--max-attempts", type=int, default=32, help="coordinate changes to try")
    p.set_defaults(func=cmd_generator)

    p = sub.add_parser("gb", help="Groebner basis of the structure ideal")
    common(p)
    p.add_argument("--order", choices=("degree", "lex"), default="degree")
    p.add_argument("--smallest", type=int, default=None, help="smallest variable for lex")
    p.set_defaults(func=cmd_gb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except _SCHEME_AXIOM_ERRORS as e:
        print(f"not a scheme: {e}", file=sys.stderr)
        return 3
    except SchemeAlgError as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
