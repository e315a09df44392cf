"""Per-layer tracing from outside the package, by wrapping its functions.

`Tracer` replaces selected functions and methods of `schemealg` with timing
wrappers for the duration of a `with` block.  Modules import functions by
name (`from .fglm import solve_triangular`), so a function is bound in several
module namespaces; the tracer finds every binding of each original by
identity, in every loaded `schemealg.*` module and in the defining class, and
restores each one on exit.

Spans are not kept per call.  Each job aggregates, per span name, the number
of outermost calls, the inclusive time (outermost calls only, so recursion is
not counted twice) and the self time (span time minus the time of child
spans), so a boundary hit 10^4 times per job costs one dict entry, not 10^4
spans.  Interval arithmetic is deliberately not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from fractions import Fraction

# (defining module, attribute path, span name)
TARGETS = (
    ("scheme", "orbit_scheme", "scheme.build"),
    ("scheme", "scheme_from_relations", "scheme.build"),
    ("scheme", "IntersectionTensor.validate", "scheme.build"),
    ("structure_ideal", "structure_basis", "structure_ideal.structure_basis"),
    ("structure_ideal", "multiplication_matrix", "structure_ideal.multiplication_matrix"),
    ("polyring", "is_groebner", "polyring.is_groebner"),
    ("polyring", "normal_form", "polyring.normal_form"),
    ("polyring", "MPoly.evaluate_interval", "polyring.evaluate_interval"),
    ("exactmath", "real_roots", "exactmath.real_roots"),
    ("exactmath", "RealRoot.refine", "exactmath.refine"),
    ("exactmath", "RealRoot.compare", "exactmath.compare"),
    ("exactmath", "QMatrix.charpoly", "exactmath.charpoly"),
    ("fglm", "fglm_from_matrices", "fglm.fglm_from_matrices"),
    ("fglm", "solve_triangular", "fglm.solve_triangular"),
    ("fglm", "_certify_point", "fglm.certify_point"),
    ("fglm", "_algebraic_value", "fglm.algebraic_value"),
    ("fglm", "_SolveContext.spectrum", "fglm.spectrum"),
    ("fglm", "moller_stetter_check", "fglm.moller_stetter"),
    ("analysis", "variety_points", "analysis.variety_points"),
    ("analysis", "_points_from_generic", "analysis.points_from_generic"),
    ("analysis", "_generic_element", "analysis.generic_element"),
    ("analysis", "character_table", "analysis.character_table"),
    ("analysis", "CharacterTable.check_orthogonality", "analysis.check_orthogonality"),
    ("analysis", "check_p_polynomial", "analysis.check_p_polynomial"),
    ("analysis", "express_in_terms_of", "analysis.express"),
    ("analysis", "minimal_generating_sets", "analysis.minimal_generating_sets"),
    ("analysis", "find_generic_element", "analysis.find_generic_element"),
    ("cli", "load_scheme", "cli.load_scheme"),
    ("cli", "main", "cli.main"),
)


def _in_package(modname):
    return modname == "schemealg" or modname.startswith("schemealg.")


def _bits(x):
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class JobTrace:
    """Aggregated spans and counters of one job."""

    def __init__(self):
        self.spans = {}  # name -> [outermost calls, inclusive s, self s]
        self.counters = {
            "not_triangular": 0,
            "coordinate_changes": 0,
            "nonzero_exits": 0,
            "max_endpoint_bits": 0,
        }
        self.matrix_keys = set()

    def as_dict(self):
        return {
            "spans": {
                k: {"calls": c, "total_s": t, "self_s": s}
                for k, (c, t, s) in sorted(self.spans.items())
            },
            "counters": dict(self.counters),
            "multiplication_matrix_distinct": len(self.matrix_keys),
        }


class Tracer:
    """Install wrappers on enter, restore every binding on exit.

    `begin_job()` starts a fresh `JobTrace`; spans recorded while no job is
    open are dropped.
    """

    def __init__(self):
        self.originals = {}  # id(original) -> original
        self.patched = []  # (namespace, attribute, original)
        self.job = None
        self._stack = []  # [start, child time]
        self._active = {}  # name -> depth, for outermost-only totals

    # -- install / restore --------------------------------------------------

    def __enter__(self):
        for modname, _, _ in TARGETS:
            importlib.import_module(f"schemealg.{modname}")
        modules = [m for n, m in sorted(sys.modules.items()) if _in_package(n)]
        for modname, path, span in TARGETS:
            owner = sys.modules[f"schemealg.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span)
            self.originals[id(original)] = original
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)
        return self

    def _patch(self, namespace, name, original, wrapper):
        setattr(namespace, name, wrapper)
        self.patched.append((namespace, name, original))

    def __exit__(self, *exc):
        for namespace, name, original in reversed(self.patched):
            setattr(namespace, name, original)
        self.patched.clear()
        return False

    # -- recording ----------------------------------------------------------

    def begin_job(self):
        self.job = JobTrace()
        self._stack = [[time.perf_counter(), 0.0]]
        self._active = {}
        return self.job

    def end_job(self):
        job, self.job = self.job, None
        self._stack = []
        return job

    def _wrap(self, fn, span):
        hook = _HOOKS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            stack = self._stack
            active = self._active
            outer = active.get(span, 0) == 0
            active[span] = active.get(span, 0) + 1
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(job, args, result, None)
                return result
            except BaseException as e:
                if hook is not None:
                    hook(job, args, None, e)
                raise
            finally:
                elapsed = time.perf_counter() - frame[0]
                stack.pop()
                active[span] -= 1
                stack[-1][1] += elapsed
                rec = job.spans.get(span)
                if rec is None:
                    rec = job.spans[span] = [0, 0.0, 0.0]
                rec[2] += elapsed - frame[1]
                if outer:
                    rec[0] += 1
                    rec[1] += elapsed

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper


# -- hooks: counters read off arguments, results and exceptions -------------


def _on_solve(job, args, result, exc):
    from schemealg.errors import NotTriangularEnough

    if isinstance(exc, NotTriangularEnough):
        job.counters["not_triangular"] += 1


def _on_generic(job, args, result, exc):
    if result is not None:
        job.counters["coordinate_changes"] += len(result.changes)


def _on_main(job, args, result, exc):
    if result:
        job.counters["nonzero_exits"] += 1


def _on_matrix(job, args, result, exc):
    sb, i = args[0], args[1]
    job.matrix_keys.add((sb.scheme.tensor.p, i))


def _endpoint_bits(job, roots):
    best = job.counters["max_endpoint_bits"]
    for r in roots:
        if r.is_rational:
            b = _bits(r.value)
        else:
            b = max(_bits(r.low), _bits(r.high))
        if b > best:
            best = b
    job.counters["max_endpoint_bits"] = best


def _on_roots(job, args, result, exc):
    if result is not None:
        _endpoint_bits(job, result)


def _on_refine(job, args, result, exc):
    if result is not None:
        _endpoint_bits(job, (result,))


_HOOKS = {
    "fglm.solve_triangular": _on_solve,
    "analysis.generic_element": _on_generic,
    "cli.main": _on_main,
    "structure_ideal.multiplication_matrix": _on_matrix,
    "exactmath.real_roots": _on_roots,
    "exactmath.refine": _on_refine,
}


def unwrapped_bindings(originals):
    """Every (module or class, name) in schemealg that still binds one of
    `originals` (a dict id -> object).  Empty while a Tracer is installed."""
    found = []
    for modname, mod in sorted(sys.modules.items()):
        if not _in_package(modname):
            continue
        for name, value in vars(mod).items():
            if id(value) in originals and value is originals[id(value)]:
                found.append(f"{modname}.{name}")
            if isinstance(value, type) and value.__module__ == modname:
                for attr, member in vars(value).items():
                    if id(member) in originals and member is originals[id(member)]:
                        found.append(f"{modname}.{name}.{attr}")
    return found
