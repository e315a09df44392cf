"""The three workloads: seeded inputs, the calls into the program, oracles.

A workload is a list of jobs per pass.  Every job is one call into the
program's public API in a closed loop (one client, one job at a time).  The
seed and the pass index fix every input; the program only receives them.

- chartab-irrational: `character_table` on a ladder of orbit schemes whose
  eigenvalues are all partly irrational, each with a seeded class relabelling.
  The time goes to root isolation and refinement (`exactmath`) and to
  back-substitution and certification (`fglm`); the prime-power rungs fail
  every lex conversion and take the generic-element fallback.
- ppoly-certificate: `check_p_polynomial` on cycle, non-metric and Hamming
  schemes plus one non-associative tensor.  The time is the Groebner
  certificate in `structure_basis` and lex FGLM, with no root isolation.
- cli-mix: a stream of `cli.main` requests over all 7 subcommands and both
  formats.  Every entry of a fixed pool is sent once in each format per
  pass, in a seeded order, so every seed sends the same work.
  Large orbit schemes make the O(m^3) scheme build dominate; `mingen` and
  `generator` run many FGLM conversions; small requests expose parsing and
  rendering; repeats let a result cache show here and not on the ladders.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("chartab-irrational", "ppoly-certificate", "cli-mix")

# (label, m, r): orbits of <r, -1> on Z_m; a cycle is (m, m - 1)
CHARTAB_RUNGS = (
    ("cycle d=5", 10, 9),
    ("cycle d=8", 16, 15),
    ("cycle d=12", 24, 23),
    ("cyclotomic (13,5)", 13, 5),
    ("cyclotomic (31,5)", 31, 5),
    ("cyclotomic (37,10)", 37, 10),
    ("cyclotomic (61,3)", 61, 3),
    ("prime-power (25,4)", 25, 4),
    ("prime-power (27,8)", 27, 8),
    ("prime-power (32,7)", 32, 7),
)

PPOLY_ORBIT_RUNGS = (
    ("cycle d=12", 24, 23),
    ("cycle d=15", 30, 29),
    ("cycle d=20", 40, 39),
    ("non-metric (31,5)", 31, 5),
    ("non-metric (37,10)", 37, 10),
    ("non-metric (61,3)", 61, 3),
    ("non-metric (32,7)", 32, 7),
)
PPOLY_HAMMING_RUNGS = (5, 6)

# passes the linear axioms but is not associative, so the certificate rejects it
TAMPERED = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (6, 4, 5), (0, 1, 1)),
    ((0, 0, 1), (0, 1, 1), (2, 1, 0)),
)


def schemealg():
    """Import the package from the checkout's source tree."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import schemealg as package
    import schemealg.cli  # noqa: F401  (not imported by the package itself)

    return package


@dataclass
class Job:
    """One call into the program and the oracle for its outcome.

    `call()` returns the program's result; `check(result, error)` returns
    None for a correct outcome and a reason otherwise.  `key` identifies the
    input, so repeated requests can be counted.
    """

    name: str
    key: str
    call: object
    check: object


def _relabelling(rng, d, keep_first=False):
    """A seeded class relabelling perm[old] = new, fixing class 0.

    Metric rungs (cycles, Hamming cubes) pass keep_first: their distance-1
    class stays at label 1 and only the others are shuffled.
    `check_p_polynomial` and `variety_points` try classes in label order and
    stop at the first that works, so a uniform relabelling made the work on
    those rungs vary with the seed: `ppoly` at d = 20 took 13.5 s to 20 s
    (1 to 13 lex conversions), `chartab` at d = 12 took 4.5 s to 7.5 s, and
    still 4.1 s to 6.1 s with some other metric class at label 1 (2 vCPUs,
    Python 3.11.7).
    """
    rest = list(range(2 if keep_first else 1, d + 1))
    rng.shuffle(rest)
    return [0, 1] + rest if keep_first else [0] + rest


def _expect(error_type):
    def check(result, error):
        if isinstance(error, error_type):
            return None
        return f"expected {error_type.__name__}, got {error!r}"

    return check


def _no_error(check):
    def wrapped(result, error):
        if error is not None:
            return f"raised {type(error).__name__}: {error}"
        return check(result)

    return wrapped


def _rng(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


# -- chartab-irrational ---------------------------------------------------------


def chartab_jobs(seed, pass_index, rungs=CHARTAB_RUNGS):
    S = schemealg()
    rng = _rng("chartab-irrational", seed, pass_index)
    jobs = []
    for label, m, r in rungs:
        base = S.orbit_scheme(m, r)
        perm = _relabelling(rng, base.d, keep_first=r == m - 1)
        s = base.relabel(perm)

        def check(ct, m=m, r=r, perm=perm):
            return oracles.check_gauss_periods(ct.P, m, r, perm)

        jobs.append(
            Job(
                name=f"chartab {label}",
                key=f"chartab {m},{r} {perm}",
                call=lambda s=s: S.character_table(s),
                check=_no_error(check),
            )
        )
    return jobs


# -- ppoly-certificate ----------------------------------------------------------


def ppoly_jobs(seed, pass_index, orbit_rungs=PPOLY_ORBIT_RUNGS, hamming=PPOLY_HAMMING_RUNGS):
    S = schemealg()
    rng = _rng("ppoly-certificate", seed, pass_index)
    jobs = []
    for label, m, r in orbit_rungs:
        base = S.orbit_scheme(m, r)
        perm = _relabelling(rng, base.d, keep_first=r == m - 1)
        s = base.relabel(perm)
        labels = oracles.orbit_labels(m, r, perm)

        def check(rep, labels=labels):
            return oracles.check_metric(rep, labels)

        jobs.append(
            Job(
                name=f"ppoly {label}",
                key=f"ppoly {m},{r} {perm}",
                call=lambda s=s: S.check_p_polynomial(s),
                check=_no_error(check),
            )
        )
    for n in hamming:
        perm = _relabelling(rng, n, keep_first=True)
        labels = oracles.hamming_labels(n, perm)
        s = S.scheme_from_relations(labels)

        def check(rep, labels=labels, n=n, perm=perm):
            return oracles.check_metric(rep, labels) or oracles.check_krawtchouk(rep, n, perm)

        jobs.append(
            Job(
                name=f"ppoly hamming H({n},2)",
                key=f"ppoly H({n},2) {perm}",
                call=lambda s=s: S.check_p_polynomial(s),
                check=_no_error(check),
            )
        )
    perm = _relabelling(rng, 2)
    s = S.Scheme(tensor=S.IntersectionTensor(TAMPERED).validate()).relabel(perm)
    jobs.append(
        Job(
            name="ppoly tampered tensor",
            key=f"ppoly tampered {perm}",
            call=lambda s=s: S.check_p_polynomial(s),
            check=_expect(S.InternalInvariantViolation),
        )
    )
    return jobs


# -- cli-mix --------------------------------------------------------------------


def _orbit(m, r):
    return json.dumps({"type": "orbit", "m": m, "r": r})


def _hamming_doc(n):
    return json.dumps({"type": "relations", "labels": oracles.hamming_labels(n, list(range(n + 1)))})


_TAMPERED_DOC = json.dumps({"type": "tensor", "p": TAMPERED})

# (kind, argv without --format, stdin document).  The mix is synthetic: it
# covers every request category the benchmark is meant to stress and is not
# weighted after any real usage.  Every entry is sent once in each format
# per pass, so no entry has a hand-picked weight.
CLI_POOL = (
    # large order, few classes (d <= 4): the O(m^3) build dominates
    ("validate orbit(97,4)", ["validate", "-"], _orbit(97, 4)),
    ("validate orbit(113,2)", ["validate", "-"], _orbit(113, 2)),
    ("validate orbit(137,4)", ["validate", "-"], _orbit(137, 4)),
    ("validate orbit(211,2)", ["validate", "-"], _orbit(211, 2)),
    ("ppoly orbit(101,4)", ["ppoly", "-"], _orbit(101, 4)),
    ("ppoly orbit(127,5)", ["ppoly", "-"], _orbit(127, 5)),
    ("ppoly orbit(169,3)", ["ppoly", "-"], _orbit(169, 3)),
    ("ppoly orbit(193,11)", ["ppoly", "-"], _orbit(193, 11)),
    # many FGLM conversions
    ("mingen orbit(32,7)", ["mingen", "-"], _orbit(32, 7)),
    ("mingen orbit(20,19)", ["mingen", "-"], _orbit(20, 19)),
    ("mingen orbit(8,3)", ["mingen", "-"], _orbit(8, 3)),
    ("generator orbit(27,8)", ["generator", "-"], _orbit(27, 8)),
    ("generator orbit(31,5) seed 3", ["generator", "-", "--seed", "3"], _orbit(31, 5)),
    ("generator orbit(16,7) max-coeff 5", ["generator", "-", "--max-coeff", "5"], _orbit(16, 7)),
    ("generator orbit(25,4)", ["generator", "-"], _orbit(25, 4)),
    ("generator orbit(9,2)", ["generator", "-"], _orbit(9, 2)),
    ("express orbit(16,15) classes 1", ["express", "-", "--classes", "1"], _orbit(16, 15)),
    ("express orbit(9,2) classes 1", ["express", "-", "--classes", "1"], _orbit(9, 2)),
    ("gb lex orbit(31,5) smallest 1", ["gb", "-", "--order", "lex", "--smallest", "1"], _orbit(31, 5)),
    ("gb lex orbit(16,15) smallest 2", ["gb", "-", "--order", "lex", "--smallest", "2"], _orbit(16, 15)),
    ("gb lex orbit(27,8) smallest 3", ["gb", "-", "--order", "lex", "--smallest", "3"], _orbit(27, 8)),
    ("gb degree orbit(13,5)", ["gb", "-"], _orbit(13, 5)),
    ("gb degree orbit(9,2)", ["gb", "-"], _orbit(9, 2)),
    # small requests: parsing and rendering are a real share
    ("chartab orbit(9,2)", ["chartab", "-"], _orbit(9, 2)),
    ("chartab H(2,2)", ["chartab", "-"], _hamming_doc(2)),
    ("chartab H(3,2)", ["chartab", "-"], _hamming_doc(3)),
    ("chartab H(4,2)", ["chartab", "-"], _hamming_doc(4)),
    ("chartab orbit(8,3)", ["chartab", "-"], _orbit(8, 3)),
    ("chartab orbit(5,2)", ["chartab", "-"], _orbit(5, 2)),
    ("chartab orbit(7,2)", ["chartab", "-"], _orbit(7, 2)),
    ("chartab orbit(11,3)", ["chartab", "-"], _orbit(11, 3)),
    ("chartab orbit(5,4)", ["chartab", "-"], _orbit(5, 4)),
    ("chartab orbit(7,6)", ["chartab", "-"], _orbit(7, 6)),
    ("chartab orbit(13,5)", ["chartab", "-"], _orbit(13, 5)),
    ("validate orbit(5,2)", ["validate", "-"], _orbit(5, 2)),
    ("validate orbit(8,3)", ["validate", "-"], _orbit(8, 3)),
    ("validate orbit(9,2)", ["validate", "-"], _orbit(9, 2)),
    ("validate orbit(13,5)", ["validate", "-"], _orbit(13, 5)),
    ("validate orbit(16,15)", ["validate", "-"], _orbit(16, 15)),
    ("validate H(3,2)", ["validate", "-"], _hamming_doc(3)),
    ("validate H(4,2)", ["validate", "-"], _hamming_doc(4)),
    ("ppoly orbit(5,4)", ["ppoly", "-"], _orbit(5, 4)),
    ("ppoly orbit(8,3)", ["ppoly", "-"], _orbit(8, 3)),
    ("ppoly orbit(9,2)", ["ppoly", "-"], _orbit(9, 2)),
    ("ppoly orbit(13,5)", ["ppoly", "-"], _orbit(13, 5)),
    ("ppoly H(3,2)", ["ppoly", "-"], _hamming_doc(3)),
    ("ppoly H(4,2)", ["ppoly", "-"], _hamming_doc(4)),
    # expected errors: exit 2, 3 and 4
    ("validate bad json", ["validate", "-"], '{"type": "orbit", "m": 9,'),
    ("validate not json", ["validate", "-"], "not json"),
    ("chartab unknown type", ["chartab", "-"], '{"type": "nope"}'),
    ("gb lex without smallest", ["gb", "-", "--order", "lex"], _orbit(9, 2)),
    ("express class 0", ["express", "-", "--classes", "0"], _orbit(9, 2)),
    ("ppoly orbit(1,1)", ["ppoly", "-"], _orbit(1, 1)),
    ("validate tampered tensor", ["validate", "-"], _TAMPERED_DOC),
    ("chartab tampered tensor", ["chartab", "-"], _TAMPERED_DOC),
    ("express orbit(32,7) classes 1 (not generating)", ["express", "-", "--classes", "1"], _orbit(32, 7)),
    ("express orbit(8,3) classes 1 (not generating)", ["express", "-", "--classes", "1"], _orbit(8, 3)),
)
FORMATS = ("text", "json")
CLI_PASS_SIZE = len(FORMATS) * len(CLI_POOL)


def cli_request_id(kind, fmt):
    return f"{kind} --format {fmt}"


def cli_call(argv, doc):
    """Run cli.main in-process with `doc` on stdin; (exit code, stdout, stderr)."""
    S = schemealg()
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(doc)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = S.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def cli_jobs(seed, pass_index, pool=CLI_POOL):
    schemealg()
    pins = oracles.load_pins()
    rng = _rng("cli-mix", seed, pass_index)
    # the seed only orders the requests, so every seed sends the same set
    stream = [(kind, argv, doc, fmt) for kind, argv, doc in pool for fmt in FORMATS]
    rng.shuffle(stream)
    jobs = []
    for kind, argv, doc, fmt in stream:
        rid = cli_request_id(kind, fmt)

        def check(result, rid=rid):
            code, stdout, _ = result
            return oracles.check_cli(pins, rid, code, stdout)

        # the key leaves out the format: a request in the other format
        # repeats the same computation, which a result cache could reuse
        jobs.append(
            Job(
                name=f"cli {kind}",
                key=kind,
                call=lambda a=argv + ["--format", fmt], doc=doc: cli_call(a, doc),
                check=_no_error(check),
            )
        )
    return jobs


def make_jobs(workload, seed, pass_index):
    if workload == "chartab-irrational":
        return chartab_jobs(seed, pass_index)
    if workload == "ppoly-certificate":
        return ppoly_jobs(seed, pass_index)
    if workload == "cli-mix":
        return cli_jobs(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}")
