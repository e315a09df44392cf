"""Tests of the benchmark itself, not of schemealg.

    python3 -m pytest perfbench/test_perfbench.py

They check that the tracer wraps every binding of every traced function and
restores them, that traced counters repeat exactly for one seed, and that the
seed changes the inputs but not the number of jobs.
"""

import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

workloads.schemealg()

SMALL_CLI_KINDS = {
    "chartab orbit(9,2)",
    "validate orbit(97,4)",
    "ppoly orbit(9,2)",
    "generator orbit(31,5) seed 3",
    "gb lex orbit(31,5) smallest 1",
    "validate bad json",
    "validate tampered tensor",
    "express orbit(32,7) classes 1 (not generating)",
}


def small_jobs(seed):
    """A few cheap jobs from each workload, prime-power fallback included."""
    return (
        workloads.chartab_jobs(seed, 0, rungs=(("cyclotomic (13,5)", 13, 5), ("prime-power (25,4)", 25, 4)))
        + workloads.ppoly_jobs(seed, 0, orbit_rungs=(), hamming=(5,))
        + workloads.cli_jobs(seed, 0, pool=[e for e in workloads.CLI_POOL if e[0] in SMALL_CLI_KINDS])
    )


def traced_pass(jobs):
    with tracer.Tracer() as tr:
        records = run.run_pass(jobs, tr)
    failures = [(r["name"], r.get("reason")) for r in records if not r["ok"]]
    assert not failures
    return records


def test_tracer_wraps_every_binding_and_restores_them():
    from schemealg import analysis, cli, fglm, structure_ideal

    jobs = small_jobs(0)
    with tracer.Tracer() as tr:
        originals = dict(tr.originals)
        patched = list(tr.patched)
        named = [
            analysis.solve_triangular,
            analysis._certify_point,
            analysis._algebraic_value,
            fglm.real_roots,
            fglm.multiplication_matrix,
            structure_ideal.normal_form,
            cli.character_table,
        ]
        assert all(getattr(f, "__wrapped_by_perfbench__", False) for f in named)
        records = run.run_pass(jobs, tr)
        assert tracer.unwrapped_bindings(originals) == []
    assert all(r["ok"] for r in records)
    assert all(getattr(ns, name) is original for ns, name, original in patched)
    leftovers = [
        f"{mod.__name__}.{name}"
        for mod in (analysis, cli, fglm, structure_ideal)
        for name, value in vars(mod).items()
        if getattr(value, "__wrapped_by_perfbench__", False)
    ]
    assert leftovers == []


def _counters(records):
    metrics = run.layer_metrics(records)
    exact = {
        "fglm.not_triangular",
        "analysis.generic_fallbacks",
        "analysis.coordinate_changes",
        "exactmath.max_endpoint_bits",
    }
    return {k: v for k, (v, _) in metrics.items() if k.endswith("_calls") or k in exact}


def test_counters_repeat_exactly_for_one_seed():
    first = traced_pass(small_jobs(5))
    second = traced_pass(small_jobs(5))
    assert _counters(first) == _counters(second)
    per_job = [r["trace"].counters for r in first]
    assert per_job == [r["trace"].counters for r in second]


def test_prime_power_rung_takes_the_generic_fallback():
    (rung,) = workloads.chartab_jobs(3, 0, rungs=(("prime-power (25,4)", 25, 4),))
    (rec,) = traced_pass([rung])
    trace = rec["trace"]
    d = len(oracles.orbits(25, 4)) - 1
    assert trace.counters["not_triangular"] == d
    assert trace.spans["analysis.points_from_generic"][0] >= 1


def test_seed_changes_inputs_but_not_job_count():
    for workload in workloads.WORKLOADS:
        a = workloads.make_jobs(workload, 1, 0)
        b = workloads.make_jobs(workload, 2, 0)
        assert len(a) == len(b)
        assert [j.key for j in a] != [j.key for j in b]
        assert [j.key for j in a] == [j.key for j in workloads.make_jobs(workload, 1, 0)]
    assert len(workloads.make_jobs("cli-mix", 1, 0)) == workloads.CLI_PASS_SIZE


def test_every_cli_request_is_pinned():
    ids = {workloads.cli_request_id(k, f) for k, *_ in workloads.CLI_POOL for f in workloads.FORMATS}
    assert ids == set(oracles.load_pins())


def test_ratios_are_left_out_without_a_denominator():
    records = traced_pass(workloads.ppoly_jobs(0, 0, orbit_rungs=(), hamming=(5,)))
    metrics = run.layer_metrics(records)
    assert metrics["fglm.solve_attempts"][0] == 0
    assert "fglm.solve_success_ratio" not in metrics


def test_scaled_times_leave_out_the_probe_and_use_its_samples():
    jobs = workloads.chartab_jobs(0, 0, rungs=(("cyclotomic (13,5)", 13, 5),)) * 2
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostProbe() as probe:
        records = run.run_pass(jobs, probe=probe)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(r["ok"] for r in records)
    for rec in records:
        t0, t1 = rec["span"]
        inside = [e - s for s, e in probe.samples if t0 <= s and e <= t1]
        assert inside, "a job of this size spans several kernel runs"
        assert rec["seconds"] == pytest.approx(t1 - t0 - sum(inside))
        assert rec["scaled_seconds"] == pytest.approx(rec["seconds"] * probe.factor(t0, t1))
