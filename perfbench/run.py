"""Benchmark of schemealg over three workloads, with an optional traced run.

    python3 perfbench/run.py --workload chartab-irrational --seed 1 --seconds 50 --trace 0

Run from the repository root (it imports the package from `src/`).  The
workload process is this single-threaded Python process; set-up time is
measured on fresh child processes of this script.

--trace 0 runs passes over the workload's job list until the next pass would
end after --seconds (at least one pass), checks every output against an
independent oracle, and prints the end-to-end metrics.  Their times are
scaled to a reference host speed (see hostspeed.py); the raw times are in
the report.  --trace 1 runs one pass in which every job runs twice back to
back, untraced and traced, and prints the per-layer metrics of the traced
half plus the tracing overhead.
The last stdout line is a JSON object {"correct", "attempted", "failed",
"metrics"}; a full report with per-job times, per-job spans (self and total
time) and counters is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------------


def measure_setup(workload, seed):
    """Seconds from spawning a fresh interpreter to `schemealg` imported and
    the first pass's inputs generated, once per child process, as (raw,
    scaled) pairs.  Each child is scaled by the median of ten kernel runs
    timed in this process just before it and ten just after, not while it
    runs: run beside a child, the kernel shares the host with it, and the
    scaled times spread more than the raw ones."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    before = hostspeed.kernel_times()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited with {code}")
        after = hostspeed.kernel_times()
        samples.append((elapsed, elapsed * hostspeed.NOMINAL_S / statistics.median(before + after)))
        before = after
    return samples


# -- passes ------------------------------------------------------------------------


def run_job(job, tracer=None):
    """Run one job, timing only the call into the program; the oracle runs
    after the timer stops.  Returns the job's record."""
    gc.collect()
    result = error = None
    if tracer is not None:
        tracer.begin_job()
    t0 = time.perf_counter()
    try:
        result = job.call()
    except Exception as e:  # an unexpected error is a failed job, not a crash
        error = e
    t1 = time.perf_counter()
    trace = tracer.end_job() if tracer is not None else None
    try:
        reason = job.check(result, error)
    except Exception as e:
        reason = f"oracle raised {type(e).__name__}: {e}"
    rec = {"name": job.name, "key": job.key, "seconds": t1 - t0, "span": (t0, t1), "ok": reason is None}
    if reason is not None:
        rec["reason"] = reason
    if trace is not None:
        rec["trace"] = trace
    return rec


def run_pass(jobs, tracer=None, probe=None):
    """Run the jobs in order.  With a running HostProbe, each record's
    `seconds` leaves out the kernel runs inside the job, and
    `scaled_seconds` is that time on the reference host."""
    records = [run_job(job, tracer) for job in jobs]
    if probe is not None:
        probe.wait_past(records[-1]["span"][1] + hostspeed.PAD_S)
        for rec in records:
            t0, t1 = rec["span"]
            rec["seconds"] = t1 - t0 - probe.inside(t0, t1)
            rec["scaled_seconds"] = rec["seconds"] * probe.factor(t0, t1)
    return records


def run_paired_pass(jobs):
    """Run every job untraced and traced back to back, alternating which half
    goes first, so both halves of a job see the host in the same state.
    The wrappers are installed only around the traced half.  Returns the
    untraced and the traced records."""
    from tracer import Tracer

    untraced, traced = [], []

    def traced_job(job):
        with Tracer() as tracer:
            return run_job(job, tracer)

    for i, job in enumerate(jobs):
        if i % 2:
            traced.append(traced_job(job))
            untraced.append(run_job(job))
        else:
            untraced.append(run_job(job))
            traced.append(traced_job(job))
    return untraced, traced


def pass_wall(records, key="seconds"):
    return sum(r[key] for r in records)


def percentile(values, q):
    """Percentile as `statistics.quantiles` computes it by default, limited
    to the observed range (with 8 samples the default p90 extrapolates past
    the largest one)."""
    if len(values) == 1:
        return values[0]
    p = statistics.quantiles(values, n=100)[round(q * 100) - 1]
    return min(max(p, min(values)), max(values))


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(records):
    """Aggregate the traced jobs of one pass into the per-layer metrics."""
    spans, counters, matrix_keys = {}, {}, set()
    for rec in records:
        tr = rec["trace"]
        for name, (calls, total, self_s) in tr.spans.items():
            agg = spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        for name, value in tr.counters.items():
            if name == "max_endpoint_bits":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        matrix_keys |= tr.matrix_keys

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    attempts = calls("fglm.solve_triangular")
    matrices = calls("structure_ideal.multiplication_matrix")
    m = {
        "exactmath.real_roots_s": (total("exactmath.real_roots"), "s"),
        "exactmath.real_roots_calls": (calls("exactmath.real_roots"), "count"),
        "exactmath.refine_s": (total("exactmath.refine"), "s"),
        "exactmath.refine_calls": (calls("exactmath.refine"), "count"),
        "exactmath.compare_s": (total("exactmath.compare"), "s"),
        "exactmath.compare_calls": (calls("exactmath.compare"), "count"),
        "exactmath.charpoly_s": (total("exactmath.charpoly"), "s"),
        "exactmath.charpoly_calls": (calls("exactmath.charpoly"), "count"),
        "exactmath.max_endpoint_bits": (counters["max_endpoint_bits"], "bits"),
        "fglm.certify_point_s": (total("fglm.certify_point"), "s"),
        "fglm.algebraic_value_s": (total("fglm.algebraic_value"), "s"),
        "fglm.spectrum_s": (total("fglm.spectrum"), "s"),
        "fglm.moller_stetter_s": (total("fglm.moller_stetter"), "s"),
        "fglm.solve_triangular_s": (total("fglm.solve_triangular"), "s"),
        "fglm.solve_attempts": (attempts, "count"),
        "fglm.not_triangular": (counters["not_triangular"], "count"),
        "fglm.fglm_from_matrices_s": (total("fglm.fglm_from_matrices"), "s"),
        "fglm.fglm_conversions": (calls("fglm.fglm_from_matrices"), "count"),
        "analysis.generic_fallbacks": (calls("analysis.points_from_generic"), "count"),
        "analysis.variety_points_s": (total("analysis.variety_points"), "s"),
        "analysis.check_orthogonality_s": (total("analysis.check_orthogonality"), "s"),
        "analysis.character_table_self_s": (self_time("analysis.character_table"), "s"),
        "analysis.express_calls": (calls("analysis.express"), "count"),
        "analysis.express_s": (total("analysis.express"), "s"),
        "analysis.coordinate_changes": (counters["coordinate_changes"], "count"),
        "structure_ideal.structure_basis_s": (total("structure_ideal.structure_basis"), "s"),
        "structure_ideal.structure_basis_calls": (calls("structure_ideal.structure_basis"), "count"),
        "structure_ideal.multiplication_matrix_s": (total("structure_ideal.multiplication_matrix"), "s"),
        "structure_ideal.multiplication_matrix_calls": (matrices, "count"),
        "polyring.is_groebner_s": (total("polyring.is_groebner"), "s"),
        "polyring.normal_form_s": (total("polyring.normal_form"), "s"),
        "polyring.normal_form_calls": (calls("polyring.normal_form"), "count"),
        "polyring.evaluate_interval_s": (total("polyring.evaluate_interval"), "s"),
        "polyring.evaluate_interval_calls": (calls("polyring.evaluate_interval"), "count"),
        "scheme.build_s": (total("scheme.build"), "s"),
        "scheme.build_calls": (calls("scheme.build"), "count"),
        "cli.load_scheme_s": (total("cli.load_scheme"), "s"),
        "cli.self_s": (self_time("cli.main"), "s"),
        "cli.nonzero_exits": (counters["nonzero_exits"], "count"),
    }
    # a ratio is left out where its denominator is 0, not reported as 0
    if attempts:
        m["fglm.solve_success_ratio"] = ((attempts - counters["not_triangular"]) / attempts, "ratio")
    if matrices:
        m["structure_ideal.multiplication_matrix_distinct_ratio"] = (len(matrix_keys) / matrices, "ratio")
    return m


# -- report --------------------------------------------------------------------------


def revision():
    if not (ROOT / ".git").exists():
        return "unknown (checkout is not a git repository)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return "unknown (git not available)"
    return done.stdout.strip() or "unknown"


def request_stats(records, key="seconds"):
    latencies = [r[key] for r in records]
    p90 = percentile(latencies, 0.90)
    return {
        "count": len(latencies),
        "p50_s": percentile(latencies, 0.50),
        "p90_s": p90,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def repeat_share(records):
    """Share of one pass's requests whose key an earlier one had."""
    seen, repeats = set(), 0
    for r in records:
        repeats += r["key"] in seen
        seen.add(r["key"])
    return repeats / len(records)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "schemealg" / "__init__.py").is_file():
        print(f"error: no schemealg source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.make_jobs(args.workload, args.seed, 0)
        print("ready", flush=True)
        return 0

    setup_samples = measure_setup(args.workload, args.seed)
    # the probe runs only in untraced runs: its kernel runs would land in the spans
    with hostspeed.HostProbe() if args.trace == 0 else contextlib.nullcontext() as probe:
        jobs = workloads.make_jobs(args.workload, args.seed, 0)
        passes, traced = [], []
        if args.trace == 0:
            start = time.perf_counter()
            index = 0
            while True:
                t0 = time.perf_counter()
                records = run_pass(jobs, probe=probe)
                passes.append(
                    {
                        "index": index,
                        "wall_s": pass_wall(records),
                        "scaled_wall_s": pass_wall(records, "scaled_seconds"),
                        "jobs": records,
                    }
                )
                now = time.perf_counter()
                if now - start + (now - t0) > args.seconds:
                    break
                index += 1
                jobs = workloads.make_jobs(args.workload, args.seed, index)
        else:
            untraced, traced = run_paired_pass(jobs)
            passes.append({"index": 0, "wall_s": pass_wall(untraced), "jobs": untraced})

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "revision": revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_samples_s": [raw for raw, _ in setup_samples],
        "setup_scaled_s": [scaled for _, scaled in setup_samples],
        "kernel_samples_s": [e - s for s, e in probe.samples] if probe else [],
    }
    if traced:
        layers = layer_metrics(traced)
        layers["trace.wall_s"] = (pass_wall(traced), "s")
        layers["trace.overhead_s"] = (pass_wall(traced) - pass_wall(untraced), "s")
        report["traced_jobs"] = [{**r, "trace": r["trace"].as_dict()} for r in traced]
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}

    run_records = [r for p in passes for r in p["jobs"]]
    all_records = run_records + traced
    failed = sum(1 for r in all_records if not r["ok"])
    req = request_stats(run_records)
    req["repeat_share"] = repeat_share(passes[0]["jobs"])
    raw = {
        "setup_s": statistics.median(report["setup_samples_s"]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "max_job_s": statistics.median(max(r["seconds"] for r in p["jobs"]) for p in passes),
        "request_p50_ms": req["p50_s"] * 1000,
        "request_p90_ms": req["p90_s"] * 1000,
    }
    report["passes"] = passes
    report["requests"] = req
    report["raw"] = raw
    report["attempted"] = len(all_records)
    report["failed"] = failed
    report["fail_ratio"] = failed / len(all_records)
    if args.trace == 0:
        scaled_req = request_stats(run_records, "scaled_seconds")
        end_to_end = {
            "setup_s": (statistics.median(report["setup_scaled_s"]), "s"),
            "norm_wall_s": (statistics.median(p["scaled_wall_s"] for p in passes), "s"),
            "norm_max_job_s": (
                statistics.median(max(r["scaled_seconds"] for r in p["jobs"]) for p in passes),
                "s",
            ),
            "norm_request_p50_ms": (scaled_req["p50_s"] * 1000, "ms"),
            "norm_request_p90_ms": (scaled_req["p90_s"] * 1000, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")

    for p in passes:
        scaled = f", scaled {p['scaled_wall_s']:.3f} s" if "scaled_wall_s" in p else ""
        print(f"pass {p['index']}: {p['wall_s']:.3f} s{scaled}")
        for r in p["jobs"]:
            if args.workload != "cli-mix" or not r["ok"]:
                scaled = f" (scaled {r['scaled_seconds']:7.3f} s)" if "scaled_seconds" in r else ""
                status = "ok" if r["ok"] else "FAILED: " + r["reason"]
                print(f"  {r['name']:<40} {r['seconds']:9.3f} s{scaled}  {status}")
    for r in traced if args.workload != "cli-mix" else ():
        top = sorted(r["trace"].spans.items(), key=lambda kv: -kv[1][2])[:3]
        spans = ", ".join(f"{name} self {v[2]:.3f} s" for name, v in top)
        print(f"  traced {r['name']:<33} {r['seconds']:9.3f} s  {spans}")
    kernel = report["kernel_samples_s"]
    if kernel:
        print(f"host-speed kernel: median {statistics.median(kernel) * 1000:.2f} ms over {len(kernel)} runs")
    print(
        f"requests: {req['count']} ({req['beyond_p90']} beyond p90), "
        f"repeat share in a pass {req['repeat_share']:.3f}; fail ratio {report['fail_ratio']:.3f}; report {path.relative_to(ROOT)}"
    )
    chosen = end_to_end if args.trace == 0 else layers
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(all_records), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
