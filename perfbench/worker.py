"""Run one workload in a fresh interpreter and print its measurements.

A run replays seeded jobs in a closed loop from one client: the next job
starts when the previous one has returned and been checked. A CLI job is
one in-process ``nstepdet.cli.main(argv)`` call with stdout captured in
memory; a library job is one ``nstep_seq.term_fast`` call. Only the call is
timed; the golden check runs between jobs, outside the timed interval.

With ``--seconds`` the run repeats whole cycles until its jobs have taken
that long in total and at least ``MIN_CYCLES`` cycles have run; with
``--cycles`` it runs exactly that many cycles. The last line of stdout is
a JSON object. ``run.py`` starts this script; it can also run alone:

    python3 perfbench/worker.py --workload prop1-sweep --seed 1 --seconds 20
    python3 perfbench/worker.py --workload term-fast --seed 1 --cycles 2 --trace
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
OUT_DIR = ROOT / ".bench_out"

# A timed run takes every job type's fastest of at least this many runs.
MIN_CYCLES = 3


def refusal() -> str | None:
    """Why this interpreter must not run the benchmark, or None."""
    if sys.flags.optimize:
        return ("refusing to run under python -O: it strips the program's "
                "assert checks, so the run would measure a weaker program")
    if not (SRC / "nstepdet" / "__init__.py").is_file():
        return f"no nstepdet sources under {SRC}; run from a source checkout"
    return None


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def execute(job: workloads.Job):
    """Run one job; return (seconds, exit code, stdout text or term value).

    Raises whatever the program raises.
    """
    from nstepdet import cli, nstep_seq

    if job.kind == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            code = cli.main(list(job.args))
            elapsed = perf_counter() - start
        return elapsed, code, out.getvalue()
    n, convention, k = job.args
    conv = nstep_seq.CLASSIC if convention == "classic" else nstep_seq.PAPER_POWERS
    start = perf_counter()
    value = nstep_seq.term_fast(n, conv, k)
    return perf_counter() - start, 0, value


def digest(job: workloads.Job, output) -> str:
    if job.kind == "cli":
        return workloads.report_digest(output)
    return workloads.int_digest(output)


def mismatch(job: workloads.Job, golden: dict | None, code: int, output) -> str | None:
    """Why the job's result differs from its golden, or None if it matches."""
    if golden is None:
        return "no golden for this job"
    if code != golden["exit"]:
        return f"exit code {code}, expected {golden['exit']}"
    if digest(job, output) != golden["digest"]:
        return "output digest differs from the golden"
    return None


def _percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def check(job: workloads.Job, golden: dict | None, tracer: Tracer | None,
          job_id: int) -> tuple[float, str | None]:
    """Run one job and check it: (seconds, why it failed or None)."""
    span = tracer.job(job_id) if tracer else contextlib.nullcontext()
    start = perf_counter()
    try:
        with span:
            elapsed, code, output = execute(job)
    except Exception:
        return perf_counter() - start, traceback.format_exc()
    return elapsed, mismatch(job, golden, code, output)


def run(workload: str, seed: int, *, seconds: float | None = None,
        cycles: int | None = None, tracer: Tracer | None = None,
        goldens: dict | None = None) -> dict:
    """Replay the workload's seeded cycles and summarize the run.

    The latency metrics are taken over job types (strata): a job type's
    latency is its fastest verified run among the cycles, which filters
    the slowdowns that other tenants of a shared machine cause for seconds
    at a time. The same statistics over every job, slowdowns included,
    are reported as ``all_jobs_*``.
    """
    if (seconds is None) == (cycles is None):
        raise ValueError("give exactly one of seconds and cycles")
    strata = workloads.pool(workload)
    if goldens is None:
        goldens = load_goldens()[workload]
    rng = Random(f"{workload}/{seed}")
    latencies: list[float] = []
    best: dict[int, tuple[float, int]] = {}  # stratum -> (seconds, records)
    failures: list[str] = []
    records = 0
    term_fast_jobs = warm_jobs = 0
    seen_n: set[int] = set()
    done = 0
    cpus = sorted(os.sched_getaffinity(0))
    try:
        while cycles is None or done < cycles:
            # Cycles take turns on the allowed CPUs: another tenant of a
            # shared machine can slow one core for a whole run, and the
            # fastest-of-run latencies should sample every core.
            os.sched_setaffinity(0, {cpus[done % len(cpus)]})
            for index, job in workloads.cycle(strata, rng):
                if job.kind == "term_fast":
                    term_fast_jobs += 1
                    warm_jobs += job.args[0] in seen_n
                    seen_n.add(job.args[0])
                golden = goldens.get(job.key)
                elapsed, problem = check(job, golden, tracer, len(latencies))
                latencies.append(elapsed)
                if problem:
                    failures.append(f"{job.key}: {problem}")
                    continue
                records += golden["records"]
                if elapsed < best.get(index, (math.inf,))[0]:
                    best[index] = (elapsed, golden["records"])
            done += 1
            if seconds is not None and sum(latencies) >= seconds and done >= MIN_CYCLES:
                break
    finally:
        os.sched_setaffinity(0, cpus)
    busy = sum(latencies)
    fastest = sorted(t for t, _ in best.values()) or [0.0]
    fastest_s = sum(fastest)
    ordered = sorted(latencies)
    return {
        "workload": workload,
        "seed": seed,
        "cycles": done,
        "jobs": len(latencies),
        "job_types": len(best),
        "failed": len(failures),
        "failures": failures[:5],
        "records": records,
        "busy_s": busy,
        "fastest_s": fastest_s,
        "job_p50_ms": statistics.median(fastest) * 1000.0,
        "job_p90_ms": _percentile(fastest, 0.9) * 1000.0,
        "job_types_above_p90": len(fastest) - math.ceil(0.9 * len(fastest)),
        "throughput_rps": sum(n for _, n in best.values()) / (fastest_s or math.inf),
        "all_jobs_p50_ms": statistics.median(ordered) * 1000.0,
        "all_jobs_p90_ms": _percentile(ordered, 0.9) * 1000.0,
        "all_jobs_throughput_rps": records / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "term_fast_warm_frac": warm_jobs / term_fast_jobs if term_fast_jobs else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    length = parser.add_mutually_exclusive_group(required=True)
    length.add_argument("--seconds", type=float)
    length.add_argument("--cycles", type=int)
    parser.add_argument("--trace", action="store_true",
                        help="record spans and per-layer counters")
    args = parser.parse_args(argv)
    problem = refusal()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        result = run(args.workload, args.seed, seconds=args.seconds,
                     cycles=args.cycles, tracer=tracer)
    if tracer:
        result["layers"] = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv.gz")
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
