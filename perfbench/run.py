"""Benchmark entry point for nstepdet.

    python3 perfbench/run.py --workload prop1-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the program is imported from
``src/``. Each measured run is a fresh interpreter (``worker.py``). With
``--trace 0`` the run reports the end-to-end metrics and the set-up time;
with ``--trace 1`` it replays the first ``TRACE_CYCLES`` seeded cycles once
traced and once untraced, and reports the per-layer metrics and the
tracing overhead. Every line but the last describes the run (environment, job
counts, failures, each metric with its unit); the last line is the result
as one JSON object. ``--workload all`` runs every workload in turn and
prefixes each metric with its workload's name.

The benchmark refuses to run under ``python -O``, which strips the
``assert`` checks the program relies on, and without ``src/nstepdet``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

import workloads
import worker
from worker import HERE, ROOT, SRC

# Interpreter launches per set-up batch, after one unmeasured launch that
# compiles the bytecode cache. One batch runs before the workload and one
# after, so a slow spell of the machine does not cover all of them.
SETUP_LAUNCHES = 10
# Each workload's run must end within this many seconds.
DEADLINE_S = 170.0
# Cycles a traced run replays: every job type four times, twice on each of
# two cores, and the same jobs for a given seed whatever --seconds is, so
# counts repeat exactly.
TRACE_CYCLES = 4

_SETUP_CODE = ("import sys; sys.path.insert(0, {src!r}); "
               "import nstepdet.cli as cli; cli.build_parser(); "
               "print('ready', flush=True)")


class BenchError(RuntimeError):
    """A measurement could not be taken."""


def setup_seconds() -> list[float]:
    """Times from launching an interpreter until ``nstepdet.cli`` is
    imported and its parser built, as every CLI invocation pays it.

    The interpreter runs with ``-S``: site-packages start-up depends on what
    else is installed, not on nstepdet, and only adds noise.
    """
    cmd = [sys.executable, "-S", "-c", _SETUP_CODE.format(src=str(SRC))]
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise BenchError("set-up launch failed")
        times.append(elapsed)
    return times[1:]


def run_worker(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args`` and return its JSON summary."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """One run of one workload: (description, result object)."""
    deadline = monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        setup = setup_seconds()
        res = run_worker(common + ["--seconds", str(seconds)], deadline)
        setup = statistics.median(setup + setup_seconds())
        metrics = {
            "job_p50_ms": _metric(res["job_p50_ms"], "ms"),
            "job_p90_ms": _metric(res["job_p90_ms"], "ms"),
            "throughput_rps": _metric(res["throughput_rps"], "records/s"),
            "setup_s": _metric(setup, "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MiB"),
        }
        runs = [res]
    else:
        cycles = str(TRACE_CYCLES)
        res = run_worker(common + ["--cycles", cycles, "--trace"], deadline)
        plain = run_worker(common + ["--cycles", cycles], deadline)
        metrics = dict(res["layers"])
        metrics["nstep_seq.term_fast.warm_frac"] = _metric(res["term_fast_warm_frac"], "ratio")
        # Compared on the job types' fastest times, like the end-to-end metrics.
        metrics["trace.overhead_frac"] = _metric(
            res["fastest_s"] / plain["fastest_s"] - 1.0, "ratio")
        runs = [res, plain]
    attempted = sum(r["jobs"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = {key: value for key, value in res.items() if key != "layers"}
    info.update(seconds=seconds, trace=int(trace), failed_frac=failed / attempted,
                failures=[f for r in runs for f in r["failures"]])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return info, result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nstepdet benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = worker.refusal()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"env": environment()}))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            info, result = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"run": info}))
        for metric, m in result["metrics"].items():
            print(f"{name:>15}  {metric:<42} {m['value']:>16.6f} {m['unit']}")
        print(f"{name:>15}  {'failed_frac':<42} {info['failed_frac']:>16.6f} ratio"
              f"  ({result['failed']} of {result['attempted']} jobs)")
        if len(names) == 1:
            combined = result
        else:
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}.{metric}": m for metric, m in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
