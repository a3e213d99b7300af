"""Tests of the benchmark itself: every workload passes its goldens, every
trace patch point is reached where it should be, and the refusals hold.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import nstepdet.construction
import nstepdet.exact_linalg
import workloads
import worker
from tracer import LAYER_STATS, PATCHES, Tracer, point_name

ROOT = worker.ROOT
RUN = worker.HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_traced_cycle_passes_and_reaches_its_patch_points(workload):
    tracer = Tracer()
    with tracer.installed():
        result = worker.run(workload, 7, cycles=1, tracer=tracer)
    assert result["failed"] == 0, result["failures"]
    assert result["jobs"] == len(workloads.pool(workload))

    calls = tracer.point_calls()
    expected = [point_name(module, attr) for module, attr, _, target, *_ in PATCHES
                if target == workload]
    assert expected
    assert [point for point in expected if calls[point] == 0] == []

    metrics = tracer.layer_metrics()
    assert set(metrics) == {f"{layer}.{stat}"
                            for layer, stats in LAYER_STATS.items() for stat in stats}
    self_total = sum(m["value"] for name, m in metrics.items() if name.endswith(".self_s"))
    assert 0 < self_total <= result["busy_s"]
    if workload == "prop1-sweep":
        for fn in ("terms_range", "term", "term_fast"):
            assert metrics[f"nstep_seq.{fn}.calls"]["value"] == 0


def test_a_corrupted_golden_counts_as_failed():
    goldens = json.loads(worker.GOLDENS.read_text())["prop1-sweep"]
    for job in workloads.pool("prop1-sweep")[0]:
        goldens[job.key] = dict(goldens[job.key], digest="0" * 64)
    result = worker.run("prop1-sweep", 7, cycles=1, goldens=goldens)
    assert result["failed"] == 1
    assert "digest" in result["failures"][0]


def test_goldens_cover_every_pool_job():
    goldens = worker.load_goldens()
    for workload in workloads.WORKLOADS:
        keys = {job.key for stratum in workloads.pool(workload) for job in stratum}
        assert keys == set(goldens[workload])
        assert all(g["exit"] == 0 and g["records"] >= 1
                   for g in goldens[workload].values())


def test_report_digest_ignores_only_timings():
    report = '{\n  "records": [],\n  "timings_ms": {\n    "total": 1.5\n  }\n}\n'
    assert workloads.report_digest(report) == workloads.report_digest(
        report.replace("1.5", "2.25"))
    assert workloads.report_digest(report) != workloads.report_digest(
        report.replace("[]", "[1]"))


def test_tracer_restores_every_patch():
    from_rows = nstepdet.exact_linalg.IntMatrix.__dict__["from_rows"]
    with Tracer().installed():
        assert nstepdet.construction.det_bareiss is not nstepdet.exact_linalg.det_bareiss
    assert nstepdet.construction.det_bareiss is nstepdet.exact_linalg.det_bareiss
    assert nstepdet.exact_linalg.IntMatrix.__dict__["from_rows"] is from_rows


def test_spec_names_match_the_reported_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "job_p50_ms", "job_p90_ms", "throughput_rps", "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in SPEC["per_layer"]} == {
        f"{layer}.{stat}" for layer, stats in LAYER_STATS.items() for stat in stats
    } | {"nstep_seq.term_fast.warm_frac", "trace.overhead_frac"}


def _run_refused(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    return proc


def test_refuses_under_optimize():
    proc = _run_refused([sys.executable, "-O", str(RUN), "--workload", "prop1-sweep",
                         "--seed", "1", "--seconds", "1"], ROOT)
    assert "-O" in proc.stderr


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(worker.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    _run_refused([sys.executable, "perfbench/run.py", "--workload", "seq-range",
                  "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
