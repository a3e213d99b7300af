"""Regenerate goldens.json: the expected exit code, output digest and record
count of every job in every workload pool.

CLI goldens come from running each job once through ``nstepdet.cli.main``;
each report must pass every record. ``term_fast`` goldens come from the
independent iterative engine ``term``, never from ``term_fast`` itself.
Regenerate only when a pool changes or a report format changes on purpose.

    python3 perfbench/make_goldens.py                  # every workload
    python3 perfbench/make_goldens.py term-fast        # one workload
"""

from __future__ import annotations

import json
import sys

import workloads
from worker import GOLDENS, SRC, digest, execute


def golden(job: workloads.Job) -> dict:
    from nstepdet import nstep_seq

    if job.kind == "term_fast":
        n, convention, k = job.args
        conv = nstep_seq.CLASSIC if convention == "classic" else nstep_seq.PAPER_POWERS
        value = nstep_seq.term(n, conv, k)
        return {"exit": 0, "digest": workloads.int_digest(value), "records": 1}
    _, code, text = execute(job)
    report = json.loads(text)
    if code != 0 or report.get("summary", {}).get("failed", 0):
        raise SystemExit(f"{job.key}: exit {code}, a workload job must pass")
    records = len(report["terms"]) if "terms" in report else report["summary"]["total"]
    return {"exit": code, "digest": digest(job, text), "records": records}


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    names = argv or list(workloads.WORKLOADS)
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.exists() else {}
    for name in names:
        jobs = [job for stratum in workloads.pool(name) for job in stratum]
        goldens[name] = {job.key: golden(job) for job in jobs}
        print(f"{name}: {len(jobs)} jobs", file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
