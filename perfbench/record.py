"""Record the output digest of every job the recorded seeds draw.

    python3 perfbench/record.py

Runs every distinct job of the one-repetition plans of RECORDED_SEEDS on
every workload, checks it against the paper's answer, and writes
perfbench/digests.json.  Per workload: ``jobs`` maps the digest of a job's
key to the digest of its exact output (or of its error text) and whether it
passed; ``known_failures`` maps each slot that had a failing job to the kind
of that failure.  Run it only at a commit whose outputs are the reference;
the benchmark compares every later output with these digests.  Seeds
outside RECORDED_SEEDS draw jobs without a recorded digest, which are
judged by their known answers alone.
"""
from __future__ import annotations

import json
import sys
import time
import types

import run
import jobs

RECORDED_SEEDS = tuple(range(1, 11))


def main() -> int:
    _, mods = run.load_weightcat()
    w = types.SimpleNamespace(**mods)
    table = {"seeds": list(RECORDED_SEEDS)}
    for workload in jobs.WORKLOADS:
        entries, known = {}, {}
        table[workload] = {"jobs": entries, "known_failures": known}
        for seed in RECORDED_SEEDS:
            for job in jobs.make_plan(w, workload, seed):
                key = jobs.digest(job.key)
                if key in entries:
                    continue
                t0 = time.perf_counter()
                try:
                    rc, text = jobs.execute(w, job)
                    reason = jobs.known_answer(job, rc, text)
                except Exception as exc:  # recorded as the job's outcome
                    text, reason = jobs.raised_text(exc), jobs.raised_text(exc)
                entries[key] = {"digest": jobs.digest(text), "ok": reason is None}
                if reason is not None:
                    known[job.slot] = jobs.failure_kind(reason)
                print(f"{time.perf_counter() - t0:8.3f}s {workload:8s} {seed:3d} {job.cls:12s} "
                      f"{'ok' if reason is None else 'FAIL ' + reason[:60]:40s} {job.key[:90]}",
                      flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
