"""Self-test of the benchmark itself (not of weightcat).

    python3 perfbench/selftest.py

1. Smoke runs (one job per job class) of every workload, untraced and
   traced: the result line has exactly the contract keys, every metric name
   and unit matches BENCHMARK.json, and the traced run's per-layer self
   times plus its remainder add up to its wall time.
2. The gate fires: a corrupted expected answer (on a recorded and on a
   held-out job) and a corrupted recorded digest each turn a passing job
   into a failure.
3. The held-out seed draws the same mix of job classes as the tuning seeds,
   with inputs that no recorded seed drew; such jobs are judged by
   their known answers alone, and the known C4 defect stays an expected
   failure on them.
4. Without the weightcat sources the benchmark exits non-zero and prints no
   result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import run
import jobs

TUNING_SEEDS = (1, 2, 3, 4, 5)
HELD_OUT_SEED = 9001
SELF_TIME_LAYERS = ("rootsys", "weylmod", "degonemod", "inducemod", "linalg", "categorio",
                    "extcoh", "paperlab", "cli")


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def bench_cmd(workload: str, trace: int) -> list:
    return [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--smoke"]


def smoke(spec: dict) -> None:
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(bench_cmd(workload, trace), cwd=run.ROOT, capture_output=True,
                                  text=True, timeout=600)
            check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: "
                                        f"{proc.stderr[-800:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"result keys {sorted(result)}")
            check(result["correct"] is True, f"{workload} trace={trace} not correct: {result}")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
            check(isinstance(result["failed"], int), "failed")
            want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} metrics {got} != {want}")
            for name, m in result["metrics"].items():
                check(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
                      and not isinstance(m["value"], bool), f"{name}: {m}")
            if trace:
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                total = sum(metrics[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
                total += metrics["trace.remainder_s"]
                wall = metrics["trace.wall_s"]
                check(abs(total - wall) <= 1e-6 * wall + 1e-9,
                      f"{workload}: self times + remainder {total} != traced wall {wall}")
            print(f"ok  smoke {workload} trace={trace}: {result['attempted']} jobs")


def gate() -> None:
    _, mods = run.load_weightcat()
    w = types.SimpleNamespace(**mods)
    recorded = run.load_recorded("ext")
    check(HELD_OUT_SEED not in run.load_digests()["seeds"], "the held-out seed was recorded")
    for seed in (TUNING_SEEDS[0], HELD_OUT_SEED):
        job = next(j for j in jobs.make_plan(w, "ext", seed, smoke=True) if j.cls == "ext-bline")
        key = jobs.digest(job.key)
        check((key in recorded["jobs"]) == (seed != HELD_OUT_SEED),
              f"seed {seed}: a job of a recorded seed has a digest, one of the held-out seed not")
        rc, text = jobs.execute(w, job)
        check(not jobs.judge(job, rc, text, recorded).failed, f"seed {seed}: job must pass")
        bad_answer = replace(job, expect={**job.expect, "dimension": 2})
        out = jobs.judge(bad_answer, rc, text, recorded)
        check(out.failed, "a corrupted expected answer must fail the gate")
        check(out.unexpected == (seed == HELD_OUT_SEED),
              "a failure is unexpected unless the output matches a recorded one")
        if seed != HELD_OUT_SEED:
            bad = {**recorded, "jobs": {**recorded["jobs"],
                                        key: {"digest": "0" * jobs.DIGEST_LEN, "ok": True}}}
            out = jobs.judge(job, rc, text, bad)
            check(out.failed and out.unexpected, "a corrupted recorded digest must fail the gate")
    lab = run.load_recorded("lab")
    job = next(j for j in jobs.make_plan(w, "lab", HELD_OUT_SEED) if j.slot in lab["known_failures"])
    try:
        rc, text = jobs.execute(w, job)
    except Exception as exc:  # the known defect
        rc, text = None, jobs.raised_text(exc)
    out = jobs.judge(job, rc, text, lab)
    check(out.failed and not out.unexpected,
          f"{job.slot}: the known defect must count as an expected failure, got {out}")
    print("ok  gate fires on a corrupted answer and on a corrupted digest; held-out jobs are "
          "judged by their known answers and the known defect stays an expected failure")


def held_out_mix() -> None:
    _, mods = run.load_weightcat()
    w = types.SimpleNamespace(**mods)
    for workload in jobs.WORKLOADS:
        plans = {seed: jobs.make_plan(w, workload, seed) for seed in TUNING_SEEDS + (HELD_OUT_SEED,)}
        mixes = {seed: sorted(j.cls for j in plan) for seed, plan in plans.items()}
        check(len({tuple(m) for m in mixes.values()}) == 1, f"{workload}: job mix depends on seed")
        check(mixes[HELD_OUT_SEED] != [], f"{workload}: empty plan")
        recorded = run.load_recorded(workload)["jobs"]
        seeded = [j for j in plans[HELD_OUT_SEED] if not j.cls.startswith("ref-")]
        new = sum(jobs.digest(j.key) not in recorded for j in seeded)
        # one-parameter slots (C2 M(-1,a) has 24 values of a) repeat recorded inputs
        check(new > 0, f"{workload}: held-out seed drew no new inputs")
        print(f"ok  {workload}: held-out seed {HELD_OUT_SEED} draws the tuning seeds' job mix; "
              f"{new} of its {len(seeded)} seeded jobs have inputs no recorded seed drew")


def bare_directory() -> None:
    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0, "must fail without the weightcat sources")
        check(proc.stdout.strip() == "", f"must print no result, printed {proc.stdout[-200:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without sources: exit code", proc.returncode, "and no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    held_out_mix()
    gate()
    bare_directory()
    smoke(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
