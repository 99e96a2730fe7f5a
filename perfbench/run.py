"""weightcat benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The load is a closed loop: one client runs the seeded jobs back to back with
no think time.  `--seconds` sets the amount of work: one repetition of the
workload's job plan per NOMINAL_SECONDS (rounded, at least one); one
repetition takes 10-25 s of job time on a 2-core Xeon.  The plan is fixed
work, so the job mix, the sample count and the tail percentile are the same
on every commit.  Job times are scaled to a reference machine speed (see
run_plan and the README).

Set-up (interpreter start, ``import weightcat`` and plan generation,
including the classify calls that pick families) is measured SETUP_REPS
times in child interpreters, each against a reference child, and reported
as the median.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it runs every other job of one plan repetition untraced
and then the same jobs traced, and reports the per-layer metrics; the trace
is written to ``.perfbench/``.

Every job is checked against the paper's answer and against the digest of
its output recorded in digests.json (see jobs.judge).  The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}; the
line before it is the full self-describing record.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types
import collections
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import tracing  # noqa: E402

NOMINAL_SECONDS = 30
SETUP_REPS = 9
# The yardstick of set-up time: a child interpreter that imports the standard
# modules weightcat uses and does some Fraction arithmetic, without weightcat.
REF_CHILD = ("import argparse, dataclasses, fractions, json, random, typing\n"
             "acc = fractions.Fraction(0)\n"
             "for i in range(1, 3000):\n"
             "    acc += fractions.Fraction(i % 7 + 1, i % 5 + 2)\n")
REF_CHILD_S = 0.06      # the reference child's wall time at the usual speed of a 2-core Xeon
CAL_REPS = 3
CAL_REF_S = 0.0028      # one calibration sample at the usual speed of a 2-core Xeon
CAL_WINDOW = 2          # gaps on each side of a job whose samples set its speed
CAL_PERIOD_S = 0.05     # interval of the kernel samples taken inside a job
TRACE_STRIDE = 2
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_weightcat():
    if not (SRC / "weightcat" / "__init__.py").is_file():
        fail(f"no weightcat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weightcat
    from weightcat import (categorio, cli, degonemod, extcoh, inducemod, linalg, paperlab,
                           rootsys, weylmod)
    mods = {"rootsys": rootsys, "weylmod": weylmod, "degonemod": degonemod,
            "inducemod": inducemod, "linalg": linalg, "categorio": categorio,
            "extcoh": extcoh, "paperlab": paperlab, "cli": cli}
    return weightcat, mods


def _kernel() -> Fraction:
    """Fixed pure-Python work like weightcat's inner loops: Fraction sums, dict updates."""
    acc, table = Fraction(0), {}
    for i in range(1, 1200):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        table[(i % 11, i % 13)] = acc
    return acc


def kernel_time() -> float:
    """One timed run of the kernel: how fast the machine is right now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibrate() -> list:
    return [kernel_time() for _ in range(CAL_REPS)]


def at_reference(raw: float, samples) -> float:
    """A raw duration rescaled to the speed at which the kernel takes CAL_REF_S.

    The mean, not the median, of the kernel samples: a job's duration adds
    up its slow and fast moments alike."""
    return raw * CAL_REF_S / statistics.fmean(samples)


class Speedometer:
    """Kernel samples taken inside a running job, every CAL_PERIOD_S of wall time.

    The machine's speed drifts by a quarter within seconds, so a long job
    needs samples from while it runs.  A timer signal runs the kernel between
    two bytecodes of the job; the time the handler takes is taken out of the
    job's time.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_time())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def timed_child(cmd) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def measure_setup(args):
    """Raw and reference-speed wall times of SETUP_REPS child set-ups.

    Starting an interpreter and importing modules is mostly system calls and
    file reads, whose speed drifts unlike the calibration kernel's.  So each
    set-up is timed against a reference child started just before it, and
    its reference-speed time is its share of that child's time, times
    REF_CHILD_S.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    raw, ref = [], []
    for _ in range(SETUP_REPS):
        base = timed_child([sys.executable, "-c", REF_CHILD])
        raw.append(timed_child(probe))
        ref.append(raw[-1] * REF_CHILD_S / base)
    return raw, ref


def load_digests() -> dict:
    path = HERE / "digests.json"
    if not path.is_file():
        fail(f"missing {path}")
    return json.loads(path.read_text())


def load_recorded(workload: str) -> dict:
    return load_digests()[workload]


def run_plan(w, plan, recorded, tracer=None):
    """Run the jobs back to back and time each at the machine's reference speed.

    A job's speed is the mean of the kernel samples taken while it ran and
    in the CAL_WINDOW gaps on either side of it: a long job is timed by its
    own samples, a short one by its neighbours'.  Traced jobs are sampled in
    the gaps only, so that the per-layer self times hold no kernel time.
    Returns raw times, reference times, reference times from the gap samples
    alone, all kernel samples and outcomes.
    """
    raw, outcomes, gaps, inside = [], [], [calibrate()], []
    meter = Speedometer()
    for i, job in enumerate(plan):
        gc.collect()
        with meter if tracer is None else contextlib.nullcontext(meter):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc, text = jobs.execute(w, job)
                else:
                    rc, text = tracer.run_job(i, job.cls, lambda: jobs.execute(w, job))
            except Exception as exc:  # a failing job is a result, not a crash
                rc, text = None, jobs.raised_text(exc)
            t1 = time.perf_counter()
        raw.append(t1 - t0 - meter.spent)
        inside.append(list(meter.samples))
        meter.samples, meter.spent = [], 0.0
        gaps.append(calibrate())
        outcomes.append(jobs.judge(job, rc, text, recorded))
    ref, ref_gap = [], []
    for i, t in enumerate(raw):
        near = [x for gap in gaps[max(0, i - CAL_WINDOW + 1):i + CAL_WINDOW + 1] for x in gap]
        ref.append(at_reference(t, inside[i] + near))
        ref_gap.append(at_reference(t, near))
    return raw, ref, ref_gap, [x for gap in gaps for x in gap], outcomes


def tail(times):
    """Highest ladder percentile with at least ten jobs beyond it (nearest rank)."""
    n = len(times)
    ordered = sorted(times)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            break
    else:
        p = 50.0
    return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]


def end_to_end(setup, times, outcomes):
    ok = sum(not o.failed for o in outcomes)
    p, tail_value = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "jobs_per_s": ok / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": p, "samples": len(times)}


def per_layer(tr: tracing.Tracer, speed: float, overhead: float) -> dict:
    """Per-layer metrics; every time is scaled by the traced phase's `speed`."""
    ls = {layer: t * speed for layer, t in tr.layer_self.items()}
    ls = collections.defaultdict(float, ls)
    act_root = tr.count("degonemod.DegreeOneModule.act_root")
    kernel = tr.count("inducemod.TruncatedVerma.kernel_data")
    ns = tr.nullspace
    ext_sys = tr.systems["extcoh"]
    return {
        "weylmod.weyl_act.calls": tr.count("weylmod.weyl_act"),
        "weylmod.self_s": ls["weylmod"],
        "degonemod.act_root.calls": act_root,
        "degonemod.act_root.distinct_ratio": tracing.ratio(
            tr.distinct_total["degonemod.DegreeOneModule.act_root"], act_root),
        "degonemod.self_s": ls["degonemod"],
        "categorio.self_s": ls["categorio"],
        "linalg.from-categorio.self_s": tr.linalg_from["categorio"] * speed,
        "linalg.solve.calls": tr.count("linalg.solve"),
        "extcoh.self_s": ls["extcoh"],
        "extcoh.system_rows": ext_sys[1],
        "extcoh.system_cols": ext_sys[2],
        "linalg.from-extcoh.self_s": tr.linalg_from["extcoh"] * speed,
        "linalg.nullspace.cells": ns["cells"],
        "linalg.nullspace.unique_row_ratio": tracing.ratio(ns["unique_rows"], ns["rows"]),
        "inducemod.weight_space.self_s": tr.self_time("inducemod.TruncatedVerma.weight_space")
        * speed,
        "inducemod.kernel_data.calls": kernel,
        "inducemod.kernel_data.distinct_ratio": tracing.ratio(
            tr.distinct_total["inducemod.TruncatedVerma.kernel_data"], kernel),
        "inducemod.act_root.calls": tr.count("inducemod.TruncatedVerma.act_root"),
        "inducemod.self_s": ls["inducemod"],
        "linalg.from-inducemod.self_s": tr.linalg_from["inducemod"] * speed,
        "linalg.self_s": ls["linalg"],
        "rootsys.structure_constant.calls": tr.count("rootsys.Realization.structure_constant"),
        "rootsys.self_s": ls["rootsys"],
        "cli.self_s": ls["cli"],
        "paperlab.self_s": ls["paperlab"],
        "py.gc_collections": tr.gc_collections,
        "py.gc_pause_s": tr.gc_pause * speed,
        "trace.wall_s": tr.jobs_time() * speed,
        "trace.remainder_s": ls["job"],
        "trace.overhead_frac": overhead,
    }


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def summarize(outcomes, plan) -> list:
    failures = Counter((job.cls, o.reason) for job, o in zip(plan, outcomes) if o.failed)
    return [{"class": c, "reason": r, "count": n} for (c, r), n in sorted(failures.items())]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=jobs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one job per job class")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail(f"missing {bench_path}")
    bench = json.loads(bench_path.read_text())
    reps = max(1, round(args.seconds / NOMINAL_SECONDS))

    weightcat, mods = load_weightcat()
    w = types.SimpleNamespace(**mods)
    if args.setup_probe:
        jobs.make_plan(w, args.workload, args.seed, reps, args.smoke)
        return 0

    recorded = load_recorded(args.workload)
    record = {"benchmark": "weightcat", "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "machine": machine(), "load": "closed loop, one client, no think time",
              "calibration_ref_s": CAL_REF_S}

    if args.trace == 0:
        setup_raw, setup = measure_setup(args)
        plan = jobs.make_plan(w, args.workload, args.seed, reps, args.smoke)
        raw, times, times_gap, cal, outcomes = run_plan(w, plan, recorded)
        values, tail_info = end_to_end(setup, times, outcomes)
        specs = bench["end_to_end"]
        record["job_tail"] = tail_info
        record["fail_frac"] = {"value": sum(o.failed for o in outcomes) / len(outcomes),
                               "unit": "ratio"}
        # the same figures as raw wall times, and at reference speed from the
        # kernel samples between jobs alone
        record["raw"] = end_to_end(setup_raw, raw, outcomes)[0]
        record["gap_only"] = end_to_end(setup, times_gap, outcomes)[0]
        record["calibration_median_s"] = statistics.median(cal)
        record["setup_samples_s"] = {"raw": setup_raw, "reference": setup}
        by_class = {}
        for job, t in zip(plan, times):
            by_class.setdefault(job.cls, []).append(t)
        record["classes"] = {c: {"jobs": len(ts), "median_s": statistics.median(ts)}
                             for c, ts in sorted(by_class.items())}
        record["jobs"] = sorted(([t, r, job.cls, job.key] for job, t, r in zip(plan, times, raw)),
                                key=lambda row: row[0])
    else:
        # every other job of one plan repetition, first untraced, then traced
        plan = jobs.make_plan(w, args.workload, args.seed, 1, args.smoke)[::TRACE_STRIDE]
        _, times_u, _, _, outcomes_u = run_plan(w, plan, recorded)
        tracer = tracing.Tracer()
        tracer.install(mods, extra=[weightcat])
        try:
            raw, times, _, cal, outcomes = run_plan(w, plan, recorded, tracer)
        finally:
            tracer.uninstall()
        speed = CAL_REF_S / statistics.fmean(cal)
        values = per_layer(tracer, speed, sum(times) / sum(times_u))
        specs = bench["per_layer"]
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "speed_factor": speed,
            "spans": tracer.spans_dict(), "spans_dropped": tracer.spans_dropped,
            "calls": tracer.calls_dict(), "layer_self_s": dict(tracer.layer_self)}))
        record["trace_file"] = str(trace_path)
        record["speed_factor"] = speed
        record["untraced_unexpected"] = sum(o.unexpected for o in outcomes_u)

    record["classes_planned"] = dict(sorted(Counter(job.cls for job in plan).items()))
    record["failures"] = summarize(outcomes, plan)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    record["metrics"] = metrics
    correct = not any(o.unexpected for o in outcomes) and not record.get("untraced_unexpected")
    result = {"correct": correct, "attempted": len(outcomes),
              "failed": sum(o.failed for o in outcomes), "metrics": metrics}
    record["result"] = result
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
