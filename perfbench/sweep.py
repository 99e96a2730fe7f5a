"""Run the benchmark on several seeds and summarise the spread.

    python3 perfbench/sweep.py --workload ext --seeds 1-10 [--trace 1] [--out FILE]

For each end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, next to the metric's bound and a third of it,
and the same spreads for the record's raw wall times (``raw``) and for
times scaled by the kernel samples between jobs alone (``gap_only``).
Runs are sequential, one process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run


def seeds_of(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values: list) -> dict:
    """Median, quartiles and the quartile distance as a share of the median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "machine": run.machine(), "workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(seconds),
                                   "--trace", str(args.trace)],
                                  cwd=run.ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "job_tail": record.get("job_tail"),
                         "raw": record.get("raw"), "gap_only": record.get("gap_only"),
                         "classes_planned": record["classes_planned"],
                         "failures": record["failures"]})
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {vals}", flush=True)
        stats = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats[name] = {**spread(values), "bound": bounds.get(name)}
            if args.trace == 0:
                s = stats[name]
                print(f"  {name:14s} median={s['median']:.5g} q1={s['q1']:.5g} q3={s['q3']:.5g} "
                      f"spread={s['spread']:.4f} bound={bounds[name]} "
                      f"third={bounds[name] / 3:.4f}")
        if args.trace == 0:
            for variant in ("raw", "gap_only"):
                stats[variant] = {name: spread([r[variant][name] for r in runs])
                                  for name in runs[0][variant]}
                print(f"  {variant} spreads: " + " ".join(
                    f"{name}={s['spread']:.4f}" for name, s in stats[variant].items()))
        summary["workloads"][workload] = {"runs": runs, "stats": stats}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
