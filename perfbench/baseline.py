"""Measure a baseline: repeated untraced runs plus a traced run per workload.

Usage (from the repository root):
    python3 perfbench/baseline.py --out perfbench/results/BENCH_<label>.json

Runs ``run.py`` for BENCHMARK.json's ``run_seconds`` with ``--seed 0 .. 9``
on every workload (seeds in the outer loop, so slow spells of the machine
spread over all workloads), then once more per workload at seed 0 with
``--trace 1``.  Prints, for
every end-to-end metric, the median, the quartiles and the spread
(inter-quartile range over the median, the run-to-run spread), next to
the bound BENCHMARK.json sets for the gated metrics, and writes all of it
with the environment block to ``--out``.  "steady" means every gated
spread except set-up time is below a third of its bound on the workloads
BENCHMARK.json lists.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _spread(values: list) -> dict:
    values = [v for v in values if v is not None and not math.isnan(v)]
    if not values:
        return {"values": []}
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def _run(work: Path, name: str, seed: int, seconds: int, trace: int) -> dict:
    out = work / f"{name}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{name} seed {seed}: run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(out.read_text())
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"environment": result["environment"], "record": result["runs"][0],
            "line": last}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="results JSON to write")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    names = list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    listed_workloads = {w["name"] for w in bench["workloads"]}

    work = ROOT / ".perfbench_work" / f"baseline-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    untraced = {name: [] for name in names}
    traced = {}
    try:
        for seed in range(RUNS):
            for name in names:
                untraced[name].append(_run(work, name, seed, seconds, 0))
                rec = untraced[name][-1]["record"]
                print(f"{name} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.6g}" for k, v in untraced[name][-1]["line"]["metrics"].items())
                    + f" jobs={rec['attempted']} failed={rec['failed']}", flush=True)
        for name in names:
            traced[name] = _run(work, name, 0, seconds, 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    summary = {"seconds": seconds, "runs": RUNS,
               "end_to_end": {}, "gated": {}, "per_layer": {}, "csv_sha256": {},
               "attempted": 0, "failed": 0, "problems": []}
    steady = True
    for name in names:
        records = [r["record"] for r in untraced[name]]
        reported = [{**r["end_to_end"], **r["raw"]} for r in records]
        summary["end_to_end"][name] = {
            metric: {"unit": unit, **_spread([m[metric][0] for m in reported])}
            for metric, (_, unit) in reported[0].items()}
        summary["gated"][name] = {}
        for metric, bound in bounds.items():
            stats = _spread([r["line"]["metrics"][metric]["value"] for r in untraced[name]])
            stats.update(bound=bound, spread_over_bound=stats["spread"] / bound)
            summary["gated"][name][metric] = stats
            if (name in listed_workloads and metric != "setup_s"
                    and stats["spread"] > bound / 3):
                steady = False
        summary["csv_sha256"][name] = {str(r["seed"]): r["csv_sha256"] for r in records}
        all_records = records + [traced[name]["record"]]
        summary["attempted"] += sum(r["attempted"] for r in all_records)
        summary["failed"] += sum(r["failed"] for r in all_records)
        summary["problems"] += [f"{name} seed {r['seed']}: {p}" for r in all_records
                                for j in r["jobs"] for p in j["problems"]]
        summary["per_layer"][name] = {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in traced[name]["record"]["per_layer"].items()}

    env = untraced[names[0]][0]["environment"]
    env["seeds"] = {name: {"seeds": list(range(RUNS)),
                           "cli_seeds": [workloads.WORKLOADS[name].cli_seed(s)
                                         for s in range(RUNS)]}
                    for name in names}
    summary = {"environment": env, **summary}

    print(f"\n{'workload':<14}{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for name in names:
        for metric, stats in summary["end_to_end"][name].items():
            if "median" not in stats:
                continue
            bound = bounds.get(metric) if metric in summary["gated"][name] else None
            print(f"{name:<14}{metric:<26}{stats['median']:>12.6g}{stats['q1']:>12.6g}"
                  f"{stats['q3']:>12.6g}{stats['spread'] or 0:>9.4f}"
                  f"{'' if bound is None else format(bound, '.2f'):>7}")
        stats = summary["gated"][name]["ref_ms_per_unit"]
        print(f"{name:<14}{'ref_ms_per_unit':<26}{stats['median']:>12.6g}{stats['q1']:>12.6g}"
              f"{stats['q3']:>12.6g}{stats['spread']:>9.4f}{stats['bound']:>7.2f}")
    print(f"\nattempted={summary['attempted']} failed={summary['failed']} "
          f"steady={'yes' if steady else 'no'} (on {', '.join(sorted(listed_workloads))}: "
          f"every gated spread but setup_s below a third of its bound)")
    for problem in summary["problems"]:
        print("PROBLEM", problem)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
