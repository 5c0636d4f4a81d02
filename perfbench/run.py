"""fedbft benchmark: a closed loop of fresh-process CLI jobs on one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload sim-timeout --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0 --out r.json

A run first starts one untimed warm-up process (bytecode caches, runtime
details).  It then runs the workload's CLI job in one fresh process after
another, serially, until ``--seconds`` have passed; at least one job
always runs.  Every job process first times its own set-up (importing
``fedbft.cli`` plus ``parse_config``).  Every job's CSV is checked (see
workloads.py), and all jobs at one seed must write identical bytes.

Host speed on a shared machine drifts by tens of percent within minutes,
so the gated times are rescaled by a reference computation timed in the
same process (reference.py): ``setup_s`` and ``ref_ms_per_unit`` read
as seconds and milliseconds at the speed where that computation takes
``reference.NOMINAL_S``, scaled by the power ``reference.ELASTICITY`` of
the speed ratio.  The raw host times are reported beside them.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates an untraced job with a traced one (see
layers.py) and reports the per-layer metrics, after checking that the
trace leaves the CSV bytes unchanged and that every layer is called on
exactly the workloads predicted to use it.

Human-readable tables go to stdout first; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out`` also writes the full results, stamped with the environment.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import layers
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_BUDGET_S = 170.0   # one workload's run must end well inside 180 s


@dataclass
class Job:
    index: int
    traced: bool
    run_s: float = math.nan
    ref_s: float = math.nan
    ref_before_s: float = math.nan
    setup_s: float = math.nan
    peak_rss_mb: float = math.nan
    units: Optional[int] = None
    csv_sha256: Optional[str] = None
    csv_bytes: Optional[bytes] = None
    fidelity: dict = field(default_factory=dict)
    layers: Optional[dict] = None
    problems: list = field(default_factory=list)

    def record(self) -> dict:
        return {"index": self.index, "traced": self.traced, "run_s": self.run_s,
                "ref_s": self.ref_s, "ref_before_s": self.ref_before_s,
                "setup_s": self.setup_s,
                "peak_rss_mb": self.peak_rss_mb, "units": self.units,
                "csv_sha256": self.csv_sha256, "fidelity": self.fidelity,
                "problems": self.problems}


class Runner:
    """Owns one workload run's scratch directory and child environment."""

    def __init__(self, workload: workloads.Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.config = self.work / "workload.cfg"
        self.config.write_text(workload.config)
        self.env = dict(os.environ)
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        # one BLAS thread: a job then runs on one core like the reference
        # computation, so a busy neighbour slows both alike
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self._requests = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def child(self, mode: str, timeout: float, argv=None, trace=False):
        """Run job.py once; return (result or None, a problem or None)."""
        self._requests += 1
        req = self.work / f"request{self._requests}.json"
        res = self.work / f"result{self._requests}.json"
        req.write_text(json.dumps({"mode": mode, "config": str(self.config),
                                   "argv": argv, "trace": trace,
                                   "result": str(res)}))
        try:
            proc = subprocess.run([sys.executable, str(HERE / "job.py"), str(req)],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, f"job timed out after {timeout:.0f} s"
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        if proc.returncode != 0 or not res.is_file():
            return None, f"job process exited with {proc.returncode}: {tail[0]}"
        result = json.loads(res.read_text())
        if not Path(result["fedbft_file"]).resolve().is_relative_to(SRC):
            return None, f"imported fedbft from {result['fedbft_file']}, not {SRC}"
        if "Traceback" in proc.stderr:
            result.setdefault("problems", []).append(f"traceback on stderr: {tail[0]}")
        result["stderr_tail"] = tail[0]
        return result, None

    def run_job(self, index: int, traced: bool, timeout: float) -> Job:
        job = Job(index, traced)
        out_csv = self.work / f"job{index}.csv"
        argv = self.workload.argv(self.seed, str(self.config), str(out_csv))
        result, problem = self.child("run", timeout, argv=argv, trace=traced)
        if problem:
            job.problems.append(problem)
            return job
        job.problems.extend(result.get("problems", []))
        job.run_s = result["run_s"]
        job.ref_s = result["ref_s"]
        job.ref_before_s = result["ref_before_s"]
        job.setup_s = result["setup_s"]
        job.peak_rss_mb = result["peak_rss_mb"]
        job.layers = result.get("layers")
        if result["traceback"]:
            job.problems.append("traceback: " + result["traceback"].strip().splitlines()[-1])
        if result["exit_code"] != 0:
            job.problems.append(f"fedbft exited with {result['exit_code']}: "
                                f"{result['stderr_tail']}")
        if not out_csv.is_file():
            job.problems.append("no CSV written")
            return job
        job.csv_bytes = out_csv.read_bytes()
        out_csv.unlink()
        job.csv_sha256 = hashlib.sha256(job.csv_bytes).hexdigest()
        outcome = workloads.evaluate(self.workload, job.csv_bytes.decode(),
                                     result["stdout"], result.get("blocks"))
        job.problems.extend(outcome.problems)
        job.units = outcome.units
        job.fidelity = outcome.fidelity
        if job.layers is not None:
            job.problems.extend(coverage_problems(self.workload.kind, job.layers))
        return job


def layer_totals(snapshot: dict) -> dict:
    """Per layer: calls and self time, with latency.* summed into 'latency'."""
    out = {name: {"calls": 0, "self_ns": 0} for name in layers.LAYERS}
    for name, st in snapshot.items():
        key = "latency" if name.startswith("latency.") else name
        out[key]["calls"] += st["calls"]
        out[key]["self_ns"] += st["self_ns"]
    return out


def coverage_problems(kind: str, snapshot: dict) -> list:
    problems = []
    for name, st in layer_totals(snapshot).items():
        used = name in layers.USED[kind]
        if used and st["calls"] == 0:
            problems.append(f"trace coverage: {name} predicted used, recorded no calls")
        elif not used and st["calls"]:
            problems.append(f"trace coverage: {name} predicted idle, "
                            f"recorded {st['calls']} calls")
    return problems


def _median(values):
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _scaled(seconds: float, ref_s: float) -> float:
    return seconds * (reference.NOMINAL_S / ref_s) ** reference.ELASTICITY


def end_to_end(w: workloads.Workload, jobs: list) -> dict:
    """The ten end-to-end metrics as {name: (value, unit)}; None = n/a."""
    per_unit = [j.run_s / j.units for j in jobs if j.units]
    first = next((j.fidelity for j in jobs if j.fidelity), {})
    sim, fl = w.kind == "sim", w.kind == "fl"
    failed = sum(1 for j in jobs if j.problems)
    return {
        "setup_s": gated(jobs)["setup_s"],
        "run_s": (_median(j.run_s for j in jobs), "s"),
        "peak_rss_mb": (_median(j.peak_rss_mb for j in jobs), "MB"),
        "us_per_rep": (_median(per_unit) * 1e6 if sim else None, "us"),
        "ms_per_cycle": (_median(per_unit) * 1e3 if fl else None, "ms"),
        "failed_frac": (failed / len(jobs), "ratio"),
        "consensus_rel_err_max": (first.get("consensus_rel_err_max") if sim else None, "ratio"),
        "cycles": (first.get("cycles") if fl else None, "count"),
        "holdout_accuracy": (first.get("holdout_accuracy") if fl else None, "ratio"),
        "adversary_excluded_frac": (first.get("adversary_excluded_frac"), "ratio"),
    }


def gated(jobs: list) -> dict:
    """The end_to_end metrics of BENCHMARK.json, defined on every workload.

    ``setup_s`` is each job's set-up time rescaled by the reference run
    right after it; ``ref_ms_per_unit`` is host ms per replication (sim)
    or per cycle (fl) rescaled by the mean of the two reference runs
    around the CLI call.
    """
    return {
        "setup_s": (_median(_scaled(j.setup_s, j.ref_before_s) for j in jobs), "s"),
        "ref_ms_per_unit": (_median(_scaled(j.run_s / j.units * 1e3, j.ref_s)
                                    for j in jobs if j.units), "ms"),
        "peak_rss_mb": (_median(j.peak_rss_mb for j in jobs), "MB"),
    }


def per_layer(jobs: list) -> dict:
    """The per-layer metrics from the traced jobs, plus the trace overhead."""
    traced = [j for j in jobs if j.traced and j.layers is not None]
    plain = [j for j in jobs if not j.traced]
    out = {}
    if not traced:
        return out
    totals = [layer_totals(j.layers) for j in traced]
    for name in layers.LAYERS:
        out[f"{name}.calls"] = (totals[0][name]["calls"], "count")
        out[f"{name}.self_s"] = (_median(t[name]["self_ns"] / 1e9 for t in totals), "s")

    snap = traced[0].layers

    def counter(layer, key):
        return snap.get(layer, {}).get("counters", {}).get(key, 0)

    b_sum = counter("sim.run_experiment", "b_sum") + counter("sim.run_cycle", "b_sum")
    b_count = counter("sim.run_experiment", "b_count") + counter("sim.run_cycle", "b_count")
    verify_calls = totals[0]["fl.verify_update"]["calls"]
    cycle_ms = [d / 1e6 for j in traced
                for d in j.layers.get("sim.run_cycle", {}).get("durations_ns", [])]
    pct = statistics.quantiles(cycle_ms, n=100) if len(cycle_ms) >= 2 else [0.0] * 99
    out.update({
        "sim.sample_exponential.draws": (counter("sim.sample_exponential", "draws"), "count"),
        "sim.block_b_mean": (b_sum / b_count if b_count else 0.0, "tx"),
        "fl.verify_update.accept_ratio": (
            counter("fl.verify_update", "accepted") / verify_calls if verify_calls else 0.0,
            "ratio"),
        "domain.tx_digest.bytes": (counter("domain.tx_digest", "bytes"), "bytes"),
        "cli.write_csv.bytes": (counter("cli.write_csv", "bytes"), "bytes"),
        "sim.run_cycle.p50_ms": (pct[49], "ms"),
        "sim.run_cycle.p95_ms": (pct[94], "ms"),
        "trace_overhead_frac": (
            _median(_scaled(j.run_s, j.ref_s) for j in traced)
            / _median(_scaled(j.run_s, j.ref_s) for j in plain) - 1.0,
            "ratio"),
    })
    return out


def run_workload(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload; returns the results record."""
    started = time.monotonic()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - started)

    runner = Runner(w, seed)
    problems = []
    jobs: list = []
    try:
        info, problem = runner.child("env", remaining())
        if problem:
            problems.append(f"warm-up: {problem}")
        else:
            loop_start = time.monotonic()
            while True:
                for traced in ((False, True) if trace else (False,)):
                    jobs.append(runner.run_job(len(jobs), traced, remaining()))
                if time.monotonic() - loop_start >= seconds or remaining() < 1.0:
                    break
    finally:
        runner.close()

    first_csv = next((j for j in jobs if j.csv_bytes is not None), None)
    for j in jobs:
        if j.csv_bytes is not None and j.csv_bytes != first_csv.csv_bytes:
            j.problems.append("trace changed the CSV bytes" if j.traced else
                              f"CSV differs from job {first_csv.index} at the same seed")
    failed = sum(1 for j in jobs if j.problems)
    record = {
        "workload": w.name, "seed": seed, "cli_seed": w.cli_seed(seed),
        "argv": w.argv(seed, "<config>", "<out.csv>"), "config": w.config,
        "seconds": seconds, "trace": trace,
        "runtime": info.get("env") if info else None,
        "correct": not problems and bool(jobs) and failed == 0,
        "attempted": len(jobs), "failed": failed, "problems": problems,
        "csv_sha256": sorted({j.csv_sha256 for j in jobs if j.csv_sha256}),
        "jobs": [j.record() for j in jobs],
    }
    if not jobs:
        return record
    if trace:
        record["per_layer"] = per_layer(jobs)
    else:
        record["end_to_end"] = end_to_end(w, jobs)
        record["raw"] = {"setup_s_raw": (_median(j.setup_s for j in jobs), "s"),
                         "ref_s": (_median(j.ref_s for j in jobs), "s")}
        record["gated"] = gated(jobs)
    return record


def _git(*args) -> Optional[str]:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(records: list) -> dict:
    """Where and on what the results were measured."""
    top = _git("rev-parse", "--show-toplevel")
    in_git = top is not None and Path(top).resolve() == ROOT
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    runtime = next((r["runtime"] for r in records if r.get("runtime")), {}) or {}
    return {
        "git_commit": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_git else None,
        "src_sha256": digest.hexdigest(),
        **runtime,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "seeds": {r["workload"]: {"seed": r["seed"], "cli_seed": r["cli_seed"]}
                  for r in records},
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_table(record: dict) -> None:
    w = record["workload"]
    print(f"== {w}  seed={record['seed']} (cli seed {record['cli_seed']})  "
          f"jobs={record['attempted']} failed={record['failed']}")
    if record["trace"]:
        metrics = record.get("per_layer", {})
    else:
        metrics = {**record.get("end_to_end", {}), **record.get("gated", {}),
                   **record.get("raw", {})}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {_fmt(value):>14} {unit}")
    for sha in record["csv_sha256"]:
        print(f"  csv sha256 {sha}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")
    for job in record["jobs"]:
        for problem in job["problems"]:
            print(f"  FAILED job {job['index']}{' (traced)' if job['traced'] else ''}: "
                  f"{problem}")


def _json_metrics(metrics: dict) -> dict:
    return {name: {"value": None if value is None or (isinstance(value, float)
                                                     and math.isnan(value)) else value,
                   "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", help="also write the full results JSON here")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fedbft" / "cli.py").is_file():
        print(f"error: no fedbft sources under {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        print_table(record)
        records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": environment(records), "runs": records}, indent=1) + "\n")

    if not all(r["attempted"] for r in records):
        print("error: no job could run", file=sys.stderr)
        return 1
    if len(records) == 1:
        rec = records[0]
        metrics = _json_metrics(rec.get("per_layer" if args.trace else "gated", {}))
    else:
        key = "per_layer" if args.trace else "end_to_end"
        metrics = {f"{r['workload']}.{name}": value
                   for r in records for name, value in _json_metrics(r.get(key, {})).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
