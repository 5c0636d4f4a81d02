"""The four benchmark workloads: CLI arguments, inputs and output checks.

Each workload is one ``fedbft`` CLI job.  Its inputs (a config file and
the CLI seed) are a pure function of the benchmark seed: the CLI seed is
``base_seed + seed``, so seed 0 reproduces the pinned acceptance runs.
BENCHMARK.json lists sim-timeout and fl-adversary, whose jobs take 2-3 s;
45-s runs keep their medians steady.  A run budget that fits all four
workloads allows only about 20 s a run, and at that length lambda-sweep
(about 8 s a job) and fl-converge (about 6 s) spread 13-19 % between runs
on a shared 2-core host.  run.py still runs, checks and reports them.

fl-adversary is the scripts/train_federated_demo.py shape with 500 samples
per enterprise (test sets of 100) and ``e0=0.7`` instead of 200 samples
and ``e0=0.6``.  At the demo shape about one seed in five ends with
``all txs rejected: nothing to seal`` (exit 1, no CSV): the saboteur's
random weights pass all three 40-row test sets now and then, enter a
block, drag the global model down, and the next cycle rejects every
honest update.  With 100-row test sets and ``e0=0.7`` the saboteur's
accuracy stayed at or below 0.71 and honest updates at or above 0.76 over
60 seeds x 200 cycles, so every job completes; the saboteur is rejected
every cycle and ``adversary_excluded_frac`` reads 1.

The expected CSV headers are copied from the README's "CSV formats"
section rather than imported from the package, so a change to the
program's output format shows up here as a failed check.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

LATENCY_FIELDS = ("t_local", "t_up", "t_preprepare", "t_prepare", "t_commit",
                  "t_dn", "t_global", "t_update", "t_commun", "t_consensus",
                  "t_total")
SIMULATE_HEADER = ("config_id", "replications", "component", "mean",
                   "std_err", "analytic", "rel_error")
SWEEP_HEADER = ("param", "value",
                "t_consensus_mean", "t_consensus_std_err",
                "t_consensus_analytic", "t_consensus_rel_error",
                "t_total_mean", "t_total_std_err",
                "t_total_analytic", "t_total_rel_error")
FL_HEADER = ("cycle", "weight_delta", "holdout_accuracy", "train_loss",
             "block_txs") + LATENCY_FIELDS
TEXT_COLUMNS = {"config_id", "component", "param"}

# configs/baseline.cfg at the time the benchmark was defined; kept here so
# that editing the repository's example config cannot change the workload
BASELINE_CONFIG = """\
n_peers=4
f=1
lambda=100
mu=300
n_block=100
tau=10.0
delta_m=1e4
delta_d=1e4
h=1e3
f_c=1e9
w_up=1e6
gamma_up=3
w_dn=1e7
gamma_dn=15
beta=0.5
epsilon=1e-3
e0=0.5
t_max=500
"""

SWEEP_LAMBDAS = (50.0, 100.0, 150.0, 200.0, 250.0)
SIM_REPS = 10_000
CONSENSUS_REL_ERR_BOUND = 0.031   # acceptance 1
CONVERGE_CAP = 400                # acceptance 5
CONVERGE_MIN_ACCURACY = 0.95      # acceptance 5
ADVERSARY_CAP = 200
ADVERSARY_ID = 2


def parse_csv(text: str, header: tuple) -> list[dict]:
    """Parse CSV text against its documented header; raise ValueError."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or tuple(rows[0]) != header:
        raise ValueError(f"header is {rows[0] if rows else None}, expected {list(header)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"line {lineno} has {len(row)} fields, expected {len(header)}")
        rec = {}
        for key, cell in zip(header, row):
            if key in TEXT_COLUMNS:
                rec[key] = cell
            elif cell == "":
                rec[key] = None
            else:
                try:
                    rec[key] = float(cell)
                except ValueError:
                    raise ValueError(f"line {lineno}: {key}={cell!r} is not a number") from None
        out.append(rec)
    if not out:
        raise ValueError("no data rows")
    return out


@dataclass(frozen=True)
class Outcome:
    """What one job's output says: problems found and the fidelity metrics."""

    problems: list
    units: Optional[int]
    fidelity: dict


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # "sim" or "fl": selects metrics and layer expectations
    base_seed: int
    config: str
    args: tuple
    header: tuple
    check: Callable[[list, str, Optional[list]], Outcome]

    def argv(self, seed: int, config_path: str, out_path: str) -> list:
        return [*self.args, "--config", config_path,
                "--seed", str(self.cli_seed(seed)), "--out", out_path]

    def cli_seed(self, seed: int) -> int:
        return self.base_seed + seed


def _check_sweep(rows, summary, blocks) -> Outcome:
    problems = []
    values = tuple(r["value"] for r in rows)
    if values != SWEEP_LAMBDAS or any(r["param"] != "lambda" for r in rows):
        problems.append(f"sweep grid is {values}, expected {SWEEP_LAMBDAS}")
    errs = [r["t_consensus_rel_error"] for r in rows]
    for r, err in zip(rows, errs):
        if err is None or not err <= CONSENSUS_REL_ERR_BOUND:
            problems.append(f"lambda={r['value']:g}: t_consensus_rel_error {err} "
                            f"exceeds {CONSENSUS_REL_ERR_BOUND}")
    finite = [e for e in errs if e is not None]
    return Outcome(problems, SIM_REPS * len(SWEEP_LAMBDAS),
                   {"consensus_rel_err_max": max(finite) if finite else math.nan})


def _check_simulate(rows, summary, blocks) -> Outcome:
    problems = []
    components = tuple(r["component"] for r in rows)
    if components != LATENCY_FIELDS:
        problems.append(f"components are {components}, expected {LATENCY_FIELDS}")
    if any(r["replications"] != SIM_REPS for r in rows):
        problems.append(f"replications column is not {SIM_REPS}")
    consensus = [r["rel_error"] for r in rows if r["component"] == "t_consensus"]
    value = consensus[0] if consensus and consensus[0] is not None else math.nan
    return Outcome(problems, SIM_REPS, {"consensus_rel_err_max": value})


def _fl_fidelity(rows, blocks, adversary: Optional[int]) -> dict:
    out = {"cycles": len(rows), "holdout_accuracy": rows[-1]["holdout_accuracy"]}
    if adversary is not None and blocks:
        excluded = sum(1 for ids in blocks if adversary not in ids)
        out["adversary_excluded_frac"] = excluded / len(blocks)
    return out


def _check_converge(rows, summary, blocks) -> Outcome:
    problems = []
    if len(rows) >= CONVERGE_CAP:
        problems.append(f"hit the {CONVERGE_CAP}-cycle cap without converging")
    if summary.strip() != f"result=converged cycles={len(rows)}":
        problems.append(f"summary line is {summary.strip()!r}")
    acc = rows[-1]["holdout_accuracy"]
    if acc is None or not acc >= CONVERGE_MIN_ACCURACY:
        problems.append(f"final holdout_accuracy {acc} below {CONVERGE_MIN_ACCURACY}")
    losses = [r["train_loss"] for r in rows]
    if any(a is None or b is None or not b <= a + 1e-12
           for a, b in zip(losses, losses[1:])):
        problems.append("train_loss increased between cycles")
    return Outcome(problems, len(rows), _fl_fidelity(rows, blocks, None))


def _check_adversary(rows, summary, blocks) -> Outcome:
    problems = []
    if len(rows) != ADVERSARY_CAP:
        problems.append(f"{len(rows)} cycle rows, expected exactly {ADVERSARY_CAP}")
    if blocks is None or len(blocks) != len(rows):
        problems.append("sealed blocks were not observed for every cycle")
    return Outcome(problems, len(rows), _fl_fidelity(rows, blocks, ADVERSARY_ID))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="lambda-sweep", kind="sim", base_seed=42, config=BASELINE_CONFIG,
        args=("sweep", "--param", "lambda", "--from", "50", "--to", "250",
              "--step", "50", "--reps", str(SIM_REPS)),
        header=SWEEP_HEADER, check=_check_sweep),
    Workload(
        name="sim-timeout", kind="sim", base_seed=42,
        config=BASELINE_CONFIG.replace("tau=10.0", "tau=0.2"),
        args=("simulate", "--reps", str(SIM_REPS)),
        header=SIMULATE_HEADER, check=_check_simulate),
    Workload(
        name="fl-converge", kind="fl", base_seed=0, config="beta=2.0\n",
        args=("fl-run", "--enterprises", "4", "--samples", "500",
              "--features", "2", "--separation", "4.0", "--holdout", "2000",
              "--cycle-cap", str(CONVERGE_CAP)),
        header=FL_HEADER, check=_check_converge),
    Workload(
        name="fl-adversary", kind="fl", base_seed=0,
        config="e0=0.7\nbeta=2.0\nt_max=200\n",
        args=("fl-run", "--enterprises", "4", "--samples", "500",
              "--features", "300", "--separation", "3.0", "--holdout", "2000",
              "--adversaries", str(ADVERSARY_ID),
              "--cycle-cap", str(ADVERSARY_CAP)),
        header=FL_HEADER, check=_check_adversary),
)}


def evaluate(workload: Workload, csv_text: str, summary: str,
             blocks: Optional[list]) -> Outcome:
    """Parse a job's CSV and run the workload's output checks."""
    try:
        rows = parse_csv(csv_text, workload.header)
    except ValueError as exc:
        return Outcome([f"CSV does not parse: {exc}"], None, {})
    return workload.check(rows, summary, blocks)
