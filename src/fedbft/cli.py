"""Command-line front end: model predictions, simulations, sweeps, training.

All commands write CSV with a header row, '.' decimals, 12 significant
digits and '\n' line endings, so identical inputs and seeds give
byte-identical files.  Errors exit nonzero after a single
"error: <reason>" line on stderr, 2 for a bad command line and 1
otherwise; a stalled fl-run exits 1 after its CSV and its "result=stalled"
line.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from . import latency
from .data import (MAX_FEATURE_VALUES, read_enterprises, read_text,
                   split_dataset, two_class_gaussian)
from .domain import ALL_FIELDS, DEFAULT_PARAMS, SystemParams, parse_params_text
from .sim import (SWEEPABLE, RandomStreams, run_experiment, run_sweep,
                  run_training)

__all__ = ["main", "parse_config", "format_value", "write_csv"]

# the ExperimentStats columns that simulate and sweep write, in order
_STATS = ("mean", "std_err", "analytic", "rel_error")


def format_value(value) -> str:
    """Render one CSV cell: 12 significant digits for floats, blank for NaN."""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_csv(out: Optional[str], header: Sequence[str], rows) -> None:
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(format_value(v) for v in row) + "\n"
    if out is None or out == "-":
        _write_stdout(text)
    else:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None


def _write_stdout(text: str) -> None:
    """Write and flush stdout; a full or closed stdout is a ValueError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot fail too (the SIGPIPE note in the signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write stdout: {exc.strerror}") from None


def _check_writable(out: Optional[str]) -> None:
    """Fail before any work when the output CSV could not be opened."""
    if out is None or out == "-":
        return
    existed = os.path.lexists(out)
    try:
        open(out, "a").close()
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}") from None
    if not existed:
        os.remove(out)


def _master_seed(args) -> int:
    """The --seed of a command that seeds streams from it."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return args.seed


def _capped(args, flag: str) -> int:
    """The value of a size flag, rejected above ``MAX_FEATURE_VALUES``."""
    value = getattr(args, flag.replace("-", "_"))
    if value > MAX_FEATURE_VALUES:
        raise ValueError(f"--{flag} must be <= {MAX_FEATURE_VALUES}, "
                         f"got {value}")
    return value


def _adversary_ids(text: Optional[str]) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s] if text else []
    except ValueError:
        raise ValueError("--adversaries must be comma-separated enterprise "
                         f"ids, got {text!r}") from None


def parse_config(path: Optional[str]) -> SystemParams:
    """Load a key=value config file; no path means all defaults."""
    if path is None:
        return DEFAULT_PARAMS
    text = read_text(path, "config ")
    try:
        return parse_params_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def cmd_model(args) -> int:
    p = parse_config(args.config)
    b = args.batch if args.batch is not None else p.n_block
    if not 1 <= b <= p.n_block:
        raise ValueError(f"batch must be within 1..{p.n_block} (n_block)")
    bd = latency.t_total(p, _capped(args, "n-samples"), b)
    row = [b, *(getattr(bd, name) for name in ALL_FIELDS)]
    write_csv(args.out, ("b",) + ALL_FIELDS, [row])
    return 0


def cmd_simulate(args) -> int:
    p = parse_config(args.config)
    stats = run_experiment(p, args.reps, _master_seed(args),
                           n_samples=_capped(args, "n-samples"))
    rows = [[f"lambda={p.lam:g}", args.reps, name,
             *(getattr(stats, stat)[name] for stat in _STATS)]
            for name in ALL_FIELDS]
    write_csv(args.out, ("config_id", "replications", "component") + _STATS,
              rows)
    return 0


def cmd_sweep(args) -> int:
    points = run_sweep(parse_config(args.config), args.param, args.start,
                       args.stop, args.step, args.reps, _master_seed(args),
                       _capped(args, "n-samples"))
    columns = [(name, stat) for name in ("t_consensus", "t_total")
               for stat in _STATS]
    rows = [[args.param, value,
             *(getattr(stats, stat)[name] for name, stat in columns)]
            for value, stats in points]
    write_csv(args.out, ("param", "value",
                         *(f"{name}_{stat}" for name, stat in columns)), rows)
    return 0


def cmd_optimal_lambda(args) -> int:
    p = parse_config(args.config)
    grid_step = args.grid_step if args.grid_step is not None else p.mu / 1000.0
    lam_star = latency.optimal_lambda(p.f, p.n_block, p.mu)
    grid_argmin = latency.argmin_consensus_grid(p.f, p.n_block, p.mu, grid_step)
    write_csv(args.out, ("lambda_star", "grid_argmin", "grid_step"),
              [[lam_star, grid_argmin, grid_step]])
    if abs(lam_star - grid_argmin) > grid_step * (1 + 1e-9):
        print(f"error: grid argmin {grid_argmin:g} disagrees with "
              f"closed form {lam_star:g} by more than one grid step",
              file=sys.stderr)
        return 1
    return 0


def _synthetic_enterprises(args, streams: RandomStreams):
    """Per-enterprise train/test splits plus a held-out set, drawn from
    ``streams.data`` once every size flag is capped."""
    n_ent, n_samples, n_holdout, n_features = (
        _capped(args, flag)
        for flag in ("enterprises", "samples", "holdout", "features"))
    total = (n_ent * n_samples + n_holdout) * n_features
    if total > MAX_FEATURE_VALUES:
        raise ValueError("(--enterprises x --samples + --holdout) x --features "
                         f"must be <= {MAX_FEATURE_VALUES}, got {total}")
    datasets = [two_class_gaussian(n_samples, n_features, args.separation,
                                   streams.data) for _ in range(n_ent)]
    holdout = two_class_gaussian(n_holdout, n_features, args.separation,
                                 streams.data)
    return [split_dataset(d) for d in datasets], holdout


def cmd_fl_run(args) -> int:
    p = parse_config(args.config)
    streams = RandomStreams.from_seed(_master_seed(args))
    adversaries = _adversary_ids(args.adversaries)
    if args.data is not None:
        enterprises, holdout = read_enterprises(
            [s for s in args.data.split(",") if s])
    else:
        enterprises, holdout = _synthetic_enterprises(args, streams)
    run = run_training(p, enterprises, holdout, streams, adversaries,
                       cycle_cap=args.cycle_cap)
    header = ("cycle", "weight_delta", "holdout_accuracy", "train_loss",
              "block_txs") + ALL_FIELDS
    write_csv(args.out, header, run.rows)
    summary = f"result={run.result} cycles={len(run.rows)}"
    if adversaries:
        summary += f" adversary_blocks={run.adversary_blocks}"
    # keep stdout clean when it is carrying the CSV
    if args.out in (None, "-"):
        print(summary, file=sys.stderr)
    else:
        _write_stdout(summary + "\n")
    return 1 if run.result == "stalled" else 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one "error:" line, with no usage."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # subparsers are built with the parser's own class
    parser = _Parser(
        prog="fedbft",
        description="Latency model and simulator for federated training "
                    "over BFT block commits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--config", help="key=value config file")
        if seeded:
            sp.add_argument("--seed", type=int, default=0, help="master seed")
        sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("model", help="print the predicted latency breakdown")
    common(sp)
    sp.add_argument("--batch", type=int, help="batch size b (default n_block)")
    sp.add_argument("--n-samples", type=int, default=500,
                    help="local samples per enterprise")
    sp.set_defaults(func=cmd_model)

    def replicated(sp):
        sp.add_argument("--reps", type=int, default=1000)
        sp.add_argument("--n-samples", type=int, default=500)

    sp = sub.add_parser("simulate", help="replicate the consensus pipeline")
    common(sp, seeded=True)
    replicated(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="sweep one parameter across a grid")
    common(sp, seeded=True)
    sp.add_argument("--param", required=True, choices=SWEEPABLE)
    sp.add_argument("--from", dest="start", type=float, required=True)
    sp.add_argument("--to", dest="stop", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    replicated(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("optimal-lambda",
                        help="closed-form best arrival rate vs grid argmin")
    common(sp)
    sp.add_argument("--grid-step", type=float,
                    help="grid resolution (default mu/1000)")
    sp.set_defaults(func=cmd_optimal_lambda)

    sp = sub.add_parser("fl-run", help="train end to end over the chain")
    common(sp, seeded=True)
    sp.add_argument("--data", help="comma-separated sample files, one per enterprise")
    sp.add_argument("--enterprises", type=int, default=4)
    sp.add_argument("--samples", type=int, default=500,
                    help="synthetic samples per enterprise")
    sp.add_argument("--features", type=int, default=2)
    sp.add_argument("--separation", type=float, default=4.0)
    sp.add_argument("--holdout", type=int, default=2000,
                    help="synthetic held-out sample count")
    sp.add_argument("--adversaries", help="comma-separated enterprise ids")
    sp.add_argument("--cycle-cap", type=int, default=500)
    sp.set_defaults(func=cmd_fl_run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_writable(args.out)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
