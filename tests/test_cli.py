"""Command-line behaviour: CSV output, determinism, validation, exit codes."""
import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fedbft import cli, latency, sim
from fedbft.cli import format_value, main, parse_config
from fedbft.data import two_class_gaussian, split_dataset
from fedbft.domain import ALL_FIELDS, DEFAULT_PARAMS, SystemParams
from fedbft.sim import RandomStreams, run_training
from sample_files import write_samples


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- formatting ---

def test_format_value():
    assert format_value(0.596025) == "0.596025"
    assert format_value(1 / 3) == "0.333333333333"  # 12 significant digits
    assert format_value(float("nan")) == ""
    assert format_value(42) == "42"
    assert format_value("lambda=100") == "lambda=100"


# --- config loading ---

def test_parse_config_defaults_when_no_path():
    assert parse_config(None) == DEFAULT_PARAMS


def test_parse_config_reads_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# tuned run\nlambda=150\nn_block=50\n")
    p = parse_config(str(cfg))
    assert p.lam == 150.0 and p.n_block == 50


def test_parse_config_errors_carry_the_path(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("lambda=150\nwhat=1\n")
    with pytest.raises(ValueError, match=r"bad\.cfg: unknown key 'what' on line 2"):
        parse_config(str(cfg))
    with pytest.raises(ValueError, match="cannot read config"):
        parse_config(str(tmp_path / "missing.cfg"))


# --- model ---

def test_model_prints_the_pinned_breakdown(capsys):
    code, out, err = run_cli(["model"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b," + ",".join(ALL_FIELDS)
    cells = lines[1].split(",")
    assert cells[0] == "100"
    assert cells[-1] == "0.596025"


def test_model_batch_override(capsys):
    code, out, _ = run_cli(["model", "--batch", "10"], capsys)
    assert code == 0
    row = dict(zip(("b",) + ALL_FIELDS, out.splitlines()[1].split(",")))
    bd = latency.t_total(DEFAULT_PARAMS, 500, 10)
    assert row["b"] == "10"
    assert float(row["t_preprepare"]) == pytest.approx(bd.t_preprepare)
    assert float(row["t_dn"]) == pytest.approx(bd.t_dn)


# --- simulate ---

def test_simulate_emits_all_components(capsys):
    code, out, _ = run_cli(["simulate", "--reps", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("config_id,replications,component,mean,std_err,"
                        "analytic,rel_error")
    assert len(lines) == 1 + len(ALL_FIELDS)
    components = [l.split(",")[2] for l in lines[1:]]
    assert components == list(ALL_FIELDS)
    assert all(l.split(",")[1] == "5" for l in lines[1:])


def test_simulate_same_seed_is_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for path in (out1, out2):
        code, _, _ = run_cli(["simulate", "--reps", "8", "--seed", "5",
                              "--out", str(path)], capsys)
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_simulate_different_seed_differs(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_cli(["simulate", "--reps", "8", "--seed", "5", "--out", str(out1)],
            capsys)
    run_cli(["simulate", "--reps", "8", "--seed", "6", "--out", str(out2)],
            capsys)
    assert out1.read_bytes() != out2.read_bytes()


def test_simulate_analytic_column_is_the_model_row(capsys):
    # at tau = 10 every block fills, so each replication's prediction is
    # the model's breakdown at b = n_block, sums included
    _, model_out, _ = run_cli(["model"], capsys)
    model_row = model_out.splitlines()[1].split(",")
    _, sim_out, _ = run_cli(["simulate", "--reps", "300"], capsys)
    analytic = [line.split(",")[5] for line in sim_out.splitlines()[1:]]
    assert analytic == model_row[1:]


# --- sweep ---

def sweep_points(param, start, stop, step, base=DEFAULT_PARAMS):
    return sim._sweep_points(base, param, start, stop, step)


def test_sweep_values_inclusive_grid():
    points = sweep_points("lambda", 50.0, 150.0, 50.0)
    assert [v for v, _ in points] == [50.0, 100.0, 150.0]
    assert [p.lam for _, p in points] == [50.0, 100.0, 150.0]
    # an f sweep keeps n_peers = 3f + 1
    points = sweep_points("f", 1.0, 3.0, 1.0)
    assert [(p.f, p.n_peers) for _, p in points] == [(1, 4), (2, 7), (3, 10)]
    points = sweep_points("tau", 0.1, 0.3, 0.1)
    assert [p.tau for _, p in points] == [v for v, _ in points]


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="start must be < stop"):
        sweep_points("lambda", 5.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="step must be positive"):
        sweep_points("lambda", 1.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="integer values"):
        sweep_points("f", 1.0, 2.0, 0.5)
    # every value is checked before any point: n_block=0 comes first here
    with pytest.raises(ValueError, match="n_block sweep requires integer values"):
        sweep_points("n_block", 0.0, 1.0, 0.5)
    # the point count is checked before the grid is built
    fast = SystemParams(mu=1e5)
    assert len(sweep_points("lambda", 1.0, 10_000.0, 1.0, fast)) == 10_000
    for stop, step in ((10_000.0, 1.0), (1e6, 1e-9), (1e308, 1e-308)):
        with pytest.raises(ValueError, match="sweep grid exceeds 10000 points"):
            sweep_points("lambda", 0.0, stop, step)


def test_sweep_over_lambda(capsys):
    code, out, _ = run_cli(["sweep", "--param", "lambda", "--from", "50",
                            "--to", "150", "--step", "50", "--reps", "5"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [l.split(",")[1] for l in lines[1:]] == ["50", "100", "150"]


def test_sweep_over_f_adjusts_peer_count(capsys):
    # would fail parameter validation if n_peers stayed at 4
    code, out, _ = run_cli(["sweep", "--param", "f", "--from", "1", "--to",
                            "3", "--step", "1", "--reps", "3"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4


def test_sweep_over_tau(capsys):
    code, out, _ = run_cli(["sweep", "--param", "tau", "--from", "0.1",
                            "--to", "0.3", "--step", "0.1", "--reps", "5"],
                           capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert [l.split(",")[:2] for l in lines[1:]] == [
        ["tau", "0.1"], ["tau", "0.2"], ["tau", "0.3"]]


def test_sweep_rejects_a_tau_of_zero(capsys):
    code, out, err = run_cli(["sweep", "--param", "tau", "--from", "0",
                              "--to", "0.2", "--step", "0.1", "--reps", "5"],
                             capsys)
    assert (code, out, err) == (1, "", "error: tau must be positive\n")


def test_sweep_fails_fast_before_any_output(capsys):
    # the last lambda grid point saturates the queue
    code, out, err = run_cli(["sweep", "--param", "lambda", "--from", "100",
                              "--to", "300", "--step", "100", "--reps", "3"],
                             capsys)
    assert code == 1
    assert out == ""
    assert "error: lambda must be < mu" in err


# --- optimal-lambda ---

@pytest.mark.parametrize("argv,err", [
    (["model", "--batch", "500"], "error: batch must be within 1..100 (n_block)\n"),
    (["model", "--batch", "0"], "error: batch must be within 1..100 (n_block)\n"),
    (["optimal-lambda", "--grid-step", "3e-4"],
     "error: lambda grid exceeds 1000000 points\n"),
    (["optimal-lambda", "--grid-step", "1e-300"],
     "error: lambda grid exceeds 1000000 points\n"),
    (["fl-run", "--samples", "1000000000000"],
     "error: --samples must be <= 16777216, got 1000000000000\n"),
    (["fl-run", "--holdout", "1000000000000"],
     "error: --holdout must be <= 16777216, got 1000000000000\n"),
    (["fl-run", "--features", "1000000000000"],
     "error: --features must be <= 16777216, got 1000000000000\n"),
    (["fl-run", "--enterprises", "1000000000000"],
     "error: --enterprises must be <= 16777216, got 1000000000000\n"),
    (["fl-run", "--samples", "100000", "--features", "300"],
     "error: (--enterprises x --samples + --holdout) x --features must be "
     "<= 16777216, got 120600000\n"),
    (["model", "--n-samples", "16777217"],
     "error: --n-samples must be <= 16777216, got 16777217\n"),
    (["model", "--n-samples", str(10**400)],
     f"error: --n-samples must be <= 16777216, got {10**400}\n"),
    (["simulate", "--reps", "2", "--n-samples", str(10**400)],
     f"error: --n-samples must be <= 16777216, got {10**400}\n"),
    (["sweep", "--param", "lambda", "--from", "50", "--to", "100", "--step", "50",
      "--reps", "2", "--n-samples", str(10**400)],
     f"error: --n-samples must be <= 16777216, got {10**400}\n"),
])
def test_out_of_range_sizes_are_rejected(argv, err, capsys):
    code, out, got = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert got == err


def test_model_accepts_the_full_batch_range(capsys):
    for b in ("1", "100"):
        code, out, _ = run_cli(["model", "--batch", b], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == b


def test_optimal_lambda_agrees_with_grid(capsys):
    code, out, err = run_cli(["optimal-lambda"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda_star,grid_argmin,grid_step"
    star, argmin, step = (float(v) for v in lines[1].split(","))
    assert star == 50.0
    assert abs(argmin - star) <= step


@pytest.mark.parametrize("mu", ["1e200", "1e300", "1e307"])
def test_optimal_lambda_at_a_huge_mu_agrees_with_grid(mu, tmp_path, capsys):
    # lambda (mu - lambda) overflows on a grid in tx/s, and 4 mu
    # sqrt(f n_block) in the closed form at mu 1e307; in units of mu,
    # lambda/mu, nothing does
    cfg = tmp_path / "huge_mu.cfg"
    cfg.write_text(f"mu={mu}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code, out, err = run_cli(["optimal-lambda", "--config", str(cfg)],
                                 capsys)
    assert (code, err) == (0, "")
    star, argmin, step = (float(v) for v in out.splitlines()[1].split(","))
    assert star == pytest.approx(float(mu) / 6, rel=1e-11)  # 12 digits
    assert abs(argmin - star) <= step


# --- fl-run ---

def test_fl_run_reports_cycles(capsys):
    code, out, err = run_cli(["fl-run", "--samples", "40", "--cycle-cap", "2",
                              "--holdout", "50"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("cycle,weight_delta,holdout_accuracy,"
                               "train_loss,block_txs,")
    assert len(lines) == 3  # header + 2 cycles
    assert "result=cycle-cap cycles=2" in err


def test_fl_run_infinite_epsilon_stops_after_one_cycle(tmp_path, capsys):
    # any weight change is within an infinite tolerance
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("epsilon=inf\n")
    code, out, err = run_cli(["fl-run", "--config", str(cfg), "--samples",
                              "40", "--holdout", "50"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2  # header + exactly one cycle
    assert "result=converged cycles=1" in err


def test_simulate_rejects_zero_reps(capsys):
    code, out, err = run_cli(["simulate", "--reps", "0"], capsys)
    assert code == 1
    assert out == ""
    assert "error: replications must be >= 1" in err


def test_sweep_rejects_zero_reps(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a point ran with zero replications")
    monkeypatch.setattr(sim, "run_experiment", no_work)
    code, out, err = run_cli(["sweep", "--param", "lambda", "--from", "50",
                              "--to", "150", "--step", "50", "--reps", "0"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == "error: replications must be >= 1\n"


def test_fl_run_converged_summary(tmp_path, capsys):
    # a huge epsilon converges after the very first cycle
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("epsilon=1000\n")
    out_csv = tmp_path / "run.csv"
    code, out, _ = run_cli(["fl-run", "--config", str(cfg), "--samples", "40",
                            "--holdout", "50", "--out", str(out_csv)], capsys)
    assert code == 0
    assert "result=converged cycles=1" in out  # summary goes to stdout here
    assert len(out_csv.read_text().splitlines()) == 2


def test_fl_run_reads_sample_files(tmp_path, capsys):
    rng = np.random.default_rng(0)
    paths = []
    for i in range(2):
        ds = two_class_gaussian(50, 2, 4.0, rng)
        path = tmp_path / f"ent{i}.txt"
        write_samples(str(path), ds)
        paths.append(str(path))
    code, out, err = run_cli(["fl-run", "--data", ",".join(paths),
                              "--cycle-cap", "2", "--holdout", "50"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3


DEMO = ["fl-run", "--config", "configs/demo.cfg", "--samples", "200",
        "--features", "300", "--separation", "3.0", "--cycle-cap", "20"]


@pytest.mark.parametrize("argv,summary", [
    # without --adversaries the line is the same as before the count
    (DEMO, "result=cycle-cap cycles=20"),
    # the README's saboteur study: enterprise 2 enters no block
    (DEMO + ["--adversaries", "2"],
     "result=cycle-cap cycles=20 adversary_blocks=0"),
    # a threshold of 0 accepts the saboteurs' random weights every cycle
    (["fl-run", "--config", "{tmp}/accept_all.cfg", "--samples", "40",
      "--holdout", "50", "--adversaries", "1,3", "--cycle-cap", "3"],
     "result=cycle-cap cycles=3 adversary_blocks=3"),
])
def test_fl_run_counts_adversary_blocks(argv, summary, tmp_path, capsys,
                                        monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    (tmp_path / "accept_all.cfg").write_text("e0=0\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    assert err == summary + "\n"


def test_fl_run_stall_writes_the_completed_cycles(capsys, monkeypatch):
    # at seed 1003 the saboteur is admitted once, and a later cycle rejects
    # every update: the run ends stalled, with the CSV of the cycles before
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    code, out, err = run_cli(DEMO + ["--cycle-cap", "200", "--adversaries",
                                     "2", "--seed", "1003"], capsys)
    assert code == 1
    assert err == "result=stalled cycles=21 adversary_blocks=1\n"
    header, *rows = out.splitlines()
    assert header.startswith("cycle,weight_delta,")
    assert [row.split(",")[0] for row in rows] == [str(c) for c in range(1, 22)]


def test_fl_run_rejects_bad_adversary_id(capsys):
    code, _, err = run_cli(["fl-run", "--samples", "40", "--adversaries", "9",
                            "--cycle-cap", "1"], capsys)
    assert code == 1
    assert "error: adversary id 9 out of range" in err


def test_fl_run_adversary_ids_stop_below_the_enterprise_count(capsys):
    argv = ["fl-run", "--enterprises", "4", "--samples", "40", "--cycle-cap", "1"]
    code, _, err = run_cli(argv + ["--adversaries", "3"], capsys)
    assert code == 0
    assert err.startswith("result=cycle-cap cycles=1 adversary_blocks=")
    code, out, err = run_cli(argv + ["--adversaries", "4"], capsys)
    assert (code, out, err) == (1, "", "error: adversary id 4 out of range\n")


@pytest.mark.parametrize("command", [
    ["simulate", "--reps", "2"],
    ["sweep", "--param", "lambda", "--from", "50", "--to", "100", "--step", "50",
     "--reps", "2"],
    ["fl-run", "--samples", "40", "--cycle-cap", "1"],
])
def test_negative_seed_names_the_flag(command, capsys):
    code, out, err = run_cli([*command, "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command", ["model", "optimal-lambda"])
def test_unseeded_command_takes_no_seed(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2


def test_fl_run_rejects_non_integer_adversary_ids(capsys):
    code, out, err = run_cli(["fl-run", "--samples", "40", "--adversaries", "1,x",
                              "--cycle-cap", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("error: --adversaries must be comma-separated enterprise "
                   "ids, got '1,x'\n")


def too_many_draws(reps: int) -> str:
    """The error for ``reps`` replications at n_block 10^6 and f 1, which
    draw whole chunks of ``sim._CHUNK_REPS``."""
    R = sim._CHUNK_REPS
    return (f"replications x draws per replication must be <= 1073741824, "
            f"got {-(-reps // R) * R} x 2000011; a run draws whole chunks "
            f"of {R} replications")


@pytest.mark.parametrize("flags, message", [
    (["--reps", "1000000000000000"], "replications must be <= 1000000"),
    (["--reps", "1000000", "--config", "{max_n_block}"],
     too_many_draws(1_000_000)),
])
def test_simulate_caps_reps_and_draws(flags, message, tmp_path, capsys):
    cfg = tmp_path / "max_n_block.cfg"
    cfg.write_text("n_block=1000000\n")
    flags = [flag.replace("{max_n_block}", str(cfg)) for flag in flags]
    code, out, err = run_cli(["simulate", *flags], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_sweep_checks_every_point_before_the_first_runs(tmp_path, capsys,
                                                         monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a point ran before the grid was checked")
    monkeypatch.setattr(sim, "run_experiment", no_work)
    # the second point, n_block = 1000000, draws too much at 2000 reps
    code, out, err = run_cli(["sweep", "--param", "n_block", "--from", "100",
                              "--to", "1000000", "--step", "999900",
                              "--reps", "2000"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {too_many_draws(2000)}\n"
    # the second point, n_block = 1000, overflows t_dn = (h + b delta_m)/C
    cfg = tmp_path / "big_model.cfg"
    cfg.write_text("delta_m=1e306\n")
    code, out, err = run_cli(["sweep", "--param", "n_block", "--from", "100",
                              "--to", "1000", "--step", "900", "--reps", "2",
                              "--config", str(cfg)], capsys)
    assert (code, out, err) == (1, "", "error: t_dn must be finite\n")


def test_huge_config_sizes_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("n_block=1000000000000\n")
    code, out, err = run_cli(["simulate", "--reps", "1", "--config", str(cfg)],
                             capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: n_block must be <= 1000000\n"


def test_huge_t_max_is_rejected_before_training(tmp_path, capsys):
    # 10^12 steps once asked numpy for a 7 TiB index array; a chunked
    # draw would instead run for hours
    cfg = tmp_path / "huge_t_max.cfg"
    cfg.write_text("t_max=1000000000000\n")
    code, out, err = run_cli(["fl-run", "--samples", "20", "--holdout", "20",
                              "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {cfg}: t_max must be <= 1000000\n"


@pytest.mark.parametrize("command", [
    ["model"],
    ["simulate", "--reps", "2"],
    ["sweep", "--param", "lambda", "--from", "50", "--to", "100", "--step", "50",
     "--reps", "2"],
    ["fl-run", "--samples", "20", "--holdout", "20", "--cycle-cap", "1"],
])
def test_overflowing_latency_is_an_error(command, tmp_path, capsys,
                                        monkeypatch):
    # every value is finite, but delta_d x n_samples overflows in t_local;
    # simulate and sweep find that before drawing anything, fl-run before
    # any training
    def no_draws(*args, **kwargs):
        raise AssertionError("drew replications for a non-finite model")

    def no_training(*args, **kwargs):
        raise AssertionError("trained under a non-finite model")
    monkeypatch.setattr(sim, "_replication_draws", no_draws)
    monkeypatch.setattr(sim, "svrg_local_cycle", no_training)
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("delta_d=1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code, out, err = run_cli([*command, "--config", str(cfg)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: t_local must be finite\n"


@pytest.mark.parametrize("rates", ["lambda=1e-300\nmu=1e300\n",
                                   "lambda=1e-200\nmu=1e200\n"])
def test_an_extreme_rate_ratio_simulates_to_finite_columns(rates, tmp_path):
    # lambda / mu underflows to 0, and the vote delays, near 1 / lambda,
    # deviate by amounts whose squares overflow
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(rates)
    done = run_module(["simulate", "--config", str(cfg), "--reps", "100"],
                      subprocess.PIPE)
    assert (done.returncode, done.stderr) == (0, "")
    rows = [line.split(",") for line in done.stdout.splitlines()[1:]]
    assert len(rows) == len(ALL_FIELDS)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[3:])


MAX_FLOAT = repr(sys.float_info.max)


@pytest.mark.parametrize("config, zeros", [
    ("delta_d=5e-324", {"t_local"}), ("delta_m=5e-324", {"t_up", "t_global"}),
    (f"w_up={MAX_FLOAT}", {"t_up"}), (f"w_dn={MAX_FLOAT}", {"t_dn"})])
def test_a_component_modelled_as_zero_has_a_blank_rel_error(config, zeros,
                                                             tmp_path):
    # t_local, t_up, t_global or t_dn underflows to 0, or its link capacity
    # overflows; a relative error against 0 is undefined, so its cell is
    # blank, and sweep, which reports only the sums, is unaffected
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(config + "\n")
    done = run_module(["simulate", "--config", str(cfg), "--reps", "300"],
                      subprocess.PIPE, python_flags=("-W", "error"))
    assert (done.returncode, done.stderr) == (0, "")
    rows = [line.split(",") for line in done.stdout.splitlines()[1:]]
    assert {row[2] for row in rows if row[6] == ""} == zeros
    for row in rows:
        cells = row[3:] if row[2] not in zeros else row[3:6]
        assert all(math.isfinite(float(cell)) for cell in cells)
        assert (float(row[5]) == 0) == (row[2] in zeros)
    done = run_module(["sweep", "--config", str(cfg), "--reps", "2", "--param",
                       "lambda", "--from", "50", "--to", "100", "--step", "50"],
                      subprocess.PIPE, python_flags=("-W", "error"))
    assert (done.returncode, done.stderr) == (0, "")
    rows = [line.split(",") for line in done.stdout.splitlines()[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:])


def test_fl_run_rejects_zero_enterprises(capsys):
    code, out, err = run_cli(["fl-run", "--enterprises", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: need at least one enterprise\n"


def test_unwritable_out_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(["model", "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize("command", [
    ["fl-run", "--cycle-cap", "1"],
    ["sweep", "--param", "lambda", "--from", "50", "--to", "100", "--step", "50"],
])
def test_unwritable_out_path_fails_before_any_work(command, tmp_path, capsys,
                                                   monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")
    monkeypatch.setattr(cli, "run_training", no_work)
    monkeypatch.setattr(sim, "run_experiment", no_work)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli([*command, "--out", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def run_module(argv, stdout, python_flags=()):
    """``python -m fedbft.cli argv`` with its stdout on ``stdout``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *python_flags, "-m", "fedbft.cli",
                           *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env, timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["model"],
    # the CSV goes to --out and only the summary line to stdout
    ["fl-run", "--samples", "40", "--holdout", "50", "--cycle-cap", "1",
     "--out", "{tmp}/run.csv"],
])
def test_full_stdout_is_one_error_line(argv, tmp_path):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with open("/dev/full", "w") as full:
        done = run_module(argv, full)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write stdout: No space left on device\n")


def test_closed_pipe_is_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = run_module(["simulate", "--reps", "20"], write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        1, "error: cannot write stdout: Broken pipe\n")


def test_out_path_check_leaves_no_file_behind(tmp_path, capsys):
    # a run that fails after the --out check must not leave an empty CSV
    target = tmp_path / "x.csv"
    code, _, err = run_cli(["fl-run", "--enterprises", "0", "--out",
                            str(target)], capsys)
    assert code == 1
    assert err == "error: need at least one enterprise\n"
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    # finite values whose squared row norms overflow, which the step's
    # Gram matrix of rows would turn into a false divergence
    (["fl-run", "--data", "{tmp}/big.txt"],
     "{tmp}/big.txt: x must be finite, with finite squared row norms"),
    (["fl-run", "--separation", "1e200", "--samples", "40", "--holdout", "40"],
     "x must be finite, with finite squared row norms"),
    (["fl-run", "--data", "{tmp}/inf.txt"],
     "{tmp}/inf.txt: x must be finite, with finite squared row norms"),
])
def test_untrainable_data_is_one_error_line(argv, message, tmp_path, capsys):
    (tmp_path / "big.txt").write_text("1 1e160 1e160\n-1 -1e160 2e160\n"
                                      "1 3e159 1e160\n-1 -2e160 -1e160\n")
    (tmp_path / "inf.txt").write_text("1 0.5 inf\n-1 0.2 0.1\n1 0.3 0.3\n")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the test
        code, out, err = run_cli([*argv, "--cycle-cap", "2"], capsys)
    message = message.replace("{tmp}", str(tmp_path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_fl_run_weight_delta_of_a_huge_finite_move_is_finite(tmp_path,
                                                             capsys):
    # at beta 1e200 the weights move by about 1e199, whose square overflows
    cfg = tmp_path / "huge_beta.cfg"
    cfg.write_text("beta=1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["fl-run", "--config", str(cfg), "--samples",
                                  "40", "--holdout", "40", "--cycle-cap", "3"],
                                 capsys)
    assert (code, err) == (0, "result=cycle-cap cycles=3\n")
    deltas = [float(row.split(",")[1]) for row in out.splitlines()[1:]]
    assert len(deltas) == 3
    assert all(1e198 < d < math.inf for d in deltas)


def test_diverging_update_is_one_error_line(tmp_path):
    # a step factor of 1e200 on classes 1e150 apart overflows the local
    # pass; with warnings as errors, only the divergence check may speak
    cfg = tmp_path / "huge_beta.cfg"
    cfg.write_text("beta=1e200\n")
    done = run_module(["fl-run", "--config", str(cfg), "--samples", "40",
                       "--holdout", "40", "--separation", "1e150"],
                      subprocess.PIPE, python_flags=("-W", "error"))
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "error: local update diverged; reduce beta\n")


def test_fl_run_rejects_mismatched_data_files(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_samples(str(a), two_class_gaussian(30, 2, 2.0, rng))
    write_samples(str(b), two_class_gaussian(30, 3, 2.0, rng))
    code, _, err = run_cli(["fl-run", "--data", f"{a},{b}"], capsys)
    assert code == 1
    assert "disagree on feature count" in err


@pytest.mark.parametrize("cap, err", [
    (40, "result=cycle-cap cycles=1\n"),
    # b.txt's 6th row takes the pool to 32 values: it fails there, before
    # the bad number on its last line is parsed
    (30, "error: {b}: data files hold more than 30 feature values in all\n"),
])
def test_fl_run_caps_the_pooled_values_of_data_files(cap, err, tmp_path,
                                                      monkeypatch, capsys):
    rng = np.random.default_rng(2)
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_samples(str(a), two_class_gaussian(10, 2, 4.0, rng))
    write_samples(str(b), two_class_gaussian(10, 2, 4.0, rng))
    if cap < 40:
        with open(b, "a") as fh:
            fh.write("1 0.5 not-a-number\n")
    monkeypatch.setattr("fedbft.data.MAX_FEATURE_VALUES", cap)
    code, _, got = run_cli(["fl-run", "--data", f"{a},{b}", "--cycle-cap", "1"],
                           capsys)
    assert (code, got) == (0 if cap == 40 else 1, err.format(b=b))


@pytest.mark.parametrize("data", [",", ""])
def test_fl_run_rejects_empty_data_list(data, capsys):
    code, out, err = run_cli(["fl-run", "--data", data], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: no data file given\n"


@pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
@pytest.mark.parametrize("flag", ["--data", "--config"])
def test_unreadable_input_file_is_an_error(flag, kind, tmp_path, capsys):
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "binary":
        path.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    reason = {"missing": "No such file or directory",
              "directory": "Is a directory",
              "binary": "not UTF-8 text"}[kind]
    what = "config " if flag == "--config" else ""
    code, out, err = run_cli(["fl-run", flag, str(path), "--cycle-cap", "1"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot read {what}{path}: {reason}\n"


@pytest.mark.parametrize("command", [
    ["simulate", "--reps", "5000"],
    ["sweep", "--param", "lambda", "--from", "50", "--to", "100", "--step", "50"],
])
def test_bad_n_samples_fails_before_any_replication(command, capsys,
                                                    monkeypatch):
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication ran before n_samples was checked")
    monkeypatch.setattr(sim, "_replication_draws", no_replication)
    code, out, err = run_cli([*command, "--n-samples", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: n_i must be >= 1\n"


# --- training orchestration ---

def test_run_training_row_shape():
    streams = RandomStreams.from_seed(3)
    ents = [split_dataset(two_class_gaussian(40, 2, 4.0, streams.data))
            for _ in range(3)]
    holdout = two_class_gaussian(60, 2, 4.0, streams.data)
    run = run_training(SystemParams(t_max=30), ents, holdout, streams,
                       cycle_cap=2)
    assert len(run.rows) == 2
    assert len(run.rows[0]) == 5 + len(ALL_FIELDS)
    assert run.rows[0][0] == 1 and run.rows[1][0] == 2
    assert len(run.blocks) == 2
    assert run.result == "cycle-cap"


def test_run_training_loss_decreases_initially():
    streams = RandomStreams.from_seed(4)
    ents = [split_dataset(two_class_gaussian(100, 2, 4.0, streams.data))
            for _ in range(4)]
    holdout = two_class_gaussian(200, 2, 4.0, streams.data)
    run = run_training(SystemParams(t_max=200), ents, holdout, streams,
                       cycle_cap=5)
    losses = [row[3] for row in run.rows]
    assert losses[-1] < losses[0]


# --- top-level behaviour ---

def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--warmup", "10"], "unrecognized arguments: --warmup 10"),
    (["sweep", "--param", "lambda", "--from", "50", "--to", "100", "--step",
      "50", "--warmup", "1"], "unrecognized arguments: --warmup 1"),
    (["simulate", "--reps", "x"], "argument --reps: invalid int value: 'x'"),
])
def test_bad_command_line_is_one_error_line(argv, message, capsys):
    # no usage line: a bad flag reads like every other error
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_missing_config_file_is_an_error(capsys):
    code, _, err = run_cli(["model", "--config", "/no/such/file.cfg"], capsys)
    assert code == 1
    assert err.startswith("error: cannot read config")


# --- no argv ends in a traceback ---

@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Config and data files that the random argv below may name."""
    root = tmp_path_factory.mktemp("inputs")
    texts = {
        "small.cfg": "lambda=150\nn_block=20\n",
        "timeout.cfg": "tau=0.005\nn_block=10\n",
        "faults.cfg": "f=2\nn_peers=7\nn_block=10\n",
        "inf_mu.cfg": "mu=inf\n",
        "huge_n_block.cfg": "n_block=1000000000000\n",
        # the largest n_block, which 1000000 replications draw too much at
        "max_n_block.cfg": "n_block=1000000\n",
        "huge_f.cfg": "f=1000000000000\nn_peers=3000000000001\n",
        "overflow.cfg": "delta_d=1e308\n",
        "bad_key.cfg": "what=1\n",
        "bad_label.txt": "2 0.5\n",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "binary.bin").write_bytes(b"\xff\xfe\x00\x01")
    (root / "folder").mkdir()
    rng = np.random.default_rng(0)
    for i in range(2):
        write_samples(str(root / f"ent{i}.txt"), two_class_gaussian(30, 2, 4.0, rng))
    write_samples(str(root / "ent3d.txt"), two_class_gaussian(30, 3, 4.0, rng))
    return root


def mostly(valid, *invalid):
    """Draw from ``valid`` nine times in ten, else one of the invalid values."""
    return st.sampled_from([valid] * 9 + [st.sampled_from(invalid)]).flatmap(
        lambda strategy: strategy)


@st.composite
def cli_argv(draw):
    """Random well-formed argv for one subcommand, kept small and fast.

    ``{root}`` stands for the directory of ``input_files``.
    """
    def opt(flag, strategy):
        value = draw(strategy)
        return [] if value is None else [f"{flag}={value}"]

    def files(*names):
        return ",".join(f"{{root}}/{n}" if n else n for n in names)

    ints = st.integers
    command = draw(st.sampled_from(["model", "simulate", "sweep",
                                    "optimal-lambda", "fl-run"]))
    argv = [command]
    argv += opt("--config", mostly(
        st.sampled_from([None, files("small.cfg"), files("timeout.cfg"),
                         files("faults.cfg")]),
        *(files(n) for n in ("inf_mu.cfg", "huge_n_block.cfg", "huge_f.cfg",
                             "overflow.cfg", "bad_key.cfg", "binary.bin",
                             "folder", "missing.cfg"))))
    if command in ("simulate", "sweep", "fl-run"):
        argv += opt("--seed", mostly(st.none() | ints(0, 5), -1))
    argv += opt("--out", mostly(st.sampled_from([None, "-", files("out.csv")]),
                                files("missing/out.csv")))
    if command in ("model", "simulate", "sweep"):
        argv += opt("--n-samples", mostly(st.none() | ints(1, 1000), 0, -1,
                                          10**400))
    if command == "model":
        argv += opt("--batch", mostly(st.none() | ints(1, 10), 0, 500))
    if command in ("simulate", "sweep"):
        argv += opt("--reps", mostly(ints(1, 20), 0, 10**15))
    if command == "sweep":
        param = draw(st.sampled_from(sim.SWEEPABLE))
        lo, hi = {"lambda": (10, 90), "mu": (160, 300), "f": (0, 3),
                  "n_block": (1, 50), "tau": (1, 20)}[param]
        start = draw(mostly(ints(lo, hi), -5, 0.5, 1e300))
        step = draw(mostly(ints(1, 30), 0, -1, 0.25))
        count = draw(mostly(st.sampled_from([1, 3]), -1, 0, 10**9))
        argv += [f"--param={param}", f"--from={start}",
                 f"--to={start + count * step}", f"--step={step}"]
    if command == "optimal-lambda":
        argv += opt("--grid-step", mostly(
            st.none() | st.floats(0.05, 50), 0.0, -1.0, 3e-4, 1e-300, 400.0))
    if command == "fl-run":
        argv += opt("--data", mostly(
            st.sampled_from([None, files("ent0.txt"), files("ent0.txt", "ent1.txt")]),
            files("ent0.txt", "ent3d.txt"), files("bad_label.txt"),
            files("binary.bin"), files("folder"), files("missing.txt"), ","))
        argv += opt("--enterprises", mostly(st.none() | ints(1, 4), 0, -1,
                                            10**12))
        argv += opt("--samples", mostly(st.none() | ints(10, 60), -1, 2, 3,
                                        10**12))
        argv += opt("--features", mostly(st.none() | ints(1, 4), 0, 10**12))
        argv += opt("--separation", mostly(st.none() | st.floats(0, 8),
                                           -1.0, math.nan, math.inf))
        argv += opt("--holdout", mostly(ints(2, 60), 1, -1, 10**12))
        argv += opt("--adversaries", mostly(st.sampled_from([None, "0", "1,2"]),
                                            "9", "-1", "x"))
        argv += opt("--cycle-cap", mostly(ints(1, 2), 0, -1))
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
@example(argv=["fl-run", "--data={root}/missing.txt", "--cycle-cap=1"])
@example(argv=["fl-run", "--data={root}/folder", "--cycle-cap=1"])
@example(argv=["simulate", "--config={root}/max_n_block.cfg",
               "--reps=1000000"])
@example(argv=["sweep", "--config={root}/max_n_block.cfg", "--param=lambda",
               "--from=50", "--to=100", "--step=50", "--reps=1000000"])
@example(argv=["simulate", "--config={root}/huge_n_block.cfg", "--reps=1"])
@example(argv=["simulate", "--config={root}/overflow.cfg", "--reps=2"])
@example(argv=["fl-run", "--config={root}/huge_f.cfg", "--cycle-cap=1"])
@example(argv=["fl-run", "--samples=1000000000000", "--cycle-cap=1"])
@example(argv=["model", f"--n-samples={10**400}"])
@example(argv=["sweep", "--param=lambda", "--from=50", "--to=100", "--step=50",
               "--reps=2", f"--n-samples={10**400}"])
def test_no_argv_ends_in_a_traceback(input_files, argv):
    argv = [arg.replace("{root}", str(input_files)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    event(f"{argv[0]} exit {code}")
    if code == 0:
        # fl-run reports its summary on stderr when the CSV goes to stdout
        assert lines == [] or (len(lines) == 1 and lines[0].startswith("result="))
    elif stalled := [line for line in lines + out.getvalue().splitlines()
                     if line.startswith("result=stalled ")]:
        # the one nonzero exit that is not an error: a stalled fl-run,
        # which still writes its CSV and puts the summary on the other channel
        assert argv[0] == "fl-run" and code == 1 and len(stalled) == 1
        if lines:  # the CSV is on stdout
            assert lines == stalled and out.getvalue().startswith("cycle,")
        else:
            assert out.getvalue() == stalled[0] + "\n"
    else:
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error: ")
