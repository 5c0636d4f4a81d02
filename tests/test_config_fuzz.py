"""Every config key at its edge values, one key at a time, through every command.

A valid but extreme config must end in a finite CSV with nothing on
stderr, or in one "error:" line and a nonzero exit, with warnings raised
as errors.  The table is fixed, so every run repeats the same cases.
"""
import math
import sys
import warnings
from dataclasses import fields

import pytest

from fedbft.cli import main
from fedbft.domain import SystemParams

FLOATS = ("0", "-0", "-1", "5e-324", "1e-300", "1e-12", "0.999999", "1e12",
          "1e300", repr(sys.float_info.max), "inf", "nan")
INTS = ("0", "-1", "1", "2", "3", "100001", "1000001")

# a 2-point sweep, of tau when the key under test is lambda
LAMBDA_GRID = ["--param", "lambda", "--from", "50", "--to", "100", "--step", "50"]
TAU_GRID = ["--param", "tau", "--from", "1", "--to", "2", "--step", "1"]
COMMANDS = {
    "model": lambda key: ["model"],
    "simulate": lambda key: ["simulate", "--reps", "300"],
    "sweep": lambda key: ["sweep", *(TAU_GRID if key == "lambda"
                                     else LAMBDA_GRID), "--reps", "300"],
    "optimal-lambda": lambda key: ["optimal-lambda"],
    "fl-run": lambda key: ["fl-run", "--samples", "20", "--holdout", "20",
                           "--cycle-cap", "2"],
}


def _cases():
    for field in fields(SystemParams):
        key = "lambda" if field.name == "lam" else field.name
        for value in INTS if isinstance(field.default, int) else FLOATS:
            for command in COMMANDS:
                yield pytest.param(command, key, value,
                                   id=f"{command}-{key}={value}")


@pytest.mark.parametrize("command, key, value", _cases())
def test_extreme_config_value_is_a_finite_csv_or_one_error(
        command, key, value, tmp_path, capsys):
    cfg = tmp_path / "edge.cfg"
    # t_max 20 keeps the training runs short
    cfg.write_text(f"{key}={value}\n" + ("" if key == "t_max" else "t_max=20\n"))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*COMMANDS[command](key), "--config", str(cfg),
                     "--out", str(out)])
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    if code == 0:
        assert err == []
        for line in out.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    number = float(cell)
                except ValueError:  # a blank NaN cell or a config id
                    continue
                assert math.isfinite(number), line
    elif captured.out.startswith("result=stalled "):
        assert command == "fl-run" and code == 1 and err == []
    else:
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ")
