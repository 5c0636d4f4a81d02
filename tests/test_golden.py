"""Frozen CLI outputs: training and simulation must reproduce them bit for bit.

The fl-run CSVs under tests/data/ and the digest chain below pin the
rounding of the blocked lazy SVRG pass (the anchor term applied once after
the step loop, the label folded into its scalars, its logistic through
math.exp, the anchor terms taken from the gathered rows, and each row's
dot taken from its block-start gemv less the block's Gram corrections)
and of the one-gemv dataset gradient, on numpy's BLAS kernels: the fl-run
rounding contract README "Determinism" sets out.  The simulate and sweep
CSVs pin the stream contract it also sets out: a stationary start and
per-chunk seeding, each chunk drawn column-major.  Its list of versions
names each one that moved a golden.  A faster or smaller implementation
must leave every byte unchanged.
"""
import difflib
import hashlib
from pathlib import Path

import pytest

from fedbft.cli import main
from fedbft.data import split_dataset, two_class_gaussian
from fedbft.domain import SystemParams
from fedbft.sim import RandomStreams, run_training

DATA = Path(__file__).parent / "data"

# (golden file, config text, fl-run flags); the seed is 0 in both
SHAPES = {
    # the pinned acceptance-5 run: dim 2, converges in 202 cycles
    "acceptance5": ("fl_run_acceptance5.csv", "beta=2.0\n",
                    ["--features", "2", "--separation", "4.0",
                     "--cycle-cap", "400"]),
    # the fl-adversary benchmark shape, cut to 30 cycles: dim 300, one saboteur
    "adversary": ("fl_run_adversary_cap30.csv", "e0=0.7\nbeta=2.0\nt_max=200\n",
                  ["--features", "300", "--separation", "3.0",
                   "--adversaries", "2", "--cycle-cap", "30"]),
}

# (golden file, config text, argv); seed 0 in all.  At tau 10 every block
# seals on size (b = 100); at tau 0.2 every block seals on the timeout, so
# b varies.
SIMULATE = ["simulate", "--reps", "2000"]
SWEEP = ["sweep", "--param", "lambda", "--from", "50", "--to", "250",
         "--step", "50", "--reps", "300"]
SIM_SHAPES = {
    "simulate_tau10": ("simulate_tau10.csv", "tau=10\n", SIMULATE),
    "simulate_tau0.2": ("simulate_tau0.2.csv", "tau=0.2\n", SIMULATE),
    "sweep_tau10": ("sweep_lambda_tau10.csv", "tau=10\n", SWEEP),
    "sweep_tau0.2": ("sweep_lambda_tau0.2.csv", "tau=0.2\n", SWEEP),
}


def line_diff(golden, want: bytes, got: bytes) -> str:
    """The CSV lines that differ, or a note when only line endings do."""
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(),
        got.decode(errors="replace").splitlines(),
        f"tests/data/{golden}", "this run", lineterm="", n=0)
    return "\n".join(diff) or "the lines match; their endings differ"


def assert_matches_golden(golden, config, argv, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "run.csv"
    code = main([*argv, "--config", str(cfg), "--seed", "0", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    got, want = out.read_bytes(), (DATA / golden).read_bytes()
    assert got == want, line_diff(golden, want, got)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fl_run_csv_is_byte_identical_to_golden(shape, tmp_path, capsys):
    golden, config, flags = SHAPES[shape]
    assert_matches_golden(golden, config,
                          ["fl-run", "--enterprises", "4", "--samples", "500",
                           "--holdout", "2000", *flags], tmp_path, capsys)


@pytest.mark.parametrize("shape", sorted(SIM_SHAPES))
def test_simulation_csv_is_byte_identical_to_golden(shape, tmp_path, capsys):
    assert_matches_golden(*SIM_SHAPES[shape], tmp_path, capsys)


def test_block_tx_digests_match_golden():
    # the CSV rounds to 12 digits; tx digests hash every weight bit
    streams = RandomStreams.from_seed(0)
    ents = [split_dataset(two_class_gaussian(500, 300, 3.0, streams.data))
            for _ in range(4)]
    holdout = two_class_gaussian(2000, 300, 3.0, streams.data)
    run = run_training(SystemParams(e0=0.7, beta=2.0, t_max=200), ents, holdout,
                       streams, adversaries=[2], cycle_cap=30)
    chain = "".join(tx.digest for block in run.blocks for tx in block.txs)
    assert hashlib.sha256(chain.encode()).hexdigest() == (
        "697a9d29219d9d1b15eb92a180855deb99c2a28bbd0fb95f5b8764c11064c3d9")
