"""Frozen fl-run outputs: the training loop must reproduce them bit for bit.

The CSVs under tests/data/ and the digest chains below were written by the
step loop as first implemented (one scalar index draw and one array-path
sigmoid per step).  A faster loop must leave every byte unchanged.
"""
import hashlib
from pathlib import Path

import pytest

from fedbft.cli import main, run_training
from fedbft.data import split_dataset, two_class_gaussian
from fedbft.domain import SystemParams
from fedbft.sim import RandomStreams

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


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fl_run_csv_is_byte_identical_to_golden(shape, tmp_path, capsys):
    golden, config, flags = SHAPES[shape]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "run.csv"
    code = main(["fl-run", "--config", str(cfg), "--seed", "0",
                 "--enterprises", "4", "--samples", "500", "--holdout", "2000",
                 *flags, "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_block_tx_digests_match_golden():
    # the CSV rounds to 12 digits; tx digests hash every weight bit
    streams = RandomStreams.from_seed(0)
    ents = [split_dataset(two_class_gaussian(500, 300, 3.0, streams.data, owner=i))
            for i in range(4)]
    holdout = two_class_gaussian(2000, 300, 3.0, streams.data)
    run = run_training(SystemParams(e0=0.7, beta=2.0, t_max=200), ents, holdout,
                       streams, adversaries=[2], cycle_cap=30)
    chain = "".join(tx.digest for block in run.blocks for tx in block.txs)
    assert hashlib.sha256(chain.encode()).hexdigest() == (
        "bfeef7c55796215f2179c27c2f9d9f35cae84f5d053dbbd82e8e6fc10fbbcf80")
