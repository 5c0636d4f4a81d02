"""The benchmark's layer trace still sees every layer it predicts.

perfbench/layers.py wraps named fedbft functions and predicts which of
them each kind of workload calls; a traced benchmark job fails when a
layer predicted used records no calls or a layer predicted idle records
some.  These tests run that check on tiny jobs, so a refactor that moves
work away from a traced function shows up here rather than in a failed
benchmark run.  They only read perfbench/.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

JOB = """
import json, sys
sys.path.insert(0, sys.argv[1])
from fedbft import cli
import layers, run
recorder = layers.install()
code = cli.main(sys.argv[3:])
snapshot = recorder.snapshot()
print(json.dumps({"code": code,
                  "problems": run.coverage_problems(sys.argv[2], snapshot),
                  "calls": {k: v["calls"] for k, v in snapshot.items()}}))
"""


@pytest.mark.parametrize("kind, argv", [
    ("sim", ["simulate", "--reps", "50"]),
    ("fl", ["fl-run", "--enterprises", "2", "--samples", "40",
            "--holdout", "40", "--cycle-cap", "1"]),
])
def test_traced_job_calls_exactly_the_predicted_layers(kind, argv, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", JOB, str(ROOT / "perfbench"), kind, *argv,
         "--out", str(tmp_path / "out.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert result["problems"] == []
    if kind == "sim":
        # replications are seeded per chunk of 512: 50 read one chunk
        assert result["calls"]["sim.RandomStreams.for_replication"] == 1
