"""Acceptance gate: the seven headline checks, one visible line each.

Each test prints ``acceptance N: PASS/FAIL -- <label>`` directly to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows the
scoreboard.  Tolerances and replication counts are stated inline; pinned
seeds make every check reproducible.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fedbft import latency
from fedbft.cli import main, run_training
from fedbft.data import Dataset, split_dataset, two_class_gaussian
from fedbft.domain import SystemParams
from fedbft.fl import (GlobalModel, accuracy, aggregate_global,
                       average_gradient, mean_loss)
from fedbft.sim import (RandomStreams, audit_block, run_cycle,
                        run_experiment, run_leader_batching,
                        sample_exponential)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, label: str, passed: bool) -> None:
        verdict = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"acceptance {num}: {verdict} -- {label}")
    return _announce


def checked(announce, num, label):
    """Context manager printing the scoreboard line for one criterion."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            announce(num, label, exc_type is None)
            return False
    return _Ctx()


def test_1_consensus_delay_matches_formula(announce):
    # 5 arrival rates x 1e4 replications; simulated mean consensus delay
    # within 3.1% of the closed form at every point, in under 2 minutes
    label = "consensus delay within 3.1% of formula at 5 rates"
    with checked(announce, 1, label):
        start = time.perf_counter()
        for lam in (50.0, 100.0, 150.0, 200.0, 250.0):
            p = SystemParams(lam=lam)
            stats = run_experiment(p, 10_000, 42)
            # every replication sealed a full block, so the formula target
            # is exactly the closed form at b = n_block
            assert stats.analytic["t_preprepare"] == pytest.approx(
                p.n_block / (p.mu - p.lam), rel=1e-12)
            formula = latency.consensus_closed_form(p.n_block, p.f, lam, p.mu)
            rel = abs(stats.mean["t_consensus"] - formula) / formula
            assert rel <= 0.031, f"lambda={lam:g}: rel error {rel:.4%}"
        assert time.perf_counter() - start < 120.0


def test_2_optimal_arrival_rate(announce):
    label = "optimal rate is exactly 50 and the grid argmin agrees"
    with checked(announce, 2, label):
        assert latency.optimal_lambda(1, 100, 300.0) == 50.0
        step = 300.0 / 1000.0
        # raises if any second difference over the grid drops below -1e-9
        argmin = latency.argmin_consensus_grid(1, 100, 300.0, step)
        assert abs(argmin - 50.0) <= step


def test_3_total_delay_grows_with_fault_budget(announce):
    label = "t_total increasing in f (analytic strict, simulated within 2 SE)"
    with checked(announce, 3, label):
        start = time.perf_counter()
        analytic, means, errs = [], [], []
        for f in range(1, 11):
            p = SystemParams(f=f, n_peers=3 * f + 1)
            analytic.append(latency.t_total(p, 500, p.n_block).t_total)
            stats = run_experiment(p, 1000, (314, f))
            means.append(stats.mean["t_total"])
            errs.append(stats.std_err["t_total"])
        assert all(b > a for a, b in zip(analytic, analytic[1:]))
        for i in range(9):
            slack = 2.0 * math.hypot(errs[i], errs[i + 1])
            assert means[i + 1] >= means[i] - slack, \
                f"f={i+1}->{i+2}: {means[i]:.6f} -> {means[i+1]:.6f}"
        assert time.perf_counter() - start < 60.0


def test_4_queueing_fidelity(announce):
    label = "queue sojourn and prepare-phase means within 2% of theory"
    with checked(announce, 4, label):
        start = time.perf_counter()
        n = 100_000
        for lam, mu in ((100.0, 300.0), (200.0, 300.0), (50.0, 300.0)):
            p = SystemParams(lam=lam, mu=mu, n_block=n, tau=float("inf"))
            streams = RandomStreams.for_replication(7, 0)
            b, sojourn_total = run_leader_batching(p, n, streams)
            mean = sojourn_total / b
            theory = 1.0 / (mu - lam)
            assert abs(mean - theory) / theory <= 0.02, \
                f"(lam={lam:g}, mu={mu:g}): {mean:.6f} vs {theory:.6f}"
        # prepare phase: 2f gap draws plus 2f+1 processing draws per round
        p = SystemParams()
        streams = RandomStreams.for_replication(7, 1)
        gaps = sample_exponential(p.lam, streams.arrivals, (n, 2 * p.f))
        procs = sample_exponential(p.mu, streams.services, (n, 2 * p.f + 1))
        mean = float((gaps.sum(axis=1) + procs.sum(axis=1)).mean())
        theory = 2 * p.f / p.lam + (2 * p.f + 1) / p.mu
        assert abs(mean - theory) / theory <= 0.02
        assert time.perf_counter() - start < 60.0


def _fl_acceptance_setup():
    """Pinned configuration for the end-to-end training check."""
    p = SystemParams(beta=2.0)  # epsilon stays at the 1e-3 default
    streams = RandomStreams.from_seed(0)
    enterprises = [
        split_dataset(two_class_gaussian(500, 2, 4.0, streams.data))
        for _ in range(4)
    ]
    holdout = two_class_gaussian(2000, 2, 4.0, streams.data)
    return p, enterprises, holdout, streams


def test_5_learning_correctness(announce, tmp_path):
    label = "gradients, aggregation, and a converged federated run"
    with checked(announce, 5, label):
        start = time.perf_counter()

        # gradient vs central finite differences, 100 random draws
        rng = np.random.default_rng(2024)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            w = rng.normal(size=dim)
            s = Dataset(rng.normal(size=(1, dim)),
                        np.array([1 if rng.random() < 0.5 else -1]))
            grad = average_gradient(w, s)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = 1e-6
                fd = (mean_loss(w + e, s) - mean_loss(w - e, s)) / 2e-6
                assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))

        # aggregation: fixed point, single participant, permutation order
        from fedbft.domain import LocalUpdateTx
        w_prev = rng.normal(size=3)
        same = [LocalUpdateTx(i, w_prev, np.zeros(3), 5 + i, 0.0)
                for i in range(3)]
        np.testing.assert_allclose(aggregate_global(w_prev, same), w_prev,
                                   rtol=1e-12)
        solo = LocalUpdateTx(0, rng.normal(size=3), np.zeros(3), 9, 0.0)
        np.testing.assert_allclose(aggregate_global(w_prev, [solo]),
                                   solo.weights, rtol=1e-12)
        mixed = [LocalUpdateTx(i, rng.normal(size=3), np.zeros(3),
                               1 + 3 * i, 0.0) for i in range(4)]
        np.testing.assert_allclose(aggregate_global(w_prev, mixed),
                                   aggregate_global(w_prev, mixed[::-1]),
                                   rtol=1e-12)

        # oracle: centralized full-batch descent on the pooled training
        # data must itself reach the bar the federated run is held to
        p, enterprises, holdout, streams = _fl_acceptance_setup()
        pooled = Dataset(np.vstack([e.train.x for e in enterprises]),
                         np.concatenate([e.train.y for e in enterprises]))
        w = np.zeros(2)
        for _ in range(300):
            w = w - 2.0 * average_gradient(w, pooled)
        assert accuracy(w, holdout) >= 0.95

        # end-to-end run through the CLI on pinned-seed separable data
        cfg = tmp_path / "train.cfg"
        cfg.write_text("beta=2.0\n")
        out_csv = tmp_path / "train.csv"
        code = main(["fl-run", "--config", str(cfg), "--seed", "0",
                     "--enterprises", "4", "--samples", "500",
                     "--features", "2", "--separation", "4.0",
                     "--holdout", "2000", "--cycle-cap", "400",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) < 400, "run hit the cycle cap without converging"
        losses = [float(r["train_loss"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert float(rows[-1]["holdout_accuracy"]) >= 0.95

        # the same pinned run through the engine: convergence, identical
        # trajectory, and a clean audit of every sealed block
        p, enterprises, holdout, streams = _fl_acceptance_setup()
        run = run_training(p, enterprises, holdout, streams, cycle_cap=400)
        assert run.result == "converged"
        assert len(run.blocks) == len(rows)
        assert float(rows[-1]["weight_delta"]) == pytest.approx(
            run.rows[-1][1], rel=1e-10)
        assert all(audit_block(b, enterprises, p) for b in run.blocks)
        assert time.perf_counter() - start < 60.0


def test_6_adversarial_updates_are_excluded(announce):
    label = "random-weight txs kept out of >=99% of sealed blocks"
    with checked(announce, 6, label):
        p = SystemParams(e0=0.6, t_max=200)
        excluded = 0
        total = 0
        for seed in range(100):
            streams = RandomStreams.from_seed(seed)
            enterprises = [
                split_dataset(two_class_gaussian(200, 300, 3.0, streams.data))
                for _ in range(4)
            ]
            model = GlobalModel.initial(300)
            for _ in range(3):
                model, _, block = run_cycle(p, enterprises, model, streams,
                                            adversaries=(2,))
                total += 1
                if all(tx.enterprise_id != 2 for tx in block.txs):
                    excluded += 1
                # post-hoc audit: accuracy threshold and digests all hold
                assert audit_block(block, enterprises, p)
        assert total == 300
        assert excluded / total >= 0.99, f"excluded {excluded}/{total}"


def test_7_same_seed_gives_byte_identical_csv(announce, tmp_path):
    label = "every command repeated with its seed is byte-identical"
    with checked(announce, 7, label):
        commands = {
            "model": ["model"],
            "simulate": ["simulate", "--reps", "50", "--seed", "9"],
            "sweep": ["sweep", "--param", "lambda", "--from", "50", "--to",
                      "150", "--step", "50", "--reps", "20", "--seed", "9"],
            "optimal-lambda": ["optimal-lambda"],
            "fl-run": ["fl-run", "--samples", "60", "--cycle-cap", "3",
                       "--holdout", "80", "--seed", "9"],
        }
        for name, args in commands.items():
            paths = [tmp_path / f"{name}-{i}.csv" for i in (1, 2)]
            for path in paths:
                assert main(args + ["--out", str(path)]) == 0
            first, second = (p.read_bytes() for p in paths)
            assert first == second, f"{name} output changed between runs"
            assert first.endswith(b"\n") and b"\r" not in first
