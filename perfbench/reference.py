"""A fixed reference computation that measures how fast the host is right now.

Shared machines change speed by tens of percent within a minute, so raw
host time per unit drifts more between runs than the benchmark's bounds
allow.  Each job times this computation just before and just after its
CLI call and divides by it (see ELASTICITY), which cancels most of that
drift.  The mix follows
fedbft's hot paths without calling fedbft: seeding fresh generators,
exponential draws, cumulative scans, and a Python loop of scalar numpy
steps.  Never change it: doing so rescales every normalised result.
"""
import time

import numpy as np

ROUNDS = 600
NOMINAL_S = 0.2    # roughly its time on the 2-core host the baseline ran on
# A job's time moves as this computation's time to the power 0.72-0.80
# (log-log slope over about 300 jobs of all four workloads; 0.61-0.75 for
# set-up), not to the power 1: when the host speeds up, this computation
# gains more than fedbft does.  Rescaling by the plain ratio overcorrects,
# so times are multiplied by (NOMINAL_S / reference time) ** ELASTICITY.
ELASTICITY = 0.75


def _work(rounds: int) -> float:
    acc = 0.0
    for r in range(rounds):
        rng = np.random.default_rng(np.random.SeedSequence((7, r)).spawn(2)[0])
        arrivals = np.cumsum(-np.log1p(-rng.random(1100)))
        acc += float(np.maximum.accumulate(arrivals - arrivals[::-1]).sum())
        w = np.zeros(2)
        x = rng.random((64, 2))
        for k in range(64):
            z = float(x[k] @ w)
            w -= 0.01 * x[k] * (1.0 / (1.0 + np.exp(-z)))
        acc += float(w.sum())
    return acc


def seconds(rounds: int = ROUNDS) -> float:
    """Wall time of one pass of the reference computation."""
    start = time.perf_counter()
    _work(rounds)
    return time.perf_counter() - start
